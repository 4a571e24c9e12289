//! Timed per-layer probes: each calls one layer's public functions in a
//! loop, single-threaded and pinned, on requests generated the same way
//! as the workload's own stream.

use crate::gen::{plan, Shape, Workload};
use crate::replay::{totals_by_name, Recorder, Walker};
use crate::world::{World, MBPS};
use qos_broker::{Interval, PathSegment, ReservationId};
use qos_core::channel::{handshake, PeerPin};
use qos_core::envelope::SignedRar;
use qos_core::envelope_ref::EnvelopeRef;
use qos_core::messages::SignalMessage;
use qos_core::trust::{verify_rar, KeySource};
use qos_crypto::{DistinguishedName, KeyPair, PublicKey, Signature, Timestamp, TrustPolicy};
use qos_policy::{
    AttributeSet, DomainVars, GroupServer, NoReservations, PolicyRequest, PolicyServer, Value,
};
use qos_storage::{FileStore, FileStoreOptions, LedgerRecord, LedgerStore};
use qos_telemetry::Telemetry;
use qos_transport::{write_frame, PooledFrameDecoder, MAX_FRAME_LEN};
use qos_wire::BufferPool;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Distinct requests each probe works on.
const SAMPLES: usize = 256;
/// Reservation-table fill the standing-entries probes run at, and the
/// slice at either end that is timed.
const STANDING: usize = 4096;
const SLICE: usize = 512;
const FLOW_PROBE_OPS: usize = 2000;
const HANDSHAKES: usize = 16;
const BATCH: usize = 64;

/// Mean nanoseconds per call of `f` over `items`, repeated until at
/// least ~10 ms were measured so short calls are not timer noise.
fn ns_per<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let mut calls = 0u64;
    let t0 = Instant::now();
    loop {
        for item in items {
            f(item);
        }
        calls += items.len() as u64;
        let elapsed = t0.elapsed();
        if elapsed.as_millis() >= 10 || items.is_empty() {
            return elapsed.as_nanos() as f64 / calls.max(1) as f64;
        }
    }
}

/// Mean nanoseconds per item of one pass of `f` over `items`, for calls
/// whose cost depends on not having seen the item before.
fn ns_once<T>(items: Vec<T>, mut f: impl FnMut(T)) -> f64 {
    let n = items.len().max(1);
    let t0 = Instant::now();
    for item in items {
        f(item);
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// The request messages entering the last broker of `w`'s chain, for
/// [`SAMPLES`] requests of its stream.
fn harvest(w: &Workload, seed: u64, scratch: &Path) -> (World, Walker, Vec<SignalMessage>) {
    // Full reservations even for `tunnel_flows`: the envelope probes
    // need envelopes. Empty tables: the broker probe fills its own.
    let full = Workload {
        tunnel: false,
        standing: 0,
        ..*w
    };
    let ops = plan(&full, SAMPLES, seed, u64::MAX);
    let mut world = World::build(&full, &ops, &Telemetry::disabled(), scratch);
    let mut walker = Walker::new(&mut world);
    let mut rec = Recorder::with_capacity(SAMPLES * 64);
    let mut kept = Vec::with_capacity(SAMPLES);
    walker.replay(&world, &ops, &mut rec, Some(&mut kept));
    (world, walker, kept)
}

fn rar_of(msg: &SignalMessage) -> Option<&SignedRar> {
    match msg {
        SignalMessage::Request(rar) => Some(rar),
        _ => None,
    }
}

/// Run every timed probe for `w`. Returns `(metric, value)` pairs.
pub fn run(w: &Workload, seed: u64, scratch: &Path) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let (world, walker, requests) = harvest(w, seed, scratch);
    let n = walker.nodes.len();
    let (sender, receiver) = (&walker.nodes[n - 2], &walker.nodes[n - 1]);
    let sender_key = KeyPair::from_seed(format!("bb-{}", sender.domain()).as_bytes());
    let rars: Vec<&SignedRar> = requests.iter().filter_map(rar_of).collect();

    // wire
    let encoded: Vec<Vec<u8>> = requests.iter().map(qos_wire::to_bytes).collect();
    let shared: Vec<Arc<[u8]>> = encoded.iter().map(|b| b.as_slice().into()).collect();
    let mut buf = Vec::new();
    out.push((
        "wire.encode_ns",
        ns_per(&requests, |m| {
            buf.clear();
            qos_wire::encode_into(m, &mut buf);
            black_box(buf.len());
        }),
    ));
    out.push((
        "wire.decode_ns",
        ns_per(&shared, |b| {
            black_box(qos_wire::from_bytes_shared::<SignalMessage>(b).expect("own encoding"));
        }),
    ));
    out.push((
        "wire.decode_ref_ns",
        ns_per(&encoded, |b| {
            black_box(EnvelopeRef::parse(b).expect("own encoding"));
        }),
    ));
    out.push((
        "wire.msg_bytes",
        encoded.iter().map(Vec::len).sum::<usize>() as f64 / encoded.len().max(1) as f64,
    ));

    // crypto
    let signed: Vec<(&[u8], PublicKey, Signature)> = rars
        .iter()
        .map(|r| (r.layer_bytes(), sender_key.public(), r.signature()))
        .collect();
    out.push((
        "crypto.sign_ns",
        ns_per(&signed, |(msg, _, _)| {
            black_box(sender_key.sign(msg));
        }),
    ));
    out.push((
        "crypto.verify_ns",
        ns_per(&signed, |(msg, pk, sig)| {
            assert!(pk.verify(msg, sig));
        }),
    ));
    let batches: Vec<&[(&[u8], PublicKey, Signature)]> = signed.chunks(BATCH).collect();
    out.push((
        "crypto.verify_batch_ns_per_sig",
        ns_per(&batches, |b| assert!(qos_crypto::verify_batch(b))) / BATCH as f64,
    ));

    // policy: the transit domain's policy file on the stream's specs,
    // with the available bandwidth moving as it does between requests.
    let policy_src = world.policy_of(1).unwrap_or(qos_core::scenario::PERMIT_ALL);
    let pdp = PolicyServer::from_source(
        policy_src,
        GroupServer::new("groups-probe", KeyPair::from_seed(b"gs-probe")),
    )
    .expect("workload policy parses");
    let policy_requests: Vec<(PolicyRequest, DomainVars)> = rars
        .iter()
        .enumerate()
        .map(|(i, rar)| {
            let spec = rar.res_spec();
            let mut req = PolicyRequest::new(spec.requestor.clone());
            req.attrs
                .set("bw", Value::Bandwidth(spec.rate_bps))
                .set("reservation_type", Value::Str("network".into()))
                .set("source_domain", Value::Str(spec.source_domain.clone()))
                .set("dest_domain", Value::Str(spec.dest_domain.clone()));
            if let Some(cn) = spec.requestor.common_name() {
                req.attrs.set("user", Value::Str(cn.to_string()));
            }
            let vars = DomainVars {
                avail_bw_bps: u64::MAX - i as u64 * MBPS,
                now_minutes: 0,
                domain: world.domains[1].clone(),
            };
            (req, vars)
        })
        .collect();
    out.push((
        "policy.decide_ns",
        ns_once(policy_requests, |(req, vars)| {
            black_box(pdp.decide(&req, &vars, &NoReservations).expect("decides"));
        }),
    ));

    // core: envelope wrap and verify at the workload's depth, channel
    // seal and open, session handshake.
    let upstream_cert = sender.cert().clone();
    let wrap_inputs: Vec<SignedRar> = rars.iter().map(|r| (*r).clone()).collect();
    out.push((
        "core.wrap_ns",
        ns_once(wrap_inputs, |rar| {
            black_box(SignedRar::wrap(
                rar,
                upstream_cert.clone(),
                None,
                Vec::new(),
                AttributeSet::new(),
                receiver.dn().clone(),
                &sender_key,
            ));
        }),
    ));
    // The walk above verified these envelopes; forget that, so each is
    // verified as a broker first sees it.
    qos_crypto::vcache::clear();
    qos_core::trust::clear_rar_memo();
    out.push((
        "core.verify_rar_ns",
        ns_once(rars.clone(), |rar| {
            verify_rar(
                rar,
                sender_key.public(),
                receiver.dn(),
                TrustPolicy::default(),
                Timestamp(0),
                &KeySource::Introducers,
            )
            .expect("envelope the chain itself built");
        }),
    ));
    let pin = |domain: &str| PeerPin {
        ca_key: world.scenario.ca_key,
        dn: DistinguishedName::broker(domain),
    };
    let (id_a, id_b) = (World::identity_of(sender), World::identity_of(receiver));
    let connect = |nonce: u64| {
        handshake(
            &id_a,
            &id_b,
            &pin(receiver.domain()),
            &pin(sender.domain()),
            nonce,
            Timestamp::ZERO,
        )
        .expect("probe handshake")
    };
    let nonces: Vec<u64> = (1..=HANDSHAKES as u64).collect();
    out.push((
        "core.handshake_us",
        ns_per(&nonces, |&nonce| {
            black_box(connect(nonce));
        }) / 1e3,
    ));
    let (client, server) = connect(0);
    let (mut seal, _) = client.split();
    let (_, mut open) = server.split();
    out.push((
        "core.seal_ns",
        ns_per(&encoded, |plain| {
            black_box(seal.seal_in_place(plain));
        }),
    ));
    let (client, _) = connect(0);
    let (mut seal, _) = client.split();
    // Sixteen passes sealed in sequence: open checks strict ordering,
    // so the timed pass can only run once.
    let sealed: Vec<_> = (0..16)
        .flat_map(|_| encoded.iter())
        .map(|plain| (plain, seal.seal_in_place(plain)))
        .collect();
    out.push((
        "core.open_ns",
        ns_once(sealed, |(plain, (seq, mac))| {
            open.open_in_place(plain, seq, &mac).expect("in order");
        }),
    ));

    // transport: length-prefixed framing out and back in.
    let mut decoder = PooledFrameDecoder::new(MAX_FRAME_LEN, BufferPool::new(2));
    let mut wire = Vec::new();
    out.push((
        "transport.frame_roundtrip_ns",
        ns_per(&encoded, |body| {
            wire.clear();
            write_frame(&mut wire, body, MAX_FRAME_LEN).expect("frame fits");
            decoder.push(&wire);
            let frame = decoder.next_frame().expect("well-formed");
            black_box(frame.expect("whole frame").bytes().len());
        }),
    ));

    // broker: two-phase admission on the transit domain's ledger, on an
    // empty table and with thousands of standing entries.
    let core = walker.nodes[1].core();
    let segment = PathSegment {
        ingress_peer: Some(world.domains[0].clone()),
        egress_peer: Some(world.domains[2].clone()),
    };
    let interval = Interval::starting_at(Timestamp(0), 3600);
    // Ids clear of the harvest walk's.
    let ids: Vec<ReservationId> = (0..STANDING as u64)
        .map(|i| ReservationId(u64::MAX / 2 + i))
        .collect();
    let hold = |ids: &[ReservationId]| {
        ns_once(ids.to_vec(), |id| {
            core.hold(id, interval, MBPS, segment.clone())
                .expect("capacity for every probe hold");
        })
    };
    out.push(("broker.hold_ns_empty", hold(&ids[..SLICE])));
    hold(&ids[SLICE..STANDING - SLICE]);
    out.push(("broker.hold_ns_standing4k", hold(&ids[STANDING - SLICE..])));
    out.push((
        "broker.commit_ns",
        ns_once(ids[..STANDING / 2].to_vec(), |id| {
            core.commit(id).expect("held above");
        }),
    ));
    out.push((
        "broker.release_ns",
        ns_once(ids[STANDING / 2..].to_vec(), |id| {
            core.release(id).expect("held above");
        }),
    ));

    // storage: WAL append and the flush that makes a batch durable.
    let dir = scratch.join(format!("probe-wal-{}", std::process::id()));
    let store = FileStore::open(&dir, FileStoreOptions::default())
        .expect("WAL directory inside the checkout is writable");
    let records: Vec<LedgerRecord> = (0..STANDING as u64)
        .map(|id| LedgerRecord::Hold {
            id,
            start: 0,
            end: 3600,
            rate_bps: MBPS,
            ingress: segment.ingress_peer.clone(),
            egress: segment.egress_peer.clone(),
        })
        .collect();
    out.push((
        "storage.append_ns",
        ns_once(records.iter().collect(), |r| {
            black_box(store.append(r));
        }),
    ));
    let t0 = Instant::now();
    store.flush();
    out.push(("storage.flush_ms", t0.elapsed().as_secs_f64() * 1e3));
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    // core: destination-side admission of one tunnel sub-flow.
    let flows = Workload {
        name: "flow_probe",
        domains: 3,
        shape: Shape::Closed { window: 1 },
        tunnel: true,
        mixed: false,
        standing: 0,
        ..*w
    };
    let ops = plan(&flows, FLOW_PROBE_OPS, seed, u64::MAX);
    let mut flow_world = World::build(&flows, &ops, &Telemetry::disabled(), scratch);
    let mut flow_walker = Walker::new(&mut flow_world);
    let mut rec = Recorder::with_capacity(FLOW_PROBE_OPS * 20);
    flow_walker.replay(&flow_world, &ops, &mut rec, None);
    out.push((
        "core.flow_admit_ns",
        totals_by_name(&rec.spans)["core.node_recv_request"].mean_ns(),
    ));
    out
}
