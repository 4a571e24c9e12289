//! The fabric never changes an admission outcome, whatever the `TcpMesh`
//! configuration.
//!
//! Every case of `integration_tests::parity` — the three fig2 cases and
//! the two many-in-flight ones — is checked on `drive::Mesh` in absolute
//! terms, and every `TcpMesh` configuration must reproduce it: {1, 4}
//! shards × {caches on, off} × {`MemStore`, `FileStore`}, plus one run
//! with the admin plane up and a 10 Hz `/metrics` scraper on every
//! daemon.
//!
//! It runs in a test binary of its own: it flips the process-wide
//! verification cache and RAR memo.

use integration_tests::parity::{over_tcp, Config, CONCURRENT, FIG2, OVERSUBSCRIBED};

/// Size the process-wide signature-verification cache and RAR memo to
/// their defaults, or to zero.
fn set_caches(on: bool) {
    use qos_core::trust::{set_rar_memo_capacity, RAR_MEMO_DEFAULT_CAPACITY};
    use qos_crypto::vcache::{set_capacity, DEFAULT_CAPACITY};
    set_capacity(if on { DEFAULT_CAPACITY } else { 0 });
    set_rar_memo_capacity(if on { RAR_MEMO_DEFAULT_CAPACITY } else { 0 });
}

#[test]
fn every_tcp_configuration_reproduces_the_deterministic_reference() {
    let scraped = Config {
        shards: 4,
        file_store: false,
        scraped: true,
    };
    for case in FIG2.iter().chain([&CONCURRENT, &OVERSUBSCRIBED]) {
        set_caches(true);
        let reference = case.reference();
        for caches in [true, false] {
            set_caches(caches);
            for shards in [1, 4] {
                for file_store in [false, true] {
                    let config = Config {
                        shards,
                        file_store,
                        scraped: false,
                    };
                    assert_eq!(
                        over_tcp(case, config),
                        reference,
                        "{}: {config:?}, caches {caches} diverged from the reference",
                        case.name
                    );
                }
            }
        }
        set_caches(true);
        assert_eq!(
            over_tcp(case, scraped),
            reference,
            "{}: {scraped:?} diverged from the reference",
            case.name
        );
    }
}
