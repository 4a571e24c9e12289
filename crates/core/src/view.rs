//! One borrowed walk of a received envelope (DESIGN.md §D17).
//!
//! Every step a hop takes on a request — capability-chain check, policy,
//! delegation, the destination's trust walk — needs facts scattered over
//! the nest: the reservation spec at the bottom, the capability
//! certificates and policy attachments of every layer, the signers.
//! [`RarView`] descends the nest once and keeps references; nothing is
//! cloned until a caller asks for an owned copy.
// Hot-path module (DESIGN.md §D15/§D17): under .clippy-hotpath this
// attribute rejects un-annotated Vec::new / slice::to_vec here.
#![deny(clippy::disallowed_methods)]

use crate::envelope::{RarLayer, SignedRar};
use crate::rar::ResSpec;
use qos_crypto::{Certificate, DistinguishedName, PublicKey, SignedHop};
use qos_policy::AttributeSet;

/// Borrowed facts of one nested envelope.
pub struct RarView<'a> {
    /// Outermost layer first; the last one is the user's.
    layers: Vec<&'a SignedRar>,
    spec: &'a ResSpec,
    /// The certificates of the capability chain, CAS grant first: the
    /// user's layer's, and any a broker layer carries (none should).
    caps: Vec<&'a Certificate>,
}

impl<'a> RarView<'a> {
    /// Walk `rar` down to the user's layer.
    pub fn of(rar: &'a SignedRar) -> Self {
        let mut layers = Vec::with_capacity(8);
        let mut current = rar;
        let (spec, user_caps) = loop {
            layers.push(current);
            match &current.layer {
                RarLayer::Broker { inner, .. } => current = inner,
                RarLayer::User {
                    res_spec,
                    capability_certs,
                    ..
                } => break (res_spec, capability_certs),
            }
        };
        let mut caps: Vec<&Certificate> = user_caps.iter().collect();
        for wrap in layers.iter().rev() {
            if let RarLayer::Broker {
                capability_certs, ..
            } = &wrap.layer
            {
                caps.extend(capability_certs);
            }
        }
        RarView { layers, spec, caps }
    }

    /// The outermost layer — the envelope as received.
    pub fn outer(&self) -> &'a SignedRar {
        self.layers[0]
    }

    /// Every layer, outermost first.
    pub fn layers(&self) -> &[&'a SignedRar] {
        &self.layers
    }

    /// Envelope depth: 1 for a bare user request, +1 per broker wrap.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// The reservation specification of the user's layer.
    pub fn spec(&self) -> &'a ResSpec {
        self.spec
    }

    /// All capability certificates, innermost (CAS grant) first.
    pub fn caps(&self) -> &[&'a Certificate] {
        &self.caps
    }

    /// The broker layers, innermost first, as the §6.5 walk reads them
    /// (Figure 7's list is [`RarView::caps`] and then their links).
    /// `verified` is `(outer_pk, n)` if the caller has verified the `n`
    /// outermost layers: the first under `outer_pk`, each one below
    /// under the key the layer above it introduces.
    pub fn hops(
        &self,
        verified: Option<(PublicKey, usize)>,
    ) -> impl Iterator<Item = SignedHop<'a>> + '_ {
        let layers = self.layers.iter().enumerate().rev();
        layers.filter_map(move |(i, l)| match &l.layer {
            RarLayer::Broker {
                next_bb,
                capability_certs,
                delegate,
                ..
            } => Some(SignedHop {
                signer: &l.signer,
                digest: l.layer_digest(),
                signature: l.signature,
                verified_under: verified.filter(|&(_, n)| i < n).map(|(outer_pk, _)| {
                    let introduced = self.introduced_cert(self.layers.len() - 1 - i);
                    introduced.map_or(outer_pk, |c| c.tbs().subject_public_key)
                }),
                link: next_bb.as_ref().zip(delegate.as_ref()),
                certs: capability_certs,
            }),
            RarLayer::User { .. } => None,
        })
    }

    /// The certificate a wrapping layer embeds for the signer `hops`
    /// layers above the user's: 0 is the user's own certificate
    /// (introduced by the source BB), 1 the source BB's.
    pub fn introduced_cert(&self, hops: usize) -> Option<&'a Certificate> {
        let wrap = self.layers.len().checked_sub(hops + 2)?;
        match &self.layers[wrap].layer {
            RarLayer::Broker { upstream_cert, .. } => Some(upstream_cert),
            RarLayer::User { .. } => None,
        }
    }

    /// Signer DNs innermost-first: `[user, BB_A, BB_B, …]`.
    pub fn signers(&self) -> impl Iterator<Item = &'a DistinguishedName> + '_ {
        self.layers.iter().rev().map(|l| &l.signer)
    }

    /// The policy attachments of every broker layer, innermost first —
    /// merge them in this order and outer layers override inner ones.
    pub fn attachments(&self) -> impl Iterator<Item = &'a AttributeSet> + '_ {
        self.layers.iter().rev().filter_map(|l| match &l.layer {
            RarLayer::Broker {
                policy_attachments, ..
            } => Some(policy_attachments),
            RarLayer::User { .. } => None,
        })
    }

    /// Their union, outer layers overriding inner ones on key conflicts.
    pub fn merged_attachments(&self) -> AttributeSet {
        let mut all = AttributeSet::new();
        self.attachments().for_each(|a| all.merge(a));
        all
    }
}
