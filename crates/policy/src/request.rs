//! The request a policy decision point evaluates.
//!
//! Per §4 of the paper, a BB making a decision must consider: request
//! parameters, authentication information (the requestor's identity),
//! authorization information (assertions and verified capabilities), and
//! SLA information added by upstream brokers. All of that arrives here as
//! a [`PolicyRequest`].

use crate::attr::{AttributeSet, Value};
use qos_crypto::DistinguishedName;
use std::borrow::Cow;

/// An (unverified or third-party-verified) claim accompanying a request,
/// e.g. "I am a physicist" or a group membership asserted by the source
/// domain. The PDP decides whether and how to validate it (typically by
/// contacting a group server).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assertion {
    /// Claim text, conventionally `kind:value` (e.g. `group:ATLAS`).
    pub claim: String,
}

qos_wire::impl_wire_struct!(Assertion { claim });

impl Assertion {
    /// A group-membership assertion.
    pub fn group(name: &str) -> Self {
        Self {
            claim: format!("group:{name}"),
        }
    }

    /// The group name if this is a group assertion.
    pub fn group_name(&self) -> Option<&str> {
        self.claim.strip_prefix("group:")
    }
}

/// A capability that has already been cryptographically verified by the
/// transport layer (chain checked per §6.5) before reaching the PDP. The
/// PDP "can directly use its attributes".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedCapability {
    /// Short name of the issuing community authorization server,
    /// e.g. `ESnet`.
    pub issuer: String,
    /// Attribute strings, e.g. `ESnet:member`.
    pub attributes: Vec<String>,
    /// Restriction strings accumulated during delegation.
    pub restrictions: Vec<String>,
}

qos_wire::impl_wire_struct!(VerifiedCapability {
    issuer,
    attributes,
    restrictions
});

/// Everything the PDP sees about one reservation request.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyRequest {
    /// Authenticated identity of the original requestor.
    pub requestor: DistinguishedName,
    /// Request parameters (`bw`, `source_domain`, `dest_domain`,
    /// `reservation_type`, `cpu_reservation_id`, cost offers, …) plus
    /// anything upstream policy servers attached.
    pub attrs: AttributeSet,
    /// Unverified / third-party assertions travelling with the request.
    pub assertions: Vec<Assertion>,
    /// Capabilities already verified by the crypto layer.
    pub capabilities: Vec<VerifiedCapability>,
}

impl PolicyRequest {
    /// A request with just an identity; builder methods add the rest.
    pub fn new(requestor: DistinguishedName) -> Self {
        let mut attrs = AttributeSet::new();
        if let Some(cn) = requestor.common_name() {
            attrs.set("user", Value::Str(cn.to_string()));
        }
        Self {
            requestor,
            attrs,
            assertions: Vec::new(),
            capabilities: Vec::new(),
        }
    }

    /// Set a request attribute.
    pub fn with_attr(mut self, key: impl Into<Cow<'static, str>>, value: Value) -> Self {
        self.attrs.set(key, value);
        self
    }

    /// Add an assertion.
    pub fn with_assertion(mut self, a: Assertion) -> Self {
        self.assertions.push(a);
        self
    }

    /// Add a verified capability.
    pub fn with_capability(mut self, c: VerifiedCapability) -> Self {
        self.capabilities.push(c);
        self
    }

    /// All group names claimed by assertions or granted by capabilities
    /// (`group:<name>` attributes).
    pub fn claimed_groups(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .assertions
            .iter()
            .filter_map(|a| a.group_name().map(str::to_string))
            .collect();
        for cap in &self.capabilities {
            for attr in &cap.attributes {
                if let Some(g) = attr.strip_prefix("group:") {
                    out.push(g.to_string());
                }
            }
        }
        out
    }

    /// Issuer names of all verified capabilities.
    pub fn capability_issuers(&self) -> Vec<String> {
        self.capabilities.iter().map(|c| c.issuer.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::bw;

    #[test]
    fn builder_sets_user_from_cn() {
        let req = PolicyRequest::new(DistinguishedName::user("Alice", "ANL"));
        assert_eq!(req.attrs.get("user"), Some(&Value::Str("Alice".into())));
    }

    #[test]
    fn groups_from_assertions_and_capabilities() {
        let req = PolicyRequest::new(DistinguishedName::user("Alice", "ANL"))
            .with_assertion(Assertion::group("ATLAS"))
            .with_capability(VerifiedCapability {
                issuer: "ESnet".into(),
                attributes: vec!["group:physicists".into(), "ESnet:member".into()],
                restrictions: vec![],
            });
        assert_eq!(req.claimed_groups(), vec!["ATLAS", "physicists"]);
        assert_eq!(req.capability_issuers(), vec!["ESnet"]);
    }

    #[test]
    fn attrs_accumulate() {
        let req = PolicyRequest::new(DistinguishedName::user("Alice", "ANL"))
            .with_attr("bw", bw::mbps(10))
            .with_attr("dest_domain", Value::Str("domain-c".into()));
        assert_eq!(req.attrs.get("bw"), Some(&bw::mbps(10)));
        assert_eq!(
            req.attrs.get("dest_domain"),
            Some(&Value::Str("domain-c".into()))
        );
    }
}
