//! Node identity, roles and health status.

use serde::{Deserialize, Serialize};

/// Dense index of a node inside an [`crate::overlay::Overlay`].
///
/// Indices `0..N` are overlay nodes (SOS nodes hidden among bystanders);
/// indices `N..N+F` are filters. The numbering is an implementation
/// detail of the overlay; use [`crate::overlay::Overlay::role`] to
/// interpret an id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// What part a node plays in the SOS architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Role {
    /// An SOS node serving 1-based layer `layer` (1 = SOAP-equivalent,
    /// `L` = secret-servlet-equivalent).
    Sos {
        /// The 1-based layer this node serves.
        layer: u16,
    },
    /// A filter in the ring around the target (layer `L+1`).
    Filter,
    /// An ordinary overlay node not participating in SOS. Bystanders
    /// matter because the attacker cannot tell them from SOS nodes when
    /// attacking randomly.
    Bystander,
}

impl Role {
    /// The 1-based layer this role occupies, if any (`L+1` is encoded by
    /// the caller since `Role` does not know `L`).
    pub fn sos_layer(&self) -> Option<u16> {
        match self {
            Role::Sos { layer } => Some(*layer),
            _ => None,
        }
    }

    /// Whether this node participates in the architecture (SOS node or
    /// filter).
    pub fn is_protected_infrastructure(&self) -> bool {
        !matches!(self, Role::Bystander)
    }
}

/// Health of a node under attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum NodeStatus {
    /// Functioning normally.
    #[default]
    Good,
    /// Broken into: the attacker controls it and has read its neighbor
    /// table. Broken nodes do not forward traffic and are never also
    /// congested (the paper's convention).
    Broken,
    /// Congested by DDoS traffic: cannot forward, but its secrets are
    /// safe.
    Congested,
}

impl NodeStatus {
    /// A *bad* node is broken into or congested — it cannot route.
    pub fn is_bad(&self) -> bool {
        !matches!(self, NodeStatus::Good)
    }

    /// Whether the node still routes traffic.
    pub fn is_good(&self) -> bool {
        matches!(self, NodeStatus::Good)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.to_string(), "#42");
    }

    #[test]
    fn role_layer_extraction() {
        assert_eq!(Role::Sos { layer: 3 }.sos_layer(), Some(3));
        assert_eq!(Role::Filter.sos_layer(), None);
        assert_eq!(Role::Bystander.sos_layer(), None);
        assert!(Role::Filter.is_protected_infrastructure());
        assert!(!Role::Bystander.is_protected_infrastructure());
    }

    #[test]
    fn status_predicates() {
        assert!(NodeStatus::Good.is_good());
        assert!(!NodeStatus::Good.is_bad());
        assert!(NodeStatus::Broken.is_bad());
        assert!(NodeStatus::Congested.is_bad());
        assert_eq!(NodeStatus::default(), NodeStatus::Good);
    }
}
