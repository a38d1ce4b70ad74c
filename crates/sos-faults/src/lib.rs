//! Deterministic, seedable fault injection for the SOS simulation stack.
//!
//! The paper's model is fault-free: a hop fails only because its
//! destination (or, on Chord, an intermediate) is *compromised*. Real
//! substrates also suffer benign faults — lossy links, slow or crashed
//! nodes, stale (Byzantine) routing state — and those change resilience
//! curves in ways an attacker cannot: benign faults are *transient* or
//! at least *apolitical*, so retries and fallback routes recover them,
//! while compromises are not recoverable by persistence alone.
//!
//! This crate is the fault *plane*: it decides, deterministically from a
//! seed, which faults strike where. It deliberately knows nothing about
//! overlays, transports, or simulations — nodes are raw `u32` ids — so it
//! sits below `sos-overlay` in the dependency graph and can be consulted
//! from transport hop delivery and from every Chord protocol lookup step.
//!
//! Three pieces:
//!
//! - [`FaultConfig`] — per-scenario rates for the five fault classes
//!   (message loss, message delay, node crash, node slow-down, Byzantine
//!   misroute) plus a dedicated fault seed. [`FaultConfig::none`] is the
//!   paper-faithful zero-fault configuration; code that receives it must
//!   not build a [`FaultPlan`] at all, which is how zero-fault runs stay
//!   bit-identical to the pre-fault code path.
//! - [`FaultPlan`] — one sampled fault schedule for one trial. Node-level
//!   faults (crash, slow-down) are stateless functions of the node id, so
//!   query order is irrelevant; hop-level faults (loss, delay, misroute)
//!   are drawn from a counted stream, deterministic for a fixed call
//!   sequence. The plan's randomness derives solely from
//!   `FaultConfig::seed ^ trial` and never touches the simulation's own
//!   RNG streams.
//! - [`RetryPolicy`] — bounded retries with exponential backoff measured
//!   in simulated ticks and a per-route deadline budget, applied by
//!   `Transport::deliver` in `sos-overlay`.
//!
//! [`HopIncident`] and [`Fallback`] are the shared vocabulary for
//! reporting what the fault plane did to a hop, so `sos-sim` can convert
//! incidents into `sos-observe` events without re-deriving them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod plan;
mod retry;

pub use config::FaultConfig;
pub use plan::{splitmix64, unit, FaultPlan, HopFault};
pub use retry::RetryPolicy;

/// What the fault plane (or the retry loop around it) did to one hop.
///
/// Produced by `Transport::deliver` in `sos-overlay` and surfaced
/// through `sos-sim::routing` so traced runs can show *why* a route
/// survived or died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopIncident {
    /// The message for this attempt was dropped in flight.
    Loss {
        /// 1-based delivery attempt that suffered the drop.
        attempt: u32,
    },
    /// The message was delayed by `ticks` simulated ticks but arrived.
    Delay {
        /// Simulated ticks added to the hop latency.
        ticks: u64,
    },
    /// The hop destination is benignly crashed; no retry can help.
    CrashedDestination,
    /// Every substrate route to the destination runs through crashed
    /// nodes (Chord/Protocol lookups found no alive path).
    CrashedRoute,
    /// The destination is alive but slow; service added `ticks` ticks.
    Slow {
        /// Simulated ticks of slow-down penalty.
        ticks: u64,
    },
    /// A Byzantine intermediate misdirected the lookup on this attempt.
    Misroute {
        /// 1-based delivery attempt that was misrouted.
        attempt: u32,
    },
    /// The retry loop scheduled another attempt after backing off.
    Retry {
        /// 1-based attempt number being started.
        attempt: u32,
        /// Backoff ticks waited before this attempt.
        backoff: u64,
    },
    /// The per-route deadline budget ran out before the retries did.
    DeadlineExhausted {
        /// Simulated ticks accumulated when the budget was exceeded.
        ticks: u64,
    },
}

impl HopIncident {
    /// `true` for incidents that are injected faults (as opposed to the
    /// retry loop's own bookkeeping).
    pub fn is_fault(&self) -> bool {
        !matches!(
            self,
            HopIncident::Retry { .. } | HopIncident::DeadlineExhausted { .. }
        )
    }
}

/// Graceful-degradation stage taken after a hop exhausted its retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fallback {
    /// Abandoned finger-table routing and walked successor lists.
    SuccessorWalk,
    /// Abandoned this next-layer neighbor and tried an alternate one.
    AlternateNeighbor,
}

impl Fallback {
    /// Stable label used in event payloads and CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            Fallback::SuccessorWalk => "successor-walk",
            Fallback::AlternateNeighbor => "alternate-neighbor",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incident_fault_classification() {
        assert!(HopIncident::Loss { attempt: 1 }.is_fault());
        assert!(HopIncident::Delay { ticks: 3 }.is_fault());
        assert!(HopIncident::CrashedDestination.is_fault());
        assert!(HopIncident::CrashedRoute.is_fault());
        assert!(HopIncident::Slow { ticks: 2 }.is_fault());
        assert!(HopIncident::Misroute { attempt: 2 }.is_fault());
        assert!(!HopIncident::Retry { attempt: 2, backoff: 1 }.is_fault());
        assert!(!HopIncident::DeadlineExhausted { ticks: 9 }.is_fault());
    }

    #[test]
    fn fallback_labels_are_distinct() {
        assert_ne!(
            Fallback::SuccessorWalk.label(),
            Fallback::AlternateNeighbor.label()
        );
    }
}
