//! Concrete overlay-network substrate for SOS simulation.
//!
//! The analytical model in `sos-analysis` works with *average-case set
//! sizes*; this crate instantiates actual overlays so the Monte Carlo
//! engine (`sos-sim`) can execute attacks node by node and measure the
//! empirical `P_S`:
//!
//! * [`overlay`] — the layered overlay: `N` overlay nodes of which `n`
//!   are SOS nodes assigned to layers, each with a concrete neighbor
//!   table into the next layer, plus the filter ring. Built from a
//!   validated [`sos_core::Scenario`] with a seeded RNG.
//! * [`chord`] — a full Chord DHT (SIGCOMM 2001), the routing substrate
//!   the original SOS architecture runs on: 64-bit identifier ring,
//!   finger tables, successor lists, iterative lookup with
//!   failure-aware fallback, join and leave.
//! * [`transport`] — how one overlay hop is realized: directly (the
//!   abstraction the paper analyses) or via Chord routing (which exposes
//!   the additional failure mode of compromised intermediate hops — the
//!   `ablation-chord` experiment).
//! * [`observe`] — translation of churn events and Chord lookups into
//!   the `sos-observe` event taxonomy.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use sos_core::{MappingDegree, Scenario, SystemParams};
//! use sos_overlay::overlay::Overlay;
//!
//! let scenario = Scenario::builder()
//!     .system(SystemParams::new(1_000, 50, 0.5)?)
//!     .layers(3)
//!     .mapping(MappingDegree::OneTo(2))
//!     .build()?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let overlay = Overlay::build(&scenario, &mut rng);
//! assert_eq!(overlay.layer_members(1).len(), 17); // 50 nodes over 3 layers
//! assert_eq!(overlay.layer_members(4).len(), 10); // the filter ring
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitset;
pub mod chord;
pub mod churn;
pub mod node;
pub mod observe;
pub mod overlay;
pub mod protocol;
pub mod transport;

pub use bitset::{NodeBitSet, WordSelect};
pub use chord::{ChordRing, LookupOutcome};
pub use churn::{ChurnEvent, ChurnModel};
pub use node::{NodeId, NodeStatus, Role};
pub use overlay::Overlay;
pub use protocol::{ChordProtocol, MaintenanceEvent, ProtocolConfig};
pub use transport::{HopCtx, HopDelivery, Transport};
