//! Figure-regeneration library for the ICDCS 2004 evaluation.
//!
//! The paper's evaluation section contains seven figure panels and no
//! tables; [`figures`] regenerates each as a [`sos_analysis::SweepTable`]
//! with the paper's exact parameters. [`ablations`] adds the
//! beyond-the-paper experiments catalogued in `DESIGN.md` (evaluator
//! gap, routing-policy gap, Chord-transport gap, repair dynamics,
//! multi-role baseline). [`report`] lists every file of the full report
//! once, with the function that renders it.
//!
//! Every function here is deterministic (analytical figures) or
//! deterministic-under-seed (Monte Carlo ablations), so the
//! `full_report` binary and `sos figure` reproduce the committed `data/`
//! files byte for byte, and the integration tests assert the paper's
//! qualitative shapes on the same code paths.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod figures;
pub mod report;

pub use ablations::AblationOptions;
