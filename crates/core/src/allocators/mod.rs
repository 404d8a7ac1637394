//! Phase 1: resource allocation (Algorithm 1 of the paper).
//!
//! Every allocator consumes the per-job non-dominated profiles (Step 1 of
//! Algorithm 1, computed by `mrls-model`) and produces an *initial* allocation
//! decision `p′`. The µ-adjustment of Equation 5 ([`adjust_allocation`]) then
//! caps each per-type request at `⌈µ·P(i)⌉` to produce the final decision `p`
//! that Phase 2 schedules.
//!
//! Available allocators:
//!
//! * [`LpRoundingAllocator`] — the paper's general-DAG allocator (Lemma 3):
//!   LP relaxation of the DTCT transform + `ρ`-rounding.
//! * [`SpFptasAllocator`] — the FPTAS for series-parallel graphs and trees
//!   (Lemma 7, after Lepère, Trystram, Woeginger).
//! * [`IndependentOptimalAllocator`] — the exact `L_min` allocator for
//!   independent jobs (Lemma 8, after Sun et al.).
//! * [`heuristics`] — simple per-job rules (fastest, cheapest, balanced,
//!   proportional) used as baselines and in ablation studies.

pub mod adjust;
pub mod heuristics;
pub mod independent;
pub mod lp_rounding;
pub mod sp_fptas;

pub use adjust::{adjust_allocation, AdjustmentOutcome};
pub use heuristics::HeuristicAllocator;
pub use independent::IndependentOptimalAllocator;
pub use lp_rounding::{FractionalSolution, LpRoundingAllocator, RelaxationLp};
pub use sp_fptas::SpFptasAllocator;

use crate::Result;
use mrls_model::{AllocationDecision, Instance, JobProfile};

/// A Phase-1 resource allocator: maps an instance (and its pre-computed
/// non-dominated profiles) to an initial allocation decision `p′`.
pub trait Allocator {
    /// Computes the initial allocation decision.
    fn allocate(&self, instance: &Instance, profiles: &[JobProfile]) -> Result<AllocationDecision>;

    /// A human-readable name used in experiment tables.
    fn name(&self) -> &'static str;

    /// A valid lower bound on the optimal makespan that the allocator can
    /// certify as a by-product (e.g. the LP optimum, or `L_min` for
    /// independent jobs). Returns `None` when the allocator provides no
    /// better bound than the generic ones in [`crate::bounds`].
    fn certified_lower_bound(&self, _instance: &Instance, _profiles: &[JobProfile]) -> Option<f64> {
        None
    }
}
