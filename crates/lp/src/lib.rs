//! # mrls-lp — a small, self-contained linear-programming solver
//!
//! Phase 1 of the multi-resource scheduling algorithm (Lemma 3 of the paper)
//! solves a linear-programming relaxation of the Discrete Time-Cost Tradeoff
//! problem: minimise the makespan lower bound `L` subject to the critical-path
//! constraints `C(p) ≤ L` and the average-area constraint `A(p) ≤ L`, with one
//! convex-combination variable per (job, non-dominated allocation) pair.
//!
//! To keep the reproduction fully self-contained (no external LP solver), this
//! crate implements a classic **dense, two-phase primal simplex** method:
//!
//! * arbitrary `≤`, `≥`, `=` constraints over non-negative variables,
//! * phase 1 drives artificial variables out of the basis (detecting
//!   infeasibility), phase 2 optimises the real objective,
//! * Dantzig pricing with an automatic switch to Bland's rule after a
//!   degeneracy streak, which guarantees termination,
//! * unboundedness detection.
//!
//! The LPs built by the scheduler have a few hundred rows and a few thousand
//! columns at most, which a dense tableau handles comfortably. The
//! production path ([`LinearProgram::solve`]) keeps one dense row per
//! constraint but prices row by row over the rows with a non-zero basic cost,
//! tracks basis membership in `O(1)`, updates the other rows only at the
//! pivot row's non-zeros and drops the artificial columns once phase 1 ends
//! (see [`simplex`]).
//!
//! [`LinearProgram::solve_reference`] keeps the original dense tableau
//! solver verbatim as an executable specification. The fast path makes the
//! same entering and leaving choice at every pivot, so both return the same
//! outcome with `objective` and `x` equal as `f64`; `tests/differential.rs`
//! pins this on several LP families, and `mrls-core`'s
//! `tests/lp_differential.rs` on the scheduler's own relaxations.
//!
//! ## Example
//!
//! ```
//! use mrls_lp::{LinearProgram, Relation, LpOutcome};
//!
//! // minimise -x0 - 2 x1  subject to  x0 + x1 <= 4,  x1 <= 3,  x >= 0
//! let mut lp = LinearProgram::minimize(2, vec![-1.0, -2.0]);
//! lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 4.0).unwrap();
//! lp.add_constraint(vec![(1, 1.0)], Relation::Le, 3.0).unwrap();
//! match lp.solve().unwrap() {
//!     LpOutcome::Optimal(sol) => {
//!         assert!((sol.objective - (-7.0)).abs() < 1e-7);
//!         assert!((sol.x[0] - 1.0).abs() < 1e-7);
//!         assert!((sol.x[1] - 3.0).abs() < 1e-7);
//!     }
//!     other => panic!("unexpected outcome {other:?}"),
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod problem;
mod reference;
pub mod simplex;

pub use problem::{Constraint, LinearProgram, LpError, Relation};
pub use simplex::{LpOutcome, Solution, SolveStats};
