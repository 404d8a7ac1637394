//! The retained dense tableau solver: an executable specification.
//!
//! [`LinearProgram::solve_reference`] is the two-phase simplex exactly as it
//! stood before the row-major fast path of [`crate::simplex`] replaced it:
//! reduced costs recomputed column by column over every row at each
//! iteration, `O(m)` basis membership scans, and full-width pivot updates
//! through a cloned pivot row. It is kept verbatim, like
//! `ListScheduler::schedule_naive` in `mrls-core`, so that
//! [`LinearProgram::solve`] can be pinned equal to it (same outcome variant,
//! `objective` and `x` equal as `f64`) by `tests/differential.rs`. It must
//! never be "improved": any change to its pivot sequence would silently move
//! the specification the fast solver is checked against.

use crate::problem::{LinearProgram, LpError, Relation};
use crate::simplex::{LpOutcome, Solution};

/// Feasibility/optimality tolerance used throughout the solver.
const TOL: f64 = 1e-9;
/// Residual tolerance on the phase-1 objective below which the problem is
/// declared feasible.
const FEAS_TOL: f64 = 1e-7;
/// Number of consecutive degenerate pivots after which Bland's rule kicks in.
const DEGENERACY_STREAK: usize = 40;

impl LinearProgram {
    /// Solves the linear program with the retained dense reference simplex.
    ///
    /// Slower than [`LinearProgram::solve`] and returning the same result;
    /// meant for differential tests and benchmarks, not for production use.
    pub fn solve_reference(&self) -> Result<LpOutcome, LpError> {
        self.validate()?;
        Solver::build(self).run(self)
    }
}

enum Step {
    Optimal,
    Unbounded,
    Pivoted { degenerate: bool },
}

struct Solver {
    m: usize,
    n_struct: usize,
    n_total: usize,
    art_start: usize,
    /// `m` rows of length `n_total + 1` (right-hand side last).
    rows: Vec<Vec<f64>>,
    basis: Vec<usize>,
}

impl Solver {
    fn build(lp: &LinearProgram) -> Solver {
        let m = lp.constraints.len();
        let n_struct = lp.num_vars;

        // Dense structural coefficients with rhs normalised to be >= 0.
        let mut dense: Vec<Vec<f64>> = Vec::with_capacity(m);
        let mut rhs: Vec<f64> = Vec::with_capacity(m);
        let mut relations: Vec<Relation> = Vec::with_capacity(m);
        for c in &lp.constraints {
            let mut row = vec![0.0f64; n_struct];
            for &(i, a) in &c.coefficients {
                row[i] += a;
            }
            let (row, b, rel) = if c.rhs < 0.0 {
                let flipped = match c.relation {
                    Relation::Le => Relation::Ge,
                    Relation::Ge => Relation::Le,
                    Relation::Eq => Relation::Eq,
                };
                (row.iter().map(|v| -v).collect(), -c.rhs, flipped)
            } else {
                (row, c.rhs, c.relation)
            };
            dense.push(row);
            rhs.push(b);
            relations.push(rel);
        }

        let n_slack = relations
            .iter()
            .filter(|r| matches!(r, Relation::Le | Relation::Ge))
            .count();
        let n_art = relations
            .iter()
            .filter(|r| matches!(r, Relation::Ge | Relation::Eq))
            .count();
        let art_start = n_struct + n_slack;
        let n_total = art_start + n_art;

        let mut rows = Vec::with_capacity(m);
        let mut basis = vec![0usize; m];
        let mut next_slack = n_struct;
        let mut next_art = art_start;
        for i in 0..m {
            let mut row = vec![0.0f64; n_total + 1];
            row[..n_struct].copy_from_slice(&dense[i]);
            row[n_total] = rhs[i];
            match relations[i] {
                Relation::Le => {
                    row[next_slack] = 1.0;
                    basis[i] = next_slack;
                    next_slack += 1;
                }
                Relation::Ge => {
                    row[next_slack] = -1.0;
                    next_slack += 1;
                    row[next_art] = 1.0;
                    basis[i] = next_art;
                    next_art += 1;
                }
                Relation::Eq => {
                    row[next_art] = 1.0;
                    basis[i] = next_art;
                    next_art += 1;
                }
            }
            rows.push(row);
        }

        Solver {
            m,
            n_struct,
            n_total,
            art_start,
            rows,
            basis,
        }
    }

    fn run(mut self, lp: &LinearProgram) -> Result<LpOutcome, LpError> {
        // ---- Phase 1: minimise the sum of artificial variables. ----
        if self.art_start < self.n_total {
            let mut phase1_cost = vec![0.0f64; self.n_total];
            for c in phase1_cost.iter_mut().skip(self.art_start) {
                *c = 1.0;
            }
            match self.optimize(&phase1_cost, false)? {
                PhaseResult::Unbounded => {
                    // The phase-1 objective is bounded below by zero; this
                    // cannot happen with exact arithmetic and indicates
                    // numerical trouble.
                    return Err(LpError::IterationLimit);
                }
                PhaseResult::Optimal => {}
            }
            let art_sum: f64 = (0..self.m)
                .filter(|&i| self.basis[i] >= self.art_start)
                .map(|i| self.rows[i][self.n_total])
                .sum();
            if art_sum > FEAS_TOL {
                return Ok(LpOutcome::Infeasible);
            }
            self.evict_artificials();
        }

        // ---- Phase 2: minimise the real objective. ----
        let mut phase2_cost = vec![0.0f64; self.n_total];
        phase2_cost[..self.n_struct].copy_from_slice(&lp.objective);
        match self.optimize(&phase2_cost, true)? {
            PhaseResult::Unbounded => return Ok(LpOutcome::Unbounded),
            PhaseResult::Optimal => {}
        }

        let mut x = vec![0.0f64; self.n_struct];
        for i in 0..self.m {
            let b = self.basis[i];
            if b < self.n_struct {
                x[b] = self.rows[i][self.n_total].max(0.0);
            }
        }
        let objective = lp.objective_value(&x);
        Ok(LpOutcome::Optimal(Solution { objective, x }))
    }

    /// Removes artificial variables from the basis after a successful
    /// phase 1. Rows whose artificial cannot be replaced are redundant and are
    /// dropped.
    fn evict_artificials(&mut self) {
        let mut i = 0;
        while i < self.m {
            if self.basis[i] < self.art_start {
                i += 1;
                continue;
            }
            // Basic artificial at (numerically) zero: pivot in any usable
            // non-artificial column.
            let pivot_col = (0..self.art_start)
                .find(|&j| self.rows[i][j].abs() > 1e-7 && !self.basis.contains(&j));
            match pivot_col {
                Some(j) => {
                    self.pivot(i, j);
                    i += 1;
                }
                None => {
                    // Redundant constraint: drop the row.
                    self.rows.remove(i);
                    self.basis.remove(i);
                    self.m -= 1;
                }
            }
        }
    }

    fn optimize(&mut self, cost: &[f64], ban_artificials: bool) -> Result<PhaseResult, LpError> {
        let max_iter = 20_000 + 200 * (self.m + self.n_total);
        let mut degenerate_streak = 0usize;
        for _ in 0..max_iter {
            let bland = degenerate_streak >= DEGENERACY_STREAK;
            match self.step(cost, ban_artificials, bland) {
                Step::Optimal => return Ok(PhaseResult::Optimal),
                Step::Unbounded => return Ok(PhaseResult::Unbounded),
                Step::Pivoted { degenerate } => {
                    if degenerate {
                        degenerate_streak += 1;
                    } else {
                        degenerate_streak = 0;
                    }
                }
            }
        }
        Err(LpError::IterationLimit)
    }

    fn step(&mut self, cost: &[f64], ban_artificials: bool, bland: bool) -> Step {
        // Reduced costs: r_j = c_j - Σ_i c_{B(i)} · a_{i,j}
        let col_limit = if ban_artificials {
            self.art_start
        } else {
            self.n_total
        };
        let cb: Vec<f64> = self.basis.iter().map(|&b| cost[b]).collect();

        let mut entering: Option<usize> = None;
        let mut best_reduced = -TOL;
        for (j, &cj) in cost.iter().enumerate().take(col_limit) {
            if self.basis.contains(&j) {
                continue;
            }
            let mut r = cj;
            for (row, &cb_i) in self.rows.iter().zip(cb.iter()) {
                let a = row[j];
                if a != 0.0 {
                    r -= cb_i * a;
                }
            }
            if r < -TOL {
                if bland {
                    entering = Some(j);
                    break;
                }
                if r < best_reduced {
                    best_reduced = r;
                    entering = Some(j);
                }
            }
        }
        let Some(enter) = entering else {
            return Step::Optimal;
        };

        // Ratio test (ties broken by smallest basis index, à la Bland).
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..self.m {
            let a = self.rows[i][enter];
            if a > TOL {
                let ratio = self.rows[i][self.n_total] / a;
                let better = ratio < best_ratio - TOL
                    || ((ratio - best_ratio).abs() <= TOL
                        && leave.is_some_and(|l| self.basis[i] < self.basis[l]));
                if better || leave.is_none() {
                    if ratio < best_ratio {
                        best_ratio = ratio;
                    }
                    leave = Some(i);
                }
            }
        }
        let Some(leave_row) = leave else {
            return Step::Unbounded;
        };
        let degenerate = best_ratio <= TOL;
        self.pivot(leave_row, enter);
        Step::Pivoted { degenerate }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let pivot_val = self.rows[row][col];
        debug_assert!(pivot_val.abs() > 1e-12, "pivot element must be non-zero");
        let inv = 1.0 / pivot_val;
        for v in self.rows[row].iter_mut() {
            *v *= inv;
        }
        // Clean tiny values in the pivot row for numerical hygiene.
        for v in self.rows[row].iter_mut() {
            if v.abs() < 1e-12 {
                *v = 0.0;
            }
        }
        self.rows[row][col] = 1.0;
        let pivot_row = self.rows[row].clone();
        for (i, r) in self.rows.iter_mut().enumerate() {
            if i == row {
                continue;
            }
            let factor = r[col];
            if factor != 0.0 {
                for (rv, pv) in r.iter_mut().zip(pivot_row.iter()) {
                    *rv -= factor * pv;
                }
                r[col] = 0.0;
            }
        }
        self.basis[row] = col;
    }
}

enum PhaseResult {
    Optimal,
    Unbounded,
}
