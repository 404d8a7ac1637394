//! The general-DAG allocator: LP relaxation of the Discrete Time-Cost
//! Tradeoff transform plus `ρ`-rounding (Section 4.1.2, Lemma 3).
//!
//! ## The relaxation
//!
//! With one convex-combination variable `x_{j,k} ∈ [0, 1]` per non-dominated
//! allocation point `k` of job `j`, one completion variable `f_j` per job and
//! the bound variable `L`, we solve
//!
//! ```text
//! minimise  L
//! s.t.      Σ_k x_{j,k} = 1                          ∀ j
//!           f_j ≥ Σ_k x_{j,k}·t_{j,k}                ∀ source j
//!           f_j ≥ f_i + Σ_k x_{j,k}·t_{j,k}          ∀ edge (i → j)
//!           L   ≥ f_j                                 ∀ j
//!           L   ≥ Σ_j Σ_k x_{j,k}·a_{j,k}
//!           x ≥ 0, f ≥ 0, L ≥ 0
//! ```
//!
//! The optimum `L*` of this LP is at most `L(p*) = L_min ≤ T_opt` because any
//! integral allocation is a feasible point, so `L*` doubles as a certified
//! makespan lower bound used to normalise experiments.
//!
//! ## The rounding
//!
//! For each job let `t̄_j = Σ_k x_{j,k} t_{j,k}` and `ā_j = Σ_k x_{j,k} a_{j,k}`
//! be the fractional time and area. We pick any non-dominated point with
//! `t ≤ t̄_j/ρ` **and** `a ≤ ā_j/(1−ρ)`. Such a point always exists: by
//! Markov's inequality the fractional weight of points with `t > t̄_j/ρ` is
//! `< ρ` and the weight of points with `a > ā_j/(1−ρ)` is `< 1−ρ`, so some
//! positive-weight point violates neither. Summing over jobs and paths gives
//! exactly the guarantees of Lemma 3:
//! `C(p′) ≤ C_frac/ρ ≤ L*/ρ ≤ T_opt/ρ` and
//! `A(p′) ≤ A_frac/(1−ρ) ≤ L*/(1−ρ) ≤ T_opt/(1−ρ)`.
//! This replaces the virtual-activity rounding of Skutella [34] with a
//! per-job argument that achieves the same bounds (see DESIGN.md).

use super::Allocator;
use crate::error::CoreError;
use crate::Result;
use mrls_lp::{LinearProgram, LpOutcome, Relation, Solution};
use mrls_model::{AllocationDecision, Instance, JobProfile};

/// The fractional solution of the LP relaxation.
#[derive(Debug, Clone)]
pub struct FractionalSolution {
    /// `weights[j][k]` = fractional weight of profile point `k` of job `j`.
    pub weights: Vec<Vec<f64>>,
    /// Fractional execution time `t̄_j` per job.
    pub fractional_times: Vec<f64>,
    /// Fractional average area `ā_j` per job.
    pub fractional_areas: Vec<f64>,
    /// The LP optimum `L*` (a valid lower bound on the optimal makespan).
    pub objective: f64,
    /// The fractional critical-path length (max completion variable).
    pub critical_path: f64,
    /// The fractional average total area.
    pub total_area: f64,
}

/// The LP relaxation of one instance, as built by
/// [`LpRoundingAllocator::relaxation_lp`].
#[derive(Debug, Clone)]
pub struct RelaxationLp {
    /// The linear program: `x_{j,k}` variables job by job, then `f_j`, then
    /// `L` (the objective).
    pub lp: LinearProgram,
    /// Index of `x_{j,0}` per job.
    offsets: Vec<usize>,
    /// Index of `f_0`.
    f_base: usize,
}

impl RelaxationLp {
    /// Reads a solution of [`RelaxationLp::lp`] back as per-job fractional
    /// weights, times and areas.
    pub fn fractional(&self, profiles: &[JobProfile], solution: &Solution) -> FractionalSolution {
        let n = profiles.len();
        let mut weights = Vec::with_capacity(n);
        let mut fractional_times = Vec::with_capacity(n);
        let mut fractional_areas = Vec::with_capacity(n);
        let mut total_area = 0.0;
        for (j, profile) in profiles.iter().enumerate() {
            let w: Vec<f64> = (0..profile.len())
                .map(|k| solution.x[self.offsets[j] + k].max(0.0))
                .collect();
            let t_bar: f64 = profile
                .points()
                .iter()
                .zip(w.iter())
                .map(|(p, &x)| p.time * x)
                .sum();
            let a_bar: f64 = profile
                .points()
                .iter()
                .zip(w.iter())
                .map(|(p, &x)| p.area * x)
                .sum();
            total_area += a_bar;
            weights.push(w);
            fractional_times.push(t_bar);
            fractional_areas.push(a_bar);
        }
        let critical_path = (0..n)
            .map(|j| solution.x[self.f_base + j])
            .fold(0.0f64, f64::max);
        FractionalSolution {
            weights,
            fractional_times,
            fractional_areas,
            objective: solution.objective,
            critical_path,
            total_area,
        }
    }
}

/// The LP-relaxation + rounding allocator of the paper (general DAGs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LpRoundingAllocator {
    rho: f64,
}

impl LpRoundingAllocator {
    /// Creates the allocator with rounding parameter `ρ ∈ (0, 1)`.
    pub fn new(rho: f64) -> Result<Self> {
        if !(rho > 0.0 && rho < 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "rho",
                value: rho,
                valid_range: "(0, 1)",
            });
        }
        Ok(LpRoundingAllocator { rho })
    }

    /// The rounding parameter.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Builds the LP relaxation of the module docs for `instance`, together
    /// with the variable layout needed to read its solution back.
    pub fn relaxation_lp(instance: &Instance, profiles: &[JobProfile]) -> Result<RelaxationLp> {
        let n = instance.num_jobs();
        // Variable layout: x variables per job (offsets), then f_0..f_{n-1},
        // then L.
        let mut offsets = Vec::with_capacity(n);
        let mut num_x = 0usize;
        for profile in profiles {
            offsets.push(num_x);
            num_x += profile.len();
        }
        let f_base = num_x;
        let l_var = f_base + n;
        let num_vars = l_var + 1;

        let mut objective = vec![0.0f64; num_vars];
        objective[l_var] = 1.0;
        let mut lp = LinearProgram::minimize(num_vars, objective);

        for (j, profile) in profiles.iter().enumerate() {
            // Convex combination.
            let coeffs: Vec<(usize, f64)> =
                (0..profile.len()).map(|k| (offsets[j] + k, 1.0)).collect();
            lp.add_constraint(coeffs, Relation::Eq, 1.0)?;

            // Completion-time constraints.
            let time_terms: Vec<(usize, f64)> = profile
                .points()
                .iter()
                .enumerate()
                .map(|(k, p)| (offsets[j] + k, -p.time))
                .collect();
            let preds = instance.dag.predecessors(j);
            if preds.is_empty() {
                let mut row = vec![(f_base + j, 1.0)];
                row.extend(time_terms.iter().copied());
                lp.add_constraint(row, Relation::Ge, 0.0)?;
            } else {
                for &i in preds {
                    let mut row = vec![(f_base + j, 1.0), (f_base + i, -1.0)];
                    row.extend(time_terms.iter().copied());
                    lp.add_constraint(row, Relation::Ge, 0.0)?;
                }
            }

            // L >= f_j.
            lp.add_constraint(vec![(l_var, 1.0), (f_base + j, -1.0)], Relation::Ge, 0.0)?;
        }

        // L >= total average area.
        let mut area_row: Vec<(usize, f64)> = vec![(l_var, 1.0)];
        for (j, profile) in profiles.iter().enumerate() {
            for (k, p) in profile.points().iter().enumerate() {
                area_row.push((offsets[j] + k, -p.area));
            }
        }
        lp.add_constraint(area_row, Relation::Ge, 0.0)?;

        Ok(RelaxationLp {
            lp,
            offsets,
            f_base,
        })
    }

    /// Builds and solves the LP relaxation.
    pub fn solve_relaxation(
        instance: &Instance,
        profiles: &[JobProfile],
    ) -> Result<FractionalSolution> {
        if instance.num_jobs() == 0 {
            return Ok(FractionalSolution {
                weights: vec![],
                fractional_times: vec![],
                fractional_areas: vec![],
                objective: 0.0,
                critical_path: 0.0,
                total_area: 0.0,
            });
        }
        let relaxation = Self::relaxation_lp(instance, profiles)?;
        let solution = match relaxation.lp.solve()? {
            LpOutcome::Optimal(s) => s,
            LpOutcome::Infeasible => {
                return Err(CoreError::LpFailure(
                    "relaxation reported infeasible (should be impossible)".into(),
                ))
            }
            LpOutcome::Unbounded => {
                return Err(CoreError::LpFailure(
                    "relaxation reported unbounded (should be impossible)".into(),
                ))
            }
        };
        Ok(relaxation.fractional(profiles, &solution))
    }

    /// Rounds the fractional solution into an integral initial allocation
    /// `p′` satisfying the per-job guarantees described in the module docs.
    pub fn round(
        &self,
        profiles: &[JobProfile],
        fractional: &FractionalSolution,
    ) -> AllocationDecision {
        let rho = self.rho;
        profiles
            .iter()
            .enumerate()
            .map(|(j, profile)| {
                let t_cap = fractional.fractional_times[j] / rho;
                let a_cap = fractional.fractional_areas[j] / (1.0 - rho);
                let tol_t = 1e-9 * (1.0 + t_cap.abs());
                let tol_a = 1e-9 * (1.0 + a_cap.abs());
                let candidate = profile
                    .points()
                    .iter()
                    .filter(|p| p.time <= t_cap + tol_t && p.area <= a_cap + tol_a)
                    .min_by(|a, b| {
                        a.time
                            .partial_cmp(&b.time)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(
                                a.area
                                    .partial_cmp(&b.area)
                                    .unwrap_or(std::cmp::Ordering::Equal),
                            )
                    });
                let point = candidate.unwrap_or_else(|| {
                    // Should be unreachable (see module docs); fall back to the
                    // point with the smallest normalised violation so the
                    // algorithm still produces a schedule under numerical
                    // noise.
                    profile
                        .points()
                        .iter()
                        .min_by(|a, b| {
                            let va = (a.time / t_cap.max(1e-300)).max(a.area / a_cap.max(1e-300));
                            let vb = (b.time / t_cap.max(1e-300)).max(b.area / a_cap.max(1e-300));
                            va.partial_cmp(&vb).unwrap_or(std::cmp::Ordering::Equal)
                        })
                        .expect("profiles are non-empty")
                });
                point.alloc.clone()
            })
            .collect()
    }
}

impl Allocator for LpRoundingAllocator {
    fn allocate(&self, instance: &Instance, profiles: &[JobProfile]) -> Result<AllocationDecision> {
        let fractional = Self::solve_relaxation(instance, profiles)?;
        Ok(self.round(profiles, &fractional))
    }

    fn name(&self) -> &'static str {
        "lp-rounding"
    }

    fn certified_lower_bound(&self, instance: &Instance, profiles: &[JobProfile]) -> Option<f64> {
        Self::solve_relaxation(instance, profiles)
            .ok()
            .map(|f| f.objective)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrls_dag::Dag;
    use mrls_model::{ExecTimeSpec, MoldableJob, SystemConfig};

    fn amdahl_instance(dag: Dag, d_caps: Vec<u64>) -> Instance {
        let n = dag.num_nodes();
        let d = d_caps.len();
        let jobs: Vec<MoldableJob> = (0..n)
            .map(|j| {
                MoldableJob::new(
                    j,
                    ExecTimeSpec::Amdahl {
                        seq: 1.0,
                        work: vec![6.0; d],
                    },
                )
            })
            .collect();
        Instance::new(SystemConfig::new(d_caps).unwrap(), dag, jobs).unwrap()
    }

    #[test]
    fn relaxation_objective_is_a_lower_bound_on_every_decision() {
        let inst = amdahl_instance(Dag::chain(4), vec![4, 4]);
        let profiles = inst.profiles().unwrap();
        let frac = LpRoundingAllocator::solve_relaxation(&inst, &profiles).unwrap();
        // The LP optimum is at most L(p) for every integral decision we try.
        for point_picker in [0usize, 1] {
            let decision: Vec<_> = profiles
                .iter()
                .map(|p| {
                    let idx = point_picker.min(p.len() - 1);
                    p.points()[idx].alloc.clone()
                })
                .collect();
            let l = inst.lower_bound_of(&decision).unwrap();
            assert!(
                frac.objective <= l + 1e-6,
                "LP bound {} exceeds integral L(p) {}",
                frac.objective,
                l
            );
        }
        assert!(frac.objective > 0.0);
    }

    #[test]
    fn fractional_weights_sum_to_one() {
        let inst = amdahl_instance(Dag::chain(3), vec![4, 4]);
        let profiles = inst.profiles().unwrap();
        let frac = LpRoundingAllocator::solve_relaxation(&inst, &profiles).unwrap();
        for w in &frac.weights {
            let sum: f64 = w.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(w.iter().all(|&x| x >= -1e-9));
        }
    }

    #[test]
    fn rounding_respects_lemma3_caps() {
        let inst = amdahl_instance(
            Dag::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]).unwrap(),
            vec![6, 6],
        );
        let profiles = inst.profiles().unwrap();
        let frac = LpRoundingAllocator::solve_relaxation(&inst, &profiles).unwrap();
        for rho in [0.25, 0.5, 0.75] {
            let alloc = LpRoundingAllocator::new(rho).unwrap();
            let decision = alloc.round(&profiles, &frac);
            for (j, a) in decision.iter().enumerate() {
                let point = profiles[j]
                    .point_for(a)
                    .expect("rounded point is on the frontier");
                assert!(point.time <= frac.fractional_times[j] / rho + 1e-6);
                assert!(point.area <= frac.fractional_areas[j] / (1.0 - rho) + 1e-6);
            }
            // Aggregate Lemma 3 guarantees relative to the LP optimum.
            let metrics = inst.evaluate_decision(&decision).unwrap();
            assert!(metrics.critical_path <= frac.objective / rho + 1e-6);
            assert!(metrics.average_total_area <= frac.objective / (1.0 - rho) + 1e-6);
        }
    }

    #[test]
    fn independent_jobs_relaxation_matches_intuition() {
        // For independent identical jobs the LP should balance time against
        // area; the objective lies between the best single-job bound and the
        // min-time decision's L.
        let inst = amdahl_instance(Dag::independent(6), vec![4, 4]);
        let profiles = inst.profiles().unwrap();
        let frac = LpRoundingAllocator::solve_relaxation(&inst, &profiles).unwrap();
        let min_time_l = {
            let decision: Vec<_> = profiles
                .iter()
                .map(|p| p.min_time_point().alloc.clone())
                .collect();
            inst.lower_bound_of(&decision).unwrap()
        };
        assert!(frac.objective <= min_time_l + 1e-6);
        assert!(frac.objective >= profiles[0].min_time_point().time - 1e-6);
    }

    #[test]
    fn invalid_rho_rejected() {
        assert!(LpRoundingAllocator::new(0.0).is_err());
        assert!(LpRoundingAllocator::new(1.0).is_err());
        assert!(LpRoundingAllocator::new(-0.3).is_err());
        assert!(LpRoundingAllocator::new(0.5).is_ok());
    }

    #[test]
    fn allocator_trait_end_to_end() {
        let inst = amdahl_instance(Dag::chain(3), vec![4, 4]);
        let profiles = inst.profiles().unwrap();
        let alloc = LpRoundingAllocator::new(0.5).unwrap();
        let decision = alloc.allocate(&inst, &profiles).unwrap();
        assert_eq!(decision.len(), 3);
        assert_eq!(alloc.name(), "lp-rounding");
        let lb = alloc.certified_lower_bound(&inst, &profiles).unwrap();
        assert!(lb > 0.0);
        let l = inst.lower_bound_of(&decision).unwrap();
        assert!(lb <= l + 1e-6);
    }

    #[test]
    fn empty_instance() {
        let inst = amdahl_instance(Dag::independent(0), vec![4]);
        let profiles = inst.profiles().unwrap();
        let frac = LpRoundingAllocator::solve_relaxation(&inst, &profiles).unwrap();
        assert_eq!(frac.objective, 0.0);
        let alloc = LpRoundingAllocator::new(0.5).unwrap();
        assert!(alloc.allocate(&inst, &profiles).unwrap().is_empty());
    }
}
