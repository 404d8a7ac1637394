//! Differential tests: the fast simplex against the retained reference.
//!
//! [`LinearProgram::solve`] must make exactly the pivot choices of
//! [`LinearProgram::solve_reference`], so on every LP the two return the same
//! [`LpOutcome`] variant with `objective` and `x` equal as `f64` (`==`; the
//! derived `PartialEq` compares exactly that). The families below aim at the
//! branches where a re-ordered sum or a skipped update could tip a decision:
//! sparse and dense `≤` systems, mixed relations with negative right-hand
//! sides (row flips), redundant equalities (row dropping after phase 1),
//! degenerate LPs long enough to switch to Bland's rule, infeasible and
//! unbounded problems, and LPs shaped like the scheduler's relaxation.
//! Cases derive from the fixed seed baked into the proptest config, so
//! failures replay exactly.

use mrls_lp::{LinearProgram, LpOutcome, Relation};
use proptest::prelude::*;

/// A xorshift stream: the LP generators below draw everything from a seed.
struct Stream(u64);

impl Stream {
    fn new(seed: u64) -> Self {
        Stream(seed | 1)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `[lo, hi)` on a grid of 1/100.
    fn grid(&mut self, lo: f64, hi: f64) -> f64 {
        let steps = ((hi - lo) * 100.0) as u64;
        lo + (self.next_u64() % steps.max(1)) as f64 / 100.0
    }

    /// Uniform in `[lo, hi)` with full mantissa noise.
    fn real(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }

    /// A row over `0..n` keeping each column with probability `percent`%,
    /// with coefficients drawn by `draw`.
    fn sparse_row(
        &mut self,
        n: usize,
        percent: u64,
        draw: impl Fn(&mut Self) -> f64,
    ) -> Vec<(usize, f64)> {
        let mut row = Vec::new();
        for j in 0..n {
            if self.chance(percent) {
                row.push((j, draw(self)));
            }
        }
        row
    }
}

/// Solves with both solvers and checks they agree exactly.
fn same_as_reference(lp: &LinearProgram) -> Result<LpOutcome, TestCaseError> {
    let fast = lp.solve();
    let reference = lp.solve_reference();
    prop_assert_eq!(&fast, &reference, "fast and reference solvers diverged");
    Ok(fast.expect("no iteration limit on these sizes"))
}

/// `≤` rows with non-negative coefficients (some zero) and positive right-
/// hand sides, so the origin is feasible; half the cases drop the bounding
/// row, which makes some of them unbounded.
fn le_only(seed: u64, n: usize, m: usize) -> LinearProgram {
    let mut s = Stream::new(seed);
    let objective = (0..n).map(|_| s.grid(-5.0, 5.0)).collect();
    let mut lp = LinearProgram::minimize(n, objective);
    for _ in 0..m {
        let coeffs = s.sparse_row(n, 70, |s| s.real(0.0, 10.0));
        lp.add_constraint(coeffs, Relation::Le, s.grid(1.0, 20.0))
            .unwrap();
    }
    if s.chance(50) {
        lp.add_constraint((0..n).map(|j| (j, 1.0)).collect(), Relation::Le, 50.0)
            .unwrap();
    }
    lp
}

/// Every relation, signed coefficients, right-hand sides of either sign, and
/// repeated indices within a row.
fn mixed(seed: u64, n: usize, m: usize) -> LinearProgram {
    let mut s = Stream::new(seed);
    let objective = (0..n).map(|_| s.grid(-3.0, 6.0)).collect();
    let mut lp = LinearProgram::minimize(n, objective);
    for _ in 0..m {
        let mut coeffs = s.sparse_row(n, 60, |s| s.grid(-5.0, 5.0));
        if s.chance(20) {
            coeffs.push((s.below(n), s.grid(-2.0, 2.0)));
        }
        let relation = [Relation::Le, Relation::Ge, Relation::Eq][s.below(3)];
        lp.add_constraint(coeffs, relation, s.grid(-10.0, 10.0))
            .unwrap();
    }
    lp.add_constraint((0..n).map(|j| (j, 1.0)).collect(), Relation::Le, 40.0)
        .unwrap();
    lp
}

/// Equalities satisfied by a known point, plus exact duplicates, scaled
/// copies and sums of them: phase 1 ends with artificials that cannot leave,
/// whose rows are dropped.
fn redundant(seed: u64, n: usize, m: usize) -> LinearProgram {
    let mut s = Stream::new(seed);
    let point: Vec<f64> = (0..n).map(|_| s.grid(0.0, 4.0)).collect();
    let objective = (0..n).map(|_| s.grid(0.0, 5.0)).collect();
    let mut lp = LinearProgram::minimize(n, objective);
    let base: Vec<Vec<(usize, f64)>> = (0..m)
        .map(|_| s.sparse_row(n, 60, |s| s.grid(-3.0, 3.0)))
        .collect();
    let rhs = |row: &[(usize, f64)]| row.iter().map(|&(j, a)| a * point[j]).sum::<f64>();
    for row in &base {
        lp.add_constraint(row.clone(), Relation::Eq, rhs(row))
            .unwrap();
    }
    for _ in 0..m {
        let a = &base[s.below(m)];
        let b = &base[s.below(m)];
        let derived: Vec<(usize, f64)> = match s.below(3) {
            0 => a.clone(),
            1 => a.iter().map(|&(j, v)| (j, 2.0 * v)).collect(),
            _ => a.iter().chain(b.iter()).copied().collect(),
        };
        let b = rhs(&derived);
        lp.add_constraint(derived, Relation::Eq, b).unwrap();
    }
    lp.add_constraint((0..n).map(|j| (j, 1.0)).collect(), Relation::Le, 100.0)
        .unwrap();
    lp
}

/// Beale's cycling example (which cycles under Dantzig pricing with
/// smallest-index ties) in `blocks` side-by-side copies, each with its own
/// bound on the third variable, plus `extra_rows` random rows through the
/// origin. Every pivot at the origin is degenerate, so the streak reaches
/// the Bland fallback.
fn beale(seed: u64, blocks: usize, extra_rows: usize) -> LinearProgram {
    let mut s = Stream::new(seed);
    let n = 4 * blocks;
    let objective = (0..n).map(|j| [-0.75, 20.0, -0.5, 6.0][j % 4]).collect();
    let mut lp = LinearProgram::minimize(n, objective);
    for b in 0..blocks {
        let bound = s.grid(0.5, 3.0);
        for (row, rhs) in [
            ([0.25, -8.0, -1.0, 9.0], 0.0),
            ([0.5, -12.0, -0.5, 3.0], 0.0),
            ([0.0, 0.0, 1.0, 0.0], bound),
        ] {
            let coeffs = (0..4)
                .filter(|&k| row[k] != 0.0)
                .map(|k| (4 * b + k, row[k]))
                .collect();
            lp.add_constraint(coeffs, Relation::Le, rhs).unwrap();
        }
    }
    for _ in 0..extra_rows {
        let coeffs = s.sparse_row(n, 40, |s| s.grid(-4.0, 2.0));
        lp.add_constraint(coeffs, Relation::Le, 0.0).unwrap();
    }
    lp
}

/// A system that is infeasible by construction: a sum forced both below
/// `cap` and at or above `cap + gap`, next to random feasible rows.
fn infeasible(seed: u64, n: usize) -> LinearProgram {
    let mut s = Stream::new(seed);
    let objective = (0..n).map(|_| s.grid(-2.0, 2.0)).collect();
    let mut lp = LinearProgram::minimize(n, objective);
    let support: Vec<(usize, f64)> = (0..n).map(|j| (j, s.grid(0.5, 3.0))).collect();
    let cap = s.grid(1.0, 10.0);
    lp.add_constraint(support.clone(), Relation::Le, cap)
        .unwrap();
    for _ in 0..n {
        let coeffs = (0..n).map(|j| (j, s.grid(0.0, 2.0))).collect();
        lp.add_constraint(coeffs, Relation::Le, s.grid(5.0, 20.0))
            .unwrap();
    }
    let negated = support.iter().map(|&(j, a)| (j, -a)).collect();
    lp.add_constraint(negated, Relation::Le, -(cap + s.grid(0.5, 3.0)))
        .unwrap();
    lp
}

/// A feasible system with a free improving ray: variable `ray` has a
/// negative cost, a non-positive coefficient in every `≤` row and a
/// non-negative one in every `≥` row.
fn unbounded(seed: u64, n: usize) -> LinearProgram {
    let mut s = Stream::new(seed);
    let ray = s.below(n);
    let mut objective: Vec<f64> = (0..n).map(|_| s.grid(0.0, 3.0)).collect();
    objective[ray] = -s.grid(0.5, 3.0);
    let mut lp = LinearProgram::minimize(n, objective);
    for _ in 0..n {
        let relation = if s.chance(30) {
            Relation::Ge
        } else {
            Relation::Le
        };
        let coeffs = (0..n)
            .map(|j| {
                let a = s.grid(0.0, 3.0);
                (
                    j,
                    if j == ray && relation == Relation::Le {
                        -a
                    } else {
                        a
                    },
                )
            })
            .collect();
        let rhs = if relation == Relation::Ge {
            -s.grid(0.0, 5.0)
        } else {
            s.grid(1.0, 10.0)
        };
        lp.add_constraint(coeffs, relation, rhs).unwrap();
    }
    lp
}

/// The Lemma 3 relaxation's shape on a random DAG: `jobs` jobs with 1–6
/// time/area trade-off points each, convex-combination equalities,
/// completion rows per edge (or per source), `L ≥ f_j` and the area row.
fn scheduler_shaped(seed: u64, jobs: usize) -> LinearProgram {
    let mut s = Stream::new(seed);
    let points: Vec<Vec<(f64, f64)>> = (0..jobs)
        .map(|_| {
            let work = s.real(2.0, 40.0);
            (0..1 + s.below(6))
                .map(|k| {
                    let procs = (1 << k) as f64;
                    let time = work / procs + s.real(0.0, 1.0);
                    (time, time * procs / 8.0)
                })
                .collect()
        })
        .collect();
    let mut offsets = Vec::with_capacity(jobs);
    let mut num_x = 0;
    for p in &points {
        offsets.push(num_x);
        num_x += p.len();
    }
    let f_base = num_x;
    let l_var = f_base + jobs;
    let mut objective = vec![0.0; l_var + 1];
    objective[l_var] = 1.0;
    let mut lp = LinearProgram::minimize(l_var + 1, objective);
    for j in 0..jobs {
        let xs = |k: usize| offsets[j] + k;
        lp.add_constraint(
            (0..points[j].len()).map(|k| (xs(k), 1.0)).collect(),
            Relation::Eq,
            1.0,
        )
        .unwrap();
        let time_terms: Vec<(usize, f64)> = points[j]
            .iter()
            .enumerate()
            .map(|(k, &(t, _))| (xs(k), -t))
            .collect();
        let preds: Vec<usize> = (0..j).filter(|_| s.chance(25)).collect();
        if preds.is_empty() {
            let mut row = vec![(f_base + j, 1.0)];
            row.extend(time_terms.iter().copied());
            lp.add_constraint(row, Relation::Ge, 0.0).unwrap();
        }
        for i in preds {
            let mut row = vec![(f_base + j, 1.0), (f_base + i, -1.0)];
            row.extend(time_terms.iter().copied());
            lp.add_constraint(row, Relation::Ge, 0.0).unwrap();
        }
        lp.add_constraint(vec![(l_var, 1.0), (f_base + j, -1.0)], Relation::Ge, 0.0)
            .unwrap();
    }
    let mut area_row = vec![(l_var, 1.0)];
    for (j, p) in points.iter().enumerate() {
        area_row.extend(
            p.iter()
                .enumerate()
                .map(|(k, &(_, a))| (offsets[j] + k, -a)),
        );
    }
    lp.add_constraint(area_row, Relation::Ge, 0.0).unwrap();
    lp
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn le_only_lps_match_reference(seed in any::<u64>(), n in 1usize..=14, m in 1usize..=14) {
        same_as_reference(&le_only(seed, n, m))?;
    }

    #[test]
    fn mixed_relation_lps_match_reference(seed in any::<u64>(), n in 1usize..=12, m in 1usize..=12) {
        same_as_reference(&mixed(seed, n, m))?;
    }

    #[test]
    fn redundant_equality_lps_match_reference(seed in any::<u64>(), n in 2usize..=10, m in 1usize..=6) {
        same_as_reference(&redundant(seed, n, m))?;
    }

    #[test]
    fn infeasible_lps_match_reference(seed in any::<u64>(), n in 1usize..=10) {
        let lp = infeasible(seed, n);
        let outcome = same_as_reference(&lp)?;
        prop_assert_eq!(outcome, LpOutcome::Infeasible);
        let (_, stats) = lp.solve_with_stats().unwrap();
        prop_assert_eq!(stats.phase2_pivots, 0);
    }

    #[test]
    fn unbounded_lps_match_reference(seed in any::<u64>(), n in 1usize..=10) {
        let outcome = same_as_reference(&unbounded(seed, n))?;
        prop_assert_eq!(outcome, LpOutcome::Unbounded);
    }

    #[test]
    fn scheduler_shaped_lps_match_reference(seed in any::<u64>(), jobs in 1usize..=24) {
        let outcome = same_as_reference(&scheduler_shaped(seed, jobs))?;
        prop_assert!(matches!(outcome, LpOutcome::Optimal(_)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn degenerate_beale_lps_match_reference(seed in any::<u64>(), blocks in 1usize..=4, extra in 0usize..=8) {
        same_as_reference(&beale(seed, blocks, extra))?;
    }
}

/// The degenerate family is only worth its name if it reaches the Bland
/// fallback: over a fixed sweep, every case must take Bland pivots.
#[test]
fn beale_family_trips_the_bland_fallback() {
    let mut tripped = 0;
    let mut cases = 0;
    for seed in 1..=20u64 {
        for blocks in 1..=3 {
            let lp = beale(seed, blocks, 4);
            let (outcome, stats) = lp.solve_with_stats().unwrap();
            assert_eq!(Ok(outcome), lp.solve_reference());
            cases += 1;
            if stats.bland_pivots > 0 {
                tripped += 1;
            }
        }
    }
    assert!(
        tripped == cases,
        "only {tripped} of {cases} degenerate LPs reached Bland's rule"
    );
}
