//! Job profiles: the non-dominated `(allocation, time, area)` points.
//!
//! Phase 1 of the algorithm (Section 4.1.2) discards, for every job `j`, the
//! subset `D_j` of *dominated* allocations — those for which some other
//! allocation is both strictly faster and has strictly smaller average area
//! (Equation 2) — and only works with the remaining set `N_j`. A
//! [`JobProfile`] is exactly this Pareto frontier, pre-sorted by increasing
//! execution time, which is the form both the LP relaxation and the rounding
//! step consume.
//!
//! [`JobProfile::build`] streams a grid space: it walks the per-axis value
//! lists of [`AllocationSpace::axes`] in place with a mixed-radix counter
//! (last axis fastest, so in the order of [`AllocationSpace::enumerate`]),
//! evaluates Amdahl, communication-penalty and power-law models from per-axis
//! term tables whose partial sums are reused while only later axes move, and
//! keeps each usable point as a compact `(time, area, index)` candidate. The
//! candidates that no faster, smaller candidate provably dominates are
//! sorted by integer keys and swept once for Equation 2 (shared with
//! [`JobProfile::from_points`]); only the survivors, a few percent of a full
//! grid, are decoded back into [`Allocation`]s. Every step
//! performs the floating-point operations of [`ExecTimeSpec::time`] and
//! [`average_area`] in their order, so the result equals the retained
//! materialising builder [`JobProfile::build_reference`] bit for bit — pinned
//! by `tests/profile_differential.rs` and the `profile_build` bench binary.

use crate::allocation::{Allocation, SystemConfig};
use crate::error::ModelError;
use crate::exectime::ExecTimeSpec;
use crate::space::{advance, AllocationSpace};
use crate::Result;
use serde::{Deserialize, Serialize};

mod reference;

/// One candidate allocation of a job together with its execution time and
/// average area on the target system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllocPoint {
    /// The resource allocation `p_j`.
    pub alloc: Allocation,
    /// Execution time `t_j(p_j)`.
    pub time: f64,
    /// Average area `a_j(p_j) = (1/d) Σ_i p_j(i) · t_j(p_j) / P(i)`
    /// (Definition 1).
    pub area: f64,
}

impl AllocPoint {
    /// Builds a point by evaluating `spec` under `alloc` on `system`.
    pub fn evaluate(
        spec: &ExecTimeSpec,
        alloc: Allocation,
        system: &SystemConfig,
        job: usize,
    ) -> Result<AllocPoint> {
        system.validate_allocation(&alloc)?;
        let time = spec.time(&alloc);
        if !time.is_finite() || time <= 0.0 {
            return Err(ModelError::InvalidExecutionTime { job, value: time });
        }
        let area = average_area(&alloc, time, system);
        Ok(AllocPoint { alloc, time, area })
    }

    /// Work `w_j^{(i)} = p_j(i) · t_j(p_j)` on resource type `i`
    /// (Definition 1).
    pub fn work(&self, i: usize) -> f64 {
        self.alloc[i] as f64 * self.time
    }

    /// Area on a single resource type `a_j^{(i)} = w_j^{(i)} / P(i)`.
    pub fn area_on(&self, i: usize, system: &SystemConfig) -> f64 {
        self.work(i) / system.capacity(i) as f64
    }
}

/// Average area of an allocation with a given execution time (Definition 1).
pub fn average_area(alloc: &Allocation, time: f64, system: &SystemConfig) -> f64 {
    average_area_of(alloc.amounts(), time, system)
}

/// [`average_area`] on raw per-type amounts.
pub fn average_area_of(alloc: &[u64], time: f64, system: &SystemConfig) -> f64 {
    let d = system.num_resource_types();
    let sum: f64 = (0..d)
        .map(|i| alloc[i] as f64 * time / system.capacity(i) as f64)
        .sum();
    sum / d as f64
}

/// A usable point awaiting the Equation 2 sweep: its time and area as
/// [`order_key`]s, and its position in enumeration order. The derived order
/// — time, then area, then position — is the order a stable sort by
/// `(time, area)` produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Candidate {
    time: u64,
    area: u64,
    idx: usize,
}

impl Candidate {
    fn new(time: f64, area: f64, idx: usize) -> Candidate {
        Candidate {
            time: order_key(time),
            area: order_key(area),
            idx,
        }
    }

    fn time(&self) -> f64 {
        from_order_key(self.time)
    }

    fn area(&self) -> f64 {
        from_order_key(self.area)
    }
}

/// An integer whose order is the order of [`f64::total_cmp`]. On the
/// non-negative values a built profile holds (times finite and `> 0`, areas
/// `≥ +0.0`) it is `to_bits` with the sign bit set, so it sorts exactly as
/// `partial_cmp` does.
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// Inverse of [`order_key`].
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// Equation 2: orders the candidates by `(time, area, position)` and keeps,
/// in that order, exactly the non-dominated ones. Candidates that
/// [`witness_filter`] proves dominated are dropped before the sort.
fn prune(cands: &mut Vec<Candidate>) {
    match witness_filter(cands) {
        Some(front) => *cands = front,
        None => cands.sort_unstable(),
    }
    sweep(cands);
}

/// The Equation 2 sweep over candidates sorted by `(time, area, position)`:
/// keeps, in order, the candidates no strictly faster one beats on area.
fn sweep(cands: &mut Vec<Candidate>) {
    let mut kept = 0usize;
    let mut best_area_strictly_faster = f64::INFINITY;
    let mut i = 0usize;
    while i < cands.len() {
        // Process all points with (numerically) equal time together: they
        // cannot dominate each other via Equation 2's strict time
        // inequality.
        let t = cands[i].time();
        let mut group_end = i;
        while group_end < cands.len() && (cands[group_end].time() - t).abs() <= 1e-12 {
            group_end += 1;
        }
        let mut group_min_area = f64::INFINITY;
        for p in i..group_end {
            // Survivors are compacted to the front; `kept ≤ p`, so no
            // unread candidate is overwritten.
            let c = cands[p];
            let area = c.area();
            // Equation 2 uses *strict* inequalities on both coordinates: a
            // point is dominated only if some strictly faster point has
            // strictly smaller area.
            if area <= best_area_strictly_faster {
                cands[kept] = c;
                kept += 1;
            }
            group_min_area = group_min_area.min(area);
        }
        best_area_strictly_faster = best_area_strictly_faster.min(group_min_area);
        i = group_end;
    }
    cands.truncate(kept);
}

/// Candidates per time bucket of [`witness_filter`].
const BUCKET_SIZE: usize = 8;

/// The candidates that can survive Equation 2, sorted, or `None` when the
/// caller must sort them all.
///
/// Sorting dominates the cost of a large grid although only a few percent of
/// its points survive, so the filter first drops every candidate `q` with a
/// *witness* `w` — the smallest-area candidate of the time buckets before
/// `q`'s — that is more than `2e-12` faster and strictly smaller in area.
/// `w`'s 1e-12 time group precedes `q`'s, so the sweep drops `q`, and `q`'s
/// area never lowers the sweep's running minimum (`w`'s already does, or that
/// of `w`'s own witness). Dropping points could still move where the sweep's
/// time groups start, but only where two *distinct* times within 1e-12 of
/// each other remain: without such a pair every group, of all candidates and
/// of the survivors alike, holds a single exact time. The survivors are
/// returned only after checking that they have no such pair.
fn witness_filter(cands: &[Candidate]) -> Option<Vec<Candidate>> {
    if cands.len() < 4 * BUCKET_SIZE {
        return None;
    }
    // Buckets of equal width in order-key space: monotone in time.
    let lo = cands.iter().map(|c| c.time).min()?;
    let hi = cands.iter().map(|c| c.time).max()?;
    let bits = (cands.len() / BUCKET_SIZE).ilog2();
    let shift = (u64::BITS - (hi - lo).leading_zeros()).saturating_sub(bits);
    let bucket = |time: u64| ((time - lo) >> shift) as usize;
    let mut witness: Vec<Option<Candidate>> = vec![None; bucket(hi) + 1];
    for c in cands {
        let slot = &mut witness[bucket(c.time)];
        if slot.is_none_or(|w| c.area < w.area) {
            *slot = Some(*c);
        }
    }
    // Each bucket's witness becomes the best of the buckets before it.
    let mut best: Option<Candidate> = None;
    for slot in &mut witness {
        let here = std::mem::replace(slot, best);
        if let Some(h) = here {
            if best.is_none_or(|b| h.area < b.area) {
                best = Some(h);
            }
        }
    }
    let mut front: Vec<Candidate> = cands
        .iter()
        .copied()
        .filter(|c| {
            !witness[bucket(c.time)]
                .is_some_and(|w| w.time() + 2e-12 < c.time() && w.area() < c.area())
        })
        .collect();
    front.sort_unstable();
    let near_tie = front.windows(2).any(|pair| {
        let (a, b) = (pair[0].time(), pair[1].time());
        a != b && b - a <= 1e-12
    });
    (!near_tie).then_some(front)
}

/// An Amdahl, communication-penalty or power-law time as a chain of steps
/// `t ← t + table[v]` or `t ← t / table[v]`, one per term of
/// [`ExecTimeSpec::time`] and in its order, each table holding the term for
/// every value of its axis. `prefix[s]` caches the value before step `s` at
/// the current grid point, so a move of the last axes only replays the steps
/// from the first one that reads a moved axis.
struct TermChain {
    steps: Vec<Step>,
    /// Per axis `a`, the first step reading an axis `≥ a`.
    first_step: Vec<usize>,
    prefix: Vec<f64>,
}

struct Step {
    axis: usize,
    divide: bool,
    table: Vec<f64>,
}

impl TermChain {
    /// The chain of `spec` over the grid `axes` (every value `≥ 1`), or
    /// `None` for the other models and for parameter vectors whose length is
    /// not the grid's dimension.
    fn new(spec: &ExecTimeSpec, axes: &[Vec<u64>]) -> Option<TermChain> {
        let d = axes.len();
        let step = |axis: usize, divide: bool, term: &dyn Fn(u64) -> f64| Step {
            axis,
            divide,
            table: axes[axis].iter().map(|&v| term(v)).collect(),
        };
        // `t += w / p` only for `w > 0`, exactly as `time_of` skips the rest.
        let work_steps = |work: &[f64]| -> Vec<Step> {
            work.iter()
                .enumerate()
                .filter(|&(_, &w)| w > 0.0)
                .map(|(i, &w)| step(i, false, &|v| w / v as f64))
                .collect()
        };
        let (start, steps) = match spec {
            ExecTimeSpec::Amdahl { seq, work } if work.len() == d => (*seq, work_steps(work)),
            ExecTimeSpec::CommPenalty { seq, work, comm } if work.len() == d && comm.len() == d => {
                let mut steps = work_steps(work);
                steps.extend(
                    comm.iter()
                        .enumerate()
                        .map(|(i, &c)| step(i, false, &|v| c * v.saturating_sub(1) as f64)),
                );
                (*seq, steps)
            }
            ExecTimeSpec::PowerLaw { base, alpha } if alpha.len() == d => {
                let steps = alpha
                    .iter()
                    .enumerate()
                    .filter(|&(_, &a)| a > 0.0)
                    .map(|(i, &a)| step(i, true, &|v| (v as f64).powf(a)))
                    .collect();
                (*base, steps)
            }
            _ => return None,
        };
        let first_step = (0..d)
            .map(|a| {
                steps
                    .iter()
                    .position(|s| s.axis >= a)
                    .unwrap_or(steps.len())
            })
            .collect();
        Some(TermChain {
            prefix: vec![start; steps.len() + 1],
            steps,
            first_step,
        })
    }

    /// The time at grid point `digits`, where no axis before `moved` has
    /// changed since the previous call (`moved = 0` on the first call).
    fn eval(&mut self, moved: usize, digits: &[usize]) -> f64 {
        let from = self.first_step[moved];
        let mut t = self.prefix[from];
        for (s, step) in self.steps.iter().enumerate().skip(from) {
            let term = step.table[digits[step.axis]];
            t = if step.divide { t / term } else { t + term };
            self.prefix[s + 1] = t;
        }
        t
    }
}

/// The non-dominated allocation set `N_j` of one job, sorted by increasing
/// execution time (hence non-increasing area).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobProfile {
    points: Vec<AllocPoint>,
}

impl JobProfile {
    /// Builds the profile of a job: enumerate the candidate allocations,
    /// evaluate the execution-time model, and prune dominated points
    /// (Equation 2). Points on which the model cannot run (a time that is not
    /// finite and positive, e.g. zero units of a needed resource type) are
    /// dropped; if none is left, the error carries the last such time.
    ///
    /// Grid spaces are streamed without materialising the grid (see the
    /// module documentation); the result equals
    /// [`JobProfile::build_reference`] bit for bit.
    pub fn build(
        spec: &ExecTimeSpec,
        space: &AllocationSpace,
        system: &SystemConfig,
        job: usize,
        enumeration_limit: u128,
    ) -> Result<JobProfile> {
        let attribute = |e| match e {
            ModelError::EmptyAllocationSpace { .. } => ModelError::EmptyAllocationSpace { job },
            e => e,
        };
        let mut cands = Vec::new();
        let mut last_invalid = 0.0f64;
        let Some(axes) = space.axes(system, enumeration_limit).map_err(attribute)? else {
            let allocs = space
                .enumerate(system, enumeration_limit)
                .map_err(attribute)?;
            for (idx, alloc) in allocs.iter().enumerate() {
                let time = spec.time(alloc);
                if !time.is_finite() || time <= 0.0 {
                    last_invalid = time;
                    continue;
                }
                cands.push(Candidate::new(time, average_area(alloc, time, system), idx));
            }
            return finish(cands, last_invalid, job, |idx| allocs[idx].clone());
        };

        // Every axis value lies in `1..=P(i)` (see `AllocationSpace::axes`),
        // so every grid point is a valid allocation: nothing to re-check.
        debug_assert!(axes
            .iter()
            .zip(system.capacities())
            .all(|(axis, &cap)| axis.iter().all(|v| (1..=cap).contains(v))));
        let d = axes.len();
        let radices: Vec<usize> = axes.iter().map(Vec::len).collect();
        let caps: Vec<f64> = system.capacities().iter().map(|&c| c as f64).collect();
        let mut digits = vec![0usize; d];
        let mut point: Vec<u64> = axes.iter().map(|axis| axis[0]).collect();
        let mut amounts: Vec<f64> = point.iter().map(|&v| v as f64).collect();
        let mut chain = TermChain::new(spec, &axes);
        if let Some(size) = radices.iter().try_fold(1usize, |n, &r| n.checked_mul(r)) {
            cands.reserve(size);
        }
        let mut moved = 0usize;
        let mut idx = 0usize;
        loop {
            let time = match chain.as_mut() {
                Some(chain) => chain.eval(moved, &digits),
                None => spec.time_of(&point),
            };
            debug_assert_eq!(time.to_bits(), spec.time_of(&point).to_bits());
            if !time.is_finite() || time <= 0.0 {
                last_invalid = time;
            } else {
                // `average_area_of` with the conversions hoisted out of the
                // walk: the same operations in the same order.
                let sum: f64 = amounts
                    .iter()
                    .zip(&caps)
                    .map(|(&a, &cap)| a * time / cap)
                    .sum();
                let area = sum / d as f64;
                debug_assert_eq!(
                    area.to_bits(),
                    average_area_of(&point, time, system).to_bits()
                );
                cands.push(Candidate::new(time, area, idx));
            }
            idx += 1;
            let Some(axis) = advance(&mut digits, &radices) else {
                break;
            };
            moved = axis;
            for i in axis..d {
                point[i] = axes[i][digits[i]];
                amounts[i] = point[i] as f64;
            }
        }
        finish(cands, last_invalid, job, |idx| decode(idx, &axes))
    }

    /// Builds a profile from explicit points, pruning dominated ones
    /// (Equation 2) with the sweep [`JobProfile::build`] uses. The points are
    /// ordered by time, then area, in the order of [`f64::total_cmp`], ties
    /// keeping their input order. The `job` index is only used for error
    /// attribution by callers; an empty point set yields an empty profile.
    pub fn from_points(points: Vec<AllocPoint>, _job: usize) -> JobProfile {
        let mut cands: Vec<Candidate> = points
            .iter()
            .enumerate()
            .map(|(idx, p)| Candidate::new(p.time, p.area, idx))
            .collect();
        prune(&mut cands);
        let mut points: Vec<Option<AllocPoint>> = points.into_iter().map(Some).collect();
        JobProfile {
            points: cands
                .iter()
                .map(|c| {
                    points[c.idx]
                        .take()
                        .expect("each point is kept at most once")
                })
                .collect(),
        }
    }

    /// The non-dominated points, sorted by increasing time.
    pub fn points(&self) -> &[AllocPoint] {
        &self.points
    }

    /// Number of non-dominated points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the profile has no points (only possible for pathological
    /// inputs; [`JobProfile::build`] errors out instead).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The fastest point (minimum execution time).
    pub fn min_time_point(&self) -> &AllocPoint {
        self.points
            .first()
            .expect("profiles are built from at least one allocation")
    }

    /// The cheapest point (minimum average area; ties broken towards the
    /// faster point because the scan keeps the first strictly-smaller area).
    pub fn min_area_point(&self) -> &AllocPoint {
        self.points
            .iter()
            .min_by(|a, b| {
                a.area
                    .partial_cmp(&b.area)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("profiles are built from at least one allocation")
    }

    /// The point with the smallest `max(time, area)`, a handy single-job
    /// proxy for `L_min`.
    pub fn min_max_time_area_point(&self) -> &AllocPoint {
        self.points
            .iter()
            .min_by(|a, b| {
                a.time
                    .max(a.area)
                    .partial_cmp(&b.time.max(b.area))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("profiles are built from at least one allocation")
    }

    /// Among points with `time ≤ deadline`, the one with the smallest area;
    /// `None` if no point is fast enough. This is the inner step of the
    /// independent-job optimal allocator (Lemma 8).
    pub fn cheapest_within_deadline(&self, deadline: f64) -> Option<&AllocPoint> {
        self.points
            .iter()
            .filter(|p| p.time <= deadline + 1e-12)
            .min_by(|a, b| {
                a.area
                    .partial_cmp(&b.area)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    }

    /// The fastest point among those with area at most `area_budget`;
    /// `None` if even the cheapest point exceeds the budget.
    pub fn fastest_within_area(&self, area_budget: f64) -> Option<&AllocPoint> {
        self.points.iter().find(|p| p.area <= area_budget + 1e-12)
    }

    /// Finds the profile point for a specific allocation, if it is on the
    /// frontier.
    pub fn point_for(&self, alloc: &Allocation) -> Option<&AllocPoint> {
        self.points.iter().find(|p| &p.alloc == alloc)
    }

    /// Checks the Pareto invariant: the points are sorted by non-decreasing
    /// time and no point is dominated (Equation 2) by another point of the
    /// profile.
    pub fn is_pareto_consistent(&self) -> bool {
        for w in self.points.windows(2) {
            if w[1].time < w[0].time - 1e-12 {
                return false;
            }
        }
        for (i, p) in self.points.iter().enumerate() {
            for (k, q) in self.points.iter().enumerate() {
                if i != k && q.time < p.time - 1e-12 && q.area < p.area - 1e-12 {
                    return false;
                }
            }
        }
        true
    }
}

/// Prunes the candidates and decodes the survivors into the profile, or
/// reports that no point was usable.
fn finish(
    mut cands: Vec<Candidate>,
    last_invalid: f64,
    job: usize,
    alloc_of: impl Fn(usize) -> Allocation,
) -> Result<JobProfile> {
    if cands.is_empty() {
        return Err(ModelError::InvalidExecutionTime {
            job,
            value: last_invalid,
        });
    }
    prune(&mut cands);
    Ok(JobProfile {
        points: cands
            .iter()
            .map(|c| AllocPoint {
                alloc: alloc_of(c.idx),
                time: c.time(),
                area: c.area(),
            })
            .collect(),
    })
}

/// The grid point at position `idx` of the lexicographic walk of `axes`.
fn decode(mut idx: usize, axes: &[Vec<u64>]) -> Allocation {
    let mut amounts = vec![0u64; axes.len()];
    for (amount, axis) in amounts.iter_mut().zip(axes).rev() {
        *amount = axis[idx % axis.len()];
        idx /= axis.len();
    }
    Allocation::new(amounts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::DEFAULT_ENUMERATION_LIMIT;

    /// `prune` against sorting every candidate before the sweep.
    fn prune_matches_full_sort(cands: &[Candidate]) -> Vec<Candidate> {
        let mut expected = cands.to_vec();
        expected.sort_unstable();
        sweep(&mut expected);
        let mut got = cands.to_vec();
        prune(&mut got);
        assert_eq!(got, expected);
        got
    }

    /// Dominated filler: slow and large, in the time buckets after `first`.
    fn filler(first: usize, count: usize) -> impl Iterator<Item = Candidate> {
        (first..first + count).map(|idx| Candidate::new(100.0 + idx as f64, 1e6, idx))
    }

    #[test]
    fn witness_filter_drops_dominated_candidates() {
        let mut cands = vec![Candidate::new(1.0, 1.0, 0)];
        cands.extend(filler(1, 63));
        let front = witness_filter(&cands).expect("no near ties");
        assert!(front.len() < cands.len());
        assert_eq!(prune_matches_full_sort(&cands).len(), 1);
    }

    #[test]
    fn witness_filter_falls_back_on_near_tied_survivors() {
        // `q` is dominated by `w`, but it starts the 1e-12 group holding
        // `q2`; without `q` that group would start at `q2` and swallow `p3`,
        // which `q2` dominates only from an earlier group.
        let t = 10.0;
        let mut cands = vec![
            Candidate::new(1.0, 5.0, 0),         // w
            Candidate::new(t, 6.0, 1),           // q
            Candidate::new(t + 0.8e-12, 3.0, 2), // q2
            Candidate::new(t + 1.5e-12, 4.0, 3), // p3
        ];
        cands.extend(filler(4, 60));
        assert!(witness_filter(&cands).is_none());
        let kept: Vec<usize> = prune_matches_full_sort(&cands)
            .iter()
            .map(|c| c.idx)
            .collect();
        assert_eq!(kept, vec![0, 2]);
    }

    #[test]
    fn witness_must_be_more_than_a_group_width_faster() {
        // `w` ends the first time bucket and `q`, one ulp slower, starts the
        // next, so `w` is `q`'s witness; they share a 1e-12 group, so `q`
        // must survive although `w` is smaller.
        let mut cands: Vec<Candidate> = filler(2, 62).collect();
        let lo = order_key(1.0);
        let hi = cands.iter().map(|c| c.time).max().unwrap();
        let bits = (64 / BUCKET_SIZE).ilog2();
        let shift = (u64::BITS - (hi - lo).leading_zeros()).saturating_sub(bits);
        let w_time = from_order_key(lo + (1 << shift) - 1);
        cands.push(Candidate::new(1.0, 9.0, 0));
        cands.push(Candidate::new(w_time, 2.0, 1));
        cands.push(Candidate::new(from_order_key(lo + (1 << shift)), 3.0, 64));
        let kept: Vec<usize> = prune_matches_full_sort(&cands)
            .iter()
            .map(|c| c.idx)
            .collect();
        assert_eq!(kept, vec![0, 1, 64]);
    }

    fn system2() -> SystemConfig {
        SystemConfig::new(vec![4, 8]).unwrap()
    }

    fn amdahl2() -> ExecTimeSpec {
        ExecTimeSpec::Amdahl {
            seq: 1.0,
            work: vec![8.0, 8.0],
        }
    }

    #[test]
    fn average_area_definition() {
        let s = system2();
        let alloc = Allocation::new(vec![2, 4]);
        // w1 = 2t, a1 = 2t/4; w2 = 4t, a2 = 4t/8; average = (0.5t + 0.5t)/2
        let a = average_area(&alloc, 10.0, &s);
        assert!((a - 5.0).abs() < 1e-12);
    }

    #[test]
    fn build_profile_prunes_dominated() {
        let s = system2();
        let profile = JobProfile::build(
            &amdahl2(),
            &AllocationSpace::FullGrid,
            &s,
            0,
            DEFAULT_ENUMERATION_LIMIT,
        )
        .unwrap();
        assert!(!profile.is_empty());
        assert!(profile.is_pareto_consistent());
        // The fastest point must be the full allocation for a pure Amdahl
        // profile.
        assert_eq!(profile.min_time_point().alloc, Allocation::new(vec![4, 8]));
        // The cheapest point is the all-ones allocation.
        assert_eq!(profile.min_area_point().alloc, Allocation::new(vec![1, 1]));
        // Far fewer points than the 32 grid points survive.
        assert!(profile.len() < 32);
    }

    #[test]
    fn explicit_points_domination() {
        let mk = |t: f64, a: f64| AllocPoint {
            alloc: Allocation::new(vec![1]),
            time: t,
            area: a,
        };
        let profile = JobProfile::from_points(
            vec![mk(1.0, 5.0), mk(2.0, 3.0), mk(3.0, 4.0), mk(4.0, 1.0)],
            0,
        );
        // (3.0, 4.0) is dominated by (2.0, 3.0).
        assert_eq!(profile.len(), 3);
        assert!(profile.is_pareto_consistent());
    }

    #[test]
    fn equal_time_points_do_not_dominate_each_other() {
        let mk = |t: f64, a: f64| AllocPoint {
            alloc: Allocation::new(vec![1]),
            time: t,
            area: a,
        };
        let profile = JobProfile::from_points(vec![mk(1.0, 5.0), mk(1.0, 3.0)], 0);
        // Equation 2 requires *strictly* smaller time, so both survive.
        assert_eq!(profile.len(), 2);
    }

    #[test]
    fn strictly_dominated_by_faster_and_cheaper_is_removed() {
        let mk = |t: f64, a: f64| AllocPoint {
            alloc: Allocation::new(vec![1]),
            time: t,
            area: a,
        };
        let profile = JobProfile::from_points(vec![mk(1.0, 1.0), mk(2.0, 2.0)], 0);
        assert_eq!(profile.len(), 1);
        assert!((profile.min_time_point().time - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deadline_and_area_queries() {
        let s = system2();
        let profile = JobProfile::build(
            &amdahl2(),
            &AllocationSpace::FullGrid,
            &s,
            0,
            DEFAULT_ENUMERATION_LIMIT,
        )
        .unwrap();
        let fastest = profile.min_time_point().time;
        let cheapest_area = profile.min_area_point().area;
        // With a deadline equal to the fastest time, we get a point at that
        // time; with a huge deadline we get the cheapest point.
        let p1 = profile.cheapest_within_deadline(fastest).unwrap();
        assert!(p1.time <= fastest + 1e-12);
        let p2 = profile.cheapest_within_deadline(1e12).unwrap();
        assert!((p2.area - cheapest_area).abs() < 1e-12);
        // Impossible deadline.
        assert!(profile.cheapest_within_deadline(fastest * 0.5).is_none());
        // Area queries.
        let q1 = profile.fastest_within_area(cheapest_area).unwrap();
        assert!(q1.area <= cheapest_area + 1e-12);
        assert!(profile.fastest_within_area(cheapest_area * 0.5).is_none());
    }

    #[test]
    fn point_for_lookup() {
        let s = system2();
        let profile = JobProfile::build(
            &amdahl2(),
            &AllocationSpace::FullGrid,
            &s,
            0,
            DEFAULT_ENUMERATION_LIMIT,
        )
        .unwrap();
        let full = Allocation::new(vec![4, 8]);
        assert!(profile.point_for(&full).is_some());
        // A dominated allocation is absent: (4, 1) has t = 1 + 2 + 8 = 11 and
        // average area 6.19, while (2, 3) achieves t = 7.67 and area 3.35 —
        // both strictly better — so Pareto pruning must have dropped (4, 1).
        assert!(profile.point_for(&Allocation::new(vec![2, 3])).is_some());
        assert!(profile.point_for(&Allocation::new(vec![4, 1])).is_none());
    }

    #[test]
    fn work_and_per_resource_area() {
        let s = system2();
        let p = AllocPoint::evaluate(&amdahl2(), Allocation::new(vec![2, 2]), &s, 0).unwrap();
        // t = 1 + 4 + 4 = 9
        assert!((p.time - 9.0).abs() < 1e-12);
        assert!((p.work(0) - 18.0).abs() < 1e-12);
        assert!((p.area_on(0, &s) - 4.5).abs() < 1e-12);
        assert!((p.area_on(1, &s) - 2.25).abs() < 1e-12);
        assert!((p.area - (4.5 + 2.25) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_time_rejected() {
        let bad = ExecTimeSpec::Constant { time: 0.0 };
        let s = system2();
        assert!(matches!(
            AllocPoint::evaluate(&bad, Allocation::new(vec![1, 1]), &s, 3),
            Err(ModelError::InvalidExecutionTime { job: 3, .. })
        ));
        // A profile whose model can never run errors out as well.
        assert!(matches!(
            JobProfile::build(&bad, &AllocationSpace::FullGrid, &s, 3, 1_000_000),
            Err(ModelError::InvalidExecutionTime { job: 3, .. })
        ));
    }

    #[test]
    fn zero_component_points_are_dropped_not_fatal() {
        // A job that needs only resource type 0: allocations with zero units
        // of type 1 are fine, allocations with zero units of type 0 are
        // unusable and silently dropped.
        let s = system2();
        let spec = ExecTimeSpec::Amdahl {
            seq: 0.5,
            work: vec![4.0, 0.0],
        };
        let space = AllocationSpace::Explicit(vec![
            Allocation::new(vec![0, 1]),
            Allocation::new(vec![1, 0]),
            Allocation::new(vec![2, 0]),
        ]);
        let profile = JobProfile::build(&spec, &space, &s, 0, 1_000_000).unwrap();
        assert_eq!(profile.len(), 2);
        assert!(profile.points().iter().all(|p| p.alloc[0] >= 1));
    }

    #[test]
    fn comm_penalty_profile_is_pareto() {
        let s = SystemConfig::new(vec![16]).unwrap();
        let spec = ExecTimeSpec::CommPenalty {
            seq: 0.5,
            work: vec![16.0],
            comm: vec![0.4],
        };
        let profile = JobProfile::build(
            &spec,
            &AllocationSpace::FullGrid,
            &s,
            0,
            DEFAULT_ENUMERATION_LIMIT,
        )
        .unwrap();
        assert!(profile.is_pareto_consistent());
        // Very large allocations are dominated because the overhead makes
        // them both slower and larger in area.
        assert!(profile.min_time_point().alloc[0] < 16);
    }

    #[test]
    fn serde_roundtrip() {
        let s = system2();
        let profile = JobProfile::build(
            &amdahl2(),
            &AllocationSpace::PowersOfTwo,
            &s,
            0,
            DEFAULT_ENUMERATION_LIMIT,
        )
        .unwrap();
        let json = serde_json::to_string(&profile).unwrap();
        let back: JobProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(profile, back);
    }
}
