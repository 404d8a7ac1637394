//! The retained materialising profile builder: an executable specification.
//!
//! [`JobProfile::build_reference`] is the profile builder exactly as it stood
//! before the streaming builder of [`crate::profile`] replaced it: it
//! materialises every candidate as an [`Allocation`] through
//! [`AllocationSpace::enumerate`], re-validates each point, evaluates
//! [`ExecTimeSpec::time`] and [`average_area`] per point, stable-sorts the
//! [`AllocPoint`]s with a `partial_cmp` comparator and sweeps them for
//! Equation 2. It is kept verbatim, like `ListScheduler::schedule_naive` in
//! `mrls-core` and `LinearProgram::solve_reference` in `mrls-lp`, so that
//! [`JobProfile::build`] can be pinned equal to it (the whole `Result`, times
//! and areas equal bit for bit) by `tests/profile_differential.rs`. It must
//! never be "improved": any change to its arithmetic or its order would
//! silently move the specification the fast builder is checked against.

use super::{average_area, AllocPoint, JobProfile};
use crate::allocation::SystemConfig;
use crate::error::ModelError;
use crate::exectime::ExecTimeSpec;
use crate::space::AllocationSpace;
use crate::Result;

impl JobProfile {
    /// Builds the profile with the retained materialising reference builder.
    ///
    /// Slower than [`JobProfile::build`] and returning the same result; meant
    /// for differential tests and benchmarks, not for production use.
    pub fn build_reference(
        spec: &ExecTimeSpec,
        space: &AllocationSpace,
        system: &SystemConfig,
        job: usize,
        enumeration_limit: u128,
    ) -> Result<JobProfile> {
        let allocs = space.enumerate(system, enumeration_limit).map_err(|e| {
            if let ModelError::EmptyAllocationSpace { .. } = e {
                ModelError::EmptyAllocationSpace { job }
            } else {
                e
            }
        })?;
        // Allocations on which the model cannot run (e.g. zero units of a
        // resource type the job genuinely needs → infinite time) are simply
        // not usable points; drop them. Only error out if nothing remains.
        let mut points = Vec::with_capacity(allocs.len());
        let mut last_invalid = 0.0f64;
        for alloc in allocs {
            system.validate_allocation(&alloc)?;
            let time = spec.time(&alloc);
            if !time.is_finite() || time <= 0.0 {
                last_invalid = time;
                continue;
            }
            let area = average_area(&alloc, time, system);
            points.push(AllocPoint { alloc, time, area });
        }
        if points.is_empty() {
            return Err(ModelError::InvalidExecutionTime {
                job,
                value: last_invalid,
            });
        }
        Ok(prune_reference(points))
    }
}

/// The Equation 2 sweep of the reference builder.
fn prune_reference(mut points: Vec<AllocPoint>) -> JobProfile {
    // Sort by (time asc, area asc) and sweep keeping the running minimum
    // area: a point is dominated iff some strictly faster point has
    // strictly smaller area (Equation 2 uses strict inequalities on both
    // coordinates).
    points.sort_by(|a, b| {
        a.time
            .partial_cmp(&b.time)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(
                a.area
                    .partial_cmp(&b.area)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
    });
    let mut kept: Vec<AllocPoint> = Vec::new();
    let mut best_area_strictly_faster = f64::INFINITY;
    let mut i = 0usize;
    while i < points.len() {
        // Process all points with (numerically) equal time together: they
        // cannot dominate each other via Equation 2's strict time
        // inequality.
        let t = points[i].time;
        let mut group_end = i;
        while group_end < points.len() && (points[group_end].time - t).abs() <= 1e-12 {
            group_end += 1;
        }
        for p in &points[i..group_end] {
            // Equation 2 uses *strict* inequalities on both coordinates:
            // a point is dominated only if some strictly faster point has
            // strictly smaller area.
            if p.area <= best_area_strictly_faster {
                kept.push(p.clone());
            }
        }
        let group_min_area = points[i..group_end]
            .iter()
            .map(|p| p.area)
            .fold(f64::INFINITY, f64::min);
        best_area_strictly_faster = best_area_strictly_faster.min(group_min_area);
        i = group_end;
    }
    JobProfile { points: kept }
}
