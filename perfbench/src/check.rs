//! The benchmark's own output checker.
//!
//! It runs beside `mrls_analysis::validate_schedule`, never in its place:
//! the analysis crate is one of the timed layers, so a change to it must not
//! be able to certify its own output. Only the model's execution-time
//! function and the instance data are trusted.

use mrls_core::Schedule;
use mrls_model::Instance;

/// Relative tolerance for comparing virtual times.
const TOL: f64 = 1e-9;

fn tol(t: f64) -> f64 {
    TOL * t.abs().max(1.0)
}

/// Checks `schedule` against `instance` and returns every violation found:
///
/// * each job appears exactly once, with finite times and `finish ≥ start`;
/// * each allocation has one entry per type, none above that type's
///   capacity;
/// * every precedence edge holds (`start_v ≥ finish_u`);
/// * per-type capacity is never exceeded, by an event sweep in which a job's
///   resources are free again at its finish (half-open `[start, finish)`);
/// * with `durations`, `finish − start = spec.time(alloc)` (offline plans);
/// * with `releases`, no job starts before its release time.
pub fn check_schedule(
    instance: &Instance,
    schedule: &Schedule,
    durations: bool,
    releases: Option<&[f64]>,
) -> Vec<String> {
    let mut bad = Vec::new();
    let n = instance.num_jobs();
    let d = instance.num_resource_types();
    let caps = instance.system.capacities();

    let mut slot: Vec<Option<usize>> = vec![None; n];
    for (k, sj) in schedule.jobs.iter().enumerate() {
        if sj.job >= n {
            bad.push(format!("entry {k} names job {} of {n}", sj.job));
            continue;
        }
        if slot[sj.job].replace(k).is_some() {
            bad.push(format!("job {} appears more than once", sj.job));
        }
        if !(sj.start.is_finite() && sj.finish.is_finite()) || sj.start < 0.0 {
            bad.push(format!(
                "job {} has times [{}, {}]",
                sj.job, sj.start, sj.finish
            ));
        } else if sj.finish + tol(sj.finish) < sj.start {
            bad.push(format!("job {} finishes before it starts", sj.job));
        }
        let amounts = sj.alloc.amounts();
        if amounts.len() != d {
            bad.push(format!(
                "job {} allocation has {} types, not {d}",
                sj.job,
                amounts.len()
            ));
        } else if let Some(i) = (0..d).find(|&i| amounts[i] > caps[i]) {
            bad.push(format!(
                "job {} asks {} units of type {i} (capacity {})",
                sj.job, amounts[i], caps[i]
            ));
        }
        if durations {
            let want = instance.jobs[sj.job].spec.time(&sj.alloc);
            let got = sj.finish - sj.start;
            if (got - want).abs() > tol(want) {
                bad.push(format!("job {} runs {got} but t(p) = {want}", sj.job));
            }
        }
        if let Some(rel) = releases {
            if sj.start + tol(sj.start) < rel[sj.job] {
                bad.push(format!(
                    "job {} starts at {} before its release {}",
                    sj.job, sj.start, rel[sj.job]
                ));
            }
        }
    }
    let missing = slot.iter().filter(|s| s.is_none()).count();
    if missing > 0 {
        bad.push(format!("{missing} of {n} jobs are missing"));
    }
    if !bad.is_empty() {
        return bad;
    }
    let at = |j: usize| &schedule.jobs[slot[j].expect("every job is present")];

    for v in 0..n {
        for &u in instance.dag.predecessors(v) {
            let (pu, pv) = (at(u), at(v));
            if pv.start + tol(pu.finish) < pu.finish {
                bad.push(format!(
                    "precedence {u} -> {v}: starts at {} before {} finishes",
                    pv.start, pu.finish
                ));
            }
        }
    }

    // Event sweep: (time, 0 = finish / 1 = start, job). Finishes are
    // shifted back by the tolerance so back-to-back jobs do not overlap.
    let mut events: Vec<(f64, u8, usize)> = Vec::with_capacity(2 * n);
    for sj in &schedule.jobs {
        if sj.finish - sj.start > tol(sj.finish) {
            events.push((sj.start, 1, sj.job));
            events.push((sj.finish - tol(sj.finish), 0, sj.job));
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut used = vec![0i128; d];
    for &(t, kind, j) in &events {
        let amounts = at(j).alloc.amounts();
        for i in 0..d {
            if kind == 1 {
                used[i] += i128::from(amounts[i]);
            } else {
                used[i] -= i128::from(amounts[i]);
            }
        }
        if kind == 1 {
            if let Some(i) = (0..d).find(|&i| used[i] > i128::from(caps[i])) {
                bad.push(format!(
                    "type {i} uses {} of {} at t = {t} (job {j} starting)",
                    used[i], caps[i]
                ));
                break;
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrls_core::ScheduledJob;
    use mrls_dag::Dag;
    use mrls_model::{Allocation, ExecTimeSpec, MoldableJob, SystemConfig};

    fn instance() -> Instance {
        let jobs = (0..3)
            .map(|j| MoldableJob::new(j, ExecTimeSpec::Constant { time: 1.0 }))
            .collect();
        Instance::new(
            SystemConfig::new(vec![2, 2]).unwrap(),
            Dag::from_edges(3, &[(0, 2)]).unwrap(),
            jobs,
        )
        .unwrap()
    }

    fn job(job: usize, start: f64, units: u64) -> ScheduledJob {
        ScheduledJob {
            job,
            start,
            finish: start + 1.0,
            alloc: Allocation::new(vec![units, 1]),
        }
    }

    #[test]
    fn accepts_a_feasible_schedule() {
        let s = Schedule::new(vec![job(0, 0.0, 1), job(1, 0.0, 1), job(2, 1.0, 2)]);
        assert!(check_schedule(&instance(), &s, true, None).is_empty());
    }

    #[test]
    fn finds_each_kind_of_violation() {
        let inst = instance();
        let over = Schedule::new(vec![job(0, 0.0, 2), job(1, 0.5, 1), job(2, 1.5, 2)]);
        assert_eq!(check_schedule(&inst, &over, true, None).len(), 1);
        let prec = Schedule::new(vec![job(0, 0.0, 1), job(1, 1.0, 1), job(2, 0.5, 1)]);
        assert_eq!(check_schedule(&inst, &prec, true, None).len(), 1);
        let dup = Schedule::new(vec![job(0, 0.0, 1), job(0, 0.0, 1), job(2, 1.0, 1)]);
        assert_eq!(check_schedule(&inst, &dup, true, None).len(), 2);
        let mut long = Schedule::new(vec![job(0, 0.0, 1), job(1, 0.0, 1), job(2, 1.0, 1)]);
        long.jobs[1].finish = 3.0;
        assert_eq!(check_schedule(&inst, &long, true, None).len(), 1);
        assert!(check_schedule(&inst, &long, false, None).is_empty());
        let early = Schedule::new(vec![job(0, 0.0, 1), job(1, 0.0, 1), job(2, 1.0, 1)]);
        assert_eq!(
            check_schedule(&inst, &early, true, Some(&[0.0, 0.5, 0.0])).len(),
            1
        );
        let wide = Schedule::new(vec![job(0, 0.0, 3), job(1, 0.0, 1), job(2, 1.0, 1)]);
        assert_eq!(check_schedule(&inst, &wide, true, None).len(), 1);
    }
}
