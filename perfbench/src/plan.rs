//! `plan-dag` and `plan-bulk`: one-shot offline planning requests.
//!
//! A request is what `mrls schedule` does: `MrlsScheduler::schedule` plus
//! `validate_schedule`. Request `i` of a run is generated from
//! `(seed, i)`; the shapes cycle in a fixed order so every seed sees the same
//! mix. The first [`PREFIX`] requests always run, and the determinism digest
//! and the virtual-time metrics cover exactly them.

use crate::check::check_schedule;
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::stats::{
    beyond, derive_seed, mean, median, peak_rss_mb, quantile, reset_peak_rss, secs, Digest,
};
use crate::tracer::{spans_path, Tracer};
use crate::Args;
use mrls_analysis::validate_schedule;
use mrls_core::allocators::{
    adjust_allocation, IndependentOptimalAllocator, LpRoundingAllocator, SpFptasAllocator,
};
use mrls_core::bounds::combinatorial_lower_bound;
use mrls_core::scheduler::ResolvedParams;
use mrls_core::{theory, ListScheduler, MrlsConfig, MrlsScheduler, Schedule, ScheduleResult};
use mrls_dag::GraphClass;
use mrls_model::Instance;
use mrls_workload::{DagRecipe, InstanceRecipe, JobRecipe, SystemRecipe};
use std::collections::BTreeMap;
use std::time::Instant;

/// Requests every untraced run completes (so at least ten lie beyond p90);
/// the digest and the virtual-time metrics cover exactly these.
const PREFIX: usize = 110;
/// Requests every traced run completes.
const TRACE_PREFIX: usize = 20;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 31;

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Dag,
    Bulk,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Dag => "plan-dag",
            Kind::Bulk => "plan-bulk",
        }
    }

    /// The request shapes, cycled in order.
    fn shapes(self) -> Vec<InstanceRecipe> {
        let recipe = |d: usize, dag: DagRecipe| InstanceRecipe {
            system: SystemRecipe::Uniform { d, p: 8 },
            dag,
            jobs: JobRecipe::default_mixed(),
        };
        let layered = |n: usize| DagRecipe::RandomLayered {
            n,
            layers: (n as f64).sqrt().ceil() as usize,
            edge_prob: 0.3,
        };
        match self {
            // General DAGs: the LP-rounding allocator (Theorems 1/2).
            Kind::Dag => vec![
                recipe(2, layered(30)),
                recipe(2, DagRecipe::Cholesky { tiles: 5 }),
                recipe(3, DagRecipe::Cholesky { tiles: 4 }),
            ],
            // The improved special cases: SP FPTAS and exact independent.
            Kind::Bulk => vec![
                recipe(
                    4,
                    DagRecipe::RandomSeriesParallel {
                        n: 110,
                        series_prob: 0.5,
                    },
                ),
                recipe(4, DagRecipe::Independent { n: 120 }),
            ],
        }
    }
}

fn request(shapes: &[InstanceRecipe], seed: u64, i: usize) -> Instance {
    shapes[i % shapes.len()]
        .generate(derive_seed(seed, i as u64))
        .instance
}

/// Set-up: generates the first [`PREFIX`] requests, [`SETUP_REPEATS`]
/// times; returns the inputs and the median set-up time.
fn setup(kind: Kind, seed: u64) -> (Vec<InstanceRecipe>, Vec<Instance>, f64) {
    let mut times = Vec::new();
    let mut pool = Vec::new();
    let mut shapes = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        shapes = kind.shapes();
        pool = (0..PREFIX).map(|i| request(&shapes, seed, i)).collect();
        times.push(secs(t));
    }
    (shapes, pool, median(&times))
}

/// Virtual-time outcome of one checked plan.
struct Quality {
    ratio: f64,
    stretch: f64,
}

/// Applies every output check to one plan: the program's validator, the
/// benchmark's own checker and the Table 1 theorem guard.
fn check_plan(
    report: &mut Report,
    what: &str,
    inst: &Instance,
    result: &ScheduleResult,
    validator_ok: bool,
) -> Quality {
    if !validator_ok {
        report.violation(format!("{what}: validate_schedule rejects the plan"));
    }
    report.violations(what, check_schedule(inst, &result.schedule, true, None));
    let makespan = result.schedule.makespan;
    let bound = result.params.ratio_guarantee * result.lower_bound;
    if !(result.lower_bound > 0.0 && makespan <= bound * (1.0 + 1e-9)) {
        report.violation(format!(
            "{what}: theorem guard: makespan {makespan} > {} x lower bound {}",
            result.params.ratio_guarantee, result.lower_bound
        ));
    }
    let stretch = mean(
        &result
            .schedule
            .jobs
            .iter()
            .map(|j| j.finish / (j.finish - j.start))
            .collect::<Vec<_>>(),
    );
    Quality {
        ratio: makespan / result.lower_bound,
        stretch,
    }
}

/// One untraced request, timed as a whole.
fn timed_request(
    scheduler: &MrlsScheduler,
    inst: &Instance,
) -> (f64, Result<(ScheduleResult, bool), String>) {
    let t = Instant::now();
    let out = scheduler.schedule(inst).map(|r| {
        let ok = validate_schedule(inst, &r.schedule).is_valid();
        (r, ok)
    });
    (secs(t), out.map_err(|e| e.to_string()))
}

pub fn run(kind: Kind, args: &Args) -> Report {
    let (shapes, pool, setup_s) = setup(kind, args.seed);
    if args.trace {
        return traced(kind, args, &shapes, pool);
    }
    let mut report = Report::new();
    let scheduler = MrlsScheduler::with_defaults();
    let (mut lat_ms, mut rss_mb) = (Vec::new(), Vec::new());
    let (mut busy, mut jobs) = (0.0f64, 0usize);
    let (mut ratios, mut stretches) = (Vec::new(), Vec::new());
    let mut digest = Digest::new();
    let start = Instant::now();
    let mut i = 0;
    while i < PREFIX || start.elapsed() < args.seconds {
        let fresh;
        let inst = match pool.get(i) {
            Some(inst) => inst,
            None => {
                fresh = request(&shapes, args.seed, i);
                &fresh
            }
        };
        reset_peak_rss();
        let (dt, out) = timed_request(&scheduler, inst);
        rss_mb.push(peak_rss_mb());
        lat_ms.push(dt * 1e3);
        busy += dt;
        jobs += inst.num_jobs();
        report.attempted += 1;
        match out {
            Ok((result, ok)) => {
                let q = check_plan(&mut report, &format!("request {i}"), inst, &result, ok);
                if i < PREFIX {
                    ratios.push(q.ratio);
                    stretches.push(q.stretch);
                    digest.update(result.schedule.to_json().as_bytes());
                }
            }
            Err(e) => {
                report.failed += 1;
                report.note(format!("request {i} failed: {e}"));
                if i < PREFIX {
                    digest.update(format!("error: {e}").as_bytes());
                }
            }
        }
        i += 1;
    }
    report.note(format!(
        "  requests {} (p90 has {} samples beyond it), digest {} over the first {PREFIX}",
        lat_ms.len(),
        beyond(&lat_ms, 0.9),
        digest.hex()
    ));
    let values: BTreeMap<&str, f64> = [
        ("setup_s", setup_s),
        ("throughput_jobs_per_s", jobs as f64 / busy),
        ("latency_ms_p50", median(&lat_ms)),
        ("latency_ms_tail", quantile(&lat_ms, 0.9)),
        ("makespan_ratio", mean(&ratios)),
        ("mean_stretch", mean(&stretches)),
        ("peak_rss_mb", median(&rss_mb)),
    ]
    .into_iter()
    .collect();
    report.emit(END_TO_END, &values, None);
    report
}

/// What the staged replay of one request produced.
struct Staged {
    result: ScheduleResult,
    validator_ok: bool,
    points: usize,
    candidates: f64,
    lp_size: Option<(usize, usize)>,
}

/// Replays one request stage by stage through the public calls
/// `MrlsScheduler::schedule` makes, with a span around each, followed by
/// `validate_schedule`.
fn staged(tr: &mut Tracer, req: u64, inst: &Instance, cfg: &MrlsConfig) -> Result<Staged, String> {
    let root = tr.begin("request", req);
    let out = staged_inner(tr, req, inst, cfg);
    tr.end(root);
    out.map_err(|e| e.to_string())
}

fn staged_inner(
    tr: &mut Tracer,
    req: u64,
    inst: &Instance,
    cfg: &MrlsConfig,
) -> Result<Staged, Box<dyn std::error::Error>> {
    let d = inst.num_resource_types();
    let rho = theory::general_params(d).1;
    let profiles = tr.span("model.profiles", req, || inst.profiles())?;
    let class = tr.span("dag.classify", req, || inst.graph_class());

    let (initial, allocator, mu, certified, guarantee, lp_size) = match class {
        GraphClass::General => {
            let mu = theory::general_params(d).0;
            let alloc = LpRoundingAllocator::new(rho)?;
            let frac = tr.span("alloc.lp", req, || {
                LpRoundingAllocator::solve_relaxation(inst, &profiles)
            })?;
            let decision = tr.span("alloc.round", req, || alloc.round(&profiles, &frac));
            let n = inst.num_jobs();
            let vars = profiles.iter().map(|p| p.len()).sum::<usize>() + n + 1;
            let rows = n
                + (0..n)
                    .map(|j| inst.dag.predecessors(j).len().max(1))
                    .sum::<usize>()
                + n
                + 1;
            let g = theory::general_ratio(d);
            (
                decision,
                "lp-rounding",
                mu,
                Some(frac.objective),
                g,
                Some((vars, rows)),
            )
        }
        GraphClass::Independent => {
            let mu = theory::independent_mu_star(d);
            let (decision, lmin) = tr.span("alloc.independent", req, || {
                IndependentOptimalAllocator::solve(inst, &profiles)
            })?;
            let g = theory::independent_ratio(d);
            (decision, "independent-optimal", mu, Some(lmin), g, None)
        }
        GraphClass::Chain
        | GraphClass::OutTree
        | GraphClass::InTree
        | GraphClass::SeriesParallel => {
            let mu = if d >= 4 {
                theory::theorem4_mu_star(d)
            } else {
                theory::mu_a()
            };
            let alloc = SpFptasAllocator::new(cfg.epsilon)?;
            let eps = alloc.effective_epsilon();
            let (decision, lb) = tr.span("alloc.sp_fptas", req, || {
                alloc.solve(inst, &profiles).map(|(decision, _)| {
                    let lb = inst.lower_bound_of(&decision).map(|l| l / (1.0 + eps)).ok();
                    (decision, lb)
                })
            })?;
            let g = theory::sp_ratio(d, eps);
            (decision, "sp-fptas", mu, lb, g, None)
        }
    };

    let (decision, adjusted) = if cfg.apply_adjustment && !initial.is_empty() {
        let out = tr.span("alloc.adjust", req, || {
            adjust_allocation(inst, &initial, mu)
        })?;
        (out.decision, out.adjusted)
    } else {
        (initial.clone(), vec![false; initial.len()])
    };
    let schedule: Schedule = tr.span("list.at_event", req, || {
        ListScheduler::new(cfg.priority.clone()).schedule(inst, &decision)
    })?;
    let mut lower_bounds = tr.span("bounds.lower_bound", req, || {
        combinatorial_lower_bound(inst, &profiles)
    });
    if let Some(lb) = certified {
        lower_bounds.lp_bound = Some(lb);
        lower_bounds.best = lower_bounds.best.max(lb);
    }
    let validator_ok = tr.span("analysis.validate", req, || {
        validate_schedule(inst, &schedule).is_valid()
    });

    let candidates = inst
        .jobs
        .iter()
        .map(|j| j.space.size(&inst.system) as f64)
        .sum();
    Ok(Staged {
        result: ScheduleResult {
            initial_decision: initial,
            decision,
            adjusted,
            schedule,
            lower_bound: lower_bounds.best,
            lower_bounds,
            params: ResolvedParams {
                graph_class: class.label().to_string(),
                allocator: allocator.to_string(),
                mu,
                rho,
                epsilon: cfg.epsilon,
                ratio_guarantee: guarantee,
            },
        },
        validator_ok,
        points: profiles.iter().map(|p| p.len()).sum(),
        candidates,
        lp_size,
    })
}

/// The traced run: every request runs untraced (the reference and the
/// overhead baseline), then staged with spans; the two must agree byte for
/// byte on the schedule JSON, the lower bound and the resolved parameters.
fn traced(kind: Kind, args: &Args, shapes: &[InstanceRecipe], pool: Vec<Instance>) -> Report {
    let mut report = Report::new();
    let cfg = MrlsConfig::default();
    let scheduler = MrlsScheduler::new(cfg.clone());
    let mut tr = Tracer::new();
    let mut untraced_ms = Vec::new();
    let (mut points, mut candidates, mut adjusted, mut events) = (0usize, 0.0f64, 0usize, 0usize);
    let (mut lp_vars, mut lp_rows) = (0usize, 0usize);
    let start = Instant::now();
    let mut i = 0;
    while i < TRACE_PREFIX || start.elapsed() < args.seconds {
        let fresh;
        let inst = match pool.get(i) {
            Some(inst) => inst,
            None => {
                fresh = request(shapes, args.seed, i);
                &fresh
            }
        };
        let what = format!("request {i}");
        report.attempted += 1;
        let (dt, reference) = timed_request(&scheduler, inst);
        untraced_ms.push(dt * 1e3);
        let stagedrun = staged(&mut tr, i as u64, inst, &cfg);
        match (reference, stagedrun) {
            (Ok((r, ok)), Ok(s)) => {
                check_plan(&mut report, &what, inst, &r, ok);
                check_plan(
                    &mut report,
                    &format!("{what} (staged)"),
                    inst,
                    &s.result,
                    s.validator_ok,
                );
                if s.result.schedule.to_json() != r.schedule.to_json()
                    || s.result.lower_bound.to_bits() != r.lower_bound.to_bits()
                    || s.result.params != r.params
                {
                    report.violation(format!(
                        "{what}: staged replay differs from MrlsScheduler::schedule"
                    ));
                }
                points += s.points;
                candidates += s.candidates;
                adjusted += s.result.adjusted.iter().filter(|&&a| a).count();
                events += s.result.schedule.event_times().len();
                if let Some((v, r)) = s.lp_size {
                    lp_vars += v;
                    lp_rows += r;
                }
            }
            (Err(a), Err(b)) if a == b => {
                report.failed += 1;
                report.note(format!("{what} failed: {a}"));
            }
            (a, b) => {
                report.failed += 1;
                report.violation(format!(
                    "{what}: staged replay and MrlsScheduler disagree on success ({} vs {})",
                    a.is_ok(),
                    b.is_ok()
                ));
            }
        }
        i += 1;
    }
    let requests = i as f64;
    let totals = tr.totals();
    let ms = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e6 / requests)
    };
    let lp_requests = totals.get("alloc.lp").map_or(0, |t| t.count) as f64;
    let per_lp = |x: usize| {
        if lp_requests > 0.0 {
            x as f64 / lp_requests
        } else {
            0.0
        }
    };
    let traced_ms = tr.durations_ms("request");
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (metric, span) in [
        ("model.profiles_ms", "model.profiles"),
        ("dag.classify_ms", "dag.classify"),
        ("alloc.lp_ms", "alloc.lp"),
        ("alloc.round_ms", "alloc.round"),
        ("alloc.sp_fptas_ms", "alloc.sp_fptas"),
        ("alloc.independent_ms", "alloc.independent"),
        ("alloc.adjust_ms", "alloc.adjust"),
        ("list.at_event_ms", "list.at_event"),
        ("bounds.lower_bound_ms", "bounds.lower_bound"),
        ("analysis.validate_ms", "analysis.validate"),
    ] {
        values.insert(metric, ms(span));
    }
    values.insert("model.profile_points", points as f64 / requests);
    values.insert("model.prune_keep_ratio", points as f64 / candidates);
    values.insert("alloc.lp_vars", per_lp(lp_vars));
    values.insert("alloc.lp_rows", per_lp(lp_rows));
    values.insert("alloc.adjusted_jobs", adjusted as f64 / requests);
    values.insert("list.events", events as f64 / requests);
    values.insert(
        "trace.overhead_ms",
        median(&traced_ms) - median(&untraced_ms),
    );

    report.note(format!(
        "  traced requests {i}; request median {:.3} ms traced, {:.3} ms untraced",
        median(&traced_ms),
        median(&untraced_ms)
    ));
    report.self_times(&tr, i as u64);
    let share = |names: &[&str]| -> f64 {
        let root = totals.get("request").map_or(0, |t| t.total_ns) as f64;
        names
            .iter()
            .map(|n| totals.get(n).map_or(0, |t| t.self_ns))
            .sum::<u64>() as f64
            / root
    };
    let (claim, ok) = match kind {
        Kind::Dag => {
            let s = share(&["alloc.lp"]);
            (
                format!("alloc.lp dominates (self-time share {:.1}%)", 100.0 * s),
                s > 0.5,
            )
        }
        Kind::Bulk => {
            let s = share(&["model.profiles", "alloc.sp_fptas", "alloc.independent"]);
            (
                format!(
                    "model.profiles + SP/independent allocators dominate (share {:.1}%) and alloc.lp is absent ({} calls)",
                    100.0 * s,
                    lp_requests
                ),
                s > 0.5 && lp_requests == 0.0,
            )
        }
    };
    report.prediction(kind.name(), &claim, ok);
    if let Err(e) = tr.write(&spans_path(kind.name())) {
        report.note(format!("  spans not written: {e}"));
    }
    report.emit(PER_LAYER, &values, Some(0.0));
    report
}
