//! `online-churn`: the capacity-churn mix of the `placement_modes` binary,
//! simulated online with `ReactiveListPolicy` in `PlacementMode::LookAhead`.
//!
//! A request is one `Simulator::run` over a fresh seeded mix: near-capacity
//! stage jobs gating fan-outs of narrow children, a background stream of
//! narrow jobs at about 55% of capacity, and two capacity drop/recovery
//! cycles. The offline plan handed to the simulator is part of the input
//! and is computed while generating it.

use crate::check::check_schedule;
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::stats::{beyond, derive_seed, mean, median, peak_rss_mb, quantile, secs, Digest};
use crate::tracer::{spans_path, Tracer};
use crate::Args;
use mrls_analysis::{validate_schedule_with, ValidationOptions};
use mrls_core::{ListScheduler, PlacementMode, PriorityRule, Schedule};
use mrls_dag::Dag;
use mrls_model::{Allocation, ExecTimeSpec, Instance, MoldableJob, SystemConfig};
use mrls_sim::{
    Policy, ReactiveListPolicy, RealizedTrace, Scenario, SimConfig, Simulator, StaticPolicy,
};
use rand::Rng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Jobs per simulated mix.
const JOBS: usize = 1000;
/// Stage jobs per mix.
const STAGES: usize = 5;
/// Requests every untraced run completes; digest and virtual-time metrics
/// cover exactly these.
const PREFIX: usize = 110;
/// Requests every traced run completes.
const TRACE_PREFIX: usize = 10;
/// Inputs generated by each set-up repetition.
const SETUP_INPUTS: usize = 10;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 31;

/// One simulation input.
struct Mix {
    instance: Instance,
    plan: Schedule,
    releases: Vec<f64>,
    changes: Vec<(f64, usize, u64)>,
}

/// The capacity-churn mix for request seed `seed`: the structure of the
/// `placement_modes` binary with seeded durations, arrival gaps and churn
/// times.
fn mix(seed: u64) -> Mix {
    let mut rng = mrls_workload::rng_from_seed(seed);
    let n = JOBS;
    let cap = (n / 16).max(8) as u64;
    let system = SystemConfig::new(vec![cap, cap]).expect("capacities >= 1");
    let stage_alloc = Allocation::new(vec![cap - cap / 4, cap - cap / 4]);
    let narrow_alloc = Allocation::new(vec![1, 1]);
    let children = n / 20;
    let group = 1 + children;
    let structured = STAGES * group;
    let background = n - structured;
    // Background admission at ~35% of per-type capacity per second, with
    // unit-mean durations: the greedy free headroom stays below the stage
    // requirement for the whole horizon.
    let rate = 0.35 * cap as f64;
    let horizon = background as f64 / rate;

    let mut jobs = Vec::with_capacity(n);
    let mut decision = Vec::with_capacity(n);
    let mut releases = vec![0.0f64; n];
    let mut edges = Vec::with_capacity(STAGES * children);
    for g in 0..STAGES {
        let s = g * group;
        let release = (g as f64 + rng.gen_range(0.8..1.2)) * horizon / (STAGES + 1) as f64;
        jobs.push(MoldableJob::new(
            s,
            ExecTimeSpec::Constant {
                time: rng.gen_range(1.8..2.2),
            },
        ));
        decision.push(stage_alloc.clone());
        for c in s + 1..s + group {
            jobs.push(MoldableJob::new(
                c,
                ExecTimeSpec::Constant {
                    time: rng.gen_range(0.4..0.6),
                },
            ));
            decision.push(narrow_alloc.clone());
            edges.push((s, c));
        }
        releases[s..s + group].fill(release);
    }
    let mut clock = 0.0;
    for (j, release) in releases.iter_mut().enumerate().skip(structured) {
        jobs.push(MoldableJob::new(
            j,
            ExecTimeSpec::Constant {
                time: rng.gen_range(0.8..1.2),
            },
        ));
        decision.push(narrow_alloc.clone());
        *release = clock;
        clock += rng.gen_range(0.5..1.5) / rate;
    }
    let dropped = cap - cap / 8;
    let mut at = |f: f64| (f + rng.gen_range(-0.03..0.03)) * horizon;
    let changes = vec![
        (at(0.20), 0, dropped),
        (at(0.35), 0, cap),
        (at(0.50), 1, dropped),
        (at(0.65), 1, cap),
    ];
    let dag = Dag::from_edges(n, &edges).expect("stage edges are acyclic");
    let instance = Instance::new(system, dag, jobs).expect("valid instance");
    let plan = ListScheduler::new(PriorityRule::CriticalPath)
        .schedule(&instance, &decision)
        .expect("offline plan of a feasible mix");
    Mix {
        instance,
        plan,
        releases,
        changes,
    }
}

fn request(seed: u64, i: usize) -> Mix {
    mix(derive_seed(seed, i as u64))
}

/// A lower bound on any schedule of the mix with its fixed allocations:
/// release plus longest path to a sink, and per-type area over capacity.
fn lower_bound(m: &Mix) -> f64 {
    let inst = &m.instance;
    let n = inst.num_jobs();
    let time = |j: usize| m.plan.jobs[j].finish - m.plan.jobs[j].start;
    let mut tail = vec![0.0f64; n];
    for j in (0..n).rev() {
        let after = inst
            .dag
            .successors(j)
            .iter()
            .map(|&s| tail[s])
            .fold(0.0, f64::max);
        tail[j] = time(j) + after;
    }
    let path = (0..n).map(|j| m.releases[j] + tail[j]).fold(0.0, f64::max);
    let area = (0..inst.num_resource_types())
        .map(|i| {
            let work: f64 = (0..n)
                .map(|j| m.plan.jobs[j].alloc[i] as f64 * time(j))
                .sum();
            work / inst.system.capacity(i) as f64
        })
        .fold(0.0, f64::max);
    path.max(area)
}

fn simulator(m: &Mix) -> Simulator {
    Simulator::new(SimConfig {
        scenario: Scenario::offline()
            .with_release_times(m.releases.clone())
            .with_capacity_changes(m.changes.clone()),
        ..SimConfig::default()
    })
}

fn look_ahead() -> ReactiveListPolicy {
    ReactiveListPolicy::new(PriorityRule::CriticalPath).with_placement(PlacementMode::LookAhead)
}

/// One timed `Simulator::run`.
fn simulate(m: &Mix, policy: &mut dyn Policy) -> (f64, Result<RealizedTrace, String>) {
    let sim = simulator(m);
    let t = Instant::now();
    let out = sim.run(&m.instance, &m.plan, policy);
    (secs(t), out.map_err(|e| e.to_string()))
}

/// Checks one realized trace; returns its mean stretch and makespan ratio.
fn check_trace(
    report: &mut Report,
    what: &str,
    m: &Mix,
    trace: &RealizedTrace,
) -> Option<(f64, f64)> {
    let inst = &m.instance;
    let report_ok = validate_schedule_with(
        inst,
        &trace.realized,
        ValidationOptions {
            check_durations: false,
        },
    )
    .is_valid();
    if !report_ok {
        report.violation(format!(
            "{what}: validate_schedule_with rejects the realized schedule"
        ));
    }
    let found = check_schedule(inst, &trace.realized, false, Some(&m.releases));
    if !found.is_empty() {
        report.violations(what, found);
        return None;
    }
    let stretch = mean(
        &trace
            .realized
            .jobs
            .iter()
            .map(|sj| {
                let nominal = inst.jobs[sj.job].spec.time(&sj.alloc);
                (sj.finish - m.releases[sj.job]) / nominal
            })
            .collect::<Vec<_>>(),
    );
    Some((stretch, trace.realized.makespan / lower_bound(m)))
}

/// Set-up: generates the first [`SETUP_INPUTS`] inputs, [`SETUP_REPEATS`]
/// times; returns the inputs and the median set-up time.
fn setup(seed: u64) -> (Vec<Mix>, f64) {
    let mut times = Vec::new();
    let mut pool = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        pool = (0..SETUP_INPUTS).map(|i| request(seed, i)).collect();
        times.push(secs(t));
    }
    (pool, median(&times))
}

pub fn run(args: &Args) -> Report {
    let (pool, setup_s) = setup(args.seed);
    let mut pool = pool.into_iter();
    if args.trace {
        return traced(args, pool);
    }
    let mut report = Report::new();
    let mut lat_ms = Vec::new();
    let (mut busy, mut jobs) = (0.0f64, 0usize);
    let (mut ratios, mut stretches) = (Vec::new(), Vec::new());
    let mut digest = Digest::new();
    let start = Instant::now();
    let mut i = 0;
    while i < PREFIX || start.elapsed() < args.seconds {
        // Inputs beyond the set-up pool are generated outside the timer.
        let m = pool.next().unwrap_or_else(|| request(args.seed, i));
        let (dt, out) = simulate(&m, &mut look_ahead());
        lat_ms.push(dt * 1e3);
        busy += dt;
        jobs += m.instance.num_jobs();
        report.attempted += 1;
        let what = format!("request {i}");
        match out {
            Ok(trace) => {
                let q = check_trace(&mut report, &what, &m, &trace);
                if i < PREFIX {
                    let (s, r) = q.unwrap_or((f64::NAN, f64::NAN));
                    stretches.push(s);
                    ratios.push(r);
                    digest.update(trace.realized.to_json().as_bytes());
                }
            }
            Err(e) => {
                report.failed += 1;
                report.note(format!("{what} failed: {e}"));
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
        ("peak_rss_mb", peak_rss_mb()),
    ]
    .into_iter()
    .collect();
    report.emit(END_TO_END, &values, None);
    report
}

/// The traced run: each input is simulated untraced with LookAhead (the
/// overhead baseline), then engine-only (`StaticPolicy`), with `AtEvent` and
/// with `LookAhead`, each inside a span.
fn traced(args: &Args, mut pool: std::vec::IntoIter<Mix>) -> Report {
    let mut report = Report::new();
    let mut tr = Tracer::new();
    let mut untraced_ms = Vec::new();
    let mut events = 0usize;
    let start = Instant::now();
    let mut i = 0;
    while i < TRACE_PREFIX || start.elapsed() < args.seconds {
        let m = pool.next().unwrap_or_else(|| request(args.seed, i));
        report.attempted += 1;
        let what = format!("request {i}");
        let (dt, reference) = simulate(&m, &mut look_ahead());
        untraced_ms.push(dt * 1e3);
        let sim = simulator(&m);
        let req = i as u64;
        let root = tr.begin("request", req);
        let runs = [
            (
                "sim.engine",
                tr.span("sim.engine", req, || {
                    sim.run(&m.instance, &m.plan, &mut StaticPolicy::new())
                }),
            ),
            (
                "sim.at_event",
                tr.span("sim.at_event", req, || {
                    let mut p = ReactiveListPolicy::new(PriorityRule::CriticalPath)
                        .with_placement(PlacementMode::AtEvent);
                    sim.run(&m.instance, &m.plan, &mut p)
                }),
            ),
            (
                "sim.look_ahead",
                tr.span("sim.look_ahead", req, || {
                    sim.run(&m.instance, &m.plan, &mut look_ahead())
                }),
            ),
        ];
        tr.end(root);
        let mut failed = reference.is_err();
        for (label, out) in &runs {
            match out {
                Ok(trace) => {
                    check_trace(&mut report, &format!("{what} {label}"), &m, trace);
                }
                Err(e) => {
                    failed = true;
                    report.note(format!("{what} {label} failed: {e}"));
                }
            }
        }
        if let (Ok(a), (_, Ok(b))) = (&reference, &runs[2]) {
            events += b.events.len();
            if a.to_json() != b.to_json() {
                report.violation(format!(
                    "{what}: traced LookAhead run differs from the untraced one"
                ));
            }
        }
        if failed {
            report.failed += 1;
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
    let engine = ms("sim.engine");
    let at_event = ms("sim.at_event") - engine;
    let look = ms("sim.look_ahead") - engine;
    let traced_ms = tr.durations_ms("sim.look_ahead");
    let values: BTreeMap<&str, f64> = [
        ("sim.engine_ms", engine),
        ("sim.at_event_ms", at_event),
        ("sim.look_ahead_ms", look),
        ("sim.events", events as f64 / requests),
        (
            "trace.overhead_ms",
            median(&traced_ms) - median(&untraced_ms),
        ),
    ]
    .into_iter()
    .collect();
    report.note(format!(
        "  traced requests {i}; LookAhead run median {:.3} ms traced, {:.3} ms untraced",
        median(&traced_ms),
        median(&untraced_ms)
    ));
    report.self_times(&tr, i as u64);
    let share = look / ms("sim.look_ahead");
    report.prediction(
        "online-churn",
        &format!(
            "sim.look_ahead dominates the LookAhead request (placement {look:.3} ms vs engine {engine:.3} ms, share {:.1}%)",
            100.0 * share
        ),
        share > 0.5,
    );
    if let Err(e) = tr.write(&spans_path("online-churn")) {
        report.note(format!("  spans not written: {e}"));
    }
    report.emit(PER_LAYER, &values, Some(0.0));
    report
}
