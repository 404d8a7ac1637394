//! `serve-mix`: one in-process `ServiceCore` with a buffered write-ahead
//! log, driven as a closed loop by one caller.
//!
//! Each round two stream tenants submit single jobs (one chains each job to
//! its previous one), a workflow tenant periodically submits a small DAG (an
//! SP fork-join, now and then a 10-task tiled Cholesky), status and
//! flight-recorder reads interleave with the writes, and capacity drops and
//! recovers periodically. Every request and reply passes through
//! `encode_line` / `parse_request`; the caller flushes one round explicitly
//! after each step and drains at the end. A session runs one seeded script
//! against a fresh core and log directory; each session of a run plays its
//! own script, and sessions repeat until the run's time is up.

use crate::check::check_schedule;
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::stats::{derive_seed, mean, median, peak_rss_mb, quantile, secs, Digest};
use crate::tracer::{spans_path, Tracer};
use crate::Args;
use mrls_core::bounds::combinatorial_lower_bound;
use mrls_dag::Dag;
use mrls_model::{Instance, MoldableJob, SystemConfig};
use mrls_serve::{
    encode_line, parse_request, DrainReport, DurabilityMode, Request, RequestBody, Response,
    ResponseBody, ServeConfig, ServiceCore,
};
use mrls_sim::TraceEvent;
use mrls_workload::dag_gen::TaskKind;
use mrls_workload::{DagRecipe, InstanceRecipe, JobRecipe, SystemRecipe};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Flush rounds per session.
const ROUNDS: usize = 300;
/// Sessions every untraced run completes (2400 rounds, so more than ten
/// pooled rounds lie beyond p99); the digest and the virtual-time metrics
/// cover exactly these.
const MIN_SESSIONS: usize = 8;
/// Machine: `D` resource types of `P` units each.
const D: usize = 2;
const P: u64 = 8;
/// Virtual time per round.
const TICK: f64 = 50.0;
/// A workflow DAG every this many rounds; every `CHOLESKY_EVERY`-th round a
/// Cholesky instead of a fork-join.
const WORKFLOW_EVERY: usize = 10;
const CHOLESKY_EVERY: usize = 50;
/// Reads: a status query every `STATUS_EVERY` rounds, a flight-recorder
/// query every `FLIGHT_EVERY` rounds.
const STATUS_EVERY: usize = 4;
const FLIGHT_EVERY: usize = 16;
/// Capacity churn: type `(r / CHURN_EVERY) % D` drops to `CHURN_LOW` at
/// round offset `CHURN_EVERY / 2` and recovers `CHURN_EVERY / 4` rounds later.
const CHURN_EVERY: usize = 200;
const CHURN_LOW: u64 = 6;
/// Sessions every traced run completes after its untraced reference.
const TRACE_SESSIONS: usize = 2;

/// One scripted step of the caller.
enum Step {
    /// A single job; `chain` makes it depend on the tenant's previous job.
    Job {
        tenant: &'static str,
        job: MoldableJob,
        chain: bool,
    },
    /// A workflow DAG with its certified lower bound on the full machine.
    Dag {
        jobs: Vec<MoldableJob>,
        edges: Vec<(usize, usize)>,
        lower_bound: f64,
    },
    Capacity {
        resource: usize,
        capacity: u64,
    },
    Status,
    Flight,
    Flush,
}

/// The whole closed-loop script of one session.
fn script(seed: u64) -> Vec<Step> {
    let mut rng = mrls_workload::rng_from_seed(seed);
    let recipe = JobRecipe::default_mixed();
    let single = |rng: &mut _| {
        recipe
            .draw_jobs(D, &[TaskKind::Generic], rng)
            .pop()
            .expect("one job drawn")
    };
    let mut steps = Vec::new();
    for r in 0..ROUNDS {
        steps.push(Step::Job {
            tenant: "stream-a",
            job: single(&mut rng),
            chain: false,
        });
        steps.push(Step::Job {
            tenant: "stream-b",
            job: single(&mut rng),
            chain: true,
        });
        if r % WORKFLOW_EVERY == WORKFLOW_EVERY / 2 {
            let dag = if r % CHOLESKY_EVERY == CHOLESKY_EVERY / 2 {
                DagRecipe::Cholesky { tiles: 3 }
            } else {
                DagRecipe::ForkJoin {
                    width: 3,
                    stages: 1,
                }
            };
            let inst = InstanceRecipe {
                system: SystemRecipe::Uniform { d: D, p: P },
                dag,
                jobs: recipe.clone(),
            }
            .generate(derive_seed(seed, r as u64))
            .instance;
            let profiles = inst.profiles().expect("generated jobs have profiles");
            steps.push(Step::Dag {
                lower_bound: combinatorial_lower_bound(&inst, &profiles).best,
                edges: inst.dag.edges().collect(),
                jobs: inst.jobs,
            });
        }
        if r % STATUS_EVERY == 0 {
            steps.push(Step::Status);
        }
        if r % FLIGHT_EVERY == FLIGHT_EVERY / 2 {
            steps.push(Step::Flight);
        }
        let churn = r % CHURN_EVERY;
        let resource = (r / CHURN_EVERY) % D;
        if churn == CHURN_EVERY / 2 {
            steps.push(Step::Capacity {
                resource,
                capacity: CHURN_LOW,
            });
        } else if churn == CHURN_EVERY / 2 + CHURN_EVERY / 4 {
            steps.push(Step::Capacity {
                resource,
                capacity: P,
            });
        }
        steps.push(Step::Flush);
    }
    steps
}

/// Optional span recording: the untraced path passes `None`.
struct Spans<'a>(Option<&'a mut Tracer>);

impl Spans<'_> {
    fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        match self.0.as_deref_mut() {
            Some(tr) => tr.span(name, req, f),
            None => f(),
        }
    }

    fn begin(&mut self, name: &'static str, req: u64) -> Option<usize> {
        self.0.as_deref_mut().map(|tr| tr.begin(name, req))
    }

    fn end(&mut self, id: Option<usize>) {
        if let (Some(tr), Some(id)) = (self.0.as_deref_mut(), id) {
            tr.end(id);
        }
    }
}

/// Serves one parsed request the way the TCP front end does.
fn dispatch(core: &mut ServiceCore, req: Request) -> ResponseBody {
    let tenant = req.tenant;
    match req.body {
        RequestBody::SubmitJob { job, deps } => match core.submit_job(&tenant, job, &deps) {
            Ok(id) => ResponseBody::Accepted { jobs: vec![id] },
            Err(reason) => ResponseBody::Rejected { reason },
        },
        RequestBody::SubmitDag { jobs, edges } => match core.submit_dag(&tenant, jobs, &edges) {
            Ok(jobs) => ResponseBody::Accepted { jobs },
            Err(reason) => ResponseBody::Rejected { reason },
        },
        RequestBody::CapacityChange { resource, capacity } => {
            match core.submit_capacity(resource, capacity) {
                Ok(()) => ResponseBody::Accepted { jobs: vec![] },
                Err(reason) => ResponseBody::Rejected { reason },
            }
        }
        RequestBody::QueryStatus => ResponseBody::Status {
            metrics: core.status(),
        },
        RequestBody::QueryFlightRecorder => ResponseBody::FlightRecorder {
            rounds: core.flight_records(),
            total_rounds: core.flight_total_rounds(),
        },
        RequestBody::Drain => match core.drain() {
            Ok(report) => ResponseBody::Drained { report },
            Err(message) => ResponseBody::Error { message },
        },
        _ => ResponseBody::Error {
            message: "not part of the serve-mix script".to_string(),
        },
    }
}

/// One request through the protocol: encode, parse, serve, encode the reply.
/// `kind` names the span around the service call.
fn call(
    core: &mut ServiceCore,
    spans: &mut Spans<'_>,
    id: u64,
    tenant: &str,
    body: RequestBody,
    kind: &'static str,
) -> ResponseBody {
    let root = spans.begin("serve.request", id);
    let request = Request {
        id,
        tenant: tenant.to_string(),
        token: None,
        body,
    };
    let line = spans.span("serve.encode", id, || encode_line(&request));
    let body = match spans.span("serve.parse", id, || parse_request(&line)) {
        Ok(parsed) => spans.span(kind, id, || dispatch(core, parsed)),
        Err(message) => ResponseBody::Error { message },
    };
    let response = Response { id, body };
    spans.span("serve.reply", id, || encode_line(&response));
    spans.end(root);
    response.body
}

/// What one session produced.
struct Session {
    setup_s: f64,
    timed_s: f64,
    flush_ms: Vec<f64>,
    checkpoint_round: Vec<bool>,
    backlog_max: u64,
    jobs_done: u64,
    digest: String,
    stretch: f64,
    makespan_ratio: f64,
    wal_bytes: u64,
    checkpoints: u64,
    kept_ratio: f64,
    /// Phase → nanoseconds over the flush rounds (timing on only).
    phases: BTreeMap<String, u64>,
}

/// The session's log directory, inside the checkout the benchmark was
/// built in.
fn wal_dir(session: usize) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("wal-{}-{session}", std::process::id()))
}

/// Runs one session: the script of `seed` against a fresh core. Returns `None` (after
/// recording why) if the service could not be set up or drained.
fn session(
    seed: u64,
    index: usize,
    spans: &mut Spans<'_>,
    timing: bool,
    report: &mut Report,
) -> Option<Session> {
    let dir = wal_dir(index);
    let out = session_in(seed, &dir, spans, timing, report);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn session_in(
    seed: u64,
    dir: &std::path::Path,
    spans: &mut Spans<'_>,
    timing: bool,
    report: &mut Report,
) -> Option<Session> {
    // Set-up: input generation, log directory creation, ServiceCore::open.
    let t = Instant::now();
    let steps = script(seed);
    let _ = std::fs::remove_dir_all(dir);
    let opened = std::fs::create_dir_all(dir)
        .map_err(|e| e.to_string())
        .and_then(|()| {
            ServiceCore::open(ServeConfig {
                capacities: vec![P; D],
                tick: TICK,
                timing,
                durability: DurabilityMode::Buffered,
                dir: Some(dir.to_path_buf()),
                ..ServeConfig::default()
            })
            .map_err(|e| e.to_string())
        });
    let setup_s = secs(t);
    let mut core = match opened {
        Ok((core, None)) => core,
        Ok((_, Some(_))) => {
            report.violation("a fresh log directory was recovered instead of created".into());
            return None;
        }
        Err(e) => {
            report.attempted += 1;
            report.failed += 1;
            report.violation(format!("ServiceCore::open failed: {e}"));
            return None;
        }
    };

    let mut jobs: Vec<MoldableJob> = Vec::new();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut round_of: Vec<usize> = Vec::new();
    let mut workflows: Vec<(std::ops::Range<usize>, f64)> = Vec::new();
    let mut last: BTreeMap<&str, u64> = BTreeMap::new();
    let mut phases: BTreeMap<String, u64> = BTreeMap::new();
    let mut flush_ms = Vec::with_capacity(ROUNDS);
    let mut checkpoint_round = Vec::with_capacity(ROUNDS);
    let (mut backlog_max, mut checkpoints) = (0u64, 0u64);
    let mut id = 0u64;
    let absorb = |phases: &mut BTreeMap<String, u64>, body: &ResponseBody| {
        if let ResponseBody::Status { metrics } = body {
            for t in &metrics.timings {
                *phases.entry(t.phase.clone()).or_default() += t.nanos;
            }
        }
    };

    let start = Instant::now();
    for step in &steps {
        id += 1;
        report.attempted += 1;
        let round = flush_ms.len();
        let accepted = |body: &ResponseBody| match body {
            ResponseBody::Accepted { jobs } => Some(jobs.clone()),
            _ => None,
        };
        match step {
            Step::Job { tenant, job, chain } => {
                let deps: Vec<u64> = match (chain, last.get(tenant)) {
                    (true, Some(&prev)) => vec![prev],
                    _ => Vec::new(),
                };
                let body = RequestBody::SubmitJob {
                    job: job.clone(),
                    deps: deps.clone(),
                };
                match accepted(&call(&mut core, spans, id, tenant, body, "serve.submit")) {
                    Some(ids) => {
                        let gid = jobs.len();
                        if ids != [gid as u64] {
                            report.violation(format!("job got ids {ids:?}, expected [{gid}]"));
                        }
                        edges.extend(deps.iter().map(|&d| (d as usize, gid)));
                        jobs.push(job.clone());
                        round_of.push(round);
                        last.insert(tenant, gid as u64);
                    }
                    None => report.failed += 1,
                }
            }
            Step::Dag {
                jobs: dag_jobs,
                edges: dag_edges,
                lower_bound,
            } => {
                let body = RequestBody::SubmitDag {
                    jobs: dag_jobs.clone(),
                    edges: dag_edges.clone(),
                };
                match accepted(&call(
                    &mut core,
                    spans,
                    id,
                    "workflow",
                    body,
                    "serve.submit",
                )) {
                    Some(ids) => {
                        let base = jobs.len();
                        let want: Vec<u64> =
                            (base..base + dag_jobs.len()).map(|j| j as u64).collect();
                        if ids != want {
                            report.violation(format!("DAG got ids {ids:?}, expected {want:?}"));
                        }
                        edges.extend(dag_edges.iter().map(|&(a, b)| (base + a, base + b)));
                        jobs.extend(dag_jobs.iter().cloned());
                        round_of.extend(std::iter::repeat_n(round, dag_jobs.len()));
                        workflows.push((base..base + dag_jobs.len(), *lower_bound));
                    }
                    None => report.failed += 1,
                }
            }
            Step::Capacity { resource, capacity } => {
                let body = RequestBody::CapacityChange {
                    resource: *resource,
                    capacity: *capacity,
                };
                if accepted(&call(
                    &mut core,
                    spans,
                    id,
                    "operator",
                    body,
                    "serve.capacity",
                ))
                .is_none()
                {
                    report.failed += 1;
                }
            }
            Step::Status | Step::Flight => {
                let body = match step {
                    Step::Status => RequestBody::QueryStatus,
                    _ => RequestBody::QueryFlightRecorder,
                };
                let reply = call(&mut core, spans, id, "observer", body, "serve.read");
                absorb(&mut phases, &reply);
                if matches!(reply, ResponseBody::Error { .. }) {
                    report.failed += 1;
                }
            }
            Step::Flush => {
                let t = Instant::now();
                let out = spans.span("serve.flush", id, || core.flush());
                flush_ms.push(secs(t) * 1e3);
                if let Err(e) = out {
                    report.failed += 1;
                    report.violation(format!("flush of round {round} failed: {e}"));
                    return None;
                }
                // Bookkeeping outside the timed flush.
                let written = core.durability_status().checkpoints_written;
                checkpoint_round.push(written > checkpoints);
                checkpoints = written;
                if let Some(rec) = core.flight_records().last() {
                    backlog_max = backlog_max.max(rec.pending_after);
                }
            }
        }
    }
    // A last status read collects the flush rounds' phase timings, then the
    // drain runs every admitted job to completion.
    id += 1;
    report.attempted += 1;
    let reply = call(
        &mut core,
        spans,
        id,
        "observer",
        RequestBody::QueryStatus,
        "serve.read",
    );
    absorb(&mut phases, &reply);
    id += 1;
    report.attempted += 1;
    let reply = call(
        &mut core,
        spans,
        id,
        "observer",
        RequestBody::Drain,
        "serve.drain",
    );
    let timed_s = secs(start);

    let drained: DrainReport = match reply {
        ResponseBody::Drained { report } => report,
        other => {
            report.failed += 1;
            report.violation(format!("drain failed: {other:?}"));
            return None;
        }
    };
    if drained.completed != drained.submitted || drained.submitted != jobs.len() as u64 {
        report.failed += 1;
        report.note(format!(
            "drain completed {} of {} submitted ({} accepted by the caller)",
            drained.completed,
            drained.submitted,
            jobs.len()
        ));
    }
    if !drained.feasible {
        report.violation("the drain report marks the realized schedule infeasible".into());
    }
    let n = jobs.len();
    let instance = Dag::from_edges(n, &edges)
        .map_err(|e| e.to_string())
        .and_then(|dag| {
            Instance::new(SystemConfig::new(vec![P; D]).expect("P >= 1"), dag, jobs)
                .map_err(|e| e.to_string())
        });
    let instance = match instance {
        Ok(inst) => inst,
        Err(e) => {
            report.violation(format!("submitted world does not form an instance: {e}"));
            return None;
        }
    };
    // Every job is released at its round's stamp, which is at least
    // `round × tick`.
    let earliest: Vec<f64> = round_of.iter().map(|&r| r as f64 * TICK).collect();
    report.violations(
        "drain trace",
        check_schedule(&instance, &drained.trace.realized, true, Some(&earliest)),
    );

    let mut release = vec![0.0f64; n];
    for ev in &drained.trace.events {
        if let TraceEvent::JobReleased { time, job } = ev {
            if *job < n {
                release[*job] = *time;
            }
        }
    }
    let mut finish = vec![f64::NAN; n];
    let mut stretches = Vec::with_capacity(n);
    for sj in &drained.trace.realized.jobs {
        if sj.job < n {
            finish[sj.job] = sj.finish;
            let nominal = instance.jobs[sj.job].spec.time(&sj.alloc);
            stretches.push((sj.finish - release[sj.job]) / nominal);
        }
    }
    let ratios: Vec<f64> = workflows
        .iter()
        .map(|(range, lb)| {
            let end = range
                .clone()
                .map(|j| finish[j])
                .fold(f64::NEG_INFINITY, f64::max);
            (end - release[range.start]) / lb
        })
        .collect();

    let mut projection = drained.metrics.clone();
    projection.timings.clear();
    let mut digest = Digest::new();
    digest.update(drained.trace.to_json().as_bytes());
    digest.update(encode_line(&projection).as_bytes());

    let durability = core.durability_status();
    let stats = core.round_state_stats();
    let replanned = stats.plan_entries_unchanged + stats.plan_updates_applied;
    Some(Session {
        setup_s,
        timed_s,
        flush_ms,
        checkpoint_round,
        backlog_max,
        jobs_done: drained.completed,
        digest: digest.hex(),
        stretch: mean(&stretches),
        makespan_ratio: mean(&ratios),
        wal_bytes: durability.wal_bytes,
        checkpoints: durability.checkpoints_written,
        kept_ratio: stats.plan_entries_unchanged as f64 / replanned.max(1) as f64,
        phases,
    })
}

/// Last-decile over first-decile median round time, pooled over sessions.
fn round_growth(sessions: &[Session]) -> f64 {
    let (mut first, mut last) = (Vec::new(), Vec::new());
    for s in sessions {
        let k = s.flush_ms.len() / 10;
        first.extend_from_slice(&s.flush_ms[..k]);
        last.extend_from_slice(&s.flush_ms[s.flush_ms.len() - k..]);
    }
    median(&last) / median(&first)
}

/// The script seed of session `k`: each session of a run plays its own
/// script, so a run averages over many job mixes.
fn script_seed(seed: u64, k: usize) -> u64 {
    derive_seed(seed, k as u64)
}

pub fn run(args: &Args) -> Report {
    if args.trace {
        return traced(args);
    }
    let mut report = Report::new();
    let mut sessions: Vec<Session> = Vec::new();
    let start = Instant::now();
    while sessions.len() < MIN_SESSIONS || start.elapsed() < args.seconds {
        let k = sessions.len();
        let seed = script_seed(args.seed, k);
        match session(seed, k, &mut Spans(None), false, &mut report) {
            Some(s) => sessions.push(s),
            None => return report,
        }
    }
    let rounds: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.flush_ms.iter().copied())
        .collect();
    // Virtual-time results and the digest cover the sessions every run
    // completes.
    let fixed = &sessions[..MIN_SESSIONS];
    let mut digest = Digest::new();
    for s in fixed {
        digest.update(s.digest.as_bytes());
    }
    let backlog_max = fixed.iter().map(|s| s.backlog_max).max().unwrap_or(0);
    let (p50, p99) = (median(&rounds), quantile(&rounds, 0.99));
    report.note(format!(
        "  sessions {}, rounds {} ({ROUNDS} per session; p99 has {} samples beyond it), \
         digest {} over the first {MIN_SESSIONS} sessions",
        sessions.len(),
        rounds.len(),
        crate::stats::beyond(&rounds, 0.99),
        digest.hex()
    ));
    report.note(format!(
        "  serve.backlog_max {backlog_max}  serve.round_growth {:.4}  \
         round_ms_p50 {p50:.4}  round_ms_p99 {p99:.4}",
        round_growth(&sessions),
    ));
    let jobs: u64 = sessions.iter().map(|s| s.jobs_done).sum();
    let timed: f64 = sessions.iter().map(|s| s.timed_s).sum();
    let setups: Vec<f64> = sessions.iter().map(|s| s.setup_s).collect();
    let values: BTreeMap<&str, f64> = [
        ("setup_s", median(&setups)),
        ("throughput_jobs_per_s", jobs as f64 / timed),
        ("latency_ms_p50", p50),
        ("latency_ms_tail", p99),
        (
            "makespan_ratio",
            mean(&fixed.iter().map(|s| s.makespan_ratio).collect::<Vec<_>>()),
        ),
        (
            "mean_stretch",
            mean(&fixed.iter().map(|s| s.stretch).collect::<Vec<_>>()),
        ),
        ("peak_rss_mb", peak_rss_mb()),
    ]
    .into_iter()
    .collect();
    report.emit(END_TO_END, &values, None);
    report
}

/// The traced run: one untraced session (the overhead reference), then
/// sessions with `ServeConfig::timing` on and spans around every protocol
/// call, submit, read, flush and drain.
fn traced(args: &Args) -> Report {
    let mut report = Report::new();
    let start = Instant::now();
    let Some(reference) = session(
        script_seed(args.seed, 0),
        0,
        &mut Spans(None),
        false,
        &mut report,
    ) else {
        return report;
    };
    let mut tr = Tracer::new();
    let mut traced: Vec<Session> = Vec::new();
    while traced.len() < TRACE_SESSIONS || start.elapsed() < args.seconds {
        let k = traced.len();
        let seed = script_seed(args.seed, k);
        match session(seed, k + 1, &mut Spans(Some(&mut tr)), true, &mut report) {
            Some(s) => traced.push(s),
            None => return report,
        }
    }
    // The first traced session replays the reference session's script.
    if traced[0].digest != reference.digest {
        report.violation(format!(
            "traced session digest {} differs from the untraced one {}",
            traced[0].digest, reference.digest
        ));
    }

    let us = |name: &str| -> Vec<f64> { tr.durations_ms(name).iter().map(|ms| ms * 1e3).collect() };
    let requests = tr.durations_ms("serve.request").len().max(1) as f64;
    let protocol_us: f64 = ["serve.encode", "serve.parse", "serve.reply"]
        .iter()
        .map(|n| us(n).iter().sum::<f64>())
        .sum::<f64>()
        / requests;
    let flushes: usize = traced.iter().map(|s| s.flush_ms.len()).sum();
    let mut phase_ms: BTreeMap<String, f64> = BTreeMap::new();
    for s in &traced {
        for (phase, nanos) in &s.phases {
            *phase_ms.entry(phase.clone()).or_default() += *nanos as f64 / 1e6 / flushes as f64;
        }
    }
    let round_ms = |ck: bool| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|s| {
                s.flush_ms
                    .iter()
                    .zip(&s.checkpoint_round)
                    .filter(move |(_, &c)| c == ck)
                    .map(|(&ms, _)| ms)
            })
            .collect()
    };
    let flush_spans = tr.durations_ms("serve.flush");
    let first = &traced[0];
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    values.insert("serve.protocol_us", protocol_us);
    values.insert("serve.submit_us_p50", median(&us("serve.submit")));
    values.insert("serve.read_us_p50", median(&us("serve.read")));
    for (metric, phase) in [
        ("serve.round.plan_ms", "plan"),
        ("serve.round.diff_ms", "diff"),
        ("serve.round.policy_ms", "policy"),
        ("serve.round.drive_ms", "drive"),
        ("serve.round.harvest_ms", "harvest"),
    ] {
        values.insert(metric, phase_ms.get(phase).copied().unwrap_or(0.0));
    }
    values.insert("serve.checkpoint_round_ms_p50", median(&round_ms(true)));
    values.insert("serve.plain_round_ms_p50", median(&round_ms(false)));
    values.insert(
        "serve.wal_bytes_per_round",
        first.wal_bytes as f64 / (first.flush_ms.len() + 1) as f64,
    );
    values.insert("serve.checkpoints", first.checkpoints as f64);
    values.insert("serve.replan_kept_ratio", first.kept_ratio);
    values.insert("serve.backlog_max", first.backlog_max as f64);
    values.insert("serve.round_growth", round_growth(&traced));
    values.insert("serve.drain_ms", median(&tr.durations_ms("serve.drain")));
    // Same script, with and without timing and spans.
    let (traced_p50, untraced_p50) = (median(&first.flush_ms), median(&reference.flush_ms));
    values.insert("trace.overhead_ms", traced_p50 - untraced_p50);

    report.note(format!(
        "  traced sessions {} after one untraced reference; round median of the same \
         script {traced_p50:.4} ms traced, {untraced_p50:.4} ms untraced",
        traced.len(),
    ));
    report.self_times(&tr, tr.durations_ms("serve.request").len() as u64);
    let phase_sum: f64 = ["plan", "diff", "policy", "drive", "harvest"]
        .iter()
        .map(|p| phase_ms.get(*p).copied().unwrap_or(0.0))
        .sum();
    let round_mean = mean(&flush_spans);
    let coverage = phase_sum / round_mean;
    for (phase, ms) in &phase_ms {
        report.note(format!("  round phase {phase:<10} {ms:.4} ms/round"));
    }
    let (plain, ck) = (round_ms(false), round_ms(true));
    report.note(format!(
        "  plain rounds {} (mean {:.4} ms, phases cover {:.1}%), checkpoint rounds {} \
         (mean {:.4} ms); the checkpoint write runs inside flush, outside the five phases",
        plain.len(),
        mean(&plain),
        100.0 * phase_sum / mean(&plain),
        ck.len(),
        mean(&ck)
    ));
    report.prediction(
        "serve-mix",
        &format!(
            "round phases sum to the round time ({phase_sum:.4} of {round_mean:.4} ms per round, {:.1}%)",
            100.0 * coverage
        ),
        (0.9..=1.0 + 1e-9).contains(&coverage),
    );
    if let Err(e) = tr.write(&spans_path("serve-mix")) {
        report.note(format!("  spans not written: {e}"));
    }
    report.emit(PER_LAYER, &values, Some(0.0));
    report
}
