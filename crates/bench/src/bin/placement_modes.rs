//! **Placement-mode benchmark** — `AtEvent` greedy placement against
//! `LookAhead` slot-set reservation (see `mrls_core::PlacementMode`) on a
//! capacity-churn heterogeneous mix, measured by **mean per-job stretch**
//! `(finish - release) / nominal` over an online simulation.
//!
//! The mix is built to exhibit the classic greedy-backfill pathology:
//!
//! * a handful of near-capacity **stage** jobs (3/4 of the machine for a
//!   few seconds), each gating a fan-out of narrow children — think
//!   synchronisation or reduction phases;
//! * a **background stream** of unit narrow jobs trickling in at ~55% of
//!   machine capacity for the whole horizon;
//! * two **capacity-churn** drop/recovery cycles (to 7/8 capacity, above
//!   the stage requirement) exercising the slot-set under online shifts.
//!
//! Under `AtEvent` the instantaneous free capacity hovers around 45% — the
//! stage job at the queue head never fits *now*, every event backfills more
//! background narrows, and the stages (plus every child behind them) starve
//! until the stream dries up. Under `LookAhead` the blocked stage claims a
//! reservation roughly one narrow-length out, the pass stops backfilling
//! across it, and the fan-out runs ~immediately — trading a small
//! background delay for the rescue of ~37% of all jobs.
//!
//! Runs are deterministic (no perturbation; fixed release pattern), so the
//! stretch columns are byte-stable across machines; only `wall_ms` varies.
//!
//! The binary doubles as a gate: every realized trace is checked by an
//! independent sweep (releases, precedence, and the capacity in force at
//! each start, capacity changes included), and `LookAhead` mean stretch
//! must stay below `AtEvent` at every `n`. It exits 1 otherwise.
//!
//! Arguments (`key=value`, all optional): `n=1000,5000,20000`.
//! Results go to `results/placement_modes.csv`.

use mrls_analysis::export::{fmt3, ResultTable};
use mrls_bench::emit;
use mrls_core::{ListScheduler, PlacementMode, PriorityRule};
use mrls_dag::Dag;
use mrls_model::{Allocation, ExecTimeSpec, Instance, MoldableJob, SystemConfig};
use mrls_sim::{ReactiveListPolicy, Scenario, SimConfig, Simulator};
use std::time::Instant;

const ARG_KEYS: &[&str] = &["n"];

/// Number of stage jobs — constant in `n` so stage work stays a bounded
/// fraction of the machine-time budget at every size.
const STAGES: usize = 5;

/// Strict `key=value` lookup (same contract as the `mrls` CLI): unknown
/// keys, malformed tokens and unparsable values exit with code 2.
fn args() -> Vec<usize> {
    let mut ns = vec![1000usize, 5000, 20000];
    for a in std::env::args().skip(1) {
        let Some((k, v)) = a.split_once('=') else {
            eprintln!("malformed argument `{a}` (expected key=value)");
            std::process::exit(2);
        };
        if !ARG_KEYS.contains(&k) {
            eprintln!(
                "unknown key `{k}` (expected one of: {})",
                ARG_KEYS.join(", ")
            );
            std::process::exit(2);
        }
        ns = v
            .split(',')
            .map(|w| w.parse().unwrap_or_else(|_| invalid(k, v)))
            .collect();
    }
    ns
}

fn invalid(k: &str, v: &str) -> ! {
    eprintln!("invalid value `{v}` for `{k}`");
    std::process::exit(2);
}

/// Sub-microsecond deterministic jitter so no two completions coalesce into
/// one event (same construction as `mrls_bench::event_loop`).
fn jitter(j: usize) -> f64 {
    const P: usize = 999_983;
    (j.wrapping_mul(7919) % P) as f64 * 1e-6
}

/// Instance + Phase-1 decision + per-job release times + capacity changes
/// `(time, resource, capacity)`.
type Mix = (Instance, Vec<Allocation>, Vec<f64>, Vec<(f64, usize, u64)>);

/// The capacity-churn heterogeneous mix.
fn mix(n: usize) -> Mix {
    let cap = ((n / 16).max(8)) as u64;
    let system = SystemConfig::new(vec![cap, cap]).expect("capacities >= 1");
    let stage_alloc = Allocation::new(vec![cap - cap / 4, cap - cap / 4]);
    let narrow_alloc = Allocation::new(vec![1, 1]);

    // Layout: STAGES groups of (1 stage + `children` narrows that depend on
    // it), then the independent background stream. Sized well below
    // saturation (~70% of machine-time over the horizon): a saturated mix
    // would drown the placement signal in pure queueing that no policy can
    // avoid, and the reservation's transient backlog must drain between
    // consecutive stages.
    let children = n / 20;
    let group = 1 + children;
    let structured = STAGES * group;
    assert!(structured < n, "n too small for {STAGES} stage groups");
    let background = n - structured;

    // Background admission rate: ~35% of per-type capacity per second, so
    // the greedy free headroom hovers around 65% — below the stage
    // requirement of 75% — for the whole horizon.
    let rate = 0.35 * cap as f64;
    let horizon = background as f64 / rate;

    let mut jobs = Vec::with_capacity(n);
    let mut decision = Vec::with_capacity(n);
    let mut releases = vec![0.0f64; n];
    let mut edges = Vec::with_capacity(STAGES * children);
    for g in 0..STAGES {
        let s = g * group;
        // Stages spread over the interior of the horizon: the background
        // stream is already in steady state at the first and still flowing
        // after the last.
        let release = (g + 1) as f64 * horizon / (STAGES + 1) as f64;
        jobs.push(MoldableJob::new(
            s,
            ExecTimeSpec::Constant {
                time: 2.0 + jitter(s),
            },
        ));
        decision.push(stage_alloc.clone());
        for c in s + 1..s + group {
            // Children are short: their stretch is dominated by how long
            // the gating stage sat blocked, which is exactly the
            // placement-mode difference.
            jobs.push(MoldableJob::new(
                c,
                ExecTimeSpec::Constant {
                    time: 0.5 + jitter(c),
                },
            ));
            decision.push(narrow_alloc.clone());
            edges.push((s, c));
        }
        // The stage and its whole fan-out are released together.
        releases[s..s + group].fill(release);
    }
    for (i, j) in (structured..n).enumerate() {
        jobs.push(MoldableJob::new(
            j,
            ExecTimeSpec::Constant {
                time: 1.0 + jitter(j),
            },
        ));
        decision.push(narrow_alloc.clone());
        releases[j] = i as f64 / rate;
    }

    // Two churn cycles per run: alternating single-type drops to 7/8
    // capacity (still above the stage requirement) with full recoveries.
    let dropped = cap - cap / 8;
    let changes = vec![
        (0.20 * horizon, 0, dropped),
        (0.35 * horizon, 0, cap),
        (0.50 * horizon, 1, dropped),
        (0.65 * horizon, 1, cap),
    ];

    let dag = Dag::from_edges(n, &edges).expect("stage edges are acyclic");
    let instance = Instance::new(system, dag, jobs).expect("valid instance");
    (instance, decision, releases, changes)
}

/// Tolerance of the realized-trace check: the engine groups events within
/// `mrls_core::EPS` of each other, so a start may precede a release or a
/// finish it waited for by that much.
const TOL: f64 = 1e-6;

/// Checks a realized schedule without trusting the engine: every job ran
/// for a positive time, no earlier than its release and than each
/// predecessor's finish, and each start fit the capacity in force at its
/// instant (the capacity changes applied, finishes up to `TOL` later already
/// returned). An O(n log n) sweep; `validate_schedule_with` rescans the
/// schedule per event window, which is quadratic at these sizes. Returns
/// the violations found.
fn check_realized(
    instance: &Instance,
    trace: &mrls_core::Schedule,
    releases: &[f64],
    changes: &[(f64, usize, u64)],
) -> Vec<String> {
    let mut found = Vec::new();
    let jobs = &trace.jobs;
    for (j, sj) in jobs.iter().enumerate() {
        let ran = sj.finish > sj.start;
        if sj.job != j || !ran || sj.start + TOL < releases[j] {
            found.push(format!("job {j}: bad interval or early start {sj:?}"));
        }
    }
    for (u, v) in instance.dag.edges() {
        if jobs[v].start + TOL < jobs[u].finish {
            found.push(format!("job {v} started before predecessor {u} finished"));
        }
    }
    // Sweep keys: finishes (moved TOL earlier) before capacity changes
    // before starts at the same instant.
    let mut events: Vec<(f64, u8, usize)> = Vec::with_capacity(2 * jobs.len() + changes.len());
    for sj in jobs {
        events.push((sj.finish - TOL, 0, sj.job));
        events.push((sj.start, 2, sj.job));
    }
    for (k, c) in changes.iter().enumerate() {
        events.push((c.0, 1, k));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut capacity: Vec<i64> = instance
        .system
        .capacities()
        .iter()
        .map(|&c| c as i64)
        .collect();
    let mut used = vec![0i64; capacity.len()];
    for (t, kind, id) in events {
        match kind {
            0 => (0..used.len()).for_each(|i| used[i] -= jobs[id].alloc[i] as i64),
            1 => capacity[changes[id].1] = changes[id].2 as i64,
            _ => {
                (0..used.len()).for_each(|i| used[i] += jobs[id].alloc[i] as i64);
                if (0..used.len()).any(|i| used[i] > capacity[i]) {
                    found.push(format!(
                        "job {id} started at {t} with usage {used:?} over capacity {capacity:?}"
                    ));
                }
            }
        }
    }
    found
}

fn main() {
    let ns = args();
    let mut violations: Vec<String> = Vec::new();
    let scheduler = ListScheduler::new(PriorityRule::CriticalPath);
    let mut table = ResultTable::new(&[
        "n",
        "mode",
        "mean_stretch",
        "max_stretch",
        "makespan",
        "wall_ms",
    ]);

    for &n in &ns {
        let (instance, decision, releases, changes) = mix(n);
        let plan = scheduler
            .schedule(&instance, &decision)
            .expect("offline plan");
        let config = SimConfig {
            scenario: Scenario::offline()
                .with_release_times(releases.clone())
                .with_capacity_changes(changes.clone()),
            ..SimConfig::default()
        };
        let sim = Simulator::new(config);

        // Mean stretch per mode, indexed AtEvent = 0, LookAhead = 1.
        let mut stretch = [f64::NAN; 2];
        for mode in [PlacementMode::AtEvent, PlacementMode::LookAhead] {
            let mut policy =
                ReactiveListPolicy::new(PriorityRule::CriticalPath).with_placement(mode);
            let t = Instant::now();
            let trace = sim
                .run(&instance, &plan, &mut policy)
                .expect("run completes");
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;

            // Mean per-job stretch: (finish - release) / nominal time under
            // the allocation the job actually ran with.
            let (mut sum, mut max) = (0.0f64, 0.0f64);
            assert_eq!(trace.realized.jobs.len(), n, "all jobs must complete");
            for sj in &trace.realized.jobs {
                let nominal = instance.jobs[sj.job].spec.time(&sj.alloc);
                let stretch = (sj.finish - releases[sj.job]) / nominal;
                sum += stretch;
                max = max.max(stretch);
            }
            let mean = sum / n as f64;

            let (label, slot) = match mode {
                PlacementMode::AtEvent => ("at_event", 0),
                PlacementMode::LookAhead => ("look_ahead", 1),
            };
            violations.extend(
                check_realized(&instance, &trace.realized, &releases, &changes)
                    .into_iter()
                    .map(|v| format!("n={n} {label}: {v}")),
            );
            stretch[slot] = mean;
            println!(
                "n {n:>6}  {label:>10}  mean stretch {mean:>7.3}  max {max:>8.3}  \
                 makespan {:>8.2}  wall {wall_ms:>8.2}ms",
                trace.stats.realized_makespan
            );
            table.push_row(vec![
                n.to_string(),
                label.to_string(),
                fmt3(mean),
                fmt3(max),
                fmt3(trace.stats.realized_makespan),
                fmt3(wall_ms),
            ]);
        }
        let look_ahead_wins = stretch[1] < stretch[0];
        if !look_ahead_wins {
            violations.push(format!(
                "n={n}: LookAhead mean stretch {:.3} is not below AtEvent's {:.3}",
                stretch[1], stretch[0]
            ));
        }
    }

    emit("placement_modes", &table);
    if !violations.is_empty() {
        for v in violations.iter().take(20) {
            eprintln!("FAIL {v}");
        }
        eprintln!("{} violation(s)", violations.len());
        std::process::exit(1);
    }
}
