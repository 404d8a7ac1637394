//! The look-ahead timeline the list policies keep across decision points.
//!
//! In `PlacementMode::LookAhead`, `ReactiveListPolicy` and
//! `FullReschedulePolicy` no longer rebuild their planning timeline at every
//! pass: starts, completions, failures and capacity changes repair one
//! persistent slot set. Debug builds assert at every pass that it holds the
//! same availability as a fresh rebuild, so each run below checks that
//! invariant at every decision point of its trace. The runs cover every
//! event that repairs the timeline:
//!
//! * perturbed execution times (each start's nominal window is corrected to
//!   its realized end);
//! * completions grouped within `EPS` (the unexpired sliver is given back);
//! * seeded faults with retries and abandonment, and timed outages (a killed
//!   attempt gives back the rest of its window);
//! * capacity drops and recoveries (every slot shifts);
//! * a checkpoint/resume cycle (the resumed policy rebuilds the timeline and
//!   continues byte-identically).
//!
//! On top of the per-pass assertion, every run must validate, repeat
//! byte-identically, and show the events it was built to exercise.

use mrls_analysis::{validate_schedule_with, ValidationOptions};
use mrls_core::{MrlsConfig, MrlsScheduler, PlacementMode, PriorityRule, Schedule, ScheduledJob};
use mrls_dag::Dag;
use mrls_model::{Allocation, ExecTimeSpec, Instance, MoldableJob, SystemConfig};
use mrls_sim::{
    normalize_plan, FailCause, FailureModel, FailurePlan, FullReschedulePolicy, Outage,
    PerturbationModel, Policy, ReactiveListPolicy, RealizedTrace, RetryPolicy, RunStatus, Scenario,
    SimConfig, SimSnapshot, Simulator, TraceEvent,
};
use mrls_workload::{ArrivalRecipe, InstanceRecipe};

fn layered(n: usize, seed: u64) -> (Instance, Schedule) {
    let instance = InstanceRecipe::default_layered(n, 2, 8)
        .generate(seed)
        .instance;
    let plan = MrlsScheduler::with_defaults()
        .schedule(&instance)
        .expect("planning must succeed")
        .schedule;
    let plan = normalize_plan(&instance, &plan).unwrap();
    (instance, plan)
}

/// Builds both list policies in look-ahead mode.
fn lookahead_policies() -> [Box<dyn Policy>; 2] {
    [
        Box::new(
            ReactiveListPolicy::new(PriorityRule::CriticalPath)
                .with_placement(PlacementMode::LookAhead),
        ),
        Box::new(
            FullReschedulePolicy::new(MrlsConfig::default(), 1.5)
                .with_placement(PlacementMode::LookAhead),
        ),
    ]
}

fn noisy(seed: u64, scenario: Scenario) -> SimConfig {
    SimConfig {
        seed,
        perturbation: PerturbationModel::Multiplicative { sigma: 0.35 },
        scenario,
        max_events: None,
    }
}

/// Runs to completion with `failures` installed.
fn run(
    instance: &Instance,
    plan: &Schedule,
    config: &SimConfig,
    failures: &FailurePlan,
    policy: &mut dyn Policy,
) -> RealizedTrace {
    let sim = Simulator::new(config.clone());
    let (mut run, mut source) = sim.start(instance, plan).unwrap();
    run.set_failures(failures.clone());
    let status = run
        .drive(policy, &mut source)
        .unwrap_or_else(|e| panic!("{}: {e}", policy.label()));
    assert_eq!(status, RunStatus::Complete, "{}", policy.label());
    run.into_trace(policy.label())
}

/// Runs every look-ahead policy twice: both runs must agree byte for byte
/// and the realized schedule of the completed jobs must be feasible.
fn run_both_policies(
    instance: &Instance,
    plan: &Schedule,
    config: &SimConfig,
    failures: &FailurePlan,
) -> Vec<RealizedTrace> {
    let again = lookahead_policies();
    lookahead_policies()
        .into_iter()
        .zip(again)
        .map(|(mut policy, mut again)| {
            let label = policy.label();
            let trace = run(instance, plan, config, failures, policy.as_mut());
            let again = run(instance, plan, config, failures, again.as_mut());
            assert_eq!(
                trace.to_json(),
                again.to_json(),
                "{label}: not deterministic"
            );
            let report = validate_schedule_with(
                instance,
                &trace.realized,
                ValidationOptions {
                    check_durations: false,
                },
            );
            // Abandoned jobs never ran; the rest must be feasible.
            if trace.realized.jobs.iter().all(|sj| sj.start.is_finite()) {
                assert!(report.is_valid(), "{label}: {report:?}");
            }
            trace
        })
        .collect()
}

fn count(trace: &RealizedTrace, pred: impl Fn(&TraceEvent) -> bool) -> usize {
    trace.events.iter().filter(|e| pred(e)).count()
}

#[test]
fn perturbed_starts_are_corrected_to_their_realized_ends() {
    let (instance, plan) = layered(40, 3);
    let config = noisy(11, Scenario::offline());
    for trace in run_both_policies(&instance, &plan, &config, &FailurePlan::none()) {
        // Realized times differ from nominal ones, so almost every start's
        // nominal window was corrected.
        let moved = count(
            &trace,
            |e| matches!(e, TraceEvent::JobCompleted { nominal, realized, .. } if nominal != realized),
        );
        assert!(moved > instance.num_jobs() / 2, "only {moved} perturbed");
    }
}

#[test]
fn grouped_completions_give_back_their_unexpired_slivers() {
    // Four unit jobs end within 1e-9 of each other, so the engine completes
    // them in one batch at the first finish, t = 1.0; the other three
    // windows still reach a fraction of a nanosecond past it. A wide job
    // released at 0.5 needs the whole machine: it can start in that batch
    // only if the slivers were given back.
    let n = 7;
    let system = SystemConfig::new(vec![4, 4]).unwrap();
    let times = [1.0, 1.0 + 2e-10, 1.0 + 4e-10, 1.0 + 6e-10, 2.0, 1.5, 0.5];
    let allocs: [&[u64]; 7] = [
        &[1, 1],
        &[1, 1],
        &[1, 1],
        &[1, 1],
        &[4, 4],
        &[2, 1],
        &[1, 2],
    ];
    let jobs = (0..n)
        .map(|j| MoldableJob::new(j, ExecTimeSpec::Constant { time: times[j] }))
        .collect();
    let dag = Dag::from_edges(n, &[(0, 5), (1, 6)]).unwrap();
    let instance = Instance::new(system, dag, jobs).unwrap();
    let plan = Schedule::new(
        (0..n)
            .map(|j| ScheduledJob {
                job: j,
                start: 0.0,
                finish: times[j],
                alloc: Allocation::new(allocs[j].to_vec()),
            })
            .collect(),
    );
    let plan = normalize_plan(&instance, &plan).unwrap();
    let mut release = vec![0.0; n];
    release[4] = 0.5;
    let config = SimConfig {
        scenario: Scenario::offline().with_release_times(release),
        ..SimConfig::default()
    };
    for trace in run_both_policies(&instance, &plan, &config, &FailurePlan::none()) {
        let label = &trace.policy;
        let at_one = count(
            &trace,
            |e| matches!(e, TraceEvent::JobCompleted { time, .. } if *time == 1.0),
        );
        assert_eq!(at_one, 4, "{label}: the four completions form one batch");
        assert_eq!(trace.realized.jobs[4].start, 1.0, "{label}");
    }
}

#[test]
fn failures_retries_and_outages_give_back_killed_windows() {
    let (instance, plan) = layered(40, 5);
    let config = noisy(4, Scenario::offline());
    let horizon = plan.makespan;
    let failures = FailurePlan {
        model: FailureModel::Random { prob: 0.3 },
        outages: vec![
            Outage {
                time: 0.2 * horizon,
                resource: 0,
            },
            Outage {
                time: 0.5 * horizon,
                resource: 1,
            },
        ],
        // A tight budget: some jobs exhaust it and are abandoned, so the
        // last failure before abandonment is exercised too.
        retry: RetryPolicy {
            max_attempts: 2,
            backoff_base: 0.05,
            backoff_factor: 2.0,
        },
    };
    for trace in run_both_policies(&instance, &plan, &config, &failures) {
        let label = &trace.policy;
        let faults = count(&trace, |e| {
            matches!(
                e,
                TraceEvent::JobFailed {
                    cause: FailCause::Fault,
                    ..
                }
            )
        });
        let outages = count(&trace, |e| {
            matches!(
                e,
                TraceEvent::JobFailed {
                    cause: FailCause::Outage { .. },
                    ..
                }
            )
        });
        let retries = count(&trace, |e| matches!(e, TraceEvent::JobRetried { .. }));
        let abandoned = count(
            &trace,
            |e| matches!(e, TraceEvent::JobFailed { attempt, .. } if *attempt == 2),
        );
        assert!(faults > 0, "{label}: no fault kills");
        assert!(outages > 0, "{label}: no outage kills");
        assert!(retries > 0, "{label}: no retries");
        assert!(abandoned > 0, "{label}: no job exhausted its budget");
    }
}

#[test]
fn capacity_drops_and_recoveries_shift_the_timeline() {
    let (instance, plan) = layered(40, 7);
    let horizon = plan.makespan;
    let release = ArrivalRecipe::UniformWindow {
        horizon: 0.5 * horizon,
    }
    .release_times(instance.num_jobs(), &mut mrls_workload::rng_from_seed(2));
    let scenario = Scenario::offline()
        .with_release_times(release)
        .with_capacity_changes(vec![
            (0.15 * horizon, 0, 4),
            (0.3 * horizon, 1, 3),
            (0.45 * horizon, 0, 8),
            (0.6 * horizon, 1, 8),
            (0.7 * horizon, 0, 2),
            (0.9 * horizon, 0, 8),
        ]);
    for trace in run_both_policies(&instance, &plan, &noisy(6, scenario), &FailurePlan::none()) {
        let changes = count(&trace, |e| matches!(e, TraceEvent::CapacityChanged { .. }));
        assert_eq!(changes, 6, "{}", trace.policy);
    }
}

#[test]
fn resumed_lookahead_runs_continue_byte_identically() {
    // Pause mid-run under noise, faults, an outage and a capacity blip;
    // resume from the parsed snapshot with a fresh policy, whose timeline is
    // rebuilt from the resumed state. The continuation must equal the
    // uninterrupted run.
    let (instance, plan) = layered(30, 9);
    let horizon = plan.makespan;
    let scenario = Scenario::offline()
        .with_capacity_changes(vec![(0.3 * horizon, 0, 5), (0.7 * horizon, 0, 8)]);
    let config = noisy(13, scenario);
    let failures = FailurePlan {
        model: FailureModel::Random { prob: 0.2 },
        outages: vec![Outage {
            time: 0.6 * horizon,
            resource: 1,
        }],
        retry: RetryPolicy {
            max_attempts: 4,
            backoff_base: 0.05,
            backoff_factor: 2.0,
        },
    };
    let build = || {
        ReactiveListPolicy::new(PriorityRule::CriticalPath).with_placement(PlacementMode::LookAhead)
    };
    let uninterrupted = run(&instance, &plan, &config, &failures, &mut build());

    let sim = Simulator::new(config);
    for frac in [0.25, 0.5] {
        let (mut first_half, mut source) = sim.start(&instance, &plan).unwrap();
        first_half.set_failures(failures.clone());
        let status = first_half
            .drive_until(&mut build(), &mut source, frac * horizon)
            .unwrap();
        assert_eq!(status, RunStatus::Paused);
        assert!(!first_half.state().running.is_empty(), "paused mid-flight");
        let json = first_half.checkpoint().to_json();
        drop(first_half);
        drop(source);

        let snapshot = SimSnapshot::from_json(&json).unwrap();
        let (mut resumed, mut source) = sim.resume(&instance, &plan, &snapshot).unwrap();
        resumed.set_failures(failures.clone());
        let status = resumed.drive(&mut build(), &mut source).unwrap();
        assert_eq!(status, RunStatus::Complete);
        assert_eq!(
            uninterrupted.to_json(),
            resumed.into_trace("reactive-list").to_json(),
            "resume at {frac} of the makespan diverged"
        );
    }
}
