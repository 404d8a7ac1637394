//! **Profile-construction benchmark** — the streaming profile builder
//! ([`JobProfile::build`]: in-place grid walk, per-axis term tables,
//! integer-key Pareto sort) against the retained materialising reference
//! ([`JobProfile::build_reference`]: one heap `Allocation` per grid point,
//! per-point validation and evaluation, stable `partial_cmp` sort).
//!
//! The jobs are the default mixed moldable jobs (Amdahl, power-law,
//! roofline and communication-penalty models in equal shares) of independent
//! bags of `jobs` jobs on uniform `p = 8` full-grid machines of `d` resource
//! types, so a job has `8^d` candidate allocations (4096 at `d = 4`, the
//! `plan-bulk` shape of the repository benchmark).
//!
//! Every configuration first asserts that the two builders return the same
//! profile for every job (times and areas equal bit for bit), so the CI
//! smoke run doubles as an equivalence gate; then it reports, per speedup
//! family, the median wall time per job of each builder over `reps` builds
//! of all that family's jobs. Results go to `results/profile_build.csv`.
//!
//! Arguments (`key=value`, all optional):
//! `d=2,3,4 jobs=120 reps=5 seed=1`.
//! CI-sized smoke: `d=2,3 jobs=24 reps=1`.

use mrls_analysis::export::{fmt3, ResultTable};
use mrls_bench::emit;
use mrls_model::space::DEFAULT_ENUMERATION_LIMIT;
use mrls_model::{ExecTimeSpec, Instance, JobProfile, MoldableJob};
use mrls_workload::{DagRecipe, InstanceRecipe, JobRecipe, SystemRecipe};
use std::hint::black_box;
use std::time::Instant;

const ARG_KEYS: &[&str] = &["d", "jobs", "reps", "seed"];

struct Args {
    dims: Vec<usize>,
    jobs: usize,
    reps: usize,
    seed: u64,
}

/// Strict `key=value` lookup (same contract as the `mrls` CLI): unknown
/// keys, malformed tokens and unparsable values exit with code 2.
fn args() -> Args {
    let mut out = Args {
        dims: vec![2, 3, 4],
        jobs: 120,
        reps: 5,
        seed: 1,
    };
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
        match k {
            "d" => {
                out.dims = v
                    .split(',')
                    .filter(|w| !w.is_empty())
                    .map(|w| w.parse().unwrap_or_else(|_| invalid(k, v)))
                    .collect()
            }
            "jobs" => out.jobs = v.parse().unwrap_or_else(|_| invalid(k, v)),
            "reps" => out.reps = v.parse().unwrap_or_else(|_| invalid(k, v)),
            _ => out.seed = v.parse().unwrap_or_else(|_| invalid(k, v)),
        }
    }
    out.reps = out.reps.max(1);
    out
}

fn invalid(k: &str, v: &str) -> ! {
    eprintln!("invalid value `{v}` for `{k}`");
    std::process::exit(2);
}

/// Median wall time of `reps` runs of `f`, in milliseconds.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn family(spec: &ExecTimeSpec) -> &'static str {
    match spec {
        ExecTimeSpec::Amdahl { .. } => "amdahl",
        ExecTimeSpec::PowerLaw { .. } => "power_law",
        ExecTimeSpec::Roofline { .. } => "roofline",
        ExecTimeSpec::CommPenalty { .. } => "comm_penalty",
        ExecTimeSpec::Table { .. } => "table",
        ExecTimeSpec::Constant { .. } => "constant",
    }
}

type Builder = fn(
    &ExecTimeSpec,
    &mrls_model::AllocationSpace,
    &mrls_model::SystemConfig,
    usize,
    u128,
) -> mrls_model::Result<JobProfile>;

fn build_all(builder: Builder, instance: &Instance, jobs: &[(usize, &MoldableJob)]) {
    for &(j, job) in jobs {
        let profile = builder(
            black_box(&job.spec),
            &job.space,
            &instance.system,
            j,
            DEFAULT_ENUMERATION_LIMIT,
        );
        black_box(profile.expect("generated jobs have profiles"));
    }
}

fn main() {
    let args = args();
    let mut table = ResultTable::new(&[
        "d",
        "family",
        "jobs",
        "grid_points",
        "kept_points",
        "reference_us_per_job",
        "fast_us_per_job",
        "speedup",
    ]);

    for &d in &args.dims {
        let recipe = InstanceRecipe {
            system: SystemRecipe::Uniform { d, p: 8 },
            dag: DagRecipe::Independent { n: args.jobs },
            jobs: JobRecipe::default_mixed(),
        };
        let instance = recipe.generate(args.seed).instance;

        // Equivalence gate first: the streaming builder must return the
        // reference profile, every time and area equal bit for bit.
        let mut kept = Vec::with_capacity(instance.num_jobs());
        for (j, job) in instance.jobs.iter().enumerate() {
            let build = |builder: Builder| {
                builder(
                    &job.spec,
                    &job.space,
                    &instance.system,
                    j,
                    DEFAULT_ENUMERATION_LIMIT,
                )
                .expect("generated jobs have profiles")
            };
            let fast = build(JobProfile::build);
            let reference = build(JobProfile::build_reference);
            let bits = |p: &JobProfile| -> Vec<(Vec<u64>, u64, u64)> {
                p.points()
                    .iter()
                    .map(|q| {
                        (
                            q.alloc.amounts().to_vec(),
                            q.time.to_bits(),
                            q.area.to_bits(),
                        )
                    })
                    .collect()
            };
            assert_eq!(
                bits(&fast),
                bits(&reference),
                "d={d} job {j} ({}): fast and reference profiles diverged",
                family(&job.spec)
            );
            kept.push(fast.len());
        }

        let grid_points = instance.system.full_grid_size();
        for name in ["amdahl", "power_law", "roofline", "comm_penalty"] {
            let jobs: Vec<(usize, &MoldableJob)> = instance
                .jobs
                .iter()
                .enumerate()
                .filter(|(_, job)| family(&job.spec) == name)
                .collect();
            if jobs.is_empty() {
                continue;
            }
            let n = jobs.len() as f64;
            let kept_points = jobs.iter().map(|&(j, _)| kept[j]).sum::<usize>() as f64 / n;
            let fast_us =
                median_ms(args.reps, || build_all(JobProfile::build, &instance, &jobs)) * 1e3 / n;
            let reference_us = median_ms(args.reps, || {
                build_all(JobProfile::build_reference, &instance, &jobs)
            }) * 1e3
                / n;
            let speedup = reference_us / fast_us.max(1e-9);
            println!(
                "d={d}  {name:>12}  {jobs:>4} jobs  {grid_points:>6} points  \
                 kept {kept_points:>7.1}  reference {reference_us:>9.1}us  \
                 fast {fast_us:>8.1}us  speedup {speedup:>5.2}x",
                jobs = jobs.len(),
            );
            table.push_row(vec![
                d.to_string(),
                name.to_string(),
                jobs.len().to_string(),
                grid_points.to_string(),
                fmt3(kept_points),
                fmt3(reference_us),
                fmt3(fast_us),
                fmt3(speedup),
            ]);
        }
    }

    emit("profile_build", &table);
}
