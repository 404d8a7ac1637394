//! Differential tests: the streaming profile builder against the retained
//! reference.
//!
//! [`JobProfile::build`] must return exactly what
//! [`JobProfile::build_reference`] returns: the same `Result` variant, the
//! same error (with `InvalidExecutionTime.value` equal bit for bit), and the
//! same points in the same order with `time` and `area` equal bit for bit.
//! The cases cover every execution-time family on every kind of allocation
//! space for `d = 1..4` (capacities including 1), zero work and zero exponent
//! components, tables with zero-amount entries, explicit allocations with
//! zero components (dropped points), never-runnable models, limit errors,
//! table times 1e-12 apart (the sweep's equal-time grouping) and every job
//! of generated instances shaped like the benchmark's bulk plans. Random
//! cases derive from the fixed seed baked into the proptest config, so
//! failures replay exactly.

use mrls_model::space::DEFAULT_ENUMERATION_LIMIT;
use mrls_model::{Allocation, AllocationSpace, ExecTimeSpec, JobProfile, ModelError, SystemConfig};
use mrls_workload::{DagRecipe, InstanceRecipe, JobRecipe, SystemRecipe};
use proptest::prelude::*;

/// A builder's result with every float replaced by its bits.
#[derive(Debug, PartialEq)]
enum Outcome {
    Profile(Vec<(Vec<u64>, u64, u64)>),
    InvalidTime { job: usize, value: u64 },
    Error(ModelError),
}

fn outcome(result: mrls_model::Result<JobProfile>) -> Outcome {
    match result {
        Ok(profile) => Outcome::Profile(
            profile
                .points()
                .iter()
                .map(|p| {
                    (
                        p.alloc.amounts().to_vec(),
                        p.time.to_bits(),
                        p.area.to_bits(),
                    )
                })
                .collect(),
        ),
        Err(ModelError::InvalidExecutionTime { job, value }) => Outcome::InvalidTime {
            job,
            value: value.to_bits(),
        },
        Err(e) => Outcome::Error(e),
    }
}

/// Builds with both builders and checks they agree exactly.
fn check(
    spec: &ExecTimeSpec,
    space: &AllocationSpace,
    system: &SystemConfig,
    job: usize,
    limit: u128,
) -> Outcome {
    let fast = outcome(JobProfile::build(spec, space, system, job, limit));
    let reference = outcome(JobProfile::build_reference(spec, space, system, job, limit));
    assert_eq!(
        fast, reference,
        "builders diverged for {spec:?} on {space:?} over {system:?}"
    );
    fast
}

/// A xorshift stream: the case generators below draw everything from a seed.
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

    /// Uniform in `[lo, hi)` with full mantissa noise.
    fn real(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Uniform in `lo..=hi`.
    fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }

    /// A non-negative parameter that is zero `zero_percent`% of the time.
    fn maybe_zero(&mut self, zero_percent: u64, lo: f64, hi: f64) -> f64 {
        if self.chance(zero_percent) {
            0.0
        } else {
            self.real(lo, hi)
        }
    }
}

fn random_spec(s: &mut Stream, d: usize, caps: &[u64]) -> ExecTimeSpec {
    match s.int(0, 5) {
        0 => ExecTimeSpec::Amdahl {
            seq: s.maybe_zero(20, 0.0, 5.0),
            work: (0..d).map(|_| s.maybe_zero(20, 0.5, 50.0)).collect(),
        },
        1 => ExecTimeSpec::PowerLaw {
            base: s.real(1.0, 100.0),
            alpha: (0..d)
                .map(|_| s.maybe_zero(20, 0.01, 1.0 / d as f64))
                .collect(),
        },
        2 => ExecTimeSpec::Roofline {
            work: s.real(1.0, 100.0),
            plateau: (0..d).map(|_| s.int(0, 10)).collect(),
        },
        3 => ExecTimeSpec::CommPenalty {
            seq: s.maybe_zero(20, 0.0, 5.0),
            work: (0..d).map(|_| s.maybe_zero(20, 0.5, 50.0)).collect(),
            comm: (0..d).map(|_| s.maybe_zero(20, 0.0, 2.0)).collect(),
        },
        4 => {
            let entries = (0..s.int(1, 8))
                .map(|_| {
                    let amounts = caps.iter().map(|&c| s.int(0, c)).collect();
                    (amounts, s.real(0.5, 20.0))
                })
                .collect();
            ExecTimeSpec::Table {
                entries,
                fallback: s.real(20.0, 40.0),
            }
        }
        _ => ExecTimeSpec::Constant {
            time: s.real(0.1, 10.0),
        },
    }
}

fn random_space(s: &mut Stream, caps: &[u64]) -> AllocationSpace {
    match s.int(0, 3) {
        0 => AllocationSpace::FullGrid,
        1 => AllocationSpace::PowersOfTwo,
        2 => AllocationSpace::PerAxis(
            caps.iter()
                .map(|&c| (0..s.int(1, 4)).map(|_| s.int(0, c + 1)).collect())
                .collect(),
        ),
        _ => AllocationSpace::Explicit(
            (0..s.int(1, 12))
                .map(|_| Allocation::new(caps.iter().map(|&c| s.int(0, c)).collect()))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// Every family on every space kind, `d = 1..4`, capacities `1..=7`.
    #[test]
    fn random_families_and_spaces_match_reference(seed in any::<u64>()) {
        let mut s = Stream::new(seed);
        let d = s.int(1, 4) as usize;
        let caps: Vec<u64> = (0..d).map(|_| s.int(1, 7)).collect();
        let system = SystemConfig::new(caps.clone()).unwrap();
        let spec = random_spec(&mut s, d, &caps);
        let space = random_space(&mut s, &caps);
        check(&spec, &space, &system, 3, DEFAULT_ENUMERATION_LIMIT);
    }
}

#[test]
fn every_family_on_unit_capacities() {
    // A capacity of 1 makes an axis of a single value.
    let system = SystemConfig::new(vec![1, 5, 1]).unwrap();
    let specs = [
        ExecTimeSpec::Amdahl {
            seq: 1.0,
            work: vec![3.0, 0.0, 2.0],
        },
        ExecTimeSpec::PowerLaw {
            base: 9.0,
            alpha: vec![0.0, 0.5, 0.25],
        },
        ExecTimeSpec::Roofline {
            work: 5.0,
            plateau: vec![0, 3, 9],
        },
        ExecTimeSpec::CommPenalty {
            seq: 0.0,
            work: vec![0.0, 8.0, 1.0],
            comm: vec![0.5, 0.0, 0.25],
        },
        ExecTimeSpec::single_resource_unit(3, 1, 2, 4.0),
        ExecTimeSpec::Constant { time: 2.0 },
    ];
    for spec in &specs {
        for space in [AllocationSpace::FullGrid, AllocationSpace::PowersOfTwo] {
            let out = check(spec, &space, &system, 0, DEFAULT_ENUMERATION_LIMIT);
            assert!(matches!(out, Outcome::Profile(ref p) if !p.is_empty()));
        }
    }
}

#[test]
fn parameter_vectors_shorter_than_the_grid_match_reference() {
    // Models referring to fewer resource types than the system has take the
    // per-point path; their times ignore the extra axes.
    let system = SystemConfig::new(vec![4, 3, 2]).unwrap();
    let specs = [
        ExecTimeSpec::Amdahl {
            seq: 0.5,
            work: vec![6.0, 2.0],
        },
        ExecTimeSpec::PowerLaw {
            base: 7.0,
            alpha: vec![0.4],
        },
        ExecTimeSpec::CommPenalty {
            seq: 1.0,
            work: vec![5.0, 1.0, 2.0],
            comm: vec![0.1],
        },
    ];
    for spec in &specs {
        check(
            spec,
            &AllocationSpace::FullGrid,
            &system,
            0,
            DEFAULT_ENUMERATION_LIMIT,
        );
    }
}

#[test]
fn dropped_points_and_never_runnable_models_match_reference() {
    let system = SystemConfig::new(vec![4, 8]).unwrap();
    // Zero components of a needed type give infinite times: dropped points.
    let needs_both = ExecTimeSpec::Amdahl {
        seq: 0.5,
        work: vec![4.0, 2.0],
    };
    let explicit = AllocationSpace::Explicit(vec![
        Allocation::new(vec![0, 3]),
        Allocation::new(vec![2, 0]),
        Allocation::new(vec![2, 5]),
        Allocation::new(vec![4, 8]),
    ]);
    let out = check(&needs_both, &explicit, &system, 0, 10);
    assert!(matches!(out, Outcome::Profile(ref p) if p.len() == 2));
    // No usable point at all: the error carries the last infinite time.
    let none_usable = AllocationSpace::Explicit(vec![
        Allocation::new(vec![0, 3]),
        Allocation::new(vec![2, 0]),
    ]);
    let out = check(&needs_both, &none_usable, &system, 7, 10);
    assert_eq!(
        out,
        Outcome::InvalidTime {
            job: 7,
            value: f64::INFINITY.to_bits()
        }
    );
    // A table whose only entry needs more than the grid offers, with a zero
    // fallback: every point is invalid.
    let never = ExecTimeSpec::Table {
        entries: vec![(vec![0, 9], 1.0)],
        fallback: 0.0,
    };
    let out = check(
        &never,
        &AllocationSpace::FullGrid,
        &system,
        2,
        DEFAULT_ENUMERATION_LIMIT,
    );
    assert_eq!(out, Outcome::InvalidTime { job: 2, value: 0 });
}

#[test]
fn constant_zero_time_error_matches_reference() {
    let system = SystemConfig::new(vec![3, 2]).unwrap();
    for time in [0.0, -0.0, -1.5, f64::NAN, f64::INFINITY] {
        let spec = ExecTimeSpec::Constant { time };
        for space in [
            AllocationSpace::FullGrid,
            AllocationSpace::PowersOfTwo,
            AllocationSpace::PerAxis(vec![vec![1, 3], vec![2]]),
            AllocationSpace::Explicit(vec![Allocation::new(vec![1, 0])]),
        ] {
            let out = check(&spec, &space, &system, 5, DEFAULT_ENUMERATION_LIMIT);
            assert_eq!(
                out,
                Outcome::InvalidTime {
                    job: 5,
                    value: time.to_bits()
                }
            );
        }
    }
}

#[test]
fn space_errors_match_reference() {
    let system = SystemConfig::new(vec![6, 5]).unwrap();
    let spec = ExecTimeSpec::Amdahl {
        seq: 1.0,
        work: vec![2.0, 3.0],
    };
    let cases = [
        (AllocationSpace::FullGrid, 29),
        (AllocationSpace::PowersOfTwo, 15),
        (AllocationSpace::PerAxis(vec![vec![1, 2, 3], vec![1, 5]]), 5),
        (
            AllocationSpace::Explicit(vec![Allocation::new(vec![1, 1]); 4]),
            3,
        ),
    ];
    for (space, limit) in cases {
        let out = check(&spec, &space, &system, 0, limit);
        assert!(matches!(
            out,
            Outcome::Error(ModelError::AllocationSpaceTooLarge { .. })
        ));
    }
    let malformed = [
        AllocationSpace::PerAxis(vec![vec![1, 2]]),
        AllocationSpace::PerAxis(vec![vec![1, 2], vec![0, 6]]),
        AllocationSpace::Explicit(vec![]),
        AllocationSpace::Explicit(vec![Allocation::new(vec![1, 9])]),
        AllocationSpace::Explicit(vec![Allocation::new(vec![0, 0])]),
        AllocationSpace::Explicit(vec![Allocation::new(vec![1, 1, 1])]),
    ];
    for space in malformed {
        let out = check(&spec, &space, &system, 4, DEFAULT_ENUMERATION_LIMIT);
        assert!(matches!(out, Outcome::Error(_)), "{space:?} gave {out:?}");
    }
}

#[test]
fn table_times_a_picosecond_apart_match_reference() {
    // Times within 1e-12 of each other are grouped by the sweep, so they
    // cannot dominate each other; spacings straddle the threshold.
    let system = SystemConfig::new(vec![8, 8]).unwrap();
    for (seed, spacing) in [
        (1u64, 0.3e-12),
        (2, 0.6e-12),
        (3, 1e-12),
        (4, 1.2e-12),
        (5, 2e-12),
        (6, 2.5e-12),
    ] {
        let mut s = Stream::new(seed);
        for base in [1.0, 1e-3, 40.0] {
            let entries = (0..24)
                .map(|k| {
                    let amounts = vec![s.int(0, 8), s.int(0, 8)];
                    let time = base + spacing * (s.int(0, 12) as f64) + spacing * k as f64 * 0.01;
                    (amounts, time)
                })
                .collect();
            let spec = ExecTimeSpec::Table {
                entries,
                fallback: base + 100.0 * spacing,
            };
            check(
                &spec,
                &AllocationSpace::FullGrid,
                &system,
                0,
                DEFAULT_ENUMERATION_LIMIT,
            );
        }
    }
}

#[test]
fn generated_bulk_plan_jobs_match_reference() {
    // The benchmark's bulk plans: d = 4, p = 8 full grids (4096 points per
    // job) of default mixed jobs on an SP DAG and an independent bag.
    let dags = [
        DagRecipe::RandomSeriesParallel {
            n: 110,
            series_prob: 0.5,
        },
        DagRecipe::Independent { n: 120 },
    ];
    for dag in dags {
        let recipe = InstanceRecipe {
            system: SystemRecipe::Uniform { d: 4, p: 8 },
            dag,
            jobs: JobRecipe::default_mixed(),
        };
        let instance = recipe.generate(1).instance;
        for (j, job) in instance.jobs.iter().enumerate() {
            let out = check(
                &job.spec,
                &job.space,
                &instance.system,
                j,
                DEFAULT_ENUMERATION_LIMIT,
            );
            assert!(matches!(out, Outcome::Profile(ref p) if !p.is_empty()));
        }
    }
}
