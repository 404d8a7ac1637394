//! **Extended experiment E1** — the simulation campaign: normalised makespan
//! (makespan / certified lower bound) of the paper's algorithm vs. the rigid
//! and sequential baselines, swept over
//!
//! * workflow family (layered, fork-join, trees, SP, independent, Cholesky,
//!   wavefront),
//! * number of jobs `n`,
//! * number of resource types `d`,
//! * speedup family.
//!
//! The arXiv text of the paper has no simulation section, so this campaign is
//! labelled *extended*; it follows the usual methodology of
//! the ICPP evaluation for this literature (normalised makespans against a
//! lower bound, many seeds per configuration).
//!
//! Results go to `results/ext_campaign_*.csv`.

use mrls_analysis::export::{fmt3, ResultTable};
use mrls_analysis::stats::Summary;
use mrls_bench::{emit, parallel_over_seeds, run_algorithms};
use mrls_model::AllocationSpace;
use mrls_workload::{DagRecipe, InstanceRecipe, JobRecipe, SpeedupFamily, SystemRecipe};
use std::collections::BTreeMap;

fn job_recipe(family: SpeedupFamily) -> JobRecipe {
    JobRecipe {
        family,
        work_range: (10.0, 80.0),
        seq_fraction_range: (0.0, 0.2),
        space: AllocationSpace::PowersOfTwo,
        heavy_kind_factor: 2.0,
    }
}

fn sweep(title: &str, csv_name: &str, configs: Vec<(String, InstanceRecipe)>, seeds: &[u64]) {
    let mut table = ResultTable::new(&[
        "configuration",
        "algorithm",
        "mean_normalized",
        "p95_normalized",
        "worst_normalized",
        "mean_makespan",
    ]);
    println!("\n=== {title} ===");
    for (label, recipe) in configs {
        let all = parallel_over_seeds(seeds, &recipe, |seed, r| {
            let gi = r.generate(seed);
            run_algorithms(&gi.instance, false)
        });
        // Aggregate per algorithm.
        let mut by_alg: BTreeMap<String, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for outcomes in &all {
            for o in outcomes {
                let entry = by_alg.entry(o.algorithm.clone()).or_default();
                entry.0.push(o.normalized);
                entry.1.push(o.makespan);
            }
        }
        println!("{label}:");
        for (alg, (normalized, makespans)) in &by_alg {
            let s = Summary::of(normalized);
            let m = Summary::of(makespans);
            println!(
                "  {:<16} mean {:>6.3}  p95 {:>6.3}  worst {:>6.3}",
                alg, s.mean, s.p95, s.max
            );
            table.push_row(vec![
                label.clone(),
                alg.clone(),
                fmt3(s.mean),
                fmt3(s.p95),
                fmt3(s.max),
                fmt3(m.mean),
            ]);
        }
    }
    emit(csv_name, &table);
}

fn main() {
    let seeds: Vec<u64> = (0..15).collect();

    // Sweep 1: workflow families at fixed n, d.
    let families: Vec<(String, DagRecipe)> = vec![
        (
            "layered".into(),
            DagRecipe::RandomLayered {
                n: 50,
                layers: 7,
                edge_prob: 0.25,
            },
        ),
        (
            "fork-join".into(),
            DagRecipe::ForkJoin {
                width: 8,
                stages: 5,
            },
        ),
        (
            "out-tree".into(),
            DagRecipe::RandomOutTree {
                n: 50,
                max_children: 3,
            },
        ),
        (
            "series-parallel".into(),
            DagRecipe::RandomSeriesParallel {
                n: 50,
                series_prob: 0.5,
            },
        ),
        ("independent".into(), DagRecipe::Independent { n: 50 }),
        ("cholesky".into(), DagRecipe::Cholesky { tiles: 5 }),
        (
            "wavefront".into(),
            DagRecipe::Wavefront { rows: 7, cols: 7 },
        ),
        ("montage".into(), DagRecipe::Montage { width: 12 }),
        (
            "epigenomics".into(),
            DagRecipe::Epigenomics {
                branches: 6,
                depth: 6,
            },
        ),
    ];
    sweep(
        "E1a — workflow families (n ≈ 50, d = 3, P = 16, Amdahl jobs)",
        "ext_campaign_families",
        families
            .into_iter()
            .map(|(label, dag)| {
                (
                    label,
                    InstanceRecipe {
                        system: SystemRecipe::Uniform { d: 3, p: 16 },
                        dag,
                        jobs: job_recipe(SpeedupFamily::Amdahl),
                    },
                )
            })
            .collect(),
        &seeds,
    );

    // Sweep 2: number of resource types d.
    sweep(
        "E1b — number of resource types d (layered, n = 40, P = 16)",
        "ext_campaign_d",
        (1..=6usize)
            .map(|d| {
                (
                    format!("d={d}"),
                    InstanceRecipe {
                        system: SystemRecipe::Uniform { d, p: 16 },
                        dag: DagRecipe::RandomLayered {
                            n: 40,
                            layers: 6,
                            edge_prob: 0.25,
                        },
                        jobs: job_recipe(SpeedupFamily::Amdahl),
                    },
                )
            })
            .collect(),
        &seeds,
    );

    // Sweep 3: number of jobs n. (Capped at 100 jobs so the whole campaign
    // finishes in a few minutes; the scheduler itself scales further — see
    // the `scheduler_scaling` Criterion bench.)
    sweep(
        "E1c — number of jobs n (layered, d = 3, P = 16)",
        "ext_campaign_n",
        [20usize, 40, 60, 100]
            .iter()
            .map(|&n| {
                (
                    format!("n={n}"),
                    InstanceRecipe {
                        system: SystemRecipe::Uniform { d: 3, p: 16 },
                        dag: DagRecipe::RandomLayered {
                            n,
                            layers: (n as f64).sqrt().ceil() as usize,
                            edge_prob: 0.25,
                        },
                        jobs: job_recipe(SpeedupFamily::Amdahl),
                    },
                )
            })
            .collect(),
        &seeds,
    );

    // Sweep 4: speedup families.
    sweep(
        "E1d — speedup families (layered, n = 40, d = 3, P = 16)",
        "ext_campaign_speedup",
        [
            ("amdahl", SpeedupFamily::Amdahl),
            ("powerlaw", SpeedupFamily::PowerLaw),
            ("roofline", SpeedupFamily::Roofline),
            ("comm-penalty", SpeedupFamily::CommPenalty),
            ("mixed", SpeedupFamily::Mixed),
        ]
        .iter()
        .map(|(label, family)| {
            (
                label.to_string(),
                InstanceRecipe {
                    system: SystemRecipe::Uniform { d: 3, p: 16 },
                    dag: DagRecipe::RandomLayered {
                        n: 40,
                        layers: 6,
                        edge_prob: 0.25,
                    },
                    jobs: job_recipe(*family),
                },
            )
        })
        .collect(),
        &seeds,
    );
}
