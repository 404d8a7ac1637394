//! **LP-relaxation benchmark** — the phase-1 simplex of the general-DAG
//! allocator ([`LinearProgram::solve`]: row-major pricing, `O(1)` basis
//! membership, sparse pivot updates, artificial columns retired after
//! phase 1) against the retained dense reference
//! ([`LinearProgram::solve_reference`]: column-wise pricing, linear basis
//! scans, full-width pivot updates).
//!
//! The LPs are the Lemma 3 relaxations
//! ([`LpRoundingAllocator::relaxation_lp`]) of two general-DAG shapes on a
//! `p = 8` full-grid machine with the default mixed moldable jobs:
//!
//! * `layered` — random layered DAGs of `n` jobs (`⌈√n⌉` layers, edge
//!   probability 0.3), `d = 2`;
//! * `cholesky` — tiled Cholesky factorisations of `tiles × tiles` tiles,
//!   `d = 2`.
//!
//! Every configuration first asserts that the two solvers return equal
//! solutions (same outcome, `objective` and `x` equal as `f64`), so the CI
//! smoke run doubles as an equivalence gate; then it reports the LP size,
//! the pivot counts and the median wall time of each solver over `reps`
//! solves. Results go to `results/lp_relaxation.csv`.
//!
//! Arguments (`key=value`, all optional):
//! `layered=30,60,100 cholesky=5,6,7 reps=5 seed=1`.
//! CI-sized smoke: `layered=30 cholesky=4 reps=1`.

use mrls_analysis::export::{fmt3, ResultTable};
use mrls_bench::emit;
use mrls_core::allocators::LpRoundingAllocator;
use mrls_workload::{DagRecipe, InstanceRecipe, JobRecipe, SystemRecipe};
use std::time::Instant;

const ARG_KEYS: &[&str] = &["layered", "cholesky", "reps", "seed"];

struct Args {
    layered: Vec<usize>,
    cholesky: Vec<usize>,
    reps: usize,
    seed: u64,
}

/// Strict `key=value` lookup (same contract as the `mrls` CLI): unknown
/// keys, malformed tokens and unparsable values exit with code 2.
fn args() -> Args {
    let mut out = Args {
        layered: vec![30, 60, 100],
        cholesky: vec![5, 6, 7],
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
        let list = || -> Vec<usize> {
            v.split(',')
                .filter(|w| !w.is_empty())
                .map(|w| w.parse().unwrap_or_else(|_| invalid(k, v)))
                .collect()
        };
        match k {
            "layered" => out.layered = list(),
            "cholesky" => out.cholesky = list(),
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

fn main() {
    let args = args();
    let mut table = ResultTable::new(&[
        "shape",
        "size",
        "rows",
        "vars",
        "phase1_pivots",
        "phase2_pivots",
        "bland_pivots",
        "reference_ms",
        "fast_ms",
        "speedup",
    ]);

    let layered = args.layered.iter().map(|&n| {
        let dag = DagRecipe::RandomLayered {
            n,
            layers: (n as f64).sqrt().ceil() as usize,
            edge_prob: 0.3,
        };
        ("layered", n, dag)
    });
    let cholesky = args
        .cholesky
        .iter()
        .map(|&tiles| ("cholesky", tiles, DagRecipe::Cholesky { tiles }));
    for (shape, size, dag) in layered.chain(cholesky) {
        let recipe = InstanceRecipe {
            system: SystemRecipe::Uniform { d: 2, p: 8 },
            dag,
            jobs: JobRecipe::default_mixed(),
        };
        let instance = recipe.generate(args.seed).instance;
        let profiles = instance.profiles().expect("profiles");
        let lp = LpRoundingAllocator::relaxation_lp(&instance, &profiles)
            .expect("relaxation LP")
            .lp;

        // Equivalence gate first: the fast solver must make the reference's
        // pivot choices, down to the last bit of the solution.
        let (fast, stats) = lp.solve_with_stats().expect("fast solve");
        let reference = lp.solve_reference().expect("reference solve");
        assert_eq!(
            fast, reference,
            "{shape} size={size}: fast and reference LP solutions diverged"
        );

        let fast_ms = median_ms(args.reps, || {
            lp.solve().expect("fast solve");
        });
        let reference_ms = median_ms(args.reps, || {
            lp.solve_reference().expect("reference solve");
        });
        let speedup = reference_ms / fast_ms.max(1e-9);
        println!(
            "{shape:>8}  size {size:>4}  {rows:>4}x{vars:<5}  pivots {p1:>4}+{p2:<4} \
             (bland {bl})  reference {reference_ms:>9.2}ms  fast {fast_ms:>8.2}ms  \
             speedup {speedup:>5.2}x",
            rows = lp.num_constraints(),
            vars = lp.num_vars(),
            p1 = stats.phase1_pivots,
            p2 = stats.phase2_pivots,
            bl = stats.bland_pivots,
        );
        table.push_row(vec![
            shape.to_string(),
            size.to_string(),
            lp.num_constraints().to_string(),
            lp.num_vars().to_string(),
            stats.phase1_pivots.to_string(),
            stats.phase2_pivots.to_string(),
            stats.bland_pivots.to_string(),
            fmt3(reference_ms),
            fmt3(fast_ms),
            fmt3(speedup),
        ]);
    }

    emit("lp_relaxation", &table);
}
