//! **Extended experiment E2** — ablations of the algorithm's design knobs:
//!
//! * the rounding parameter `ρ` (vs. the theorem value `ρ* = 1/(√(φd)+1)`),
//! * the adjustment parameter `µ` (vs. `µ* = 1 − 1/φ`) and disabling the
//!   adjustment entirely,
//! * the Phase-1 allocator (LP rounding vs. FPTAS vs. per-job heuristics),
//! * the Phase-2 priority rule (critical path vs. local rules).
//!
//! Results go to `results/ext_ablation_*.csv`.

use mrls_analysis::export::{fmt3, ResultTable};
use mrls_analysis::stats::Summary;
use mrls_bench::{emit, parallel_over_seeds};
use mrls_core::scheduler::{AllocatorKind, MrlsConfig, MrlsScheduler};
use mrls_core::{theory, PriorityRule};
use mrls_model::AllocationSpace;
use mrls_workload::{DagRecipe, InstanceRecipe, JobRecipe, SpeedupFamily, SystemRecipe};

fn base_recipe(d: usize) -> InstanceRecipe {
    InstanceRecipe {
        system: SystemRecipe::Uniform { d, p: 16 },
        dag: DagRecipe::RandomLayered {
            n: 40,
            layers: 6,
            edge_prob: 0.25,
        },
        jobs: JobRecipe {
            family: SpeedupFamily::Amdahl,
            work_range: (10.0, 80.0),
            seq_fraction_range: (0.0, 0.2),
            space: AllocationSpace::PowersOfTwo,
            heavy_kind_factor: 2.0,
        },
    }
}

fn run_config(
    label: &str,
    config: MrlsConfig,
    recipe: &InstanceRecipe,
    seeds: &[u64],
    table: &mut ResultTable,
) {
    let ratios = parallel_over_seeds(seeds, recipe, |seed, r| {
        let gi = r.generate(seed);
        MrlsScheduler::new(config.clone())
            .schedule(&gi.instance)
            .expect("scheduling succeeds")
            .measured_ratio()
    });
    let s = Summary::of(&ratios);
    println!(
        "  {:<34} mean {:>6.3}  p95 {:>6.3}  worst {:>6.3}",
        label, s.mean, s.p95, s.max
    );
    table.push_row(vec![
        label.to_string(),
        fmt3(s.mean),
        fmt3(s.p95),
        fmt3(s.max),
    ]);
}

fn main() {
    let seeds: Vec<u64> = (0..15).collect();
    let d = 3usize;
    let recipe = base_recipe(d);
    let (mu_star, rho_star) = theory::general_params(d);

    // ---- Ablation A: the rounding parameter rho. ----
    println!("E2a — rounding parameter ρ (LP allocator, layered, d = {d}); ρ* = {rho_star:.3}");
    let mut table = ResultTable::new(&["configuration", "mean_ratio", "p95_ratio", "worst_ratio"]);
    for rho in [0.1, 0.25, rho_star, 0.5, 0.75, 0.9] {
        let config = MrlsConfig {
            allocator: AllocatorKind::LpRounding,
            rho: Some(rho),
            ..MrlsConfig::default()
        };
        run_config(
            &format!("rho={rho:.3}"),
            config,
            &recipe,
            &seeds,
            &mut table,
        );
    }
    emit("ext_ablation_rho", &table);

    // ---- Ablation B: the adjustment parameter mu. ----
    println!("\nE2b — adjustment parameter µ (LP allocator, layered, d = {d}); µ* = {mu_star:.3}");
    let mut table = ResultTable::new(&["configuration", "mean_ratio", "p95_ratio", "worst_ratio"]);
    for mu in [0.1, 0.2, mu_star, 0.45, 0.49] {
        let config = MrlsConfig {
            allocator: AllocatorKind::LpRounding,
            mu: Some(mu),
            ..MrlsConfig::default()
        };
        run_config(&format!("mu={mu:.3}"), config, &recipe, &seeds, &mut table);
    }
    let no_adjust = MrlsConfig {
        allocator: AllocatorKind::LpRounding,
        apply_adjustment: false,
        ..MrlsConfig::default()
    };
    run_config("no-adjustment", no_adjust, &recipe, &seeds, &mut table);
    emit("ext_ablation_mu", &table);

    // ---- Ablation C: the Phase-1 allocator. ----
    println!("\nE2c — Phase-1 allocator (layered general DAGs, d = {d})");
    let mut table = ResultTable::new(&["configuration", "mean_ratio", "p95_ratio", "worst_ratio"]);
    for (label, kind) in [
        ("lp-rounding", AllocatorKind::LpRounding),
        ("min-time", AllocatorKind::MinTime),
        ("min-area", AllocatorKind::MinArea),
        ("min-local-max", AllocatorKind::MinLocalMax),
    ] {
        let config = MrlsConfig {
            allocator: kind,
            ..MrlsConfig::default()
        };
        run_config(label, config, &recipe, &seeds, &mut table);
    }
    emit("ext_ablation_allocator", &table);

    // On SP graphs, also compare the FPTAS against the LP path.
    println!("\nE2c' — Phase-1 allocator on series-parallel graphs (d = {d})");
    let sp_recipe = InstanceRecipe {
        dag: DagRecipe::RandomSeriesParallel {
            n: 40,
            series_prob: 0.5,
        },
        ..base_recipe(d)
    };
    let mut table = ResultTable::new(&["configuration", "mean_ratio", "p95_ratio", "worst_ratio"]);
    for (label, kind) in [
        ("sp-fptas", AllocatorKind::SpFptas),
        ("lp-rounding", AllocatorKind::LpRounding),
        ("min-local-max", AllocatorKind::MinLocalMax),
    ] {
        let config = MrlsConfig {
            allocator: kind,
            ..MrlsConfig::default()
        };
        run_config(label, config, &sp_recipe, &seeds, &mut table);
    }
    emit("ext_ablation_allocator_sp", &table);

    // ---- Ablation D: the Phase-2 priority rule. ----
    println!("\nE2d — Phase-2 priority rule (LP allocator, layered, d = {d})");
    let mut table = ResultTable::new(&["configuration", "mean_ratio", "p95_ratio", "worst_ratio"]);
    for (label, rule) in [
        ("critical-path", PriorityRule::CriticalPath),
        ("fifo", PriorityRule::Fifo),
        ("longest-time", PriorityRule::LongestTimeFirst),
        ("largest-area", PriorityRule::LargestAreaFirst),
    ] {
        let config = MrlsConfig {
            allocator: AllocatorKind::LpRounding,
            priority: rule,
            ..MrlsConfig::default()
        };
        run_config(label, config, &recipe, &seeds, &mut table);
    }
    emit("ext_ablation_priority", &table);
}
