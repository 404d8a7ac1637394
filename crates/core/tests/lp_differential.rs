//! Differential test of the fast simplex on the scheduler's own LPs.
//!
//! `LinearProgram::solve` (row-major pricing, sparse pivot updates) must make
//! the same pivot choices as the retained dense reference
//! `LinearProgram::solve_reference`, so on the Lemma 3 relaxations of real
//! general-DAG instances the two return the same outcome with `objective`
//! and `x` equal as `f64`. Since the rounding, the µ-adjustment and the list
//! phase are deterministic functions of that solution, the schedule
//! `MrlsScheduler::schedule` produces must be byte-identical to the one the
//! same pipeline builds from the reference solution.

use mrls_core::allocators::{adjust_allocation, LpRoundingAllocator};
use mrls_core::{theory, ListScheduler, MrlsConfig, MrlsScheduler};
use mrls_dag::GraphClass;
use mrls_workload::{DagRecipe, InstanceRecipe, JobRecipe, SystemRecipe};

fn recipe(d: usize, dag: DagRecipe) -> InstanceRecipe {
    InstanceRecipe {
        system: SystemRecipe::Uniform { d, p: 8 },
        dag,
        jobs: JobRecipe::default_mixed(),
    }
}

fn layered(n: usize) -> DagRecipe {
    DagRecipe::RandomLayered {
        n,
        layers: (n as f64).sqrt().ceil() as usize,
        edge_prob: 0.3,
    }
}

fn check(recipe: &InstanceRecipe, seed: u64) {
    let instance = recipe.generate(seed).instance;
    assert_eq!(instance.graph_class(), GraphClass::General);
    let profiles = instance.profiles().unwrap();
    let relaxation = LpRoundingAllocator::relaxation_lp(&instance, &profiles).unwrap();

    let fast = relaxation.lp.solve().unwrap();
    let reference = relaxation.lp.solve_reference().unwrap();
    assert_eq!(
        fast, reference,
        "{recipe:?} seed {seed}: LP solutions differ"
    );

    // The reference solution pushed through the scheduler's LP-rounding
    // pipeline by hand must reproduce `MrlsScheduler::schedule` exactly.
    let config = MrlsConfig::default();
    let result = MrlsScheduler::new(config.clone())
        .schedule(&instance)
        .unwrap();
    assert_eq!(result.params.allocator, "lp-rounding");
    let solution = reference.optimal().expect("the relaxation is feasible");
    let fractional = relaxation.fractional(&profiles, &solution);
    let (mu, rho) = theory::general_params(instance.num_resource_types());
    let initial = LpRoundingAllocator::new(rho)
        .unwrap()
        .round(&profiles, &fractional);
    assert_eq!(initial, result.initial_decision);
    let decision = adjust_allocation(&instance, &initial, mu).unwrap().decision;
    let schedule = ListScheduler::new(config.priority)
        .schedule(&instance, &decision)
        .unwrap();
    assert_eq!(
        schedule.to_json(),
        result.schedule.to_json(),
        "{recipe:?} seed {seed}: schedules differ"
    );
    assert_eq!(result.lower_bounds.lp_bound, Some(solution.objective));
}

#[test]
fn layered_relaxations_match_reference() {
    for n in [30, 60] {
        let recipe = recipe(2, layered(n));
        for seed in 0..3 {
            check(&recipe, seed);
        }
    }
}

#[test]
fn cholesky_relaxations_match_reference() {
    for tiles in 4..=6 {
        for d in [2, 3] {
            check(
                &recipe(d, DagRecipe::Cholesky { tiles }),
                tiles as u64 * 10 + d as u64,
            );
        }
    }
}
