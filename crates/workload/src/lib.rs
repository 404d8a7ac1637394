//! # mrls-workload — synthetic workflows and moldable job generators
//!
//! The arXiv version of the paper is a theory paper; to validate the
//! algorithm empirically (Table 1 verification and the extended campaign of
//! the `mrls-bench` binaries) we need representative workloads. This crate
//! generates:
//!
//! * **Precedence DAGs** ([`dag_gen`]): independent bags, chains, random
//!   layered graphs, Erdős–Rényi DAGs, fork-join graphs, random in-/out-trees,
//!   random series-parallel orders, and structured scientific-workflow shapes
//!   (tiled Cholesky factorisation, 2-D wavefront sweeps, Montage-like
//!   fan-out/fan-in mosaics, Epigenomics-like parallel pipelines).
//! * **Moldable jobs** ([`job_gen`]): execution-time models drawn from the
//!   speedup families of `mrls-model` with randomised parameters that satisfy
//!   the paper's Assumption 3 by construction.
//! * **Full instances** ([`instance_gen`]): a declarative [`InstanceRecipe`]
//!   (serialisable, seedable) that combines a system, a DAG recipe and a job
//!   recipe into an [`mrls_model::Instance`].
//! * **Runtime scenarios** ([`scenario_gen`]): online-arrival patterns
//!   (release times) and resource-capacity drop schedules consumed by the
//!   `mrls-sim` execution runtime.
//!
//! Everything is deterministic given a `u64` seed (ChaCha8 PRNG), so every
//! experiment in `mrls-bench` can be reproduced bit-for-bit.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dag_gen;
pub mod instance_gen;
pub mod job_gen;
pub mod scenario_gen;

pub use dag_gen::DagRecipe;
pub use instance_gen::{InstanceRecipe, SystemRecipe};
pub use job_gen::{JobRecipe, SpeedupFamily};
pub use scenario_gen::{ArrivalRecipe, CapacityDropRecipe};

/// Constructs the crate-standard PRNG from a seed.
pub fn rng_from_seed(seed: u64) -> rand_chacha::ChaCha8Rng {
    use rand::SeedableRng;
    rand_chacha::ChaCha8Rng::seed_from_u64(seed)
}
