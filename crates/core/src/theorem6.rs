//! The Theorem 6 lower-bound family: a tree instance on which any
//! deterministic list scheduler with *local* priorities is forced to a
//! makespan of roughly `d` times the optimum.
//!
//! ## Construction (reconstruction of Figure 2)
//!
//! The supplied text describes, but does not fully specify, the tree of
//! Figure 2; we reconstruct a family with the same ingredients and the same
//! asymptotics (the `fig2_lower_bound` binary of `mrls-bench` measures the
//! ratio it forces):
//!
//! * `d` resource types, each with capacity `P(i) = 2`;
//! * unit-time jobs, each requiring one unit of a **single** resource type;
//! * for every type `i` there is a *bulk* of `2M` jobs, plus (for `i < d−1`)
//!   one *gate* job of type `i` whose completion releases every type-`i+1`
//!   job (the gate of type `i+1` and the bulk of type `i+1` are its
//!   children); the bulk of type 0 and the gate of type 0 are the roots.
//!   The precedence graph is therefore an out-forest (a tree family).
//!
//! A scheduler that knows the graph runs every gate as early as possible:
//! gate `i` completes at time `i + 1`, so the bulk of type `i` keeps its two
//! units busy from time `≈ i` on and all `d` types work in parallel — the
//! makespan is `≈ M + d`. A local-priority scheduler cannot distinguish the
//! gate from the `2M` bulk jobs of the same type, so in the worst case it
//! schedules the entire bulk first and only then the gate: type `i+1` cannot
//! start before `≈ (i+1)(M+1)`, the types execute one after another, and the
//! makespan is `≈ d·M`. The ratio therefore approaches `d` as `M` grows,
//! matching Theorem 6.

use crate::priority::PriorityRule;
use crate::Result;
use mrls_dag::{Dag, DagBuilder};
use mrls_model::{
    Allocation, AllocationDecision, AllocationSpace, ExecTimeSpec, Instance, MoldableJob,
    SystemConfig,
};

/// The Theorem 6 instance together with the orderings that realise its best
/// and worst case.
#[derive(Debug, Clone)]
pub struct Theorem6Instance {
    /// The scheduling instance (unit jobs, single-type demands, `P(i) = 2`).
    pub instance: Instance,
    /// The (rigid) allocation decision: one unit of the job's type.
    pub decision: AllocationDecision,
    /// The resource type of every job.
    pub job_type: Vec<usize>,
    /// `true` for gate jobs.
    pub is_gate: Vec<bool>,
    /// Number of resource types `d`.
    pub d: usize,
    /// Bulk scale `M` (each type has `2M` bulk jobs).
    pub m: usize,
}

impl Theorem6Instance {
    /// Builds the family member with `d ≥ 1` resource types and bulk scale
    /// `M ≥ 1`.
    pub fn build(d: usize, m: usize) -> Result<Theorem6Instance> {
        let d = d.max(1);
        let m = m.max(1);
        let bulk = 2 * m;
        let num_gates = d.saturating_sub(1);
        let n = d * bulk + num_gates;

        // Job layout: for type i, bulk jobs occupy indices
        // [i*(bulk) .. i*bulk + bulk); gates come afterwards, gate of type i at
        // index d*bulk + i (for i < d-1).
        let bulk_start = |i: usize| i * bulk;
        let gate_index = |i: usize| d * bulk + i;

        let mut builder = DagBuilder::new(n);
        for i in 1..d {
            let gate = gate_index(i - 1);
            // The gate of type i-1 releases the whole bulk of type i …
            for b in 0..bulk {
                builder.add_edge(gate, bulk_start(i) + b)?;
            }
            // … and the next gate (if any).
            if i < d - 1 + 1 && i - 1 + 1 < num_gates {
                builder.add_edge(gate, gate_index(i))?;
            }
        }
        let dag: Dag = builder.build()?;

        let mut job_type = vec![0usize; n];
        let mut is_gate = vec![false; n];
        for i in 0..d {
            for b in 0..bulk {
                job_type[bulk_start(i) + b] = i;
            }
        }
        for g in 0..num_gates {
            job_type[gate_index(g)] = g;
            is_gate[gate_index(g)] = true;
        }

        let system = SystemConfig::uniform(d, 2)?;
        let jobs: Vec<MoldableJob> = (0..n)
            .map(|j| {
                let spec = ExecTimeSpec::single_resource_unit(d, job_type[j], 1, 1.0);
                let mut amounts = vec![0u64; d];
                amounts[job_type[j]] = 1;
                MoldableJob::with_space(
                    format!(
                        "{}{}-t{}",
                        if is_gate[j] { "gate" } else { "bulk" },
                        j,
                        job_type[j]
                    ),
                    spec,
                    AllocationSpace::Explicit(vec![Allocation::new(amounts)]),
                )
            })
            .collect();
        let decision: AllocationDecision = (0..n)
            .map(|j| {
                let mut amounts = vec![0u64; d];
                amounts[job_type[j]] = 1;
                Allocation::new(amounts)
            })
            .collect();
        let instance = Instance::new(system, dag, jobs)?;
        Ok(Theorem6Instance {
            instance,
            decision,
            job_type,
            is_gate,
            d,
            m,
        })
    }

    /// The adversarial *local* priority: within each type, the gate is ordered
    /// after every bulk job (a local rule cannot tell them apart, so the
    /// adversary may present them in this order).
    pub fn adversarial_priority(&self) -> PriorityRule {
        let n = self.instance.num_jobs();
        let order: Vec<usize> = (0..n)
            .map(|j| if self.is_gate[j] { n + j } else { j })
            .collect();
        PriorityRule::Explicit(order)
    }

    /// The graph-aware priority that realises the (near-)optimal schedule:
    /// gates first.
    pub fn gate_first_priority(&self) -> PriorityRule {
        let n = self.instance.num_jobs();
        let order: Vec<usize> = (0..n)
            .map(|j| if self.is_gate[j] { j } else { n + j })
            .collect();
        PriorityRule::Explicit(order)
    }

    /// The makespan of the (near-)optimal pipelined schedule, used as the
    /// denominator of the Theorem 6 ratio: type `i`'s `2M (+1 gate)` unit
    /// jobs start when gate `i−1` finishes (time `i`) and run on 2 units.
    pub fn optimal_makespan_bound(&self) -> f64 {
        // Type d-1 is the last to start (at time d-1) and has 2M unit jobs on
        // 2 units: finishes at (d-1) + M. Earlier types carry one extra gate
        // job; type i finishes by i + M + 1. The maximum is the bound below.
        let d = self.d as f64;
        let m = self.m as f64;
        (d - 1.0 + m).max(m + 1.0 + (d - 2.0).max(0.0))
    }

    /// The lower bound `d` on the worst-case ratio of local list scheduling
    /// (Theorem 6) that this family approaches as `M → ∞`.
    pub fn asymptotic_ratio(&self) -> f64 {
        self.d as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list_scheduler::ListScheduler;

    #[test]
    fn construction_counts() {
        let t = Theorem6Instance::build(3, 5).unwrap();
        // 3 types * 10 bulk + 2 gates = 32 jobs.
        assert_eq!(t.instance.num_jobs(), 32);
        assert_eq!(t.is_gate.iter().filter(|&&g| g).count(), 2);
        assert_eq!(t.instance.num_resource_types(), 3);
        assert_eq!(t.instance.system.capacity(0), 2);
        // The precedence graph is an out-forest (a "tree" family).
        assert!(t.instance.dag.is_out_forest());
    }

    #[test]
    fn d1_degenerates_to_independent_bulk() {
        let t = Theorem6Instance::build(1, 3).unwrap();
        assert_eq!(t.instance.num_jobs(), 6);
        assert_eq!(t.instance.dag.num_edges(), 0);
    }

    #[test]
    fn adversarial_schedule_is_slow_and_gate_first_is_fast() {
        let t = Theorem6Instance::build(3, 9).unwrap();
        let worst = ListScheduler::new(t.adversarial_priority())
            .schedule(&t.instance, &t.decision)
            .unwrap();
        let best = ListScheduler::new(t.gate_first_priority())
            .schedule(&t.instance, &t.decision)
            .unwrap();
        // Worst case: types execute essentially one after another, ≈ d(M+1).
        // Best case: pipelined, ≈ M + d.
        assert!(worst.makespan >= (t.d * t.m) as f64 - 1.0);
        assert!(best.makespan <= t.optimal_makespan_bound() + 1.0);
        let ratio = worst.makespan / best.makespan;
        // With M = 9 and d = 3 the ratio is already close to d.
        assert!(ratio > 0.7 * t.d as f64, "ratio {ratio} too small");
        assert!(ratio <= t.d as f64 + 1.0);
    }

    #[test]
    fn ratio_approaches_d_as_m_grows() {
        let mut last_ratio = 0.0;
        for m in [3usize, 12, 48] {
            let t = Theorem6Instance::build(4, m).unwrap();
            let worst = ListScheduler::new(t.adversarial_priority())
                .schedule(&t.instance, &t.decision)
                .unwrap();
            let best = ListScheduler::new(t.gate_first_priority())
                .schedule(&t.instance, &t.decision)
                .unwrap();
            let ratio = worst.makespan / best.makespan;
            assert!(ratio >= last_ratio - 1e-9, "ratio should grow with M");
            last_ratio = ratio;
        }
        assert!(last_ratio > 3.4, "ratio {last_ratio} should approach d = 4");
    }

    #[test]
    fn critical_path_priority_also_recovers_good_schedule() {
        // The graph-aware critical-path rule prioritises gates naturally
        // (their subtree is huge), so it must match the gate-first schedule.
        let t = Theorem6Instance::build(3, 8).unwrap();
        let cp = ListScheduler::new(PriorityRule::CriticalPath)
            .schedule(&t.instance, &t.decision)
            .unwrap();
        assert!(cp.makespan <= t.optimal_makespan_bound() + 1.0);
    }

    #[test]
    fn priorities_are_local_vs_global() {
        let t = Theorem6Instance::build(2, 2).unwrap();
        assert!(t.adversarial_priority().is_local());
        assert!(t.gate_first_priority().is_local());
        assert!(!PriorityRule::CriticalPath.is_local());
    }
}
