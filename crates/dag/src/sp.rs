//! Series-parallel decomposition of precedence graphs.
//!
//! The paper proves improved ratios (Theorems 3 and 4) when the precedence
//! constraints form a *series-parallel graph or tree*, using the FPTAS of
//! Lepère, Trystram and Woeginger (Lemma 7). That FPTAS is a dynamic program
//! over the series-parallel decomposition, which this module computes.
//!
//! ## Modelling note
//!
//! We work with **series-parallel partial orders** (a.k.a. N-free orders):
//! * a single job is series-parallel;
//! * the *series* composition `S(G1, …, Gk)` puts every job of `Gi` before
//!   every job of `Gj` for `i < j`;
//! * the *parallel* composition `P(G1, …, Gk)` is the disjoint union.
//!
//! This is the standard formulation the Lepère et al. dynamic program is
//! stated for; it contains chains, in-/out-trees (forests) and independent
//! sets, and the cost recurrences (`C` adds under series and maxes under
//! parallel, `A` always adds) are exactly those used by the FPTAS. The
//! two-terminal "merged source/sink" definition quoted in the paper describes
//! the same family up to the bookkeeping of shared endpoint jobs, so this
//! module works with the formulation above.
//!
//! Recognition follows Valdes–Tarjan–Lawler: a partial order is
//! series-parallel iff it can be recursively split either into the connected
//! components of its *comparability* graph (parallel composition) or into the
//! linearly-ordered connected components of its *incomparability* graph
//! (series composition); otherwise it contains the forbidden "N" sub-order.

use crate::error::DagError;
use crate::graph::{Dag, DagBuilder, NodeId};
use crate::reachability::Reachability;
use crate::Result;
use serde::{Deserialize, Serialize};

/// A series-parallel decomposition expression whose leaves are jobs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpExpr {
    /// A single job.
    Job(NodeId),
    /// Series composition: every job of child `i` precedes every job of child
    /// `i + 1`.
    Series(Vec<SpExpr>),
    /// Parallel composition: children are mutually unordered.
    Parallel(Vec<SpExpr>),
}

impl SpExpr {
    /// Builds a series composition, flattening nested series children.
    pub fn series(children: Vec<SpExpr>) -> SpExpr {
        let mut flat = Vec::with_capacity(children.len());
        for c in children {
            match c {
                SpExpr::Series(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            flat.pop().expect("length checked")
        } else {
            SpExpr::Series(flat)
        }
    }

    /// Builds a parallel composition, flattening nested parallel children.
    pub fn parallel(children: Vec<SpExpr>) -> SpExpr {
        let mut flat = Vec::with_capacity(children.len());
        for c in children {
            match c {
                SpExpr::Parallel(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            flat.pop().expect("length checked")
        } else {
            SpExpr::Parallel(flat)
        }
    }

    /// All jobs appearing in the expression, in left-to-right order.
    pub fn jobs(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.collect_jobs(&mut out);
        out
    }

    fn collect_jobs(&self, out: &mut Vec<NodeId>) {
        match self {
            SpExpr::Job(j) => out.push(*j),
            SpExpr::Series(cs) | SpExpr::Parallel(cs) => {
                for c in cs {
                    c.collect_jobs(out);
                }
            }
        }
    }

    /// Number of jobs in the expression.
    pub fn num_jobs(&self) -> usize {
        match self {
            SpExpr::Job(_) => 1,
            SpExpr::Series(cs) | SpExpr::Parallel(cs) => cs.iter().map(SpExpr::num_jobs).sum(),
        }
    }

    /// Depth of the expression tree (a single job has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            SpExpr::Job(_) => 1,
            SpExpr::Series(cs) | SpExpr::Parallel(cs) => {
                1 + cs.iter().map(SpExpr::depth).max().unwrap_or(0)
            }
        }
    }

    /// Minimal (source) jobs of the induced order.
    pub fn minimal_jobs(&self) -> Vec<NodeId> {
        match self {
            SpExpr::Job(j) => vec![*j],
            SpExpr::Series(cs) => cs.first().map(SpExpr::minimal_jobs).unwrap_or_default(),
            SpExpr::Parallel(cs) => cs.iter().flat_map(SpExpr::minimal_jobs).collect(),
        }
    }

    /// Maximal (sink) jobs of the induced order.
    pub fn maximal_jobs(&self) -> Vec<NodeId> {
        match self {
            SpExpr::Job(j) => vec![*j],
            SpExpr::Series(cs) => cs.last().map(SpExpr::maximal_jobs).unwrap_or_default(),
            SpExpr::Parallel(cs) => cs.iter().flat_map(SpExpr::maximal_jobs).collect(),
        }
    }

    /// Builds the (transitively reduced) DAG induced by the expression over
    /// `num_nodes` jobs. Jobs not mentioned in the expression become isolated
    /// nodes.
    pub fn to_dag(&self, num_nodes: usize) -> Result<Dag> {
        let mut builder = DagBuilder::new(num_nodes);
        self.add_edges(&mut builder)?;
        builder.build()
    }

    fn add_edges(&self, builder: &mut DagBuilder) -> Result<()> {
        match self {
            SpExpr::Job(_) => Ok(()),
            SpExpr::Parallel(cs) => {
                for c in cs {
                    c.add_edges(builder)?;
                }
                Ok(())
            }
            SpExpr::Series(cs) => {
                for c in cs {
                    c.add_edges(builder)?;
                }
                for w in cs.windows(2) {
                    for &u in &w[0].maximal_jobs() {
                        for &v in &w[1].minimal_jobs() {
                            builder.add_edge(u, v)?;
                        }
                    }
                }
                Ok(())
            }
        }
    }
}

/// The result of successfully decomposing a DAG into a series-parallel
/// expression.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpDecomposition {
    /// The decomposition expression; its leaves are exactly the DAG's nodes.
    pub expr: SpExpr,
}

impl SpDecomposition {
    /// Attempts to decompose `dag` as a series-parallel order.
    ///
    /// Returns [`DagError::NotSeriesParallel`] if the induced partial order
    /// contains the forbidden "N" pattern, and [`DagError::EmptyGraph`] for a
    /// graph without nodes.
    pub fn decompose(dag: &Dag) -> Result<SpDecomposition> {
        if dag.num_nodes() == 0 {
            return Err(DagError::EmptyGraph);
        }
        let reach = dag.reachability();
        let all: Vec<NodeId> = (0..dag.num_nodes()).collect();
        let expr = decompose_set(&all, &reach)?;
        Ok(SpDecomposition { expr })
    }

    /// Verifies that the decomposition's leaves are exactly `0..num_nodes`,
    /// each appearing once.
    pub fn covers_all_jobs(&self, num_nodes: usize) -> bool {
        let mut seen = vec![false; num_nodes];
        for j in self.expr.jobs() {
            if j >= num_nodes || seen[j] {
                return false;
            }
            seen[j] = true;
        }
        seen.into_iter().all(|s| s)
    }
}

/// Recursive Valdes–Tarjan–Lawler style decomposition of the sub-order induced
/// by `nodes`.
fn decompose_set(nodes: &[NodeId], reach: &Reachability) -> Result<SpExpr> {
    debug_assert!(!nodes.is_empty());
    if nodes.len() == 1 {
        return Ok(SpExpr::Job(nodes[0]));
    }

    // --- Parallel split: connected components of the comparability graph ---
    let comp_components = components(nodes, |u, v| reach.comparable(u, v));
    if comp_components.len() > 1 {
        let children = comp_components
            .into_iter()
            .map(|c| decompose_set(&c, reach))
            .collect::<Result<Vec<_>>>()?;
        return Ok(SpExpr::parallel(children));
    }

    // --- Series split: connected components of the incomparability graph ---
    let incomp_components = components(nodes, |u, v| !reach.comparable(u, v));
    if incomp_components.len() > 1 {
        // Order components by how many other components precede them (an
        // integer key, so the sort never sees an inconsistent comparator even
        // on malformed inputs), then verify every cross pair agrees.
        let reps: Vec<NodeId> = incomp_components.iter().map(|c| c[0]).collect();
        let mut keyed: Vec<(usize, Vec<NodeId>)> = incomp_components
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let preceding = reps
                    .iter()
                    .enumerate()
                    .filter(|&(j, &r)| j != i && reach.reaches(r, c[0]))
                    .count();
                (preceding, c)
            })
            .collect();
        keyed.sort_by_key(|(k, _)| *k);
        let ordered: Vec<Vec<NodeId>> = keyed.into_iter().map(|(_, c)| c).collect();
        for i in 0..ordered.len() {
            for j in (i + 1)..ordered.len() {
                for &u in &ordered[i] {
                    for &v in &ordered[j] {
                        if !reach.reaches(u, v) {
                            return Err(DagError::NotSeriesParallel);
                        }
                    }
                }
            }
        }
        let children = ordered
            .into_iter()
            .map(|c| decompose_set(&c, reach))
            .collect::<Result<Vec<_>>>()?;
        return Ok(SpExpr::series(children));
    }

    Err(DagError::NotSeriesParallel)
}

/// Connected components of the undirected graph over `nodes` whose adjacency
/// is given by `adjacent`. Components are returned with their nodes in the
/// original relative order.
fn components<F>(nodes: &[NodeId], adjacent: F) -> Vec<Vec<NodeId>>
where
    F: Fn(NodeId, NodeId) -> bool,
{
    let k = nodes.len();
    let mut comp = vec![usize::MAX; k];
    let mut num_comp = 0usize;
    for start in 0..k {
        if comp[start] != usize::MAX {
            continue;
        }
        let id = num_comp;
        num_comp += 1;
        let mut stack = vec![start];
        comp[start] = id;
        while let Some(i) = stack.pop() {
            for j in 0..k {
                if comp[j] == usize::MAX && adjacent(nodes[i], nodes[j]) {
                    comp[j] = id;
                    stack.push(j);
                }
            }
        }
    }
    let mut out = vec![Vec::new(); num_comp];
    for (i, &c) in comp.iter().enumerate() {
        out[c].push(nodes[i]);
    }
    out
}

impl Dag {
    /// `true` iff the precedence graph is a series-parallel order.
    pub fn is_series_parallel(&self) -> bool {
        self.num_nodes() == 0 || SpDecomposition::decompose(self).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn single_job() {
        let g = Dag::independent(1);
        let d = SpDecomposition::decompose(&g).unwrap();
        assert_eq!(d.expr, SpExpr::Job(0));
        assert!(d.covers_all_jobs(1));
    }

    #[test]
    fn independent_is_parallel() {
        let g = Dag::independent(3);
        let d = SpDecomposition::decompose(&g).unwrap();
        match &d.expr {
            SpExpr::Parallel(cs) => assert_eq!(cs.len(), 3),
            other => panic!("expected parallel, got {other:?}"),
        }
        assert!(d.covers_all_jobs(3));
    }

    #[test]
    fn chain_is_series() {
        let g = Dag::chain(4);
        let d = SpDecomposition::decompose(&g).unwrap();
        match &d.expr {
            SpExpr::Series(cs) => assert_eq!(cs.len(), 4),
            other => panic!("expected series, got {other:?}"),
        }
    }

    #[test]
    fn diamond_decomposes() {
        let d = SpDecomposition::decompose(&diamond()).unwrap();
        assert!(d.covers_all_jobs(4));
        assert_eq!(d.expr.num_jobs(), 4);
        // Root must be a series with the fork in the middle.
        match &d.expr {
            SpExpr::Series(cs) => {
                assert_eq!(cs.len(), 3);
                assert_eq!(cs[0], SpExpr::Job(0));
                assert_eq!(cs[2], SpExpr::Job(3));
                match &cs[1] {
                    SpExpr::Parallel(ps) => assert_eq!(ps.len(), 2),
                    other => panic!("middle should be parallel, got {other:?}"),
                }
            }
            other => panic!("expected series root, got {other:?}"),
        }
    }

    #[test]
    fn n_graph_rejected() {
        let g = Dag::from_edges(4, &[(0, 2), (1, 2), (1, 3)]).unwrap();
        assert_eq!(
            SpDecomposition::decompose(&g).unwrap_err(),
            DagError::NotSeriesParallel
        );
        assert!(!g.is_series_parallel());
    }

    #[test]
    fn out_tree_decomposes() {
        let g = Dag::from_edges(7, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]).unwrap();
        let d = SpDecomposition::decompose(&g).unwrap();
        assert!(d.covers_all_jobs(7));
    }

    #[test]
    fn empty_graph_error() {
        assert_eq!(
            SpDecomposition::decompose(&Dag::independent(0)).unwrap_err(),
            DagError::EmptyGraph
        );
        assert!(Dag::independent(0).is_series_parallel());
    }

    #[test]
    fn expression_roundtrip_to_dag() {
        // S(0, P(1, S(2, 3)), 4)
        let expr = SpExpr::series(vec![
            SpExpr::Job(0),
            SpExpr::parallel(vec![
                SpExpr::Job(1),
                SpExpr::series(vec![SpExpr::Job(2), SpExpr::Job(3)]),
            ]),
            SpExpr::Job(4),
        ]);
        let dag = expr.to_dag(5).unwrap();
        assert!(dag.is_series_parallel());
        let reach = dag.reachability();
        assert!(reach.reaches(0, 1));
        assert!(reach.reaches(0, 4));
        assert!(reach.reaches(2, 3));
        assert!(reach.reaches(3, 4));
        assert!(!reach.comparable(1, 2));
        assert!(!reach.comparable(1, 3));
        // Re-decomposition covers all jobs.
        let d = SpDecomposition::decompose(&dag).unwrap();
        assert!(d.covers_all_jobs(5));
    }

    #[test]
    fn series_flattening() {
        let e = SpExpr::series(vec![
            SpExpr::series(vec![SpExpr::Job(0), SpExpr::Job(1)]),
            SpExpr::Job(2),
        ]);
        match e {
            SpExpr::Series(cs) => assert_eq!(cs.len(), 3),
            other => panic!("expected flattened series, got {other:?}"),
        }
    }

    #[test]
    fn parallel_flattening_and_singleton() {
        let e = SpExpr::parallel(vec![SpExpr::Job(7)]);
        assert_eq!(e, SpExpr::Job(7));
        let e2 = SpExpr::parallel(vec![
            SpExpr::parallel(vec![SpExpr::Job(0), SpExpr::Job(1)]),
            SpExpr::Job(2),
        ]);
        assert_eq!(e2.num_jobs(), 3);
    }

    #[test]
    fn minimal_maximal_jobs() {
        let expr = SpExpr::series(vec![
            SpExpr::parallel(vec![SpExpr::Job(0), SpExpr::Job(1)]),
            SpExpr::Job(2),
        ]);
        let mut mins = expr.minimal_jobs();
        mins.sort_unstable();
        assert_eq!(mins, vec![0, 1]);
        assert_eq!(expr.maximal_jobs(), vec![2]);
        assert_eq!(expr.depth(), 3);
    }

    #[test]
    fn decompose_matches_original_order() {
        // Build a moderately complex SP dag and check the decomposition
        // reproduces exactly the same partial order.
        let expr = SpExpr::series(vec![
            SpExpr::Job(0),
            SpExpr::parallel(vec![
                SpExpr::series(vec![SpExpr::Job(1), SpExpr::Job(2)]),
                SpExpr::series(vec![
                    SpExpr::Job(3),
                    SpExpr::parallel(vec![SpExpr::Job(4), SpExpr::Job(5)]),
                ]),
            ]),
            SpExpr::Job(6),
        ]);
        let dag = expr.to_dag(7).unwrap();
        let decomp = SpDecomposition::decompose(&dag).unwrap();
        let rebuilt = decomp.expr.to_dag(7).unwrap();
        assert_eq!(
            dag.transitive_closure(),
            rebuilt.transitive_closure(),
            "decomposition must induce the same partial order"
        );
    }
}
