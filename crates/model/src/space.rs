//! Candidate allocation spaces.
//!
//! Phase 1 of the algorithm works on the set `S` of possible resource
//! allocations of a job; the paper enumerates all `Q = Π_i P(i)` of them.
//! That is fine for small systems but explodes combinatorially, so this
//! module also offers restricted candidate grids (per-axis value lists,
//! powers of two). Restricting the candidate set only *removes* moldability
//! options — every remaining allocation still satisfies Assumptions 1–3 — so
//! all guarantees that are relative to the best allocation *within the
//! candidate set* continue to hold.
//!
//! Every space except an explicit list is a grid: the cartesian product of
//! per-axis value lists ([`AllocationSpace::axes`]). The profile builder
//! walks a grid in place in lexicographic order without materialising it;
//! [`AllocationSpace::enumerate`] materialises the same points in the same
//! order.

use crate::allocation::{Allocation, SystemConfig};
use crate::error::ModelError;
use crate::Result;
use serde::{Deserialize, Serialize};

/// Safety limit on the number of allocations a single job may enumerate.
pub const DEFAULT_ENUMERATION_LIMIT: u128 = 2_000_000;

/// A description of which allocations a job may choose from.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocationSpace {
    /// Every integral allocation `1 ≤ p_i ≤ P(i)` (the paper's set `S`).
    FullGrid,
    /// Per resource type, only powers of two up to the capacity (plus the
    /// capacity itself). Keeps `O(Π log P(i))` candidates.
    PowersOfTwo,
    /// Explicit candidate values per resource type (the cartesian product is
    /// enumerated). Values outside `[1, P(i)]` are clamped/skipped.
    PerAxis(Vec<Vec<u64>>),
    /// An explicit list of candidate allocations.
    Explicit(Vec<Allocation>),
}

impl AllocationSpace {
    /// The per-axis candidate values of a grid space — the space is their
    /// cartesian product — or `None` for an [`AllocationSpace::Explicit`]
    /// list, which is not a grid. Every value lies in `1..=P(i)`, so every
    /// grid point is a valid allocation. Errors: a [`AllocationSpace::PerAxis`]
    /// list of the wrong dimension or with an axis left empty by the capacity
    /// filter, and a grid of more than `limit` points.
    pub fn axes(&self, system: &SystemConfig, limit: u128) -> Result<Option<Vec<Vec<u64>>>> {
        let d = system.num_resource_types();
        let axes: Vec<Vec<u64>> = match self {
            AllocationSpace::FullGrid => {
                // Checked before materialising: a huge capacity must not
                // allocate its value list.
                check_limit(system.full_grid_size(), limit)?;
                (0..d).map(|i| (1..=system.capacity(i)).collect()).collect()
            }
            AllocationSpace::PowersOfTwo => {
                (0..d).map(|i| powers_of_two(system.capacity(i))).collect()
            }
            AllocationSpace::PerAxis(values) => {
                if values.len() != d {
                    return Err(ModelError::DimensionMismatch {
                        expected: d,
                        got: values.len(),
                    });
                }
                let axes: Vec<Vec<u64>> = values
                    .iter()
                    .enumerate()
                    .map(|(i, vals)| per_axis(vals, system.capacity(i)))
                    .collect();
                if axes.iter().any(|a| a.is_empty()) {
                    return Err(ModelError::EmptyAllocationSpace { job: usize::MAX });
                }
                axes
            }
            AllocationSpace::Explicit(_) => return Ok(None),
        };
        check_limit(axes.iter().map(|a| a.len() as u128).product(), limit)?;
        Ok(Some(axes))
    }

    /// Enumerates the candidate allocations for a system, respecting the
    /// safety `limit` on the number of points (use
    /// [`DEFAULT_ENUMERATION_LIMIT`] unless you know better). Grid spaces come
    /// out in lexicographic order of their [`AllocationSpace::axes`].
    pub fn enumerate(&self, system: &SystemConfig, limit: u128) -> Result<Vec<Allocation>> {
        let AllocationSpace::Explicit(allocs) = self else {
            let axes = self.axes(system, limit)?.expect("grid spaces have axes");
            return Ok(cartesian(&axes));
        };
        for alloc in allocs {
            system.validate_allocation(alloc)?;
        }
        if allocs.is_empty() {
            return Err(ModelError::EmptyAllocationSpace { job: usize::MAX });
        }
        check_limit(allocs.len() as u128, limit)?;
        Ok(allocs.clone())
    }

    /// Number of candidate allocations without materialising them.
    pub fn size(&self, system: &SystemConfig) -> u128 {
        match self {
            AllocationSpace::FullGrid => system.full_grid_size(),
            AllocationSpace::PowersOfTwo => (0..system.num_resource_types())
                .map(|i| powers_of_two(system.capacity(i)).len() as u128)
                .product(),
            AllocationSpace::PerAxis(values) => values
                .iter()
                .enumerate()
                .map(|(i, v)| per_axis(v, system.capacity(i)).len() as u128)
                .product(),
            AllocationSpace::Explicit(a) => a.len() as u128,
        }
    }
}

fn check_limit(size: u128, limit: u128) -> Result<()> {
    if size > limit {
        return Err(ModelError::AllocationSpaceTooLarge { size, limit });
    }
    Ok(())
}

/// The powers of two below `cap`, then `cap` itself. Doubling stops once it
/// reaches `cap`, so `cap = u64::MAX` ends after 2^63 instead of saturating.
fn powers_of_two(cap: u64) -> Vec<u64> {
    let mut vals = Vec::new();
    let mut v = 1u64;
    while v < cap {
        vals.push(v);
        v = match v.checked_mul(2) {
            Some(next) => next,
            None => break,
        };
    }
    vals.push(cap);
    vals
}

/// The values of one `PerAxis` list inside `1..=cap`, sorted and deduplicated.
fn per_axis(values: &[u64], cap: u64) -> Vec<u64> {
    let mut v: Vec<u64> = values
        .iter()
        .copied()
        .filter(|&x| x >= 1 && x <= cap)
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Steps a mixed-radix counter over the grid `digits[i] ∈ 0..radices[i]`,
/// last axis fastest (lexicographic order). Returns the lowest axis whose
/// digit changed — every axis after it was reset to 0 — or `None` after the
/// last point, when the counter wraps to all zeros.
pub(crate) fn advance(digits: &mut [usize], radices: &[usize]) -> Option<usize> {
    for i in (0..digits.len()).rev() {
        digits[i] += 1;
        if digits[i] < radices[i] {
            return Some(i);
        }
        digits[i] = 0;
    }
    None
}

/// Cartesian product of per-axis value lists, in lexicographic order.
fn cartesian(axes: &[Vec<u64>]) -> Vec<Allocation> {
    let radices: Vec<usize> = axes.iter().map(Vec::len).collect();
    let mut digits = vec![0usize; axes.len()];
    let mut out = Vec::new();
    loop {
        out.push(Allocation::new(
            digits.iter().zip(axes).map(|(&k, axis)| axis[k]).collect(),
        ));
        if advance(&mut digits, &radices).is_none() {
            return out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_small() {
        let s = SystemConfig::new(vec![2, 3]).unwrap();
        let allocs = AllocationSpace::FullGrid
            .enumerate(&s, DEFAULT_ENUMERATION_LIMIT)
            .unwrap();
        assert_eq!(allocs.len(), 6);
        assert!(allocs.contains(&Allocation::new(vec![1, 1])));
        assert!(allocs.contains(&Allocation::new(vec![2, 3])));
        assert_eq!(AllocationSpace::FullGrid.size(&s), 6);
    }

    #[test]
    fn full_grid_respects_limit() {
        let s = SystemConfig::new(vec![1000, 1000, 1000]).unwrap();
        let err = AllocationSpace::FullGrid.enumerate(&s, 1000).unwrap_err();
        assert!(matches!(err, ModelError::AllocationSpaceTooLarge { .. }));
    }

    #[test]
    fn powers_of_two_include_capacity() {
        let s = SystemConfig::new(vec![12]).unwrap();
        let allocs = AllocationSpace::PowersOfTwo
            .enumerate(&s, DEFAULT_ENUMERATION_LIMIT)
            .unwrap();
        let values: Vec<u64> = allocs.iter().map(|a| a[0]).collect();
        assert_eq!(values, vec![1, 2, 4, 8, 12]);
    }

    #[test]
    fn powers_of_two_exact_capacity_power() {
        let s = SystemConfig::new(vec![8]).unwrap();
        let allocs = AllocationSpace::PowersOfTwo
            .enumerate(&s, DEFAULT_ENUMERATION_LIMIT)
            .unwrap();
        let values: Vec<u64> = allocs.iter().map(|a| a[0]).collect();
        assert_eq!(values, vec![1, 2, 4, 8]);
    }

    #[test]
    fn powers_of_two_at_u64_max_capacity_terminates() {
        // Doubling used to saturate at u64::MAX ≤ cap and loop forever.
        let s = SystemConfig::new(vec![u64::MAX, 3]).unwrap();
        let space = AllocationSpace::PowersOfTwo;
        assert_eq!(space.size(&s), 65 * 3);
        let axes = space
            .axes(&s, DEFAULT_ENUMERATION_LIMIT)
            .unwrap()
            .expect("grid");
        assert_eq!(axes[0].len(), 65);
        assert_eq!(axes[0][63], 1 << 63);
        assert_eq!(axes[0][64], u64::MAX);
        assert_eq!(axes[1], vec![1, 2, 3]);
        let allocs = space.enumerate(&s, DEFAULT_ENUMERATION_LIMIT).unwrap();
        assert_eq!(allocs.len(), 65 * 3);
        assert_eq!(allocs.last().unwrap().amounts(), &[u64::MAX, 3]);
    }

    #[test]
    fn axes_match_enumeration_and_size() {
        let s = SystemConfig::new(vec![1, 5, 12]).unwrap();
        let spaces = [
            AllocationSpace::FullGrid,
            AllocationSpace::PowersOfTwo,
            AllocationSpace::PerAxis(vec![vec![1, 0], vec![5, 2, 2, 7], vec![12, 3, 1]]),
        ];
        for space in spaces {
            let axes = space
                .axes(&s, DEFAULT_ENUMERATION_LIMIT)
                .unwrap()
                .expect("grid");
            let allocs = space.enumerate(&s, DEFAULT_ENUMERATION_LIMIT).unwrap();
            let product: usize = axes.iter().map(Vec::len).product();
            assert_eq!(allocs.len(), product);
            assert_eq!(space.size(&s), product as u128);
            let first: Vec<u64> = axes.iter().map(|a| a[0]).collect();
            assert_eq!(allocs[0].amounts(), first.as_slice());
        }
        let explicit = AllocationSpace::Explicit(vec![Allocation::new(vec![1, 1, 1])]);
        assert_eq!(explicit.axes(&s, 10).unwrap(), None);
        assert!(matches!(
            AllocationSpace::PowersOfTwo.axes(&s, 2),
            Err(ModelError::AllocationSpaceTooLarge { size: 20, limit: 2 })
        ));
    }

    #[test]
    fn per_axis_filters_and_dedups() {
        let s = SystemConfig::new(vec![4, 4]).unwrap();
        let space = AllocationSpace::PerAxis(vec![vec![1, 2, 2, 9], vec![4, 1]]);
        let allocs = space.enumerate(&s, DEFAULT_ENUMERATION_LIMIT).unwrap();
        assert_eq!(allocs.len(), 4); // {1,2} x {1,4}
        assert!(allocs.contains(&Allocation::new(vec![2, 4])));
    }

    #[test]
    fn per_axis_dimension_mismatch() {
        let s = SystemConfig::new(vec![4, 4]).unwrap();
        let space = AllocationSpace::PerAxis(vec![vec![1]]);
        assert!(matches!(
            space.enumerate(&s, DEFAULT_ENUMERATION_LIMIT),
            Err(ModelError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn per_axis_empty_axis() {
        let s = SystemConfig::new(vec![4]).unwrap();
        let space = AllocationSpace::PerAxis(vec![vec![99]]);
        assert!(matches!(
            space.enumerate(&s, DEFAULT_ENUMERATION_LIMIT),
            Err(ModelError::EmptyAllocationSpace { .. })
        ));
    }

    #[test]
    fn explicit_validation() {
        let s = SystemConfig::new(vec![4]).unwrap();
        let ok = AllocationSpace::Explicit(vec![Allocation::new(vec![2])]);
        assert_eq!(ok.enumerate(&s, 10).unwrap().len(), 1);
        let bad = AllocationSpace::Explicit(vec![Allocation::new(vec![9])]);
        assert!(bad.enumerate(&s, 10).is_err());
        let empty = AllocationSpace::Explicit(vec![]);
        assert!(empty.enumerate(&s, 10).is_err());
    }

    #[test]
    fn cartesian_order_is_lexicographic() {
        let s = SystemConfig::new(vec![2, 2]).unwrap();
        let allocs = AllocationSpace::FullGrid
            .enumerate(&s, DEFAULT_ENUMERATION_LIMIT)
            .unwrap();
        let amounts: Vec<Vec<u64>> = allocs.iter().map(|a| a.amounts().to_vec()).collect();
        assert_eq!(
            amounts,
            vec![vec![1, 1], vec![1, 2], vec![2, 1], vec![2, 2]]
        );
    }

    #[test]
    fn serde_roundtrip() {
        let space = AllocationSpace::PerAxis(vec![vec![1, 2], vec![3]]);
        let json = serde_json::to_string(&space).unwrap();
        let back: AllocationSpace = serde_json::from_str(&json).unwrap();
        assert_eq!(space, back);
    }
}
