//! Time-indexed free-resource structure: a slot set.
//!
//! A [`SlotSet`] partitions the time axis `[begin, +∞)` into contiguous,
//! non-overlapping *slots*, each carrying the per-type free amounts that hold
//! throughout its interval. Claims split slots at their boundaries and
//! subtract from every slot they cover; releases add back and re-merge
//! adjacent slots whose free vectors became equal again. This is the OAR
//! slot-set design: availability over time is piecewise constant, so every
//! placement question ("when can a request of `req` for `dur` first run?")
//! reduces to scanning slot boundaries.
//!
//! The first-fit query is indexed: a segment tree over per-type slot maxima
//! lets [`SlotSet::first_fit_after`] descend only into subtrees that can
//! possibly satisfy the request, making the query O(log S) in the number of
//! slots for single-type (and structured multi-type) workloads instead of a
//! linear scan. The tree is rebuilt lazily — mutations just mark it dirty —
//! so bursts of claims between queries cost nothing extra.
//!
//! All arithmetic mirrors [`crate::ResourceState`]: free amounts are `f64`,
//! requests are integer `u64` amounts, and every fit test uses the shared
//! [`crate::EPS`] tolerance. Capacities are integers below 2^53, so the
//! subtract/add operations here are exact and a claim followed by its release
//! restores the free vector bit-for-bit — which is what lets adjacent slots
//! re-merge on bitwise equality.

use crate::EPS;
use mrls_model::Allocation;

/// One time interval `[begin, end)` with the per-type free amounts that hold
/// throughout it. The last slot of a set always extends to `+∞`.
#[derive(Debug, Clone, PartialEq)]
pub struct Slot {
    /// Inclusive start of the interval.
    pub begin: f64,
    /// Exclusive end of the interval (`+∞` for the final slot).
    pub end: f64,
    /// Free amount per resource type throughout the interval. May be
    /// negative after a capacity drop while jobs still hold resources.
    pub free: Vec<f64>,
}

impl Slot {
    /// `true` iff `req` fits in this slot's free amounts (within tolerance).
    pub fn fits(&self, req: &Allocation) -> bool {
        (0..self.free.len()).all(|i| req[i] as f64 <= self.free[i] + EPS)
    }
}

/// A time-sorted, gap-free sequence of [`Slot`]s covering `[begin, +∞)`,
/// with a lazily maintained segment-tree index over per-type slot maxima for
/// logarithmic first-fit-in-time queries.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotSet {
    slots: Vec<Slot>,
    d: usize,
    /// Node-major max tree: node `k` owns `tree[k*d .. (k+1)*d]`, the
    /// per-type max over the slots below it. 1-indexed, `leaves` leaves.
    tree: Vec<f64>,
    /// Node-major min tree mirroring `tree`: the per-type *min* over the
    /// slots below each node. A subtree whose min fits a request proves the
    /// whole span fits, which is what lets the window query skip provably
    /// feasible spans instead of walking them slot by slot.
    tmin: Vec<f64>,
    leaves: usize,
    dirty: bool,
}

/// `true` iff `[t0, t1)` is a non-empty window. A NaN bound makes the window
/// empty: every window operation treats it as a no-op instead of splitting a
/// slot at NaN.
fn nonempty(t0: f64, t1: f64) -> bool {
    t1 > t0
}

impl SlotSet {
    /// A fully idle timeline starting at `t0` with integer capacities.
    pub fn new(capacities: &[u64], t0: f64) -> Self {
        SlotSet::from_free(capacities.iter().map(|&c| c as f64).collect(), t0)
    }

    /// A single-slot timeline starting at `t0` with the given free amounts
    /// (taken verbatim, e.g. from a checkpoint).
    pub fn from_free(free: Vec<f64>, t0: f64) -> Self {
        let d = free.len();
        SlotSet {
            slots: vec![Slot {
                begin: t0,
                end: f64::INFINITY,
                free,
            }],
            d,
            tree: Vec::new(),
            tmin: Vec::new(),
            leaves: 0,
            dirty: true,
        }
    }

    /// Number of resource types `d`.
    pub fn num_resource_types(&self) -> usize {
        self.d
    }

    /// Number of slots currently in the set.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// The slots, in time order.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Start of the covered time axis (begin of the first slot).
    pub fn begin(&self) -> f64 {
        self.slots[0].begin
    }

    /// The free amounts of the first ("now") slot.
    pub fn now_free(&self) -> &[f64] {
        &self.slots[0].free
    }

    /// Index of the slot whose interval contains `t` (clamped to the first
    /// slot for `t` before `begin`).
    fn slot_index(&self, t: f64) -> usize {
        // partition_point: first slot with end > t.
        self.slots.partition_point(|s| s.end <= t)
    }

    /// Ensures a slot boundary exists at `t` (no-op when `t` already is one,
    /// lies at/before the start of the axis, is `+∞` — the end of the last
    /// slot — or is NaN). Never creates zero-width slots.
    fn split_at(&mut self, t: f64) {
        if !nonempty(self.slots[0].begin, t) || t == f64::INFINITY {
            return;
        }
        let k = self.slot_index(t);
        let s = &self.slots[k];
        if s.begin == t {
            return;
        }
        let tail = Slot {
            begin: t,
            end: s.end,
            free: s.free.clone(),
        };
        self.slots[k].end = t;
        self.slots.insert(k + 1, tail);
        self.dirty = true;
        mrls_obs::counter_add("core.slotset.splits", 1);
    }

    /// Subtracts `alloc` from every slot intersecting `[t0, t1)`, splitting
    /// at the window boundaries first. A claim with `t1 <= t0` or a NaN
    /// bound is a no-op.
    pub fn claim(&mut self, t0: f64, t1: f64, alloc: &Allocation) {
        if !nonempty(t0, t1) {
            return;
        }
        self.split_at(t0);
        self.split_at(t1);
        let from = self.slot_index(t0.max(self.slots[0].begin));
        for s in &mut self.slots[from..] {
            if s.begin >= t1 {
                break;
            }
            for i in 0..s.free.len() {
                s.free[i] -= alloc[i] as f64;
            }
        }
        self.dirty = true;
    }

    /// Adds `alloc` back to every slot intersecting `[t0, t1)`, then merges
    /// adjacent slots whose free vectors became equal again. A release with
    /// `t1 <= t0` (e.g. the EPS-sliver of a claim that already expired) or a
    /// NaN bound is a no-op.
    pub fn release(&mut self, t0: f64, t1: f64, alloc: &Allocation) {
        if !nonempty(t0, t1) {
            return;
        }
        self.split_at(t0);
        self.split_at(t1);
        let from = self.slot_index(t0.max(self.slots[0].begin));
        let mut to = from;
        for s in &mut self.slots[from..] {
            if s.begin >= t1 {
                break;
            }
            for i in 0..s.free.len() {
                s.free[i] += alloc[i] as f64;
            }
            to += 1;
        }
        self.merge_equal_neighbors(from.saturating_sub(1), to + 1);
        self.dirty = true;
    }

    /// Merges runs of adjacent slots with equal free vectors within the index
    /// range `[lo, hi]` (clamped), in a single left-to-right sweep.
    fn merge_equal_neighbors(&mut self, lo: usize, hi: usize) {
        let hi = hi.min(self.slots.len().saturating_sub(1));
        let mut k = hi.min(self.slots.len().saturating_sub(1));
        let mut merged = 0u64;
        while k > lo {
            if self.slots[k - 1].free == self.slots[k].free {
                self.slots[k - 1].end = self.slots[k].end;
                self.slots.remove(k);
                merged += 1;
            }
            k -= 1;
        }
        if merged > 0 {
            mrls_obs::counter_add("core.slotset.merges", merged);
        }
    }

    /// Subtracts `alloc` from **every** slot — "claimed from now on". This is
    /// the engine-facing operation: the engine releases resources by event,
    /// not by planned window, so its claims have no end time.
    pub fn claim_all(&mut self, alloc: &Allocation) {
        for s in &mut self.slots {
            for i in 0..s.free.len() {
                s.free[i] -= alloc[i] as f64;
            }
        }
        self.dirty = true;
    }

    /// Adds `alloc` back to **every** slot, merging equal neighbors.
    pub fn release_all(&mut self, alloc: &Allocation) {
        for s in &mut self.slots {
            for i in 0..s.free.len() {
                s.free[i] += alloc[i] as f64;
            }
        }
        let last = self.slots.len();
        self.merge_equal_neighbors(0, last);
        self.dirty = true;
    }

    /// Adds `alloc` back to every slot from `t0` onward (`[t0, +∞)`),
    /// splitting at `t0`: a future release of a currently held claim. A NaN
    /// `t0` is a no-op.
    pub fn release_from(&mut self, t0: f64, alloc: &Allocation) {
        if t0.is_nan() {
            return;
        }
        self.split_at(t0);
        let from = self.slot_index(t0.max(self.slots[0].begin));
        for s in &mut self.slots[from..] {
            for i in 0..s.free.len() {
                s.free[i] += alloc[i] as f64;
            }
        }
        let last = self.slots.len();
        self.merge_equal_neighbors(from.saturating_sub(1), last);
        self.dirty = true;
    }

    /// Shifts the free amount of type `i` by `delta` in every slot (a
    /// capacity change taking effect now and lasting until further notice).
    pub fn shift_all(&mut self, i: usize, delta: f64) {
        for s in &mut self.slots {
            s.free[i] += delta;
        }
        self.dirty = true;
    }

    /// Advances the start of the time axis to `t`: slots entirely in the past
    /// are dropped and the first surviving slot is clamped to begin at `t`.
    /// Moving backwards, or to NaN, is a no-op.
    pub fn advance_to(&mut self, t: f64) {
        if t.is_nan() {
            return;
        }
        let drop = self.slot_index(t).min(self.slots.len().saturating_sub(1));
        if drop > 0 {
            self.slots.drain(..drop);
            self.dirty = true;
        }
        if self.slots[0].begin < t {
            self.slots[0].begin = t;
        }
    }

    /// `true` iff `req` fits in every slot intersecting `[t0, t0 + dur)`.
    pub fn fits_window(&self, t0: f64, dur: f64, req: &Allocation) -> bool {
        let need_end = t0 + dur;
        let from = self.slot_index(t0.max(self.slots[0].begin));
        for s in &self.slots[from..] {
            if s.begin >= need_end {
                break;
            }
            if !s.fits(req) {
                return false;
            }
        }
        true
    }

    fn ensure_index(&mut self) {
        if !self.dirty {
            return;
        }
        mrls_obs::counter_add("core.slotset.index_rebuilds", 1);
        let n = self.slots.len();
        let leaves = n.next_power_of_two();
        self.leaves = leaves;
        self.tree.clear();
        self.tree.resize(2 * leaves * self.d, f64::NEG_INFINITY);
        // Padding leaves hold +∞ in the min tree so they always "fit": the
        // first-unfit descent then never wanders past the real slots.
        self.tmin.clear();
        self.tmin.resize(2 * leaves * self.d, f64::INFINITY);
        for (k, s) in self.slots.iter().enumerate() {
            let node = (leaves + k) * self.d;
            self.tree[node..node + self.d].copy_from_slice(&s.free);
            self.tmin[node..node + self.d].copy_from_slice(&s.free);
        }
        for node in (1..leaves).rev() {
            for i in 0..self.d {
                let l = self.tree[(2 * node) * self.d + i];
                let r = self.tree[(2 * node + 1) * self.d + i];
                self.tree[node * self.d + i] = l.max(r);
                let l = self.tmin[(2 * node) * self.d + i];
                let r = self.tmin[(2 * node + 1) * self.d + i];
                self.tmin[node * self.d + i] = l.min(r);
            }
        }
        self.dirty = false;
    }

    /// `true` iff some slot under `node` could fit `req` per the max index
    /// (a necessary condition; exact for a single resource type).
    fn node_may_fit(&self, node: usize, req: &Allocation) -> bool {
        (0..self.d).all(|i| req[i] as f64 <= self.tree[node * self.d + i] + EPS)
    }

    fn descend_first_fit(
        &self,
        node: usize,
        lo: usize,
        width: usize,
        from: usize,
        req: &Allocation,
        probes: &mut usize,
    ) -> Option<usize> {
        *probes += 1;
        if lo + width <= from || !self.node_may_fit(node, req) {
            return None;
        }
        if width == 1 {
            return if lo < self.slots.len() && self.slots[lo].fits(req) {
                Some(lo)
            } else {
                None
            };
        }
        let half = width / 2;
        self.descend_first_fit(2 * node, lo, half, from, req, probes)
            .or_else(|| self.descend_first_fit(2 * node + 1, lo + half, half, from, req, probes))
    }

    /// First instant `>= t` at which `req` fits, as `(slot index, start)`.
    /// The candidate starts are `t` itself and subsequent slot begins —
    /// availability is piecewise constant, so nothing between boundaries can
    /// change the answer. Returns `None` when no slot from `t` onward fits
    /// (the request exceeds all current and future free amounts).
    pub fn first_fit_after(&mut self, t: f64, req: &Allocation) -> Option<(usize, f64)> {
        self.first_fit_after_counting(t, req).0
    }

    /// [`SlotSet::first_fit_after`] plus the number of tree nodes visited —
    /// the probe count the O(log S) unit test pins.
    pub fn first_fit_after_counting(
        &mut self,
        t: f64,
        req: &Allocation,
    ) -> (Option<(usize, f64)>, usize) {
        self.ensure_index();
        let from = self.slot_index(t);
        let mut probes = 0usize;
        let hit = self.descend_first_fit(1, 0, self.leaves, from, req, &mut probes);
        if mrls_obs::enabled() {
            mrls_obs::counter_add("core.slotset.first_fit_queries", 1);
            mrls_obs::counter_add("core.slotset.first_fit_probes", probes as u64);
        }
        (hit.map(|k| (k, t.max(self.slots[k].begin))), probes)
    }

    /// `true` iff **every** slot under `node` fits `req` per the min index —
    /// a sufficient condition that lets the first-unfit descent skip the
    /// whole subtree.
    fn node_all_fit(&self, node: usize, req: &Allocation) -> bool {
        (0..self.d).all(|i| req[i] as f64 <= self.tmin[node * self.d + i] + EPS)
    }

    /// First slot index `>= from` that does **not** fit `req`, or `None`
    /// when every slot from `from` onward fits. The min tree proves entire
    /// spans feasible in one probe, so the search is O(log S) instead of a
    /// slot-by-slot walk.
    fn descend_first_unfit(
        &self,
        node: usize,
        lo: usize,
        width: usize,
        from: usize,
        req: &Allocation,
        probes: &mut usize,
    ) -> Option<usize> {
        *probes += 1;
        if lo + width <= from || self.node_all_fit(node, req) {
            return None;
        }
        if width == 1 {
            return (lo < self.slots.len() && !self.slots[lo].fits(req)).then_some(lo);
        }
        let half = width / 2;
        self.descend_first_unfit(2 * node, lo, half, from, req, probes)
            .or_else(|| self.descend_first_unfit(2 * node + 1, lo + half, half, from, req, probes))
    }

    /// First instant `>= t` at which `req` fits for `dur` *contiguous* time.
    ///
    /// First-fit on the max tree finds the earliest candidate start; the min
    /// tree then locates the first subsequent slot that breaks the fit. If
    /// that break starts at/after the window's end the candidate is proven
    /// feasible without touching the slots in between; otherwise the query
    /// restarts after the breaking slot. Both descents are O(log S), so a
    /// long feasible window costs O(log S) instead of a walk over every slot
    /// it covers.
    pub fn first_fit_window(&mut self, t: f64, req: &Allocation, dur: f64) -> Option<f64> {
        self.first_fit_window_counting(t, req, dur).0
    }

    /// [`SlotSet::first_fit_window`] plus the number of tree nodes visited
    /// across every descent — the probe count the O(log S) unit test pins.
    pub fn first_fit_window_counting(
        &mut self,
        t: f64,
        req: &Allocation,
        dur: f64,
    ) -> (Option<f64>, usize) {
        self.ensure_index();
        let mut probes = 0usize;
        let mut t_try = t;
        let hit = loop {
            let from = self.slot_index(t_try.max(self.slots[0].begin));
            let Some(k) = self.descend_first_fit(1, 0, self.leaves, from, req, &mut probes) else {
                break None;
            };
            let t0 = t_try.max(self.slots[k].begin);
            let need_end = t0 + dur;
            // Slot k fits; every slot in [k, j) fits too. The window fits
            // iff the first non-fitting slot j starts at/after its end.
            match self.descend_first_unfit(1, 0, self.leaves, k, req, &mut probes) {
                Some(j) if self.slots[j].begin < need_end => t_try = self.slots[j].end,
                _ => break Some(t0),
            }
        };
        if mrls_obs::enabled() {
            mrls_obs::counter_add("core.slotset.window_queries", 1);
            mrls_obs::counter_add("core.slotset.window_probes", probes as u64);
        }
        (hit, probes)
    }

    /// Brute-force timestep prober for [`SlotSet::first_fit_window`]: tries
    /// `t` and every later slot begin in order, linearly scanning the whole
    /// window each time. The differential oracle for the indexed query.
    pub fn first_fit_window_naive(&self, t: f64, req: &Allocation, dur: f64) -> Option<f64> {
        let mut candidates: Vec<f64> = vec![t.max(self.slots[0].begin)];
        for s in &self.slots {
            if s.begin > t {
                candidates.push(s.begin);
            }
        }
        candidates
            .into_iter()
            .find(|&t0| self.fits_window(t0, dur, req))
    }

    /// The free amount of type `i` at instant `t` (clamped into the axis).
    pub fn free_at(&self, t: f64, i: usize) -> f64 {
        let k = self.slot_index(t).min(self.slots.len() - 1);
        self.slots[k].free[i]
    }

    /// `true` iff `self` and `other` hold the same availability function:
    /// the same axis start and equal free amounts at every instant. Slot
    /// boundaries may differ — a claim splits without re-merging, so a set
    /// maintained by claims and releases can keep a boundary between equal
    /// neighbours that a fresh build never creates — and every window query
    /// ([`SlotSet::fits_window`], [`SlotSet::first_fit_window`]) answers the
    /// same on both.
    pub fn same_availability(&self, other: &SlotSet) -> bool {
        let (a, b) = (&self.slots, &other.slots);
        if a[0].begin != b[0].begin {
            return false;
        }
        let (mut i, mut k) = (0, 0);
        // Walk the common refinement of both partitions; both end at +∞.
        while i < a.len() && k < b.len() {
            if a[i].free != b[k].free {
                return false;
            }
            let (ea, eb) = (a[i].end, b[k].end);
            if ea <= eb {
                i += 1;
            }
            if eb <= ea {
                k += 1;
            }
        }
        i == a.len() && k == b.len()
    }

    /// Debug validation of the structural invariants: slots are time-sorted,
    /// contiguous (no gaps, no overlaps), positive-width, and the last slot
    /// extends to `+∞`.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.slots.is_empty() {
            return Err("slot set must cover [begin, +inf)".into());
        }
        for (k, s) in self.slots.iter().enumerate() {
            // partial_cmp, not `>=`: a NaN bound must fail the check too.
            if s.begin.partial_cmp(&s.end) != Some(std::cmp::Ordering::Less) {
                return Err(format!("slot {k} has non-positive width: {s:?}"));
            }
            if s.free.len() != self.d {
                return Err(format!("slot {k} has wrong dimension"));
            }
            if k + 1 < self.slots.len() && s.end != self.slots[k + 1].begin {
                return Err(format!(
                    "gap/overlap between slot {k} (end {}) and {} (begin {})",
                    s.end,
                    k + 1,
                    self.slots[k + 1].begin
                ));
            }
        }
        if self.slots.last().unwrap().end != f64::INFINITY {
            return Err("last slot must extend to +inf".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(v: &[u64]) -> Allocation {
        Allocation::new(v.to_vec())
    }

    #[test]
    fn claim_splits_and_release_merges_back() {
        let mut s = SlotSet::new(&[8, 4], 0.0);
        assert_eq!(s.num_slots(), 1);
        s.claim(2.0, 5.0, &alloc(&[3, 1]));
        s.check_invariants().unwrap();
        assert_eq!(s.num_slots(), 3);
        assert_eq!(s.free_at(0.0, 0), 8.0);
        assert_eq!(s.free_at(2.0, 0), 5.0);
        assert_eq!(s.free_at(4.999, 1), 3.0);
        assert_eq!(s.free_at(5.0, 0), 8.0);
        s.release(2.0, 5.0, &alloc(&[3, 1]));
        s.check_invariants().unwrap();
        assert_eq!(s.num_slots(), 1, "release must merge the split back");
        assert_eq!(s.free_at(3.0, 0), 8.0);
    }

    #[test]
    fn claim_at_existing_boundary_creates_no_zero_width_slot() {
        let mut s = SlotSet::new(&[4], 0.0);
        s.claim(1.0, 3.0, &alloc(&[2]));
        let before = s.num_slots();
        // Claims sharing both boundaries with existing slots must not split.
        s.claim(1.0, 3.0, &alloc(&[1]));
        s.check_invariants().unwrap();
        assert_eq!(s.num_slots(), before);
        assert_eq!(s.free_at(2.0, 0), 1.0);
        // Claim starting exactly at the axis begin: no split either.
        s.claim(0.0, 1.0, &alloc(&[4]));
        s.check_invariants().unwrap();
        assert_eq!(s.free_at(0.5, 0), 0.0);
        assert_eq!(s.free_at(1.5, 0), 1.0);
    }

    #[test]
    fn release_merges_three_neighbors() {
        let mut s = SlotSet::new(&[6], 0.0);
        // Two adjacent claims of the same amount create three boundaries.
        s.claim(1.0, 2.0, &alloc(&[2]));
        s.claim(2.0, 3.0, &alloc(&[2]));
        assert_eq!(s.num_slots(), 4);
        // Releasing across both windows restores 6 everywhere: the two
        // claimed slots and both flanking idle slots must merge into one.
        s.release(1.0, 2.0, &alloc(&[2]));
        s.release(2.0, 3.0, &alloc(&[2]));
        s.check_invariants().unwrap();
        assert_eq!(s.num_slots(), 1);
    }

    #[test]
    fn zero_width_claims_and_releases_are_no_ops() {
        let mut s = SlotSet::new(&[4], 0.0);
        s.claim(3.0, 3.0, &alloc(&[4]));
        s.release(5.0, 5.0, &alloc(&[4]));
        s.release(5.0, 4.0, &alloc(&[4]));
        s.check_invariants().unwrap();
        assert_eq!(s.num_slots(), 1);
        assert_eq!(s.free_at(3.0, 0), 4.0);
    }

    #[test]
    fn nan_bounds_are_empty_windows() {
        let mut s = SlotSet::new(&[4, 2], 0.0);
        s.claim(2.0, 5.0, &alloc(&[1, 1]));
        let before = s.clone();
        s.claim(1.0, f64::NAN, &alloc(&[2, 1]));
        s.claim(f64::NAN, 1.0, &alloc(&[2, 1]));
        s.release(3.0, f64::NAN, &alloc(&[1, 1]));
        s.release(f64::NAN, 4.0, &alloc(&[1, 1]));
        s.check_invariants().unwrap();
        assert_eq!(s, before, "a NaN bound must leave the set untouched");
    }

    #[test]
    fn release_from_and_advance_to_nan_are_no_ops() {
        let mut s = SlotSet::new(&[4], 0.0);
        s.claim_all(&alloc(&[3]));
        s.advance_to(1.0);
        let before = s.clone();
        s.release_from(f64::NAN, &alloc(&[3]));
        s.advance_to(f64::NAN);
        s.check_invariants().unwrap();
        assert_eq!(s, before);
        assert_eq!(s.begin(), 1.0);
        assert_eq!(s.now_free(), &[1.0]);
    }

    #[test]
    fn windows_may_end_at_infinity() {
        let mut s = SlotSet::new(&[4], 0.0);
        s.claim(2.0, f64::INFINITY, &alloc(&[3]));
        s.check_invariants().unwrap();
        assert_eq!(s.num_slots(), 2);
        assert_eq!(s.free_at(1.0, 0), 4.0);
        assert_eq!(s.free_at(1e300, 0), 1.0);
        s.release(2.0, f64::INFINITY, &alloc(&[3]));
        s.check_invariants().unwrap();
        assert_eq!(s.num_slots(), 1);
    }

    #[test]
    fn same_availability_ignores_boundaries_between_equal_slots() {
        // Two adjacent claims of the same amount leave a boundary at 2.0
        // that a single claim over [1, 3) never creates.
        let mut split = SlotSet::new(&[6, 3], 0.0);
        split.claim(1.0, 2.0, &alloc(&[2, 1]));
        split.claim(2.0, 3.0, &alloc(&[2, 1]));
        let mut whole = SlotSet::new(&[6, 3], 0.0);
        whole.claim(1.0, 3.0, &alloc(&[2, 1]));
        assert_ne!(split.num_slots(), whole.num_slots());
        assert!(split.same_availability(&whole));
        assert!(whole.same_availability(&split));
        // Any differing amount, window end or axis start breaks equality.
        let mut other = whole.clone();
        other.claim(2.5, 3.0, &alloc(&[0, 1]));
        assert!(!split.same_availability(&other));
        let mut longer = SlotSet::new(&[6, 3], 0.0);
        longer.claim(1.0, 3.5, &alloc(&[2, 1]));
        assert!(!split.same_availability(&longer));
        let mut later = whole.clone();
        later.advance_to(0.5);
        assert!(!whole.same_availability(&later));
    }

    #[test]
    fn advance_drops_past_slots_and_clamps() {
        let mut s = SlotSet::new(&[4], 0.0);
        s.claim(1.0, 2.0, &alloc(&[1]));
        s.claim(3.0, 4.0, &alloc(&[2]));
        assert_eq!(s.num_slots(), 5);
        s.advance_to(2.5);
        s.check_invariants().unwrap();
        assert_eq!(s.begin(), 2.5);
        assert_eq!(s.free_at(2.6, 0), 4.0);
        assert_eq!(s.free_at(3.5, 0), 2.0);
        // Advancing past every boundary leaves the single infinite slot.
        s.advance_to(10.0);
        s.check_invariants().unwrap();
        assert_eq!(s.num_slots(), 1);
        assert_eq!(s.begin(), 10.0);
        // Backwards is a no-op.
        s.advance_to(1.0);
        assert_eq!(s.begin(), 10.0);
    }

    #[test]
    fn all_slot_ops_mirror_flat_availability() {
        let mut s = SlotSet::new(&[4, 2], 0.0);
        s.claim(1.0, 2.0, &alloc(&[1, 1]));
        s.claim_all(&alloc(&[2, 0]));
        assert_eq!(s.free_at(0.5, 0), 2.0);
        assert_eq!(s.free_at(1.5, 0), 1.0);
        s.shift_all(1, -1.0);
        assert_eq!(s.free_at(1.5, 1), 0.0);
        assert_eq!(s.free_at(3.0, 1), 1.0);
        s.release_all(&alloc(&[2, 0]));
        s.release(1.0, 2.0, &alloc(&[1, 1]));
        s.check_invariants().unwrap();
        assert_eq!(s.num_slots(), 1);
        assert_eq!(s.now_free(), &[4.0, 1.0]);
    }

    #[test]
    fn release_from_opens_capacity_forever() {
        let mut s = SlotSet::new(&[4], 0.0);
        s.claim_all(&alloc(&[3]));
        s.release_from(5.0, &alloc(&[3]));
        s.check_invariants().unwrap();
        assert_eq!(s.free_at(4.9, 0), 1.0);
        assert_eq!(s.free_at(5.0, 0), 4.0);
        assert_eq!(s.free_at(100.0, 0), 4.0);
    }

    #[test]
    fn first_fit_after_matches_linear_scan() {
        let mut s = SlotSet::new(&[8], 0.0);
        s.claim(0.0, 10.0, &alloc(&[6]));
        s.claim(10.0, 20.0, &alloc(&[4]));
        s.claim(20.0, 30.0, &alloc(&[8]));
        // free: [0,10)→2, [10,20)→4, [20,30)→0, [30,∞)→8.
        assert_eq!(s.first_fit_after(0.0, &alloc(&[2])).map(|x| x.1), Some(0.0));
        assert_eq!(
            s.first_fit_after(0.0, &alloc(&[3])).map(|x| x.1),
            Some(10.0)
        );
        assert_eq!(
            s.first_fit_after(12.0, &alloc(&[4])).map(|x| x.1),
            Some(12.0)
        );
        assert_eq!(
            s.first_fit_after(12.0, &alloc(&[5])).map(|x| x.1),
            Some(30.0)
        );
        assert_eq!(s.first_fit_after(0.0, &alloc(&[9])), None);
    }

    #[test]
    fn first_fit_window_needs_contiguous_fit() {
        let mut s = SlotSet::new(&[8], 0.0);
        s.claim(10.0, 20.0, &alloc(&[8]));
        // free: [0,10)→8, [10,20)→0, [20,∞)→8.
        assert_eq!(s.first_fit_window(0.0, &alloc(&[4]), 10.0), Some(0.0));
        assert_eq!(s.first_fit_window(0.0, &alloc(&[4]), 10.5), Some(20.0));
        assert_eq!(s.first_fit_window(5.0, &alloc(&[4]), 5.0), Some(5.0));
        assert_eq!(s.first_fit_window(5.0, &alloc(&[4]), 6.0), Some(20.0));
        assert_eq!(s.first_fit_window(0.0, &alloc(&[9]), 1.0), None);
        // The prober agrees on all of these.
        for (t, req, dur) in [
            (0.0, 4u64, 10.0),
            (0.0, 4, 10.5),
            (5.0, 4, 5.0),
            (5.0, 4, 6.0),
            (0.0, 9, 1.0),
        ] {
            assert_eq!(
                s.first_fit_window(t, &alloc(&[req]), dur),
                s.first_fit_window_naive(t, &alloc(&[req]), dur)
            );
        }
    }

    #[test]
    fn first_fit_probe_count_is_logarithmic() {
        // A long alternating timeline: only the last slot fits. A linear scan
        // probes ~S slots; the max-tree descends two root-to-leaf paths.
        let n = 1024usize;
        let mut s = SlotSet::new(&[8], 0.0);
        for k in 0..n {
            s.claim(
                k as f64,
                k as f64 + 1.0,
                &alloc(&[if k % 2 == 0 { 6 } else { 7 }]),
            );
        }
        assert!(s.num_slots() > n);
        let (hit, probes) = s.first_fit_after_counting(0.0, &alloc(&[8]));
        assert_eq!(hit.map(|x| x.1), Some(n as f64));
        // Two root-to-leaf paths in a tree of 2^11 leaves: comfortably below
        // 4·log2(S) nodes, and far below the ~1025 a linear scan would touch.
        let log2 = (s.num_slots().next_power_of_two().trailing_zeros() + 1) as usize;
        assert!(
            probes <= 4 * log2,
            "probes {probes} exceeds O(log S) bound {}",
            4 * log2
        );
    }

    #[test]
    fn window_probe_count_is_logarithmic_over_long_feasible_spans() {
        // A long fragmented timeline where every slot fits the request: the
        // pre-index walk would touch every slot the window covers (~S); the
        // min tree proves the whole span feasible in two descents.
        let n = 1024usize;
        let mut s = SlotSet::new(&[8], 0.0);
        for k in 0..n {
            s.claim(
                k as f64,
                k as f64 + 1.0,
                &alloc(&[if k % 2 == 0 { 1 } else { 2 }]),
            );
        }
        assert!(s.num_slots() > n);
        let (hit, probes) = s.first_fit_window_counting(0.0, &alloc(&[5]), n as f64 + 10.0);
        assert_eq!(hit, Some(0.0));
        let log2 = (s.num_slots().next_power_of_two().trailing_zeros() + 1) as usize;
        assert!(
            probes <= 8 * log2,
            "probes {probes} exceeds O(log S) bound {}",
            8 * log2
        );
        // Same bound when the answer sits past one infeasible stretch: one
        // restart, each restart O(log S).
        s.claim(100.0, 101.0, &alloc(&[6]));
        let (hit, probes) = s.first_fit_window_counting(90.0, &alloc(&[5]), 50.0);
        assert_eq!(hit, Some(101.0));
        assert!(
            probes <= 12 * log2,
            "probes {probes} exceeds the two-descent-per-restart bound {}",
            12 * log2
        );
    }

    #[test]
    fn window_query_matches_the_naive_prober_exhaustively() {
        // A messy two-type timeline; compare the indexed query against the
        // brute-force prober over a dense (t, req, dur) grid, including
        // never-fitting requests and windows crossing every boundary.
        let mut s = SlotSet::new(&[8, 4], 0.0);
        s.claim(1.0, 4.0, &alloc(&[3, 1]));
        s.claim(2.0, 6.0, &alloc(&[2, 2]));
        s.claim(5.0, 9.0, &alloc(&[4, 0]));
        s.claim(7.0, 8.0, &alloc(&[1, 3]));
        s.claim(10.0, 12.0, &alloc(&[8, 4]));
        s.check_invariants().unwrap();
        for t10 in 0..30 {
            let t = t10 as f64 * 0.5;
            for r0 in [0u64, 1, 2, 3, 5, 8, 9] {
                for r1 in [0u64, 1, 2, 4] {
                    for dur in [0.5, 1.0, 2.5, 4.0, 20.0] {
                        let req = alloc(&[r0, r1]);
                        assert_eq!(
                            s.first_fit_window(t, &req, dur),
                            s.first_fit_window_naive(t, &req, dur),
                            "diverged at t={t} req=[{r0},{r1}] dur={dur}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn negative_free_amounts_are_representable() {
        let mut s = SlotSet::new(&[2], 0.0);
        s.claim_all(&alloc(&[2]));
        s.shift_all(0, -1.0);
        assert_eq!(s.now_free(), &[-1.0]);
        assert_eq!(s.first_fit_after(0.0, &alloc(&[1])), None);
        // Zero requests still "fit" only when free >= -EPS: a zero-component
        // request against negative availability must not fit.
        assert_eq!(s.first_fit_after(0.0, &alloc(&[0])), None);
        s.shift_all(0, 1.0);
        s.release_all(&alloc(&[2]));
        assert_eq!(s.now_free(), &[2.0]);
    }
}
