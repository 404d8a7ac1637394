//! Scheduling policies: how a run reacts (or not) when reality diverges from
//! the plan.
//!
//! The engine enforces the invariants; a [`Policy`] only decides *which*
//! ready jobs start and with which allocations. Three reference policies
//! cover the reaction spectrum:
//!
//! * [`StaticPolicy`] — replay the plan order verbatim; no backfilling, no
//!   re-allocation. Jobs slide when their predecessors run long.
//! * [`ReactiveListPolicy`] — run Phase 2's placement pass (the shared
//!   [`ListScheduler::schedule_ready`] routine) over the actual ready set,
//!   reusing the Phase-1 allocations.
//! * [`FullReschedulePolicy`] — on perturbation events (arrivals, capacity
//!   changes, stragglers) re-invoke the complete two-phase [`MrlsScheduler`]
//!   on the pending jobs and adopt its new allocations and priorities.
//!
//! All three are **indexed per event**: the list policies keep a persistent
//! priority-ordered [`ReadyQueue`] mirroring the engine's ready set (newly
//! ready jobs are binary-inserted from the event batch instead of re-sorting
//! a fresh clone at every decision point), and every policy carries a
//! *placement watermark* (`settled`): once a placement pass ran and the only
//! world changes since are the policy's own starts — which strictly shrink
//! availability — a repeat pass provably starts nothing and is skipped
//! outright. Both changes are behaviour-preserving by construction; the
//! serve differential suite pins them byte-identical to the pre-index
//! semantics.
//!
//! In [`PlacementMode::LookAhead`] the list policies also keep their
//! planning timeline across decision points (`LookaheadTimeline`): starts
//! claim their windows, and completions, failures and capacity changes
//! repair the one slot set, instead of every pass cloning the engine's
//! availability and releasing each running job into it. The maintained
//! timeline holds the same availability function as a fresh rebuild at every
//! pass (debug-asserted), so look-ahead decisions are unchanged. `AtEvent`
//! policies carry no timeline.

use crate::engine::{SimError, SimState};
use crate::trace::TraceEvent;
use mrls_core::{
    ListScheduler, MrlsConfig, MrlsScheduler, PlacementMode, PriorityRule, ReadyQueue, SlotSet,
};
use mrls_model::{Allocation, Instance, MoldableJob, SystemConfig};
use serde::{Deserialize, Serialize};

/// The uncompleted, unabandoned jobs of a state, ascending — the **live
/// frontier**. Every job a policy can still start is in here; running jobs
/// are included because under failure injection a running attempt can fail
/// and re-enter the ready set, so the mirrored queue's universe must cover
/// them. Because a successor can only start after its predecessors complete,
/// every descendant of a member is also a member: the frontier is
/// successor-closed, which is what lets policies restrict their per-drive
/// initialisation to it. Scanning for it is O(world); callers that already
/// track the frontier (the `mrls-serve` service core) pass it to
/// [`Policy::on_plan_update`] instead so a long-lived policy instance
/// re-initialises in O(live).
fn live_frontier(state: &SimState<'_>) -> Vec<usize> {
    (0..state.instance.num_jobs())
        .filter(|&j| !state.completed[j] && !state.abandoned[j])
        .collect()
}

/// The planning timeline a look-ahead pass places against: the authoritative
/// availability from `now` on, with every running job's allocation returned
/// at its (currently known) finish time. Completions at `now` were already
/// processed, so every running job finishes strictly later than `now` and
/// the first slot stays exactly the engine's availability — look-ahead can
/// never start a job the engine would reject.
///
/// This is the one builder of the timeline: [`LookaheadTimeline`] calls it
/// when a policy is (re-)initialised and, in debug builds, at every pass as
/// the oracle its event-maintained copy must equal. A rebuild costs
/// O(running · slots); the maintained copy replaces it on the per-pass path.
fn lookahead_timeline(state: &SimState<'_>) -> SlotSet {
    let mut timeline = state.resources.timeline(state.now);
    for r in &state.running {
        timeline.release_from(r.finish.max(state.now), state.alloc_used(r.job));
    }
    timeline
}

/// The look-ahead timeline of a list policy in [`PlacementMode::LookAhead`],
/// kept across decision points and repaired by events instead of rebuilt by
/// [`lookahead_timeline`] at every pass (the OAR shape: one slot set, split
/// on each claim).
///
/// It holds the availability `capacity - Σ alloc` over every running
/// attempt's window `[start, end)`, from `now` on:
///
/// * a pass claims `[now, now + nominal)` for each job it starts and keeps
///   those windows in `pending`; the engine applies the starts and always
///   asks the policy again right away, and that call corrects each window
///   to the attempt's realized end ([`SimState::attempt_end`]) — a no-op
///   when the attempt runs exactly its nominal time;
/// * an event batch advances the axis to `now`, gives back the unexpired
///   `[now, end)` of every attempt that completed (the EPS sliver of grouped
///   completions) or was killed (faults, outages, the last failure before
///   abandonment), and shifts every slot by a capacity change's delta.
///
/// Free amounts are sums and differences of integers below 2^53, so they are
/// exact whatever the order of the updates: the maintained set holds the
/// same availability function as a fresh rebuild, and every window query
/// answers the same on both. Slot boundaries may differ. Debug builds
/// assert the equality at every pass, like [`MirroredQueue::absorb`] does
/// for the ready queue.
#[derive(Debug, Clone)]
struct LookaheadTimeline {
    slots: SlotSet,
    /// Per-type capacities the slots account for (turns a capacity event
    /// into a shift).
    capacities: Vec<u64>,
    /// End of each running attempt's claimed window, by job (NaN = not
    /// running). Kept here because the engine forgets the end of an attempt
    /// that fails.
    ends: Vec<f64>,
    /// Starts of the last pass with the nominal end each one claimed,
    /// corrected to the realized end on the next call.
    pending: Vec<(usize, f64)>,
}

impl LookaheadTimeline {
    /// A timeline for `mode`: built fresh from the state in
    /// [`PlacementMode::LookAhead`], absent in [`PlacementMode::AtEvent`].
    fn for_mode(mode: PlacementMode, state: &SimState<'_>) -> Option<Self> {
        (mode == PlacementMode::LookAhead).then(|| {
            let mut ends = vec![f64::NAN; state.instance.num_jobs()];
            for r in &state.running {
                ends[r.job] = r.finish;
            }
            LookaheadTimeline {
                slots: lookahead_timeline(state),
                capacities: state.capacities.clone(),
                ends,
                pending: Vec::new(),
            }
        })
    }

    /// Corrects the windows of the last pass's starts to the realized ends
    /// of the attempts the engine started for them.
    fn settle_starts(&mut self, state: &SimState<'_>) {
        for (j, nominal_end) in self.pending.drain(..) {
            let end = state.attempt_end(j);
            debug_assert!(!end.is_nan(), "started job {j} has no attempt end");
            let alloc = state.alloc_used(j);
            if end < nominal_end {
                self.slots.release(end, nominal_end, alloc);
            } else {
                self.slots.claim(nominal_end, end, alloc);
            }
            self.ends[j] = end;
        }
    }

    /// Folds one event batch in: the axis moves to `now`, ended attempts
    /// give back what is left of their windows, capacity changes shift
    /// every slot.
    fn absorb(&mut self, state: &SimState<'_>, batch: &[TraceEvent]) {
        debug_assert!(self.pending.is_empty(), "starts left unsettled");
        self.slots.advance_to(state.now);
        for e in batch {
            match e {
                TraceEvent::JobCompleted { job, .. } => self.end_attempt(state, *job),
                // Attempt 0 marks a cascade-abandoned job that never ran.
                TraceEvent::JobFailed { job, attempt, .. } if *attempt >= 1 => {
                    self.end_attempt(state, *job)
                }
                TraceEvent::CapacityChanged {
                    resource, capacity, ..
                } => {
                    let old = std::mem::replace(&mut self.capacities[*resource], *capacity);
                    self.slots
                        .shift_all(*resource, *capacity as f64 - old as f64);
                }
                _ => {}
            }
        }
    }

    /// Releases the unexpired rest `[now, end)` of job `j`'s attempt.
    fn end_attempt(&mut self, state: &SimState<'_>, j: usize) {
        let end = std::mem::replace(&mut self.ends[j], f64::NAN);
        debug_assert!(!end.is_nan(), "ended job {j} held no window");
        self.slots.release(state.now, end, state.alloc_used(j));
    }

    /// One look-ahead placement pass over the mirrored ready queue; the
    /// starts' nominal windows stay claimed until [`Self::settle_starts`].
    fn place(
        &mut self,
        scheduler: &ListScheduler,
        queue: &mut ReadyQueue,
        keys: &[f64],
        decision: &[Allocation],
        times: &[f64],
        state: &SimState<'_>,
    ) -> Vec<usize> {
        debug_assert!(
            self.slots.same_availability(&lookahead_timeline(state)),
            "look-ahead timeline diverged from a fresh rebuild at t={}",
            state.now
        );
        let now = self.slots.begin();
        let started =
            scheduler.schedule_ready_lookahead(queue, keys, decision, times, &mut self.slots);
        // `now + times[j]` is the exact end the pass claimed.
        self.pending
            .extend(started.iter().map(|&j| (j, now + times[j])));
        started
    }
}

/// One placement pass of a list policy over its mirrored ready queue: greedy
/// against the availability of the moment ([`PlacementMode::AtEvent`]), or
/// EASY-style against the maintained look-ahead timeline.
fn place_ready(
    scheduler: &ListScheduler,
    queue: &mut ReadyQueue,
    keys: &[f64],
    decision: &[Allocation],
    times: &[f64],
    timeline: Option<&mut LookaheadTimeline>,
    state: &SimState<'_>,
) -> Vec<(usize, Allocation)> {
    let started = match timeline {
        None => {
            let mut resources = state.resources.clone();
            scheduler.schedule_ready(queue, keys, decision, &mut resources)
        }
        Some(timeline) => timeline.place(scheduler, queue, keys, decision, times, state),
    };
    started
        .into_iter()
        .map(|j| (j, decision[j].clone()))
        .collect()
}

/// A scheduling policy driven by the engine at every decision point.
pub trait Policy: std::fmt::Debug {
    /// Short label for traces and experiment tables.
    fn label(&self) -> &'static str;

    /// Called once before the run with the initial state.
    fn on_start(&mut self, state: &SimState<'_>) -> Result<(), SimError>;

    /// Incremental re-initialisation of a policy instance kept across the
    /// drive calls of a persistent run: called *between* drives, after the
    /// in-flight plan was updated, with `live` the unstarted jobs of the
    /// world in ascending order (exactly what [`Policy::on_start`] would
    /// discover by scanning, handed over so the refresh costs O(live)).
    ///
    /// The contract matches a fresh `on_start`: afterwards the policy must
    /// make bit-identical decisions to a newly built instance observing the
    /// same state. Callers guarantee that plan entries of completed jobs
    /// hold their realized placements (the persistent-run round contract —
    /// `PersistentRun::sync_realized` before the hook).
    ///
    /// The default forwards to `on_start`, so external policies stay
    /// correct without implementing the incremental path.
    fn on_plan_update(&mut self, state: &SimState<'_>, live: &[usize]) -> Result<(), SimError> {
        let _ = live;
        self.on_start(state)
    }

    /// Called after every batch of world events (completions, arrivals,
    /// capacity changes). May return policy events (e.g.
    /// [`TraceEvent::Rescheduled`]) to append to the trace.
    fn on_events(
        &mut self,
        state: &SimState<'_>,
        batch: &[TraceEvent],
    ) -> Result<Vec<TraceEvent>, SimError>;

    /// Picks the jobs to start right now, in order, with their allocations.
    /// Every returned job must be ready and every allocation must fit the
    /// availability left by the starts before it; the engine verifies this
    /// and aborts the run otherwise. Returning an empty vector ends the
    /// decision point.
    fn select_starts(&mut self, state: &SimState<'_>) -> Vec<(usize, Allocation)>;
}

/// Which reference policy to run (serialisable configuration handle).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Replay the plan; jobs slide.
    Static,
    /// Re-run the list phase over the ready set at every event.
    ReactiveList,
    /// Re-invoke the two-phase scheduler on perturbation events.
    FullReschedule,
}

impl PolicyKind {
    /// All reference policies, in sweep order.
    pub fn all() -> [PolicyKind; 3] {
        [
            PolicyKind::Static,
            PolicyKind::ReactiveList,
            PolicyKind::FullReschedule,
        ]
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Static => "static",
            PolicyKind::ReactiveList => "reactive-list",
            PolicyKind::FullReschedule => "full-reschedule",
        }
    }

    /// Builds the policy with its default configuration.
    pub fn build(&self) -> Box<dyn Policy> {
        match self {
            PolicyKind::Static => Box::new(StaticPolicy::new()),
            PolicyKind::ReactiveList => {
                Box::new(ReactiveListPolicy::new(PriorityRule::CriticalPath))
            }
            PolicyKind::FullReschedule => {
                Box::new(FullReschedulePolicy::new(MrlsConfig::default(), 1.5))
            }
        }
    }
}

/// Replays the plan: jobs start in planned-start order, without reordering or
/// backfilling. When a predecessor runs long, everything behind it slides.
#[derive(Debug, Clone, Default)]
pub struct StaticPolicy {
    order: Vec<usize>,
    cursor: usize,
    decision: Vec<Allocation>,
    /// Placement watermark: `true` once a pass ran with no world change
    /// since — a repeat pass cannot start anything (availability only
    /// shrank) and is skipped.
    settled: bool,
}

impl StaticPolicy {
    /// Creates the policy; the plan is read from the state at `on_start`.
    pub fn new() -> Self {
        StaticPolicy::default()
    }

    /// (Re-)derives the replay order and allocations over the given live
    /// frontier — O(live log live).
    fn init_over(&mut self, state: &SimState<'_>, mut order: Vec<usize>) {
        let n = state.instance.num_jobs();
        order.sort_by(|&a, &b| {
            state.plan.jobs[a]
                .start
                .total_cmp(&state.plan.jobs[b].start)
                .then(a.cmp(&b))
        });
        self.cursor = 0;
        // Entries of started jobs are never read again; only the frontier
        // is refreshed (the buffer grows with the world and keeps stale
        // values elsewhere).
        self.decision.resize(n, Allocation::new(Vec::new()));
        for &j in &order {
            self.decision[j] = state.plan.jobs[j].alloc.clone();
        }
        self.order = order;
        self.settled = false;
    }
}

impl Policy for StaticPolicy {
    fn label(&self) -> &'static str {
        "static"
    }

    fn on_start(&mut self, state: &SimState<'_>) -> Result<(), SimError> {
        // Only the live frontier can still be started; already started jobs
        // would be skipped by the cursor anyway, so restricting the order to
        // the frontier visits the same subsequence at O(live) cost.
        self.init_over(state, live_frontier(state));
        Ok(())
    }

    fn on_plan_update(&mut self, state: &SimState<'_>, live: &[usize]) -> Result<(), SimError> {
        self.init_over(state, live.to_vec());
        Ok(())
    }

    fn on_events(
        &mut self,
        _state: &SimState<'_>,
        _batch: &[TraceEvent],
    ) -> Result<Vec<TraceEvent>, SimError> {
        self.settled = false;
        Ok(vec![])
    }

    fn select_starts(&mut self, state: &SimState<'_>) -> Vec<(usize, Allocation)> {
        if self.settled {
            return Vec::new();
        }
        let mut starts = Vec::new();
        let mut resources = state.resources.clone();
        while self.cursor < self.order.len() {
            let j = self.order[self.cursor];
            if state.started[j] {
                self.cursor += 1;
                continue;
            }
            if state.is_ready(j) && resources.fits(&self.decision[j]) {
                resources.acquire(&self.decision[j]);
                starts.push((j, self.decision[j].clone()));
                self.cursor += 1;
            } else {
                // Strict plan order: the head of the queue blocks everything
                // behind it.
                break;
            }
        }
        self.settled = true;
        starts
    }
}

/// The persistent ready queue both list policies maintain: a mirror of the
/// engine's ready set, kept in `(priority key, job)` order so a decision
/// point drains it directly instead of sorting a fresh clone of the ready
/// set — O(log r) maintenance per event instead of O(r log r) per pass.
#[derive(Debug, Clone, Default)]
struct MirroredQueue {
    queue: ReadyQueue,
}

impl MirroredQueue {
    /// Rebuilds the mirror from the engine's ready set (drive start / plan
    /// update — O(live log live)). `live` is the universe the requirement
    /// index is addressed by: every job that may still be inserted (the
    /// uncompleted frontier) — anything becoming ready later is uncompleted
    /// now (including a running job whose attempt fails and retries), so it
    /// is covered.
    fn rebuild(
        &mut self,
        state: &SimState<'_>,
        live: &[usize],
        keys: &[f64],
        decision: &[Allocation],
    ) {
        self.queue = ReadyQueue::with_universe(live, state.ready.clone(), keys, decision);
    }

    /// Folds one event batch into the mirror: any job the batch could have
    /// made ready (a released job, a completed job's successors) is
    /// binary-inserted iff the engine's post-batch state lists it as ready.
    /// Inserting a queued job is a no-op, so overlapping candidates (a job
    /// released and unblocked in the same batch) stay unique.
    fn absorb(
        &mut self,
        state: &SimState<'_>,
        batch: &[TraceEvent],
        keys: &[f64],
        decision: &[Allocation],
    ) {
        for e in batch {
            match e {
                TraceEvent::JobCompleted { job, .. } => {
                    for &succ in state.instance.dag.successors(*job) {
                        if state.is_ready(succ) {
                            self.queue.insert(succ, keys, &decision[succ]);
                        }
                    }
                }
                TraceEvent::JobReleased { job, .. } if state.is_ready(*job) => {
                    self.queue.insert(*job, keys, &decision[*job]);
                }
                // A retried job re-enters the ready set exactly once per
                // backoff expiry; the engine removed it at failure time, so
                // re-insertion here keeps the mirror bit-identical.
                TraceEvent::JobRetried { job, .. } if state.is_ready(*job) => {
                    self.queue.insert(*job, keys, &decision[*job]);
                }
                _ => {}
            }
        }
        debug_assert_eq!(
            {
                let mut mirrored: Vec<usize> = self.queue.as_slice().to_vec();
                mirrored.sort_unstable();
                mirrored
            },
            state.ready,
            "mirrored ready queue diverged from the engine's ready set"
        );
    }
}

/// Re-runs the list phase (the shared placement routine of Algorithm 2) over
/// the actual ready set at every event, reusing the Phase-1 allocations.
#[derive(Debug, Clone)]
pub struct ReactiveListPolicy {
    scheduler: ListScheduler,
    mode: PlacementMode,
    decision: Vec<Allocation>,
    keys: Vec<f64>,
    /// Execution times under `decision` — the window durations a look-ahead
    /// pass plans with. Maintained alongside `keys` (same branches, same
    /// frontier restriction).
    times: Vec<f64>,
    mirror: MirroredQueue,
    /// The maintained look-ahead timeline (`None` in `AtEvent` mode).
    timeline: Option<LookaheadTimeline>,
    settled: bool,
    /// The frontier the keys were last derived over — `on_plan_update` skips
    /// the recompute when the frontier and its plan allocations are
    /// unchanged (no placement changed ⇒ same sub-instance ⇒ same keys).
    last_live: Option<Vec<usize>>,
}

impl ReactiveListPolicy {
    /// Creates the policy with the given ready-queue priority rule.
    pub fn new(priority: PriorityRule) -> Self {
        ReactiveListPolicy {
            scheduler: ListScheduler::new(priority),
            mode: PlacementMode::AtEvent,
            decision: Vec::new(),
            keys: Vec::new(),
            times: Vec::new(),
            mirror: MirroredQueue::default(),
            timeline: None,
            settled: false,
            last_live: None,
        }
    }

    /// Selects the placement mode ([`PlacementMode::AtEvent`] by default).
    pub fn with_placement(mut self, mode: PlacementMode) -> Self {
        self.mode = mode;
        self
    }

    /// (Re-)derives allocations and priority keys over the given live
    /// frontier and rebuilds the ready-queue mirror.
    fn init_over(&mut self, state: &SimState<'_>, live: &[usize]) -> Result<(), SimError> {
        let n = state.instance.num_jobs();
        // `Explicit` keys are raw per-job vectors; everything else is
        // pointwise in (time, allocation, bottom level), and the frontier is
        // successor-closed, so bottom levels computed on the live
        // sub-instance are bit-identical to the full-graph ones. Keys and
        // decisions of started jobs are never read (only ready jobs are).
        if live.len() == n || matches!(self.scheduler.priority(), PriorityRule::Explicit(_)) {
            self.decision = state.plan.allocations();
            let times = self
                .scheduler
                .evaluate_times(state.instance, &self.decision)?;
            self.keys = self
                .scheduler
                .priority_keys(state.instance, &self.decision, &times)?;
            self.times = times;
        } else {
            let (sub_dag, mapping) = state.instance.dag.induced_subgraph_sorted(live);
            let sub_jobs: Vec<MoldableJob> = mapping
                .iter()
                .map(|&old| state.instance.jobs[old].clone())
                .collect();
            let sub_instance = Instance::new(state.instance.system.clone(), sub_dag, sub_jobs)
                .map_err(|e| SimError::InvalidPlan(e.to_string()))?;
            let sub_decision: Vec<Allocation> = mapping
                .iter()
                .map(|&old| state.plan.jobs[old].alloc.clone())
                .collect();
            let times = self
                .scheduler
                .evaluate_times(&sub_instance, &sub_decision)?;
            let sub_keys = self
                .scheduler
                .priority_keys(&sub_instance, &sub_decision, &times)?;
            self.decision.resize(n, Allocation::new(Vec::new()));
            self.keys.resize(n, 0.0);
            self.times.resize(n, 0.0);
            for (((&old, key), alloc), t) in
                mapping.iter().zip(sub_keys).zip(sub_decision).zip(times)
            {
                self.keys[old] = key;
                self.decision[old] = alloc;
                self.times[old] = t;
            }
        }
        self.reset_placement(state, live);
        Ok(())
    }

    /// Rebuilds the ready-queue mirror and the look-ahead timeline from the
    /// state and clears the placement watermark.
    fn reset_placement(&mut self, state: &SimState<'_>, live: &[usize]) {
        self.mirror.rebuild(state, live, &self.keys, &self.decision);
        self.timeline = LookaheadTimeline::for_mode(self.mode, state);
        self.settled = false;
    }
}

impl Policy for ReactiveListPolicy {
    fn label(&self) -> &'static str {
        "reactive-list"
    }

    fn on_start(&mut self, state: &SimState<'_>) -> Result<(), SimError> {
        let live = live_frontier(state);
        self.init_over(state, &live)?;
        self.last_live = Some(live);
        Ok(())
    }

    fn on_plan_update(&mut self, state: &SimState<'_>, live: &[usize]) -> Result<(), SimError> {
        // Diff-aware refresh: when the frontier is the one the keys were
        // derived over and no live placement changed, the induced
        // sub-instance is identical, so the recompute (times, bottom levels,
        // keys) would reproduce the stored values bit for bit — skip it and
        // only rebuild the ready-queue mirror.
        let unchanged = self.last_live.as_deref() == Some(live)
            && live
                .iter()
                .all(|&j| state.plan.jobs[j].alloc == self.decision[j]);
        if unchanged {
            #[cfg(debug_assertions)]
            {
                let mut fresh = self.clone();
                fresh.init_over(state, live)?;
                for &j in live {
                    debug_assert_eq!(
                        self.keys[j].to_bits(),
                        fresh.keys[j].to_bits(),
                        "diff-aware key reuse diverged from a full recompute (job {j})"
                    );
                    debug_assert_eq!(
                        self.times[j].to_bits(),
                        fresh.times[j].to_bits(),
                        "diff-aware time reuse diverged from a full recompute (job {j})"
                    );
                }
            }
            self.reset_placement(state, live);
            return Ok(());
        }
        self.init_over(state, live)?;
        self.last_live = Some(live.to_vec());
        Ok(())
    }

    fn on_events(
        &mut self,
        state: &SimState<'_>,
        batch: &[TraceEvent],
    ) -> Result<Vec<TraceEvent>, SimError> {
        self.settled = false;
        self.mirror.absorb(state, batch, &self.keys, &self.decision);
        if let Some(timeline) = &mut self.timeline {
            timeline.absorb(state, batch);
        }
        Ok(vec![])
    }

    fn select_starts(&mut self, state: &SimState<'_>) -> Vec<(usize, Allocation)> {
        if let Some(timeline) = &mut self.timeline {
            timeline.settle_starts(state);
        }
        if self.settled {
            return Vec::new();
        }
        self.settled = true;
        place_ready(
            &self.scheduler,
            &mut self.mirror.queue,
            &self.keys,
            &self.decision,
            &self.times,
            self.timeline.as_mut(),
            state,
        )
    }
}

/// Re-invokes the complete two-phase scheduler on the pending jobs whenever a
/// perturbation event fires (an online arrival, a capacity change, or a
/// straggler whose realized time exceeded `straggler_threshold ×` nominal),
/// adopting the new allocations and the new plan's start order as priorities.
/// Between reschedules it behaves like [`ReactiveListPolicy`].
///
/// Reschedules are **debounced** so the policy no longer thrashes under pure
/// noise at high sigma: after a reschedule, further arrival/straggler
/// triggers are ignored for `min_interval_frac ×` the planned makespan, and
/// straggler triggers additionally require the run to actually be late —
/// current time above `stretch_threshold ×` the planned finish time of the
/// work completed so far. Capacity changes are structural and always
/// reschedule.
#[derive(Debug, Clone)]
pub struct FullReschedulePolicy {
    config: MrlsConfig,
    straggler_threshold: f64,
    min_interval_frac: f64,
    stretch_threshold: f64,
    scheduler: ListScheduler,
    mode: PlacementMode,
    decision: Vec<Allocation>,
    keys: Vec<f64>,
    /// Execution times under `decision` — look-ahead window durations.
    times: Vec<f64>,
    mirror: MirroredQueue,
    /// The maintained look-ahead timeline (`None` in `AtEvent` mode).
    timeline: Option<LookaheadTimeline>,
    settled: bool,
    min_interval: f64,
    last_reschedule: f64,
    /// Latest planned finish among completed jobs, maintained incrementally
    /// from completion events (recomputing it per event would be O(world)).
    planned_completed_max: f64,
}

impl FullReschedulePolicy {
    /// Creates the policy with the default debounce (see
    /// [`FullReschedulePolicy::with_debounce`]). `config` drives the
    /// re-invoked scheduler; `straggler_threshold` is the realized/nominal
    /// factor above which a completion counts as a straggler.
    pub fn new(config: MrlsConfig, straggler_threshold: f64) -> Self {
        let priority = config.priority.clone();
        FullReschedulePolicy {
            config,
            straggler_threshold: straggler_threshold.max(1.0),
            min_interval_frac: 0.25,
            stretch_threshold: 1.25,
            scheduler: ListScheduler::new(priority),
            mode: PlacementMode::AtEvent,
            decision: Vec::new(),
            keys: Vec::new(),
            times: Vec::new(),
            mirror: MirroredQueue::default(),
            timeline: None,
            settled: false,
            min_interval: 0.0,
            last_reschedule: f64::NEG_INFINITY,
            planned_completed_max: 0.0,
        }
    }

    /// Selects the placement mode ([`PlacementMode::AtEvent`] by default).
    pub fn with_placement(mut self, mode: PlacementMode) -> Self {
        self.mode = mode;
        self
    }

    /// Overrides the debounce: `min_interval_frac` is the minimum virtual
    /// time between reschedules as a fraction of the planned makespan (zero
    /// disables the interval), and `stretch_threshold` is the lateness factor
    /// below which straggler triggers are ignored (`<= 1` disables the
    /// hysteresis).
    pub fn with_debounce(mut self, min_interval_frac: f64, stretch_threshold: f64) -> Self {
        self.min_interval_frac = min_interval_frac.max(0.0);
        self.stretch_threshold = stretch_threshold;
        self
    }

    /// (Re-)derives replay priorities over the given live frontier and
    /// resets the per-drive debounce state — the shared tail of `on_start`
    /// and `on_plan_update`.
    fn init_over(&mut self, state: &SimState<'_>, live: &[usize]) {
        let n = state.instance.num_jobs();
        // Replay priorities: the planned start times (ties broken by job
        // index inside the placement routine). Only the live frontier is
        // ever read back — completed jobs cannot re-enter the ready set, and
        // a running job that fails re-enters through its frontier entry — so
        // initialisation is O(live), not O(world).
        self.decision.resize(n, Allocation::new(Vec::new()));
        self.keys.resize(n, 0.0);
        self.times.resize(n, 0.0);
        for &j in live {
            self.decision[j] = state.plan.jobs[j].alloc.clone();
            self.keys[j] = state.plan.jobs[j].start;
            self.times[j] = state.plan.jobs[j].finish - state.plan.jobs[j].start;
        }
        self.min_interval = self.min_interval_frac * state.plan.makespan.max(0.0);
        self.last_reschedule = f64::NEG_INFINITY;
        self.mirror.rebuild(state, live, &self.keys, &self.decision);
        self.timeline = LookaheadTimeline::for_mode(self.mode, state);
        self.settled = false;
    }

    /// The reschedule trigger in `batch`, if any.
    fn trigger(&self, batch: &[TraceEvent]) -> Option<&'static str> {
        let mut straggler = false;
        for e in batch {
            match e {
                TraceEvent::CapacityChanged { .. } => return Some("capacity-change"),
                TraceEvent::JobReleased { .. } => return Some("arrival"),
                TraceEvent::JobFailed { .. } => return Some("failure"),
                TraceEvent::JobRetried { .. } => return Some("retry"),
                TraceEvent::JobCompleted {
                    nominal, realized, ..
                } => {
                    straggler |= *realized > self.straggler_threshold * *nominal;
                }
                _ => {}
            }
        }
        straggler.then_some("straggler")
    }

    /// How late the run currently is: current time over the latest planned
    /// finish among completed jobs (1.0 = on plan; infinite before the first
    /// completion, which cannot arise for straggler triggers). The maximum
    /// is maintained from completion events, not recomputed.
    fn progress_stretch(&self, state: &SimState<'_>) -> f64 {
        if self.planned_completed_max > 0.0 {
            state.now / self.planned_completed_max
        } else {
            f64::INFINITY
        }
    }

    /// `true` iff the debounce suppresses this trigger.
    fn debounced(&self, state: &SimState<'_>, trigger: &str) -> bool {
        if trigger == "capacity-change" {
            return false;
        }
        if state.now - self.last_reschedule < self.min_interval {
            return true;
        }
        trigger == "straggler" && self.progress_stretch(state) <= self.stretch_threshold
    }

    /// Recomputes allocations and priorities for every pending (unstarted)
    /// job by scheduling the induced sub-instance from scratch.
    fn reschedule(&mut self, state: &SimState<'_>) -> Result<usize, SimError> {
        let n = state.instance.num_jobs();
        let pending: Vec<usize> = (0..n)
            .filter(|&j| !state.started[j] && !state.abandoned[j])
            .collect();
        if pending.is_empty() {
            return Ok(0);
        }
        let (sub_dag, mapping) = state.instance.dag.induced_subgraph_sorted(&pending);
        let sub_jobs: Vec<MoldableJob> = mapping
            .iter()
            .map(|&old| state.instance.jobs[old].clone())
            .collect();
        // Plan against the machine as it is now (post-drop capacities); the
        // scenario guarantees capacities stay >= 1.
        let system = SystemConfig::new(state.capacities.clone())
            .map_err(|e| SimError::InvalidScenario(e.to_string()))?;
        let sub_instance = Instance::new(system, sub_dag, sub_jobs)
            .map_err(|e| SimError::InvalidScenario(e.to_string()))?;
        match MrlsScheduler::new(self.config.clone()).schedule(&sub_instance) {
            Ok(result) => {
                // Adopt the new allocations; use the new plan's start times
                // as priorities (pending jobs only ever compete with each
                // other, so keys of started jobs are irrelevant).
                for sj in &result.schedule.jobs {
                    let old = mapping[sj.job];
                    self.decision[old] = sj.alloc.clone();
                    self.keys[old] = sj.start;
                    self.times[old] = sj.finish - sj.start;
                }
            }
            Err(_) => {
                // Fallback: keep the current allocations but clamp them to
                // the degraded capacities so pending jobs stay startable.
                for &old in &pending {
                    let alloc = &self.decision[old];
                    let clamped: Vec<u64> = (0..alloc.dim())
                        .map(|i| {
                            if alloc[i] == 0 {
                                0
                            } else {
                                alloc[i].min(state.capacities[i]).max(1)
                            }
                        })
                        .collect();
                    self.decision[old] = Allocation::new(clamped);
                    // The clamped allocation changes the execution time the
                    // look-ahead window is sized with.
                    let t = state.instance.jobs[old].spec.time(&self.decision[old]);
                    if t.is_finite() && t > 0.0 {
                        self.times[old] = t;
                    }
                }
            }
        }
        // The adopted keys reorder the mirrored ready queue (and re-rank its
        // requirement index, which is addressed by key order).
        self.mirror.queue.resort(&self.keys, &self.decision);
        Ok(pending.len())
    }
}

impl Policy for FullReschedulePolicy {
    fn label(&self) -> &'static str {
        "full-reschedule"
    }

    fn on_start(&mut self, state: &SimState<'_>) -> Result<(), SimError> {
        self.init_over(state, &live_frontier(state));
        // Fold the plan progress of already completed work (a resumed run):
        // an O(world) sweep, paid only at run initialisation — the per-round
        // path (`on_plan_update`) reads the engine's running maximum instead.
        self.planned_completed_max = state
            .plan
            .jobs
            .iter()
            .filter(|sj| state.completed[sj.job])
            .map(|sj| sj.finish)
            .fold(0.0f64, f64::max);
        Ok(())
    }

    fn on_plan_update(&mut self, state: &SimState<'_>, live: &[usize]) -> Result<(), SimError> {
        self.init_over(state, live);
        // Between rounds the plan entries of completed jobs hold their
        // realized placements (the caller contract), so the `on_start` fold
        // above equals the engine's incrementally maintained maximum — read
        // it in O(1) instead of sweeping the world.
        debug_assert_eq!(
            state
                .plan
                .jobs
                .iter()
                .filter(|sj| state.completed[sj.job])
                .map(|sj| sj.finish)
                .fold(0.0f64, f64::max)
                .to_bits(),
            state.max_completed_finish.to_bits(),
            "completed plan entries must hold realized placements at on_plan_update"
        );
        self.planned_completed_max = state.max_completed_finish;
        Ok(())
    }

    fn on_events(
        &mut self,
        state: &SimState<'_>,
        batch: &[TraceEvent],
    ) -> Result<Vec<TraceEvent>, SimError> {
        self.settled = false;
        // Fold this batch's completions into the progress maximum first:
        // the debounce below compares against plan progress *including*
        // them, exactly like the former full rescan did.
        for e in batch {
            if let TraceEvent::JobCompleted { job, .. } = e {
                self.planned_completed_max =
                    self.planned_completed_max.max(state.plan.jobs[*job].finish);
            }
        }
        self.mirror.absorb(state, batch, &self.keys, &self.decision);
        if let Some(timeline) = &mut self.timeline {
            timeline.absorb(state, batch);
        }
        let Some(trigger) = self.trigger(batch) else {
            return Ok(vec![]);
        };
        if self.debounced(state, trigger) {
            return Ok(vec![]);
        }
        self.last_reschedule = state.now;
        let jobs = self.reschedule(state)?;
        Ok(vec![TraceEvent::Rescheduled {
            time: state.now,
            trigger: trigger.to_string(),
            jobs,
        }])
    }

    fn select_starts(&mut self, state: &SimState<'_>) -> Vec<(usize, Allocation)> {
        if let Some(timeline) = &mut self.timeline {
            timeline.settle_starts(state);
        }
        if self.settled {
            return Vec::new();
        }
        self.settled = true;
        place_ready(
            &self.scheduler,
            &mut self.mirror.queue,
            &self.keys,
            &self.decision,
            &self.times,
            self.timeline.as_mut(),
            state,
        )
    }
}
