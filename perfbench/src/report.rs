//! The run report: correctness verdict, operation counts, named metrics and
//! the human-readable lines printed before the final JSON object.

use crate::tracer::Tracer;
use crate::Args;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// How many check failures are echoed to standard error.
const MAX_ECHOED_FAILURES: usize = 20;

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
    violations: Vec<String>,
    violation_count: u64,
}

impl Report {
    pub fn new() -> Self {
        Report {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
            violations: Vec::new(),
            violation_count: 0,
        }
    }

    /// Records a named metric for the final JSON object.
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds a line to the human-readable part of the output.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records an output-check violation: the run is then not correct.
    pub fn violation(&mut self, what: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_ECHOED_FAILURES {
            self.violations.push(what);
        }
    }

    /// Adds the verdict on one predicted self-time share of a traced run.
    pub fn prediction(&mut self, workload: &str, claim: &str, confirmed: bool) {
        let verdict = if confirmed {
            "confirmed"
        } else {
            "NOT CONFIRMED"
        };
        self.note(format!("  prediction [{workload}] {claim}: {verdict}"));
    }

    /// Adds a table of self time per span name, per request, with its share
    /// of the root spans' total time.
    pub fn self_times(&mut self, tr: &Tracer, requests: u64) {
        let root: u64 = tr
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns())
            .sum();
        let mut rows: Vec<_> = tr.totals().into_iter().collect();
        rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
        self.note(format!(
            "  {:<28} {:>10} {:>14} {:>8}",
            "span", "calls", "self ms/req", "share"
        ));
        for (name, t) in rows {
            self.note(format!(
                "  {:<28} {:>10} {:>14.4} {:>7.2}%",
                name,
                t.count,
                t.self_ns as f64 / 1e6 / requests.max(1) as f64,
                100.0 * t.self_ns as f64 / root.max(1) as f64
            ));
        }
    }

    /// Records every violation of one checked output.
    pub fn violations(&mut self, context: &str, found: Vec<String>) {
        for v in found {
            self.violation(format!("{context}: {v}"));
        }
    }

    /// A run is correct when it attempted something and no check failed.
    pub fn correct(&self) -> bool {
        self.violation_count == 0 && self.attempted > 0
    }

    /// Prints the notes, the metric table and the final JSON line; the exit
    /// code is non-zero iff an output check failed.
    pub fn print(&self, args: &Args) -> ExitCode {
        for v in &self.violations {
            eprintln!("perfbench: CHECK FAILED: {v}");
        }
        if self.violation_count > self.violations.len() as u64 {
            eprintln!(
                "perfbench: ... {} more check failures",
                self.violation_count - self.violations.len() as u64
            );
        }
        println!(
            "workload {} seed {} seconds {} trace {}",
            args.workload,
            args.seed,
            args.seconds.as_secs_f64(),
            u8::from(args.trace)
        );
        for line in &self.notes {
            println!("{line}");
        }
        let fail_frac = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "  {:<32} {} ({} of {} operations)",
            "failed_frac", fail_frac, self.failed, self.attempted
        );
        for (name, value, unit) in &self.metrics {
            println!("  {name:<32} {value} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        if self.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// JSON has no NaN or infinity: a metric that could not be measured is
/// reported as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Every end-to-end metric with its unit, in output order. Each workload
/// reports all of them on an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_jobs_per_s", "jobs/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("makespan_ratio", "ratio"),
    ("mean_stretch", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric with its unit, in output order. A traced run
/// reports all of them; a layer the workload does not load reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("model.profiles_ms", "ms"),
    ("model.profile_points", "count"),
    ("model.prune_keep_ratio", "ratio"),
    ("dag.classify_ms", "ms"),
    ("alloc.lp_ms", "ms"),
    ("alloc.lp_vars", "count"),
    ("alloc.lp_rows", "count"),
    ("alloc.round_ms", "ms"),
    ("alloc.sp_fptas_ms", "ms"),
    ("alloc.independent_ms", "ms"),
    ("alloc.adjust_ms", "ms"),
    ("alloc.adjusted_jobs", "count"),
    ("list.at_event_ms", "ms"),
    ("list.events", "count"),
    ("bounds.lower_bound_ms", "ms"),
    ("analysis.validate_ms", "ms"),
    ("sim.engine_ms", "ms"),
    ("sim.at_event_ms", "ms"),
    ("sim.look_ahead_ms", "ms"),
    ("sim.events", "count"),
    ("serve.protocol_us", "us"),
    ("serve.submit_us_p50", "us"),
    ("serve.read_us_p50", "us"),
    ("serve.round.plan_ms", "ms"),
    ("serve.round.diff_ms", "ms"),
    ("serve.round.policy_ms", "ms"),
    ("serve.round.drive_ms", "ms"),
    ("serve.round.harvest_ms", "ms"),
    ("serve.checkpoint_round_ms_p50", "ms"),
    ("serve.plain_round_ms_p50", "ms"),
    ("serve.wal_bytes_per_round", "bytes"),
    ("serve.checkpoints", "count"),
    ("serve.replan_kept_ratio", "ratio"),
    ("serve.backlog_max", "count"),
    ("serve.round_growth", "ratio"),
    ("serve.drain_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

impl Report {
    /// Emits every metric of `table` in order, taking values from `values`;
    /// a name missing from `values` reads `missing` (an end-to-end metric
    /// must never be missing, a layer the workload skips reads 0).
    pub fn emit(
        &mut self,
        table: &[(&str, &'static str)],
        values: &BTreeMap<&str, f64>,
        missing: Option<f64>,
    ) {
        for &(name, unit) in table {
            match values.get(name).copied().or(missing) {
                Some(v) => self.metric(name, v, unit),
                None => self.violation(format!("metric `{name}` was not measured")),
            }
        }
        for name in values.keys() {
            if !table.iter().any(|(n, _)| n == name) {
                self.violation(format!("metric `{name}` is not declared"));
            }
        }
    }
}
