//! Per-layer metrics of one traced iteration, read from the program's own
//! telemetry (`ivc_core::telemetry`), the Prepare cache's public `stats()`
//! and the benchmark's own spans around each call into a layer.

use ivc_core::telemetry::{Snapshot, SPAN_STAGE_EVALUATE, SPAN_STAGE_PERTURB, SPAN_STAGE_PREPARE};

/// Sub-spans the Prepare stage opens directly inside `stage.prepare`.
const PREPARE_STEPS: [&str; 5] = [
    "prepare.utterance_render",
    "prepare.attack_build",
    "prepare.rir_build",
    "prepare.convolution",
    "prepare.leakage",
];

/// Sub-spans of Perturb and Evaluate.
const TRIAL_STEPS: [&str; 5] = [
    "perturb.ambient_noise",
    "perturb.mic_capture",
    "evaluate.recognition",
    "evaluate.defense_features",
    "evaluate.detector",
];

/// Named metrics with their units, in emit order.
#[derive(Debug, Default)]
pub struct Layers(pub Vec<(String, &'static str, f64)>);

impl Layers {
    fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push((name.into(), unit, value));
    }
}

/// Prepare-cache counter deltas over the timed call.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheDelta {
    pub hits: u64,
    pub misses: u64,
    /// Builds whose product another worker had already inserted.
    pub dup_builds: u64,
    pub evictions: u64,
    pub resident_mb: f64,
}

/// What only a `fleet` iteration has.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetFacts {
    /// Σ worker `campaign.setup` + `campaign.detector_train`.
    pub worker_setup_s: f64,
    /// The longest worker wall clock.
    pub slowest_shard_s: f64,
    /// The re-timed `merge_shard_files` over the checkpoints.
    pub merge_s: f64,
    pub partial_bytes: u64,
    pub launched: usize,
    pub shards: usize,
}

/// Everything one traced iteration measured.
pub struct Inputs<'a> {
    /// Telemetry of the set-up call.
    pub setup: &'a Snapshot,
    /// Telemetry of the timed call: the in-process collector, or for
    /// `fleet` the coordinator's merged with every worker sidecar.
    pub timed: &'a Snapshot,
    /// Wall time of `run_campaign` / `orchestrate`.
    pub campaign_s: f64,
    pub encode_s: f64,
    pub report_bytes: usize,
    pub workers: usize,
    pub cache: CacheDelta,
    pub fleet: Option<FleetFacts>,
}

fn total_s(snapshot: &Snapshot, name: &str) -> f64 {
    snapshot.span(name).map_or(0.0, |s| s.total_ns as f64 / 1e9)
}

fn count(snapshot: &Snapshot, name: &str) -> f64 {
    snapshot.span(name).map_or(0.0, |s| s.count as f64)
}

fn quantile_ms(snapshot: &Snapshot, name: &str, q: f64) -> f64 {
    snapshot
        .span(name)
        .map_or(0.0, |s| s.percentile_ns(q) as f64 / 1e6)
}

/// Self time of every `parent` span: its duration minus the part of its
/// interval that other spans on the same thread, nested inside it, cover.
fn self_time_from_events(events: &[(String, u64, u64, u64)], parent: &str) -> f64 {
    let mut self_ns = 0u64;
    for (_, tid, start, dur) in events.iter().filter(|(name, ..)| name == parent) {
        let end = start + dur;
        let mut children: Vec<(u64, u64)> = events
            .iter()
            .filter(|(name, t, s, d)| {
                t == tid && *s >= *start && s + d <= end && (name != parent || s != start)
            })
            .map(|(_, _, s, d)| (*s, s + d))
            .collect();
        children.sort_unstable();
        let (mut covered, mut reach) = (0u64, *start);
        for (s, e) in children {
            if e > reach {
                covered += e - s.max(reach);
                reach = e;
            }
        }
        self_ns += dur - covered;
    }
    self_ns as f64 / 1e9
}

/// `stage.prepare` self time.  Merged fleet documents carry no trace
/// events; there the Prepare sub-spans, which are siblings opened directly
/// inside the stage, are subtracted from its total.
fn prepare_self_s(snapshot: &Snapshot) -> f64 {
    if snapshot.events.is_empty() {
        let children: f64 = PREPARE_STEPS.iter().map(|n| total_s(snapshot, n)).sum();
        (total_s(snapshot, SPAN_STAGE_PREPARE) - children).max(0.0)
    } else {
        self_time_from_events(&snapshot.events, SPAN_STAGE_PREPARE)
    }
}

/// Every per-layer metric of one traced iteration.
pub fn per_layer(inputs: &Inputs) -> Layers {
    let t = inputs.timed;
    let mut out = Layers::default();

    out.push(
        "setup.recognizer_s",
        "s",
        total_s(inputs.setup, "campaign.setup"),
    );
    out.push(
        "setup.detector_train_s",
        "s",
        total_s(inputs.setup, "campaign.detector_train"),
    );

    let busy_s = total_s(t, "executor.trial");
    let capacity_s = inputs.campaign_s * inputs.workers as f64;
    out.push("executor.busy_frac", "ratio", busy_s / capacity_s);
    out.push(
        "executor.cell_wait_s",
        "s",
        total_s(t, "executor.cell_wait"),
    );
    out.push("executor.trials", "count", count(t, "executor.trial"));
    out.push(
        "executor.trial_p50_ms",
        "ms",
        quantile_ms(t, "executor.trial", 0.50),
    );
    out.push(
        "executor.trial_p99_ms",
        "ms",
        quantile_ms(t, "executor.trial", 0.99),
    );

    let c = inputs.cache;
    out.push("prepare_cache.hits", "count", c.hits as f64);
    out.push("prepare_cache.misses", "count", c.misses as f64);
    out.push("prepare_cache.dup_builds", "count", c.dup_builds as f64);
    out.push("prepare_cache.evictions", "count", c.evictions as f64);
    out.push("prepare_cache.resident_mb", "MB", c.resident_mb);

    // Stage shares of busy time show which stages a workload stresses.
    let prepare_s = total_s(t, SPAN_STAGE_PREPARE);
    let trial_s = total_s(t, SPAN_STAGE_PERTURB) + total_s(t, SPAN_STAGE_EVALUATE);
    out.push("stage.prepare_s", "s", prepare_s);
    out.push("stage.prepare.count", "count", count(t, SPAN_STAGE_PREPARE));
    out.push("stage.prepare.self_s", "s", prepare_self_s(t));
    out.push(
        "stage.prepare.busy_share",
        "ratio",
        share(prepare_s, busy_s),
    );
    out.push("stage.perturb_s", "s", total_s(t, SPAN_STAGE_PERTURB));
    out.push("stage.evaluate_s", "s", total_s(t, SPAN_STAGE_EVALUATE));
    out.push(
        "stage.perturb_evaluate.busy_share",
        "ratio",
        share(trial_s, busy_s),
    );
    for stage in [SPAN_STAGE_PERTURB, SPAN_STAGE_EVALUATE] {
        out.push(format!("{stage}.p50_ms"), "ms", quantile_ms(t, stage, 0.50));
        out.push(format!("{stage}.p99_ms"), "ms", quantile_ms(t, stage, 0.99));
    }
    for step in PREPARE_STEPS.iter().chain(&TRIAL_STEPS) {
        out.push(format!("{step}_s"), "s", total_s(t, step));
        out.push(format!("{step}.count"), "count", count(t, step));
    }

    out.push("aggregate_s", "s", total_s(t, "campaign.aggregate"));
    out.push("report.encode_s", "s", inputs.encode_s);
    out.push("report.bytes", "bytes", inputs.report_bytes as f64);

    let fleet = inputs.fleet.unwrap_or_default();
    let trials = count(t, "executor.trial");
    let coordinator_s = inputs
        .fleet
        .map_or(0.0, |f| (inputs.campaign_s - f.slowest_shard_s).max(0.0));
    out.push("fleet.worker_setup_s", "s", fleet.worker_setup_s);
    out.push("fleet.slowest_shard_s", "s", fleet.slowest_shard_s);
    out.push("fleet.coordinator_overhead_s", "s", coordinator_s);
    out.push("fleet.merge_s", "s", fleet.merge_s);
    out.push(
        "fleet.partial_bytes_per_trial",
        "bytes",
        share(fleet.partial_bytes as f64, trials),
    );
    out.push(
        "fleet.launched_per_shard",
        "ratio",
        share(fleet.launched as f64, fleet.shards as f64),
    );
    out
}

/// `part / whole`, or 0 when there is no whole.
fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &str, tid: u64, start: u64, dur: u64) -> (String, u64, u64, u64) {
        (name.to_string(), tid, start, dur)
    }

    #[test]
    fn self_time_subtracts_the_union_of_nested_spans_on_the_same_thread() {
        let events = vec![
            event("stage.prepare", 1, 100, 100),
            event("prepare.attack_build", 1, 110, 30),
            event("prepare.convolution", 1, 120, 40), // overlaps the build
            event("prepare.leakage", 1, 170, 10),
            event("prepare.leakage", 2, 120, 50), // another thread
            event("stage.prepare", 2, 300, 10),
        ];
        // Thread 1's children cover [110, 160) and [170, 180), leaving 40
        // of its 100 ns; thread 2's span has no children (10 ns).
        assert_eq!(self_time_from_events(&events, "stage.prepare"), 50e-9);
    }
}
