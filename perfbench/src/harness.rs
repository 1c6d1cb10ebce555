//! What every workload shares: run configuration, the metric table, the
//! outcome a run reports, the rounds that sample set-up, and the catalog
//! writes.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use els::engine::Engine;
use els_exec::json_escape;
use els_storage::datagen::{ColumnSpec, Distribution, TableSpec};
use els_storage::Table;

use crate::stats;

/// Command-line configuration of one run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
}

/// End-to-end metrics (untraced runs), with units. Every workload reports
/// all of them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("qerror_p50", "ratio"),
    ("qerror_p95", "ratio"),
    ("peak_rss_mb", "MB"),
    ("refresh_p50_ms", "ms"),
];

/// Per-layer metrics (traced runs), with units. A layer that is not on a
/// workload's path reports 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("optimizer.optimize_p50_ms", "ms"),
    ("optimizer.optimize_p95_ms", "ms"),
    ("optimizer.self_share", "ratio"),
    ("optimizer.enumerations", "count"),
    ("exec.execute_p50_ms", "ms"),
    ("exec.execute_p95_ms", "ms"),
    ("exec.partitions", "count"),
    ("exec.morsels", "count"),
    ("exec.steals", "count"),
    ("exec.pair_lists", "count"),
    ("exec.parallel_join_frac", "ratio"),
    ("exec.tuples_scanned", "count"),
    ("exec.hash_probes", "count"),
    ("exec.kernel_rows", "count"),
    ("exec.comparisons", "count"),
    ("exec.rows_sorted", "count"),
    ("exec.scanned_per_result", "ratio"),
    ("sql.parse_us", "us"),
    ("sql.fingerprint_us", "us"),
    ("sql.bind_us", "us"),
    ("optimizer.plan_cache_hit_rate", "ratio"),
    ("optimizer.plan_cache_lookups", "count"),
    ("optimizer.plan_cache_invalidations", "count"),
    ("optimizer.plan_cache_evictions", "count"),
    ("catalog.epoch_bumps", "count"),
    ("catalog.register_ms", "ms"),
    ("storage.generate_ms", "ms"),
    ("server.round_trip_p50_ms", "ms"),
    ("server.round_trip_p95_ms", "ms"),
    ("server.inprocess_p50_ms", "ms"),
    ("server.overhead_p50_ms", "ms"),
    ("server.queue_depth_max", "count"),
    ("server.rejected", "count"),
    ("server.shed", "count"),
    ("server.queries_err", "count"),
    ("engine.glue_self_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase (reads and writes).
    pub attempted: u64,
    /// Operations that came back as typed errors.
    pub failed: u64,
    /// Wrong answers and failed self-checks; any entry fails the run.
    pub wrong: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Run facts printed beside the result (sample counts, sizes, ...).
    pub context: BTreeMap<String, String>,
}

impl Outcome {
    /// Record a metric; `name` must be in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a run fact; `json` is a JSON value.
    pub fn note(&mut self, key: &str, json: impl ToString) {
        self.context.insert(key.to_owned(), json.to_string());
    }

    /// Count one wrong answer or failed check.
    pub fn wrong(&mut self, what: String) {
        self.wrong.push(what);
    }

    /// Check a read's count against its known answer.
    pub fn check(&mut self, what: &str, got: u64, want: u64) {
        if got != want {
            self.wrong(format!("{what}: got {got}, want {want}"));
        }
    }

    /// Record a latency sample's percentiles under end-to-end names,
    /// refusing a percentile without ten samples beyond it.
    pub fn latency(&mut self, latencies: &[stats::Nanos]) {
        let sorted = stats::durations(latencies);
        self.note("latency_samples", sorted.len());
        self.note("latency_ventiles_ms", ventiles(&sorted));
        for (name, p) in [("latency_p50_ms", 50.0), ("latency_p95_ms", 95.0)] {
            match stats::percentile_checked(&sorted, p) {
                Ok(v) => self.set(name, v),
                Err(e) => self.wrong(format!("{name}: {e}")),
            }
        }
    }

    /// q-error p50/p95 over the distinct queries' root estimates.
    pub fn qerror(&mut self, qerrors: Vec<f64>) {
        self.note("qerror_queries", qerrors.len());
        self.set("qerror_p50", stats::qerror_percentile(qerrors.clone(), 50.0));
        self.set("qerror_p95", stats::qerror_percentile(qerrors, 95.0));
    }
}

/// Time spent generating and registering tables in one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Table generation, ms.
    pub generate_ms: f64,
    /// `Engine::register` (statistics collection), ms.
    pub register_ms: f64,
}

impl SetupTimes {
    /// Generate `tables` and register them into `engine`, adding both
    /// times to the running totals.
    pub fn load(
        &mut self,
        engine: &Engine,
        generate: impl FnOnce() -> Vec<Table>,
    ) -> Result<(), String> {
        let t0 = Instant::now();
        let tables = generate();
        let t1 = Instant::now();
        for table in tables {
            engine.register(table).map_err(|e| e.to_string())?;
        }
        self.generate_ms += (t1 - t0).as_secs_f64() * 1e3;
        self.register_ms += t1.elapsed().as_secs_f64() * 1e3;
        Ok(())
    }
}

/// The untraced run's skeleton: `rounds` rounds, each a timed fresh
/// set-up (the previous round's state dropped first, so one set-up's
/// memory is live at a time) followed by `phase` on it for an equal
/// slice of `seconds`. Many set-ups spread over the run let `setup_s`,
/// their median, see the same machine as the reads. Records
/// `peak_rss_mb` (before any post-processing) and `setup_s`, and returns
/// the last round's state.
pub fn rounds<S>(
    out: &mut Outcome,
    rounds: usize,
    seconds: f64,
    mut setup: impl FnMut(&mut SetupTimes) -> Result<S, String>,
    mut phase: impl FnMut(&mut Outcome, &mut S, f64),
) -> Result<S, String> {
    let mut last: Option<S> = None;
    let mut setup_s = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        drop(last.take());
        let t0 = Instant::now();
        let mut fresh = setup(&mut SetupTimes::default())?;
        setup_s.push(t0.elapsed());
        phase(out, &mut fresh, seconds / rounds as f64);
        last = Some(fresh);
    }
    out.set("peak_rss_mb", peak_rss_mb());
    setup_metric(out, &setup_s);
    last.ok_or_else(|| "a run needs at least one round".to_owned())
}

/// Report the median of per-round set-up times as `setup_s`.
fn setup_metric(out: &mut Outcome, setups: &[Duration]) {
    out.note("setup_samples", setups.len());
    let all: Vec<String> = setups.iter().map(|s| format!("{:.4}", s.as_secs_f64())).collect();
    out.note("setup_all_s", format!("[{}]", all.join(", ")));
    out.set("setup_s", stats::percentile_ms(setups, 50.0) / 1e3);
}

/// Rows of the fresh tables catalog writes register, and writes of each
/// size per cycle of 20. The large writes put `refresh_p50_ms` at the
/// 91st percentile of the 10k-row writes, where the machine's fast and
/// slow states do not move it (see [`crate::stats::rank_in_mix`]).
pub const WRITE_MIX: [(usize, usize); 2] = [(10_000, 11), (30_000, 9)];

/// A fresh table for a catalog write: a key and a payload column, like
/// the S/M/B/G tables.
pub fn fresh_table(name: &str, rows: usize, seed: u64) -> Table {
    TableSpec::new(name, rows)
        .column(ColumnSpec::new("f", Distribution::SequentialInt { start: 0 }))
        .column(ColumnSpec::new("payload", Distribution::UniformInt { lo: 0, hi: 1_000_000 }))
        .generate(seed)
}

/// Time between two catalog writes of one client. Writes follow the
/// clock rather than a read count, so every run makes the same number of
/// them and their samples spread over the whole measured phase.
pub const WRITE_INTERVAL: Duration = Duration::from_millis(150);

/// One client's catalog writes: a fresh table registered every
/// [`WRITE_INTERVAL`], timing only the `Engine::register` call (the
/// table is generated before the clock starts).
#[derive(Debug)]
pub struct Writer {
    tag: String,
    seed: u64,
    sizes: Vec<usize>,
    written: usize,
    next_at: Option<Instant>,
    /// Latency of every successful write.
    pub latencies: Vec<stats::Nanos>,
    /// Writes that came back as typed errors.
    pub failed: u64,
    /// Time the client spent on writes (generating and registering)
    /// since the last [`Writer::start`].
    pub busy: Duration,
}

impl Writer {
    /// A writer whose table names start with `fresh_<tag>_`.
    pub fn new(tag: impl Into<String>, seed: u64) -> Writer {
        Writer {
            tag: tag.into(),
            seed,
            sizes: stats::interleave(&WRITE_MIX),
            written: 0,
            next_at: None,
            latencies: Vec::new(),
            failed: 0,
            busy: Duration::ZERO,
        }
    }

    /// Start (or restart) the cadence: the next write is one interval
    /// from now. The write sizes carry on where the last phase left off,
    /// so short phases still follow [`WRITE_MIX`].
    pub fn start(&mut self) {
        self.next_at = Some(Instant::now() + WRITE_INTERVAL);
        self.busy = Duration::ZERO;
    }

    /// Register a fresh table into `engine` if the cadence says so. A
    /// client that fell behind skips the missed writes instead of
    /// bursting.
    pub fn poll(&mut self, engine: &Engine) {
        let now = Instant::now();
        let Some(next_at) = self.next_at else { return };
        if now < next_at {
            return;
        }
        self.next_at = Some((next_at + WRITE_INTERVAL).max(now));
        let n = self.written;
        self.written += 1;
        let name = format!("fresh_{}_{n}", self.tag);
        let t0 = Instant::now();
        let rows = self.sizes[n % self.sizes.len()];
        let table = fresh_table(&name, rows, self.seed ^ ((n as u64) << 8));
        let t1 = Instant::now();
        match engine.register(table) {
            Ok(()) => self.latencies.push(stats::nanos(t1.elapsed())),
            Err(_) => self.failed += 1,
        }
        self.busy += t0.elapsed();
    }

    /// Writes attempted so far.
    pub fn attempted(&self) -> u64 {
        self.latencies.len() as u64 + self.failed
    }
}

/// `refresh_p50_ms` from catalog-write latencies.
pub fn refresh_metric(out: &mut Outcome, latencies: &[stats::Nanos]) {
    let sorted = stats::durations(latencies);
    out.note("refresh_samples", sorted.len());
    out.note("refresh_ventiles_ms", ventiles(&sorted));
    match stats::percentile_checked(&sorted, 50.0) {
        Ok(v) => out.set("refresh_p50_ms", v),
        Err(e) => out.wrong(format!("refresh_p50_ms: {e}")),
    }
}

/// The 5th, 10th, ..., 95th percentiles of a sample, as a JSON array:
/// the shape of a distribution, for the context line.
fn ventiles(samples: &[Duration]) -> String {
    let v: Vec<String> =
        (1..20).map(|k| format!("{:.4}", stats::percentile_ms(samples, k as f64 * 5.0))).collect();
    format!("[{}]", v.join(", "))
}

/// Peak resident memory of this process, MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len(), "extra metrics in BENCHMARK.json");
    }

    #[test]
    fn refresh_p50_sits_high_inside_the_small_writes() {
        let total: usize = WRITE_MIX.iter().map(|(_, n)| n).sum();
        let shares: Vec<f64> = WRITE_MIX.iter().map(|&(_, n)| n as f64 / total as f64).collect();
        let (class, q, margin) = stats::rank_in_mix(&shares, 50.0);
        assert!(class == 0 && q >= 0.9 && margin >= 3.0, "{class} {q} {margin}");
        assert!(WRITE_MIX.iter().all(|&(rows, _)| (10_000..=50_000).contains(&rows)));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n\u{1}"), "\"a\\\"b\\\\c\\n\\u0001\"");
    }
}
