//! The one-client closed loop shared by `plan_deep` and `exec_large`:
//! the untraced rounds, and the traced replay through the public
//! pipeline with its self-check.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use els::engine::Engine;
use els_exec::{metrics::enumerations, EngineCountersSnapshot, ExecMetrics, ExecMode};

use crate::harness::{self, refresh_metric, Outcome, SetupTimes, Writer};
use crate::stats::{self, nanos, Nanos};
use crate::trace::{Pipeline, Summary, Traced, Tracer};

/// One read and its verified answer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Read {
    /// The SQL text.
    pub sql: String,
    /// The count it must return.
    pub want: u64,
}

/// Where a single-client workload's catalog writes go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteTarget {
    /// The engine the reads run on.
    EngineUnderTest,
    /// A second engine in the same process, so the reads' plans stay
    /// cached.
    SideEngine,
}

/// A single-client workload.
pub struct Single<'a> {
    /// Seed of the inputs.
    pub seed: u64,
    /// The engines' execution mode (the traced pipeline uses the same).
    pub mode: ExecMode,
    /// The `i`-th read of the workload's sequence.
    pub read: &'a dyn Fn(usize) -> Read,
    /// Builds, loads and warms one engine.
    pub setup: &'a dyn Fn(&mut SetupTimes) -> Result<Engine, String>,
    /// Where catalog writes go.
    pub writes: WriteTarget,
    /// Rounds of an untraced run, each with its own set-up.
    pub rounds: usize,
}

/// What the untraced rounds measured, plus the last round's engine.
pub struct Measured {
    /// The engine of the last round.
    pub engine: Engine,
    /// Plan-cache hits during measured phases.
    pub cache_hits: u64,
}

/// What one measured phase did.
struct Phase {
    next: usize,
    latencies: Vec<Nanos>,
    elapsed: Duration,
    cache_hits: u64,
}

impl Single<'_> {
    /// The untraced run: [`harness::rounds`] with a closed loop through
    /// `Engine::execute` as each round's phase; the reads continue from
    /// round to round.
    pub fn rounds(&self, out: &mut Outcome, seconds: f64) -> Result<Measured, String> {
        let (mut latencies, mut measured, mut cache_hits) = (Vec::new(), Duration::ZERO, 0);
        let mut per_second = Vec::new();
        let mut next = 0;
        let mut writer = Writer::new("run", self.seed);
        let engine =
            harness::rounds(out, self.rounds, seconds, self.setup, |out, engine, slice| {
                let side = Engine::new();
                let target = match self.writes {
                    WriteTarget::EngineUnderTest => &*engine,
                    WriteTarget::SideEngine => &side,
                };
                let phase = self.phase(out, engine, next, slice, &mut writer, target);
                next = phase.next;
                per_second.extend(per_second_counts(&phase.latencies, phase.elapsed));
                latencies.extend(phase.latencies);
                // The client reads nothing while it writes: count read time only.
                measured += phase.elapsed.saturating_sub(writer.busy);
                cache_hits += phase.cache_hits;
            })?;
        out.attempted += writer.attempted();
        out.failed += writer.failed;
        out.note("reads_per_second", format!("{per_second:?}"));
        out.set("qps", latencies.len() as f64 / measured.as_secs_f64().max(1e-9));
        out.latency(&latencies);
        refresh_metric(out, &writer.latencies);
        Ok(Measured { engine, cache_hits })
    }

    /// Closed loop through `Engine::execute` from read `first` for
    /// `seconds`, checking every count and writing on the cadence.
    fn phase(
        &self,
        out: &mut Outcome,
        engine: &Engine,
        first: usize,
        seconds: f64,
        writer: &mut Writer,
        target: &Engine,
    ) -> Phase {
        let hits0 = engine.cache_stats().hits;
        let start = Instant::now();
        writer.start();
        let mut latencies = Vec::new();
        let mut i = first;
        while start.elapsed().as_secs_f64() < seconds {
            let read = (self.read)(i);
            i += 1;
            out.attempted += 1;
            let t0 = Instant::now();
            match engine.execute(&read.sql) {
                Ok(result) => {
                    latencies.push(nanos(t0.elapsed()));
                    out.check(&read.sql, result.count, read.want);
                }
                Err(_) => out.failed += 1,
            }
            writer.poll(target);
        }
        let cache_hits = engine.cache_stats().hits - hits0;
        Phase { next: i, latencies, elapsed: start.elapsed(), cache_hits }
    }

    /// The traced run: one set-up, an untraced baseline for a quarter of
    /// `seconds`, then the public-function pipeline under spans for half,
    /// then the self-check of every distinct traced query against
    /// `Engine::execute`. `pipeline_warm` reads are replayed through the
    /// pipeline first so its plan cache is as warm as the engine's.
    pub fn traced(
        &self,
        out: &mut Outcome,
        pipeline_warm: usize,
        seconds: f64,
    ) -> Result<(), String> {
        let mut times = SetupTimes::default();
        let engine = (self.setup)(&mut times)?;
        out.set("storage.generate_ms", times.generate_ms);
        out.set("catalog.register_ms", times.register_ms);
        let side = Engine::new();
        let target = match self.writes {
            WriteTarget::EngineUnderTest => &engine,
            WriteTarget::SideEngine => &side,
        };
        let mut writer = Writer::new("baseline", self.seed);
        let baseline = self.phase(out, &engine, 0, seconds / 4.0, &mut writer, target);
        out.attempted += writer.attempted();
        out.failed += writer.failed;
        let baseline_time = baseline.elapsed.saturating_sub(writer.busy);
        let baseline_qps = baseline.latencies.len() as f64 / baseline_time.as_secs_f64().max(1e-9);
        let pipeline = Pipeline::new(&engine, self.mode);
        let mut warm_tracer = Tracer::new();
        for i in 0..pipeline_warm {
            let read = (self.read)(i);
            if let Err(e) = pipeline.run(&mut warm_tracer, &read.sql) {
                out.wrong(format!("warm-up `{}`: {e}", read.sql));
            }
        }

        let cache0 = pipeline.cache().stats();
        let enumerations0 = enumerations();
        let epoch0 = engine.epoch();
        let mut tracer = Tracer::new();
        let mut results: Vec<(Read, Traced)> = Vec::new();
        let mut writer = Writer::new("traced", self.seed);
        writer.start();
        let start = Instant::now();
        let mut i = baseline.next;
        while start.elapsed().as_secs_f64() < seconds / 2.0 {
            let read = (self.read)(i);
            i += 1;
            out.attempted += 1;
            match pipeline.run(&mut tracer, &read.sql) {
                Ok(traced) => {
                    out.check(&read.sql, traced.count, read.want);
                    results.push((read, traced));
                }
                Err(_) => out.failed += 1,
            }
            writer.poll(target);
        }
        let elapsed = start.elapsed().saturating_sub(writer.busy);
        let enumerated = enumerations() - enumerations0;
        let epoch_bumps = engine.epoch() - epoch0;
        out.attempted += writer.attempted();
        out.failed += writer.failed;

        let checked =
            self_check(out, &engine, results.iter().map(|(read, t)| (read.sql.as_str(), t)));
        out.note("self_checked_queries", checked);
        let summary = Summary::from_spans(tracer.spans()).map_err(|e| format!("trace: {e}"))?;
        let mut exec = ExecTotals::default();
        for (_, t) in &results {
            exec.add(&t.metrics);
        }
        layer_metrics(
            out,
            &TracedPhase {
                summary: &summary,
                exec,
                rows: results.iter().map(|(_, t)| t.count).sum(),
                untraced_qps: baseline_qps,
                traced_qps: results.len() as f64 / elapsed.as_secs_f64().max(1e-9),
                enumerations: enumerated,
                epoch_bumps,
                cache: counter_delta(&cache0, &pipeline.cache().stats()),
            },
        );
        Ok(())
    }
}

/// Every distinct traced query must return the same count and join order
/// through `Engine::execute` as through the pipeline; the first traced
/// result of each query is the one compared. Returns the queries checked.
pub fn self_check<'a>(
    out: &mut Outcome,
    engine: &Engine,
    results: impl IntoIterator<Item = (&'a str, &'a Traced)>,
) -> usize {
    let mut distinct: BTreeMap<&str, &Traced> = BTreeMap::new();
    for (sql, traced) in results {
        distinct.entry(sql).or_insert(traced);
    }
    let checked = distinct.len();
    for (sql, traced) in distinct {
        match engine.execute(sql) {
            Ok(r) if r.count == traced.count && r.join_order == traced.join_order => {}
            Ok(r) => out.wrong(format!(
                "self-check `{sql}`: engine {} {:?}, pipeline {} {:?}",
                r.count, r.join_order, traced.count, traced.join_order
            )),
            Err(e) => out.wrong(format!("self-check `{sql}`: {e}")),
        }
    }
    checked
}

/// Reads completed in each whole second of a phase (from the reads'
/// cumulative latency), to show how steady the machine was.
fn per_second_counts(latencies: &[Nanos], elapsed: Duration) -> Vec<usize> {
    let mut counts = vec![0usize; (elapsed.as_secs() as usize).max(1)];
    let mut t = 0u64;
    for &l in latencies {
        t += u64::from(l);
        let last = counts.len() - 1;
        counts[((t / 1_000_000_000) as usize).min(last)] += 1;
    }
    counts
}

/// What a traced phase measured besides its spans.
pub struct TracedPhase<'a> {
    /// The phase's spans, folded.
    pub summary: &'a Summary,
    /// Executor counters of the traced queries.
    pub exec: ExecTotals,
    /// Result rows of every traced query, summed.
    pub rows: u64,
    /// Reads per second of the untraced baseline.
    pub untraced_qps: f64,
    /// Reads per second under tracing.
    pub traced_qps: f64,
    /// Join enumerations during the phase.
    pub enumerations: u64,
    /// Catalog epoch bumps during the phase.
    pub epoch_bumps: u64,
    /// Plan-cache counter changes during the phase.
    pub cache: EngineCountersSnapshot,
}

/// Executor counters summed over a traced phase, so the phase keeps no
/// per-query record besides its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecTotals {
    /// Every counter, summed.
    pub total: ExecMetrics,
    /// Executions summed.
    pub runs: usize,
    /// Executions that ran a radix-partitioned parallel join.
    pub parallel: usize,
}

impl ExecTotals {
    /// Count one execution.
    pub fn add(&mut self, metrics: &ExecMetrics) {
        self.total.absorb(metrics);
        self.runs += 1;
        self.parallel += usize::from(metrics.partitions > 0);
    }

    /// Merge another phase's totals.
    pub fn absorb(&mut self, other: &ExecTotals) {
        self.total.absorb(&other.total);
        self.runs += other.runs;
        self.parallel += other.parallel;
    }
}

/// Field-wise `after - before` of plan-cache counters.
pub fn counter_delta(
    before: &EngineCountersSnapshot,
    after: &EngineCountersSnapshot,
) -> EngineCountersSnapshot {
    EngineCountersSnapshot {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        invalidations: after.invalidations - before.invalidations,
    }
}

/// Per-layer metrics every traced run derives from its spans, the
/// executor's counters and the plan cache's.
pub fn layer_metrics(out: &mut Outcome, t: &TracedPhase<'_>) {
    let summary = t.summary;
    out.note("trace_queries", summary.queries);
    out.note("untraced_qps", format!("{:.3}", t.untraced_qps));
    out.note("traced_qps", format!("{:.3}", t.traced_qps));
    out.set("trace.overhead_frac", 1.0 - t.traced_qps / t.untraced_qps.max(1e-9));
    out.set("optimizer.enumerations", t.enumerations as f64);
    out.set("catalog.epoch_bumps", t.epoch_bumps as f64);
    let lookups = t.cache.hits + t.cache.misses;
    out.set("optimizer.plan_cache_lookups", lookups as f64);
    out.set("optimizer.plan_cache_hit_rate", t.cache.hit_rate());
    out.set("optimizer.plan_cache_invalidations", t.cache.invalidations as f64);
    out.set("optimizer.plan_cache_evictions", t.cache.evictions as f64);

    let optimize = summary.calls("optimizer.optimize");
    let execute = summary.calls("exec.execute");
    out.note("optimize_samples", optimize.len());
    out.note("execute_samples", execute.len());
    out.set("optimizer.optimize_p50_ms", stats::percentile_ms(optimize, 50.0));
    out.set("optimizer.optimize_p95_ms", stats::percentile_ms(optimize, 95.0));
    out.set("optimizer.self_share", summary.self_share("optimizer"));
    out.set("exec.execute_p50_ms", stats::percentile_ms(execute, 50.0));
    out.set("exec.execute_p95_ms", stats::percentile_ms(execute, 95.0));
    let us = |name: &str| stats::percentile_ms(summary.calls(name), 50.0) * 1e3;
    out.set("sql.parse_us", us("sql.parse"));
    out.set("sql.fingerprint_us", us("sql.fingerprint"));
    out.set("sql.bind_us", us("sql.bind"));
    out.set("engine.glue_self_us", stats::percentile_ms(&summary.glue, 50.0) * 1e3);

    let total = &t.exec.total;
    out.set("exec.partitions", total.partitions as f64);
    out.set("exec.morsels", total.morsels as f64);
    out.set("exec.steals", total.steals as f64);
    out.set("exec.pair_lists", total.pair_lists as f64);
    out.set("exec.tuples_scanned", total.tuples_scanned as f64);
    out.set("exec.hash_probes", total.hash_probes as f64);
    out.set("exec.kernel_rows", total.kernel_rows as f64);
    out.set("exec.comparisons", total.comparisons as f64);
    out.set("exec.rows_sorted", total.rows_sorted as f64);
    out.set("exec.scanned_per_result", total.tuples_scanned as f64 / (t.rows as f64).max(1.0));
    let (parallel, runs) = (t.exec.parallel as f64, t.exec.runs as f64);
    out.set("exec.parallel_join_frac", parallel / runs.max(1.0));
}
