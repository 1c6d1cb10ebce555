//! `serve_mixed`: two `Client` connections, one per tenant, read through
//! an `els_server` with two workers over loopback, while each client
//! registers a fresh table into its own tenant's engine every
//! [`crate::harness::WRITE_INTERVAL`]. It is the only workload through the protocol,
//! the worker pool and admission, and the only one where a write bumps a
//! tenant's epoch so its next reads re-plan.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use els::core::q_error;
use els::engine::Engine;
use els_exec::{metrics::enumerations, EngineCountersSnapshot, ExecMode};
use els_server::{serve, Client, ServerConfig, ServerHandle, Tenants};
use els_storage::datagen::{ColumnSpec, Distribution, TableSpec};
use els_storage::Table;

use crate::harness::{self, refresh_metric, Config, Outcome, SetupTimes, Writer};
use crate::single::{counter_delta, layer_metrics, self_check, ExecTotals, TracedPhase};
use crate::stats::{self, interleave, nanos, Nanos};
use crate::trace::{Pipeline, Summary, Traced, Tracer};

/// Tenants and the rows of their tables `t`, `u`, `v`, `w`. The sizes
/// differ, so an answer from the wrong tenant shows in the count.
pub const TENANTS: [(&str, [u64; 4]); 2] =
    [("alpha", [1_000, 800, 600, 500]), ("beta", [900, 700, 550, 450])];
const TABLES: [&str; 4] = ["t", "u", "v", "w"];
/// Server worker threads.
pub const SERVER_WORKERS: usize = 2;
/// Rounds per run, each with its own server and tenants (the median of
/// their set-up times is `setup_s`).
const ROUNDS: usize = 30;
const TIMEOUT: Duration = Duration::from_secs(30);

/// One client's reads, `((tables joined, key cut), reads per cycle of
/// 60)`: 53% single-table counts and 43% 2-table joins, then one 3-table
/// and one 4-table join, so p50 sits at the 94th percentile of the
/// single-table class and p95 at the 96th of the 2-table class (see
/// [`crate::stats::rank_in_mix`]). Six distinct reads keep the re-plans
/// after a write near half a percent of reads. Every cut lies above some
/// table of the smaller tenant, so a reply from the wrong tenant shows.
pub const MIX: [((usize, u64), usize); 6] =
    [((1, 920), 16), ((1, 980), 16), ((2, 720), 13), ((2, 790), 13), ((3, 580), 1), ((4, 470), 1)];

/// The distinct reads of [`MIX`].
fn distinct_reads() -> impl Iterator<Item = (usize, u64)> {
    MIX.into_iter().map(|(read, _)| read)
}

/// One cycle of reads, as indices into [`MIX`].
fn cycle() -> Vec<usize> {
    let counts: Vec<(usize, usize)> = MIX.iter().enumerate().map(|(k, &(_, n))| (k, n)).collect();
    interleave(&counts)
}

/// SQL of a chain over the first `tables` tables with `t.k < cut`.
pub fn read_sql(tables: usize, cut: u64) -> String {
    let from = TABLES[..tables].join(", ");
    let mut conjuncts: Vec<String> =
        (1..tables).map(|i| format!("{}.k = {}.k", TABLES[i - 1], TABLES[i])).collect();
    conjuncts.push(format!("t.k < {cut}"));
    format!("SELECT COUNT(*) FROM {from} WHERE {}", conjuncts.join(" AND "))
}

/// Closed-form answer: keys are sequential from 0 and contained in each
/// other, so the chain keeps every key below the cut and every table size.
pub fn read_want(sizes: &[u64; 4], tables: usize, cut: u64) -> u64 {
    sizes[..tables].iter().copied().fold(cut, u64::min)
}

fn tenant_tables(sizes: &[u64; 4], seed: u64) -> Vec<Table> {
    TABLES
        .iter()
        .zip(sizes)
        .map(|(name, &rows)| {
            TableSpec::new(*name, rows as usize)
                .column(ColumnSpec::new("k", Distribution::SequentialInt { start: 0 }))
                .column(ColumnSpec::new(
                    "payload",
                    Distribution::UniformInt { lo: 0, hi: 1_000_000 },
                ))
                .generate(seed)
        })
        .collect()
}

/// A running server with one connected client per tenant.
struct Stack {
    server: Option<ServerHandle>,
    engines: Vec<Arc<Engine>>,
    clients: Vec<Client>,
}

impl Drop for Stack {
    fn drop(&mut self) {
        for client in self.clients.drain(..) {
            client.quit();
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

fn setup(seed: u64, times: &mut SetupTimes) -> Result<Stack, String> {
    let names = TENANTS.map(|(name, _)| name);
    let tenants = Tenants::isolated(&names, 256).map_err(|e| e.to_string())?;
    let mut engines = Vec::new();
    let mut total = SetupTimes::default();
    for (t, (name, sizes)) in TENANTS.iter().enumerate() {
        let engine = tenants.resolve(name).ok_or("tenant missing")?;
        let mut one = SetupTimes::default();
        one.load(&engine, || tenant_tables(sizes, seed.wrapping_add(t as u64)))?;
        total.generate_ms += one.generate_ms;
        total.register_ms += one.register_ms;
        engines.push(engine);
    }
    *times = total;
    let config = ServerConfig { workers: SERVER_WORKERS, ..ServerConfig::default() };
    let server = serve("127.0.0.1:0", tenants, config).map_err(|e| e.to_string())?;
    let addr = server.addr();
    // Built before the clients connect, so a failed warm-up still shuts
    // the server down.
    let mut stack = Stack { server: Some(server), engines, clients: Vec::new() };
    for (name, sizes) in TENANTS {
        let mut client = Client::connect(addr, name, TIMEOUT).map_err(|e| e.to_string())?;
        for (tables, cut) in distinct_reads() {
            let reply = client.query(&read_sql(tables, cut)).map_err(|e| e.to_string())?;
            if reply.count != read_want(&sizes, tables, cut) {
                return Err(format!("warm-up on {name}: wrong count {}", reply.count));
            }
        }
        stack.clients.push(client);
    }
    Ok(stack)
}

/// One client's tally over a measured phase.
#[derive(Debug, Default)]
struct Tally {
    reads: usize,
    /// Time the client spent reading: its loop's time less its writes.
    read_time: Duration,
    failed: u64,
    misses: usize,
    writes: Vec<Nanos>,
    write_failed: u64,
    queue_depth_max: usize,
    wrong: Vec<String>,
    /// Read latencies per distinct read of [`MIX`].
    by_class: Vec<Vec<Nanos>>,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.reads += other.reads;
        self.read_time += other.read_time;
        self.failed += other.failed;
        self.misses += other.misses;
        self.writes.extend(other.writes);
        self.write_failed += other.write_failed;
        self.queue_depth_max = self.queue_depth_max.max(other.queue_depth_max);
        self.wrong.extend(other.wrong);
        self.by_class.resize(MIX.len(), Vec::new());
        for (mine, theirs) in self.by_class.iter_mut().zip(other.by_class) {
            mine.extend(theirs);
        }
    }
}

/// Client `c`'s closed loop over the server until `seconds` pass, with a
/// catalog write into its tenant's engine on the write cadence.
fn client_loop(
    c: usize,
    client: &mut Client,
    engine: &Engine,
    server: &ServerHandle,
    writer: &mut Writer,
    seconds: f64,
) -> Tally {
    let (tenant, sizes) = TENANTS[c];
    let reads: Vec<(String, u64)> = distinct_reads()
        .map(|(tables, cut)| (read_sql(tables, cut), read_want(&sizes, tables, cut)))
        .collect();
    let cycle = cycle();
    let mut tally = Tally { by_class: vec![Vec::new(); MIX.len()], ..Tally::default() };
    let start = Instant::now();
    writer.start();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let k = cycle[i % cycle.len()];
        let (sql, want) = &reads[k];
        let t0 = Instant::now();
        match client.query(sql) {
            Ok(reply) => {
                tally.by_class[k].push(nanos(t0.elapsed()));
                tally.reads += 1;
                tally.misses += usize::from(!reply.cached);
                if reply.count != *want {
                    tally.wrong.push(format!("{tenant}: `{sql}` -> {} (want {want})", reply.count));
                }
            }
            Err(_) => tally.failed += 1,
        }
        i += 1;
        tally.queue_depth_max = tally.queue_depth_max.max(server.queue_depth());
        writer.poll(engine);
    }
    tally.read_time = start.elapsed().saturating_sub(writer.busy);
    tally.writes = std::mem::take(&mut writer.latencies);
    tally.write_failed = std::mem::take(&mut writer.failed);
    tally
}

/// Both clients' loops, one thread each; one tally per client.
fn server_phase(stack: &mut Stack, writers: &mut [Writer], seconds: f64) -> Vec<Tally> {
    let server = stack.server.as_ref().expect("server runs until the stack drops");
    let engines = &stack.engines;
    std::thread::scope(|scope| {
        let handles: Vec<_> = stack
            .clients
            .iter_mut()
            .zip(writers.iter_mut())
            .enumerate()
            .map(|(c, (client, writer))| {
                let engine = &engines[c];
                scope.spawn(move || client_loop(c, client, engine, server, writer, seconds))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    })
}

/// Reads per second summed over clients, each client's reads over its
/// own read time, so writes are timed separately as on every workload.
fn qps(clients: &[Tally]) -> f64 {
    clients.iter().map(|t| t.reads as f64 / t.read_time.as_secs_f64().max(1e-9)).sum()
}

/// The clients' tallies merged into one.
fn merged(clients: Vec<Tally>) -> Tally {
    let mut total = Tally::default();
    for tally in clients {
        total.absorb(tally);
    }
    total
}

/// Fold a server-phase tally into the outcome and check the miss share.
fn account(out: &mut Outcome, tally: &mut Tally) {
    out.attempted += (tally.reads as u64 + tally.failed) + tally.writes.len() as u64;
    out.attempted += tally.write_failed;
    out.failed += tally.failed + tally.write_failed;
    for w in tally.wrong.drain(..) {
        out.wrong(w);
    }
    out.note("reads", tally.reads);
    out.note("writes", tally.writes.len());
    let class_p50: Vec<String> = tally
        .by_class
        .iter()
        .map(|l| format!("{:.4}", stats::percentile_ms(&stats::durations(l), 50.0)))
        .collect();
    out.note("read_p50_ms", format!("[{}]", class_p50.join(", ")));
    let miss_share = tally.misses as f64 / (tally.reads as f64).max(1.0);
    out.note("read_miss_share", format!("{miss_share:.5}"));
    if miss_share >= 0.05 {
        out.wrong(format!("{:.1}% of reads missed the plan cache", miss_share * 100.0));
    }
}

/// Root estimates of the distinct join reads against their answers.
fn qerrors(out: &mut Outcome, engines: &[Arc<Engine>]) -> Vec<f64> {
    let mut qerrors = Vec::new();
    for (engine, (_, sizes)) in engines.iter().zip(TENANTS) {
        for (tables, cut) in distinct_reads().filter(|&(tables, _)| tables > 1) {
            let sql = read_sql(tables, cut);
            match engine.prepare(&sql) {
                Ok(plan) => {
                    let root = plan.optimized.estimated_sizes.last().copied().unwrap_or(0.0);
                    qerrors.push(q_error(root, read_want(&sizes, tables, cut) as f64));
                }
                Err(e) => out.wrong(format!("prepare `{sql}`: {e}")),
            }
        }
    }
    qerrors
}

/// Run the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.note("exec_workers", 1);
    out.note("server_workers", SERVER_WORKERS);
    if cfg.trace {
        let mut times = SetupTimes::default();
        let mut stack = setup(cfg.seed, &mut times)?;
        out.set("storage.generate_ms", times.generate_ms);
        out.set("catalog.register_ms", times.register_ms);
        traced(&mut out, &mut stack, cfg)?;
        return Ok(out);
    }

    // Each round stands up a fresh server and tenants, so set-up samples
    // spread over the run and the catalog writes of one round do not
    // pile up into the next.
    let mut clients: Vec<Tally> = (0..TENANTS.len()).map(|_| Tally::default()).collect();
    let mut writers: Vec<Writer> =
        (0..TENANTS.len()).map(|c| Writer::new(format!("c{c}"), cfg.seed)).collect();
    let setup = |times: &mut SetupTimes| setup(cfg.seed, times);
    let stack = harness::rounds(&mut out, ROUNDS, cfg.seconds, setup, |_, stack, slice| {
        for (total, tally) in clients.iter_mut().zip(server_phase(stack, &mut writers, slice)) {
            total.absorb(tally);
        }
    })?;
    out.set("qps", qps(&clients));
    let mut total = merged(clients);
    account(&mut out, &mut total);
    out.latency(&total.by_class.concat());
    refresh_metric(&mut out, &total.writes);
    let qerrors = qerrors(&mut out, &stack.engines);
    out.qerror(qerrors);
    Ok(out)
}

/// The traced run: the server phase for the `server.*` layer, then the
/// same reads and writes in-process, first through `Engine::execute`
/// untraced and then through the public pipeline under spans.
fn traced(out: &mut Outcome, stack: &mut Stack, cfg: &Config) -> Result<(), String> {
    let server = stack.server.as_ref().expect("server runs until the stack drops");
    let counters0 = server.counters();
    let mut writers: Vec<Writer> =
        (0..TENANTS.len()).map(|c| Writer::new(format!("server{c}"), cfg.seed)).collect();
    let mut tally = merged(server_phase(stack, &mut writers, cfg.seconds / 2.0));
    account(out, &mut tally);
    let server = stack.server.as_ref().expect("server runs until the stack drops");
    let counters = server.counters();
    let round_trip = stats::durations(&tally.by_class.concat());
    out.note("round_trip_samples", round_trip.len());
    let rt50 = stats::percentile_ms(&round_trip, 50.0);
    out.set("server.round_trip_p50_ms", rt50);
    out.set("server.round_trip_p95_ms", stats::percentile_ms(&round_trip, 95.0));
    out.set("server.queue_depth_max", tally.queue_depth_max as f64);
    out.set("server.rejected", (counters.rejected - counters0.rejected) as f64);
    out.set("server.shed", (counters.shed - counters0.shed) as f64);
    out.set("server.queries_err", (counters.queries_err - counters0.queries_err) as f64);

    let engines = &stack.engines;
    let pipelines: Vec<Pipeline<'_>> =
        engines.iter().map(|e| Pipeline::new(e, ExecMode::default())).collect();
    let (untraced, untraced_elapsed) = inprocess_phase(engines, None, cfg, "untraced");
    let untraced_reads: usize = untraced.iter().map(|t| t.latencies.len()).sum();
    let untraced_qps = untraced_reads as f64 / untraced_elapsed.as_secs_f64().max(1e-9);
    let mut inproc_latencies = Vec::new();
    for tally in untraced {
        inproc_latencies.extend_from_slice(&tally.latencies);
        tally.account(out);
    }
    let inproc50 = stats::percentile_ms(&stats::durations(&inproc_latencies), 50.0);
    out.set("server.inprocess_p50_ms", inproc50);
    out.set("server.overhead_p50_ms", rt50 - inproc50);

    let mut warm = Tracer::new();
    for pipeline in &pipelines {
        for (tables, cut) in distinct_reads() {
            pipeline.run(&mut warm, &read_sql(tables, cut)).map_err(|e| format!("warm-up: {e}"))?;
        }
    }
    let cache0: Vec<_> = pipelines.iter().map(|p| p.cache().stats()).collect();
    let epochs0: Vec<u64> = engines.iter().map(|e| e.epoch()).collect();
    let enumerations0 = enumerations();
    let (traced, elapsed) = inprocess_phase(engines, Some(&pipelines), cfg, "traced");
    let enumerated = enumerations() - enumerations0;

    let mut summary = Summary::default();
    let mut exec = ExecTotals::default();
    let (mut rows, mut writes, mut checked) = (0u64, 0usize, 0);
    for (tally, engine) in traced.into_iter().zip(engines) {
        let spans = Summary::from_spans(tally.tracer.spans()).map_err(|e| format!("trace: {e}"))?;
        summary.absorb(spans);
        checked += self_check(out, engine, tally.first.iter().map(|(sql, t)| (sql.as_str(), t)));
        exec.absorb(&tally.exec);
        rows += tally.rows;
        writes += tally.writes;
        tally.account(out);
    }
    out.note("self_checked_queries", checked);
    out.note("trace_writes", writes);
    let mut cache = EngineCountersSnapshot::default();
    for (p, c0) in pipelines.iter().zip(&cache0) {
        let d = counter_delta(c0, &p.cache().stats());
        cache.hits += d.hits;
        cache.misses += d.misses;
        cache.evictions += d.evictions;
        cache.invalidations += d.invalidations;
    }
    layer_metrics(
        out,
        &TracedPhase {
            summary: &summary,
            exec,
            rows,
            untraced_qps,
            traced_qps: exec.runs as f64 / elapsed.as_secs_f64().max(1e-9),
            enumerations: enumerated,
            epoch_bumps: engines.iter().zip(&epochs0).map(|(e, &e0)| e.epoch() - e0).sum(),
            cache,
        },
    );
    Ok(())
}

/// One tenant's in-process loop.
#[derive(Debug, Default)]
struct Inprocess {
    tracer: Tracer,
    /// The first traced result of each distinct read, for the self-check.
    first: BTreeMap<String, Traced>,
    latencies: Vec<Nanos>,
    exec: ExecTotals,
    rows: u64,
    writes: usize,
    failed: u64,
    wrong: Vec<String>,
}

impl Inprocess {
    fn account(self, out: &mut Outcome) {
        out.attempted += self.latencies.len() as u64 + self.writes as u64 + self.failed;
        out.failed += self.failed;
        for w in self.wrong {
            out.wrong(w);
        }
    }
}

/// Both tenants' reads and writes in-process for half of the run's
/// seconds, one thread each: through `Engine::execute` when `pipelines`
/// is `None`, else through the traced pipeline.
fn inprocess_phase(
    engines: &[Arc<Engine>],
    pipelines: Option<&[Pipeline<'_>]>,
    cfg: &Config,
    tag: &'static str,
) -> (Vec<Inprocess>, Duration) {
    let seconds = cfg.seconds / 2.0;
    let start = Instant::now();
    let tallies = std::thread::scope(|scope| {
        let handles: Vec<_> = engines
            .iter()
            .enumerate()
            .map(|(c, engine)| {
                let pipeline = pipelines.map(|p| &p[c]);
                scope.spawn(move || {
                    let (tenant, sizes) = TENANTS[c];
                    let mut tally = Inprocess::default();
                    let mut writer = Writer::new(format!("{tag}{c}"), cfg.seed);
                    writer.start();
                    let cycle = cycle();
                    let mut i = 0;
                    while start.elapsed().as_secs_f64() < seconds {
                        let (tables, cut) = MIX[cycle[i % cycle.len()]].0;
                        i += 1;
                        let sql = read_sql(tables, cut);
                        let t0 = Instant::now();
                        let count = match pipeline {
                            Some(p) => p.run(&mut tally.tracer, &sql).map(|t| {
                                tally.exec.add(&t.metrics);
                                let count = t.count;
                                if !tally.first.contains_key(&sql) {
                                    tally.first.insert(sql.clone(), t);
                                }
                                count
                            }),
                            None => {
                                engine.execute(&sql).map(|r| r.count).map_err(|e| e.to_string())
                            }
                        };
                        match count {
                            Ok(count) => {
                                tally.latencies.push(nanos(t0.elapsed()));
                                tally.rows += count;
                                if count != read_want(&sizes, tables, cut) {
                                    tally.wrong.push(format!("{tenant} {tag}: `{sql}` -> {count}"));
                                }
                            }
                            Err(_) => tally.failed += 1,
                        }
                        writer.poll(engine);
                    }
                    tally.writes = writer.latencies.len();
                    tally.failed += writer.failed;
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("in-process thread")).collect()
    });
    (tallies, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::rank_in_mix;

    #[test]
    fn reads_have_closed_form_answers_per_tenant() {
        assert_eq!(read_sql(1, 100), "SELECT COUNT(*) FROM t WHERE t.k < 100");
        assert_eq!(
            read_sql(3, 9),
            "SELECT COUNT(*) FROM t, u, v WHERE t.k = u.k AND u.k = v.k AND t.k < 9"
        );
        let [(_, alpha), (_, beta)] = TENANTS;
        assert_eq!(read_want(&alpha, 4, 470), 470);
        assert_eq!(read_want(&beta, 4, 470), 450);
        // Every read tells the tenants apart by its count alone.
        assert!(distinct_reads().all(|(t, c)| read_want(&alpha, t, c) != read_want(&beta, t, c)));
    }

    #[test]
    fn percentiles_sit_high_inside_a_query_class() {
        // Classes in ascending cost: tables joined, then the reads that
        // re-plan after a write (about half a percent).
        let replans = 0.005;
        let total: usize = MIX.iter().map(|(_, n)| n).sum();
        let mut shares: Vec<f64> = (1..=4)
            .map(|t| MIX.iter().filter(|((n, _), _)| *n == t).map(|(_, c)| c).sum::<usize>())
            .map(|count| count as f64 / total as f64 * (1.0 - replans))
            .collect();
        shares.push(replans);
        let (class, q, margin) = rank_in_mix(&shares, 50.0);
        assert!(class == 0 && q >= 0.9 && margin >= 3.0, "p50: {class} {q} {margin}");
        let (class, q, margin) = rank_in_mix(&shares, 95.0);
        assert!(class == 1 && q >= 0.9 && margin >= 1.0, "p95: {class} {q} {margin}");
    }

    /// Timing-sensitive: debug builds read too slowly for the write
    /// cadence, so this runs under `cargo test --release`.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "needs release-build read rates")]
    fn a_short_run_keeps_read_misses_below_five_percent() {
        let cfg = Config { workload: "serve_mixed".into(), seed: 1, seconds: 8.0, trace: false };
        let out = run(&cfg).expect("serve_mixed runs");
        assert!(out.wrong.is_empty(), "{:?}", out.wrong);
        let share: f64 = out.context["read_miss_share"].parse().expect("numeric share");
        assert!(share < 0.05, "{share}");
    }
}
