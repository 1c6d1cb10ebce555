//! `exec_large`: one client replays a fixed mix of cached hash joins over
//! S/M/B/G at ten times the paper's size, with two executor workers.
//! Planning is paid once in set-up; execution does most of the work.

use els::core::q_error;
use els::engine::Engine;
use els_bench::driver::throughput_options;
use els_exec::ExecMode;
use els_storage::datagen::{
    starburst_experiment_tables_sized, ColumnSpec, Distribution, TableSpec,
};
use els_storage::Table;

use crate::harness::{Config, Outcome, SetupTimes};
use crate::single::{Read, Single, WriteTarget};
use crate::stats::interleave;

/// Executor workers (`Engine::exec_workers`).
pub const WORKERS: usize = 2;
/// Rows of S, M, B and G.
pub const SIZES: [usize; 4] = [10_000, 100_000, 500_000, 1_000_000];
/// Rows of the Zipf-skewed table Z.
const Z_ROWS: usize = 200_000;
/// Rounds per run, each with its own set-up (their median is `setup_s`).
const ROUNDS: usize = 8;

/// How a query's answer is known.
#[derive(Debug, Clone, Copy)]
pub enum Truth {
    /// Closed form: sequential keys with containment.
    Closed(u64),
    /// Counted once per run by the row-at-a-time executor.
    RowOracle,
}

/// The distinct queries, cheapest first (measured order, used by the
/// percentile-placement test).
pub const QUERIES: [(&str, &str, Truth); 5] = [
    ("zm", "SELECT COUNT(*) FROM Z, M WHERE Z.z = M.m AND Z.z < 2000", Truth::RowOracle),
    ("zb", "SELECT COUNT(*) FROM Z, B WHERE Z.z = B.b AND B.b < 30000", Truth::RowOracle),
    ("mg", "SELECT COUNT(*) FROM M, G WHERE M.m = G.g AND G.g < 80000", Truth::Closed(80_000)),
    ("bg_b", "SELECT COUNT(*) FROM B, G WHERE B.b = G.g AND B.b < 200000", Truth::Closed(200_000)),
    ("bg_g", "SELECT COUNT(*) FROM B, G WHERE B.b = G.g AND G.g < 400000", Truth::Closed(400_000)),
];

/// Reads of each of [`QUERIES`] per cycle of 30: the three cheap joins
/// make 10%, so p50 sits at the 92nd percentile of `bg_b` and p95 at the
/// 89th of `bg_g` (see [`crate::stats::rank_in_mix`]).
pub const MIX: [(usize, usize); 5] = [(0, 1), (1, 1), (2, 1), (3, 13), (4, 14)];

fn tables(seed: u64) -> Vec<Table> {
    let mut tables = starburst_experiment_tables_sized(seed, &SIZES);
    tables.push(
        TableSpec::new("Z", Z_ROWS)
            .column(ColumnSpec::new(
                "z",
                Distribution::ZipfInt { n: SIZES[1] as u64, theta: 1.0, start: 0 },
            ))
            .generate(seed),
    );
    tables
}

fn engine() -> Engine {
    Engine::with_options(throughput_options()).exec_workers(WORKERS)
}

fn setup(seed: u64, times: &mut SetupTimes) -> Result<Engine, String> {
    let engine = engine();
    times.load(&engine, || tables(seed))?;
    // Warm-up: one execution of each query fills the plan cache.
    for (_, sql, _) in QUERIES {
        engine.execute(sql).map_err(|e| e.to_string())?;
    }
    Ok(engine)
}

/// Answers of [`QUERIES`]: closed forms, and the row-at-a-time executor
/// for the skewed joins.
fn answers(seed: u64) -> Result<Vec<u64>, String> {
    let oracle = Engine::with_options(throughput_options()).exec_mode(ExecMode::RowAtATime);
    let mut loaded = false;
    QUERIES
        .iter()
        .map(|(_, sql, truth)| match truth {
            Truth::Closed(n) => Ok(*n),
            Truth::RowOracle => {
                if !loaded {
                    for table in tables(seed) {
                        oracle.register(table).map_err(|e| e.to_string())?;
                    }
                    loaded = true;
                }
                oracle.execute(sql).map(|r| r.count).map_err(|e| e.to_string())
            }
        })
        .collect()
}

/// Run the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.note("exec_workers", WORKERS);
    let wants = answers(cfg.seed)?;
    let cycle = interleave(&MIX);
    let read = |i: usize| {
        let q = cycle[i % cycle.len()];
        Read { sql: QUERIES[q].1.to_owned(), want: wants[q] }
    };
    let setup = |times: &mut SetupTimes| setup(cfg.seed, times);
    let single = Single {
        seed: cfg.seed,
        mode: ExecMode::Vectorized { workers: WORKERS },
        read: &read,
        setup: &setup,
        writes: WriteTarget::SideEngine,
        rounds: ROUNDS,
    };
    if cfg.trace {
        single.traced(&mut out, cycle.len(), cfg.seconds)?;
        return Ok(out);
    }

    let measured = single.rounds(&mut out, cfg.seconds)?;
    let mut qerrors = Vec::with_capacity(QUERIES.len());
    for ((name, sql, _), want) in QUERIES.iter().zip(&wants) {
        match measured.engine.prepare(sql) {
            Ok(plan) => {
                let root = plan.optimized.estimated_sizes.last().copied().unwrap_or(0.0);
                let q = q_error(root, *want as f64);
                out.note(&format!("qerror_{name}"), format!("{q:.4}"));
                qerrors.push(q);
            }
            Err(e) => out.wrong(format!("prepare `{sql}`: {e}")),
        }
    }
    out.qerror(qerrors);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::rank_in_mix;

    #[test]
    fn percentiles_sit_high_inside_a_query_class() {
        let total: usize = MIX.iter().map(|(_, n)| n).sum();
        let shares: Vec<f64> = MIX.iter().map(|&(_, n)| n as f64 / total as f64).collect();
        let (class, q, margin) = rank_in_mix(&shares, 50.0);
        assert!(class == 3 && q >= 0.9 && margin >= 3.0, "p50: {class} {q} {margin}");
        let (class, q, margin) = rank_in_mix(&shares, 95.0);
        assert!(class == 4 && q >= 0.88 && margin >= 3.0, "p95: {class} {q} {margin}");
    }

    #[test]
    fn the_mix_is_fixed_and_uses_every_query() {
        let cycle = interleave(&MIX);
        for q in 0..QUERIES.len() {
            assert!(cycle.contains(&q), "query {q} never runs");
        }
        assert!(QUERIES.iter().any(|(_, _, t)| matches!(t, Truth::RowOracle)), "no skewed join");
    }
}
