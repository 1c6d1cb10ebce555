//! `plan_deep`: one client sends 8- and 9-table bushy self-join chains
//! over the paper-sized S/M/B/G catalog, each with a fingerprint of its
//! own, so every query pays for parse, bind and the full
//! dynamic-programming enumeration. The optimizer does most of the work.

use els::core::q_error;
use els::engine::Engine;
use els_bench::driver::{chain_sql, throughput_options};
use els_exec::ExecMode;
use els_storage::datagen::starburst_experiment_tables;

use crate::harness::{Config, Outcome, SetupTimes};
use crate::single::{Read, Single, WriteTarget};
use crate::stats::interleave;

/// Tables per query and reads per cycle of 20: p50 sits at the 91st
/// percentile of the depth-8 class and p95 at the 89th of the depth-9
/// class (see [`crate::stats::rank_in_mix`]).
pub const DEPTH_MIX: [(usize, usize); 2] = [(8, 11), (9, 9)];
/// Rows of S, the smallest table: every key below it joins exactly one
/// row of each table (sequential keys with containment).
const S_ROWS: u64 = 1_000;
/// Reads run during set-up; the measured sequence starts after them.
pub const WARM_READS: usize = 4;
/// Rounds per run, each with its own set-up (their median is `setup_s`).
const ROUNDS: usize = 30;
/// Measured reads whose root estimates make up the q-error sample.
const QERROR_READS: usize = 200;

/// Range widths and lower bounds of the `t0.s` filter: `lo` in
/// `0..LOS`, `hi = lo + width` with width in `MIN_WIDTH..MIN_WIDTH+WIDTHS`.
const LOS: u64 = 600;
const MIN_WIDTH: u64 = 100;
const WIDTHS: u64 = 300;

/// Distinct `(lo, hi)` filters available: the sequence repeats no
/// fingerprint before this many reads.
pub const DISTINCT: u64 = LOS * WIDTHS;

/// The `i`-th read for `seed`. Reads walk the `(lo, hi)` space through an
/// affine permutation, so no two of the first [`DISTINCT`] share a
/// fingerprint, and the answer is the range width: the chain keeps
/// exactly the keys in `lo..hi`.
pub fn read(seed: u64, i: usize) -> Read {
    // Multipliers coprime to DISTINCT (= 2^5 · 3^2 · 5^4) make the map
    // a bijection on 0..DISTINCT.
    let multiplier = [7919u64, 104_729, 15_485_863, 32_452_843][(seed % 4) as usize];
    let j = (multiplier * (i as u64 % DISTINCT) + seed % DISTINCT) % DISTINCT;
    let lo = j % LOS;
    let width = MIN_WIDTH + j / LOS;
    let hi = lo + width;
    debug_assert!(hi <= S_ROWS);
    let cycle = interleave(&DEPTH_MIX);
    let depth = cycle[i % cycle.len()];
    let sql = format!("{} AND t0.s >= {lo}", chain_sql(depth, hi as i64));
    Read { sql, want: width }
}

fn setup(seed: u64, times: &mut SetupTimes) -> Result<Engine, String> {
    let engine = Engine::with_options(throughput_options());
    times.load(&engine, || starburst_experiment_tables(seed))?;
    for i in 0..WARM_READS {
        let read = read(seed, i);
        let result = engine.execute(&read.sql).map_err(|e| e.to_string())?;
        if result.count != read.want {
            return Err(format!("warm-up `{}`: {} != {}", read.sql, result.count, read.want));
        }
    }
    Ok(engine)
}

/// Run the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.note("exec_workers", 1);
    let read = |i| read(cfg.seed, i + WARM_READS);
    let setup = |times: &mut SetupTimes| setup(cfg.seed, times);
    let single = Single {
        seed: cfg.seed,
        mode: ExecMode::default(),
        read: &read,
        setup: &setup,
        writes: WriteTarget::EngineUnderTest,
        rounds: ROUNDS,
    };
    if cfg.trace {
        single.traced(&mut out, 0, cfg.seconds)?;
        return Ok(out);
    }

    let measured = single.rounds(&mut out, cfg.seconds)?;
    if measured.cache_hits != 0 {
        out.wrong(format!(
            "{} plan-cache hits; every plan_deep read must plan",
            measured.cache_hits
        ));
    }
    let mut qerrors = Vec::with_capacity(QERROR_READS);
    for i in 0..QERROR_READS {
        let read = read(i);
        match measured.engine.prepare(&read.sql) {
            Ok(plan) => {
                let root = plan.optimized.estimated_sizes.last().copied().unwrap_or(0.0);
                qerrors.push(q_error(root, read.want as f64));
            }
            Err(e) => out.wrong(format!("prepare `{}`: {e}", read.sql)),
        }
    }
    out.qerror(qerrors);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn reads_are_deterministic_per_seed() {
        for i in [0, 1, 17, 4_000] {
            assert_eq!(read(3, i), read(3, i));
        }
        assert_ne!(read(3, 5), read(4, 5));
    }

    #[test]
    fn every_read_has_a_distinct_fingerprint() {
        for seed in [0, 1, 2, 3, 11] {
            let mut seen = BTreeSet::new();
            for i in 0..20_000 {
                let read = read(seed, i);
                let fp = els_sql::fingerprint(&read.sql).expect("read parses");
                assert!(seen.insert(fp), "seed {seed}: read {i} repeats a fingerprint");
                assert!(read.want >= MIN_WIDTH && read.want < MIN_WIDTH + WIDTHS);
            }
        }
    }

    #[test]
    fn percentiles_sit_high_inside_a_depth_class() {
        let total: usize = DEPTH_MIX.iter().map(|(_, n)| n).sum();
        let shares: Vec<f64> = DEPTH_MIX.iter().map(|&(_, n)| n as f64 / total as f64).collect();
        let (class, q, margin) = crate::stats::rank_in_mix(&shares, 50.0);
        assert!(class == 0 && q >= 0.9 && margin >= 3.0, "p50: {class} {q} {margin}");
        let (class, q, margin) = crate::stats::rank_in_mix(&shares, 95.0);
        assert!(class == 1 && q >= 0.88 && margin >= 3.0, "p95: {class} {q} {margin}");
    }

    #[test]
    fn the_permutation_covers_the_filter_space() {
        let all: BTreeSet<Read> = (0..DISTINCT as usize).map(|i| read(7, i)).collect();
        assert_eq!(all.len() as u64, DISTINCT);
    }
}
