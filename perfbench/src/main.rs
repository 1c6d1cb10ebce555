//! The repository benchmark: one process runs one named workload and
//! prints every metric by name and unit, checking every answer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan_deep --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` replays the
//! workload through the public pipeline under spans and reports the
//! per-layer metrics. The last line of standard output is the result
//! object; the line before it holds the run's context (machine, seed,
//! sample counts). See `README.md` for the workloads and metrics.

// Reading the wall clock is this binary's job, like the els-bench
// tooling the repository's clippy.toml exempts the same way.
#![allow(clippy::disallowed_methods)]

mod exec_large;
mod harness;
mod plan_deep;
mod serve_mixed;
mod single;
mod stats;
mod trace;

use std::process::ExitCode;

use harness::{json_str, Config, Outcome, END_TO_END, PER_LAYER};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["plan_deep", "exec_large", "serve_mixed"];

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace takes 0 or 1".to_owned()),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (have {})", WORKLOADS.join(", ")));
    }
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The commit under test, when the checkout is a git repository.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unavailable".to_owned(), |s| s.trim().to_owned())
}

/// The result object: the metric set of the run's kind, in table order,
/// with layers a workload does not touch reported as 0.
fn result_json(cfg: &Config, out: &Outcome) -> Result<String, String> {
    let table: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None if cfg.trace => 0.0,
            None if !out.wrong.is_empty() => 0.0,
            None => return Err(format!("{} did not measure {name}", cfg.workload)),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite"));
        }
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.wrong.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    ))
}

fn context_json(cfg: &Config, out: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields = vec![
        format!("\"workload\": {}", json_str(&cfg.workload)),
        format!("\"seed\": {}", cfg.seed),
        format!("\"seconds\": {}", cfg.seconds),
        format!("\"trace\": {}", u8::from(cfg.trace)),
        format!("\"nproc\": {nproc}"),
        format!("\"git_rev\": {}", json_str(&git_rev())),
    ];
    fields.extend(out.context.iter().map(|(k, v)| format!("{}: {v}", json_str(k))));
    format!("{{\"context\": {{{}}}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cfg.workload.as_str() {
        "plan_deep" => plan_deep::run(&cfg),
        "exec_large" => exec_large::run(&cfg),
        _ => serve_mixed::run(&cfg),
    };
    let mut out = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };
    if cfg.trace {
        out.set("failed_frac", out.failed as f64 / out.attempted.max(1) as f64);
    }
    for wrong in out.wrong.iter().take(20) {
        eprintln!("perfbench: wrong: {wrong}");
    }
    match result_json(&cfg, &out) {
        Ok(result) => {
            println!("{}", context_json(&cfg, &out));
            println!("{result}");
            if out.wrong.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let cfg = parse_args(&args("--workload plan_deep --seed 3 --seconds 2 --trace 1"))
            .expect("valid");
        assert_eq!((cfg.workload.as_str(), cfg.seed, cfg.trace), ("plan_deep", 3, true));
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 2")).is_err());
        assert!(parse_args(&args("--workload plan_deep --seconds 2")).is_err());
        assert!(parse_args(&args("--workload plan_deep --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&args("--workload plan_deep --seed 1 --seconds 1 --trace 2")).is_err());
    }
}
