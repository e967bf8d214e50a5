//! The steadiness command: every workload run repeatedly, interleaved,
//! one process per run, each with another seed; per end-to-end metric
//! the median, the quartiles and the spread against the bound in
//! `BENCHMARK.json`. Exits non-zero when a spread exceeds its bound
//! (set-up time excepted: its bound limits drift between medians, not
//! spread), when a run fails or reports incorrect outputs, or when the
//! failed share differs between runs of a workload.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use serde_json::Value;

use crate::e2e::num;
use crate::stats;
use crate::workload::WORKLOADS;

struct Bench {
    run_seconds: f64,
    /// (name, unit, bound) of each end-to-end metric.
    metrics: Vec<(String, String, f64)>,
}

fn text(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn read_bench() -> Result<Bench, String> {
    let raw = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let v = serde_json::value_from_str(&raw).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let run_seconds = v.field("run_seconds").ok().and_then(num).ok_or("run_seconds missing")?;
    let Ok(Value::Seq(list)) = v.field("end_to_end") else {
        return Err("end_to_end missing".into());
    };
    let metrics = list
        .iter()
        .map(|m| {
            let name = m.field("name").ok().and_then(text);
            let unit = m.field("unit").ok().and_then(text);
            let bound = m.field("bound").ok().and_then(num);
            match (name, unit, bound) {
                (Some(n), Some(u), Some(b)) => Ok((n.to_string(), u.to_string(), b)),
                _ => Err(format!("malformed end_to_end entry {m:?}")),
            }
        })
        .collect::<Result<_, String>>()?;
    Ok(Bench { run_seconds, metrics })
}

/// One run's result line.
struct RunResult {
    /// CPU steal during the run, from the run's own report.
    steal: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn parse_result(line: &str) -> Result<RunResult, String> {
    let v = serde_json::value_from_str(line).map_err(|e| format!("result line: {e:?}"))?;
    let correct = matches!(v.field("correct"), Ok(Value::Bool(true)));
    let count =
        |k: &str| v.field(k).ok().and_then(num).map(|x| x as u64).ok_or(format!("{k} missing"));
    let Ok(Value::Map(ms)) = v.field("metrics") else {
        return Err("metrics missing".into());
    };
    let metrics = ms
        .iter()
        .map(|(k, m)| {
            Ok((k.clone(), m.field("value").ok().and_then(num).ok_or(format!("{k} has no value"))?))
        })
        .collect::<Result<_, String>>()?;
    Ok(RunResult {
        steal: String::new(),
        correct,
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

fn run_one(workload: &str, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} seed {seed} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut r = parse_result(stdout.lines().last().unwrap_or_default())?;
    if let Some(steal) = stdout.lines().find_map(|l| l.strip_prefix("# cpu steal during the run: "))
    {
        r.steal = steal.to_string();
    }
    Ok(r)
}

pub fn main(args: &[String]) -> ExitCode {
    match steady(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("trainbench steady: {e}");
            ExitCode::from(2)
        }
    }
}

fn steady(args: &[String]) -> Result<bool, String> {
    let bench = read_bench()?;
    let (mut runs, mut seconds, mut first_seed) = (10u64, bench.run_seconds, 1u64);
    let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--runs" => runs = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--first-seed" => first_seed = value.parse().map_err(|e| bad(&e))?,
            "--workloads" => names = value.split(',').map(str::to_string).collect(),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let mut ok = true;
    let mut results: BTreeMap<&str, Vec<RunResult>> = BTreeMap::new();
    for i in 0..runs {
        let seed = first_seed + i;
        for name in &names {
            match run_one(name, seed, seconds) {
                Ok(r) => {
                    eprintln!(
                        "{name} seed {seed}: correct={} steal={} {}",
                        r.correct,
                        r.steal,
                        bench
                            .metrics
                            .iter()
                            .map(|(m, u, _)| format!(
                                "{m}={:.4}{u}",
                                r.metrics.get(m).copied().unwrap_or(f64::NAN)
                            ))
                            .collect::<Vec<_>>()
                            .join(" ")
                    );
                    ok &= r.correct;
                    results.entry(name.as_str()).or_default().push(r);
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
    }
    println!(
        "{:<16} {:<14} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for (name, rs) in &results {
        let shares: Vec<(u64, u64)> = rs.iter().map(|r| (r.failed, r.attempted)).collect();
        let same_share = shares.iter().all(|&(f, a)| f * shares[0].1 == shares[0].0 * a);
        if !same_share {
            println!("{name}: failed share differs between runs: {shares:?}");
            ok = false;
        }
        for (metric, unit, bound) in &bench.metrics {
            let xs: Vec<f64> = rs.iter().filter_map(|r| r.metrics.get(metric).copied()).collect();
            let (q1, q3) = stats::quartiles(&xs).unwrap_or((f64::NAN, f64::NAN));
            let spread = stats::iqr_share(&xs).unwrap_or(f64::NAN);
            let gated = metric != "setup_s";
            let pass = !gated || stats::within_bound(&xs, *bound);
            ok &= pass;
            println!(
                "{name:<16} {metric:<14} {:>12.4} {:>12.4} {:>12.4} {:>7.2}% {:>5.0}%  {}{}",
                stats::median(&xs),
                q1,
                q3,
                spread * 100.0,
                bound * 100.0,
                if pass { "ok" } else { "SPREAD ABOVE BOUND" },
                if gated {
                    format!(" ({unit}, n={})", xs.len())
                } else {
                    format!(" ({unit}, n={}, not gated)", xs.len())
                },
            );
        }
    }
    Ok(ok)
}
