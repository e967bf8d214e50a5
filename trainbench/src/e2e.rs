//! End-to-end runs: whole calls into the real drivers, timed from the
//! driver's own per-iteration `RunEvent` stream, with every call's
//! outputs checked against counts derived from the workload's shape.

use std::path::{Path, PathBuf};
use std::time::Instant;

use msrl_env::cartpole::CartPole;
use msrl_env::halfcheetah::HalfCheetah;
use msrl_env::Environment;
use msrl_runtime::exec::{run_dp_a, run_dp_b, run_dp_c, DistPpoConfig};
use msrl_runtime::TrainingReport;
use serde_json::Value;

use crate::workload::{env_seed, Dp, EnvKind, Workload, CHEETAH_HORIZON};
use crate::{stats, steal};
use crate::{Checks, Metric, RunOutcome};

/// Counters the checks compare before and after a call.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    pub env_steps: u64,
    pub msgs: u64,
    pub bytes: u64,
}

impl Counts {
    pub fn now() -> Counts {
        Counts {
            env_steps: msrl_telemetry::counter_total("env.steps"),
            msgs: msrl_telemetry::counter_total("comm.msgs_sent"),
            bytes: msrl_telemetry::counter_total("comm.bytes_sent"),
        }
    }

    pub fn since(self, before: Counts) -> Counts {
        Counts {
            env_steps: self.env_steps - before.env_steps,
            msgs: self.msgs - before.msgs,
            bytes: self.bytes - before.bytes,
        }
    }
}

/// One driver call and what it reported.
pub struct Call {
    pub report: TrainingReport,
    /// Iteration periods from the driver's `RunEvent` stream, seconds.
    pub periods: Vec<f64>,
    /// From the driver call to the end of its first iteration, seconds.
    pub setup_s: f64,
    /// Per iteration, machine CPU steal ticks per second of iteration.
    pub steal: Vec<f64>,
    pub counts: Counts,
}

/// Where a call's `RunEvent` stream goes: a scratch file beside the
/// benchmark's sources, removed once read.
fn events_path(call: usize) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".events")
        .join(format!("run-{}-{call}.jsonl", std::process::id()))
}

fn train<E: Environment + 'static>(
    dp: Dp,
    cfg: &DistPpoConfig,
    make: impl Fn(usize, usize) -> E + Send + Sync,
) -> msrl_core::Result<TrainingReport> {
    match dp {
        Dp::A => run_dp_a(make, cfg),
        Dp::B => run_dp_b(make, cfg),
        Dp::C => run_dp_c(make, cfg),
    }
}

/// A JSON number as `f64`.
pub fn num(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::I64(x) => Some(*x as f64),
        Value::U64(x) => Some(*x as f64),
        _ => None,
    }
}

/// Reads the iteration periods out of a `RunEvent` JSONL stream.
fn read_periods(path: &Path) -> Result<Vec<f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let ev = serde_json::value_from_str(line).map_err(|e| format!("bad event: {e:?}"))?;
            let ips = ev.field("iters_per_sec").ok().and_then(num).filter(|v| *v > 0.0);
            ips.map(|v| 1.0 / v).ok_or_else(|| format!("event without iters_per_sec: {line}"))
        })
        .collect()
}

/// Runs one whole driver call of `w` on the environments of
/// (`seed`, `call`).
pub fn drive(w: &Workload, seed: u64, call: usize) -> Result<Call, String> {
    let path = events_path(call);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let path_str = path.to_str().ok_or("non-UTF-8 events path")?;
    msrl_telemetry::set_metrics_file(Some(path_str));
    let cfg = w.config();
    let before = Counts::now();
    let sampler = steal::Sampler::start();
    let t0 = Instant::now();
    let out = match w.env {
        EnvKind::CartPole => train(w.dp, &cfg, |a, i| CartPole::new(env_seed(seed, call, a, i))),
        EnvKind::HalfCheetah => train(w.dp, &cfg, |a, i| {
            HalfCheetah::new(env_seed(seed, call, a, i)).with_horizon(CHEETAH_HORIZON)
        }),
    };
    let t_end = Instant::now();
    let timeline = sampler.finish();
    let wall = t_end.duration_since(t0).as_secs_f64();
    let counts = Counts::now().since(before);
    msrl_telemetry::set_metrics_file(None);
    let periods = read_periods(&path);
    let _ = std::fs::remove_file(&path);
    let report = out.map_err(|e| format!("{} call {call}: {e:?}", w.name))?;
    let periods = periods?;
    // The driver's last act after its final iteration is joining its
    // threads; what precedes the second iteration is set-up.
    let setup_s = wall - periods.iter().skip(1).sum::<f64>();
    let steal = steal::per_iteration(&timeline, &periods, t_end);
    Ok(Call { report, periods, setup_s, steal, counts })
}

/// Checks one call's outputs against the workload's shape and the
/// method's properties.
pub fn check_call(w: &Workload, call: &Call, checks: &mut Checks) {
    let n = w.iterations;
    let r = &call.report;
    checks.expect(call.periods.len() == n, || {
        format!("{} RunEvents for {n} iterations", call.periods.len())
    });
    // DP-C reports no per-iteration loss: its replicas train from
    // all-reduced gradients, and `TrainingReport` leaves losses empty
    // for gradient-only drivers.
    let losses = if w.dp == Dp::C { 0 } else { n };
    checks.expect(r.iteration_rewards.len() == n && r.losses.len() == losses, || {
        format!("report holds {} rewards, {} losses", r.iteration_rewards.len(), r.losses.len())
    });
    let samples = (n * w.samples_per_iter()) as u64;
    checks.expect(call.counts.env_steps == samples, || {
        format!("{} env transitions, expected {samples}", call.counts.env_steps)
    });
    let msgs = n as u64 * w.msgs_per_iter();
    checks.expect(call.counts.msgs == msgs, || {
        format!("{} messages, expected {msgs}", call.counts.msgs)
    });
    let num_params = w.policy().num_params();
    let fixed = n as u64 * w.fixed_bytes_per_iter(num_params);
    let per_episode = w.return_bytes_per_episode();
    let extra = call.counts.bytes.checked_sub(fixed);
    checks.expect(extra.is_some_and(|x| x % per_episode == 0), || {
        format!(
            "{} bytes sent; shape fixes {fixed} plus {per_episode} per episode",
            call.counts.bytes
        )
    });
    if let (Some(per_iter), Some(x)) = (w.fixed_episodes_per_iter(), extra) {
        let want = n as u64 * per_iter * per_episode;
        checks.expect(x == want, || format!("{x} bytes of returns, expected {want}"));
    }
    checks.expect(
        r.final_params.len() == num_params && r.final_params.iter().all(|v| v.is_finite()),
        || {
            format!(
                "final parameters: {} values, expected {num_params} finite",
                r.final_params.len()
            )
        },
    );
    let (early, last) = (r.early_reward(5), r.recent_reward(10));
    checks.expect(last > early, || {
        format!("return {last} after training, {early} in the first 5 iterations")
    });
}

/// The end-to-end run: whole driver calls until `seconds` have passed
/// (never fewer than the workload's minimum), then the six metrics.
pub fn run(w: &Workload, seed: u64, seconds: f64) -> RunOutcome {
    let start = Instant::now();
    let mut checks = Checks::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut calls: Vec<Call> = Vec::new();
    let mut returns = Vec::new();
    let mut first_call_rss = f64::NAN;
    for call in 0.. {
        let elapsed = start.elapsed().as_secs_f64();
        let per_call = elapsed / call.max(1) as f64;
        if call >= w.min_calls && elapsed + per_call > seconds {
            break;
        }
        attempted += w.iterations as u64;
        let ticks = steal::cpu_ticks();
        let res = drive(w, seed, call);
        let steal = steal::steal_pct(ticks);
        match res {
            Ok(c) => {
                check_call(w, &c, &mut checks);
                if call < w.min_calls {
                    returns.push(f64::from(c.report.recent_reward(10)));
                }
                if calls.is_empty() {
                    first_call_rss = peak_rss_mb();
                }
                println!(
                    "call {call}: {} iterations, setup {:.3} s, steady median period {:.2} ms, p75 {:.2} ms, return {:.2}, \
                     peak rss {:.2} MB, cpu steal {steal:.1}%",
                    c.periods.len(),
                    c.setup_s,
                    stats::median(&c.periods[w.warmup..]) * 1e3,
                    stats::percentile(&c.periods[w.warmup..], 75.0) * 1e3,
                    c.report.recent_reward(10),
                    peak_rss_mb()
                );
                calls.push(c);
            }
            Err(e) => {
                println!("call {call} failed: {e}");
                failed += w.iterations as u64;
            }
        }
    }
    // Timing metrics come from the steady iterations that lost the least
    // time to CPU steal: those at or below the run's median steal rate,
    // at least half of them. The selection looks only at the machine's
    // steal counter, never at the iteration periods.
    let steady: Vec<(f64, f64)> = calls
        .iter()
        .flat_map(|c| c.periods.iter().zip(&c.steal).skip(w.warmup).map(|(&p, &s)| (p, s)))
        .collect();
    let cut = stats::median(&steady.iter().map(|&(_, s)| s).collect::<Vec<_>>());
    let kept: Vec<f64> = steady.iter().filter(|&&(_, s)| s <= cut).map(|&(p, _)| p).collect();
    let guaranteed = (w.min_calls * (w.iterations - w.warmup)).div_ceil(2);
    let tail_p = stats::tail_percentile(guaranteed);
    println!(
        "{} steady iterations over {} calls, {} kept (steal at most {cut:.1} ticks/s); \
         iter_ms_tail is p{tail_p} (at least {guaranteed} kept samples)",
        steady.len(),
        calls.len(),
        kept.len(),
    );
    let setups: Vec<f64> = calls.iter().map(|c| c.setup_s).collect();
    let metrics = vec![
        Metric::new(
            "samples_per_s",
            "1/s",
            (kept.len() * w.samples_per_iter()) as f64 / kept.iter().sum::<f64>(),
        ),
        Metric::new("iter_ms_p50", "ms", stats::median(&kept) * 1e3),
        Metric::new("iter_ms_tail", "ms", stats::percentile(&kept, tail_p) * 1e3),
        Metric::new("setup_s", "s", stats::median(&setups)),
        Metric::new("peak_rss_mb", "MB", first_call_rss),
        Metric::new("return_final", "return", returns.iter().sum::<f64>() / returns.len() as f64),
    ];
    RunOutcome { checks, attempted, failed, metrics }
}

/// Peak resident set of this process so far (`VmHWM`), in MB. The
/// run reports it after its first driver call: later calls in the same
/// process sometimes attach a fresh allocator arena to one of their
/// threads, which adds about 10 MB on DP-C depending only on thread
/// timing.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}
