//! Training-throughput benchmark of the DP-A, DP-B and DP-C drivers.
//!
//! ```text
//! trainbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! trainbench steady [--runs <n>] [--seconds <s>] [--first-seed <n>] [--workloads <a,b>]
//! ```
//!
//! `--trace 0` runs the real drivers and prints the end-to-end metrics;
//! `--trace 1` re-enacts the drivers' fragment loops with every layer
//! call timed and prints the per-layer metrics. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. `steady` runs every workload repeatedly, interleaved,
//! and checks each end-to-end metric's spread against its bound in
//! `BENCHMARK.json`. See README.md.

mod e2e;
mod stats;
mod steady;
mod steal;
mod traced;
mod workload;

use std::process::ExitCode;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// Correctness checks of one run; the first failures are printed.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            if self.failures.len() < 20 {
                println!("CHECK FAILED: {msg}");
            }
            self.failures.push(msg);
        }
    }
}

/// What a run hands back for the result line.
pub struct RunOutcome {
    pub checks: Checks,
    /// Training iterations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {s} outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace {t}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// The program's behaviour gates are process-global and read from
/// `MSRL_*` variables; a stray one would measure a different program.
fn refuse_msrl_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MSRL_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set: it changes the measured program", set.join(", ")))
    }
}

fn simd_label() -> &'static str {
    match msrl_tensor::kernels::select() {
        msrl_tensor::kernels::MatKernel::Avx512 => "avx512",
        msrl_tensor::kernels::MatKernel::Avx2 => "avx2",
        msrl_tensor::kernels::MatKernel::Portable => "portable",
    }
}

fn print_header(w: &workload::Workload, a: &Args) {
    let cfg = w.config();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# trainbench workload={} seed={} seconds={} trace={} nproc={nproc} intra_op_threads={} \
         simd={} tier={} fusion={} overlap={} staleness={}",
        w.name,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        msrl_tensor::par::thread_count(),
        simd_label(),
        msrl_tensor::par::tier_level(),
        cfg.fusion,
        cfg.overlap,
        cfg.staleness,
    );
    println!(
        "# shape: {} fragments x {} envs x {} steps, hidden {:?}, {} epochs, {} iterations per call \
         ({} warm-up), at least {} calls",
        w.actors,
        w.envs_per_actor,
        w.steps_per_iter,
        w.hidden,
        w.epochs,
        w.iterations,
        w.warmup,
        w.min_calls
    );
}

fn result_line(out: &RunOutcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checks.failures.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = refuse_msrl_env() {
        eprintln!("trainbench: {e}");
        return ExitCode::from(2);
    }
    if args.first().map(String::as_str) == Some("steady") {
        return steady::main(&args[1..]);
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("trainbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::find(&a.workload) else {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("trainbench: unknown workload {:?} (one of {})", a.workload, names.join(", "));
        return ExitCode::from(2);
    };
    print_header(w, &a);
    let ticks0 = steal::cpu_ticks();
    let mut out =
        if a.trace { traced::run(w, a.seed, a.seconds) } else { e2e::run(w, a.seed, a.seconds) };
    println!("# cpu steal during the run: {:.1}%", steal::steal_pct(ticks0));
    for m in &out.metrics {
        out.checks.expect(m.value.is_finite(), || format!("metric {} is not finite", m.name));
    }
    for m in &mut out.metrics {
        if !m.value.is_finite() {
            m.value = 0.0;
        }
        println!("{:<24} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&out));
    ExitCode::SUCCESS
}
