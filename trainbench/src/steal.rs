//! CPU steal: time the hypervisor gave this machine's CPUs to other
//! guests. On a shared host it is the main source of run-to-run spread —
//! a call that loses 10% of its CPU time to steal runs 25–30% slower,
//! because a stalled fragment also stalls the peers waiting on it. The
//! end-to-end run samples the machine's steal counter while a driver
//! call runs and keeps, for its timing metrics, the iterations that lost
//! the least time to steal.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// (total, steal) CPU ticks of the machine so far, from `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|v| v.parse().ok()).collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// Share of machine CPU time stolen since `since` was read, percent.
pub fn steal_pct(since: Option<(u64, u64)>) -> f64 {
    match (since, cpu_ticks()) {
        (Some((t0, s0)), Some((t1, s1))) => 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
        _ => f64::NAN,
    }
}

/// Samples the steal counter every 10 ms (its resolution) on a
/// background thread until finished.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<(Instant, u64)>>,
}

impl Sampler {
    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::new();
            // Relaxed: the flag publishes no other data; the samples come
            // back through the join.
            while !flag.load(Ordering::Relaxed) {
                if let Some((_, steal)) = cpu_ticks() {
                    samples.push((Instant::now(), steal));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            samples
        });
        Sampler { stop, handle }
    }

    /// Stops the sampler and returns the steal timeline.
    pub fn finish(self) -> Timeline {
        self.stop.store(true, Ordering::Relaxed);
        Timeline(self.handle.join().expect("steal sampler must not panic"))
    }
}

/// Cumulative steal ticks over time.
pub struct Timeline(Vec<(Instant, u64)>);

impl Timeline {
    /// Counter value of the last sample at or before `t`.
    fn at(&self, t: Instant) -> u64 {
        let i = self.0.partition_point(|&(ts, _)| ts <= t);
        self.0.get(i.saturating_sub(1)).map_or(0, |&(_, v)| v)
    }

    /// Steal ticks between `a` and `b`, to sample resolution.
    pub fn between(&self, a: Instant, b: Instant) -> u64 {
        self.at(b).saturating_sub(self.at(a))
    }
}

/// Per iteration, steal ticks per second of the iteration, given the
/// iteration periods (seconds) and the instant the last one ended.
pub fn per_iteration(timeline: &Timeline, periods: &[f64], last_end: Instant) -> Vec<f64> {
    let mut end = last_end;
    let mut rates: Vec<f64> = periods
        .iter()
        .rev()
        .map(|&p| {
            let start = end.checked_sub(Duration::from_secs_f64(p)).unwrap_or(end);
            let rate = timeline.between(start, end) as f64 / p;
            end = start;
            rate
        })
        .collect();
    rates.reverse();
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterations_get_the_steal_inside_their_window() {
        let t0 = Instant::now();
        let ms = |m: u64| t0 + Duration::from_millis(m);
        // Counter samples every 10 ms; 3 ticks stolen between 20 and 30 ms.
        let timeline = Timeline(vec![
            (ms(0), 100),
            (ms(10), 100),
            (ms(20), 100),
            (ms(30), 103),
            (ms(40), 103),
        ]);
        assert_eq!(timeline.between(ms(0), ms(20)), 0);
        assert_eq!(timeline.between(ms(15), ms(35)), 3);
        assert_eq!(timeline.between(ms(30), ms(45)), 0);
        // Two 20 ms iterations ending at 40 ms: the second holds the steal.
        let rates = per_iteration(&timeline, &[0.02, 0.02], ms(40));
        assert_eq!(rates, vec![0.0, 3.0 / 0.02]);
    }
}
