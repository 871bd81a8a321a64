//! A machine-speed gauge, so that timings taken in a noisy sandbox can
//! be compared.
//!
//! The shared 2-vCPU box this benchmark was built on does not run
//! identical work at one speed: it drifts by tens of per cent over
//! minutes (neighbours on the same host; the guest sees no steal time
//! to subtract, and has no hardware counters to count instructions
//! with). A median over a twelve-second run cannot see through a phase
//! that outlasts the run. The benchmark driver accepts no metric whose
//! ten-seed spread (quartile distance over median) exceeds 25 %; in
//! four such sets the times as measured spread by up to 18 %, 26 %,
//! 111 % and 42 %, so they cannot be the bounded metrics here (see
//! `README.md` for the same runs at reference speed).
//!
//! The harness therefore runs a small fixed computation — an integer
//! hash chain, a pointer chase through 4 MiB, and a burst of small
//! allocations — before and after every round and every set-up, and
//! divides each bounded timing by how much slower than
//! [`NOMINAL_SECS`] that computation ran around it (the median of the
//! few gauge runs nearest in time). The bounded metrics are therefore
//! **at reference speed**: what the operation would have taken had the
//! machine run the gauge in `NOMINAL_SECS`. One factor for a whole
//! workload is a rough model — compute-bound and memory-bound code do
//! not slow down alike — but it is the same rough model on both sides
//! of any comparison, and the bounds it has to serve are 25 %.
//!
//! Nothing is lost: every run also reports the times as measured
//! (`harness.raw_*`) and the median factor (`harness.machine_slowdown`),
//! and the trace file holds unscaled timestamps. The gauge runs outside
//! every interval whose wall time, CPU time or allocations are
//! measured. It is part of the benchmark, so a change that claims a
//! gain cannot edit it.

use std::sync::OnceLock;
use std::time::Instant;
use warp_common::{splitmix64, SplitMix64};

/// What one gauge run takes on the reference box (2 vCPUs of a Xeon at
/// 2.1 GHz) in its fast phases, in seconds. Only a scale: it makes
/// reported times read like wall time on that box.
pub const NOMINAL_SECS: f64 = 0.018;

const CHASE_SLOTS: usize = 1 << 20;

/// A single cycle through every slot (Sattolo's shuffle), so the chase
/// never falls into a short loop that would fit a cache.
fn chase_table() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut next: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        let mut rng = SplitMix64::new(0x5EED_CA1B);
        for i in (1..CHASE_SLOTS).rev() {
            next.swap(i, rng.below(i as u64) as usize);
        }
        next
    })
}

/// Builds the chase table, so the first [`run_once`] times only the
/// computation.
pub fn prepare() {
    chase_table();
}

/// Runs the reference computation once and returns its wall time in
/// seconds. The three parts stand for what the workloads do: compute,
/// chase pointers, allocate.
pub fn run_once() -> f64 {
    let table = chase_table();
    let t = Instant::now();
    let mut x = 1u64;
    for _ in 0..600_000 {
        x = splitmix64(x);
    }
    let mut at = x as usize & (CHASE_SLOTS - 1);
    for _ in 0..200_000 {
        at = table[at] as usize;
    }
    let mut live: Vec<Vec<u64>> = Vec::with_capacity(65);
    for k in 0..40_000u64 {
        live.push(vec![k ^ x; 1 + (k as usize & 15)]);
        if live.len() > 64 {
            live.swap_remove((k as usize * 7) & 63);
        }
    }
    std::hint::black_box((x, at, live.len()));
    t.elapsed().as_secs_f64()
}

/// How many times slower than nominal the machine ran, judged by the
/// median of `samples` (gauge run times in seconds). One gauge run is
/// itself disturbed by whatever else the host is doing, so a factor is
/// always taken from several.
pub fn slowdown(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        1.0
    } else {
        crate::stats::median(samples) / NOMINAL_SECS
    }
}

/// Gauge runs on each side of a round that count towards its factor:
/// wide enough to average the gauge's own noise, narrow enough to
/// follow a phase change within a few rounds.
pub const WINDOW: usize = 3;

/// The slowdown during interval `i`, where `samples[i]` was taken just
/// before it and `samples[i + 1]` just after: the median of the
/// samples within [`WINDOW`] of the interval.
pub fn slowdown_around(samples: &[f64], i: usize) -> f64 {
    let lo = (i + 1).saturating_sub(WINDOW);
    let hi = (i + 1 + WINDOW).min(samples.len());
    slowdown(&samples[lo.min(hi)..hi])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chase_table_is_one_full_cycle() {
        let table = chase_table();
        let mut at = 0usize;
        let mut steps = 0usize;
        loop {
            at = table[at] as usize;
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, CHASE_SLOTS);
    }

    #[test]
    fn slowdown_is_the_windowed_median_over_nominal() {
        let n = NOMINAL_SECS;
        assert_eq!(slowdown(&[]), 1.0);
        assert!((slowdown(&[n, 3.0 * n, 2.0 * n]) - 2.0).abs() < 1e-12);
        assert!((slowdown(&[n, 2.0 * n]) - 1.5).abs() < 1e-12);
        // Ten intervals, eleven samples; the machine halves its speed
        // after interval 4. A lone outlier does not move the factor.
        let mut samples = vec![n; 11];
        samples[5..].fill(2.0 * n);
        samples[2] = 9.0 * n;
        assert!((slowdown_around(&samples, 0) - 1.0).abs() < 1e-12);
        assert!((slowdown_around(&samples, 1) - 1.0).abs() < 1e-12);
        assert!((slowdown_around(&samples, 9) - 2.0).abs() < 1e-12);
        assert!((slowdown_around(&samples, 3) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn one_gauge_run_takes_a_plausible_time() {
        let secs = run_once();
        assert!(secs > 1e-4 && secs < 10.0, "{secs}");
    }
}
