//! Property-based tests of the kernel's core invariants: determinism,
//! statistics laws, priority isolation, and budget accounting.
//!
//! Cases are generated from the in-repo seeded [`SimRng`] (no external
//! property-testing crate), so every run explores the same corpus and a
//! failure reproduces from the case index alone.

use rtos::hist::{Histogram, SUB_BUCKET_BITS};
use rtos::kernel::{Kernel, KernelConfig};
use rtos::latency::{LatencyStats, LoadMode, TimerJitterModel, TimerMode};
use rtos::rng::SimRng;
use rtos::task::{IdleBody, Priority, TaskConfig};
use rtos::time::SimDuration;

const CASES: usize = 64;

fn ideal_kernel(seed: u64, cpus: u32) -> Kernel {
    Kernel::new(
        KernelConfig::new(seed)
            .with_timer(TimerJitterModel::ideal())
            .with_cpus(cpus),
    )
}

fn sample_i64(rng: &mut SimRng, lo: i64, hi: i64) -> i64 {
    lo + rng.uniform_u64(0, (hi - lo) as u64) as i64
}

/// AVEDEV is non-negative, at most the full range, and min ≤ avg ≤ max.
#[test]
fn stats_laws() {
    let mut rng = SimRng::from_seed(0xA11CE);
    for case in 0..CASES {
        let len = rng.uniform_u64(1, 200) as usize;
        let samples: Vec<i64> = (0..len)
            .map(|_| sample_i64(&mut rng, -1_000_000, 1_000_000))
            .collect();
        let mut s = LatencyStats::with_samples();
        for &x in &samples {
            s.record(x);
        }
        let (min, max) = (s.min().unwrap(), s.max().unwrap());
        assert!(min as f64 <= s.average() + 1e-9, "case {case}");
        assert!(s.average() <= max as f64 + 1e-9, "case {case}");
        let avedev = s.avedev().expect("samples retained");
        assert!(avedev >= 0.0, "case {case}");
        assert!(avedev <= (max - min) as f64 + 1e-9, "case {case}");
        assert_eq!(s.count(), samples.len(), "case {case}");
        // Percentile endpoints are the order statistics.
        assert_eq!(s.percentile(0.0), Some(min), "case {case}");
        assert_eq!(s.percentile(100.0), Some(max), "case {case}");
        // Folded into the histogram (shifted by the minimum), the samples
        // keep their mass.
        let mut h = Histogram::new();
        for &x in &samples {
            h.record((x - min) as u64);
        }
        let mass: u64 = h.buckets().map(|(_, c)| c).sum();
        assert_eq!(mass, samples.len() as u64, "case {case}");
    }
}

/// Merging recorders equals recording the concatenation, for streaming
/// and sample-retaining recorders alike.
#[test]
fn stats_merge_is_concat() {
    let mut rng = SimRng::from_seed(0xB0B);
    for case in 0..CASES {
        let a: Vec<i64> = (0..rng.uniform_u64(0, 50))
            .map(|_| sample_i64(&mut rng, -1_000, 1_000))
            .collect();
        let b: Vec<i64> = (0..rng.uniform_u64(0, 50))
            .map(|_| sample_i64(&mut rng, -1_000, 1_000))
            .collect();
        for fresh in [LatencyStats::new, LatencyStats::with_samples] {
            let mut left = fresh();
            for &x in &a {
                left.record(x);
            }
            let mut right = fresh();
            for &x in &b {
                right.record(x);
            }
            left.merge(&right);
            let mut all = fresh();
            for &x in a.iter().chain(b.iter()) {
                all.record(x);
            }
            assert_eq!(left.count(), all.count(), "case {case}");
            assert_eq!(left.min(), all.min(), "case {case}");
            assert_eq!(left.max(), all.max(), "case {case}");
            assert!((left.average() - all.average()).abs() < 1e-9, "case {case}");
            assert_eq!(left.samples(), all.samples(), "case {case}");
        }
    }
}

/// The log-linear histogram against an exact fold, over weighted values up
/// to `u64::MAX >> 1`: count, sum, min and max are exact, the buckets hold
/// all the mass, and every quantile is the exact weighted order statistic
/// rounded up by at most `2^-S` (exactly, below `2^S`).
#[test]
fn histogram_quantiles_bound_the_order_statistics() {
    let mut rng = SimRng::from_seed(0x4157);
    for case in 0..CASES {
        let len = rng.uniform_u64(1, 120) as usize;
        // Magnitudes spread over every power of two, small values included.
        let mut values: Vec<(u64, u64)> = (0..len)
            .map(|_| {
                let bits = rng.uniform_u64(0, 64) as u32;
                let value = (rng.next_u64() >> (64 - bits.max(1))) & (u64::MAX >> 1);
                (value, rng.uniform_u64(1, 1_000))
            })
            .collect();
        let mut h = Histogram::new();
        for &(v, n) in &values {
            if n == 1 {
                h.record(v);
            } else {
                h.record_n(v, n);
            }
        }
        values.sort_unstable();
        let count: u64 = values.iter().map(|&(_, n)| n).sum();
        let sum: u128 = values
            .iter()
            .map(|&(v, n)| u128::from(v) * u128::from(n))
            .sum();
        assert_eq!(h.count(), count, "case {case}");
        assert_eq!(h.sum(), sum, "case {case}");
        assert_eq!(h.min(), values.first().map(|&(v, _)| v), "case {case}");
        assert_eq!(h.max(), values.last().map(|&(v, _)| v), "case {case}");
        let mass: u64 = h.buckets().map(|(_, c)| c).sum();
        assert_eq!(mass, count, "case {case}");
        let mut qs = vec![0.0, 0.5, 0.9, 0.99, 1.0];
        qs.extend((0..8).map(|_| rng.uniform()));
        for q in qs {
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0;
            let exact = values
                .iter()
                .find(|&&(_, n)| {
                    seen += n;
                    seen >= rank
                })
                .map(|&(v, _)| v)
                .unwrap();
            let got = h.quantile(q).unwrap();
            let at = format!("case {case} q {q}: exact {exact}, got {got}");
            assert!(got >= exact, "{at}");
            assert!(
                u128::from(got) <= u128::from(exact) + (u128::from(exact) >> SUB_BUCKET_BITS),
                "{at}"
            );
            if exact < 1 << SUB_BUCKET_BITS {
                assert_eq!(got, exact, "{at}");
            }
        }
    }
}

/// The calibrated model is deterministic per seed: two kernels with the
/// same configuration produce bit-identical latency streams.
#[test]
fn kernel_determinism() {
    let mut rng = SimRng::from_seed(0xDE7);
    for case in 0..24 {
        let seed = rng.uniform_u64(0, 1_000);
        let load = if rng.chance(0.5) {
            LoadMode::Light
        } else {
            LoadMode::Stress
        };
        let run = |seed| {
            let mut k = Kernel::new(
                KernelConfig::new(seed)
                    .with_timer(TimerJitterModel::calibrated(TimerMode::Periodic))
                    .with_load_mode(load)
                    .with_latency_samples(),
            );
            let cfg = TaskConfig::periodic("tick", Priority(2), SimDuration::from_millis(1))
                .unwrap()
                .with_latency_tracking();
            let t = k.create_task(cfg, Box::new(IdleBody)).unwrap();
            k.start_task(t).unwrap();
            k.run_for(SimDuration::from_millis(50));
            k.task_stats(t).unwrap().samples().unwrap().to_vec()
        };
        let first = run(seed);
        assert!(
            !first.is_empty(),
            "case {case}: no latency samples recorded"
        );
        assert_eq!(first, run(seed), "case {case}");
    }
}

/// Priority isolation: with an ideal timer, a strictly-highest-priority
/// task is never delayed, whatever mix of lower-priority tasks runs.
#[test]
fn highest_priority_never_delayed() {
    let mut rng = SimRng::from_seed(0x1507);
    for case in 0..32 {
        let mut k = ideal_kernel(3, 1);
        let others = rng.uniform_u64(0, 5);
        for i in 0..others {
            let prio = rng.uniform_u64(2, 20) as u8;
            let period_ms = rng.uniform_u64(1, 5);
            let cost_us = rng.uniform_u64(50, 2_000);
            let cfg = TaskConfig::periodic(
                &format!("low{i:02}"),
                Priority(prio),
                SimDuration::from_millis(period_ms),
            )
            .unwrap()
            .with_base_cost(SimDuration::from_micros(cost_us));
            let t = k.create_task(cfg, Box::new(IdleBody)).unwrap();
            k.start_task(t).unwrap();
        }
        let cfg = TaskConfig::periodic("top", Priority(1), SimDuration::from_millis(1))
            .unwrap()
            .with_base_cost(SimDuration::from_micros(100))
            .with_latency_tracking();
        let top = k.create_task(cfg, Box::new(IdleBody)).unwrap();
        k.start_task(top).unwrap();
        k.run_for(SimDuration::from_millis(100));
        let stats = k.task_stats(top).unwrap();
        assert!(stats.count() > 0, "case {case}");
        assert_eq!(stats.max().unwrap(), 0, "case {case}: top task delayed");
    }
}

/// CPU time accounting: RT + Linux busy fractions never exceed 1 per
/// CPU, and a single task's cycle count matches elapsed/period.
#[test]
fn utilization_accounting() {
    let mut rng = SimRng::from_seed(0xACC7);
    for case in 0..32 {
        let cost_us = rng.uniform_u64(10, 900);
        let seed = rng.uniform_u64(0, 50);
        let mut k = ideal_kernel(seed, 1);
        let cfg = TaskConfig::periodic("tick", Priority(2), SimDuration::from_millis(1))
            .unwrap()
            .with_base_cost(SimDuration::from_micros(cost_us));
        let t = k.create_task(cfg, Box::new(IdleBody)).unwrap();
        k.start_task(t).unwrap();
        k.run_for(SimDuration::from_millis(200));
        let rt_util = k.cpu_rt_utilization(0);
        let linux_util = k.cpu_linux_utilization(0);
        assert!(rt_util + linux_util <= 1.0 + 1e-9, "case {case}");
        // Expected utilization ≈ cost/period (+ the 1 µs default floor is
        // included in base_cost here, so exact).
        let expected = cost_us as f64 / 1_000.0;
        assert!(
            (rt_util - expected).abs() < 0.02,
            "case {case}: util {rt_util} vs {expected}"
        );
        let cycles = k.task_cycles(t).unwrap();
        assert!(
            (198..=200).contains(&cycles),
            "case {case}: cycles {cycles}"
        );
    }
}

/// Suspend/resume conserves work: total cycles after a suspend window
/// equal active-time / period, regardless of when the suspend happens.
#[test]
fn suspend_conserves_cycles() {
    let mut rng = SimRng::from_seed(0x5105);
    for case in 0..32 {
        let suspend_at_ms = rng.uniform_u64(5, 50);
        let mut k = ideal_kernel(9, 1);
        let cfg = TaskConfig::periodic("tick", Priority(2), SimDuration::from_millis(1))
            .unwrap()
            .with_base_cost(SimDuration::from_micros(10));
        let t = k.create_task(cfg, Box::new(IdleBody)).unwrap();
        k.start_task(t).unwrap();
        k.run_for(SimDuration::from_millis(suspend_at_ms));
        k.suspend_task(t).unwrap();
        k.run_for(SimDuration::from_millis(30));
        let frozen = k.task_cycles(t).unwrap();
        // At most one in-flight cycle completes after the suspend call.
        assert!(frozen <= suspend_at_ms, "case {case}: frozen {frozen}");
        assert!(frozen + 1 >= suspend_at_ms, "case {case}: frozen {frozen}");
        k.resume_task(t).unwrap();
        k.run_for(SimDuration::from_millis(20));
        let total = k.task_cycles(t).unwrap();
        assert!(
            (19..=20).contains(&(total - frozen)),
            "case {case}: resumed {}",
            total - frozen
        );
    }
}

/// Names are exclusive while alive and reusable after deletion.
#[test]
fn task_name_exclusivity() {
    let mut rng = SimRng::from_seed(0x8A8E);
    for case in 0..32 {
        let len = rng.uniform_u64(1, 7) as usize;
        let name: String = (0..len)
            .map(|i| {
                let set: &[u8] = if i == 0 {
                    b"abcdefghijklmnopqrstuvwxyz"
                } else {
                    b"abcdefghijklmnopqrstuvwxyz0123456789"
                };
                set[rng.uniform_u64(0, set.len() as u64) as usize] as char
            })
            .collect();
        let mut k = ideal_kernel(1, 1);
        let cfg = TaskConfig::periodic(&name, Priority(2), SimDuration::from_millis(1)).unwrap();
        let t = k.create_task(cfg.clone(), Box::new(IdleBody)).unwrap();
        assert!(
            k.create_task(cfg.clone(), Box::new(IdleBody)).is_err(),
            "case {case}"
        );
        k.delete_task(t).unwrap();
        assert!(
            k.create_task(cfg, Box::new(IdleBody)).is_ok(),
            "case {case}"
        );
    }
}
