//! Wall-clock throughput measurement for `parallel_throughput`, whose
//! speedup gate compares executors in real time.
//!
//! The simulation itself runs in virtual nanoseconds, so counters alone
//! cannot show whether an executor is *faster in real time*. A
//! [`WallClock`] reports three numbers: elapsed real seconds, simulated
//! nanoseconds executed per real second, and completed task cycles per
//! real second. The other bench binaries report only deterministic
//! counters; end-to-end timing is drtbench's job.

use std::time::Instant;

/// A started wall-clock measurement.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// Starts measuring.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        WallClock {
            start: Instant::now(),
        }
    }

    /// Elapsed real time in fractional seconds (never zero, so rates are
    /// always finite).
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64().max(1e-9)
    }

    /// Finishes the measurement against work done: `sim_ns` of virtual
    /// time executed and `cycles` task cycles completed.
    pub fn finish(&self, sim_ns: u64, cycles: u64) -> Throughput {
        let wall_seconds = self.elapsed_secs();
        Throughput {
            wall_seconds,
            sim_ns_per_sec: sim_ns as f64 / wall_seconds,
            cycles_per_sec: cycles as f64 / wall_seconds,
            cycles,
        }
    }
}

/// Wall-clock throughput of one bench phase.
#[derive(Debug, Clone, Copy)]
pub struct Throughput {
    /// Elapsed real seconds.
    pub wall_seconds: f64,
    /// Simulated nanoseconds executed per real second.
    pub sim_ns_per_sec: f64,
    /// Completed task cycles per real second.
    pub cycles_per_sec: f64,
    /// Total completed cycles.
    pub cycles: u64,
}

impl Throughput {
    /// One human-readable summary line.
    pub fn summary(&self) -> String {
        format!(
            "wall {:.3} s | {:.2e} sim-ns/s | {:.0} cycles/s",
            self.wall_seconds, self.sim_ns_per_sec, self.cycles_per_sec
        )
    }

    /// The JSON object fields (no braces), for splicing into a bench's
    /// `BENCH_*.json` output.
    pub fn json_fields(&self) -> String {
        format!(
            "\"wall_seconds\": {:.6}, \"sim_ns_per_sec\": {:.1}, \"cycles_per_sec\": {:.1}",
            self.wall_seconds, self.sim_ns_per_sec, self.cycles_per_sec
        )
    }
}
