//! Scheduling-latency capture and the hardware timer/jitter model.
//!
//! The paper's Table 1 reports, for each configuration, four statistics over
//! the observed scheduling latency of a 1000 Hz periodic task: AVERAGE,
//! AVEDEV (mean absolute deviation), MIN and MAX, all in nanoseconds.
//! [`LatencyStats`] reproduces exactly those columns; [`TimerJitterModel`]
//! generates the per-release timer error that, combined with the *measured*
//! queueing/dispatch delay computed by the scheduler, forms a latency sample.
//!
//! # Calibration
//!
//! The model parameters are calibrated against the paper's testbed (HP
//! nc6400, RTAI 3.5, periodic hardware timer):
//!
//! * **Light mode** — the timer error is dominated by occasional cache/TLB
//!   disturbances from the mostly idle Linux domain: a wide Gaussian centred
//!   slightly early (periodic-mode calibration bias), σ ≈ 4.7 µs, giving
//!   AVEDEV ≈ 3.7 µs and extrema near ±25 µs over 20 000 cycles.
//! * **Stress mode** — with the Linux domain saturated the caches are
//!   *consistently* cold, so the periodic timer's calibration offset shifts
//!   strongly early (≈ −21 µs) while the spread collapses (σ ≈ 0.45 µs,
//!   AVEDEV ≈ 0.35 µs): every cycle pays the same worst-ish cost.
//!
//! These shapes — not the absolute numbers — are the reproduction target.

use crate::rng::SimRng;
use crate::time::LatencyNs;

/// Streaming latency statistics matching the paper's Table 1 columns.
///
/// Every recorder keeps an exact count, sum, minimum and maximum in
/// constant space, which is all AVERAGE, MIN and MAX need. AVEDEV (the
/// paper's two-pass mean absolute deviation) and percentiles need the raw
/// samples, so a recorder keeps them only when created with
/// [`LatencyStats::with_samples`]; the sample-based queries report `None`
/// on a streaming recorder instead of answering from nothing.
///
/// ```
/// use rtos::latency::LatencyStats;
///
/// let mut stats = LatencyStats::with_samples();
/// for sample in [-10, 0, 10, 20] {
///     stats.record(sample);
/// }
/// assert_eq!(stats.average(), 5.0);
/// assert_eq!(stats.avedev(), Some(10.0));
/// assert_eq!(stats.min(), Some(-10));
/// assert_eq!(stats.max(), Some(20));
///
/// let mut streaming = LatencyStats::new();
/// streaming.record(7);
/// assert_eq!(streaming.average(), 7.0);
/// assert_eq!(streaming.avedev(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    count: usize,
    sum: i128,
    min: Option<LatencyNs>,
    max: Option<LatencyNs>,
    /// Raw samples in arrival order, when retention was asked for.
    samples: Option<Vec<LatencyNs>>,
}

impl LatencyStats {
    /// Creates an empty streaming recorder (no raw samples kept).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty recorder that also retains every raw sample.
    pub fn with_samples() -> Self {
        LatencyStats {
            samples: Some(Vec::new()),
            ..Self::default()
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, sample: LatencyNs) {
        if let Some(samples) = &mut self.samples {
            samples.push(sample);
        }
        self.count += 1;
        self.sum += sample as i128;
        self.min = Some(self.min.map_or(sample, |m| m.min(sample)));
        self.max = Some(self.max.map_or(sample, |m| m.max(sample)));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.count
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean (the paper's AVERAGE column). Zero when empty.
    pub fn average(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Mean absolute deviation around the mean (the paper's AVEDEV
    /// column). `None` when empty or when raw samples are not retained.
    pub fn avedev(&self) -> Option<f64> {
        let samples = self.samples()?;
        if samples.is_empty() {
            return None;
        }
        let mean = self.average();
        Some(
            samples
                .iter()
                .map(|&s| (s as f64 - mean).abs())
                .sum::<f64>()
                / samples.len() as f64,
        )
    }

    /// Smallest sample (the paper's MIN column).
    pub fn min(&self) -> Option<LatencyNs> {
        self.min
    }

    /// Largest sample (the paper's MAX column).
    pub fn max(&self) -> Option<LatencyNs> {
        self.max
    }

    /// The `p`-th percentile (0.0 ..= 100.0) by nearest-rank.
    ///
    /// Returns `None` when empty or when raw samples are not retained.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<LatencyNs> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        let samples = self.samples()?;
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        Some(sorted[rank])
    }

    /// The raw samples in arrival order, or `None` when not retained.
    pub fn samples(&self) -> Option<&[LatencyNs]> {
        self.samples.as_deref()
    }

    /// Merges another recorder into this one. The result retains samples
    /// only if both recorders did (otherwise part of them would be missing).
    pub fn merge(&mut self, other: &LatencyStats) {
        match (&mut self.samples, other.samples()) {
            (Some(mine), Some(theirs)) => mine.extend_from_slice(theirs),
            (mine, _) => *mine = None,
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

/// System load regime for an experiment (Table 1's "light" vs "stress").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadMode {
    /// Linux domain mostly idle; only the RT tasks and the OSGi platform run.
    Light,
    /// Linux domain saturated (~100 % CPU) by hog processes.
    Stress,
}

impl std::fmt::Display for LoadMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadMode::Light => write!(f, "light"),
            LoadMode::Stress => write!(f, "stress"),
        }
    }
}

/// Hardware timer programming mode (RTAI `rt_set_periodic_mode` /
/// `rt_set_oneshot_mode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerMode {
    /// Interrupts on a fixed grid; cheap but subject to calibration drift
    /// (the source of the negative averages in Table 1).
    Periodic,
    /// Timer reprogrammed per release; no drift bias but a per-shot
    /// programming cost.
    Oneshot,
}

/// Parameters of the per-release timer-error distribution for one load mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterParams {
    /// Mean timer error in ns (negative = fires early).
    pub bias_ns: f64,
    /// Gaussian spread of the error in ns.
    pub sigma_ns: f64,
    /// Probability of an extra disturbance spike on any given release.
    pub spike_prob: f64,
    /// Half-width of the uniform spike magnitude in ns.
    pub spike_ns: f64,
}

/// The calibrated timer/jitter model.
///
/// Produces the *timer error* component of a latency sample; the scheduler
/// adds the measured dispatch/queueing delay on top.
#[derive(Debug, Clone, PartialEq)]
pub struct TimerJitterModel {
    mode: TimerMode,
    light: JitterParams,
    stress: JitterParams,
    /// Per-shot programming cost in oneshot mode (always-late component).
    oneshot_cost_ns: f64,
}

impl TimerJitterModel {
    /// Model calibrated against the paper's testbed (see module docs).
    pub fn calibrated(mode: TimerMode) -> Self {
        TimerJitterModel {
            mode,
            light: JitterParams {
                bias_ns: -1_000.0,
                sigma_ns: 4_650.0,
                spike_prob: 0.0005,
                spike_ns: 9_000.0,
            },
            stress: JitterParams {
                bias_ns: -21_150.0,
                sigma_ns: 450.0,
                spike_prob: 0.002,
                spike_ns: 2_400.0,
            },
            oneshot_cost_ns: 2_300.0,
        }
    }

    /// A model with explicit parameters (for ablations and tests).
    pub fn with_params(mode: TimerMode, light: JitterParams, stress: JitterParams) -> Self {
        TimerJitterModel {
            mode,
            light,
            stress,
            oneshot_cost_ns: 2_300.0,
        }
    }

    /// A perfectly ideal timer (zero error); useful in unit tests that assert
    /// on exact virtual-time arithmetic.
    pub fn ideal() -> Self {
        let zero = JitterParams {
            bias_ns: 0.0,
            sigma_ns: 0.0,
            spike_prob: 0.0,
            spike_ns: 0.0,
        };
        TimerJitterModel {
            mode: TimerMode::Periodic,
            light: zero,
            stress: zero,
            oneshot_cost_ns: 0.0,
        }
    }

    /// The timer programming mode of this model.
    pub fn mode(&self) -> TimerMode {
        self.mode
    }

    /// Samples the timer error for one release under the given load.
    pub fn sample_error(&self, rng: &mut SimRng, load: LoadMode) -> LatencyNs {
        let p = match load {
            LoadMode::Light => &self.light,
            LoadMode::Stress => &self.stress,
        };
        let mut err = match self.mode {
            TimerMode::Periodic => rng.gaussian(p.bias_ns, p.sigma_ns),
            // Oneshot has no calibration drift: centred at the programming
            // cost, same load-dependent spread.
            TimerMode::Oneshot => rng.gaussian(self.oneshot_cost_ns, p.sigma_ns),
        };
        if p.spike_prob > 0.0 && rng.chance(p.spike_prob) {
            err += rng.uniform_range(-p.spike_ns, p.spike_ns);
        }
        err.round() as LatencyNs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_of(samples: &[LatencyNs]) -> LatencyStats {
        let mut s = LatencyStats::with_samples();
        for &x in samples {
            s.record(x);
        }
        s
    }

    #[test]
    fn empty_stats_are_well_behaved() {
        for s in [LatencyStats::new(), LatencyStats::with_samples()] {
            assert!(s.is_empty());
            assert_eq!(s.count(), 0);
            assert_eq!(s.average(), 0.0);
            assert_eq!(s.avedev(), None);
            assert_eq!(s.min(), None);
            assert_eq!(s.max(), None);
            assert_eq!(s.percentile(50.0), None);
        }
    }

    #[test]
    fn streaming_stats_report_absent_samples() {
        let mut s = LatencyStats::new();
        for x in [-10, 0, 10, 20] {
            s.record(x);
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.average(), 5.0);
        assert_eq!((s.min(), s.max()), (Some(-10), Some(20)));
        assert_eq!(s.avedev(), None);
        assert_eq!(s.percentile(50.0), None);
        assert_eq!(s.samples(), None);
    }

    #[test]
    fn streaming_and_retaining_agree_on_the_streamed_columns() {
        let xs = [-25_436, 17, 3_682, -633, 23_798, 0, -1];
        let kept = stats_of(&xs);
        let mut streamed = LatencyStats::new();
        for &x in &xs {
            streamed.record(x);
        }
        assert_eq!(kept.count(), streamed.count());
        assert_eq!(kept.average().to_bits(), streamed.average().to_bits());
        assert_eq!((kept.min(), kept.max()), (streamed.min(), streamed.max()));
        assert_eq!(kept.samples(), Some(&xs[..]));
    }

    #[test]
    fn basic_columns_match_hand_computation() {
        let s = stats_of(&[-10, 0, 10, 20]);
        assert_eq!(s.count(), 4);
        assert_eq!(s.average(), 5.0);
        // |−15| + |−5| + |5| + |15| over 4 = 10
        assert_eq!(s.avedev(), Some(10.0));
        assert_eq!(s.min(), Some(-10));
        assert_eq!(s.max(), Some(20));
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let s = stats_of(&[5, 1, 4, 2, 3]);
        assert_eq!(s.percentile(0.0), Some(1));
        assert_eq!(s.percentile(50.0), Some(3));
        assert_eq!(s.percentile(100.0), Some(5));
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = stats_of(&[1, 2]);
        let b = stats_of(&[-5, 10]);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.min(), Some(-5));
        assert_eq!(a.max(), Some(10));
        assert_eq!(a.average(), 2.0);
        assert_eq!(a.samples(), Some(&[1, 2, -5, 10][..]));
        // Merging a streaming recorder drops the now-incomplete samples.
        let mut streaming = LatencyStats::new();
        streaming.record(100);
        a.merge(&streaming);
        assert_eq!((a.count(), a.max()), (5, Some(100)));
        assert_eq!(a.samples(), None);
    }

    #[test]
    fn calibrated_light_mode_has_table1_shape() {
        let model = TimerJitterModel::calibrated(TimerMode::Periodic);
        let mut rng = SimRng::from_seed(1);
        let mut s = LatencyStats::with_samples();
        for _ in 0..20_000 {
            s.record(model.sample_error(&mut rng, LoadMode::Light));
        }
        // Paper (pure RTAI, light): avg −633.8, avedev 3682, min −25436, max 23798.
        assert!(
            (-2_500.0..=500.0).contains(&s.average()),
            "avg {}",
            s.average()
        );
        let avedev = s.avedev().unwrap();
        assert!((3_000.0..=4_500.0).contains(&avedev), "avedev {avedev}");
        assert!(s.min().unwrap() < -12_000, "min {:?}", s.min());
        assert!(s.max().unwrap() > 12_000, "max {:?}", s.max());
    }

    #[test]
    fn calibrated_stress_mode_shifts_early_and_tightens() {
        let model = TimerJitterModel::calibrated(TimerMode::Periodic);
        let mut rng = SimRng::from_seed(2);
        let mut s = LatencyStats::with_samples();
        for _ in 0..20_000 {
            s.record(model.sample_error(&mut rng, LoadMode::Stress));
        }
        // Paper (pure RTAI, stress): avg −21184, avedev 385, min −25233, max −18834.
        assert!(
            (-22_500.0..=-19_500.0).contains(&s.average()),
            "avg {}",
            s.average()
        );
        assert!(s.avedev().unwrap() < 800.0, "avedev {:?}", s.avedev());
        assert!(s.max().unwrap() < 0, "max {:?}", s.max());
    }

    #[test]
    fn ideal_model_is_exact_zero() {
        let model = TimerJitterModel::ideal();
        let mut rng = SimRng::from_seed(3);
        for _ in 0..100 {
            assert_eq!(model.sample_error(&mut rng, LoadMode::Light), 0);
            assert_eq!(model.sample_error(&mut rng, LoadMode::Stress), 0);
        }
    }

    #[test]
    fn oneshot_mode_has_no_early_bias() {
        let model = TimerJitterModel::calibrated(TimerMode::Oneshot);
        let mut rng = SimRng::from_seed(4);
        let mut s = LatencyStats::new();
        for _ in 0..20_000 {
            s.record(model.sample_error(&mut rng, LoadMode::Light));
        }
        assert!(
            s.average() > 0.0,
            "oneshot should pay programming cost, avg {}",
            s.average()
        );
    }
}
