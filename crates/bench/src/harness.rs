//! Experiment harness reproducing the paper's evaluation (§4).
//!
//! The central artifact is **Table 1**: scheduling-latency statistics
//! (AVERAGE / AVEDEV / MIN / MAX, nanoseconds) of a 1000 Hz periodic
//! "calculation" task accompanied by a 4 Hz "display" task reading its
//! shared-memory output, measured in four configurations:
//!
//! | implementation | load |
//! |---|---|
//! | Pure RTAI (tasks created directly on the kernel, no middleware) | light / stress |
//! | HRC (the same tasks deployed as DRCR-managed declarative components) | light / stress |
//!
//! [`run_table1_config`] runs one cell; [`run_table1`] produces the whole
//! table. The workload mirrors §4.2: the calculation task does a simulated
//! computing job at 1000 Hz and publishes into shared memory; the display
//! task reads it at 4 Hz.

use drcom::drcr::ComponentProvider;
use drcom::hybrid::BridgeMode;
use drcom::prelude::*;
use rtos::kernel::{Kernel, KernelConfig, TaskCtx};
use rtos::latency::{LatencyStats, LoadMode, TimerJitterModel, TimerMode};
use rtos::load::apply_load;
use rtos::lxrt;
use rtos::task::{FnBody, Priority};
use rtos::time::SimDuration;

/// Which implementation path a Table 1 cell exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImplKind {
    /// Tasks created straight on the kernel through the LXRT façade.
    PureRtai,
    /// Tasks deployed as declarative components through the DRCR.
    Hrc,
}

impl std::fmt::Display for ImplKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImplKind::PureRtai => write!(f, "Pure RTAI"),
            ImplKind::Hrc => write!(f, "HRC"),
        }
    }
}

/// Parameters of one Table 1 cell.
#[derive(Debug, Clone)]
pub struct Table1Config {
    /// Implementation path.
    pub impl_kind: ImplKind,
    /// Load regime.
    pub load: LoadMode,
    /// Number of 1 kHz cycles to record (the paper runs tens of thousands).
    pub cycles: u64,
    /// RNG seed (the experiments are exactly reproducible).
    pub seed: u64,
    /// Bridge mode for the HRC path (ablation hook).
    pub bridge: BridgeMode,
    /// Hardware timer programming mode (ablation hook; the paper uses
    /// periodic mode and discusses its drift).
    pub timer_mode: TimerMode,
}

impl Table1Config {
    /// The paper's configuration for a given cell.
    pub fn paper(impl_kind: ImplKind, load: LoadMode, seed: u64) -> Self {
        Table1Config {
            impl_kind,
            load,
            cycles: 20_000,
            seed,
            bridge: BridgeMode::AsyncPoll,
            timer_mode: TimerMode::Periodic,
        }
    }
}

/// One row of the reproduced Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Row label, e.g. `HRC (light)`.
    pub label: String,
    /// The recorded statistics.
    pub stats: LatencyStats,
}

impl Table1Row {
    /// Formats the row the way the paper prints it.
    pub fn format(&self) -> String {
        format!(
            "{:<20} {:>12.2} {:>12.2} {:>10} {:>10}",
            self.label,
            self.stats.average(),
            table1_avedev(&self.stats),
            self.stats.min().unwrap_or(0),
            self.stats.max().unwrap_or(0),
        )
    }
}

/// Table 1 kernels opt into raw-sample retention: the paper's AVEDEV is a
/// two-pass statistic over every sample.
fn kernel_config(seed: u64, timer_mode: TimerMode) -> KernelConfig {
    KernelConfig::new(seed)
        .with_timer(TimerJitterModel::calibrated(timer_mode))
        .with_latency_samples()
}

/// AVEDEV of a Table 1 cell's statistics.
///
/// # Panics
///
/// Panics if the statistics are empty or were recorded without samples,
/// which [`run_table1_config`] never returns.
pub fn table1_avedev(stats: &LatencyStats) -> f64 {
    stats
        .avedev()
        .expect("Table 1 cells retain a non-empty sample set")
}

/// Runs one Table 1 cell and returns the calculation task's latency stats.
pub fn run_table1_config(cfg: &Table1Config) -> LatencyStats {
    match cfg.impl_kind {
        ImplKind::PureRtai => run_pure_rtai(cfg),
        ImplKind::Hrc => run_hrc(cfg),
    }
}

/// The pure-RTAI baseline: the latency test pair created directly with the
/// LXRT-style API, no middleware in the loop.
fn run_pure_rtai(cfg: &Table1Config) -> LatencyStats {
    let mut kernel = Kernel::new(kernel_config(cfg.seed, cfg.timer_mode).with_load_mode(cfg.load));
    apply_load(&mut kernel, cfg.load, 3).expect("load setup");
    lxrt::rt_shm_alloc(&mut kernel, "latdat", DataType::Integer, 1).expect("shm");

    let calc = lxrt::rt_task_init(
        &mut kernel,
        "calc",
        Priority(2),
        0,
        Box::new(FnBody(|ctx: &mut TaskCtx<'_>| {
            // The simulated computing job of §4.2.
            ctx.compute(SimDuration::from_micros(100));
            let v = (ctx.cycle() as i32).to_le_bytes();
            ctx.shm_write("latdat", &v).expect("write latdat");
        })),
    )
    .expect("calc init");
    kernel.set_latency_tracking(calc, true).expect("tracking");
    lxrt::rt_task_make_periodic(&mut kernel, calc, SimDuration::from_hz(1000)).expect("periodic");

    let disp = lxrt::rt_task_init(
        &mut kernel,
        "disp",
        Priority(5),
        0,
        Box::new(FnBody(|ctx: &mut TaskCtx<'_>| {
            let _ = ctx.shm_read("latdat").expect("read latdat");
            ctx.compute(SimDuration::from_micros(20));
        })),
    )
    .expect("disp init");
    lxrt::rt_task_make_periodic(&mut kernel, disp, SimDuration::from_hz(4)).expect("periodic");

    kernel.run_for(SimDuration::from_millis(cfg.cycles + 2));
    kernel.task_stats(calc).expect("stats").clone()
}

/// The declarative path: the same pair deployed as DRCom components and
/// managed by the DRCR.
fn run_hrc(cfg: &Table1Config) -> LatencyStats {
    let mut rt = DrtRuntime::new(kernel_config(cfg.seed, cfg.timer_mode).with_load_mode(cfg.load));
    rt.drcr_mut().set_bridge_mode(cfg.bridge);
    apply_load(&mut rt.kernel_mut(), cfg.load, 3).expect("load setup");

    let calc_desc = ComponentDescriptor::builder("calc")
        .description("simulated computing job, 1 kHz")
        .periodic(1000, 0, 2)
        .cpu_usage(0.15)
        .outport("latdat", PortInterface::Shm, DataType::Integer, 1)
        .build()
        .expect("calc descriptor");
    rt.install_component(
        "demo.calc",
        ComponentProvider::new(calc_desc, || {
            Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
                io.compute(SimDuration::from_micros(100));
                let v = (io.cycle() as i32).to_le_bytes();
                io.write("latdat", &v).expect("write latdat");
            }))
        }),
    )
    .expect("install calc");

    let disp_desc = ComponentDescriptor::builder("disp")
        .description("latency display, 4 Hz")
        .periodic(4, 0, 5)
        .cpu_usage(0.01)
        .inport("latdat", PortInterface::Shm, DataType::Integer, 1)
        .build()
        .expect("disp descriptor");
    rt.install_component(
        "demo.disp",
        ComponentProvider::new(disp_desc, || {
            Box::new(FnLogic(|io: &mut RtIo<'_, '_>| {
                let _ = io.read("latdat").expect("read latdat");
                io.compute(SimDuration::from_micros(20));
            }))
        }),
    )
    .expect("install disp");

    assert_eq!(rt.component_state("calc"), Some(ComponentState::Active));
    assert_eq!(rt.component_state("disp"), Some(ComponentState::Active));

    rt.advance(SimDuration::from_millis(cfg.cycles + 2));
    let task = rt.drcr().task_of("calc").expect("calc task");
    let stats = rt.kernel().task_stats(task).expect("stats").clone();
    stats
}

/// Runs all four Table 1 rows with the given cycle count.
pub fn run_table1(cycles: u64, seed: u64) -> Vec<Table1Row> {
    let cells = [
        (ImplKind::Hrc, LoadMode::Light),
        (ImplKind::PureRtai, LoadMode::Light),
        (ImplKind::Hrc, LoadMode::Stress),
        (ImplKind::PureRtai, LoadMode::Stress),
    ];
    cells
        .iter()
        .map(|&(impl_kind, load)| {
            let cfg = Table1Config {
                cycles,
                ..Table1Config::paper(impl_kind, load, seed)
            };
            Table1Row {
                label: format!("{impl_kind} ({load})"),
                stats: run_table1_config(&cfg),
            }
        })
        .collect()
}

/// Renders the table with the paper's header.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>12} {:>12} {:>10} {:>10}\n",
        "", "AVERAGE", "AVEDEV", "MIN", "MAX"
    ));
    for row in rows {
        out.push_str(&row.format());
        out.push('\n');
    }
    out
}

/// The paper's published Table 1, for side-by-side comparison:
/// `(label, average, avedev, min, max)`.
pub const PAPER_TABLE1: [(&str, f64, f64, i64, i64); 4] = [
    ("HRC (light)", -1334.9, 3760.03, -24125, 21489),
    ("Pure RTAI (light)", -633.8, 3682.82, -25436, 23798),
    ("HRC (stress)", -21083.74, 338.89, -23314, -17956),
    ("Pure RTAI (stress)", -21184.52, 385.41, -25233, -18834),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(impl_kind: ImplKind, load: LoadMode) -> LatencyStats {
        run_table1_config(&Table1Config {
            cycles: 3_000,
            ..Table1Config::paper(impl_kind, load, 7)
        })
    }

    #[test]
    fn light_mode_shapes_match_the_paper() {
        for kind in [ImplKind::PureRtai, ImplKind::Hrc] {
            let s = quick(kind, LoadMode::Light);
            assert!(s.count() >= 2_990, "{kind}: {}", s.count());
            assert!(
                (-3_000.0..=500.0).contains(&s.average()),
                "{kind} avg {}",
                s.average()
            );
            let avedev = table1_avedev(&s);
            assert!(
                (2_500.0..=5_000.0).contains(&avedev),
                "{kind} avedev {avedev}"
            );
        }
    }

    #[test]
    fn stress_mode_shapes_match_the_paper() {
        for kind in [ImplKind::PureRtai, ImplKind::Hrc] {
            let s = quick(kind, LoadMode::Stress);
            assert!(
                (-23_000.0..=-19_000.0).contains(&s.average()),
                "{kind} avg {}",
                s.average()
            );
            let avedev = table1_avedev(&s);
            assert!(avedev < 1_000.0, "{kind} avedev {avedev}");
            assert!(s.max().unwrap() < 0, "{kind} max {:?}", s.max());
        }
    }

    #[test]
    fn hrc_overhead_is_within_noise() {
        // The paper's core claim: the declarative runtime adds no meaningful
        // scheduling latency over pure RTAI.
        let pure = quick(ImplKind::PureRtai, LoadMode::Light);
        let hrc = quick(ImplKind::Hrc, LoadMode::Light);
        let delta = (hrc.average() - pure.average()).abs();
        let noise = table1_avedev(&pure);
        assert!(delta < noise, "HRC delta {delta} exceeds noise ({noise})");
    }

    #[test]
    fn table_formatting_is_stable() {
        let rows = run_table1(500, 3);
        let text = format_table1(&rows);
        assert!(text.contains("AVERAGE"));
        assert!(text.contains("HRC (light)"));
        assert!(text.contains("Pure RTAI (stress)"));
        assert_eq!(text.lines().count(), 5);
    }
}
