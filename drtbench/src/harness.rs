//! The closed-loop harness every workload runs under: repeated set-up, the
//! timed op loop, the traced phase, and the report it all feeds.
//!
//! One client drives each workload and waits for every op before issuing
//! the next (the DRCR management API is synchronous). An op's latency is
//! its host time; post-condition checks run between ops and stay outside
//! every timer. A run stops on a window boundary once it has measured
//! `--seconds` of op time and at least [`Plan::min_ops`] ops, so the
//! percentiles always have the samples behind them.

use crate::stats::{self, median, percentile};
use crate::trace::{aggregate, SpanStats, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per batch of an untraced run: at least this many…
const SETUP_MIN: usize = 2;
/// …and more until this much set-up time has been spent…
const SETUP_BUDGET_S: f64 = 0.5;
/// …but never more than this many. One batch runs before the op loop and
/// one after it.
const SETUP_MAX: usize = 25;

/// How a workload's op loop is sized.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Ops per window: the shortest run of ops that repeats the workload's
    /// op mix exactly (whole rotations, whole kernel steps, whole
    /// episodes), so every window does the same work. A phase ends on a
    /// window boundary.
    pub window_ops: u64,
    /// Ops every measured phase runs at least (whole windows).
    pub min_ops: u64,
    /// Op count after which the outcome digest and the peak memory are
    /// taken, so neither depends on how many ops the time budget allowed
    /// (the kernel keeps every latency sample, so memory grows with
    /// simulated time).
    pub digest_at: u64,
}

/// A benchmark workload: seeded inputs, a fleet built from them, and one
/// closed-loop operation.
pub trait Workload: Sized {
    const NAME: &'static str;
    type Inputs;

    /// Generates the inputs from the seed, outside every timer.
    fn inputs(seed: u64, smoke: bool) -> Self::Inputs;
    /// Runtime construction until the initial fleet is deployed and
    /// resolved; timed as `setup_s`.
    fn build(inputs: &Self::Inputs, tr: &mut Tracer) -> Result<Self, String>;
    fn plan(&self) -> Plan;
    /// One operation, timed.
    fn op(&mut self, tr: &mut Tracer) -> Result<(), String>;
    /// The post-condition of the op just run, plus untimed housekeeping.
    fn after_op(&mut self, tr: &mut Tracer) -> Result<(), String>;
    /// Virtual time of the system under test, in nanoseconds.
    fn sim_now_ns(&self) -> u64;
    /// FNV-1a over semantic outcomes only (states, modes, ledger,
    /// scheduler counters, latency statistics), never over work counters.
    fn digest(&self) -> u64;
    /// Cumulative work counters, named as the per-layer metrics they
    /// become once divided by the op count (`<name>_per_op`).
    fn counters(&self) -> BTreeMap<&'static str, f64>;
    /// End-of-run correctness checks and workload-specific metrics. Probe
    /// calls made here under a `probe` root span are reported by the
    /// harness.
    fn finish(&mut self, tr: &mut Tracer, traced: Option<&Traced>, rep: &mut Report);
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// `(name, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    /// End-to-end metrics, workload summary lines and, in a traced run,
    /// per-layer metrics.
    pub metrics: Vec<Metric>,
    pub digest: Option<u64>,
}

impl Report {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok, _)| *ok)
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }
}

/// What the traced phase measured, handed to [`Workload::finish`].
pub struct Traced {
    /// Span statistics under `op` roots, by span name.
    pub ops: BTreeMap<&'static str, SpanStats>,
    /// Counter growth over the traced phase.
    pub deltas: BTreeMap<&'static str, f64>,
    /// Ops in the traced phase.
    pub op_count: u64,
}

impl Traced {
    pub fn delta(&self, name: &str) -> f64 {
        self.deltas.get(name).copied().unwrap_or(0.0)
    }

    /// Total host time of one span name, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.ops.get(name).map_or(0.0, |s| s.total_ns as f64)
    }
}

/// Fisher–Yates shuffle driven by the workload's seeded generator.
pub fn shuffle<T>(v: &mut [T], rng: &mut rtos::rng::SimRng) {
    for i in (1..v.len()).rev() {
        let j = rng.uniform_u64(0, i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Op latencies of one measured phase, cut into windows.
///
/// Every rate and percentile a phase reports comes from its fastest
/// windows, pooled: the fastest tenth, or as many as it takes to pool
/// [`POOLED_OPS`] ops. A shared virtual machine can alternate, every few
/// seconds, between its own speed and two thirds of it or less while a
/// co-tenant competes for the core. A mean or median over the run moves
/// with the share of slow time in it; the fastest windows follow the
/// uncontended speed whenever a tenth of the run had it. Every window does
/// the same work, so a change to the code moves every window alike.
struct OpLog {
    window_ops: u64,
    lat_ns: Vec<u64>,
    measured_ns: u64,
    /// Closed windows: host and simulated nanoseconds.
    windows: Vec<(u64, u64)>,
    open: (u64, u64),
}

/// Ops pooled at least, so the p99 has ten samples beyond it.
const POOLED_OPS: usize = 1000;

/// What a phase reports, from its fastest windows.
struct Fast {
    ops_per_s: f64,
    sim_speed: f64,
    p50_us: f64,
    p99_us: f64,
    note: String,
}

fn sorted_us(ns: &[u64]) -> Vec<f64> {
    let mut v: Vec<f64> = ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    v.sort_by(f64::total_cmp);
    v
}

impl OpLog {
    fn new(window_ops: u64) -> Self {
        OpLog {
            window_ops,
            lat_ns: Vec::new(),
            measured_ns: 0,
            windows: Vec::new(),
            open: (0, 0),
        }
    }

    fn record(&mut self, ns: u64, sim_ns: u64) {
        self.lat_ns.push(ns);
        self.measured_ns += ns;
        self.open.0 += ns;
        self.open.1 += sim_ns;
        if (self.lat_ns.len() as u64).is_multiple_of(self.window_ops) {
            self.windows.push(std::mem::take(&mut self.open));
        }
    }

    fn ops(&self) -> u64 {
        self.lat_ns.len() as u64
    }

    fn fast(&self) -> Fast {
        let mut by_time: Vec<usize> = (0..self.windows.len()).collect();
        by_time.sort_by_key(|&i| self.windows[i].0);
        let w = self.window_ops as usize;
        let k = (self.windows.len().div_ceil(10))
            .max(POOLED_OPS.div_ceil(w))
            .min(self.windows.len());
        let (mut ns, mut sim, mut lat) = (0u64, 0u64, Vec::with_capacity(k * w));
        for &i in &by_time[..k] {
            ns += self.windows[i].0;
            sim += self.windows[i].1;
            lat.extend_from_slice(&self.lat_ns[i * w..(i + 1) * w]);
        }
        let us = sorted_us(&lat);
        Fast {
            ops_per_s: us.len() as f64 / (ns as f64 / 1e9),
            sim_speed: sim as f64 / ns as f64,
            p50_us: percentile(&us, 50.0),
            p99_us: percentile(&us, 99.0),
            note: format!(
                "fastest {k} of {} windows of {w} ops, n={}",
                self.windows.len(),
                us.len()
            ),
        }
    }
}

struct Loop {
    ops: u64,
    digest_at: u64,
    digest: Option<u64>,
    rss_mb: Option<Result<f64, String>>,
}

fn phase<W: Workload>(
    w: &mut W,
    plan: &Plan,
    budget_ns: u64,
    tr: &mut Tracer,
    lp: &mut Loop,
    rep: &mut Report,
) -> OpLog {
    let mut log = OpLog::new(plan.window_ops);
    while log.ops() < plan.min_ops || log.measured_ns < budget_ns {
        for _ in 0..plan.window_ops {
            let sim0 = w.sim_now_ns();
            tr.begin("op");
            let t = Instant::now();
            let result = w.op(tr);
            let ns = t.elapsed().as_nanos() as u64;
            tr.end();
            log.record(ns, w.sim_now_ns().saturating_sub(sim0));
            rep.attempted += 1;
            let post = w.after_op(tr);
            if let Err(e) = result.and(post) {
                rep.fail(e);
            }
            lp.ops += 1;
            if lp.ops == lp.digest_at {
                lp.digest = Some(w.digest());
                lp.rss_mb = Some(peak_rss_mb());
            }
        }
    }
    log
}

/// Builds the fleet repeatedly, timing each build, and keeps the last.
fn setups<W: Workload>(inputs: &W::Inputs, tr: &mut Tracer) -> Result<(W, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    loop {
        // The previous fleet is torn down first, so peak memory is one
        // fleet's, and teardown stays outside the timer.
        drop(last.take());
        let t = Instant::now();
        let w = W::build(inputs, tr)?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(w);
        let spent: f64 = times.iter().sum();
        if times.len() >= SETUP_MAX || (times.len() >= SETUP_MIN && spent >= SETUP_BUDGET_S) {
            break;
        }
    }
    Ok((last.expect("built at least once"), times))
}

/// One traced build, its spans under a `setup` root.
fn traced_setup<W: Workload>(inputs: &W::Inputs, tr: &mut Tracer) -> Result<(W, Vec<f64>), String> {
    tr.set_on(true);
    tr.begin("setup");
    let t = Instant::now();
    let w = W::build(inputs, tr);
    let secs = t.elapsed().as_secs_f64();
    tr.end();
    tr.set_on(false);
    Ok((w?, vec![secs]))
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Reports one span name: its p50 as the value, and its highest supported
/// tail, count, total and self time in the note.
fn span_layer(rep: &mut Report, name: &str, st: &SpanStats) {
    let us = sorted_us(&st.durs_ns);
    let tail = stats::tail(&us)
        .map(|t| format!(" p{}={:.3}", t.pct, t.value))
        .unwrap_or_default();
    let note = format!(
        "n={}{tail} total_ms={:.3} self_ms={:.3}",
        us.len(),
        st.total_ns as f64 / 1e6,
        st.self_ns as f64 / 1e6
    );
    rep.metric(name, percentile(&us, 50.0), "us", note);
}

/// Runs one workload: set-up, the untraced phase that gives the
/// end-to-end metrics, and with `trace` a traced phase that gives the
/// per-layer ones. Returns the report and the tracer holding every span.
pub fn run<W: Workload>(seed: u64, seconds: f64, trace: bool, smoke: bool) -> (Report, Tracer) {
    let mut rep = Report::default();
    let mut tr = Tracer::new(false);
    let inputs = W::inputs(seed, smoke);
    let built = if trace {
        traced_setup::<W>(&inputs, &mut tr)
    } else {
        setups::<W>(&inputs, &mut tr)
    };
    let (mut w, mut setup_s) = match built {
        Ok(x) => x,
        Err(e) => {
            rep.check("setup", false, e);
            return (rep, tr);
        }
    };
    let plan = w.plan();
    let phases = if trace { 2.0 } else { 1.0 };
    let budget_ns = (seconds.max(0.0) * 1e9 / phases) as u64;
    let mut lp = Loop {
        ops: 0,
        digest_at: plan.digest_at,
        digest: None,
        rss_mb: None,
    };

    let log = phase(&mut w, &plan, budget_ns, &mut tr, &mut lp, &mut rep);
    let fast = log.fast();
    rep.metric("ops_per_s", fast.ops_per_s, "1/s", fast.note.clone());
    rep.metric("op_p50_us", fast.p50_us, "us", fast.note.clone());
    rep.metric("op_p99_us", fast.p99_us, "us", fast.note.clone());
    if let Some(t) = stats::tail(&sorted_us(&log.lat_ns)) {
        rep.metric(
            "op_tail_us",
            t.value,
            "us",
            format!("p{} over all {} ops", t.pct, t.n),
        );
    }
    rep.metric("sim_speed", fast.sim_speed, "s/s", fast.note);
    match lp.rss_mb.take() {
        Some(Ok(mb)) => rep.metric(
            "peak_rss_mb",
            mb,
            "MB",
            format!("after {} ops", plan.digest_at),
        ),
        Some(Err(e)) => rep.check("peak_rss", false, e),
        None => {}
    }

    let traced = trace.then(|| {
        let before = w.counters();
        let mark = tr.spans().len();
        tr.set_on(true);
        let log = phase(&mut w, &plan, budget_ns, &mut tr, &mut lp, &mut rep);
        let after = w.counters();
        let deltas = after
            .iter()
            .map(|(k, v)| (*k, v - before.get(k).copied().unwrap_or(0.0)))
            .collect();
        let traced_ops_per_s = log.fast().ops_per_s;
        rep.metric("ops_per_s_traced", traced_ops_per_s, "1/s", "");
        rep.metric(
            "trace_overhead",
            ratio(fast.ops_per_s, traced_ops_per_s),
            "ratio",
            "untraced / traced ops_per_s",
        );
        Traced {
            ops: aggregate(tr.spans(), mark, "op"),
            deltas,
            op_count: log.ops(),
        }
    });
    let probe_mark = tr.spans().len();
    w.finish(&mut tr, traced.as_ref(), &mut rep);
    if !trace {
        drop(w);
        match setups::<W>(&inputs, &mut tr) {
            Ok((_, more)) => setup_s.extend(more),
            Err(e) => rep.check("setup_after_run", false, e),
        }
    }
    // The fastest tenth of the builds, for the reason `OpLog` gives.
    setup_s.sort_by(f64::total_cmp);
    rep.metric(
        "setup_s",
        percentile(&setup_s, 10.0),
        "s",
        format!(
            "10th percentile of {} builds, median {:.4}",
            setup_s.len(),
            median(&setup_s)
        ),
    );
    rep.digest = lp.digest;
    if lp.digest.is_none() {
        rep.check(
            "digest_taken",
            false,
            format!("fewer than {} ops", plan.digest_at),
        );
    }
    if let Some(t) = &traced {
        layer_report(&tr, probe_mark, t, &mut rep);
    }
    tr.set_on(false);
    (rep, tr)
}

/// The per-layer numbers every traced workload reports: one line per span
/// name, per-layer self-time shares, counters per op, and the derived
/// work ratios.
fn layer_report(tr: &Tracer, probe_mark: usize, t: &Traced, rep: &mut Report) {
    let op_total = t.total_ns("op");
    let mut layer_self: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, st) in &t.ops {
        if *name == "op" {
            continue;
        }
        // Parsing is reported below, set-up and ops together.
        if *name != "descriptor.parse" {
            span_layer(rep, &format!("{name}_us"), st);
        }
        let layer = name.split('.').next().unwrap_or(name);
        *layer_self.entry(layer).or_default() += st.self_ns;
    }
    for (layer, self_ns) in &layer_self {
        rep.metric(
            &format!("{layer}.self_share"),
            ratio(*self_ns as f64, op_total),
            "ratio",
            format!("self_ms={:.3}", *self_ns as f64 / 1e6),
        );
    }
    let covered: u64 = layer_self.values().sum();
    rep.metric(
        "op.layer_coverage",
        ratio(covered as f64, op_total),
        "ratio",
        "op time inside layer spans",
    );
    for (name, st) in aggregate(tr.spans(), probe_mark, "probe") {
        if name != "probe" {
            span_layer(rep, &format!("{name}_us"), &st);
        }
    }
    let setup = aggregate(tr.spans(), 0, "setup");
    for (name, st) in &setup {
        if *name != "setup" {
            span_layer(rep, &format!("setup.{name}_us"), st);
        }
    }
    // Descriptor parsing happens at set-up in every workload and inside
    // arrival ops in some; one number covers both.
    let mut parse = setup.get("descriptor.parse").cloned().unwrap_or_default();
    if let Some(st) = t.ops.get("descriptor.parse") {
        parse.durs_ns.extend(&st.durs_ns);
        parse.total_ns += st.total_ns;
        parse.self_ns += st.self_ns;
    }
    if !parse.durs_ns.is_empty() {
        span_layer(rep, "descriptor.parse_us", &parse);
    }

    let ops = t.op_count as f64;
    for (name, delta) in &t.deltas {
        rep.metric(&format!("{name}_per_op"), delta / ops, "count", "");
    }
    let d = |n: &str| t.delta(n);
    if t.ops.contains_key("kernel.run_for") {
        rep.metric(
            "kernel.ns_per_dispatch",
            ratio(t.total_ns("kernel.run_for"), d("kernel.dispatches")),
            "ns",
            "kernel.run_for host time / dispatches",
        );
    }
    if t.deltas.contains_key("drcr.wiring_checks") {
        rep.metric(
            "drcr.wiring_memo_hit_ratio",
            ratio(d("drcr.wiring_memo_hits"), d("drcr.wiring_checks")),
            "ratio",
            "",
        );
        rep.metric(
            "drcr.admission_memo_hit_ratio",
            ratio(d("drcr.admission_memo_hits"), d("drcr.admission_checks")),
            "ratio",
            "",
        );
        rep.metric(
            "drcr.useful_ratio",
            ratio(
                d("drcr.activations") + d("drcr.deactivations"),
                d("drcr.wiring_checks"),
            ),
            "ratio",
            "(activations + deactivations) / wiring checks",
        );
    }
}
