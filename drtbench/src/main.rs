//! drtbench: one end-to-end benchmark for the DRCR stack, with traced
//! per-layer numbers. See `README.md` beside this package for why each
//! workload exists and which layer metric should move which end-to-end one.
//!
//! ```text
//! drtbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--repeat N]
//! drtbench --compare A.json B.json
//! ```
//!
//! Each workload runs in its own child process (this executable again), so
//! peak memory and allocator state are per workload. Every metric is
//! printed as `workload metric value unit`; every run checks its outputs
//! and exits non-zero when a check fails. Results go to
//! `target/drtbench/results-seed<N>.json` (`-trace` for traced runs), and
//! a traced run also writes `target/drtbench/<workload>-seed<N>.trace.json`
//! in Chrome trace-event format. With `--workload`, the last line of
//! standard output is a JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics, or the per-layer ones when traced.

mod churn;
mod federation;
mod harness;
mod json;
mod rt;
mod stats;
mod steady;
mod trace;
mod waves;

use harness::{Report, Workload};
use json::{num, quote, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const WORKLOADS: [&str; 4] = [
    steady::Steady::NAME,
    churn::Churn::NAME,
    waves::Waves::NAME,
    federation::Fed::NAME,
];

/// The end-to-end metrics, as listed in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("sim_speed", "s/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced workload reports, as listed in
/// `BENCHMARK.json`; a layer a workload never enters reads 0.
const PER_LAYER: [(&str, &str); 18] = [
    ("trace_overhead", "ratio"),
    ("op.layer_coverage", "ratio"),
    ("descriptor.parse_us", "us"),
    ("kernel.self_share", "ratio"),
    ("manage.self_share", "ratio"),
    ("osgi.self_share", "ratio"),
    ("descriptor.self_share", "ratio"),
    ("drcr.self_share", "ratio"),
    ("contracts.self_share", "ratio"),
    ("federation.self_share", "ratio"),
    ("kernel.dispatches_per_op", "count"),
    ("drcr.resolve_rounds_per_op", "count"),
    ("drcr.wiring_checks_per_op", "count"),
    ("drcr.wiring_memo_hit_ratio", "ratio"),
    ("drcr.view_rebuilds_per_op", "count"),
    ("drcr.admission_evals_per_op", "count"),
    ("drcr.admission_memo_hit_ratio", "ratio"),
    ("federation.messages_per_tick", "count"),
];

const OUT_DIR: &str = "target/drtbench";

const USAGE: &str = "usage: drtbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--repeat N]\n       drtbench --compare A.json B.json";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    child: bool,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        repeat: 1,
        child: false,
        compare: None,
    };
    let mut it = argv.iter().peekable();
    let value = |flag: &str, it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>| {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" | "--child" => {
                let w = value(arg, &mut it)?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}` (one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                a.child |= arg == "--child";
                a.workload = Some(w);
            }
            "--seed" => {
                let v = value(arg, &mut it)?;
                a.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value(arg, &mut it)?;
                a.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && (0.0..=3600.0).contains(s))
                    .ok_or(format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--repeat" => {
                let v = value(arg, &mut it)?;
                a.repeat = v
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or(format!("bad --repeat `{v}`"))?;
            }
            "--compare" => {
                let x = value(arg, &mut it)?;
                let y = value(arg, &mut it)?;
                a.compare = Some((x, y));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("drtbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let code = if let Some((a, b)) = &args.compare {
        compare(Path::new(a), Path::new(b), Path::new("BENCHMARK.json"))
    } else if args.child {
        child(&args)
    } else {
        parent(&args)
    };
    ExitCode::from(code)
}

// ---------------------------------------------------------------------------
// Child: one workload run.
// ---------------------------------------------------------------------------

fn child(args: &Args) -> u8 {
    let name = args.workload.as_deref().expect("--child names a workload");
    let (rep, tracer) = match name {
        steady::Steady::NAME => {
            harness::run::<steady::Steady>(args.seed, args.seconds, args.trace, false)
        }
        churn::Churn::NAME => {
            harness::run::<churn::Churn>(args.seed, args.seconds, args.trace, false)
        }
        waves::Waves::NAME => {
            harness::run::<waves::Waves>(args.seed, args.seconds, args.trace, false)
        }
        _ => harness::run::<federation::Fed>(args.seed, args.seconds, args.trace, false),
    };
    print_report(name, &rep);
    if args.trace {
        let path = PathBuf::from(OUT_DIR).join(format!("{name}-seed{}.trace.json", args.seed));
        let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| tracer.write_chrome(&path));
        match written {
            Ok(()) => println!("{name} trace_file {}", path.display()),
            Err(e) => eprintln!("drtbench: cannot write {}: {e}", path.display()),
        }
    }
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|m| json::metric(&m.name, m.value, m.unit))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"digest\":{},\"metrics\":{{{}}}}}",
        rep.correct(),
        rep.attempted,
        rep.failed,
        rep.digest
            .map_or("null".to_string(), |d| quote(&format!("{d:016x}"))),
        metrics.join(",")
    );
    0
}

fn print_report(name: &str, rep: &Report) {
    for m in &rep.metrics {
        let line = format!("{name} {} {} {} {}", m.name, m.value, m.unit, m.note);
        println!("{}", line.trim_end());
    }
    println!(
        "{name} error_rate {} ratio {}/{}",
        harness::ratio(rep.failed as f64, rep.attempted as f64),
        rep.failed,
        rep.attempted
    );
    if let Some(d) = rep.digest {
        println!("{name} sim_digest {d:016x}");
    }
    for (check, ok, detail) in &rep.checks {
        println!(
            "{name} check {check} {} {detail}",
            if *ok { "PASS" } else { "FAIL" }
        );
    }
    for e in &rep.errors {
        println!("{name} failed_op {e}");
    }
}

// ---------------------------------------------------------------------------
// Parent: child processes, aggregation, results file.
// ---------------------------------------------------------------------------

/// One child's final JSON line.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    digest: Option<String>,
    metrics: BTreeMap<String, (f64, String)>,
}

fn spawn_child(name: &str, args: &Args) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--child", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in lines {
        println!("{l}");
    }
    if !out.status.success() {
        return Err(format!("{name} child exited with {}", out.status));
    }
    let v = Json::parse(last).map_err(|e| format!("{name} child result: {e}"))?;
    let count = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let metrics = v
        .get("metrics")
        .and_then(Json::as_obj)
        .map(|m| {
            m.iter()
                .filter_map(|(k, e)| {
                    let value = e.get("value")?.as_f64()?;
                    let unit = e.get("unit")?.as_str()?.to_string();
                    Some((k.clone(), (value, unit)))
                })
                .collect()
        })
        .unwrap_or_default();
    Ok(ChildRun {
        correct: v.get("correct").and_then(Json::as_bool).unwrap_or(false),
        attempted: count("attempted"),
        failed: count("failed"),
        digest: v.get("digest").and_then(Json::as_str).map(str::to_string),
        metrics,
    })
}

/// One workload over its repeated child runs.
struct Outcome {
    name: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    digest: Option<String>,
    metrics: BTreeMap<String, (String, Vec<f64>)>,
}

fn run_workload(name: &str, args: &Args) -> Outcome {
    let mut o = Outcome {
        name: name.to_string(),
        correct: true,
        attempted: 0,
        failed: 0,
        digest: None,
        metrics: BTreeMap::new(),
    };
    for _ in 0..args.repeat {
        let run = match spawn_child(name, args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("drtbench: {e}");
                o.correct = false;
                continue;
            }
        };
        o.correct &= run.correct;
        o.attempted += run.attempted;
        o.failed += run.failed;
        match (&o.digest, &run.digest) {
            (None, d) => o.digest = d.clone(),
            (Some(a), Some(b)) if a != b => {
                println!("{name} check digest_repeats FAIL {a} then {b}");
                o.correct = false;
            }
            _ => {}
        }
        for (k, (v, unit)) in run.metrics {
            o.metrics
                .entry(k)
                .or_insert_with(|| (unit, Vec::new()))
                .1
                .push(v);
        }
    }
    if args.repeat > 1 {
        for (k, (unit, values)) in &o.metrics {
            let (q1, med, q3) = stats::quartiles(values);
            println!(
                "{name} {k} {med} {unit} median q1={q1} q3={q3} n={}",
                values.len()
            );
        }
    }
    o
}

fn parent(args: &Args) -> u8 {
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let outcomes: Vec<Outcome> = names.iter().map(|n| run_workload(n, args)).collect();
    let correct = outcomes.iter().all(|o| o.correct);
    if let Err(e) = write_results(args, &outcomes) {
        eprintln!("drtbench: cannot write results: {e}");
    }
    if args.workload.is_some() {
        let o = &outcomes[0];
        let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        let mut ok = o.correct;
        let metrics: Vec<String> = listed
            .iter()
            .map(|(metric, unit)| {
                let value = match o.metrics.get(*metric) {
                    Some((_, values)) => stats::median(values),
                    // A layer the workload never enters.
                    None if args.trace => 0.0,
                    None => {
                        ok = false;
                        f64::NAN
                    }
                };
                json::metric(metric, value, unit)
            })
            .collect();
        println!(
            "{{\"correct\":{ok},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            o.attempted.max(1),
            o.failed,
            metrics.join(",")
        );
        return if ok { 0 } else { 1 };
    }
    println!(
        "drtbench: {} workload(s), {}",
        outcomes.len(),
        if correct {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    if correct {
        0
    } else {
        1
    }
}

/// The commit being measured, read from `.git` in the working directory
/// (no `git` process, nothing read outside the checkout).
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.to_string()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

fn write_results(args: &Args, outcomes: &[Outcome]) -> std::io::Result<()> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = format!(
        "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"repeat\": {},\n  \"nproc\": {nproc},\n  \"git\": {},\n  \"workloads\": {{",
        args.seed,
        num(args.seconds),
        args.trace,
        args.repeat,
        quote(&git_revision())
    );
    for (i, o) in outcomes.iter().enumerate() {
        out.push_str(&format!(
            "{}\n    {}: {{\n      \"correct\": {},\n      \"attempted\": {},\n      \"failed\": {},\n      \"digest\": {},\n      \"metrics\": {{",
            if i == 0 { "" } else { "," },
            quote(&o.name),
            o.correct,
            o.attempted,
            o.failed,
            o.digest.as_deref().map_or("null".to_string(), quote),
        ));
        for (j, (k, (unit, values))) in o.metrics.iter().enumerate() {
            let (q1, med, q3) = stats::quartiles(values);
            let vals: Vec<String> = values.iter().map(|v| num(*v)).collect();
            out.push_str(&format!(
                "{}\n        {}: {{\"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"values\": [{}]}}",
                if j == 0 { "" } else { "," },
                quote(k),
                quote(unit),
                num(med),
                num(q1),
                num(q3),
                vals.join(", ")
            ));
        }
        out.push_str("\n      }\n    }");
    }
    out.push_str("\n  }\n}\n");
    std::fs::create_dir_all(OUT_DIR)?;
    let suffix = if args.trace { "-trace" } else { "" };
    let path = PathBuf::from(OUT_DIR).join(format!("results-seed{}{suffix}.json", args.seed));
    std::fs::write(&path, out)?;
    println!("drtbench: results in {}", path.display());
    Ok(())
}

// ---------------------------------------------------------------------------
// --compare
// ---------------------------------------------------------------------------

/// A metric's median and quartiles over repeated runs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
}

impl Summary {
    /// Quartile distance as a share of the median.
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Whether `b` is worse than `a` by more than `bound` (a share of `a`'s
/// median), with the signed change in the worse direction. Either side
/// spreading wider than the bound leaves the comparison unresolved.
fn verdict(a: &Summary, b: &Summary, bound: f64, lower_is_better: bool) -> (Verdict, f64) {
    let change = if a.median == 0.0 {
        if b.median == 0.0 {
            0.0
        } else {
            f64::INFINITY * b.median.signum()
        }
    } else {
        (b.median - a.median) / a.median.abs()
    };
    let worse_by = if lower_is_better { change } else { -change };
    let v = if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (v, worse_by)
}

/// `(name, lower_is_better, bound)` of every end-to-end metric.
fn load_bounds(path: &Path) -> Result<Vec<(String, bool, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    v.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            Ok((name.to_string(), lower, bound))
        })
        .collect()
}

fn load_results(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn summary(workload: &Json, metric: &str) -> Option<Summary> {
    let m = workload.get("metrics")?.get(metric)?;
    Some(Summary {
        median: m.get("median")?.as_f64()?,
        q1: m.get("q1")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
    })
}

fn compare(a: &Path, b: &Path, bounds: &Path) -> u8 {
    let loaded = load_bounds(bounds).and_then(|bs| Ok((bs, load_results(a)?, load_results(b)?)));
    let (bounds, ra, rb) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("drtbench: {e}");
            return 2;
        }
    };
    let workloads = |r: &Json| {
        r.get("workloads")
            .and_then(Json::as_obj)
            .cloned()
            .unwrap_or_default()
    };
    let (wa, wb) = (workloads(&ra), workloads(&rb));
    println!("workload metric A B worse_by bound verdict");
    let mut worse = 0;
    for (name, a_w) in &wa {
        let Some(b_w) = wb.get(name) else { continue };
        for (metric, lower, bound) in &bounds {
            let (Some(sa), Some(sb)) = (summary(a_w, metric), summary(b_w, metric)) else {
                continue;
            };
            let (v, worse_by) = verdict(&sa, &sb, *bound, *lower);
            if v == Verdict::Worse {
                worse += 1;
            }
            println!(
                "{name} {metric} {} {} {:+.2}% {:.0}% {}",
                sa.median,
                sb.median,
                worse_by * 100.0,
                bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let digest = |w: &Json| w.get("digest").and_then(Json::as_str).map(str::to_string);
        if digest(a_w) != digest(b_w) {
            println!(
                "{name} sim_digest differs: {:?} vs {:?}",
                digest(a_w),
                digest(b_w)
            );
        }
    }
    if worse > 0 {
        println!("drtbench: {worse} metric(s) worse than their bound");
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, q1: f64, q3: f64) -> Summary {
        Summary { median, q1, q3 }
    }

    #[test]
    fn compare_flags_only_changes_beyond_the_bound() {
        let a = s(100.0, 99.0, 101.0);
        // Throughput (higher is better) down 15% against a 10% bound.
        assert_eq!(
            verdict(&a, &s(85.0, 84.0, 86.0), 0.10, false).0,
            Verdict::Worse
        );
        // Down 5%: within the bound.
        assert_eq!(
            verdict(&a, &s(95.0, 94.0, 96.0), 0.10, false).0,
            Verdict::Ok
        );
        // Latency (lower is better) up 15%.
        assert_eq!(
            verdict(&a, &s(115.0, 114.0, 116.0), 0.10, true).0,
            Verdict::Worse
        );
        // Latency down 15% is a gain, not a regression.
        let (v, worse_by) = verdict(&a, &s(85.0, 84.0, 86.0), 0.10, true);
        assert_eq!(v, Verdict::Ok);
        assert!((worse_by + 0.15).abs() < 1e-12);
    }

    #[test]
    fn compare_is_unresolved_when_either_side_spreads_past_the_bound() {
        let tight = s(100.0, 99.0, 101.0);
        let loose = s(100.0, 90.0, 112.0);
        assert_eq!(verdict(&tight, &loose, 0.10, true).0, Verdict::Unresolved);
        assert_eq!(
            verdict(&loose, &s(200.0, 199.0, 201.0), 0.10, true).0,
            Verdict::Unresolved
        );
        // A zero median (an exact count) has no spread.
        assert_eq!(
            verdict(&s(0.0, 0.0, 0.0), &s(0.0, 0.0, 0.0), 0.0, true).0,
            Verdict::Ok
        );
    }

    #[test]
    fn args_accept_the_driver_and_the_human_forms() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload steady_fleet --seed 7 --seconds 2.5 --trace 0",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("steady_fleet"), 7, 2.5, false)
        );
        let a = parse_args(&argv("--trace --seed 3")).unwrap();
        assert!(a.trace && a.seed == 3 && a.workload.is_none());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--repeat 0")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }

    /// The metric lists above must match `BENCHMARK.json`, which the
    /// driver reads.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let v = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = v
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    /// Every workload at about 1% size, checks on: the workloads build,
    /// run, and pass their own correctness checks.
    #[test]
    fn smoke() {
        fn go<W: Workload>() {
            let (rep, _) = harness::run::<W>(1, 0.0, true, true);
            let failed: Vec<_> = rep.checks.iter().filter(|(_, ok, _)| !ok).collect();
            assert!(
                rep.correct(),
                "{}: failed checks {failed:?}, errors {:?}",
                W::NAME,
                rep.errors
            );
            assert!(rep.attempted > 0 && rep.digest.is_some(), "{}", W::NAME);
            let names: Vec<&str> = rep.metrics.iter().map(|m| m.name.as_str()).collect();
            for (metric, _) in END_TO_END {
                assert!(names.contains(&metric), "{} lacks {metric}", W::NAME);
            }
            // Same seed, same outcome.
            let (again, _) = harness::run::<W>(1, 0.0, false, true);
            assert_eq!(rep.digest, again.digest, "{} replay", W::NAME);
        }
        go::<steady::Steady>();
        go::<churn::Churn>();
        go::<waves::Waves>();
        go::<federation::Fed>();
    }
}
