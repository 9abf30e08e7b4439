//! Table-1-style latency measurement from the command line: pick the
//! implementation path, the load regime, the cycle count and the seed, and
//! get the paper's four statistics plus a latency histogram.
//!
//! Usage:
//!   cargo run --release --example stress_latency -- [hrc|pure] [light|stress] [cycles] [seed]
//!
//! Defaults: hrc stress 20000 42.

use bench::{run_table1_config, table1_avedev, ImplKind, Table1Config};
use rtos::hist::Histogram;
use rtos::latency::LoadMode;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let impl_kind = match args.first().map(String::as_str) {
        Some("pure") => ImplKind::PureRtai,
        Some("hrc") | None => ImplKind::Hrc,
        Some(other) => {
            eprintln!("unknown implementation `{other}` (use hrc|pure)");
            std::process::exit(2);
        }
    };
    let load = match args.get(1).map(String::as_str) {
        Some("light") => LoadMode::Light,
        Some("stress") | None => LoadMode::Stress,
        Some(other) => {
            eprintln!("unknown load mode `{other}` (use light|stress)");
            std::process::exit(2);
        }
    };
    let cycles: u64 = args
        .get(2)
        .map(|s| s.parse().expect("cycles must be an integer"))
        .unwrap_or(20_000);
    let seed: u64 = args
        .get(3)
        .map(|s| s.parse().expect("seed must be an integer"))
        .unwrap_or(42);

    println!("configuration: {impl_kind}, {load} load, {cycles} cycles at 1 kHz, seed {seed}");
    let cfg = Table1Config {
        cycles,
        ..Table1Config::paper(impl_kind, load, seed)
    };
    let stats = run_table1_config(&cfg);

    println!("\nscheduling latency of the 1 kHz calculation task (ns):");
    println!("  samples : {}", stats.count());
    println!("  average : {:>12.2}", stats.average());
    println!("  avedev  : {:>12.2}", table1_avedev(&stats));
    println!("  min     : {:>12}", stats.min().unwrap_or(0));
    println!("  max     : {:>12}", stats.max().unwrap_or(0));
    println!("  p1      : {:>12}", stats.percentile(1.0).unwrap_or(0));
    println!("  p50     : {:>12}", stats.percentile(50.0).unwrap_or(0));
    println!("  p99     : {:>12}", stats.percentile(99.0).unwrap_or(0));

    // ASCII histogram: the samples, shifted by the minimum, folded into the
    // log-linear histogram; one line per non-empty bucket, by upper edge.
    let lo = stats.min().unwrap_or(0);
    let mut hist = Histogram::new();
    for &s in stats.samples().expect("Table 1 cells retain samples") {
        hist.record((s - lo) as u64);
    }
    let peak = hist.buckets().map(|(_, c)| c).max().unwrap_or(1);
    println!(
        "\nhistogram (ns above the minimum {lo}, {} non-empty buckets):",
        hist.buckets().count()
    );
    for (le, c) in hist.buckets() {
        let bar = "#".repeat((c * 50).div_ceil(peak) as usize);
        println!("  <= {le:>9} | {bar:<50} {c}");
    }
}
