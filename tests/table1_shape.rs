//! Integration test asserting the *shape* of the paper's Table 1 across
//! all four cells — who wins, by roughly what factor, and where the
//! qualitative crossovers lie. Absolute nanoseconds are calibration;
//! these relations are the reproduction target.

use bench::{run_table1, run_table1_config, table1_avedev, ImplKind, Table1Config};
use rtos::latency::LoadMode;

fn table(cycles: u64, seed: u64) -> Vec<(String, f64, f64, i64, i64)> {
    run_table1(cycles, seed)
        .into_iter()
        .map(|r| {
            (
                r.label,
                r.stats.average(),
                table1_avedev(&r.stats),
                r.stats.min().unwrap(),
                r.stats.max().unwrap(),
            )
        })
        .collect()
}

#[test]
fn all_four_cells_have_the_papers_shape() {
    let rows = table(5_000, 42);
    let (hrc_l, pure_l, hrc_s, pure_s) = (&rows[0], &rows[1], &rows[2], &rows[3]);

    // Row identities.
    assert!(hrc_l.0.contains("HRC") && hrc_l.0.contains("light"));
    assert!(pure_s.0.contains("Pure") && pure_s.0.contains("stress"));

    // Light mode: small negative bias, wide spread, two-sided extrema.
    for row in [hrc_l, pure_l] {
        assert!(
            (-3_000.0..=0.0).contains(&row.1),
            "{}: avg {}",
            row.0,
            row.1
        );
        assert!(
            (3_000.0..=4_500.0).contains(&row.2),
            "{}: avedev {}",
            row.0,
            row.2
        );
        assert!(row.3 < -10_000, "{}: min {}", row.0, row.3);
        assert!(row.4 > 10_000, "{}: max {}", row.0, row.4);
    }

    // Stress mode: strongly early mean, collapsed deviation, all-negative.
    for row in [hrc_s, pure_s] {
        assert!(
            (-22_500.0..=-20_000.0).contains(&row.1),
            "{}: avg {}",
            row.0,
            row.1
        );
        assert!(row.2 < 600.0, "{}: avedev {}", row.0, row.2);
        assert!(row.4 < 0, "{}: max {}", row.0, row.4);
    }

    // The paper's headline: HRC ≈ pure RTAI in both modes.
    assert!((hrc_l.1 - pure_l.1).abs() < pure_l.2, "light delta too big");
    assert!(
        (hrc_s.1 - pure_s.1).abs() < 3.0 * pure_s.2,
        "stress delta too big"
    );

    // Stress tightens deviation by an order of magnitude (3760 -> ~350).
    assert!(pure_l.2 / pure_s.2 > 5.0, "deviation collapse factor");

    // Everything bounded within ~30 us.
    for row in &rows {
        assert!(
            row.3.abs() < 30_000 && row.4.abs() < 30_000,
            "{} unbounded",
            row.0
        );
    }
}

#[test]
fn results_are_reproducible_from_the_seed() {
    let a = table(1_000, 7);
    let b = table(1_000, 7);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.1.to_bits(), y.1.to_bits(), "{} average differs", x.0);
        assert_eq!(x.3, y.3);
        assert_eq!(x.4, y.4);
    }
    // And a different seed gives different draws.
    let c = table(1_000, 8);
    assert_ne!(a[0].1.to_bits(), c[0].1.to_bits());
}

#[test]
fn sample_counts_match_cycles() {
    for kind in [ImplKind::PureRtai, ImplKind::Hrc] {
        let cfg = Table1Config {
            cycles: 2_000,
            ..Table1Config::paper(kind, LoadMode::Light, 3)
        };
        let stats = run_table1_config(&cfg);
        // One latency sample per 1 kHz release over the run window.
        assert!(
            (1_995..=2_005).contains(&stats.count()),
            "{kind}: {}",
            stats.count()
        );
    }
}
