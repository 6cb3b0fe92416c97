//! Defense tuning: sweep the RCoal mechanisms and subwarp counts, attack
//! each configuration with its corresponding attack, and rank the
//! configurations by RCoal_Score for a security-oriented and a
//! performance-oriented system (paper §VI-C, Figure 17).
//!
//! Run with: `cargo run --release --example defense_tuning`

use rcoal::prelude::*;
use rcoal_experiments::figures::{fig15_16_comparison_with, fig17_rcoal_score};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 100;
    println!("simulating 4 mechanisms x M in {{2,4,8,16}} with {n} plaintexts each ...\n");
    let comparison = fig15_16_comparison_with(&SweepRunner::new(), n, 7)?;

    println!(
        "{:<8} {:>3} | {:>9} {:>10} | {:>12} {:>12}",
        "mech", "M", "avg corr", "norm time", "score(a=b=1)", "score(b=20)"
    );
    println!("{}", "-".repeat(64));
    let scores = fig17_rcoal_score(&comparison)?;
    for score in &scores {
        let sec = comparison
            .security
            .iter()
            .find(|s| s.mechanism == score.mechanism && s.m == score.m)
            .expect("aligned rows");
        let perf = comparison
            .performance
            .iter()
            .find(|p| p.mechanism == score.mechanism && p.m == score.m)
            .expect("aligned rows");
        println!(
            "{:<8} {:>3} | {:>9.3} {:>10.3} | {:>12.1} {:>12.3}",
            score.mechanism,
            score.m,
            sec.avg_correct_corr,
            perf.normalized_time,
            score.security_oriented,
            score.performance_oriented,
        );
    }

    let best_sec = scores
        .iter()
        .max_by(|a, b| a.security_oriented.total_cmp(&b.security_oriented))
        .expect("non-empty sweep");
    let best_perf = scores
        .iter()
        .max_by(|a, b| a.performance_oriented.total_cmp(&b.performance_oriented))
        .expect("non-empty sweep");
    println!(
        "\nsecurity-oriented pick   : {} with M={}",
        best_sec.mechanism, best_sec.m
    );
    println!(
        "performance-oriented pick: {} with M={}",
        best_perf.mechanism, best_perf.m
    );
    println!("\n(the paper lands on FSS+RTS at M in {{8,16}} for security-oriented systems and");
    println!("RSS+RTS for performance-oriented systems; exact picks vary with sample noise)");

    // Theoretical cross-check from the analytical model.
    let model = SecurityModel::default();
    println!(
        "\nanalytical rho at M=16: FSS+RTS={:.3}, RSS+RTS={:.3} (Table II: 0.03 / 0.05)",
        model.rho(Mechanism::FssRts, 16),
        model.rho(Mechanism::RssRts, 16)
    );
    Ok(())
}
