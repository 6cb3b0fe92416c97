//! Integration tests for the beyond-the-paper extensions: measurement
//! noise, streaming recovery, scheduler ablation and the standalone-RSS
//! Monte-Carlo correlation.

use rcoal::prelude::*;
use rcoal_attack::{attenuated_correlation, recovery_curve, GaussianNoise};
use rcoal_experiments::figures::{ablation_l1_with, ablation_mshr_with, rho_monte_carlo};
use rcoal_gpu_sim::SchedulerPolicy;

#[test]
fn noise_attenuates_the_attack_as_predicted() {
    let data = ExperimentConfig::new(CoalescingPolicy::Baseline, 500, 32)
        .with_seed(401)
        .functional_only()
        .run()
        .expect("experiment");
    let k10 = data.true_last_round_key();
    let clean = data.attack_samples(TimingSource::ByteAccesses(0)).unwrap();
    let times: Vec<f64> = clean.iter().map(|s| s.time).collect();
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    let var = times.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / times.len() as f64;

    let attack = Attack::baseline(32);
    let clean_corr = attack
        .recover_byte(&clean, 0)
        .unwrap()
        .correlation_of(k10[0]);
    assert!(clean_corr > 0.99, "clean channel is exact: {clean_corr}");

    // 3x-signal noise: prediction says corr drops to ~1/sqrt(10).
    let sigma = 3.0 * var.sqrt();
    let noisy = GaussianNoise::new(sigma, 77).unwrap().applied(&clean);
    let noisy_corr = attack
        .recover_byte(&noisy, 0)
        .unwrap()
        .correlation_of(k10[0]);
    let predicted = attenuated_correlation(clean_corr, var, sigma).unwrap();
    assert!(
        (noisy_corr - predicted).abs() < 0.1,
        "measured {noisy_corr} vs predicted {predicted}"
    );
    assert!(noisy_corr < clean_corr * 0.5);
}

#[test]
fn heavy_noise_defeats_recovery_at_small_n() {
    let data = ExperimentConfig::new(CoalescingPolicy::Baseline, 150, 32)
        .with_seed(402)
        .functional_only()
        .run()
        .expect("experiment");
    let k10 = data.true_last_round_key();
    let clean = data.attack_samples(TimingSource::ByteAccesses(0)).unwrap();
    let times: Vec<f64> = clean.iter().map(|s| s.time).collect();
    let sd = {
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        (times.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / times.len() as f64).sqrt()
    };
    let attack = Attack::baseline(32);
    assert_eq!(
        attack.recover_byte(&clean, 0).unwrap().rank_of(k10[0]),
        0,
        "clean channel recovers at 150 samples"
    );
    // 30x-signal noise needs ~30^2 * 11 samples; 150 is hopeless.
    let noisy = GaussianNoise::new(30.0 * sd, 78).unwrap().applied(&clean);
    let rank = attack.recover_byte(&noisy, 0).unwrap().rank_of(k10[0]);
    assert!(rank > 3, "30x noise should bury the signal, rank {rank}");
}

#[test]
fn recovery_curve_matches_batch_at_each_checkpoint() {
    let data = ExperimentConfig::new(CoalescingPolicy::fss(4).expect("valid"), 120, 32)
        .with_seed(403)
        .functional_only()
        .run()
        .expect("experiment");
    let samples = data.attack_samples(TimingSource::ByteAccesses(0)).unwrap();
    let attack = Attack::against(data.policy, 32);
    let curve = recovery_curve(&attack, &samples, 0, &[40, 120]).unwrap();
    for (n, streamed) in curve {
        let batch = attack.recover_byte(&samples[..n], 0).unwrap();
        assert_eq!(streamed.best_guess, batch.best_guess, "n = {n}");
        for m in 0..256 {
            assert!(
                (streamed.correlations[m] - batch.correlations[m]).abs() < 1e-9,
                "n = {n}, guess {m}"
            );
        }
    }
}

#[test]
fn scheduler_choice_never_changes_access_counts() {
    for policy in [
        CoalescingPolicy::Baseline,
        CoalescingPolicy::rss_rts(4).expect("valid"),
        CoalescingPolicy::rss_rts(8).expect("valid"),
    ] {
        let run = |sched: SchedulerPolicy| {
            let gpu = GpuConfig {
                scheduler: sched,
                ..GpuConfig::paper()
            };
            ExperimentConfig::new(policy, 3, 128)
                .with_seed(404)
                .with_gpu(gpu)
                .run()
                .expect("experiment")
        };
        let gto = run(SchedulerPolicy::Gto);
        let lrr = run(SchedulerPolicy::Lrr);
        assert_eq!(gto.total_accesses, lrr.total_accesses, "{policy}");
        assert_eq!(gto.last_round_accesses, lrr.last_round_accesses);
        assert_eq!(gto.ciphertexts, lrr.ciphertexts);
        // Timing may differ, but both must complete and stay positive.
        assert!(gto.mean_total_cycles().unwrap() > 0.0);
        assert!(lrr.mean_total_cycles().unwrap() > 0.0);
    }
}

#[test]
fn standalone_rss_rho_sits_between_the_analytic_columns() {
    // Table II gives FSS+RTS and RSS+RTS; standalone RSS randomizes only
    // sizes (threads stay in order), so its replay correlation should be
    // higher than RSS+RTS's at the same M (less randomness to mismatch)
    // and far below FSS's 1.0.
    let model = SecurityModel::default();
    for m in [4usize, 8] {
        let rss = rho_monte_carlo(CoalescingPolicy::rss(m).expect("valid"), 30_000, 405).unwrap();
        let rss_rts = model.rho(Mechanism::RssRts, m);
        assert!(
            rss > rss_rts - 0.02,
            "M={m}: standalone RSS ({rss:.3}) should not be below RSS+RTS ({rss_rts:.3})"
        );
        assert!(
            rss < 0.9,
            "M={m}: RSS must be far from deterministic: {rss:.3}"
        );
    }
}

#[test]
fn monte_carlo_rho_agrees_with_analytics_for_rts_mechanisms() {
    let model = SecurityModel::default();
    let mc = rho_monte_carlo(CoalescingPolicy::fss_rts(4).expect("valid"), 40_000, 406).unwrap();
    let analytic = model.rho(Mechanism::FssRts, 4);
    assert!(
        (mc - analytic).abs() < 0.03,
        "MC {mc:.3} vs analytic {analytic:.3}"
    );
}

#[test]
fn mshrs_reopen_the_channel_disabled_coalescing_closed() {
    // The headline of the MSHR ablation: with coalescing disabled, MSHR
    // merging makes the per-load memory traffic equal the number of
    // distinct blocks again, so the attacker's correlation returns.
    let rows = ablation_mshr_with(&SweepRunner::new(), 250, 407).expect("simulation");
    assert_eq!(rows.len(), 3);
    let disabled = &rows[1];
    let with_mshr = &rows[2];
    assert!(
        disabled.corr_correct.abs() < 0.15,
        "no-coalescing, no-MSHR must stay flat: {}",
        disabled.corr_correct
    );
    assert!(
        with_mshr.corr_correct > disabled.corr_correct + 0.1,
        "MSHRs must restore the correlation: {} vs {}",
        with_mshr.corr_correct,
        disabled.corr_correct
    );
    assert!(
        with_mshr.mean_total_cycles < disabled.mean_total_cycles,
        "MSHR merging also restores the performance"
    );
}

#[test]
fn l1_cache_inverts_rather_than_closes_the_channel() {
    let rows = ablation_l1_with(&SweepRunner::new(), 250, 408).expect("simulation");
    let (no_l1, with_l1) = (&rows[0], &rows[1]);
    assert!(
        no_l1.corr_correct > 0.1,
        "bypass config leaks: {}",
        no_l1.corr_correct
    );
    assert_eq!(no_l1.l1_hits_per_plaintext, 0.0);
    // With L1: argmax recovery fails ...
    assert!(with_l1.rank > 128, "rank {}", with_l1.rank);
    // ... but the correct guess is strongly anti-correlated — the leak
    // moved into the cache-miss overlap pattern.
    assert!(
        with_l1.corr_correct < -0.2,
        "expected an inverted channel, corr {}",
        with_l1.corr_correct
    );
    assert!(with_l1.l1_hits_per_plaintext > 1000.0);
    assert!(with_l1.mean_total_cycles < no_l1.mean_total_cycles);
}
