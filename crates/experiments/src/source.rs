//! Simulator-backed streaming sample generation.
//!
//! [`SimulatorSource`] is the generative counterpart of
//! [`crate::ExperimentData::attack_samples`]: instead of materializing
//! `num_plaintexts` launches and then packaging them, it produces
//! [`AttackSample`] chunks on demand through the **exact same launch
//! path** ([`ExperimentConfig`]'s per-launch seeding, policy assignment
//! replay, and timing extraction), so the concatenation of its chunks is
//! bit-identical to a materialized run of the same configuration — at
//! any chunk size. That is what lets million-sample attack and audit
//! budgets run with peak heap independent of the sample count.

use crate::count::CountedLoads;
use crate::error::ExperimentError;
use crate::run::{ExperimentConfig, TimingSource};
use crate::workload::fill_lines;
use rcoal_aes::Block;
use rcoal_attack::{AttackError, AttackSample, SampleSource};
use rcoal_gpu_sim::{GpuSimulator, LaunchPolicy};
use rcoal_rng::{SeedableRng, StdRng};
use rcoal_workload::KernelWorkload;
use std::sync::Arc;

/// A [`SampleSource`] that generates launches on the simulated GPU chunk
/// by chunk.
///
/// The source is *unbounded*: the configuration's `num_plaintexts` is
/// ignored, and the consumer's budget (e.g.
/// [`rcoal_attack::StreamOptions::max_samples`]) decides how much of the
/// infinite deterministic stream to realize. Sample `i` of this stream
/// equals sample `i` of a materialized
/// [`ExperimentConfig::run`]/[`crate::ExperimentData::attack_samples`]
/// pipeline with `num_plaintexts > i`: the plaintext generator is one
/// carried sequential stream, and each launch's policy randomness comes
/// from its own index-derived seed.
pub struct SimulatorSource {
    cfg: ExperimentConfig,
    workload: &'static dyn KernelWorkload,
    sim: GpuSimulator,
    launch: LaunchPolicy,
    source: TimingSource,
    rng: StdRng,
    /// The current chunk's plaintexts, flat; reused across chunks.
    plaintexts: Vec<Block>,
    produced: usize,
}

impl std::fmt::Debug for SimulatorSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulatorSource")
            .field("workload", &self.cfg.workload)
            .field("source", &self.source)
            .field("produced", &self.produced)
            .finish_non_exhaustive()
    }
}

impl SimulatorSource {
    /// Builds a streaming source for `cfg`'s scenario, extracting the
    /// attacker's time from `source`.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::Config`] for an invalid configuration, a
    /// telemetry spec (streamed launches are not collected, so
    /// instrumenting them would silently drop data), or an out-of-range
    /// [`TimingSource::ByteAccesses`] index;
    /// [`ExperimentError::TimingUnavailable`] when a cycle-based source
    /// is requested from a functional-only configuration.
    pub fn new(cfg: ExperimentConfig, source: TimingSource) -> Result<Self, ExperimentError> {
        // `num_plaintexts` is meaningless for an unbounded stream; run
        // validation with a nominal 1 so callers can leave it at 0.
        let mut probe = cfg.clone();
        probe.num_plaintexts = probe.num_plaintexts.max(1);
        probe.validate()?;
        if cfg.telemetry.is_some() {
            return Err(ExperimentError::Config(
                "streamed sources do not collect telemetry; drop the telemetry spec".into(),
            ));
        }
        source.check(cfg.timing)?;
        let workload = rcoal_workload::find(&cfg.workload).ok_or_else(|| {
            ExperimentError::Config(format!("unknown workload '{}'", cfg.workload))
        })?;
        let sim = GpuSimulator::new(cfg.gpu.clone());
        let launch = cfg.launch.unwrap_or(LaunchPolicy::Uniform(cfg.policy));
        let rng = StdRng::seed_from_u64(cfg.seed);
        Ok(SimulatorSource {
            cfg,
            workload,
            sim,
            launch,
            source,
            rng,
            plaintexts: Vec::new(),
            produced: 0,
        })
    }

    /// Samples generated so far.
    pub fn produced(&self) -> usize {
        self.produced
    }

    /// The registry entry of the workload this source simulates.
    pub fn workload_def(&self) -> &'static dyn KernelWorkload {
        self.workload
    }

    /// The true attacked subkey of the simulated victim (ground truth
    /// for scoring streamed recoveries).
    pub fn attacked_subkey(&self) -> [u8; 16] {
        self.workload.attacked_subkey(&self.cfg.key)
    }

    /// Generates the next `max` samples of the stream into `out`.
    ///
    /// Launches within the chunk fan out across the configured worker
    /// threads, each reloading one kernel per launch; each launch draws
    /// its policy randomness from its own index-derived seed, so the
    /// stream is bit-identical at any thread count and chunk size. A
    /// functional stream counts only the per-byte loads, which are all
    /// any [`TimingSource`] reads.
    ///
    /// # Errors
    ///
    /// Propagates simulator and policy failures.
    pub fn next_batch(
        &mut self,
        max: usize,
        out: &mut Vec<AttackSample>,
    ) -> Result<usize, ExperimentError> {
        if max == 0 {
            return Ok(0);
        }
        fill_lines(&mut self.rng, max, self.cfg.lines, &mut self.plaintexts);
        let launches = self.cfg.run_launches(
            self.workload,
            self.produced,
            &self.plaintexts,
            &self.sim,
            self.launch,
            CountedLoads::ByByte,
        )?;
        for data in launches {
            let (by_byte, cycles) = (&data.counts.by_byte, data.last_round_cycles);
            out.push(AttackSample {
                ciphertexts: Arc::clone(&data.ciphertexts),
                time: self.source.time(by_byte, cycles, data.total_cycles),
            });
        }
        self.produced += max;
        Ok(max)
    }
}

impl SampleSource for SimulatorSource {
    fn next_chunk(
        &mut self,
        max: usize,
        out: &mut Vec<AttackSample>,
    ) -> Result<usize, AttackError> {
        self.next_batch(max, out)
            .map_err(|e| AttackError::Source(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetrySpec;
    use rcoal_core::CoalescingPolicy;

    fn chunked(
        cfg: &ExperimentConfig,
        source: TimingSource,
        chunks: &[usize],
    ) -> Vec<AttackSample> {
        let mut src = SimulatorSource::new(cfg.clone(), source).unwrap();
        let mut out = Vec::new();
        for &c in chunks {
            let got = src.next_batch(c, &mut out).unwrap();
            assert_eq!(got, c);
        }
        out
    }

    #[test]
    fn chunked_stream_is_bit_identical_to_materialized_run() {
        // A randomized policy (per-launch seeds) + functional counts.
        let cfg = ExperimentConfig::new(CoalescingPolicy::rss_rts(8).unwrap(), 23, 32)
            .with_seed(42)
            .functional_only();
        let materialized = cfg
            .run()
            .unwrap()
            .attack_samples(TimingSource::ByteAccesses(2))
            .unwrap();
        for chunks in [vec![23], vec![5, 5, 5, 5, 3], vec![1; 23]] {
            let streamed = chunked(&cfg, TimingSource::ByteAccesses(2), &chunks);
            assert_eq!(streamed, materialized, "chunks {chunks:?}");
        }
    }

    #[test]
    fn timing_stream_matches_materialized_cycles() {
        let cfg = ExperimentConfig::new(CoalescingPolicy::Baseline, 6, 32).with_seed(9);
        let materialized = cfg
            .run()
            .unwrap()
            .attack_samples(TimingSource::LastRoundCycles)
            .unwrap();
        let streamed = chunked(&cfg, TimingSource::LastRoundCycles, &[4, 2]);
        assert_eq!(streamed, materialized);
        let totals = chunked(&cfg, TimingSource::TotalCycles, &[6]);
        assert!(totals.iter().zip(&streamed).all(|(t, l)| t.time >= l.time));
    }

    #[test]
    fn stream_is_thread_count_invariant() {
        let base = ExperimentConfig::new(CoalescingPolicy::rss(4).unwrap(), 0, 32)
            .with_seed(3)
            .functional_only();
        let one = chunked(
            &base.clone().with_threads(1),
            TimingSource::LastRoundAccesses,
            &[9],
        );
        let four = chunked(&base.with_threads(4), TimingSource::LastRoundAccesses, &[9]);
        assert_eq!(one, four);
    }

    #[test]
    fn source_trait_streams_and_counts() {
        let cfg = ExperimentConfig::new(CoalescingPolicy::Baseline, 0, 32)
            .with_seed(11)
            .functional_only();
        let mut src = SimulatorSource::new(cfg, TimingSource::LastRoundAccesses).unwrap();
        assert_eq!(
            src.remaining_hint(),
            None,
            "generative sources are unbounded"
        );
        let mut buf = Vec::new();
        assert_eq!(SampleSource::next_chunk(&mut src, 5, &mut buf).unwrap(), 5);
        assert_eq!(SampleSource::next_chunk(&mut src, 0, &mut buf).unwrap(), 0);
        assert_eq!(src.produced(), 5);
        assert_eq!(buf.len(), 5);
        assert_eq!(
            src.attacked_subkey(),
            rcoal_aes::Aes128::new(&crate::workload::DEMO_KEY).last_round_key()
        );
    }

    #[test]
    fn invalid_streaming_configs_are_typed_errors() {
        let cfg = ExperimentConfig::new(CoalescingPolicy::Baseline, 0, 32).functional_only();
        assert_eq!(
            SimulatorSource::new(cfg.clone(), TimingSource::LastRoundCycles).unwrap_err(),
            ExperimentError::TimingUnavailable {
                what: "TimingSource::LastRoundCycles"
            }
        );
        assert!(matches!(
            SimulatorSource::new(cfg.clone(), TimingSource::ByteAccesses(16)).unwrap_err(),
            ExperimentError::Config(_)
        ));
        let telemetry = ExperimentConfig::new(CoalescingPolicy::Baseline, 2, 32)
            .with_telemetry(TelemetrySpec::profile_only());
        assert!(matches!(
            SimulatorSource::new(telemetry, TimingSource::LastRoundCycles).unwrap_err(),
            ExperimentError::Config(_)
        ));
        let unknown =
            ExperimentConfig::new(CoalescingPolicy::Baseline, 2, 32).with_workload("des-cbc");
        assert!(matches!(
            SimulatorSource::new(unknown, TimingSource::LastRoundAccesses).unwrap_err(),
            ExperimentError::Config(_)
        ));
    }
}
