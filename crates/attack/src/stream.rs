//! The attack's one correlation engine.
//!
//! Every correlation the workspace computes flows through this module,
//! whether the samples arrive from a generator chunk by chunk or as an
//! already-collected slice ([`Attack::recover_byte`],
//! [`recovery_curve`], and the `rcoal-audit` reports are adapters that
//! push their slice through the same engine). Resident state is
//! *independent of the sample count*, which is what makes the 10⁵–10⁷
//! budgets Eq. 4 (S ≈ 11/ρ²) demands for the high-security RCoal
//! configurations affordable:
//!
//! * [`PearsonAccumulator`] — a bivariate Welford accumulator (centered
//!   incremental moments). It stays accurate where raw `Σx, Σx², Σxy`
//!   sums catastrophically cancel (large means, tiny variances);
//!   [`pearson`] is a fold over it. `rcoal-conformance` pins it to a
//!   two-pass oracle.
//! * [`SampleSource`] — a pull-based chunk producer. Replay sources
//!   wrap collected samples; `rcoal-experiments` provides a
//!   simulator-backed source that *generates* launches chunk by chunk.
//! * [`StreamingByteRecovery`] / [`StreamingKeyRecovery`] — the
//!   256-guess sweep over a chunk, held guess-major: the time side of
//!   the 256 accumulators once, their prediction side as 256-wide
//!   arrays, fanned out over fixed blocks of guesses. Deterministic
//!   attacker models predict a whole block per sample with one bitmask
//!   kernel; randomized ones keep a predictor per guess (seeded
//!   `attack.seed ^ guess`). Every guess consumes samples in stream
//!   order, so the accumulator state is **bit-identical at any thread
//!   count and any chunk size**, and bit-identical to one
//!   [`PearsonAccumulator`] per guess.
//! * [`EarlyStop`] — terminate once the leader's separation is
//!   statistically stable: the same guess leads for `stable_checkpoints`
//!   consecutive checkpoints with a margin above `margin_k / √n` (the
//!   scale of a Pearson estimate's sampling error). A secure stream's
//!   256 near-zero correlations keep the top-two gap well below that
//!   band and the leader unstable, so it never confidently terminates.

use crate::error::AttackError;
use crate::oracle::TableOracle;
use crate::predict::AccessPredictor;
use crate::recover::{Attack, AttackSample, ByteRecovery, KeyRecovery};
use rcoal_core::{CoalescingPolicy, MAX_LANES};
use rcoal_parallel::{parallel_map_mut, resolve_threads};
use rcoal_rng::{SeedableRng, StdRng};
use std::sync::Arc;

/// Incremental Pearson correlation over a stream of `(x, y)` pairs,
/// using bivariate Welford updates (centered moments) instead of raw
/// `Σx, Σx², Σxy` sums.
///
/// The raw-sum correlation `(Σxy − ΣxΣy/n) / …` subtracts two nearly
/// equal large numbers when the means dominate the variances, losing all
/// significant digits; the centered recurrence never forms those large
/// intermediates. Degenerate streams report `0.0`: fewer than two
/// samples, a zero-variance axis, or any non-finite contamination.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PearsonAccumulator {
    n: u64,
    mean_x: f64,
    mean_y: f64,
    m2_x: f64,
    m2_y: f64,
    cxy: f64,
}

impl PearsonAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        PearsonAccumulator::default()
    }

    /// Feeds one `(x, y)` observation.
    pub fn push(&mut self, x: f64, y: f64) {
        let step = y_step(&mut self.n, &mut self.mean_y, &mut self.m2_y, y);
        x_step(&mut self.mean_x, &mut self.m2_x, &mut self.cxy, x, step);
    }

    /// Observations consumed.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether no observations have been consumed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Mean of the `x` stream (0.0 while empty).
    pub fn mean_x(&self) -> f64 {
        self.mean_x
    }

    /// Mean of the `y` stream (0.0 while empty).
    pub fn mean_y(&self) -> f64 {
        self.mean_y
    }

    /// Current Pearson correlation, clamped to `[-1, 1]`; `0.0` for
    /// degenerate streams.
    pub fn correlation(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let (vx, vy) = (self.m2_x, self.m2_y);
        if !(vx > 0.0 && vy > 0.0 && vx.is_finite() && vy.is_finite()) {
            return 0.0;
        }
        let r = self.cxy / (vx.sqrt() * vy.sqrt());
        if r.is_finite() {
            r.clamp(-1.0, 1.0)
        } else {
            0.0
        }
    }

    /// The raw bit patterns of the full accumulator state
    /// `(n, mean_x, mean_y, m2_x, m2_y, cxy)` — the object of the
    /// bit-identity contract: two runs that processed the same per-guess
    /// sample sequence produce equal `state_bits` regardless of thread
    /// count or chunk size.
    pub fn state_bits(&self) -> [u64; 6] {
        [
            self.n,
            self.mean_x.to_bits(),
            self.mean_y.to_bits(),
            self.m2_x.to_bits(),
            self.m2_y.to_bits(),
            self.cxy.to_bits(),
        ]
    }
}

/// What one observation's `y` hands to every `x` side that shares its
/// stream: the updated count and `y`'s residual against the updated
/// mean.
#[derive(Debug, Clone, Copy)]
struct YStep {
    nf: f64,
    dy2: f64,
}

/// The `y` half of one bivariate Welford step. [`PearsonAccumulator`]
/// runs it per observation; [`StreamingByteRecovery`] runs it once per
/// sample for all 256 guesses, which see the same `y` stream.
fn y_step(n: &mut u64, mean_y: &mut f64, m2_y: &mut f64, y: f64) -> YStep {
    *n += 1;
    let nf = *n as f64;
    let dy = y - *mean_y;
    *mean_y += dy / nf;
    // `dy2` uses the *updated* mean — the standard bivariate Welford
    // co-moment recurrence.
    let dy2 = y - *mean_y;
    *m2_y += dy * dy2;
    YStep { nf, dy2 }
}

/// The `x` half of one bivariate Welford step: the recurrence's one
/// implementation of the prediction side, for [`PearsonAccumulator`]
/// and the guess-major engine alike.
#[inline]
fn x_step(mean_x: &mut f64, m2_x: &mut f64, cxy: &mut f64, x: f64, step: YStep) {
    let dx = x - *mean_x;
    *mean_x += dx / step.nf;
    *m2_x += dx * (x - *mean_x);
    *cxy += dx * step.dy2;
}

/// Pearson correlation coefficient of two equal-length samples: a fold
/// over [`PearsonAccumulator`].
///
/// Returns 0.0 for every degenerate input — mismatched lengths, fewer
/// than two elements, a constant (zero-variance) series, or non-finite
/// values anywhere in either series. The attacker learns nothing from a
/// flat or corrupt series, which is exactly the situation a perfect
/// defense (or an injected fault) produces, so degeneracy never needs to
/// abort a sweep. Finite results are clamped to `[-1, 1]` against
/// floating-point drift.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len(), "pearson requires equal-length samples");
    if x.len() != y.len() {
        return 0.0;
    }
    let mut acc = PearsonAccumulator::new();
    for (&a, &b) in x.iter().zip(y) {
        acc.push(a, b);
    }
    acc.correlation()
}

/// A pull-based producer of [`AttackSample`] chunks.
///
/// Implementations must be deterministic for a fixed construction (the
/// concatenation of all chunks is one well-defined stream, whatever
/// chunk sizes the consumer asks for) — that is what makes streaming
/// results reproducible and chunk-size invariant.
pub trait SampleSource {
    /// Appends up to `max` samples to `out` and returns how many were
    /// produced. Returning `0` means the stream is exhausted.
    ///
    /// # Errors
    ///
    /// Source-specific failures surface as [`AttackError::Source`].
    fn next_chunk(&mut self, max: usize, out: &mut Vec<AttackSample>)
        -> Result<usize, AttackError>;

    /// Samples remaining, when the source knows (replay sources do;
    /// generative sources may not).
    fn remaining_hint(&self) -> Option<usize> {
        None
    }
}

/// Replay-backed [`SampleSource`] over already-collected samples.
/// Chunks share the underlying ciphertext blocks via `Arc`, so replay
/// costs no block copies.
#[derive(Debug, Clone)]
pub struct SliceSource<'a> {
    samples: &'a [AttackSample],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    /// Streams `samples` from the beginning.
    pub fn new(samples: &'a [AttackSample]) -> Self {
        SliceSource { samples, pos: 0 }
    }
}

impl SampleSource for SliceSource<'_> {
    fn next_chunk(
        &mut self,
        max: usize,
        out: &mut Vec<AttackSample>,
    ) -> Result<usize, AttackError> {
        let take = max.min(self.samples.len() - self.pos);
        out.extend_from_slice(&self.samples[self.pos..self.pos + take]);
        self.pos += take;
        Ok(take)
    }

    fn remaining_hint(&self) -> Option<usize> {
        Some(self.samples.len() - self.pos)
    }
}

/// Guesses per fan-out item of [`StreamingByteRecovery::push_chunk`].
/// Eight `u64` masks fill four SSE2 registers: a lane's row is ORed in
/// without spilling, where 32-guess masks spill to the stack.
const BLOCK: usize = 8;

/// Fan-out items per chunk: the 256 guesses in fixed blocks.
const BLOCKS: usize = 256 / BLOCK;

/// The prediction (`x`) side of [`BLOCK`] consecutive guesses'
/// accumulators; their `y` side is the engine's, shared by all 256.
#[derive(Debug, Clone, Default)]
struct GuessBlock {
    mean_x: [f64; BLOCK],
    m2_x: [f64; BLOCK],
    cxy: [f64; BLOCK],
    /// One predictor per guess when the row kernel does not serve this
    /// engine (randomized policies, wide oracles); empty otherwise.
    predictors: Vec<AccessPredictor>,
}

impl GuessBlock {
    /// Folds one sample's predictions for the whole block in.
    fn push_x(&mut self, x: &[f64; BLOCK], step: YStep) {
        let sides = self
            .mean_x
            .iter_mut()
            .zip(&mut self.m2_x)
            .zip(&mut self.cxy);
        for (((mean_x, m2_x), cxy), &x) in sides.zip(x) {
            x_step(mean_x, m2_x, cxy, x, step);
        }
    }

    /// The per-guess path: guess `first + j`'s own predictor predicts
    /// every sample in stream order.
    fn push_predicted(&mut self, first: usize, column: &[u8], samples: &[SampleStep]) {
        for (j, predictor) in self.predictors.iter_mut().enumerate() {
            let guess = (first + j) as u8;
            let mut start = 0;
            for s in samples {
                let x = predictor.predict_bytes(&column[start..s.end], guess);
                start = s.end;
                x_step(
                    &mut self.mean_x[j],
                    &mut self.m2_x[j],
                    &mut self.cxy[j],
                    x,
                    s.step,
                );
            }
        }
    }
}

/// One sample of the chunk being pushed: where its byte column ends in
/// the engine's flat column buffer, and its shared `y` step.
#[derive(Debug, Clone, Copy)]
struct SampleStep {
    end: usize,
    step: YStep,
}

/// `rows[k][b][j] = 1 << block_of(b, BLOCK·k + j)`: for guess block `k`,
/// the block bit of every observed byte under each of its guesses.
#[derive(Clone)]
struct RowTable(Vec<[[u64; BLOCK]; 256]>);

impl std::fmt::Debug for RowTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RowTable(256 bytes x 256 guesses)")
    }
}

impl RowTable {
    /// The table for `oracle`, or `None` when some block index does not
    /// fit a `u64` mask (the 64-block window of
    /// [`rcoal_core::count_block_accesses`]).
    fn build(oracle: &dyn TableOracle) -> Option<Self> {
        let mut rows = vec![[[0u64; BLOCK]; 256]; BLOCKS];
        for (k, table) in rows.iter_mut().enumerate() {
            for (b, row) in table.iter_mut().enumerate() {
                for (j, bit) in row.iter_mut().enumerate() {
                    let block = oracle.block_of(b as u8, (k * BLOCK + j) as u8);
                    if block >= u64::from(u64::BITS) {
                        return None;
                    }
                    *bit = 1 << block;
                }
            }
        }
        Some(RowTable(rows))
    }
}

/// A deterministic policy's split of one warp width, in the form the
/// row kernel walks.
#[derive(Debug, Clone)]
struct WarpPlan {
    /// Lanes of each subwarp with two or more lanes.
    groups: Vec<Vec<usize>>,
    /// Accesses no mask is needed for: one per single-lane subwarp, or
    /// one per lane when the policy cannot split this width.
    fixed: u32,
}

/// The row kernel: every guess of a block predicted per sample from one
/// row of block bits per lane. Each lane ORs its byte's row into its
/// subwarp's masks, and a mask's popcount is that subwarp's distinct
/// block count for each guess — the guess-major form of
/// [`rcoal_core::count_block_accesses`], exact while every block index
/// is below 64.
#[derive(Debug, Clone)]
struct RowKernel {
    rows: RowTable,
    /// `plans[w - 1]` splits a `w`-lane warp, for every `w` up to the
    /// attack's warp width.
    plans: Vec<WarpPlan>,
    warp_size: usize,
}

impl RowKernel {
    /// The kernel for a deterministic `attack`, or `None` for a
    /// randomized policy or an oracle reaching past 64 blocks. It
    /// depends on the attack only, never on the byte position, so one
    /// kernel serves every byte engine of a key recovery.
    fn new(attack: &Attack) -> Option<Self> {
        if attack.policy().is_randomized() {
            return None;
        }
        let rows = RowTable::build(attack.oracle())?;
        let policy = attack.policy();
        let warp_size = attack.warp_size().max(1);
        let plans = (1..=warp_size)
            .map(|width| warp_plan(policy, width))
            .collect();
        Some(RowKernel {
            rows,
            plans,
            warp_size,
        })
    }

    /// Pushes the chunk through guess block `k`.
    fn push(&self, k: usize, block: &mut GuessBlock, column: &[u8], samples: &[SampleStep]) {
        let rows = &self.rows.0[k];
        let mut start = 0;
        for s in samples {
            let x = self.predict(rows, &column[start..s.end]);
            start = s.end;
            block.push_x(&x, s.step);
        }
    }

    /// The block's predictions for one sample's byte column, each equal
    /// bit for bit to `predict_bytes` for its guess: the warps' counts
    /// summed as integers, an exact sum of small whole numbers.
    fn predict(&self, rows: &[[u64; BLOCK]; 256], column: &[u8]) -> [f64; BLOCK] {
        let mut total = [0u32; BLOCK];
        for warp in column.chunks(self.warp_size) {
            let count = self.count(rows, warp);
            for (t, c) in total.iter_mut().zip(count) {
                *t += c;
            }
        }
        total.map(f64::from)
    }

    /// The block's access counts for one warp.
    #[inline]
    fn count(&self, rows: &[[u64; BLOCK]; 256], warp: &[u8]) -> [u32; BLOCK] {
        let plan = &self.plans[warp.len() - 1];
        let mut count = [plan.fixed; BLOCK];
        for group in &plan.groups {
            let mut mask = [0u64; BLOCK];
            for &lane in group {
                for (m, r) in mask.iter_mut().zip(&rows[usize::from(warp[lane])]) {
                    *m |= r;
                }
            }
            for (c, m) in count.iter_mut().zip(mask) {
                *c += m.count_ones();
            }
        }
        count
    }
}

/// The split of a `width`-lane warp under deterministic `policy`.
fn warp_plan(policy: CoalescingPolicy, width: usize) -> WarpPlan {
    // A deterministic policy draws nothing from the RNG.
    let mut rng = StdRng::seed_from_u64(0);
    match policy.assignment(width, &mut rng) {
        Ok(assignment) => {
            let (groups, singles): (Vec<_>, Vec<_>) = assignment
                .lanes_by_subwarp()
                .into_iter()
                .partition(|lanes| lanes.len() > 1);
            WarpPlan {
                groups,
                fixed: singles.len() as u32,
            }
        }
        // A policy that cannot split this (partial) warp — e.g. FSS(8)
        // on a 4-line tail — degrades to one access per thread.
        Err(_) => WarpPlan {
            groups: Vec::new(),
            fixed: width as u32,
        },
    }
}

/// How the engine predicts, chosen on the first push.
#[derive(Debug, Clone)]
enum Kernel {
    /// Nothing pushed yet.
    Unbuilt,
    /// Deterministic policies whose oracle fits the `u64` masks; shared
    /// by the byte engines of one [`StreamingKeyRecovery`].
    Rows(Arc<RowKernel>),
    /// One [`AccessPredictor`] per guess, held by the guess blocks.
    PerGuess,
}

/// Streaming recovery of one key byte: 256 guess accumulators fed chunk
/// by chunk, parallelized over fixed blocks of guesses.
///
/// Resident state is independent of how many samples flow through: the
/// shared time side, 256 prediction sides, and the predictors or the
/// row table. Determinism contract: every guess consumes the stream in
/// order whatever the chunking, and guesses are independent, so the
/// accumulator state (and therefore every correlation, argmax, and
/// rank) is bit-identical at any thread count and chunk size — and to a
/// [`PearsonAccumulator`] fed guess `m`'s `predict_bytes` in order.
#[derive(Debug, Clone)]
pub struct StreamingByteRecovery {
    attack: Attack,
    byte: usize,
    /// The time side every guess shares: samples consumed, their mean,
    /// and their centered second moment.
    n: u64,
    mean_y: f64,
    m2_y: f64,
    blocks: Vec<GuessBlock>,
    kernel: Kernel,
    /// Scratch reused across pushes: the chunk's byte columns back to
    /// back, and each sample's column end and time step.
    column: Vec<u8>,
    samples: Vec<SampleStep>,
}

impl StreamingByteRecovery {
    /// Starts a streaming recovery of key byte `byte`, mirroring
    /// `attack`'s policy, oracle, per-guess seeds, and thread count.
    /// Predictors or the row table are built on the first push.
    ///
    /// # Errors
    ///
    /// [`AttackError::ByteIndex`] for `byte >= attack.key_bytes()`, and
    /// [`AttackError::Domain`] for an attack warp wider than
    /// [`rcoal_core::MAX_LANES`], which no policy can split.
    pub fn new(attack: &Attack, byte: usize) -> Result<Self, AttackError> {
        if byte >= attack.key_bytes() {
            return Err(AttackError::ByteIndex { j: byte });
        }
        if attack.warp_size() > MAX_LANES {
            return Err(AttackError::Domain(format!(
                "attack warp of {} lanes is wider than the {MAX_LANES}-lane maximum",
                attack.warp_size()
            )));
        }
        Ok(StreamingByteRecovery {
            attack: attack.clone(),
            byte,
            n: 0,
            mean_y: 0.0,
            m2_y: 0.0,
            blocks: vec![GuessBlock::default(); BLOCKS],
            kernel: Kernel::Unbuilt,
            column: Vec::new(),
            samples: Vec::new(),
        })
    }

    /// The key byte position this engine recovers.
    pub fn byte(&self) -> usize {
        self.byte
    }

    /// Samples consumed so far.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Whether no samples have been consumed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Feeds one chunk of samples to all 256 guesses.
    ///
    /// The byte columns are extracted once into one flat buffer and the
    /// time side steps once per sample; then each block of guesses walks
    /// the chunk in sample order on a worker thread.
    pub fn push_chunk(&mut self, chunk: &[AttackSample]) {
        if chunk.is_empty() {
            return;
        }
        if matches!(self.kernel, Kernel::Unbuilt) {
            self.install(RowKernel::new(&self.attack).map(Arc::new));
        }
        let byte = self.byte;
        self.column.clear();
        self.samples.clear();
        for sample in chunk {
            self.column
                .extend(sample.ciphertexts.iter().map(|ct| ct[byte]));
            let step = y_step(&mut self.n, &mut self.mean_y, &mut self.m2_y, sample.time);
            self.samples.push(SampleStep {
                end: self.column.len(),
                step,
            });
        }
        let threads = resolve_threads(self.attack.threads_option());
        let (kernel, column, samples) = (&self.kernel, &self.column[..], &self.samples[..]);
        parallel_map_mut(threads, &mut self.blocks, |k, block| match kernel {
            Kernel::Rows(rows) => rows.push(k, block, column, samples),
            Kernel::Unbuilt | Kernel::PerGuess => block.push_predicted(k * BLOCK, column, samples),
        });
    }

    /// Installs the row kernel `rows`, or, without one, one predictor
    /// per guess handed to the guess blocks.
    fn install(&mut self, rows: Option<Arc<RowKernel>>) {
        self.kernel = match rows {
            Some(rows) => Kernel::Rows(rows),
            None => {
                for (k, block) in self.blocks.iter_mut().enumerate() {
                    block.predictors = (0..BLOCK)
                        .map(|j| self.attack.predictor_for_guess((k * BLOCK + j) as u8))
                        .collect();
                }
                Kernel::PerGuess
            }
        };
    }

    /// Current correlation of guess `m` (0.0 while degenerate).
    pub fn correlation_of(&self, m: u8) -> f64 {
        self.accumulator(m).correlation()
    }

    /// Accumulator of guess `m` (for state inspection / bit-identity
    /// checks), assembled from the shared time side and the guess's
    /// prediction side.
    pub fn accumulator(&self, m: u8) -> PearsonAccumulator {
        let block = &self.blocks[usize::from(m) / BLOCK];
        let j = usize::from(m) % BLOCK;
        PearsonAccumulator {
            n: self.n,
            mean_x: block.mean_x[j],
            mean_y: self.mean_y,
            m2_x: block.m2_x[j],
            m2_y: self.m2_y,
            cxy: block.cxy[j],
        }
    }

    /// The guess currently leading — an allocation-free scan over the
    /// accumulators (the first maximum wins exact ties).
    pub fn best_guess(&self) -> u8 {
        self.leader().0
    }

    /// `(leader, leader_corr, runner_up_corr)` in one scan.
    pub fn leader(&self) -> (u8, f64, f64) {
        let mut best = 0u8;
        let mut best_r = f64::NEG_INFINITY;
        let mut second_r = f64::NEG_INFINITY;
        for m in 0..=u8::MAX {
            let r = self.correlation_of(m);
            if r > best_r {
                second_r = best_r;
                best_r = r;
                best = m;
            } else if r > second_r {
                second_r = r;
            }
        }
        (best, best_r, second_r)
    }

    /// Snapshot of the full recovery state.
    pub fn snapshot(&self) -> ByteRecovery {
        let correlations: Vec<f64> = (0..=u8::MAX).map(|m| self.correlation_of(m)).collect();
        ByteRecovery {
            best_guess: self.best_guess(),
            correlations,
        }
    }
}

/// Streaming recovery of every subkey byte the oracle exposes:
/// `key_bytes × 256` lanes fed from one pass over the stream. The byte
/// engines of a deterministic attack share one row kernel, built on the
/// first push.
#[derive(Debug, Clone)]
pub struct StreamingKeyRecovery {
    bytes: Vec<StreamingByteRecovery>,
}

impl StreamingKeyRecovery {
    /// Starts a streaming recovery of all `attack.key_bytes()` subkey
    /// bytes.
    ///
    /// # Errors
    ///
    /// Never fails for a well-formed oracle; propagates
    /// [`AttackError::ByteIndex`] defensively.
    pub fn new(attack: &Attack) -> Result<Self, AttackError> {
        let bytes = (0..attack.key_bytes())
            .map(|j| StreamingByteRecovery::new(attack, j))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(StreamingKeyRecovery { bytes })
    }

    /// Samples consumed so far.
    pub fn len(&self) -> usize {
        self.bytes.first().map_or(0, StreamingByteRecovery::len)
    }

    /// Whether no samples have been consumed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-byte streaming engines, indexed by byte position.
    pub fn byte_engines(&self) -> &[StreamingByteRecovery] {
        &self.bytes
    }

    /// Feeds one chunk of samples to every byte engine.
    pub fn push_chunk(&mut self, chunk: &[AttackSample]) {
        let unbuilt = self
            .bytes
            .first()
            .is_some_and(|e| matches!(e.kernel, Kernel::Unbuilt));
        if unbuilt && !chunk.is_empty() {
            let rows = RowKernel::new(&self.bytes[0].attack).map(Arc::new);
            for engine in &mut self.bytes {
                engine.install(rows.clone());
            }
        }
        for engine in &mut self.bytes {
            engine.push_chunk(chunk);
        }
    }

    /// Snapshot of the full key recovery.
    pub fn snapshot(&self) -> KeyRecovery {
        KeyRecovery {
            bytes: self
                .bytes
                .iter()
                .map(StreamingByteRecovery::snapshot)
                .collect(),
        }
    }
}

/// The early-termination rule: stop once the same guess has led for
/// `stable_checkpoints` consecutive checkpoints, each time with a
/// top-two correlation margin above `margin_k / √n`.
///
/// `1/√n` is the scale of a Pearson estimate's sampling error, so the
/// margin test asks "is the leader's separation larger than estimation
/// noise?". On a secure stream all 256 correlations are O(1/√n) noise
/// and the top-two *gap* is far smaller still, so neither the margin nor
/// the stability condition holds and the stream runs to its budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyStop {
    /// Consecutive qualifying checkpoints required (≥ 1).
    pub stable_checkpoints: usize,
    /// Margin threshold scale: the top-two gap must exceed
    /// `margin_k / √n`.
    pub margin_k: f64,
}

impl Default for EarlyStop {
    fn default() -> Self {
        EarlyStop {
            stable_checkpoints: 3,
            margin_k: 5.0,
        }
    }
}

impl EarlyStop {
    /// Whether `margin` at sample count `n` clears the `margin_k / √n`
    /// band.
    pub fn margin_ok(&self, margin: f64, n: usize) -> bool {
        n > 0 && margin > self.margin_k / (n as f64).sqrt()
    }
}

/// Tracks leader stability across checkpoints for one byte position.
#[derive(Debug, Clone, Copy, Default)]
struct StopTracker {
    prev_leader: Option<u8>,
    streak: usize,
}

impl StopTracker {
    /// Observes one checkpoint; returns the current qualifying streak.
    fn observe(&mut self, rule: &EarlyStop, leader: u8, margin: f64, n: usize) -> usize {
        let qualifies = rule.margin_ok(margin, n);
        self.streak = if qualifies && self.prev_leader == Some(leader) {
            self.streak + 1
        } else {
            usize::from(qualifies)
        };
        self.prev_leader = Some(leader);
        self.streak
    }

    fn stable(&self, rule: &EarlyStop) -> bool {
        self.streak >= rule.stable_checkpoints.max(1)
    }
}

/// Options for the streaming drivers.
///
/// Early-stop and trajectory checkpoints fall every
/// `max(1, max_samples / 16)` samples. They land on exact sample counts
/// regardless of the chunk size (chunks are split internally), so
/// trajectories and termination points are chunk-size invariant too.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamOptions {
    /// Sample budget: the stream stops here even without early
    /// termination.
    pub max_samples: usize,
    /// Samples pulled from the source per chunk (each chunk is one
    /// parallel 256-guess sweep). `0` is treated as 1.
    pub chunk: usize,
    /// Early-termination rule; `None` always runs to the budget.
    pub early_stop: Option<EarlyStop>,
}

impl StreamOptions {
    /// Streams up to `max_samples` with a 4096-sample chunk, derived
    /// checkpoints, and no early termination.
    pub fn new(max_samples: usize) -> Self {
        StreamOptions {
            max_samples,
            chunk: 4096,
            early_stop: None,
        }
    }

    /// Sets the chunk size.
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk;
        self
    }

    /// Arms early termination.
    pub fn with_early_stop(mut self, rule: EarlyStop) -> Self {
        self.early_stop = Some(rule);
        self
    }

    /// Samples between checkpoints.
    fn checkpoint_spacing(&self) -> usize {
        (self.max_samples / 16).max(1)
    }
}

/// One point of the online attacker's trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamCheckpoint {
    /// Samples consumed at this checkpoint.
    pub samples: usize,
    /// The guess leading at this checkpoint.
    pub leader: u8,
    /// The leader's correlation.
    pub leader_corr: f64,
    /// The runner-up's correlation.
    pub runner_up_corr: f64,
    /// `leader_corr - runner_up_corr`.
    pub margin: f64,
    /// Consecutive qualifying checkpoints so far (under the armed
    /// [`EarlyStop`] rule; 0 when none is armed).
    pub stable_for: usize,
}

/// Result of a streaming single-byte recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRecovery {
    /// Byte position recovered.
    pub byte: usize,
    /// Final recovery state.
    pub recovery: ByteRecovery,
    /// Samples actually consumed.
    pub samples: usize,
    /// Whether the early-stop rule fired before the budget/stream end.
    pub terminated_early: bool,
    /// The checkpoint trajectory.
    pub checkpoints: Vec<StreamCheckpoint>,
}

/// Result of a streaming full-key recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamKeyRecovery {
    /// Final recovery state.
    pub recovery: KeyRecovery,
    /// Samples actually consumed.
    pub samples: usize,
    /// Whether every byte's early-stop rule fired before the budget.
    pub terminated_early: bool,
    /// Checkpoints evaluated.
    pub checkpoints: usize,
}

/// Evenly spaced checkpoint sample counts for a stream of `n` samples:
/// `count` targets at `n·i/count`, deduplicated and with zero dropped,
/// always ending exactly at `n` (empty for `n == 0`).
///
/// This is the one place clamped/duplicate checkpoint handling lives;
/// [`recovery_curve`] callers and the audit layer's trajectory both
/// defer to it.
pub fn even_checkpoints(n: usize, count: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(count);
    for i in 1..=count {
        let cp = n * i / count.max(1);
        if cp > 0 && out.last() != Some(&cp) {
            out.push(cp);
        }
    }
    out
}

/// Recovers key byte `byte` over growing prefixes of `samples`,
/// snapshotting at each of the (ascending) `checkpoints`: the slice is
/// pushed through one [`StreamingByteRecovery`] up to each checkpoint,
/// so every prediction is made once. Checkpoint values beyond the
/// stream length are clamped to the end, and checkpoints that clamp or
/// repeat onto an already-snapshotted prefix are skipped (each returned
/// sample count appears once).
///
/// # Errors
///
/// [`AttackError::ByteIndex`] for `byte >= attack.key_bytes()`.
pub fn recovery_curve(
    attack: &Attack,
    samples: &[AttackSample],
    byte: usize,
    checkpoints: &[usize],
) -> Result<Vec<(usize, ByteRecovery)>, AttackError> {
    let mut engine = StreamingByteRecovery::new(attack, byte)?;
    let mut out: Vec<(usize, ByteRecovery)> = Vec::with_capacity(checkpoints.len());
    for &cp in checkpoints {
        let target = cp.min(samples.len());
        if out.last().map(|(t, _)| *t) == Some(target) {
            continue;
        }
        if let Some(rest) = samples.get(engine.len()..target) {
            engine.push_chunk(rest);
        }
        out.push((target, engine.snapshot()));
    }
    Ok(out)
}

/// Streams up to `opts.max_samples` from `source` and recovers key byte
/// `byte` in a single pass. Peak resident state is the 256 guess lanes
/// plus one chunk — independent of the sample count.
///
/// With `opts.early_stop` armed, the stream terminates at the first
/// checkpoint where the leader has been stable (see [`EarlyStop`]).
///
/// When `attack` carries a metrics sink, each checkpoint updates the
/// online-attacker channel: `attack.stream.samples`,
/// `attack.stream.leader`, `attack.stream.margin_ppm`, and
/// `attack.stream.stable` gauges plus an `attack.stream.checkpoints`
/// counter; early termination ticks `attack.stream.terminated`. Metrics
/// never influence the recovery.
///
/// # Errors
///
/// [`AttackError::ByteIndex`] for an out-of-range byte,
/// [`AttackError::NoSamples`] when the source yields nothing, and any
/// [`AttackError::Source`] the source reports.
pub fn stream_recover_byte(
    attack: &Attack,
    source: &mut dyn SampleSource,
    byte: usize,
    opts: &StreamOptions,
) -> Result<StreamRecovery, AttackError> {
    let span = attack.metrics_ref().map(|m| m.span("attack.stream_byte"));
    let mut engine = StreamingByteRecovery::new(attack, byte)?;
    let rule = opts.early_stop;
    let mut tracker = StopTracker::default();
    let mut checkpoints = Vec::new();
    let mut terminated = false;

    drive_stream(
        source,
        opts,
        &mut engine,
        StreamingByteRecovery::push_chunk,
        |engine, n| {
            let cp = evaluate_checkpoint(attack, engine, rule.as_ref(), &mut tracker, n);
            checkpoints.push(cp);
            let stop = rule.is_some_and(|r| tracker.stable(&r));
            terminated = terminated || stop;
            stop
        },
    )?;

    if engine.is_empty() {
        return Err(AttackError::NoSamples);
    }
    // Close the trajectory at the actual end of the stream (budget or
    // source exhaustion between checkpoints).
    if checkpoints.last().map(|c| c.samples) != Some(engine.len()) {
        let cp = evaluate_checkpoint(attack, &engine, rule.as_ref(), &mut tracker, engine.len());
        checkpoints.push(cp);
    }
    finish_stream_metrics(attack, engine.len(), terminated);
    if let Some(span) = span {
        span.finish();
    }
    Ok(StreamRecovery {
        byte,
        recovery: engine.snapshot(),
        samples: engine.len(),
        terminated_early: terminated,
        checkpoints,
    })
}

/// Streams up to `opts.max_samples` from `source` and recovers every
/// subkey byte in a single pass. With `opts.early_stop` armed, the
/// stream terminates once **every** byte's leader is stable.
///
/// # Errors
///
/// [`AttackError::NoSamples`] when the source yields nothing, and any
/// [`AttackError::Source`] the source reports.
pub fn stream_recover_key(
    attack: &Attack,
    source: &mut dyn SampleSource,
    opts: &StreamOptions,
) -> Result<StreamKeyRecovery, AttackError> {
    let span = attack.metrics_ref().map(|m| m.span("attack.stream_key"));
    let mut engine = StreamingKeyRecovery::new(attack)?;
    let rule = opts.early_stop;
    let mut trackers = vec![StopTracker::default(); engine.byte_engines().len()];
    let mut evaluated = 0usize;
    let mut terminated = false;

    drive_stream(
        source,
        opts,
        &mut engine,
        StreamingKeyRecovery::push_chunk,
        |engine, n| {
            evaluated += 1;
            let mut all_stable = rule.is_some();
            for (byte_engine, tracker) in engine.byte_engines().iter().zip(&mut trackers) {
                let (leader, r1, r2) = byte_engine.leader();
                if let Some(r) = &rule {
                    tracker.observe(r, leader, r1 - r2, n);
                    all_stable = all_stable && tracker.stable(r);
                }
            }
            if let Some(metrics) = attack.metrics_ref() {
                metrics.counter("attack.stream.checkpoints").inc();
                metrics.gauge("attack.stream.samples").set(n as u64);
            }
            terminated = terminated || all_stable;
            all_stable
        },
    )?;

    if engine.is_empty() {
        return Err(AttackError::NoSamples);
    }
    finish_stream_metrics(attack, engine.len(), terminated);
    if let Some(span) = span {
        span.finish();
    }
    Ok(StreamKeyRecovery {
        recovery: engine.snapshot(),
        samples: engine.len(),
        terminated_early: terminated,
        checkpoints: evaluated,
    })
}

/// The shared chunk loop: pulls chunks from `source` up to the budget,
/// feeds them to `engine` split exactly at checkpoint boundaries
/// (so checkpoints land on the same sample counts whatever the chunk
/// size), and calls `checkpoint(engine, n)` at each boundary; a `true`
/// return stops the stream.
fn drive_stream<E>(
    source: &mut dyn SampleSource,
    opts: &StreamOptions,
    engine: &mut E,
    push: impl Fn(&mut E, &[AttackSample]),
    mut checkpoint: impl FnMut(&mut E, usize) -> bool,
) -> Result<(), AttackError> {
    let chunk = opts.chunk.max(1);
    let cp_every = opts.checkpoint_spacing();
    let mut consumed = 0usize;
    let mut buf: Vec<AttackSample> = Vec::with_capacity(chunk.min(opts.max_samples));
    'stream: while consumed < opts.max_samples {
        let want = chunk.min(opts.max_samples - consumed);
        buf.clear();
        let got = source.next_chunk(want, &mut buf)?;
        if got == 0 {
            break;
        }
        let mut off = 0;
        while off < got {
            let to_boundary = cp_every - (consumed % cp_every);
            let take = to_boundary.min(got - off);
            push(engine, &buf[off..off + take]);
            consumed += take;
            off += take;
            if consumed.is_multiple_of(cp_every) && checkpoint(engine, consumed) {
                break 'stream;
            }
        }
    }
    Ok(())
}

fn evaluate_checkpoint(
    attack: &Attack,
    engine: &StreamingByteRecovery,
    rule: Option<&EarlyStop>,
    tracker: &mut StopTracker,
    n: usize,
) -> StreamCheckpoint {
    let (leader, r1, r2) = engine.leader();
    let margin = r1 - r2;
    let stable_for = match rule {
        Some(r) => tracker.observe(r, leader, margin, n),
        None => 0,
    };
    if let Some(metrics) = attack.metrics_ref() {
        metrics.counter("attack.stream.checkpoints").inc();
        metrics.gauge("attack.stream.samples").set(n as u64);
        metrics.gauge("attack.stream.leader").set(u64::from(leader));
        metrics
            .gauge("attack.stream.margin_ppm")
            .set((margin.max(0.0) * 1e6) as u64);
        metrics.gauge("attack.stream.stable").set(stable_for as u64);
    }
    StreamCheckpoint {
        samples: n,
        leader,
        leader_corr: r1,
        runner_up_corr: r2,
        margin,
        stable_for,
    }
}

fn finish_stream_metrics(attack: &Attack, samples: usize, terminated: bool) {
    if let Some(metrics) = attack.metrics_ref() {
        metrics
            .counter("attack.samples_correlated")
            .add(256 * samples as u64);
        if terminated {
            metrics.counter("attack.stream.terminated").inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcoal_aes::{last_round_index, Aes128, Block};
    use rcoal_core::CoalescingPolicy;
    use rcoal_rng::{Rng, SeedableRng, StdRng};
    use std::sync::Arc;

    // ---- PearsonAccumulator and the pearson fold ----

    fn accumulate(xs: &[f64], ys: &[f64]) -> PearsonAccumulator {
        let mut acc = PearsonAccumulator::new();
        for (&x, &y) in xs.iter().zip(ys) {
            acc.push(x, y);
        }
        acc
    }

    #[test]
    fn perfect_positive_and_negative_correlation() {
        let x: Vec<f64> = (0..10).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 1.0).collect();
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let z: Vec<f64> = x.iter().map(|v| -2.0 * v).collect();
        assert!((pearson(&x, &z) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_series_yield_zero() {
        let x = vec![5.0; 8];
        let y: Vec<f64> = (0..8).map(f64::from).collect();
        assert_eq!(pearson(&x, &y), 0.0);
        assert_eq!(pearson(&y, &x), 0.0);
        assert_eq!(pearson(&[], &[]), 0.0);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn independent_noise_is_weakly_correlated() {
        // Deterministic pseudo-noise.
        let x: Vec<f64> = (0..2000).map(|i| f64::from((i * 48271) % 1013)).collect();
        let y: Vec<f64> = (0..2000)
            .map(|i| f64::from((i * 16807 + 7) % 997))
            .collect();
        assert!(pearson(&x, &y).abs() < 0.1);
    }

    #[test]
    fn pearson_is_symmetric_and_scale_invariant() {
        let x = [1.0, 4.0, 2.0, 8.0, 5.0];
        let y = [2.0, 3.0, 1.0, 9.0, 4.0];
        let r1 = pearson(&x, &y);
        assert!((r1 - pearson(&y, &x)).abs() < 1e-12);
        let y_scaled: Vec<f64> = y.iter().map(|v| 100.0 * v - 40.0).collect();
        assert!((r1 - pearson(&x, &y_scaled)).abs() < 1e-12);
    }

    #[test]
    fn non_finite_inputs_yield_zero_not_nan() {
        let x = [1.0, f64::NAN, 3.0, 4.0];
        let y = [2.0, 1.0, 5.0, 3.0];
        assert_eq!(pearson(&x, &y), 0.0);
        assert_eq!(pearson(&y, &x), 0.0);
        let inf = [1.0, f64::INFINITY, 3.0, 4.0];
        assert_eq!(pearson(&inf, &y), 0.0);
    }

    #[test]
    fn result_is_clamped_to_unit_interval() {
        let x: Vec<f64> = (0..50).map(|i| f64::from(i) * 1e-9 + 1e9).collect();
        let y: Vec<f64> = x.iter().map(|v| v * 2.0).collect();
        let r = pearson(&x, &y);
        assert!((-1.0..=1.0).contains(&r), "r = {r}");
    }

    #[test]
    fn accumulator_state_is_chunking_invariant_by_construction() {
        let xs: Vec<f64> = (0..100).map(|i| f64::from(i * 7 % 13)).collect();
        let ys: Vec<f64> = (0..100).map(|i| f64::from(i * 3 % 11)).collect();
        let whole = accumulate(&xs, &ys);
        // Same stream pushed in two halves is the same accumulator: the
        // recurrence has no chunk notion at all.
        let mut halves = PearsonAccumulator::new();
        for (&x, &y) in xs.iter().zip(&ys) {
            halves.push(x, y);
        }
        assert_eq!(whole.state_bits(), halves.state_bits());
        assert_eq!(whole.len(), 100);
        assert!(!whole.is_empty());
        assert!((whole.mean_x() - xs.iter().sum::<f64>() / 100.0).abs() < 1e-12);
        assert!((whole.mean_y() - ys.iter().sum::<f64>() / 100.0).abs() < 1e-12);
    }

    // ---- Streaming engine tests ----

    /// Noise-free samples whose time is byte `target`'s true baseline
    /// access count — the clean single-byte channel.
    fn leaky_samples(n: usize, target: usize) -> (Vec<AttackSample>, [u8; 16]) {
        let aes = Aes128::new(b"streaming key!!!");
        let k10 = aes.last_round_key();
        let out = (0..n)
            .map(|i| {
                let cts: Vec<Block> = (0..32)
                    .map(|l| {
                        let mut pt = [0u8; 16];
                        for (b, x) in pt.iter_mut().enumerate() {
                            *x = (i * 101 + l * 13 + b * 41) as u8 ^ (i >> 8) as u8;
                        }
                        aes.encrypt_block(pt)
                    })
                    .collect();
                let mut blocks: Vec<u8> = cts
                    .iter()
                    .map(|ct| last_round_index(ct[target], k10[target]) >> 4)
                    .collect();
                blocks.sort_unstable();
                blocks.dedup();
                AttackSample {
                    ciphertexts: Arc::new(cts),
                    time: blocks.len() as f64,
                }
            })
            .collect();
        (out, k10)
    }

    /// Samples whose time is pure key-independent noise — the
    /// FSS-equivalent secure stream.
    fn secure_samples(n: usize) -> Vec<AttackSample> {
        let (mut samples, _) = leaky_samples(n, 2);
        let mut rng = StdRng::seed_from_u64(0x5ec);
        for s in &mut samples {
            s.time = rng.gen_range(0.0..1.0) * 100.0;
        }
        samples
    }

    #[test]
    fn stream_recover_byte_matches_the_slice_adapter() {
        let (samples, k10) = leaky_samples(70, 2);
        let attack = Attack::baseline(32);
        let batch = attack.recover_byte(&samples, 2).unwrap();
        let mut source = SliceSource::new(&samples);
        let out = stream_recover_byte(
            &attack,
            &mut source,
            2,
            &StreamOptions::new(samples.len()).with_chunk(16),
        )
        .unwrap();
        assert_eq!(out.samples, 70);
        assert!(!out.terminated_early);
        assert_eq!(out.recovery.best_guess, k10[2]);
        // One engine, chunk-invariant state: the 16-sample chunks and
        // the adapter's single push agree bit for bit.
        assert_eq!(out.recovery, batch);
        assert_eq!(out.checkpoints.last().map(|c| c.samples), Some(70));
    }

    #[test]
    fn accumulator_state_is_bit_identical_across_chunks_and_threads() {
        let (samples, _) = leaky_samples(48, 1);
        let attack = Attack::against(CoalescingPolicy::rss_rts(8).unwrap(), 32);
        let mut reference: Option<Vec<[u64; 6]>> = None;
        for (chunk, threads) in [(1, 1), (7, 1), (7, 4), (48, 3), (13, 2)] {
            let attack = attack.clone().with_threads(Some(threads));
            let mut engine = StreamingByteRecovery::new(&attack, 1).unwrap();
            for c in samples.chunks(chunk) {
                engine.push_chunk(c);
            }
            let state: Vec<[u64; 6]> = (0..=255u8)
                .map(|m| engine.accumulator(m).state_bits())
                .collect();
            match &reference {
                None => reference = Some(state),
                Some(want) => assert_eq!(
                    want, &state,
                    "chunk {chunk} x threads {threads} must be bit-identical"
                ),
            }
        }
    }

    /// `lines`-line samples of random bytes with random times.
    fn random_samples(n: usize, lines: usize, seed: u64) -> Vec<AttackSample> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let cts: Vec<Block> = (0..lines)
                    .map(|_| {
                        let mut b = [0u8; 16];
                        rng.fill(&mut b);
                        b
                    })
                    .collect();
                AttackSample {
                    ciphertexts: Arc::new(cts),
                    time: rng.gen_range(0.0..40.0),
                }
            })
            .collect()
    }

    /// The per-guess loop: guess `m`'s own predictor feeds its own
    /// accumulator, sample by sample.
    fn per_guess_states(attack: &Attack, samples: &[AttackSample], byte: usize) -> Vec<[u64; 6]> {
        (0..=255u8)
            .map(|m| {
                let mut predictor = attack.predictor_for_guess(m);
                let mut acc = PearsonAccumulator::new();
                for s in samples {
                    acc.push(predictor.predict(&s.ciphertexts, byte, m), s.time);
                }
                acc.state_bits()
            })
            .collect()
    }

    #[test]
    fn row_kernel_matches_per_guess_predictors() {
        // Full warps and a 4-lane tail FSS(8) cannot split: each guess's
        // state equals its own accumulator fed its own predictor's
        // output.
        for policy in [
            CoalescingPolicy::Baseline,
            CoalescingPolicy::Disabled,
            CoalescingPolicy::fss(4).unwrap(),
            CoalescingPolicy::fss(8).unwrap(),
        ] {
            for lines in [32, 36] {
                let samples = random_samples(9, lines, 3);
                let attack = Attack::against(policy, 32).with_threads(Some(2));
                let mut engine = StreamingByteRecovery::new(&attack, 5).unwrap();
                for c in samples.chunks(4) {
                    engine.push_chunk(c);
                }
                assert!(matches!(engine.kernel, Kernel::Rows(_)));
                let state: Vec<[u64; 6]> = (0..=255u8)
                    .map(|m| engine.accumulator(m).state_bits())
                    .collect();
                assert_eq!(
                    state,
                    per_guess_states(&attack, &samples, 5),
                    "{policy}, {lines} lines"
                );
            }
        }
    }

    #[test]
    fn randomized_policies_and_wide_oracles_keep_per_guess_predictors() {
        let samples = random_samples(5, 32, 4);
        let wide = Attack::baseline(32)
            .with_oracle(Arc::new(crate::oracle::XorWhiteningOracle::new(0, 16)));
        let randomized = Attack::against(CoalescingPolicy::rss_rts(8).unwrap(), 32);
        for attack in [wide, randomized] {
            let mut engine = StreamingByteRecovery::new(&attack, 1).unwrap();
            assert!(matches!(engine.kernel, Kernel::Unbuilt), "built lazily");
            engine.push_chunk(&samples);
            assert!(matches!(engine.kernel, Kernel::PerGuess));
            let state: Vec<[u64; 6]> = (0..=255u8)
                .map(|m| engine.accumulator(m).state_bits())
                .collect();
            assert_eq!(state, per_guess_states(&attack, &samples, 1));
        }
    }

    #[test]
    fn stream_recover_key_matches_the_slice_adapter() {
        // Whitening oracle: 8 subkey bytes, cheap; time carries byte 0's
        // distinct-block count. (Under this oracle a guess XOR only
        // relabels blocks and the distinct count is relabel-invariant,
        // so every guess ties at r ≈ 1 on byte 0 — the interesting
        // claims here are streamed/slice equivalence and the true
        // byte's rank, not a unique argmax.)
        let attack = Attack::baseline(32)
            .with_oracle(Arc::new(crate::oracle::XorWhiteningOracle::new(4, 8)));
        let mut rng = StdRng::seed_from_u64(77);
        let key_byte = 0xa7u8;
        let samples: Vec<AttackSample> = (0..60)
            .map(|_| {
                let cts: Vec<Block> = (0..32)
                    .map(|_| {
                        let mut b = [0u8; 16];
                        rng.fill(&mut b);
                        b
                    })
                    .collect();
                let mut blocks: Vec<u8> = cts.iter().map(|ct| (ct[0] ^ key_byte) >> 4).collect();
                blocks.sort_unstable();
                blocks.dedup();
                AttackSample {
                    ciphertexts: Arc::new(cts),
                    time: blocks.len() as f64,
                }
            })
            .collect();
        let batch = attack.recover_key(&samples).unwrap();
        let mut source = SliceSource::new(&samples);
        let out = stream_recover_key(
            &attack,
            &mut source,
            &StreamOptions::new(samples.len()).with_chunk(11),
        )
        .unwrap();
        assert_eq!(out.recovery.bytes.len(), 8);
        assert_eq!(out.samples, 60);
        assert_eq!(out.recovery, batch);
        // Byte 0 carries the channel: the true byte correlates ~1 and
        // shares the top rank (rank counts strictly better guesses).
        assert!(out.recovery.bytes[0].correlation_of(key_byte) > 0.99);
        assert_eq!(out.recovery.bytes[0].rank_of(key_byte), 0);
        // Byte 1 carries nothing: no guess reaches a confident lead.
        assert!(out.recovery.bytes[1]
            .correlations
            .iter()
            .all(|c| c.abs() < 0.9));
    }

    #[test]
    fn key_recovery_byte_engines_share_one_row_kernel() {
        // `block_of(b, g)` does not depend on the byte position, so the
        // byte engines of a deterministic key recovery share one table.
        let samples = random_samples(2, 32, 9);
        let mut key = StreamingKeyRecovery::new(&Attack::baseline(32)).unwrap();
        key.push_chunk(&[]);
        assert!(matches!(key.byte_engines()[0].kernel, Kernel::Unbuilt));
        key.push_chunk(&samples);
        let Kernel::Rows(first) = &key.byte_engines()[0].kernel else {
            panic!("a deterministic attack predicts with the row kernel");
        };
        for engine in key.byte_engines() {
            assert!(matches!(&engine.kernel, Kernel::Rows(rows) if Arc::ptr_eq(rows, first)));
        }
        assert_eq!(Arc::strong_count(first), 16);
        // Randomized policies keep one predictor set per engine.
        let rss_rts = Attack::against(CoalescingPolicy::rss_rts(8).unwrap(), 32);
        let mut key = StreamingKeyRecovery::new(&rss_rts).unwrap();
        key.push_chunk(&samples[..1]);
        assert!(key
            .byte_engines()
            .iter()
            .all(|e| matches!(e.kernel, Kernel::PerGuess)));
    }

    // ---- Early termination (satellite 3: falsifiability) ----

    #[test]
    fn leaky_stream_terminates_early_and_matches_full_stream() {
        let (samples, k10) = leaky_samples(400, 2);
        let attack = Attack::baseline(32);
        let full = attack.recover_byte(&samples, 2).unwrap();
        let mut source = SliceSource::new(&samples);
        let opts = StreamOptions::new(samples.len())
            .with_chunk(32)
            .with_early_stop(EarlyStop::default());
        let out = stream_recover_byte(&attack, &mut source, 2, &opts).unwrap();
        assert!(out.terminated_early, "clean channel must stabilize");
        assert!(
            out.samples < samples.len(),
            "termination must save samples ({} used)",
            out.samples
        );
        assert_eq!(
            out.recovery.best_guess, full.best_guess,
            "terminated recovery must agree with the full stream"
        );
        assert_eq!(out.recovery.best_guess, k10[2]);
        let last = out.checkpoints.last().unwrap();
        assert!(last.stable_for >= EarlyStop::default().stable_checkpoints);
        assert!(last.margin > 0.0);
    }

    #[test]
    fn secure_stream_never_terminates_early() {
        let samples = secure_samples(400);
        let attack = Attack::baseline(32);
        let mut source = SliceSource::new(&samples);
        let opts = StreamOptions::new(samples.len())
            .with_chunk(32)
            .with_early_stop(EarlyStop::default());
        let out = stream_recover_byte(&attack, &mut source, 2, &opts).unwrap();
        assert!(
            !out.terminated_early,
            "key-independent noise must run to the budget"
        );
        assert_eq!(out.samples, 400);
        // And a fortiori for a *constant* channel (every correlation 0).
        let mut flat = secure_samples(200);
        for s in &mut flat {
            s.time = 512.0;
        }
        let mut source = SliceSource::new(&flat);
        let out = stream_recover_byte(&attack, &mut source, 2, &opts).unwrap();
        assert!(!out.terminated_early);
        assert!(out.checkpoints.iter().all(|c| c.margin == 0.0));
    }

    #[test]
    fn inverted_termination_rule_fails_on_secure_streams() {
        // The margin band is load-bearing: a naive "stop as soon as any
        // leader exists" rule (margin_k = 0, one checkpoint) terminates
        // immediately on pure noise with an unjustified key — exactly
        // the false confidence the k/sqrt(n) band exists to prevent.
        let samples = secure_samples(400);
        let attack = Attack::baseline(32);
        let naive = EarlyStop {
            stable_checkpoints: 1,
            margin_k: 0.0,
        };
        let mut source = SliceSource::new(&samples);
        let opts = StreamOptions::new(samples.len())
            .with_chunk(32)
            .with_early_stop(naive);
        let out = stream_recover_byte(&attack, &mut source, 2, &opts).unwrap();
        // The 400-sample budget puts the first checkpoint at 400 / 16.
        assert!(
            out.terminated_early && out.samples == 25,
            "the strawman rule stops at the first checkpoint on noise"
        );
    }

    #[test]
    fn early_stop_margin_band_scales_with_n() {
        let rule = EarlyStop::default();
        assert!(!rule.margin_ok(0.4, 100), "0.4 < 5/sqrt(100)");
        assert!(rule.margin_ok(0.6, 100), "0.6 > 5/sqrt(100)");
        assert!(rule.margin_ok(0.06, 10_000), "band tightens with n");
        assert!(!rule.margin_ok(0.5, 0));
    }

    // ---- Sources and errors ----

    #[test]
    fn slice_source_chunks_and_hints() {
        let (samples, _) = leaky_samples(10, 0);
        let mut source = SliceSource::new(&samples);
        assert_eq!(source.remaining_hint(), Some(10));
        let mut buf = Vec::new();
        assert_eq!(source.next_chunk(4, &mut buf).unwrap(), 4);
        assert_eq!(source.next_chunk(100, &mut buf).unwrap(), 6);
        assert_eq!(source.next_chunk(1, &mut buf).unwrap(), 0);
        assert_eq!(buf.len(), 10);
        assert_eq!(source.remaining_hint(), Some(0));
        assert_eq!(buf, samples);
    }

    #[test]
    fn empty_source_and_bad_byte_are_typed_errors() {
        let attack = Attack::baseline(32);
        let mut source = SliceSource::new(&[]);
        assert_eq!(
            stream_recover_byte(&attack, &mut source, 0, &StreamOptions::new(100)).unwrap_err(),
            AttackError::NoSamples
        );
        let (samples, _) = leaky_samples(4, 0);
        let mut source = SliceSource::new(&samples);
        assert_eq!(
            stream_recover_byte(&attack, &mut source, 16, &StreamOptions::new(100)).unwrap_err(),
            AttackError::ByteIndex { j: 16 }
        );
        let mut source = SliceSource::new(&samples);
        assert_eq!(
            stream_recover_key(&attack, &mut source, &StreamOptions::new(0)).unwrap_err(),
            AttackError::NoSamples
        );
    }

    #[test]
    fn warps_wider_than_64_lanes_are_a_domain_error() {
        // No policy splits such a warp, so every prediction would fall
        // back to one access per lane.
        assert!(matches!(
            StreamingByteRecovery::new(&Attack::baseline(MAX_LANES + 1), 0),
            Err(AttackError::Domain(_))
        ));
        assert!(StreamingByteRecovery::new(&Attack::baseline(MAX_LANES), 0).is_ok());
    }

    #[test]
    fn budget_caps_the_stream_and_checkpoints_align() {
        let (samples, _) = leaky_samples(100, 0);
        let attack = Attack::baseline(32);
        let mut source = SliceSource::new(&samples);
        let opts = StreamOptions::new(50).with_chunk(7);
        let out = stream_recover_byte(&attack, &mut source, 0, &opts).unwrap();
        assert_eq!(out.samples, 50);
        // Checkpoints every 50 / 16 = 3 samples, then one closing the
        // trajectory at the budget.
        let counts: Vec<usize> = out.checkpoints.iter().map(|c| c.samples).collect();
        let want: Vec<usize> = (1..=16).map(|i| 3 * i).chain([50]).collect();
        assert_eq!(counts, want, "boundaries independent of chunk 7");
        assert_eq!(source.remaining_hint(), Some(50), "unconsumed tail stays");
    }

    // ---- Slice-prefix trajectories ----

    #[test]
    fn curve_clamps_and_dedups_checkpoints() {
        let (samples, k10) = leaky_samples(80, 2);
        let attack = Attack::baseline(32);
        let curve = recovery_curve(&attack, &samples, 2, &[10, 40, 40, 80, 500]).unwrap();
        // The repeated 40 and the 500 that clamps onto the
        // already-snapshotted end of the stream are both skipped.
        let counts: Vec<usize> = curve.iter().map(|(n, _)| *n).collect();
        assert_eq!(counts, vec![10, 40, 80]);
        // Each point is the recovery over exactly that prefix.
        for (n, rec) in &curve {
            assert_eq!(rec, &attack.recover_byte(&samples[..*n], 2).unwrap());
        }
        // With a clean single-byte channel the final checkpoint recovers.
        assert_eq!(curve[2].1.best_guess, k10[2]);
        assert!(curve[2].1.correlation_of(k10[2]) > 0.95);
    }

    #[test]
    fn curve_reads_zero_on_degenerate_prefixes() {
        let (samples, _) = leaky_samples(3, 2);
        let attack = Attack::baseline(32);
        let curve = recovery_curve(&attack, &samples, 2, &[0, 1]).unwrap();
        assert_eq!(curve.len(), 2);
        for (n, rec) in &curve {
            assert!(
                rec.correlations.iter().all(|&c| c == 0.0),
                "{n} sample(s) are degenerate"
            );
            assert_eq!(rec.best_guess, 0);
        }
    }

    #[test]
    fn curve_byte_index_is_a_typed_error() {
        let attack = Attack::baseline(32);
        assert_eq!(
            recovery_curve(&attack, &[], 99, &[1]).unwrap_err(),
            AttackError::ByteIndex { j: 99 }
        );
        assert_eq!(
            recovery_curve(&attack, &[], 16, &[]).unwrap_err(),
            AttackError::ByteIndex { j: 16 }
        );
    }

    #[test]
    fn even_checkpoints_dedupe_and_end_at_n() {
        assert_eq!(even_checkpoints(100, 4), vec![25, 50, 75, 100]);
        assert_eq!(even_checkpoints(3, 6), vec![1, 2, 3], "duplicates dropped");
        assert_eq!(even_checkpoints(1, 4), vec![1]);
        assert_eq!(even_checkpoints(0, 4), Vec::<usize>::new());
        assert_eq!(even_checkpoints(5, 0), Vec::<usize>::new());
        assert_eq!(even_checkpoints(7, 3), vec![2, 4, 7]);
    }

    #[test]
    fn stream_metrics_record_the_online_attacker_channel() {
        let (samples, _) = leaky_samples(60, 2);
        let registry = rcoal_telemetry::MetricsRegistry::new();
        let attack = Attack::baseline(32).with_metrics(&registry);
        let plain = Attack::baseline(32);
        let mut source = SliceSource::new(&samples);
        let opts = StreamOptions::new(60).with_chunk(16);
        let metered = stream_recover_byte(&attack, &mut source, 2, &opts).unwrap();
        let mut source = SliceSource::new(&samples);
        let unmetered = stream_recover_byte(&plain, &mut source, 2, &opts).unwrap();
        assert_eq!(metered, unmetered, "metrics must not perturb the recovery");
        let snap = registry.snapshot();
        // One checkpoint every 60 / 16 = 3 samples.
        assert_eq!(snap.counters["attack.stream.checkpoints"], 20);
        assert_eq!(snap.counters["attack.samples_correlated"], 256 * 60);
        assert_eq!(snap.counters["span.attack.stream_byte.calls"], 1);
        assert_eq!(snap.gauges["attack.stream.samples"], 60);
    }
}
