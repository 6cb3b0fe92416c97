//! The arithmetic of the two leakage estimators — Welch's t-test and
//! binned mutual information with Miller–Madow bias correction — over
//! the sufficient statistics [`crate::StreamingChannelTest`] keeps.
//!
//! Both are deliberately plain: class moments and fixed equal-width
//! binning, no randomness, no iteration-order dependence — so a
//! [`crate::LeakageReport`] built from thread-count-invariant inputs is
//! itself bit-identical across thread counts. `rcoal-conformance`
//! checks them against slice estimators written from the textbook
//! formulas.

/// Cap applied to the t-statistic when the pooled standard error
/// underflows (two internally-constant classes with different means).
/// Keeps the report JSON finite while still reading as "off the chart".
pub const T_CLAMP: f64 = 1e6;

/// Result of Welch's unequal-variance t-test between two classes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WelchT {
    /// The t-statistic, `mean_high - mean_low` over the pooled standard
    /// error. `0.0` when either class has fewer than two observations.
    pub t: f64,
    /// Welch–Satterthwaite degrees of freedom (0.0 when degenerate).
    pub dof: f64,
    /// Observations in the low class.
    pub n_low: usize,
    /// Observations in the high class.
    pub n_high: usize,
    /// Mean of the low class.
    pub mean_low: f64,
    /// Mean of the high class.
    pub mean_high: f64,
}

impl WelchT {
    /// Whether `|t|` meets the TVLA-style decision threshold.
    pub fn exceeds(&self, threshold: f64) -> bool {
        self.t.abs() >= threshold
    }
}

/// Welch's two-sample t-test (unequal variances, unequal sizes) from
/// class counts, means, and unbiased variances.
///
/// Degenerate inputs degrade gracefully rather than erroring: a class
/// with fewer than two observations yields `t = 0` (no evidence either
/// way), and two zero-variance classes with distinct means clamp to
/// [`T_CLAMP`] (unbounded evidence).
pub(crate) fn welch_from_moments(
    n_low: usize,
    mean_low: f64,
    var_low: f64,
    n_high: usize,
    mean_high: f64,
    var_high: f64,
) -> WelchT {
    let mut out = WelchT {
        t: 0.0,
        dof: 0.0,
        n_low,
        n_high,
        mean_low,
        mean_high,
    };
    if n_low < 2 || n_high < 2 {
        return out;
    }
    let se_low = var_low / n_low as f64;
    let se_high = var_high / n_high as f64;
    let se2 = se_low + se_high;
    let diff = mean_high - mean_low;
    if se2 <= 0.0 {
        out.t = if diff == 0.0 {
            0.0
        } else {
            T_CLAMP * diff.signum()
        };
        return out;
    }
    out.t = (diff / se2.sqrt()).clamp(-T_CLAMP, T_CLAMP);
    let denom = se_low * se_low / (n_low - 1) as f64 + se_high * se_high / (n_high - 1) as f64;
    out.dof = if denom > 0.0 { se2 * se2 / denom } else { 0.0 };
    out
}

/// A binned mutual-information estimate I(X; Y).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MiEstimate {
    /// Plug-in (maximum-likelihood) estimate, in bits. Biased upward
    /// for finite samples.
    pub bits: f64,
    /// Miller–Madow first-order bias of the plug-in estimate, in bits.
    pub bias_bits: f64,
    /// Bias-corrected estimate, clamped at zero:
    /// `max(0, bits - bias_bits)`.
    pub corrected_bits: f64,
    /// Occupied bins along X.
    pub x_bins: usize,
    /// Occupied bins along Y.
    pub y_bins: usize,
    /// Number of paired observations.
    pub n: usize,
}

/// Equal-width bin index of `x` in `[min, max]` split into `bins` bins.
pub(crate) fn bin_of(x: f64, min: f64, max: f64, bins: usize) -> usize {
    if max <= min || bins <= 1 {
        return 0;
    }
    let f = (x - min) / (max - min);
    ((f * bins as f64) as usize).min(bins - 1)
}

/// Binned mutual information, in bits, with Miller–Madow bias
/// correction, folded over already-binned histograms (`joint` is
/// `x_bins × y_bins`, row-major by x).
///
/// The plug-in estimate overstates dependence by roughly
/// `(occupied_joint - occupied_x - occupied_y + 1) / (2 n ln 2)` bits
/// (Miller–Madow); `corrected_bits` subtracts that and clamps at zero,
/// so independent streams report ≈ 0 instead of a spurious positive
/// floor. The fold visits `(bx, by)` cells in a fixed order, so equal
/// histograms give bit-identical estimates.
pub(crate) fn mi_from_histograms(joint: &[u64], mx: &[u64], my: &[u64], n: usize) -> MiEstimate {
    let (x_bins, y_bins) = (mx.len(), my.len());
    let nf = n as f64;
    let mut bits = 0.0;
    let mut occupied_joint = 0usize;
    for bx in 0..x_bins {
        for by in 0..y_bins {
            let c = joint[bx * y_bins + by];
            if c == 0 {
                continue;
            }
            occupied_joint += 1;
            let p_xy = c as f64 / nf;
            let p_x = mx[bx] as f64 / nf;
            let p_y = my[by] as f64 / nf;
            bits += p_xy * (p_xy / (p_x * p_y)).log2();
        }
    }
    let occ_x = mx.iter().filter(|&&c| c > 0).count();
    let occ_y = my.iter().filter(|&&c| c > 0).count();
    // Miller–Madow: bias(I) = bias(Hx) + bias(Hy) - bias(Hxy), each
    // bias(H) ≈ (occupied - 1) / (2 n ln 2).
    let bias_bits = ((occupied_joint as f64 - occ_x as f64 - occ_y as f64 + 1.0)
        / (2.0 * nf * std::f64::consts::LN_2))
        .max(0.0);
    MiEstimate {
        bits: bits.max(0.0),
        bias_bits,
        corrected_bits: (bits - bias_bits).max(0.0),
        x_bins: occ_x,
        y_bins: occ_y,
        n,
    }
}

pub(crate) fn min_max(xs: &[f64]) -> (f64, f64) {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &x in xs {
        min = min.min(x);
        max = max.max(x);
    }
    (min, max)
}
