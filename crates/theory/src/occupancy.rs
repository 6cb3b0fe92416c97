//! The occupancy distribution 𝔑(m, n) of the paper's Definition 1: the
//! number of coalesced accesses when `m` threads each access one of `n`
//! memory blocks uniformly at random.

use crate::stirling::{factorial, stirling2};

/// The distribution of the number of occupied blocks when `m` uniform
/// threads hit `n` blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct Occupancy {
    /// `pmf[i]` = P(exactly `i` distinct blocks are accessed).
    pmf: Vec<f64>,
}

impl Occupancy {
    /// Builds the distribution by dynamic programming on the thread
    /// count: adding one thread keeps the occupancy with probability
    /// `i/n` and grows it with probability `(n-i)/n`. Numerically stable
    /// for any `m`, `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(m: usize, n: usize) -> Self {
        assert!(n > 0, "occupancy needs at least one block");
        let mut pmf = vec![0.0f64; m + 1];
        pmf[0] = 1.0;
        for _ in 0..m {
            let mut next = vec![0.0f64; m + 1];
            for i in 0..=m.min(n) {
                let p = pmf[i];
                if p == 0.0 {
                    continue;
                }
                next[i] += p * i as f64 / n as f64;
                if i < m {
                    next[i + 1] += p * (n - i) as f64 / n as f64;
                }
            }
            pmf = next;
        }
        Occupancy { pmf }
    }

    /// Definition 1's closed form:
    /// `P(𝔑 = i) = n!/(n-i)! · S(m, i) / n^m`, with `S` the Stirling
    /// number of the second kind. Exists to cross-check [`Occupancy::new`].
    pub fn from_stirling(m: usize, n: usize) -> Self {
        assert!(n > 0, "occupancy needs at least one block");
        let log_nm = (n as f64).ln() * m as f64;
        let pmf = (0..=m)
            .map(|i| {
                if i > n || i > m {
                    return 0.0;
                }
                // n!/(n-i)! · S(m,i) / n^m, computed in log space to keep
                // m = 32, n = 16 within range.
                let perm = factorial(n) / factorial(n - i);
                let s = stirling2(m, i);
                if s == 0.0 || perm == 0.0 {
                    0.0
                } else {
                    (perm.ln() + s.ln() - log_nm).exp()
                }
            })
            .collect();
        Occupancy { pmf }
    }

    /// P(𝔑 = i).
    pub fn p(&self, i: usize) -> f64 {
        self.pmf.get(i).copied().unwrap_or(0.0)
    }

    /// The probability mass function.
    pub fn pmf(&self) -> &[f64] {
        &self.pmf
    }

    /// `E[𝔑]`.
    pub fn mean(&self) -> f64 {
        self.pmf.iter().enumerate().map(|(i, p)| i as f64 * p).sum()
    }

    /// `E[𝔑²]`.
    pub fn second_moment(&self) -> f64 {
        self.pmf
            .iter()
            .enumerate()
            .map(|(i, p)| (i * i) as f64 * p)
            .sum()
    }

    /// `Var[𝔑]`.
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        (self.second_moment() - m * m).max(0.0)
    }
}

/// Closed-form mean of 𝔑(m, n): `n · (1 − (1 − 1/n)^m)`.
pub fn occupancy_mean(m: usize, n: usize) -> f64 {
    assert!(n > 0, "occupancy needs at least one block");
    n as f64 * (1.0 - (1.0 - 1.0 / n as f64).powi(m as i32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pmf_sums_to_one() {
        for (m, n) in [(1, 16), (4, 4), (32, 16), (32, 1), (8, 100)] {
            let d = Occupancy::new(m, n);
            let sum: f64 = d.pmf().iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "m={m}, n={n}: sum={sum}");
        }
    }

    #[test]
    fn dp_matches_stirling_closed_form() {
        for (m, n) in [(2, 16), (4, 16), (8, 16), (16, 16), (32, 16), (5, 3)] {
            let dp = Occupancy::new(m, n);
            let st = Occupancy::from_stirling(m, n);
            for i in 0..=m {
                assert!(
                    (dp.p(i) - st.p(i)).abs() < 1e-10,
                    "m={m}, n={n}, i={i}: dp={}, stirling={}",
                    dp.p(i),
                    st.p(i)
                );
            }
        }
    }

    #[test]
    fn mean_matches_closed_form() {
        for (m, n) in [(1, 16), (4, 16), (32, 16), (10, 7)] {
            let d = Occupancy::new(m, n);
            assert!(
                (d.mean() - occupancy_mean(m, n)).abs() < 1e-10,
                "m={m}, n={n}"
            );
        }
    }

    #[test]
    fn one_thread_one_access() {
        let d = Occupancy::new(1, 16);
        assert!((d.p(1) - 1.0).abs() < 1e-15);
        assert!(d.variance() < 1e-15);
    }

    #[test]
    fn one_block_always_one_access() {
        let d = Occupancy::new(32, 1);
        assert!((d.p(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_configuration_mean() {
        // N = 32 threads over R = 16 blocks: E[accesses] ≈ 13.92. This is
        // the baseline last-round per-byte access count.
        let d = Occupancy::new(32, 16);
        assert!((d.mean() - 13.97).abs() < 0.01, "mean = {}", d.mean());
        assert!(d.variance() > 0.5 && d.variance() < 2.0);
    }

    #[test]
    fn occupancy_cannot_exceed_either_bound() {
        let d = Occupancy::new(32, 16);
        for i in 17..=32 {
            assert_eq!(d.p(i), 0.0, "cannot occupy more than 16 blocks");
        }
        assert_eq!(d.p(0), 0.0, "at least one block is occupied");
    }
}
