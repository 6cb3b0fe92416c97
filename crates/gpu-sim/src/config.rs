/// Warp scheduling policy of each SM's schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerPolicy {
    /// Greedy-then-oldest: keep issuing from the warp issued last; fall
    /// back to the oldest ready warp (GPGPU-Sim's default, and ours).
    #[default]
    Gto,
    /// Loose round-robin: rotate the scan start across warps each cycle,
    /// spreading issue slots evenly.
    Lrr,
}

/// GDDR5 bank timing parameters in memory-clock cycles, following the
/// Hynix GDDR5 datasheet values listed in the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramTiming {
    /// CAS latency: read command to first data beat.
    pub t_cl: u32,
    /// Row precharge time.
    pub t_rp: u32,
    /// Activate-to-activate delay for the same bank (row cycle time).
    pub t_rc: u32,
    /// Activate-to-precharge minimum for a bank.
    pub t_ras: u32,
    /// Column-to-column delay (burst gap on the data bus).
    pub t_ccd: u32,
    /// Activate-to-read delay (RAS-to-CAS).
    pub t_rcd: u32,
    /// Activate-to-activate delay across banks of the same controller.
    pub t_rrd: u32,
}

impl Default for DramTiming {
    /// Table I: `tCL = 12, tRP = 12, tRC = 40, tRAS = 28, tCCD = 2,
    /// tRCD = 12, tRRD = 6`.
    fn default() -> Self {
        DramTiming {
            t_cl: 12,
            t_rp: 12,
            t_rc: 40,
            t_ras: 28,
            t_ccd: 2,
            t_rcd: 12,
            t_rrd: 6,
        }
    }
}

/// Full simulated-GPU configuration, mirroring the paper's Table I.
///
/// `GpuConfig::default()` is the paper's configuration; tests shrink it
/// (fewer SMs, smaller warps) for speed where the full machine is not the
/// point.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors (15).
    pub num_sms: usize,
    /// Threads per warp (32).
    pub warp_size: usize,
    /// Warp schedulers per SM; bounds instructions issued per SM per cycle
    /// (2, i.e. SIMT width 32 arranged 16 × 2).
    pub warp_schedulers: usize,
    /// Core clock in MHz (1400). The crossbars run on it too: Table I
    /// clocks the interconnect at the same 1400 MHz.
    pub core_clock_mhz: u32,
    /// Memory clock in MHz (924).
    pub mem_clock_mhz: u32,
    /// Number of GDDR5 memory controllers / partitions (6).
    pub num_mem_controllers: usize,
    /// DRAM banks per controller (16).
    pub banks_per_mc: usize,
    /// Bank groups per controller (4).
    pub bank_groups_per_mc: usize,
    /// Linear address space is interleaved among partitions in chunks of
    /// this many bytes (256).
    pub interleave_bytes: u64,
    /// DRAM row (page) size per bank in bytes.
    pub row_size_bytes: u64,
    /// Coalescing granularity / memory transaction size in bytes (64: the
    /// attack model maps 16 consecutive 4-byte table elements per block).
    pub block_size: u64,
    /// GDDR5 bank timing.
    pub dram_timing: DramTiming,
    /// Memory-clock cycles occupied on the data bus per block transfer.
    pub burst_cycles: u32,
    /// One-way interconnect latency in core cycles.
    pub icnt_latency: u32,
    /// Requests each SM may inject per interconnect cycle.
    pub icnt_injection_rate: usize,
    /// Requests each memory controller may accept per interconnect cycle.
    pub icnt_ejection_rate: usize,
    /// Warp scheduling policy.
    pub scheduler: SchedulerPolicy,
    /// L1 data-cache sets per SM; `0` disables the L1 entirely — the
    /// paper's configuration (§VII disables caches; the attacked GPUs
    /// bypass L1 for global loads).
    pub l1_sets: usize,
    /// L1 associativity (ways per set); ignored when `l1_sets == 0`.
    pub l1_ways: usize,
    /// Miss-status-holding-register entries per SM. `0` disables MSHR
    /// merging — the paper's configuration (§VII: MSHRs are disabled so
    /// the intra-warp coalescer is the only merge point). When enabled,
    /// outstanding requests to the same memory block from the same SM
    /// merge instead of issuing duplicate network requests.
    pub mshr_entries: usize,
    /// Pipeline cycles to issue one warp instruction.
    pub issue_cycles: u32,
    /// Upper bound on simulated core cycles before [`crate::SimError::CycleLimit`]
    /// aborts a runaway simulation.
    pub max_cycles: u64,
    /// Forward-progress watchdog window in core cycles: if this many
    /// cycles elapse with no instruction issued, no reply drained, no
    /// warp executing and no reply awaiting release, the run aborts with
    /// [`crate::SimError::Stalled`] instead of burning to `max_cycles`.
    /// `0` disables the windowed backstop (the exact livelock detector —
    /// quiescent machine with unfinished warps — stays on regardless).
    pub watchdog_window: u64,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            num_sms: 15,
            warp_size: 32,
            warp_schedulers: 2,
            core_clock_mhz: 1400,
            mem_clock_mhz: 924,
            num_mem_controllers: 6,
            banks_per_mc: 16,
            bank_groups_per_mc: 4,
            interleave_bytes: 256,
            row_size_bytes: 2048,
            block_size: 64,
            dram_timing: DramTiming::default(),
            burst_cycles: 2,
            icnt_latency: 8,
            icnt_injection_rate: 1,
            icnt_ejection_rate: 1,
            scheduler: SchedulerPolicy::Gto,
            l1_sets: 0,
            l1_ways: 4,
            mshr_entries: 0,
            issue_cycles: 1,
            max_cycles: 500_000_000,
            watchdog_window: 100_000,
        }
    }
}

impl GpuConfig {
    /// The paper's simulated configuration (alias for [`Default::default`]).
    pub fn paper() -> Self {
        Self::default()
    }

    /// A deliberately small configuration for fast unit tests: one SM, one
    /// memory controller, 4-thread warps.
    pub fn tiny() -> Self {
        GpuConfig {
            num_sms: 1,
            warp_size: 4,
            num_mem_controllers: 1,
            banks_per_mc: 4,
            bank_groups_per_mc: 2,
            ..Self::default()
        }
    }

    /// Converts a duration in memory cycles into core cycles (rounded up).
    pub fn mem_to_core_cycles(&self, mem_cycles: u64) -> u64 {
        let scaled =
            mem_cycles as f64 * f64::from(self.core_clock_mhz) / f64::from(self.mem_clock_mhz);
        scaled.ceil() as u64
    }

    /// Validates structural invariants the simulator relies on.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_sms == 0 {
            return Err("num_sms must be positive".into());
        }
        if self.warp_size == 0 || self.warp_size > 64 {
            return Err("warp_size must be in 1..=64".into());
        }
        if self.num_mem_controllers == 0 {
            return Err("num_mem_controllers must be positive".into());
        }
        if self.banks_per_mc == 0 || self.bank_groups_per_mc == 0 {
            return Err("banks and bank groups must be positive".into());
        }
        if !self.banks_per_mc.is_multiple_of(self.bank_groups_per_mc) {
            return Err("bank_groups_per_mc must divide banks_per_mc".into());
        }
        if !self.interleave_bytes.is_power_of_two()
            || !self.row_size_bytes.is_power_of_two()
            || !self.block_size.is_power_of_two()
        {
            return Err("interleave, row size and block size must be powers of two".into());
        }
        if self.block_size > self.interleave_bytes {
            return Err("block_size must not exceed interleave_bytes".into());
        }
        if self.core_clock_mhz == 0 || self.mem_clock_mhz == 0 {
            return Err("clock frequencies must be positive".into());
        }
        if self.icnt_injection_rate == 0 || self.icnt_ejection_rate == 0 {
            return Err("interconnect injection and ejection rates must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_1() {
        let c = GpuConfig::default();
        assert_eq!(c.num_sms, 15);
        assert_eq!(c.warp_size, 32);
        assert_eq!(c.num_mem_controllers, 6);
        assert_eq!(c.banks_per_mc, 16);
        assert_eq!(c.bank_groups_per_mc, 4);
        assert_eq!(c.interleave_bytes, 256);
        assert_eq!(c.core_clock_mhz, 1400);
        assert_eq!(c.mem_clock_mhz, 924);
        let t = c.dram_timing;
        assert_eq!(
            (t.t_cl, t.t_rp, t.t_rc, t.t_ras, t.t_ccd, t.t_rcd, t.t_rrd),
            (12, 12, 40, 28, 2, 12, 6)
        );
        c.validate().unwrap();
    }

    #[test]
    fn tiny_validates() {
        GpuConfig::tiny().validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_configs() {
        let bad = [
            GpuConfig {
                num_sms: 0,
                ..GpuConfig::default()
            },
            GpuConfig {
                block_size: 48,
                ..GpuConfig::default()
            },
            // block larger than the interleave chunk:
            GpuConfig {
                block_size: 512,
                ..GpuConfig::default()
            },
            GpuConfig {
                bank_groups_per_mc: 5,
                ..GpuConfig::default()
            },
            GpuConfig {
                warp_size: 0,
                ..GpuConfig::default()
            },
            GpuConfig {
                icnt_injection_rate: 0,
                ..GpuConfig::default()
            },
            GpuConfig {
                icnt_ejection_rate: 0,
                ..GpuConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?}");
        }
    }

    #[test]
    fn scheduler_default_is_gto() {
        assert_eq!(GpuConfig::default().scheduler, SchedulerPolicy::Gto);
        assert_eq!(SchedulerPolicy::default(), SchedulerPolicy::Gto);
    }

    #[test]
    fn mshrs_default_off_per_the_paper() {
        assert_eq!(GpuConfig::default().mshr_entries, 0);
    }

    #[test]
    fn l1_defaults_off_per_the_paper() {
        assert_eq!(GpuConfig::default().l1_sets, 0);
    }

    #[test]
    fn clock_conversion() {
        let c = GpuConfig::default();
        // 924 mem cycles take 1400 core cycles.
        assert_eq!(c.mem_to_core_cycles(924), 1400);
        assert_eq!(c.mem_to_core_cycles(0), 0);
    }
}
