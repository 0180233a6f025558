//! The co-location machine model: private L1/L2 per core, a shared L3,
//! in-order cores.
//!
//! This mirrors the paper's Table I testbed (AMD Opteron 6174): each
//! core owns a 64 KiB L1 and a 512 KiB L2; co-located workloads contend
//! only in the shared last-level cache and memory. That topology is the
//! deep reason Table I is so flat — the reported metrics are *private
//! L2* statistics, which a co-runner can only disturb indirectly, and a
//! scale-out workload's cold footprint misses past the L3 regardless of
//! who its neighbour is.
//!
//! Per-workload cost accounting follows the classic in-order model:
//!
//! ```text
//! CPI = base_cpi + refs/instr · ( P(L1 miss, L2 hit) · l2_hit_cycles
//!                               + P(L2 miss, L3 hit) · l3_hit_cycles
//!                               + P(L3 miss)         · mem_cycles )
//! ```
//!
//! Reported metrics match Table I's columns: IPC, L2 MPKI
//! (misses / kilo-instruction) and L2 miss rate.

use crate::cache::{Access, Cache, CacheConfig};
use crate::stream::{AddressStream, StreamProfile};
use crate::MicroarchError;

/// Table I's per-workload metrics (plus L3 diagnostics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadMetrics {
    /// Instructions per cycle.
    pub ipc: f64,
    /// Private-L2 misses per 1000 instructions.
    pub l2_mpki: f64,
    /// Private-L2 miss rate over L2 accesses, in `[0, 1]`.
    pub l2_miss_rate: f64,
    /// Shared-L3 misses per 1000 instructions.
    pub l3_mpki: f64,
    /// Shared-L3 miss rate over L3 accesses, in `[0, 1]`.
    pub l3_miss_rate: f64,
    /// Instructions simulated.
    pub instructions: u64,
}

/// Machine configuration: cache hierarchy and penalty cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Private L1 geometry (one per workload).
    pub l1: CacheConfig,
    /// Private L2 geometry (one per workload).
    pub l2: CacheConfig,
    /// Shared L3 geometry.
    pub l3: CacheConfig,
    /// L1-miss/L2-hit service latency in cycles.
    pub l2_hit_cycles: f64,
    /// L2-miss/L3-hit service latency in cycles.
    pub l3_hit_cycles: f64,
    /// L3-miss/memory service latency in cycles.
    pub mem_cycles: f64,
    /// Instructions per interleave quantum when co-located.
    pub quantum_instructions: u64,
    /// Instructions executed before measurement starts (caches warm up,
    /// then all counters reset). Compulsory misses would otherwise
    /// dominate short runs.
    pub warmup_instructions: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            l1: CacheConfig::l1_opteron(),
            l2: CacheConfig::l2_opteron(),
            // One die of the Opteron 6174 package: 6 MiB L3 minus the
            // HT-Assist probe filter, rounded to a power-of-two set count.
            l3: CacheConfig {
                size_bytes: 4 * 1024 * 1024,
                line_bytes: 64,
                ways: 16,
            },
            l2_hit_cycles: 12.0,
            l3_hit_cycles: 45.0,
            mem_cycles: 200.0,
            quantum_instructions: 1000,
            warmup_instructions: 1_000_000,
        }
    }
}

/// The co-location simulator.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
}

impl Machine {
    /// Builds a machine.
    ///
    /// # Errors
    ///
    /// Returns geometry errors from the cache configs and
    /// [`MicroarchError::InvalidParameter`] for non-increasing
    /// latencies or a zero quantum.
    pub fn new(config: MachineConfig) -> crate::Result<Self> {
        Cache::new(config.l1)?;
        Cache::new(config.l2)?;
        Cache::new(config.l3)?;
        let increasing = config.l2_hit_cycles > 0.0
            && config.l3_hit_cycles > config.l2_hit_cycles
            && config.mem_cycles > config.l3_hit_cycles;
        if !increasing {
            return Err(MicroarchError::InvalidParameter(
                "latencies must satisfy 0 < l2_hit < l3_hit < mem",
            ));
        }
        if config.quantum_instructions == 0 {
            return Err(MicroarchError::InvalidParameter(
                "quantum must be >= 1 instruction",
            ));
        }
        Ok(Self { config })
    }

    /// An AMD-Opteron-6174-flavoured machine (the paper's Table I
    /// testbed): private 64 KiB L1 and 512 KiB L2 per workload, shared
    /// 4 MiB L3.
    ///
    /// # Errors
    ///
    /// Never fails in practice; the signature matches [`Machine::new`].
    pub fn opteron_like() -> crate::Result<Self> {
        Self::new(MachineConfig::default())
    }

    /// The configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Runs one workload alone for `instructions` instructions.
    ///
    /// # Errors
    ///
    /// Propagates profile validation errors.
    pub fn run_solo(
        &self,
        profile: &StreamProfile,
        instructions: u64,
        seed: u64,
    ) -> crate::Result<WorkloadMetrics> {
        let mut ctx = WorkloadContext::new(profile, 0, seed, &self.config)?;
        let mut l3 = Cache::new(self.config.l3)?;
        let warm_quanta = self
            .config
            .warmup_instructions
            .div_ceil(self.config.quantum_instructions);
        for _ in 0..warm_quanta {
            ctx.run_quantum(self.config.quantum_instructions, &mut l3, &self.config);
        }
        ctx.reset_counters();
        l3.reset_counters();
        let quanta = instructions.div_ceil(self.config.quantum_instructions);
        for _ in 0..quanta {
            ctx.run_quantum(self.config.quantum_instructions, &mut l3, &self.config);
        }
        Ok(ctx.metrics())
    }

    /// Runs `primary` and `corunner` interleaved on the shared L3 until
    /// the primary has executed `instructions` instructions (the
    /// co-runner executes the same quantum count). Returns
    /// `(primary, corunner)` metrics.
    ///
    /// # Errors
    ///
    /// Propagates profile validation errors.
    pub fn run_pair(
        &self,
        primary: &StreamProfile,
        corunner: &StreamProfile,
        instructions: u64,
        seed: u64,
    ) -> crate::Result<(WorkloadMetrics, WorkloadMetrics)> {
        // Distinct address-space bases: workloads never share lines.
        let mut a = WorkloadContext::new(primary, 0, seed, &self.config)?;
        let mut b = WorkloadContext::new(corunner, 1 << 44, seed ^ 0x9E37, &self.config)?;
        let mut l3 = Cache::new(self.config.l3)?;
        let warm_quanta = self
            .config
            .warmup_instructions
            .div_ceil(self.config.quantum_instructions);
        for _ in 0..warm_quanta {
            a.run_quantum(self.config.quantum_instructions, &mut l3, &self.config);
            b.run_quantum(self.config.quantum_instructions, &mut l3, &self.config);
        }
        a.reset_counters();
        b.reset_counters();
        l3.reset_counters();
        let quanta = instructions.div_ceil(self.config.quantum_instructions);
        for _ in 0..quanta {
            a.run_quantum(self.config.quantum_instructions, &mut l3, &self.config);
            b.run_quantum(self.config.quantum_instructions, &mut l3, &self.config);
        }
        Ok((a.metrics(), b.metrics()))
    }

    /// Convenience for Table I: metrics of `primary` running alone and
    /// next to each co-runner, as `(solo, Vec<(corunner_name, paired)>)`.
    ///
    /// # Errors
    ///
    /// Propagates profile validation errors.
    pub fn colocation_study(
        &self,
        primary: &StreamProfile,
        corunners: &[StreamProfile],
        instructions: u64,
        seed: u64,
    ) -> crate::Result<(WorkloadMetrics, Vec<(String, WorkloadMetrics)>)> {
        let solo = self.run_solo(primary, instructions, seed)?;
        let mut paired = Vec::with_capacity(corunners.len());
        for co in corunners {
            let (p, _) = self.run_pair(primary, co, instructions, seed)?;
            paired.push((co.name.clone(), p));
        }
        Ok((solo, paired))
    }
}

/// One workload's private state: stream, private caches, accounting.
struct WorkloadContext {
    stream: AddressStream,
    l1: Cache,
    l2: Cache,
    refs_per_instr: f64,
    base_cpi: f64,
    instructions: u64,
    l3_accesses: u64,
    l3_misses: u64,
    cycles: f64,
    /// Fractional carry of memory references between quanta.
    ref_carry: f64,
}

impl WorkloadContext {
    fn new(
        profile: &StreamProfile,
        base: u64,
        seed: u64,
        config: &MachineConfig,
    ) -> crate::Result<Self> {
        Ok(Self {
            stream: AddressStream::new(profile.clone(), base, seed)?,
            l1: Cache::new(config.l1)?,
            l2: Cache::new(config.l2)?,
            refs_per_instr: profile.refs_per_kilo_instr / 1000.0,
            base_cpi: profile.base_cpi,
            instructions: 0,
            l3_accesses: 0,
            l3_misses: 0,
            cycles: 0.0,
            ref_carry: 0.0,
        })
    }

    /// Clears measurement counters after warm-up (cache contents stay).
    fn reset_counters(&mut self) {
        self.instructions = 0;
        self.l3_accesses = 0;
        self.l3_misses = 0;
        self.cycles = 0.0;
        self.l1.reset_counters();
        self.l2.reset_counters();
    }

    fn run_quantum(&mut self, instructions: u64, l3: &mut Cache, config: &MachineConfig) {
        let want = instructions as f64 * self.refs_per_instr + self.ref_carry;
        let refs = want.floor() as u64;
        self.ref_carry = want - refs as f64;
        self.instructions += instructions;
        self.cycles += instructions as f64 * self.base_cpi;
        for _ in 0..refs {
            let addr = self.stream.next_address();
            if self.l1.access(addr) == Access::Hit {
                continue;
            }
            if self.l2.access(addr) == Access::Hit {
                self.cycles += config.l2_hit_cycles;
                continue;
            }
            self.l3_accesses += 1;
            match l3.access(addr) {
                Access::Hit => self.cycles += config.l3_hit_cycles,
                Access::Miss => {
                    self.l3_misses += 1;
                    self.cycles += config.mem_cycles;
                }
            }
        }
    }

    fn metrics(&self) -> WorkloadMetrics {
        let instr = self.instructions as f64;
        WorkloadMetrics {
            ipc: if self.cycles > 0.0 {
                instr / self.cycles
            } else {
                0.0
            },
            l2_mpki: if self.instructions > 0 {
                self.l2.misses() as f64 * 1000.0 / instr
            } else {
                0.0
            },
            l2_miss_rate: self.l2.miss_rate(),
            l3_mpki: if self.instructions > 0 {
                self.l3_misses as f64 * 1000.0 / instr
            } else {
                0.0
            },
            l3_miss_rate: if self.l3_accesses > 0 {
                self.l3_misses as f64 / self.l3_accesses as f64
            } else {
                0.0
            },
            instructions: self.instructions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INSTR: u64 = 1_500_000;

    #[test]
    fn machine_validation() {
        let base = MachineConfig::default();
        let cfg = MachineConfig {
            l2_hit_cycles: 0.0,
            ..base
        };
        assert!(Machine::new(cfg).is_err());
        let cfg = MachineConfig {
            l3_hit_cycles: base.l2_hit_cycles,
            ..base
        };
        assert!(Machine::new(cfg).is_err());
        let cfg = MachineConfig {
            mem_cycles: base.l3_hit_cycles,
            ..base
        };
        assert!(Machine::new(cfg).is_err());
        let cfg = MachineConfig {
            quantum_instructions: 0,
            ..base
        };
        assert!(Machine::new(cfg).is_err());
        assert!(Machine::opteron_like().is_ok());
    }

    #[test]
    fn metrics_are_plausible_for_web_search() {
        let m = Machine::opteron_like().unwrap();
        let ws = m.run_solo(&StreamProfile::web_search(), INSTR, 1).unwrap();
        // Table I ballpark: IPC ~0.7-0.8, MPKI a few, L2 miss ~11%.
        assert!(ws.ipc > 0.45 && ws.ipc < 1.1, "ipc {}", ws.ipc);
        assert!(ws.l2_mpki > 0.8 && ws.l2_mpki < 10.0, "mpki {}", ws.l2_mpki);
        assert!(
            ws.l2_miss_rate > 0.04 && ws.l2_miss_rate < 0.35,
            "miss rate {}",
            ws.l2_miss_rate
        );
        assert_eq!(ws.instructions, INSTR);
    }

    #[test]
    fn web_search_is_insensitive_to_corunners() {
        // The paper's Table I claim: IPC/L2 metrics barely move.
        let m = Machine::opteron_like().unwrap();
        let solo = m.run_solo(&StreamProfile::web_search(), INSTR, 1).unwrap();
        for co in StreamProfile::parsec_corunners() {
            let (paired, _) = m
                .run_pair(&StreamProfile::web_search(), &co, INSTR, 1)
                .unwrap();
            let ipc_delta = (paired.ipc - solo.ipc).abs() / solo.ipc;
            assert!(ipc_delta < 0.06, "{}: ipc delta {ipc_delta}", co.name);
            let mpki_delta = (paired.l2_mpki - solo.l2_mpki).abs() / solo.l2_mpki;
            assert!(mpki_delta < 0.10, "{}: l2 mpki delta {mpki_delta}", co.name);
        }
    }

    #[test]
    fn cache_resident_workload_is_hurt_by_canneal() {
        // The contrast case: sharing is NOT free for workloads whose
        // working set lives in the shared cache — exactly why the
        // paper's argument needs the large-working-set premise.
        let m = Machine::opteron_like().unwrap();
        let solo = m
            .run_solo(&StreamProfile::cache_resident(), INSTR, 1)
            .unwrap();
        let (paired, _) = m
            .run_pair(
                &StreamProfile::cache_resident(),
                &StreamProfile::canneal(),
                INSTR,
                1,
            )
            .unwrap();
        let loss = (solo.ipc - paired.ipc) / solo.ipc;
        assert!(
            loss > 0.05,
            "cache-resident should lose >5% IPC next to canneal, lost {loss}"
        );
        assert!(paired.l3_miss_rate > solo.l3_miss_rate);
    }

    #[test]
    fn small_workloads_barely_interact() {
        let m = Machine::opteron_like().unwrap();
        let solo = m
            .run_solo(&StreamProfile::blackscholes(), INSTR, 1)
            .unwrap();
        let (paired, _) = m
            .run_pair(
                &StreamProfile::blackscholes(),
                &StreamProfile::swaptions(),
                INSTR,
                1,
            )
            .unwrap();
        let delta = (paired.ipc - solo.ipc).abs() / solo.ipc;
        assert!(delta < 0.1, "ipc delta {delta}");
    }

    #[test]
    fn runs_are_deterministic() {
        let m = Machine::opteron_like().unwrap();
        let a = m.run_solo(&StreamProfile::canneal(), 100_000, 9).unwrap();
        let b = m.run_solo(&StreamProfile::canneal(), 100_000, 9).unwrap();
        assert_eq!(a, b);
        let p1 = m
            .run_pair(
                &StreamProfile::canneal(),
                &StreamProfile::facesim(),
                100_000,
                9,
            )
            .unwrap();
        let p2 = m
            .run_pair(
                &StreamProfile::canneal(),
                &StreamProfile::facesim(),
                100_000,
                9,
            )
            .unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn colocation_study_covers_all_corunners() {
        let m = Machine::opteron_like().unwrap();
        let (solo, paired) = m
            .colocation_study(
                &StreamProfile::web_search(),
                &StreamProfile::parsec_corunners(),
                100_000,
                2,
            )
            .unwrap();
        assert_eq!(paired.len(), 4);
        assert!(solo.ipc > 0.0);
        for (name, metrics) in &paired {
            assert!(!name.is_empty());
            assert!(metrics.ipc > 0.0);
        }
    }

    #[test]
    fn higher_memory_intensity_lowers_ipc() {
        let m = Machine::opteron_like().unwrap();
        let mut light = StreamProfile::canneal();
        light.refs_per_kilo_instr = 50.0;
        let mut heavy = StreamProfile::canneal();
        heavy.refs_per_kilo_instr = 400.0;
        let l = m.run_solo(&light, 100_000, 3).unwrap();
        let h = m.run_solo(&heavy, 100_000, 3).unwrap();
        assert!(l.ipc > h.ipc);
    }
}
