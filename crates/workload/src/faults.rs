//! Server fault schedules — when each server of a fleet fails and
//! recovers.
//!
//! The consolidation policies this workspace reproduces deliberately
//! concentrate load onto few servers, which makes the resulting
//! schedule maximally exposed to hardware churn (cf. Nanduri et al.,
//! *Energy and SLA aware VM Scheduling*; Esfandiarpoor et al., *VM
//! Consolidation for Datacenter Energy Improvement*): aggressive
//! packing is only viable when the allocator can absorb capacity loss.
//! A [`FaultPlan`] is the injection side of that story — a
//! deterministic schedule of `ServerFail`/`ServerRecover` transitions
//! the replay engine interleaves with the VM lifecycle stream, built
//! from two classic ingredients:
//!
//! * **Per-server Poisson MTBF/MTTR** — each server alternates
//!   exponentially-distributed up and down intervals, independently of
//!   its neighbours.
//! * **Correlated whole-block outages** — an optional second process
//!   per server block (a rack, a power domain, a fleet class) that
//!   fails *every* server of the block at once and recovers them
//!   together, the failure mode independent per-server models cannot
//!   express.
//!
//! Everything is deterministic given a seed (see
//! [`cavm_trace::SimRng`]).
//!
//! # Example
//!
//! ```
//! use cavm_workload::faults::{FaultKind, FaultModel, FaultPlanBuilder};
//!
//! # fn main() -> Result<(), cavm_workload::WorkloadError> {
//! let horizon = 24 * 720; // 24 h of 5 s samples
//! let build = || {
//!     FaultPlanBuilder::new(horizon)
//!         .seed(13)
//!         .block(
//!             0,
//!             8,
//!             FaultModel {
//!                 mtbf_samples: 6_000.0,
//!                 mttr_samples: 400.0,
//!                 outage_mtbf_samples: Some(40_000.0),
//!                 outage_mttr_samples: 200.0,
//!             },
//!         )
//!         .build()
//! };
//! let plan = build()?;
//! assert_eq!(plan, build()?, "seeded plans are deterministic");
//! // Entries are globally ordered; every transition stays in range.
//! for pair in plan.entries().windows(2) {
//!     assert!(pair[0].sample <= pair[1].sample);
//! }
//! for entry in plan.entries() {
//!     assert!(entry.sample < horizon);
//!     assert!(entry.server < 8);
//!     let _ = matches!(entry.kind, FaultKind::Fail | FaultKind::Recover);
//! }
//! # Ok(())
//! # }
//! ```

use crate::WorkloadError;
use cavm_trace::SimRng;
use serde::{Deserialize, Serialize};

/// The direction of one server health transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The server goes down.
    Fail,
    /// The server comes back.
    Recover,
}

impl FaultKind {
    /// Within-sample delivery rank: recoveries apply before failures
    /// at the same instant, so a same-sample repair-then-refail
    /// sequence is expressible.
    fn rank(self) -> u8 {
        match self {
            FaultKind::Recover => 0,
            FaultKind::Fail => 1,
        }
    }
}

/// One scheduled health transition of one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEntry {
    /// Fine sample index at which the transition applies.
    pub sample: usize,
    /// What happens.
    pub kind: FaultKind,
    /// The affected server (fleet fill-order index).
    pub server: usize,
}

/// The failure behaviour of one server block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    /// Mean samples between independent failures of one server
    /// (exponentially distributed). Must be finite and positive.
    pub mtbf_samples: f64,
    /// Mean samples one independent failure takes to repair
    /// (exponentially distributed). Must be finite and positive.
    pub mttr_samples: f64,
    /// Mean samples between correlated whole-block outages, or `None`
    /// to disable the correlated process for this block.
    pub outage_mtbf_samples: Option<f64>,
    /// Mean samples a whole-block outage lasts. Only read when
    /// [`FaultModel::outage_mtbf_samples`] is set.
    pub outage_mttr_samples: f64,
}

/// A schedule of server health transitions over a fixed horizon.
///
/// Builder-made plans are globally ordered by `(sample, kind, server)`
/// with recoveries ranked before same-sample failures;
/// [`FaultPlan::from_entries`] preserves the caller's order verbatim
/// (the scenario layer validates monotonicity before replay, so a
/// hand-built plan with a backwards clock is rejected there with a
/// typed error instead of replaying out of order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    entries: Vec<FaultEntry>,
}

impl FaultPlan {
    /// Wraps explicit transitions (e.g. replayed from an incident
    /// log), preserving their order.
    pub fn from_entries(entries: Vec<FaultEntry>) -> Self {
        Self { entries }
    }

    /// A plan with no faults.
    pub fn empty() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// The transitions, in plan order.
    pub fn entries(&self) -> &[FaultEntry] {
        &self.entries
    }

    /// Number of transitions in the plan.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the plan schedules no transitions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The largest server index any transition touches.
    pub fn max_server(&self) -> Option<usize> {
        self.entries.iter().map(|e| e.server).max()
    }

    /// Scheduled `Fail` transitions (an idempotent replay may apply
    /// fewer — e.g. a correlated outage overlapping an independent
    /// failure).
    pub fn failures(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.kind == FaultKind::Fail)
            .count()
    }
}

/// One registered server block and its model.
#[derive(Debug, Clone, Copy)]
struct Block {
    first_server: usize,
    count: usize,
    model: FaultModel,
}

/// Deterministic [`FaultPlan`] synthesis. See the [module
/// docs](self).
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    horizon: usize,
    seed: u64,
    blocks: Vec<Block>,
}

impl FaultPlanBuilder {
    /// Starts a plan over `horizon` fine samples.
    pub fn new(horizon: usize) -> Self {
        Self {
            horizon,
            seed: 0,
            blocks: Vec::new(),
        }
    }

    /// Seeds the generator (default 0). Identical seeds and blocks
    /// produce identical plans.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Registers `count` servers starting at fill-order index
    /// `first_server`, all failing per `model`. Typically one block
    /// per fleet class (matching the fill order of the scenario's
    /// `ServerFleet`).
    pub fn block(mut self, first_server: usize, count: usize, model: FaultModel) -> Self {
        self.blocks.push(Block {
            first_server,
            count,
            model,
        });
        self
    }

    /// Builds the plan.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] for a zero horizon,
    /// an empty or overlapping block, or a non-positive/non-finite
    /// MTBF or MTTR.
    pub fn build(self) -> crate::Result<FaultPlan> {
        if self.horizon == 0 {
            return Err(WorkloadError::InvalidParameter(
                "fault plan horizon must be at least one sample",
            ));
        }
        let positive = |v: f64| v.is_finite() && v > 0.0;
        let mut spans: Vec<(usize, usize)> = Vec::new();
        for block in &self.blocks {
            if block.count == 0 {
                return Err(WorkloadError::InvalidParameter(
                    "fault block needs at least one server",
                ));
            }
            if !positive(block.model.mtbf_samples) || !positive(block.model.mttr_samples) {
                return Err(WorkloadError::InvalidParameter(
                    "fault mtbf/mttr must be finite and > 0",
                ));
            }
            if let Some(outage) = block.model.outage_mtbf_samples {
                if !positive(outage) || !positive(block.model.outage_mttr_samples) {
                    return Err(WorkloadError::InvalidParameter(
                        "outage mtbf/mttr must be finite and > 0",
                    ));
                }
            }
            spans.push((block.first_server, block.first_server + block.count));
        }
        spans.sort_unstable();
        if spans.windows(2).any(|w| w[1].0 < w[0].1) {
            return Err(WorkloadError::InvalidParameter(
                "fault blocks must not overlap",
            ));
        }

        let mut rng = SimRng::new(self.seed);
        let mut entries: Vec<FaultEntry> = Vec::new();
        // One alternating up/down renewal process; emits the
        // transitions that land inside the horizon.
        let renewal = |rng: &mut SimRng,
                       entries: &mut Vec<FaultEntry>,
                       servers: &[usize],
                       mtbf: f64,
                       mttr: f64|
         -> crate::Result<()> {
            let mut t = 0.0f64;
            loop {
                t += rng.exponential(1.0 / mtbf).map_err(WorkloadError::Trace)?;
                let fail_at = t.floor() as usize;
                if fail_at >= self.horizon {
                    return Ok(());
                }
                t += rng.exponential(1.0 / mttr).map_err(WorkloadError::Trace)?;
                // A repair must land strictly after its failure so the
                // down interval is visible on the sample grid.
                let recover_at = (t.floor() as usize).max(fail_at + 1);
                for &server in servers {
                    entries.push(FaultEntry {
                        sample: fail_at,
                        kind: FaultKind::Fail,
                        server,
                    });
                    if recover_at < self.horizon {
                        entries.push(FaultEntry {
                            sample: recover_at,
                            kind: FaultKind::Recover,
                            server,
                        });
                    }
                }
                if recover_at >= self.horizon {
                    return Ok(());
                }
                t = recover_at as f64;
            }
        };
        for block in &self.blocks {
            for server in block.first_server..block.first_server + block.count {
                renewal(
                    &mut rng,
                    &mut entries,
                    &[server],
                    block.model.mtbf_samples,
                    block.model.mttr_samples,
                )?;
            }
            if let Some(outage_mtbf) = block.model.outage_mtbf_samples {
                let servers: Vec<usize> =
                    (block.first_server..block.first_server + block.count).collect();
                renewal(
                    &mut rng,
                    &mut entries,
                    &servers,
                    outage_mtbf,
                    block.model.outage_mttr_samples,
                )?;
            }
        }
        // Global delivery order; recoveries precede same-sample
        // failures. Overlaps between the independent and correlated
        // processes are legitimate (the replay applies transitions
        // idempotently).
        entries.sort_by_key(|e| (e.sample, e.kind.rank(), e.server));
        Ok(FaultPlan { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> FaultModel {
        FaultModel {
            mtbf_samples: 500.0,
            mttr_samples: 60.0,
            outage_mtbf_samples: None,
            outage_mttr_samples: 1.0,
        }
    }

    #[test]
    fn seeded_plans_are_deterministic_and_ordered() {
        let build = || {
            FaultPlanBuilder::new(4_000)
                .seed(7)
                .block(0, 4, model())
                .build()
                .unwrap()
        };
        let plan = build();
        assert_eq!(plan, build());
        assert!(!plan.is_empty(), "4 servers over 8 MTBFs must fail");
        for pair in plan.entries().windows(2) {
            assert!(pair[0].sample <= pair[1].sample);
        }
        assert!(plan.max_server().unwrap() < 4);
        // Per server, transitions strictly alternate Fail → Recover.
        for server in 0..4 {
            let kinds: Vec<FaultKind> = plan
                .entries()
                .iter()
                .filter(|e| e.server == server)
                .map(|e| e.kind)
                .collect();
            for (i, kind) in kinds.iter().enumerate() {
                let expect = if i % 2 == 0 {
                    FaultKind::Fail
                } else {
                    FaultKind::Recover
                };
                assert_eq!(*kind, expect, "server {server} transition {i}");
            }
        }
    }

    #[test]
    fn correlated_outages_take_the_whole_block_down_together() {
        let plan = FaultPlanBuilder::new(50_000)
            .seed(3)
            .block(
                0,
                5,
                FaultModel {
                    // Independent failures effectively off (one MTBF
                    // far past the horizon), outages on.
                    mtbf_samples: 1e12,
                    mttr_samples: 1.0,
                    outage_mtbf_samples: Some(10_000.0),
                    outage_mttr_samples: 300.0,
                },
            )
            .build()
            .unwrap();
        assert!(!plan.is_empty(), "5 MTBFs of horizon must produce outages");
        // Every scheduled sample must carry transitions for all 5
        // servers of the block at once.
        for batch in plan.entries().chunk_by(|a, b| a.sample == b.sample) {
            let sample = batch[0].sample;
            assert_eq!(batch.len() % 5, 0, "whole-block transitions at {sample}");
        }
    }

    #[test]
    fn explicit_plans_count_their_transitions() {
        let plan = FaultPlan::from_entries(vec![
            FaultEntry {
                sample: 3,
                kind: FaultKind::Fail,
                server: 0,
            },
            FaultEntry {
                sample: 3,
                kind: FaultKind::Fail,
                server: 1,
            },
            FaultEntry {
                sample: 9,
                kind: FaultKind::Recover,
                server: 0,
            },
        ]);
        assert_eq!(plan.failures(), 2);
        assert_eq!(plan.max_server(), Some(1));
        assert_eq!(plan.len(), 3);
        assert!(FaultPlan::empty().is_empty());
    }

    #[test]
    fn builder_rejects_bad_parameters() {
        assert!(FaultPlanBuilder::new(0).build().is_err(), "zero horizon");
        assert!(
            FaultPlanBuilder::new(100)
                .block(0, 0, model())
                .build()
                .is_err(),
            "empty block"
        );
        assert!(
            FaultPlanBuilder::new(100)
                .block(0, 4, model())
                .block(2, 4, model())
                .build()
                .is_err(),
            "overlapping blocks"
        );
        let bad = FaultModel {
            mtbf_samples: 0.0,
            ..model()
        };
        assert!(
            FaultPlanBuilder::new(100).block(0, 1, bad).build().is_err(),
            "zero mtbf"
        );
        let bad = FaultModel {
            outage_mtbf_samples: Some(f64::NAN),
            ..model()
        };
        assert!(
            FaultPlanBuilder::new(100).block(0, 1, bad).build().is_err(),
            "nan outage mtbf"
        );
        // An empty plan (no blocks) is valid — the no-fault default.
        assert!(FaultPlanBuilder::new(100).build().unwrap().is_empty());
    }
}
