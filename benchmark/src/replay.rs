//! Layer replay: the inner modules the driver never calls on the event
//! path, re-driven through their public functions on the inputs a
//! traced run captured.
//!
//! The driver only ever calls `arrive`/`depart`/`tick`; the matrix
//! kernel, the allocators, the server-cost aggregate, the frequency
//! planner, the sketches and the power model run *inside* those calls.
//! To attribute time to them without touching the program, the traced
//! run records the shape of every period-opening, period-closing and
//! re-pack tick ([`Shape`]), and this module rebuilds the same inputs
//! from the traces the driver owns and times the same public functions
//! on them, each batch in a span named `replay.<layer>.<fn>`.

use crate::drive::{Capture, Shape, ShapeKind};
use crate::span::{Tracer, NONE};
use cavm_core::alloc::{AllocationPolicy, BfdPolicy, OpenServer, ProposedPolicy, VmDescriptor};
use cavm_core::corr::CostMatrix;
use cavm_core::dvfs::FleetFrequencyPlanner;
use cavm_core::servercost::ServerCostAggregate;
use cavm_power::PowerModel;
use cavm_sim::{ControllerConfig, Policy, SimReport, VmEvent};
use cavm_trace::{percentile, MomentSketch, P2Cell, Reference, TimeSeries};
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Where one VM sits on the global sample axis.
pub struct VmInfo<'a> {
    /// Demand from the arrival instant on.
    pub trace: &'a TimeSeries,
    pub arrival: usize,
    /// Sample before whose tick the VM departed.
    pub depart: Option<usize>,
}

impl VmInfo<'_> {
    fn live_at(&self, sample: usize) -> bool {
        self.arrival <= sample && self.depart.is_none_or(|d| sample < d)
    }

    fn demand_at(&self, sample: usize) -> f64 {
        if !self.live_at(sample) {
            return 0.0;
        }
        let at = sample - self.arrival;
        self.trace.values().get(at).copied().unwrap_or(0.0)
    }
}

/// Indexes the VMs of an event stream by id.
pub fn vm_table(events: &[VmEvent]) -> Vec<Option<VmInfo<'_>>> {
    let mut table: Vec<Option<VmInfo<'_>>> = Vec::new();
    let mut sample = 0usize;
    for event in events {
        match event {
            VmEvent::Arrive { id, trace, .. } => {
                if table.len() <= *id {
                    table.resize_with(id + 1, || None);
                }
                table[*id] = Some(VmInfo {
                    trace,
                    arrival: sample,
                    depart: None,
                });
            }
            VmEvent::Depart { id } => {
                if let Some(Some(info)) = table.get_mut(*id) {
                    info.depart = Some(sample);
                }
            }
            VmEvent::Tick => sample += 1,
            VmEvent::ServerFail { .. } | VmEvent::ServerRecover { .. } => {}
        }
    }
    table
}

/// Busy time and work counts of the replayed layers. Times are
/// nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct LayerStats {
    // core.corr
    pub rebuild_calls: u64,
    pub rebuild_ns: u64,
    /// The part of `rebuild_ns` spent on period-closing shapes.
    pub close_rebuild_ns: u64,
    /// Pair-sample updates pushed: Σ pairs × window length.
    pub pair_updates: u64,
    pub universe_max: u64,
    pub live_pairs: u64,
    pub universe_pairs: u64,
    pub matrix_bytes_max: u64,
    // core.alloc
    pub place_calls: u64,
    pub place_ns: u64,
    pub place_vms: u64,
    pub bfd_place_ns: u64,
    pub place_one_calls: u64,
    pub place_one_ns: u64,
    // core.servercost
    pub candidate_calls: u64,
    pub candidate_ns: u64,
    pub members_sum: u64,
    // core.dvfs / core.fleet
    pub plan_calls: u64,
    pub plan_ns: u64,
    pub estimate_calls: u64,
    pub estimate_ns: u64,
    // trace
    pub sketch_calls: u64,
    pub sketch_ns: u64,
    pub sketch_samples: u64,
    pub reference_ns: u64,
    pub reference_samples: u64,
    // power
    pub power_evals: u64,
    pub power_ns: u64,
    /// Replayed calls that returned an error (the run's own did not).
    pub errors: u64,
}

fn pairs(n: usize) -> u64 {
    (n as u64) * (n as u64).saturating_sub(1) / 2
}

/// Bytes of streaming state one matrix over `n` VMs holds.
fn matrix_bytes(n: usize, reference: Reference) -> u64 {
    let per_entry = match reference {
        Reference::Peak => std::mem::size_of::<f64>(),
        Reference::Percentile(_) => std::mem::size_of::<P2Cell>(),
    };
    (pairs(n) + n as u64) * per_entry as u64
}

/// One cell's replayed matrix state between shapes.
#[derive(Default)]
struct CellState {
    matrix: Option<CostMatrix>,
    /// The last closed period's per-VM windows.
    windows: Vec<TimeSeries>,
}

struct Replayer<'a> {
    tracer: &'a RefCell<Tracer>,
    stats: &'a mut LayerStats,
}

impl Replayer<'_> {
    /// Runs `work` inside a span and returns its result and duration.
    fn timed<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> (T, u64) {
        let t0 = Instant::now();
        let out = work();
        let t1 = Instant::now();
        self.tracer.borrow_mut().leaf(name, NONE, t0, t1);
        (out, (t1 - t0).as_nanos() as u64)
    }

    /// `CostMatrix::new` + the same window kernel the controller's
    /// period machinery calls.
    fn rebuild(
        &mut self,
        universe: usize,
        reference: Reference,
        windows: &[&TimeSeries],
        len: usize,
    ) -> Option<CostMatrix> {
        let (matrix, ns) = self.timed("replay.core.corr.rebuild", || {
            let mut matrix = CostMatrix::new(universe, reference)?;
            if !windows.is_empty() {
                matrix.par_push_columns(windows, 0, len)?;
            }
            Ok::<_, cavm_core::CoreError>(matrix)
        });
        self.stats.rebuild_calls += 1;
        self.stats.rebuild_ns += ns;
        if !windows.is_empty() {
            self.stats.pair_updates += pairs(universe) * len as u64;
        }
        self.stats.universe_max = self.stats.universe_max.max(universe as u64);
        self.stats.matrix_bytes_max = self
            .stats
            .matrix_bytes_max
            .max(matrix_bytes(universe, reference));
        match matrix {
            Ok(matrix) => Some(matrix),
            Err(_) => {
                self.stats.errors += 1;
                None
            }
        }
    }

    fn close(
        &mut self,
        shape: &Shape,
        cfg: &ControllerConfig,
        members: &[usize],
        vms: &[Option<VmInfo<'_>>],
        state: &mut CellState,
    ) {
        let period = cfg.period_samples;
        let start = shape.tick + 1 - period;
        let info = |local: usize| vms.get(members[local]).and_then(Option::as_ref);
        let windows: Vec<TimeSeries> = (0..shape.universe)
            .map(|local| {
                let values = (start..start + period)
                    .map(|k| info(local).map_or(0.0, |vm| vm.demand_at(k)))
                    .collect();
                TimeSeries::new(cfg.sample_dt_s, values).expect("finite demand windows")
            })
            .collect();
        self.stats.live_pairs += pairs(shape.live);
        self.stats.universe_pairs += pairs(shape.universe);

        // The per-VM observation of the closed period.
        let live: Vec<&TimeSeries> = (0..shape.universe)
            .filter(|&local| info(local).is_some_and(|vm| vm.live_at(shape.tick)))
            .map(|local| &windows[local])
            .collect();
        let (_, ns) = self.timed("replay.trace.reference", || {
            for window in &live {
                black_box(cfg.reference.of(window.values()).ok());
                black_box(percentile(window.values(), 90.0).ok());
            }
        });
        self.stats.reference_ns += ns;
        self.stats.reference_samples += (live.len() * period) as u64;

        if shape.universe > 0 {
            let refs: Vec<&TimeSeries> = windows.iter().collect();
            let before = self.stats.rebuild_ns;
            state.matrix = self.rebuild(shape.universe, cfg.reference, &refs, period);
            self.stats.close_rebuild_ns += self.stats.rebuild_ns - before;
        }
        state.windows = windows;
    }

    /// An ALLOCATE pass (period open or off-cycle re-pack) and the
    /// per-server work that follows it.
    fn allocate(&mut self, shape: &Shape, cfg: &ControllerConfig, state: &mut CellState) {
        if shape.universe == 0 {
            return;
        }
        if state
            .matrix
            .as_ref()
            .is_none_or(|m| m.len() != shape.universe)
        {
            // New ids since the last rebuild: the controller replays
            // the previous windows zero-padded to the new dimension.
            let len = state.windows.first().map_or(0, TimeSeries::len);
            let zero = TimeSeries::constant(cfg.sample_dt_s, len.max(1), 0.0)
                .expect("a constant window is valid");
            let mut refs: Vec<&TimeSeries> = state.windows.iter().collect();
            refs.resize(shape.universe, &zero);
            if len == 0 {
                refs.clear();
            }
            state.matrix = self.rebuild(shape.universe, cfg.reference, &refs, len);
        }
        let Some(matrix) = state.matrix.as_ref() else {
            return;
        };
        if shape.predicted.is_empty() {
            return;
        }
        let fleet = &cfg.server_fleet;
        let proposed = match cfg.policy {
            Policy::Proposed(config) => ProposedPolicy::new(config),
            _ => ProposedPolicy::new(Default::default()),
        }
        .expect("the session validated its policy tuning");

        let (placed, ns) = self.timed("replay.core.alloc.place", || {
            proposed.place(&shape.predicted, matrix, fleet).is_ok()
        });
        self.stats.place_calls += 1;
        self.stats.place_ns += ns;
        self.stats.place_vms += shape.predicted.len() as u64;
        let (bfd_placed, ns) = self.timed("replay.core.alloc.bfd_place", || {
            BfdPolicy.place(&shape.predicted, matrix, fleet).is_ok()
        });
        self.stats.bfd_place_ns += ns;
        self.stats.errors += u64::from(!placed) + u64::from(!bfd_placed);

        // The live placement the run actually installed, as aggregates.
        let mut demand = vec![0.0; shape.universe];
        for d in &shape.predicted {
            demand[d.id] = d.demand;
        }
        let aggregates: Vec<ServerCostAggregate> = shape
            .servers
            .iter()
            .map(|members| {
                let mut agg = ServerCostAggregate::new();
                for &m in members {
                    agg.push(m, demand.get(m).copied().unwrap_or(0.0), matrix);
                }
                agg
            })
            .collect();
        let probe = shape.predicted[0];

        let (_, ns) = self.timed("replay.core.servercost.candidate_cost", || {
            for agg in &aggregates {
                black_box(agg.candidate_cost(probe.id, probe.demand, matrix));
            }
        });
        self.stats.candidate_calls += aggregates.len() as u64;
        self.stats.candidate_ns += ns;
        self.stats.members_sum += aggregates.iter().map(|a| a.len() as u64).sum::<u64>();

        let planner = FleetFrequencyPlanner::new(fleet);
        let classes = &shape.classes;
        let (_, ns) = self.timed("replay.core.dvfs.static_level", || {
            for (agg, &class) in aggregates.iter().zip(classes) {
                let cores = fleet.classes()[class].cores();
                black_box(
                    planner
                        .static_level_correlation_aware(
                            class,
                            agg.total_util().min(cores),
                            agg.cost().max(1.0),
                        )
                        .ok(),
                );
            }
        });
        self.stats.plan_calls += aggregates.len() as u64;
        self.stats.plan_ns += ns;

        let total: f64 = shape.predicted.iter().map(|d| d.demand).sum();
        let (_, ns) = self.timed("replay.core.fleet.estimate_server_count", || {
            black_box(fleet.estimate_server_count(black_box(total)));
        });
        self.stats.estimate_calls += 1;
        self.stats.estimate_ns += ns;

        // A fresh arrival against the open servers: the admission path.
        let views: Vec<OpenServer<'_>> = aggregates
            .iter()
            .zip(classes)
            .map(|(agg, &class)| {
                let spec = &fleet.classes()[class];
                OpenServer {
                    class,
                    cores: spec.cores(),
                    watts_per_core: spec.busy_watts_per_core(),
                    drain_samples: None,
                    agg,
                    healthy: true,
                    overcommit_margin: 0.0,
                }
            })
            .collect();
        let arrival = VmDescriptor::new(shape.universe, cfg.default_demand)
            .with_off_peak(cfg.default_demand * 0.9);
        let (_, ns) = self.timed("replay.core.alloc.place_one", || {
            black_box(proposed.place_one(&arrival, None, &views, matrix));
        });
        self.stats.place_one_calls += 1;
        self.stats.place_one_ns += ns;
    }
}

/// Replays every captured shape, the arrival sketches (sharded runs
/// route by sketch) and the power model, adding what they cost to
/// `stats`.
pub fn replay_layers(
    capture: &Capture,
    vms: &[Option<VmInfo<'_>>],
    cfgs: &[&ControllerConfig],
    report: &SimReport,
    tracer: &RefCell<Tracer>,
    stats: &mut LayerStats,
) {
    let mut r = Replayer { tracer, stats };
    let mut states: Vec<CellState> = cfgs.iter().map(|_| CellState::default()).collect();
    for shape in &capture.shapes {
        let cfg = cfgs[shape.cell];
        let state = &mut states[shape.cell];
        match shape.kind {
            ShapeKind::Close => r.close(shape, cfg, &capture.members[shape.cell], vms, state),
            ShapeKind::Open | ShapeKind::Repack => r.allocate(shape, cfg, state),
        }
    }

    let base = cfgs[0];
    if cfgs.len() > 1 {
        let arrivals: Vec<&VmInfo<'_>> = vms.iter().flatten().collect();
        let (_, ns) = r.timed("replay.trace.sketch", || {
            for vm in &arrivals {
                black_box(
                    MomentSketch::from_series(vm.trace, vm.arrival, base.period_samples).ok(),
                );
            }
        });
        r.stats.sketch_calls += arrivals.len() as u64;
        r.stats.sketch_ns += ns;
        r.stats.sketch_samples += arrivals.iter().map(|vm| vm.trace.len() as u64).sum::<u64>();
    }

    // One power-model evaluation per active server per tick.
    let evals: u64 = report
        .periods
        .iter()
        .map(|p| (p.servers_used * base.period_samples) as u64)
        .sum();
    let class = &base.server_fleet.classes()[0];
    let (model, f) = (class.power_model(), class.ladder().max());
    let (_, ns) = r.timed("replay.power.power", || {
        for i in 0..evals {
            black_box(model.power(black_box((i % 1000) as f64 / 1000.0), f).ok());
        }
    });
    r.stats.power_evals += evals;
    r.stats.power_ns += ns;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_table_places_vms_on_the_sample_axis() {
        let trace = |len| TimeSeries::from_fn(5.0, len, |i| 1.0 + i as f64).unwrap();
        let events = vec![
            VmEvent::Arrive {
                id: 0,
                trace: trace(6),
                lease_samples: None,
            },
            VmEvent::Tick,
            VmEvent::Tick,
            VmEvent::Arrive {
                id: 2,
                trace: trace(2),
                lease_samples: Some(2),
            },
            VmEvent::Tick,
            VmEvent::Depart { id: 0 },
            VmEvent::Tick,
        ];
        let table = vm_table(&events);
        assert_eq!(table.len(), 3);
        assert!(table[1].is_none());
        let vm0 = table[0].as_ref().unwrap();
        assert_eq!((vm0.arrival, vm0.depart), (0, Some(3)));
        // Sample 2 is the last one the departing VM is replayed on.
        assert_eq!(vm0.demand_at(2), 3.0);
        assert_eq!(vm0.demand_at(3), 0.0);
        let vm2 = table[2].as_ref().unwrap();
        assert_eq!((vm2.arrival, vm2.depart), (2, None));
        assert_eq!(vm2.demand_at(1), 0.0);
        assert_eq!(vm2.demand_at(3), 2.0);
        // Past the end of its trace a VM reads zero.
        assert_eq!(vm2.demand_at(4), 0.0);
    }

    #[test]
    fn matrix_bytes_follow_the_reference() {
        assert_eq!(matrix_bytes(4, Reference::Peak), (6 + 4) * 8);
        assert_eq!(
            matrix_bytes(4, Reference::Percentile(95.0)),
            (6 + 4) * std::mem::size_of::<P2Cell>() as u64
        );
    }
}
