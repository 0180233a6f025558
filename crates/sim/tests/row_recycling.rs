//! Row recycling: the period windows and the period cost matrix are
//! sized by the population, not by every id ever seen.
//!
//! Two kinds of test live here.
//!
//! * **Differential cases.** In debug builds the controller carries an
//!   oracle (`controller/oracle.rs`) that re-derives, from the
//!   registered traces alone, the universe-indexed matrix — one row
//!   per id ever seen, zero-padded — and asserts at every period
//!   boundary and off-cycle re-pack that every pair of live ids, every
//!   server's Eqn (2) aggregate and PCP's envelope windows agree with
//!   the row-keyed state bit for bit. Every suite that drives a
//!   controller exercises it; the cases below aim it at the event
//!   orders where an id and its row come apart: holes filled
//!   mid-period, arrivals between a close and the next open, an
//!   arrival and an off-cycle re-pack in one period, a row's occupant
//!   leaving and another VM arriving in the same period, PCP
//!   clustering across departures, and a fork that diverges from its
//!   parent.
//! * **The bound.** After a day of heavy churn each cell's row table
//!   is no larger than the most VMs any one of its periods held.

use cavm_core::dvfs::DvfsMode;
use cavm_core::fleet::ServerFleet;
use cavm_power::LinearPowerModel;
use cavm_sim::{
    ControllerConfig, DatacenterController, NullSink, Policy, QosGuard, RepackTrigger,
    ShardedController, VmEvent,
};
use cavm_trace::{Reference, SimRng, TimeSeries};

const PERIOD: usize = 8;

fn config(policy: Policy, reference: Reference, trigger: RepackTrigger) -> ControllerConfig {
    ControllerConfig {
        server_fleet: ServerFleet::uniform(12, 8.0, LinearPowerModel::xeon_e5410()).unwrap(),
        policy,
        repack_trigger: trigger,
        qos_guard: None,
        adaptive_slack_max: None,
        overcommit: None,
        dvfs_mode: DvfsMode::Static,
        period_samples: PERIOD,
        reference,
        dynamic_headroom: 0.1,
        default_demand: 1.5,
        sample_dt_s: 5.0,
        max_deferred: 16,
    }
}

fn both_references() -> [Reference; 2] {
    [Reference::Peak, Reference::Percentile(95.0)]
}

/// A noisy phase-shifted wave in (0, 3.2) cores, idle now and then.
fn trace(rng: &mut SimRng, len: usize) -> TimeSeries {
    let phase = rng.range_f64(0.0, std::f64::consts::TAU);
    let values: Vec<f64> = (0..len)
        .map(|i| {
            if rng.bernoulli(0.1) {
                0.0
            } else {
                1.6 + 1.4 * (i as f64 / 3.0 + phase).sin() + rng.range_f64(0.0, 0.2)
            }
        })
        .collect();
    TimeSeries::new(5.0, values).unwrap()
}

fn ticks(ctl: &mut DatacenterController, n: usize) {
    for _ in 0..n {
        ctl.tick(&mut NullSink).unwrap();
    }
}

fn arrive(ctl: &mut DatacenterController, rng: &mut SimRng, id: usize) {
    ctl.arrive(id, trace(rng, 12 * PERIOD), None, &mut NullSink)
        .unwrap();
}

#[test]
fn out_of_order_ids_and_a_hole_filled_mid_period() {
    for reference in both_references() {
        let mut rng = SimRng::new(1);
        let cfg = config(
            Policy::Proposed(Default::default()),
            reference,
            RepackTrigger::Periodic,
        );
        let mut ctl = DatacenterController::new(cfg).unwrap();
        for id in [5, 2, 9] {
            arrive(&mut ctl, &mut rng, id);
        }
        ticks(&mut ctl, PERIOD + 3);
        // Mid-period: a hole below the matrix's id bound (a zero row
        // at once), and an id beyond it (neutral until the boundary).
        arrive(&mut ctl, &mut rng, 3);
        arrive(&mut ctl, &mut rng, 12);
        assert_eq!(ctl.predicted_vms().len(), 13);
        assert_eq!((ctl.live_vms(), ctl.period_rows()), (5, 5));
        ticks(&mut ctl, 2 * PERIOD);
        ctl.depart(9).unwrap();
        arrive(&mut ctl, &mut rng, 0);
        ticks(&mut ctl, 2 * PERIOD);
        assert_eq!((ctl.live_vms(), ctl.period_rows()), (5, 6));
        assert_eq!(ctl.online_admissions(), 3);
    }
}

#[test]
fn arrival_between_a_close_and_the_next_open() {
    for reference in both_references() {
        let mut rng = SimRng::new(2);
        let cfg = config(
            Policy::Proposed(Default::default()),
            reference,
            RepackTrigger::Periodic,
        );
        let mut ctl = DatacenterController::new(cfg).unwrap();
        for id in 0..4 {
            arrive(&mut ctl, &mut rng, id);
        }
        ticks(&mut ctl, PERIOD);
        assert!(!ctl.mid_period());
        // The matrix was just filled over ids 0..4; these postdate it
        // and join the batch pass of the period about to open. The
        // departure frees its row at once — no sample of the coming
        // period exists — and the first arrival takes it.
        ctl.depart(1).unwrap();
        arrive(&mut ctl, &mut rng, 4);
        arrive(&mut ctl, &mut rng, 7);
        assert_eq!(ctl.period_rows(), 5);
        ticks(&mut ctl, 3 * PERIOD);
        assert_eq!((ctl.live_vms(), ctl.period_rows()), (5, 5));
        assert_eq!(ctl.online_admissions(), 0);
    }
}

#[test]
fn arrival_then_off_cycle_repack_in_one_period() {
    for reference in both_references() {
        let mut rng = SimRng::new(3);
        let cfg = config(
            Policy::Proposed(Default::default()),
            reference,
            RepackTrigger::Hybrid { slack: 1 },
        );
        let mut ctl = DatacenterController::new(cfg).unwrap();
        for id in 0..12 {
            arrive(&mut ctl, &mut rng, id);
        }
        ticks(&mut ctl, PERIOD + 2);
        let servers = ctl.placement().active_server_count();
        assert!(servers >= 3, "the fleet must be spread to consolidate");
        // A new id beyond the period matrix, then enough departures
        // that the fragmentation trigger re-packs before the boundary:
        // the batch pass must see the newcomer as the zero row it is.
        arrive(&mut ctl, &mut rng, 20);
        let all_but_one_per_server: Vec<usize> = ctl
            .placement()
            .servers()
            .iter()
            .flat_map(|members| members.iter().skip(1).copied())
            .filter(|&id| id != 20)
            .collect();
        for id in all_but_one_per_server {
            ctl.depart(id).unwrap();
        }
        ticks(&mut ctl, 1);
        assert!(ctl.mid_period());
        assert_eq!(ctl.offcycle_repacks(), 1);
        assert!(ctl.placement().active_server_count() < servers);
        ticks(&mut ctl, 2 * PERIOD);
        assert_eq!(ctl.live_vms(), servers + 1);
    }
}

#[test]
fn depart_then_arrive_in_one_period_do_not_share_a_row() {
    for reference in both_references() {
        let mut rng = SimRng::new(4);
        let cfg = config(
            Policy::Proposed(Default::default()),
            reference,
            RepackTrigger::Periodic,
        );
        let mut ctl = DatacenterController::new(cfg).unwrap();
        arrive(&mut ctl, &mut rng, 0);
        arrive(&mut ctl, &mut rng, 1);
        ticks(&mut ctl, 3);
        // VM 0's samples so far stay in its row to the close: the
        // arrival needs a row of its own.
        ctl.depart(0).unwrap();
        arrive(&mut ctl, &mut rng, 2);
        assert_eq!((ctl.live_vms(), ctl.period_rows()), (2, 3));
        ticks(&mut ctl, PERIOD);
        // Past the close the row is free, and the next arrival gets it.
        arrive(&mut ctl, &mut rng, 3);
        assert_eq!((ctl.live_vms(), ctl.period_rows()), (3, 3));
        ticks(&mut ctl, 2 * PERIOD);
        assert_eq!(ctl.period_rows(), 3);
    }
}

/// PCP clusters the previous period's envelope windows of *every* id
/// ever seen — an all-zero window overlaps everything and collapses
/// the clustering to one — so a VM that leaves mid-period must keep
/// the samples it had until the close. The cluster counts were
/// recorded from the universe-indexed implementation (commit 6679d46).
#[test]
fn pcp_clusters_across_a_mid_period_departure() {
    let cfg = config(
        Policy::Pcp {
            envelope_percentile: 60.0,
            affinity_threshold: 0.5,
        },
        Reference::Peak,
        RepackTrigger::Periodic,
    );
    let mut ctl = DatacenterController::new(cfg).unwrap();
    // Day VMs peak in the first half of every period, night VMs in the
    // second: two clusters.
    let shift = |night: bool, from: usize| {
        TimeSeries::from_fn(5.0, 4 * PERIOD - from, |i| {
            if ((from + i) % PERIOD >= PERIOD / 2) == night {
                4.0
            } else {
                0.5
            }
        })
        .unwrap()
    };
    for id in 0..6 {
        ctl.arrive(id, shift(id % 2 == 1, 0), None, &mut NullSink)
            .unwrap();
    }
    for k in 0..4 * PERIOD {
        if k == PERIOD + 4 {
            // A night VM joins as its shift starts ...
            ctl.arrive(6, shift(true, k), None, &mut NullSink).unwrap();
        }
        if k == PERIOD + 5 {
            // ... and another leaves one sample into it: period 1's
            // window keeps that sample, period 2's is all zeros.
            ctl.depart(1).unwrap();
        }
        ctl.tick(&mut NullSink).unwrap();
    }
    let clusters: Vec<Option<usize>> = ctl
        .report()
        .periods
        .iter()
        .map(|p| p.pcp_clusters)
        .collect();
    assert_eq!(clusters, [Some(1), Some(2), Some(2), Some(1)]);
}

#[test]
fn fork_then_diverge() {
    for reference in both_references() {
        let mut rng = SimRng::new(6);
        let mut cfg = config(
            Policy::Proposed(Default::default()),
            reference,
            RepackTrigger::Hybrid { slack: 1 },
        );
        cfg.qos_guard = Some(QosGuard {
            violation_ratio: 0.1,
        });
        let mut live = DatacenterController::new(cfg).unwrap();
        for id in 0..8 {
            arrive(&mut live, &mut rng, id);
        }
        ticks(&mut live, PERIOD + 4);
        live.depart(2).unwrap();

        // Same suffix on both: bit-identical. The fork then takes a
        // different path through row recycling (its departures free
        // rows its arrivals re-use; the original's population only
        // grows) and each stays consistent with its own history.
        let mut twin = live.fork();
        let mut other = live.fork();
        let suffix: Vec<VmEvent> = (0..3 * PERIOD)
            .flat_map(|k| {
                let arrival = (k % 5 == 0).then(|| VmEvent::Arrive {
                    id: 100 + k,
                    trace: trace(&mut rng, 4 * PERIOD),
                    lease_samples: None,
                });
                arrival.into_iter().chain([VmEvent::Tick])
            })
            .collect();
        for event in &suffix {
            live.apply(event.clone(), &mut NullSink).unwrap();
            twin.apply(event.clone(), &mut NullSink).unwrap();
        }
        assert_eq!(live.report(), twin.report());
        assert_eq!(live.period_rows(), twin.period_rows());

        for k in 0..3 * PERIOD {
            if k % 4 == 1 {
                other.depart([0, 1, 3, 4, 5, 6][k / 4]).unwrap();
                arrive(&mut other, &mut rng, 200 + k);
            }
            ticks(&mut other, 1);
        }
        assert_eq!(other.live_vms(), 7);
        assert!(other.period_rows() < live.period_rows());
        assert_ne!(other.report(), live.report());
    }
}

/// Between a close and the next open the placement is stale: a VM that
/// departed there is still listed on its server until the boundary
/// evicts it. An evacuation in that gap scores servers by their
/// members' leases — the departed member's included, which is all the
/// registry keeps of it besides the tombstone. (Recorded behaviour of
/// the universe-indexed implementation; the full-size
/// `trace-replay-week` digest moves without it.)
#[test]
fn a_between_period_evacuation_reads_a_departed_members_lease() {
    let mut cfg = config(
        Policy::Bfd,
        Reference::Peak,
        RepackTrigger::Fragmentation { slack: 5 },
    );
    cfg.default_demand = 3.0;
    let mut ctl = DatacenterController::new(cfg).unwrap();
    // (demand, lease): two 3-core defaults fill an 8-core server, so
    // the first placement is {0, 1} {2, 3} {4} and the schedule keeps it.
    let vms = [(1.5, 30), (1.5, 17), (1.0, 200), (1.0, 200), (1.0, 100)];
    for (id, (demand, lease)) in vms.into_iter().enumerate() {
        let trace = TimeSeries::constant(5.0, 4 * PERIOD, demand).unwrap();
        ctl.arrive(id, trace, Some(lease), &mut NullSink).unwrap();
    }
    ticks(&mut ctl, 2 * PERIOD);
    assert_eq!(ctl.placement().servers(), [vec![0, 1], vec![2, 3], vec![4]]);
    assert!(!ctl.mid_period());

    ctl.depart(1).unwrap();
    ctl.server_fail(2, &mut NullSink).unwrap();
    // Server 0 is the tighter fit, but with VM 1's lease it drains at
    // sample 30, long before the evacuee's lease ends: server 1, which
    // outlives it, wins. Were the departed member's lease forgotten,
    // server 0 would have no known drain horizon and win on fit.
    assert_eq!(ctl.placement().server_of(4), Some(1));
}

/// A churn day on two cells: 2,000 VMs with leases around a period and
/// a half. Ids pile up; rows do not.
#[test]
fn rows_follow_the_population_not_the_ids_seen() {
    const CELLS: usize = 2;
    const PERIODS: usize = 40;
    const VMS: usize = 2000;
    let total = PERIODS * PERIOD;
    let mut rng = SimRng::new(2013);
    let mut cfg = config(
        Policy::Proposed(Default::default()),
        Reference::Peak,
        RepackTrigger::Periodic,
    );
    cfg.server_fleet = ServerFleet::uniform(64, 8.0, LinearPowerModel::xeon_e5410()).unwrap();
    cfg.default_demand = 0.6;
    cfg.max_deferred = VMS;
    let mut dc = ShardedController::new(cfg, CELLS).unwrap();

    let mut arrivals_at = vec![Vec::new(); total];
    let mut departures_at = vec![Vec::new(); total];
    for id in 0..VMS {
        let arrival = rng.below(total - 1);
        let lease = 1 + rng.exponential(1.0 / 12.0).unwrap() as usize;
        arrivals_at[arrival].push((id, lease));
        if arrival + lease < total {
            departures_at[arrival + lease].push(id);
        }
    }

    // Per cell: VMs live now, VMs the running period has held so far,
    // and the most any period held.
    let mut live = [0usize; CELLS];
    let mut held = [0usize; CELLS];
    let mut most_held = [0usize; CELLS];
    let mut sink = NullSink;
    for k in 0..total {
        for &id in &departures_at[k] {
            live[dc.cell_of_vm(id).unwrap()] -= 1;
            dc.depart(id).unwrap();
        }
        if k % PERIOD == 0 {
            // Departures before a period's first tick are not part of
            // it; everything from here to the close is.
            held = live;
        }
        for &(id, lease) in &arrivals_at[k] {
            let len = lease.min(total - k);
            let demand = TimeSeries::from_fn(5.0, len, |i| {
                0.3 + 0.2 * ((k + i) as f64 / 5.0 + id as f64).sin().abs()
            })
            .unwrap();
            dc.arrive(id, demand, Some(lease), &mut sink).unwrap();
            let cell = dc.cell_of_vm(id).unwrap();
            live[cell] += 1;
            held[cell] += 1;
        }
        dc.tick(&mut sink).unwrap();
        for (most, &now) in most_held.iter_mut().zip(&held) {
            *most = (*most).max(now);
        }
    }

    for (cell, &most) in most_held.iter().enumerate() {
        let ctl = dc.cell_controller(cell).unwrap();
        let (rows, ids) = (ctl.period_rows(), ctl.predicted_vms().len());
        assert!(ids > VMS / 4, "cell {cell} saw only {ids} ids");
        assert!(
            rows <= most,
            "cell {cell}: {rows} rows for at most {most} VMs in a period"
        );
        assert!(rows * 8 < ids, "cell {cell}: {rows} rows against {ids} ids");
    }
}
