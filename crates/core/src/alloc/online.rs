//! Single-VM (online) admission — the incremental half of the
//! allocation API.
//!
//! The batch entry point ([`AllocationPolicy::place`]) re-packs a whole
//! descriptor table; an online controller cannot afford that on every
//! arrival. [`AllocationPolicy::place_one`] instead picks a server for
//! *one* arriving VM against a live placement, expressed as a slice of
//! [`OpenServer`] views over each server's incremental
//! [`ServerCostAggregate`] — so a correlation-aware probe stays
//! O(|members|) per candidate server, exactly like the batch ALLOCATE
//! scan, and no full re-pack happens on arrival. Periodic re-packs
//! remain policy-driven (the controller re-runs the batch path at every
//! placement period boundary).
//!
//! The default admission rule is correlation-blind best fit — the
//! tightest feasible server, capacity ties broken by the hosting
//! class's busy-watts-per-core (the more efficient class wins) — which
//! is what BFD, PCP and SuperVM use between their period re-packs. FFD
//! overrides it with first fit, and the proposed policy overrides it
//! with the Eqn (2) maximal-server-cost rule.
//!
//! # Lease-aware admission
//!
//! Every rule is additionally **lease-aware** (cf. Quang-Hung et al.,
//! *Energy-Aware Lease Scheduling*): when the arriving VM's remaining
//! lease and the candidates' [`OpenServer::drain_samples`] are known,
//! servers that would *outlive* the arrival anyway are preferred over
//! servers whose members all depart sooner — admitting onto the latter
//! would extend the server's life past its natural drain point and
//! strand it half-empty. The bias is a strict two-tier preference, not
//! a hard filter: when no outliving server fits, the draining tier is
//! used unchanged, so lease awareness never opens more servers than
//! the lease-blind rule would. With no lease information anywhere
//! (every `drain_samples` is `None`, the batch setting) all three
//! rules are bit-identical to their lease-blind selves.

use crate::alloc::{VmDescriptor, FIT_EPS};
use crate::corr::CostMatrix;
use crate::servercost::{coincident_estimate, ServerCostAggregate};

#[cfg(doc)]
use crate::alloc::AllocationPolicy;

/// A live open server as seen by the single-VM admission path: its
/// fleet class, capacity, efficiency score and the incremental Eqn (2)
/// aggregate holding its members and packed load.
#[derive(Debug, Clone, Copy)]
pub struct OpenServer<'a> {
    /// Fleet-class index of the server.
    pub class: usize,
    /// Core capacity of the server.
    pub cores: f64,
    /// Busy-watts-per-core of the hosting class (lower = more
    /// efficient; used as the capacity tie-break).
    pub watts_per_core: f64,
    /// Samples until the server's *last* current member departs —
    /// `Some(k)` when every member's lease ends within `k` samples,
    /// `None` when at least one member stays indefinitely (or no lease
    /// information is known, the batch setting). Callers should leave
    /// an *empty* (vacated but reserved) server at `None`: it is
    /// already drained, so admitting there extends nothing and the
    /// slot must stay as eligible as a fresh server.
    pub drain_samples: Option<usize>,
    /// The server's incremental Eqn (2) aggregate.
    pub agg: &'a ServerCostAggregate,
    /// Whether the server is operational
    /// ([`ServerHealth::Healthy`](crate::fleet::ServerHealth)). Every
    /// admission rule skips unhealthy candidates outright — a failed
    /// server keeps its slot (and its class-capacity reservation) but
    /// can never be picked, in either lease tier. Capacity math
    /// ([`OpenServer::fits`]) stays health-blind on purpose: health is
    /// an admissibility question, not a sizing one.
    pub healthy: bool,
    /// Deliberate-overcommit margin granted to this server, as a
    /// fraction of `cores`. [`OpenServer::admits`] accepts a candidate
    /// whose predicted per-VM sum exceeds capacity by up to this
    /// fraction *when* the Eqn (2) cost says the candidate's peaks
    /// anti-align with the residents (the Eqn (1)
    /// [`coincident_estimate`] stays within plain capacity). `0.0` —
    /// the value everywhere overcommit is off — makes `admits`
    /// bit-identical to plain [`OpenServer::fits`].
    pub overcommit_margin: f64,
}

impl OpenServer<'_> {
    /// Residual capacity in cores.
    pub fn remaining(&self) -> f64 {
        self.cores - self.agg.total_util()
    }

    /// Whether a VM of `demand` cores fits the residual capacity.
    pub fn fits(&self, demand: f64) -> bool {
        demand <= self.remaining() + FIT_EPS
    }

    /// Whether the server admits `vm` under the deliberate-overcommit
    /// rule: plain [`fits`](OpenServer::fits), or — when this server
    /// carries a positive [`overcommit_margin`] and already has
    /// residents to anti-align with — a predicted per-VM sum of up to
    /// `cores × (1 + margin)` whose Eqn (1) [`coincident_estimate`]
    /// (the sum deflated by the post-insertion Eqn (2) cost) still
    /// lands within plain capacity. An empty server never overcommits:
    /// with no residents there are no pairs, Eqn (2) has nothing to
    /// say, and the estimate would be vacuous. With `overcommit_margin
    /// == 0.0` this is exactly `fits(vm.demand)` — the bit-identity
    /// anchor for every margin-off code path.
    ///
    /// [`overcommit_margin`]: OpenServer::overcommit_margin
    pub fn admits(&self, vm: &VmDescriptor, matrix: &CostMatrix) -> bool {
        if self.fits(vm.demand) {
            return true;
        }
        if self.overcommit_margin <= 0.0 || self.agg.is_empty() {
            return false;
        }
        let predicted = self.agg.total_util() + vm.demand;
        if predicted > self.cores * (1.0 + self.overcommit_margin) + FIT_EPS {
            return false;
        }
        let cost = self.agg.candidate_cost(vm.id, vm.demand, matrix);
        coincident_estimate(predicted, cost) <= self.cores + FIT_EPS
    }

    /// Whether the server stays busy at least as long as an arriving
    /// VM whose remaining lease is `lease` (`None` = open-ended) —
    /// i.e. admitting the VM here would not extend the server's life
    /// past its natural drain point. Servers with no known drain
    /// horizon trivially outlive everything.
    pub fn outlives(&self, lease: Option<usize>) -> bool {
        match (self.drain_samples, lease) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(d), Some(l)) => l <= d,
        }
    }
}

/// Best-fit scan over the servers passing `admissible`, with the batch
/// BFD keep-last tie semantics.
fn best_fit_tier(
    vm: &VmDescriptor,
    servers: &[OpenServer<'_>],
    matrix: &CostMatrix,
    admissible: impl Fn(&OpenServer<'_>) -> bool,
) -> Option<usize> {
    let mut best: Option<(usize, f64, f64)> = None;
    for (i, server) in servers.iter().enumerate() {
        if !server.healthy || !server.admits(vm, matrix) || !admissible(server) {
            continue;
        }
        let residual = server.remaining();
        let better = match best {
            None => true,
            Some((_, best_residual, best_wpc)) => {
                residual < best_residual
                    || (residual == best_residual && server.watts_per_core <= best_wpc)
            }
        };
        if better {
            best = Some((i, residual, server.watts_per_core));
        }
    }
    best.map(|(i, _, _)| i)
}

/// The default [`AllocationPolicy::place_one`] rule: tightest feasible
/// server, exact capacity ties broken by watts-per-core (efficient
/// class first), remaining ties keep the last candidate — the same
/// keep-last semantics as the batch BFD scan, so a uniform fleet
/// admits exactly where batch BFD would. Servers that outlive the
/// arrival's `lease` are preferred (see the [module docs](self)).
/// Feasibility is [`OpenServer::admits`]: bit-identical to plain fit
/// until a server carries a positive overcommit margin, at which point
/// an overcommitted admission ranks by its (negative) residual — the
/// tightest possible pack.
pub fn best_fit_server(
    vm: &VmDescriptor,
    lease: Option<usize>,
    servers: &[OpenServer<'_>],
    matrix: &CostMatrix,
) -> Option<usize> {
    best_fit_tier(vm, servers, matrix, |s| s.outlives(lease))
        .or_else(|| best_fit_tier(vm, servers, matrix, |_| true))
}

/// First-fit admission: the lowest-indexed feasible server that
/// outlives the arrival's `lease`, else the lowest-indexed feasible
/// server outright (FFD's online analogue).
pub fn first_fit_server(
    vm: &VmDescriptor,
    lease: Option<usize>,
    servers: &[OpenServer<'_>],
    matrix: &CostMatrix,
) -> Option<usize> {
    servers
        .iter()
        .position(|s| s.healthy && s.admits(vm, matrix) && s.outlives(lease))
        .or_else(|| {
            servers
                .iter()
                .position(|s| s.healthy && s.admits(vm, matrix))
        })
}

/// Max-Eqn-2-cost scan over the servers passing `admissible`.
fn max_cost_tier(
    vm: &VmDescriptor,
    servers: &[OpenServer<'_>],
    matrix: &CostMatrix,
    admissible: impl Fn(&OpenServer<'_>) -> bool,
) -> Option<usize> {
    let mut best: Option<(usize, f64, f64)> = None;
    for (i, server) in servers.iter().enumerate() {
        if !server.healthy || !server.admits(vm, matrix) || !admissible(server) {
            continue;
        }
        let cost = server.agg.candidate_cost(vm.id, vm.demand, matrix);
        let better = match best {
            None => true,
            Some((_, best_cost, best_wpc)) => {
                cost > best_cost + 1e-12
                    || ((cost - best_cost).abs() <= 1e-12 && server.watts_per_core < best_wpc)
            }
        };
        if better {
            best = Some((i, cost, server.watts_per_core));
        }
    }
    best.map(|(i, _, _)| i)
}

/// Correlation-aware admission: among feasible servers, the one whose
/// Eqn (2) server cost after insertion is maximal (ties prefer the
/// more efficient class, then the first candidate). Pairs the matrix
/// has never observed — including a VM that postdates the matrix —
/// score the neutral 1.5, so a brand-new arrival degrades gracefully
/// to an efficiency-aware best fit. Servers that outlive the
/// arrival's `lease` are preferred (see the [module docs](self)).
pub fn max_cost_server(
    vm: &VmDescriptor,
    lease: Option<usize>,
    servers: &[OpenServer<'_>],
    matrix: &CostMatrix,
) -> Option<usize> {
    max_cost_tier(vm, servers, matrix, |s| s.outlives(lease))
        .or_else(|| max_cost_tier(vm, servers, matrix, |_| true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{AllocationPolicy, BfdPolicy, FfdPolicy, ProposedPolicy};
    use cavm_trace::Reference;

    /// `(members, cores, class, watts_per_core)` of one test server.
    type ServerSpec<'a> = (&'a [(usize, f64)], f64, usize, f64);

    /// Builds aggregates for servers with the given `(members, cores,
    /// class, wpc)` tuples (no lease information: `drain_samples` is
    /// `None` everywhere unless overridden via [`Fixture::drains`]).
    struct Fixture {
        aggs: Vec<ServerCostAggregate>,
        meta: Vec<(usize, f64, f64)>,
        drains: Vec<Option<usize>>,
        health: Vec<bool>,
        margins: Vec<f64>,
    }

    impl Fixture {
        fn new(servers: &[ServerSpec<'_>], matrix: &CostMatrix) -> Self {
            let mut aggs = Vec::new();
            let mut meta = Vec::new();
            for &(members, cores, class, wpc) in servers {
                let mut agg = ServerCostAggregate::new();
                for &(id, util) in members {
                    agg.push(id, util, matrix);
                }
                aggs.push(agg);
                meta.push((class, cores, wpc));
            }
            let drains = vec![None; meta.len()];
            let health = vec![true; meta.len()];
            let margins = vec![0.0; meta.len()];
            Self {
                aggs,
                meta,
                drains,
                health,
                margins,
            }
        }

        fn drains(mut self, drains: &[Option<usize>]) -> Self {
            assert_eq!(drains.len(), self.meta.len());
            self.drains = drains.to_vec();
            self
        }

        fn margins(mut self, margins: &[f64]) -> Self {
            assert_eq!(margins.len(), self.meta.len());
            self.margins = margins.to_vec();
            self
        }

        fn failed(mut self, server: usize) -> Self {
            self.health[server] = false;
            self
        }

        fn views(&self) -> Vec<OpenServer<'_>> {
            self.aggs
                .iter()
                .zip(&self.meta)
                .zip(self.drains.iter().zip(&self.health))
                .zip(&self.margins)
                .map(
                    |(
                        ((agg, &(class, cores, watts_per_core)), (&drain_samples, &healthy)),
                        &overcommit_margin,
                    )| {
                        OpenServer {
                            class,
                            cores,
                            watts_per_core,
                            drain_samples,
                            agg,
                            healthy,
                            overcommit_margin,
                        }
                    },
                )
                .collect()
        }
    }

    #[test]
    fn open_server_accessors() {
        let m = CostMatrix::new(4, Reference::Peak).unwrap();
        let fx = Fixture::new(&[(&[(0, 3.0)], 8.0, 0, 37.5)], &m);
        let views = fx.views();
        assert_eq!(views[0].remaining(), 5.0);
        assert!(views[0].fits(5.0));
        assert!(!views[0].fits(5.1));
    }

    #[test]
    fn outlives_compares_drain_to_lease() {
        let m = CostMatrix::new(2, Reference::Peak).unwrap();
        let fx = Fixture::new(&[(&[(0, 3.0)], 8.0, 0, 37.5)], &m).drains(&[Some(100)]);
        let s = &fx.views()[0];
        assert!(s.outlives(Some(100)), "equal horizons do not extend");
        assert!(s.outlives(Some(40)));
        assert!(!s.outlives(Some(101)));
        assert!(!s.outlives(None), "open-ended lease outlasts any drain");
        let fx = Fixture::new(&[(&[(0, 3.0)], 8.0, 0, 37.5)], &m);
        let s = &fx.views()[0];
        assert!(s.outlives(None), "no drain info trivially outlives");
        assert!(s.outlives(Some(usize::MAX)));
    }

    #[test]
    fn admits_overcommits_only_anti_aligned_candidates() {
        // VM 2's peaks de-phase perfectly with VM 0 and coincide
        // exactly with VM 1.
        let m = CostMatrix::from_ticks(&[[4.0, 0.0, 0.0], [0.0, 4.0, 4.0]]);
        let vm = VmDescriptor::new(2, 4.0);
        // 6-core servers: residual 2 < demand 4, so plain fit fails
        // and only the margin path can admit.
        let anti = Fixture::new(&[(&[(0, 4.0)], 6.0, 0, 37.5)], &m).margins(&[0.5]);
        assert!(
            anti.views()[0].admits(&vm, &m),
            "anti-aligned peaks overcommit: coincident estimate within capacity"
        );
        let corr = Fixture::new(&[(&[(1, 4.0)], 6.0, 0, 37.5)], &m).margins(&[0.5]);
        assert!(
            !corr.views()[0].admits(&vm, &m),
            "aligned peaks never overcommit"
        );
        // Margin zero is bit-identical to plain fit, anti-aligned or
        // not.
        let plain = Fixture::new(&[(&[(0, 4.0)], 6.0, 0, 37.5)], &m);
        assert!(!plain.views()[0].admits(&vm, &m));
        assert!(plain.views()[0].admits(&VmDescriptor::new(2, 2.0), &m));
        // The margin caps the predicted sum regardless of correlation:
        // 4 + 4 = 8 > 6 × 1.1.
        let tiny = Fixture::new(&[(&[(0, 4.0)], 6.0, 0, 37.5)], &m).margins(&[0.1]);
        assert!(!tiny.views()[0].admits(&vm, &m));
        // An empty server never overcommits — no residents, no pairs,
        // no Eqn (2) evidence.
        let empty = Fixture::new(&[(&[], 3.0, 0, 37.5)], &m).margins(&[0.5]);
        assert!(!empty.views()[0].admits(&vm, &m));
    }

    #[test]
    fn overcommit_margin_extends_every_admission_rule() {
        let m = CostMatrix::from_ticks(&[[4.0, 0.0, 0.0], [0.0, 4.0, 4.0]]);
        let vm = VmDescriptor::new(2, 4.0);
        // One server, anti-aligned resident, too full for plain fit.
        let fx = Fixture::new(&[(&[(0, 4.0)], 6.0, 0, 37.5)], &m);
        let views = fx.views();
        assert_eq!(best_fit_server(&vm, None, &views, &m), None);
        assert_eq!(first_fit_server(&vm, None, &views, &m), None);
        assert_eq!(max_cost_server(&vm, None, &views, &m), None);
        let fx = fx.margins(&[0.5]);
        let views = fx.views();
        assert_eq!(best_fit_server(&vm, None, &views, &m), Some(0));
        assert_eq!(first_fit_server(&vm, None, &views, &m), Some(0));
        assert_eq!(max_cost_server(&vm, None, &views, &m), Some(0));
    }

    #[test]
    fn best_fit_picks_tightest_then_efficiency() {
        let m = CostMatrix::new(8, Reference::Peak).unwrap();
        let vm = VmDescriptor::new(7, 2.0);
        // Residuals 5, 2, 2 — the two ties differ in efficiency.
        let fx = Fixture::new(
            &[
                (&[(0, 3.0)], 8.0, 0, 37.5),
                (&[(1, 6.0)], 8.0, 0, 37.5),
                (&[(2, 2.0)], 4.0, 1, 20.0),
            ],
            &m,
        );
        assert_eq!(best_fit_server(&vm, None, &fx.views(), &m), Some(2));
        // With equal efficiency the last tie wins (batch BFD keep-last).
        let fx = Fixture::new(
            &[
                (&[(0, 3.0)], 8.0, 0, 37.5),
                (&[(1, 6.0)], 8.0, 0, 37.5),
                (&[(2, 6.0)], 8.0, 0, 37.5),
            ],
            &m,
        );
        assert_eq!(best_fit_server(&vm, None, &fx.views(), &m), Some(2));
        // Nothing fits: open a new server.
        let vm = VmDescriptor::new(7, 7.0);
        assert_eq!(best_fit_server(&vm, None, &fx.views(), &m), None);
    }

    #[test]
    fn lease_bias_avoids_draining_servers() {
        let m = CostMatrix::new(8, Reference::Peak).unwrap();
        let vm = VmDescriptor::new(7, 2.0);
        // Tightest server (residual 2) drains in 50 samples; the
        // roomier one (residual 5) hosts an unbounded member.
        let fx = Fixture::new(
            &[(&[(0, 3.0)], 8.0, 0, 37.5), (&[(1, 6.0)], 8.0, 0, 37.5)],
            &m,
        )
        .drains(&[None, Some(50)]);
        // A 200-sample lease outlasts server 1's drain: prefer server 0
        // even though it is a looser fit.
        assert_eq!(best_fit_server(&vm, Some(200), &fx.views(), &m), Some(0));
        // A 50-sample lease departs with (or before) server 1's members:
        // the lease-blind tightest fit stands.
        assert_eq!(best_fit_server(&vm, Some(50), &fx.views(), &m), Some(1));
        // No lease info on the arrival: an open-ended VM avoids the
        // draining server too.
        assert_eq!(best_fit_server(&vm, None, &fx.views(), &m), Some(0));
        // When only draining servers fit, the bias falls back instead
        // of opening a new server.
        let fx = Fixture::new(&[(&[(1, 6.0)], 8.0, 0, 37.5)], &m).drains(&[Some(50)]);
        assert_eq!(best_fit_server(&vm, Some(200), &fx.views(), &m), Some(0));
        assert_eq!(first_fit_server(&vm, Some(200), &fx.views(), &m), Some(0));
        assert_eq!(max_cost_server(&vm, Some(200), &fx.views(), &m), Some(0));
    }

    #[test]
    fn first_fit_ignores_tightness() {
        let m = CostMatrix::new(8, Reference::Peak).unwrap();
        let vm = VmDescriptor::new(7, 2.0);
        let fx = Fixture::new(
            &[(&[(0, 3.0)], 8.0, 0, 37.5), (&[(1, 6.0)], 8.0, 0, 37.5)],
            &m,
        );
        assert_eq!(first_fit_server(&vm, None, &fx.views(), &m), Some(0));
        // Lease-aware first fit skips ahead to the first outliving
        // server.
        let fx = Fixture::new(
            &[(&[(0, 3.0)], 8.0, 0, 37.5), (&[(1, 6.0)], 8.0, 0, 37.5)],
            &m,
        )
        .drains(&[Some(10), None]);
        assert_eq!(first_fit_server(&vm, Some(99), &fx.views(), &m), Some(1));
    }

    #[test]
    fn max_cost_prefers_anti_correlated_server() {
        // VM 2 is anti-correlated with VM 0 and correlated with VM 1.
        let m = CostMatrix::from_ticks(&[[4.0, 0.5, 0.5], [0.5, 4.0, 4.0]]);
        let vm = VmDescriptor::new(2, 4.0);
        let fx = Fixture::new(
            &[
                (&[(1, 4.0)], 8.0, 0, 37.5), // correlated host
                (&[(0, 4.0)], 8.0, 0, 37.5), // anti-correlated host
            ],
            &m,
        );
        assert_eq!(max_cost_server(&vm, None, &fx.views(), &m), Some(1));
        // The lease tier outranks the correlation score: when the
        // anti-correlated host is about to drain, the long-lease
        // arrival goes to the outliving (if correlated) host.
        let fx = Fixture::new(
            &[(&[(1, 4.0)], 8.0, 0, 37.5), (&[(0, 4.0)], 8.0, 0, 37.5)],
            &m,
        )
        .drains(&[None, Some(20)]);
        assert_eq!(max_cost_server(&vm, Some(500), &fx.views(), &m), Some(0));
    }

    #[test]
    fn no_rule_ever_picks_a_failed_server() {
        let m = CostMatrix::from_ticks(&[[4.0, 0.5, 0.5], [0.5, 4.0, 4.0]]);
        let vm = VmDescriptor::new(2, 2.0);
        // Server 0 is the winner under every rule: tightest fit, first
        // in order, and the anti-correlated Eqn (2) host. Fail it.
        let fx = Fixture::new(
            &[(&[(0, 6.0)], 8.0, 0, 37.5), (&[(1, 3.0)], 8.0, 0, 37.5)],
            &m,
        )
        .failed(0);
        let views = fx.views();
        assert_eq!(best_fit_server(&vm, None, &views, &m), Some(1));
        assert_eq!(first_fit_server(&vm, None, &views, &m), Some(1));
        assert_eq!(max_cost_server(&vm, None, &views, &m), Some(1));
        // Health beats the lease fallback tier too: a failed outliving
        // server never shadows a healthy draining one.
        let fx = Fixture::new(
            &[(&[(0, 6.0)], 8.0, 0, 37.5), (&[(1, 3.0)], 8.0, 0, 37.5)],
            &m,
        )
        .drains(&[None, Some(10)])
        .failed(0);
        let views = fx.views();
        assert_eq!(best_fit_server(&vm, Some(99), &views, &m), Some(1));
        assert_eq!(first_fit_server(&vm, Some(99), &views, &m), Some(1));
        assert_eq!(max_cost_server(&vm, Some(99), &views, &m), Some(1));
        // With every server failed, each rule opens a new server.
        let fx = Fixture::new(&[(&[(0, 3.0)], 8.0, 0, 37.5)], &m).failed(0);
        let views = fx.views();
        assert_eq!(best_fit_server(&vm, None, &views, &m), None);
        assert_eq!(first_fit_server(&vm, None, &views, &m), None);
        assert_eq!(max_cost_server(&vm, None, &views, &m), None);
    }

    #[test]
    fn policies_route_place_one_to_their_rules() {
        let m = CostMatrix::from_ticks(&[[4.0, 0.5, 0.0, 0.0], [0.5, 4.0, 0.0, 0.0]]);
        let vm = VmDescriptor::new(2, 2.0);
        let fx = Fixture::new(
            &[
                (&[(0, 3.0)], 8.0, 0, 37.5), // residual 5, anti-correlated
                (&[(1, 6.0)], 8.0, 0, 37.5), // residual 2, correlated
            ],
            &m,
        );
        let views = fx.views();
        // BFD (default rule): tightest fit.
        assert_eq!(BfdPolicy.place_one(&vm, None, &views, &m), Some(1));
        // FFD: first fit.
        assert_eq!(FfdPolicy.place_one(&vm, None, &views, &m), Some(0));
        // Proposed: maximal Eqn (2) cost — the anti-correlated host.
        assert_eq!(
            ProposedPolicy::default().place_one(&vm, None, &views, &m),
            Some(0)
        );
        // An oversized VM opens a new server under every rule.
        let huge = VmDescriptor::new(3, 20.0);
        assert_eq!(BfdPolicy.place_one(&huge, None, &views, &m), None);
        assert_eq!(FfdPolicy.place_one(&huge, None, &views, &m), None);
        assert_eq!(
            ProposedPolicy::default().place_one(&huge, None, &views, &m),
            None
        );
    }
}
