//! Peak Clustering-based Placement (PCP) — Verma et al., USENIX 2009
//! (the paper's reference \[6\]), the prior correlation-aware baseline.
//!
//! PCP works on **envelopes**: a VM's envelope is the binary sequence of
//! "utilization at or above its off-peak value". VMs whose envelopes
//! overlap (peak together) are merged into one cluster; placement then
//! co-locates VMs *from different clusters*, provisioning each by its
//! off-peak demand while reserving a shared **peak buffer** per server
//! for whoever exceeds its off-peak value.
//!
//! The paper's key observation (Table II discussion): on bursty,
//! fast-changing scale-out traces the envelopes of all VMs overlap, PCP
//! collapses to a single cluster, and "when the number of clusters is
//! '1', PCP behaves exactly same with BFD" — which this implementation
//! makes literal by delegating to [`BfdPolicy`] (on the same
//! [`ServerFleet`]) in that case.

use crate::alloc::{
    decreasing_order, validate_inputs, AllocationPolicy, BfdPolicy, Placement, VmDescriptor,
    FIT_EPS,
};
use crate::corr::CostMatrix;
use crate::fleet::{FleetCursor, ServerFleet};
use crate::CoreError;
use cavm_trace::{Envelope, Reference, TimeSeries};

/// Minimal union-find over `0..n`.
#[derive(Debug, Clone)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// The PCP baseline policy.
///
/// Construct it per placement period from the period's traces
/// ([`PcpPolicy::from_traces`]) or from precomputed cluster labels
/// ([`PcpPolicy::from_labels`]).
///
/// # Example
///
/// ```
/// use cavm_core::alloc::{AllocationPolicy, PcpPolicy, VmDescriptor};
/// use cavm_core::corr::CostMatrix;
/// use cavm_trace::{Reference, TimeSeries};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Two day-shift VMs and two night-shift VMs (disjoint envelopes).
/// let day = TimeSeries::new(1.0, vec![4.0, 4.0, 4.0, 0.5, 0.5, 0.5])?;
/// let night = TimeSeries::new(1.0, vec![0.5, 0.5, 0.5, 4.0, 4.0, 4.0])?;
/// let traces = [&day, &day, &night, &night];
/// let pcp = PcpPolicy::from_traces(&traces, 60.0, 0.5)?;
/// assert_eq!(pcp.cluster_count(), 2);
///
/// let vms: Vec<_> = (0..4).map(|i| VmDescriptor::new(i, 4.0).with_off_peak(3.0)).collect();
/// let matrix = CostMatrix::new(4, Reference::Peak)?;
/// let p = pcp.place_uniform(&vms, &matrix, 8.0)?;
/// // Day VMs split across servers, paired with night VMs.
/// assert_ne!(p.server_of(0), p.server_of(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcpPolicy {
    /// Cluster label per VM id.
    clusters: Vec<usize>,
    cluster_count: usize,
}

impl PcpPolicy {
    /// Clusters VMs by envelope overlap.
    ///
    /// Each VM's envelope thresholds its own trace at its
    /// `envelope_percentile` (Verma uses the off-peak value, typically
    /// the 90th percentile). Two VMs whose envelope **containment**
    /// (overlap normalized by the smaller active set) reaches
    /// `affinity_threshold` are merged into one cluster.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an empty trace set or
    /// out-of-range parameters, and trace errors for malformed traces.
    pub fn from_traces(
        traces: &[&TimeSeries],
        envelope_percentile: f64,
        affinity_threshold: f64,
    ) -> crate::Result<Self> {
        if traces.is_empty() {
            return Err(CoreError::InvalidParameter("pcp needs at least one trace"));
        }
        if !(0.0..=1.0).contains(&affinity_threshold) {
            return Err(CoreError::InvalidParameter(
                "affinity threshold must be in [0, 1]",
            ));
        }
        let envelopes: Vec<Envelope> = traces
            .iter()
            .map(|t| Envelope::from_series(t, Reference::Percentile(envelope_percentile)))
            .collect::<std::result::Result<_, _>>()
            .map_err(CoreError::Trace)?;
        let n = envelopes.len();
        let mut uf = UnionFind::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                let affinity = envelopes[i]
                    .containment(&envelopes[j])
                    .map_err(CoreError::Trace)?;
                if affinity >= affinity_threshold {
                    uf.union(i, j);
                }
            }
        }
        let mut labels = vec![0usize; n];
        let mut next = 0usize;
        let mut canon: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
        for (v, label) in labels.iter_mut().enumerate() {
            let root = uf.find(v);
            let entry = canon.entry(root).or_insert_with(|| {
                let l = next;
                next += 1;
                l
            });
            *label = *entry;
        }
        Ok(Self {
            clusters: labels,
            cluster_count: next,
        })
    }

    /// Uses precomputed cluster labels (`labels[vm_id]`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an empty label set.
    pub fn from_labels(labels: Vec<usize>) -> crate::Result<Self> {
        if labels.is_empty() {
            return Err(CoreError::InvalidParameter("pcp needs at least one label"));
        }
        let cluster_count = {
            let set: std::collections::HashSet<usize> = labels.iter().copied().collect();
            set.len()
        };
        Ok(Self {
            clusters: labels,
            cluster_count,
        })
    }

    /// Number of clusters found.
    pub fn cluster_count(&self) -> usize {
        self.cluster_count
    }

    /// Cluster label per VM id.
    pub fn clusters(&self) -> &[usize] {
        &self.clusters
    }
}

struct PcpBin {
    members: Vec<usize>,
    used_off_peak: f64,
    peak_buffer: f64,
    cores: f64,
    class: usize,
    clusters: std::collections::HashSet<usize>,
}

impl PcpBin {
    fn open(class: usize, cores: f64) -> Self {
        PcpBin {
            members: Vec::new(),
            used_off_peak: 0.0,
            peak_buffer: 0.0,
            cores,
            class,
            clusters: std::collections::HashSet::new(),
        }
    }

    fn fits(&self, vm: &VmDescriptor) -> bool {
        let buffer = self.peak_buffer.max(vm.demand - vm.off_peak);
        self.used_off_peak + vm.off_peak + buffer <= self.cores + FIT_EPS
    }

    fn add(&mut self, vm: &VmDescriptor, cluster: usize) {
        self.members.push(vm.id);
        self.used_off_peak += vm.off_peak;
        self.peak_buffer = self.peak_buffer.max(vm.demand - vm.off_peak);
        self.clusters.insert(cluster);
    }
}

impl AllocationPolicy for PcpPolicy {
    fn name(&self) -> &'static str {
        "PCP"
    }

    fn place(
        &self,
        vms: &[VmDescriptor],
        matrix: &CostMatrix,
        fleet: &ServerFleet,
    ) -> crate::Result<Placement> {
        validate_inputs(vms, matrix)?;
        for d in vms {
            if d.id >= self.clusters.len() {
                return Err(CoreError::UnknownVm {
                    id: d.id,
                    known: self.clusters.len(),
                });
            }
            if d.off_peak > d.demand + FIT_EPS {
                return Err(CoreError::InvalidParameter(
                    "off-peak demand exceeds peak demand",
                ));
            }
        }
        // The degenerate single-cluster case the paper highlights.
        if self.cluster_count <= 1 {
            return BfdPolicy.place(vms, matrix, fleet);
        }

        // Pre-open the off-peak lower bound of servers (a prefix of the
        // fleet's fill order) so that early (large) VMs spread across
        // bins instead of stacking cluster mates into the first one —
        // PCP's whole point is interleaving VMs of different clusters.
        let total_off_peak: f64 = vms.iter().map(|d| d.off_peak).sum();
        let mut cursor = FleetCursor::new(fleet);
        let mut bins: Vec<PcpBin> = Vec::new();
        let mut open_capacity = 0.0;
        while total_off_peak > 0.0 && open_capacity + FIT_EPS < total_off_peak {
            match cursor.open_next() {
                Some((class, cores)) => {
                    open_capacity += cores;
                    bins.push(PcpBin::open(class, cores));
                }
                None => break,
            }
        }
        for (placed, &idx) in decreasing_order(vms).iter().enumerate() {
            let vm = &vms[idx];
            let cluster = self.clusters[vm.id];
            // Prefer the tightest feasible bin NOT already hosting this
            // cluster; fall back to any feasible bin; else open the next
            // fill-order server. "Tightest" is the minimal off-peak
            // residual (ties keep the last candidate — the
            // `max_by`-on-used semantics of the uniform formulation).
            let pick = |require_disjoint: bool, bins: &[PcpBin]| -> Option<usize> {
                let mut best: Option<(usize, f64)> = None;
                for (i, b) in bins.iter().enumerate() {
                    if !b.fits(vm) || (require_disjoint && b.clusters.contains(&cluster)) {
                        continue;
                    }
                    let residual = b.cores - b.used_off_peak;
                    if best.is_none_or(|(_, best_residual)| residual <= best_residual) {
                        best = Some((i, residual));
                    }
                }
                best.map(|(i, _)| i)
            };
            let target = pick(true, &bins).or_else(|| pick(false, &bins));
            match target {
                Some(i) => bins[i].add(vm, cluster),
                None => {
                    let (class, cores) = cursor
                        .open_next()
                        .ok_or_else(|| cursor.exhausted(vms.len() - placed))?;
                    let mut bin = PcpBin::open(class, cores);
                    bin.add(vm, cluster);
                    bins.push(bin);
                }
            }
        }
        Ok(Placement::from_classed_servers(
            bins.into_iter().map(|b| (b.members, b.class)).collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(v: &[f64]) -> TimeSeries {
        TimeSeries::new(1.0, v.to_vec()).unwrap()
    }

    #[test]
    fn clustering_separates_disjoint_envelopes() {
        let day = series(&[4.0, 4.0, 4.0, 0.5, 0.5, 0.5]);
        let night = series(&[0.5, 0.5, 0.5, 4.0, 4.0, 4.0]);
        let pcp = PcpPolicy::from_traces(&[&day, &day, &night, &night], 60.0, 0.5).unwrap();
        assert_eq!(pcp.cluster_count(), 2);
        assert_eq!(pcp.clusters()[0], pcp.clusters()[1]);
        assert_eq!(pcp.clusters()[2], pcp.clusters()[3]);
        assert_ne!(pcp.clusters()[0], pcp.clusters()[2]);
    }

    #[test]
    fn bursty_traces_collapse_to_one_cluster() {
        // Datacenter-wide bursts (Benson et al.): a sizeable share of
        // each VM's 5 s spikes comes from a fleet-wide factor, so every
        // envelope overlaps with every other — the degeneration the
        // paper reports for PCP (1 cluster in 22 of 24 periods).
        let mut rng = cavm_trace::SimRng::new(4);
        let n = 500;
        let shared: Vec<f64> = (0..n).map(|_| rng.lognormal_mean_cv(1.0, 0.6)).collect();
        let traces: Vec<TimeSeries> = (0..6)
            .map(|_| {
                series(
                    &(0..n)
                        .map(|k| {
                            if rng.bernoulli(0.6) {
                                shared[k]
                            } else {
                                rng.lognormal_mean_cv(1.0, 0.6)
                            }
                        })
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let refs: Vec<&TimeSeries> = traces.iter().collect();
        let pcp = PcpPolicy::from_traces(&refs, 90.0, 0.25).unwrap();
        assert_eq!(pcp.cluster_count(), 1, "bursty envelopes must merge");
    }

    #[test]
    fn single_cluster_delegates_to_bfd() {
        let pcp = PcpPolicy::from_labels(vec![0, 0, 0]).unwrap();
        let vms: Vec<VmDescriptor> = (0..3).map(|i| VmDescriptor::new(i, 3.0)).collect();
        let matrix = CostMatrix::new(3, Reference::Peak).unwrap();
        let via_pcp = pcp.place_uniform(&vms, &matrix, 8.0).unwrap();
        let via_bfd = BfdPolicy.place_uniform(&vms, &matrix, 8.0).unwrap();
        assert_eq!(via_pcp, via_bfd);
        assert_eq!(pcp.name(), "PCP");
    }

    #[test]
    fn multi_cluster_placement_interleaves_clusters() {
        let pcp = PcpPolicy::from_labels(vec![0, 0, 1, 1]).unwrap();
        let vms: Vec<VmDescriptor> = (0..4)
            .map(|i| VmDescriptor::new(i, 4.0).with_off_peak(3.0))
            .collect();
        let matrix = CostMatrix::new(4, Reference::Peak).unwrap();
        let p = pcp.place_uniform(&vms, &matrix, 8.0).unwrap();
        p.validate(&vms, 8.0).unwrap();
        // Cluster-mates are split.
        assert_ne!(p.server_of(0), p.server_of(1));
        assert_ne!(p.server_of(2), p.server_of(3));
    }

    #[test]
    fn off_peak_provisioning_packs_denser_than_peak() {
        // Three VMs with peak 4 but off-peak 2: peak-based packing needs
        // 2 servers of capacity 8; off-peak + buffer needs
        // 3·2 + (4-2) = 8 ≤ 8 → one server, when clusters differ.
        let pcp = PcpPolicy::from_labels(vec![0, 1, 2]).unwrap();
        let vms: Vec<VmDescriptor> = (0..3)
            .map(|i| VmDescriptor::new(i, 4.0).with_off_peak(2.0))
            .collect();
        let matrix = CostMatrix::new(3, Reference::Peak).unwrap();
        let p = pcp.place_uniform(&vms, &matrix, 8.0).unwrap();
        assert_eq!(p.server_count(), 1);
    }

    #[test]
    fn validates_inputs() {
        let pcp = PcpPolicy::from_labels(vec![0, 1]).unwrap();
        let matrix = CostMatrix::new(3, Reference::Peak).unwrap();
        // Id 2 has no cluster label.
        let vms = vec![VmDescriptor::new(2, 1.0)];
        assert!(matches!(
            pcp.place_uniform(&vms, &matrix, 8.0),
            Err(CoreError::UnknownVm { id: 2, known: 2 })
        ));
        // off_peak > demand is malformed.
        let vms = vec![VmDescriptor::new(0, 1.0).with_off_peak(2.0)];
        assert!(pcp.place_uniform(&vms, &matrix, 8.0).is_err());
        assert!(PcpPolicy::from_labels(vec![]).is_err());
        assert!(PcpPolicy::from_traces(&[], 90.0, 0.5).is_err());
        let t = series(&[1.0, 2.0]);
        assert!(PcpPolicy::from_traces(&[&t], 90.0, 1.5).is_err());
    }

    #[test]
    fn capacity_respected_in_multi_cluster_mode() {
        let pcp = PcpPolicy::from_labels(vec![0, 1, 0, 1, 0, 1]).unwrap();
        let vms: Vec<VmDescriptor> = (0..6)
            .map(|i| VmDescriptor::new(i, 3.0).with_off_peak(2.5))
            .collect();
        let matrix = CostMatrix::new(6, Reference::Peak).unwrap();
        let p = pcp.place_uniform(&vms, &matrix, 8.0).unwrap();
        // Peak-sum capacity does not bound PCP (off-peak provisioning);
        // check coverage plus PCP's own off-peak + buffer rule instead.
        p.validate_structure(&vms).unwrap();
        for (i, server) in p.servers().iter().enumerate() {
            let off: f64 = server.iter().map(|&id| vms[id].off_peak).sum();
            let buffer = server
                .iter()
                .map(|&id| vms[id].demand - vms[id].off_peak)
                .fold(0.0, f64::max);
            assert!(off + buffer <= 8.0 + 1e-9, "server {i} overcommitted");
        }
    }

    #[test]
    fn hetero_fleet_honours_per_class_off_peak_budget() {
        use crate::fleet::ServerClass;
        use cavm_power::LinearPowerModel;
        let xeon = LinearPowerModel::xeon_e5410;
        let fleet = ServerFleet::new(vec![
            ServerClass::new("big", 1, 12.0, xeon().scaled(1.5).unwrap()).unwrap(),
            ServerClass::new("small", 6, 4.0, xeon()).unwrap(),
        ])
        .unwrap();
        let pcp = PcpPolicy::from_labels(vec![0, 1, 0, 1, 0, 1]).unwrap();
        let vms: Vec<VmDescriptor> = (0..6)
            .map(|i| VmDescriptor::new(i, 3.0).with_off_peak(2.5))
            .collect();
        let matrix = CostMatrix::new(6, Reference::Peak).unwrap();
        let p = pcp.place(&vms, &matrix, &fleet).unwrap();
        p.validate_structure(&vms).unwrap();
        for (i, server) in p.servers().iter().enumerate() {
            let cores = fleet.classes()[p.class_of(i).unwrap()].cores();
            let off: f64 = server.iter().map(|&id| vms[id].off_peak).sum();
            let buffer = server
                .iter()
                .map(|&id| vms[id].demand - vms[id].off_peak)
                .fold(0.0, f64::max);
            assert!(
                server.len() == 1 || off + buffer <= cores + 1e-9,
                "server {i} overcommitted for its class"
            );
        }
    }
}
