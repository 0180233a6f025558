//! The fan-out/join processor-sharing discrete-event engine.
//!
//! Model, mirroring the testbed of the paper's Setup-1:
//!
//! * Each **cluster** (a [`WebSearchCluster`]) receives queries as an
//!   inhomogeneous Poisson stream with rate `clients(t) / think_time`
//!   where `clients(t)` is a [`ClientWave`].
//! * A query spawns one CPU **task per ISN** with a sampled demand in
//!   core-seconds; the query completes when its *last* task finishes,
//!   plus a small front-end gather overhead.
//! * Tasks execute under **processor sharing** inside a scheduling
//!   domain: either the VM's dedicated core partition (the paper's
//!   *Segregated* placement pins 4 of 8 cores per VM) or the whole
//!   server pool (*Shared*). A single task never exceeds one core — the
//!   per-query work is single-threaded, parallelism comes from
//!   concurrent queries.
//! * The server frequency scales all execution rates (`1.9/2.1` in the
//!   paper's low-power configuration).
//!
//! Between events all rates are constant, so the engine advances
//! event-to-event exactly (no time-stepping error) and integrates
//! per-VM core usage for the utilization traces of Fig 4.

use crate::ClusterError;
use cavm_trace::{SimRng, TimeSeries};
use cavm_workload::{ClientWave, WebSearchCluster};

/// A physical server: core count and DVFS speed factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerSpec {
    /// Number of physical cores.
    pub cores: usize,
    /// Execution-rate multiplier, `f / f_max` (1.0 = full speed).
    pub frequency_scale: f64,
}

impl ServerSpec {
    /// Creates a spec.
    pub fn new(cores: usize, frequency_scale: f64) -> Self {
        Self {
            cores,
            frequency_scale,
        }
    }
}

/// How queries arrive at the clusters.
///
/// The paper's Faban client emulator is **closed-loop**: each emulated
/// client thinks, issues one query, and only thinks again after the
/// response returns — so a slow system throttles its own offered load.
/// The **open-loop** model issues a Poisson stream at the instantaneous
/// rate `clients(t)/think_time` regardless of backlog; it is simpler and
/// stresses overload harder (queues grow unboundedly past saturation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalModel {
    /// Time-varying Poisson arrivals, independent of response times.
    Open,
    /// Faban-style finite client population with think times.
    Closed,
}

/// Maps one ISN (a VM) onto a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmAssignment {
    /// Index of the cluster this VM belongs to.
    pub cluster: usize,
    /// ISN index within the cluster.
    pub isn: usize,
    /// Hosting server index.
    pub server: usize,
    /// `Some(k)` pins the VM to `k` dedicated cores (Segregated);
    /// `None` lets its tasks share the server's whole pool.
    pub dedicated_cores: Option<usize>,
}

/// Full scenario description.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSimConfig {
    /// The physical servers.
    pub servers: Vec<ServerSpec>,
    /// The web-search clusters (demand models).
    pub clusters: Vec<WebSearchCluster>,
    /// One client wave per cluster.
    pub waves: Vec<ClientWave>,
    /// One assignment per (cluster, ISN) pair.
    pub assignments: Vec<VmAssignment>,
    /// Simulated wall-clock seconds.
    pub duration_s: f64,
    /// Utilization sampling interval (the paper's monitor used 1 s).
    pub sample_dt_s: f64,
    /// Response times of queries arriving before this instant are
    /// discarded (transient warm-up).
    pub warmup_s: f64,
    /// Open-loop Poisson or closed-loop finite-population clients.
    pub arrival_model: ArrivalModel,
    /// RNG seed: identical configs and seeds reproduce exactly.
    pub seed: u64,
}

/// Simulation output.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSimResult {
    /// Average core usage per sampling window, one series per
    /// assignment (same order as `config.assignments`), in cores.
    pub vm_utilization: Vec<TimeSeries>,
    /// Aggregate utilization per server as a fraction of its cores.
    pub server_utilization: Vec<TimeSeries>,
    /// Response times (seconds) per cluster, post-warm-up, in
    /// completion order.
    pub response_times: Vec<Vec<f64>>,
    /// Queries issued per cluster over the whole run.
    pub queries_issued: Vec<usize>,
    /// Queries completed per cluster before the run ended.
    pub queries_completed: Vec<usize>,
}

impl ClusterSimResult {
    /// The 90th-percentile response time of a cluster — the paper's
    /// Fig 5 metric.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidParameter`] for a cluster index
    /// the simulation does not know, and a trace error when the
    /// cluster recorded no responses.
    pub fn p90_response(&self, cluster: usize) -> crate::Result<f64> {
        let responses = self
            .response_times
            .get(cluster)
            .ok_or(ClusterError::InvalidParameter(
                "cluster index outside the simulated clusters",
            ))?;
        Ok(cavm_trace::percentile(responses, 90.0)?)
    }

    /// Peak of a server's utilization trace (fraction of cores).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidParameter`] for a server index
    /// the simulation does not know.
    pub fn peak_server_utilization(&self, server: usize) -> crate::Result<f64> {
        Ok(self
            .server_utilization
            .get(server)
            .ok_or(ClusterError::InvalidParameter(
                "server index outside the simulated servers",
            ))?
            .peak())
    }
}

/// A validated, runnable scenario.
#[derive(Debug, Clone)]
pub struct ClusterSim {
    config: ClusterSimConfig,
}

/// Scheduling domain: a core pool with processor sharing.
#[derive(Debug, Clone, Copy)]
struct Domain {
    cores: f64,
    speed: f64,
    tasks: usize,
}

impl Domain {
    /// Rate (cores of max-frequency work per second) each task receives.
    fn task_rate(&self) -> f64 {
        if self.tasks == 0 {
            0.0
        } else {
            (self.cores / self.tasks as f64).min(1.0) * self.speed
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Task {
    domain: usize,
    vm: usize,
    query: usize,
    remaining: f64,
}

#[derive(Debug, Clone, Copy)]
struct Query {
    cluster: usize,
    arrival: f64,
    pending: usize,
}

/// Spawns one query's fan-out tasks (shared by both arrival models).
#[allow(clippy::too_many_arguments)]
fn issue_query(
    cluster: usize,
    arrival: f64,
    cfg: &ClusterSimConfig,
    qrng: &mut SimRng,
    queries: &mut Vec<Query>,
    tasks: &mut Vec<Task>,
    domains: &mut [Domain],
    vm_of: &std::collections::HashMap<(usize, usize), usize>,
    domain_of_vm: &[usize],
    issued: &mut [usize],
) {
    issued[cluster] += 1;
    let demands = cfg.clusters[cluster].sample_query_demands(qrng);
    let qid = queries.len();
    queries.push(Query {
        cluster,
        arrival,
        pending: demands.len(),
    });
    for (isn, demand) in demands.into_iter().enumerate() {
        let vm = vm_of[&(cluster, isn)];
        let domain = domain_of_vm[vm];
        domains[domain].tasks += 1;
        tasks.push(Task {
            domain,
            vm,
            query: qid,
            remaining: demand.max(1e-9),
        });
    }
}

/// A pending "client finishes thinking and issues a query" event.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ThinkEvent {
    time: f64,
    seq: u64,
    cluster: usize,
}

impl Eq for ThinkEvent {}

impl Ord for ThinkEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Finite times by construction; tie-break on sequence for
        // determinism. Reversed so BinaryHeap pops the earliest.
        other
            .time
            .partial_cmp(&self.time)
            .expect("finite event times")
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for ThinkEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Closed-loop client population of one cluster.
#[derive(Debug, Clone)]
struct ClientPool {
    /// Live clients (thinking or with a query in flight).
    live: usize,
    /// Clients scheduled to leave as soon as they next become idle.
    retire_pending: usize,
    rng: SimRng,
}

impl ClientPool {
    /// Brings the pool toward `target` live clients: cancels pending
    /// retirements first, then spawns (returning think events) or marks
    /// surplus clients for retirement.
    fn adjust(
        &mut self,
        target: usize,
        now: f64,
        think_time: f64,
        cluster: usize,
        seq: &mut u64,
        heap: &mut std::collections::BinaryHeap<ThinkEvent>,
    ) {
        let effective = self.live - self.retire_pending.min(self.live);
        if target > effective {
            let mut need = target - effective;
            let cancelled = need.min(self.retire_pending);
            self.retire_pending -= cancelled;
            need -= cancelled;
            for _ in 0..need {
                self.live += 1;
                let delay = self
                    .rng
                    .exponential(1.0 / think_time)
                    .expect("positive rate");
                *seq += 1;
                heap.push(ThinkEvent {
                    time: now + delay,
                    seq: *seq,
                    cluster,
                });
            }
        } else {
            self.retire_pending += effective - target;
        }
    }

    /// A client became idle: retire it if a retirement is pending,
    /// otherwise schedule its next query issue.
    fn client_idle(
        &mut self,
        now: f64,
        think_time: f64,
        cluster: usize,
        seq: &mut u64,
        heap: &mut std::collections::BinaryHeap<ThinkEvent>,
    ) {
        if self.retire_pending > 0 {
            self.retire_pending -= 1;
            self.live = self.live.saturating_sub(1);
        } else {
            let delay = self
                .rng
                .exponential(1.0 / think_time)
                .expect("positive rate");
            *seq += 1;
            heap.push(ThinkEvent {
                time: now + delay,
                seq: *seq,
                cluster,
            });
        }
    }
}

impl ClusterSim {
    /// Validates a scenario.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidParameter`] or
    /// [`ClusterError::BadAssignment`] describing the first problem.
    pub fn new(config: ClusterSimConfig) -> crate::Result<Self> {
        if config.servers.is_empty() {
            return Err(ClusterError::InvalidParameter(
                "at least one server required",
            ));
        }
        for s in &config.servers {
            if s.cores == 0 {
                return Err(ClusterError::InvalidParameter(
                    "servers need at least one core",
                ));
            }
            if !(s.frequency_scale.is_finite() && s.frequency_scale > 0.0) {
                return Err(ClusterError::InvalidParameter(
                    "frequency scale must be > 0",
                ));
            }
        }
        if config.clusters.is_empty() {
            return Err(ClusterError::InvalidParameter(
                "at least one cluster required",
            ));
        }
        if config.waves.len() != config.clusters.len() {
            return Err(ClusterError::InvalidParameter(
                "one client wave per cluster required",
            ));
        }
        if !(config.duration_s.is_finite() && config.duration_s > 0.0) {
            return Err(ClusterError::InvalidParameter("duration must be > 0"));
        }
        if !(config.sample_dt_s.is_finite() && config.sample_dt_s > 0.0) {
            return Err(ClusterError::InvalidParameter(
                "sample interval must be > 0",
            ));
        }
        if !(config.warmup_s.is_finite()
            && config.warmup_s >= 0.0
            && config.warmup_s < config.duration_s)
        {
            return Err(ClusterError::InvalidParameter(
                "warmup must lie within the run",
            ));
        }
        // Exactly one assignment per (cluster, isn).
        let mut expected: std::collections::HashSet<(usize, usize)> =
            std::collections::HashSet::new();
        for (c, cluster) in config.clusters.iter().enumerate() {
            for i in 0..cluster.isns() {
                expected.insert((c, i));
            }
        }
        let mut seen = std::collections::HashSet::new();
        for a in &config.assignments {
            if a.server >= config.servers.len() {
                return Err(ClusterError::BadAssignment(
                    "assignment names an unknown server",
                ));
            }
            if !expected.contains(&(a.cluster, a.isn)) {
                return Err(ClusterError::BadAssignment(
                    "assignment names an unknown (cluster, isn) pair",
                ));
            }
            if !seen.insert((a.cluster, a.isn)) {
                return Err(ClusterError::BadAssignment("duplicate assignment for a vm"));
            }
        }
        if seen.len() != expected.len() {
            return Err(ClusterError::BadAssignment("every isn needs an assignment"));
        }
        // Per server: dedicated core budgets must fit, and dedicated /
        // shared VMs must not mix (the pool semantics would be ambiguous).
        for (s, spec) in config.servers.iter().enumerate() {
            let on_server: Vec<&VmAssignment> = config
                .assignments
                .iter()
                .filter(|a| a.server == s)
                .collect();
            let dedicated: usize = on_server
                .iter()
                .map(|a| a.dedicated_cores.unwrap_or(0))
                .sum();
            if dedicated > spec.cores {
                return Err(ClusterError::BadAssignment(
                    "dedicated cores exceed the server's core count",
                ));
            }
            let any_dedicated = on_server.iter().any(|a| a.dedicated_cores.is_some());
            let any_shared = on_server.iter().any(|a| a.dedicated_cores.is_none());
            if any_dedicated && any_shared {
                return Err(ClusterError::BadAssignment(
                    "mixing dedicated and pool vms on one server is not supported",
                ));
            }
            if on_server.iter().any(|a| a.dedicated_cores == Some(0)) {
                return Err(ClusterError::BadAssignment(
                    "dedicated vms need at least one core",
                ));
            }
        }
        Ok(Self { config })
    }

    /// The validated configuration.
    pub fn config(&self) -> &ClusterSimConfig {
        &self.config
    }

    /// Runs the scenario to completion.
    ///
    /// # Errors
    ///
    /// Propagates trace/workload errors from arrival generation; the
    /// event loop itself is total.
    pub fn run(&self) -> crate::Result<ClusterSimResult> {
        let cfg = &self.config;
        let rng = SimRng::new(cfg.seed);

        // --- Domains -------------------------------------------------
        // One domain per dedicated VM; one pooled domain per server that
        // hosts pool VMs.
        let mut domains: Vec<Domain> = Vec::new();
        let mut pool_domain_of_server: Vec<Option<usize>> = vec![None; cfg.servers.len()];
        let mut domain_of_vm: Vec<usize> = Vec::with_capacity(cfg.assignments.len());
        for a in &cfg.assignments {
            let spec = cfg.servers[a.server];
            let d = match a.dedicated_cores {
                Some(k) => {
                    domains.push(Domain {
                        cores: k as f64,
                        speed: spec.frequency_scale,
                        tasks: 0,
                    });
                    domains.len() - 1
                }
                None => match pool_domain_of_server[a.server] {
                    Some(d) => d,
                    None => {
                        domains.push(Domain {
                            cores: spec.cores as f64,
                            speed: spec.frequency_scale,
                            tasks: 0,
                        });
                        pool_domain_of_server[a.server] = Some(domains.len() - 1);
                        domains.len() - 1
                    }
                },
            };
            domain_of_vm.push(d);
        }
        // vm index lookup by (cluster, isn).
        let mut vm_of: std::collections::HashMap<(usize, usize), usize> =
            std::collections::HashMap::new();
        for (v, a) in cfg.assignments.iter().enumerate() {
            vm_of.insert((a.cluster, a.isn), v);
        }

        // --- Arrivals: inhomogeneous Poisson by thinning ---------------
        let mut arrivals: Vec<(f64, usize)> = Vec::new();
        if cfg.arrival_model == ArrivalModel::Open {
            for (c, (cluster, wave)) in cfg.clusters.iter().zip(&cfg.waves).enumerate() {
                let lambda_max = cluster.arrival_rate(wave.max()).max(1e-9);
                let mut t = 0.0;
                let mut arng = rng.fork(10_000 + c as u64);
                loop {
                    t += arng.exponential(lambda_max).map_err(ClusterError::Trace)?;
                    if t >= cfg.duration_s {
                        break;
                    }
                    let accept = cluster.arrival_rate(wave.value_at(t)) / lambda_max;
                    if arng.bernoulli(accept) {
                        arrivals.push((t, c));
                    }
                }
            }
            arrivals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
        }

        // Closed-loop client pools (Faban-style): one per cluster, with
        // the population re-targeted to the wave at every sample tick.
        let mut think_heap: std::collections::BinaryHeap<ThinkEvent> =
            std::collections::BinaryHeap::new();
        let mut think_seq = 0u64;
        let mut pools: Vec<ClientPool> = (0..cfg.clusters.len())
            .map(|c| ClientPool {
                live: 0,
                retire_pending: 0,
                rng: rng.fork(20_000 + c as u64),
            })
            .collect();
        if cfg.arrival_model == ArrivalModel::Closed {
            for (c, wave) in cfg.waves.iter().enumerate() {
                let target = wave.value_at(0.0).round().max(0.0) as usize;
                let think = cfg.clusters[c].config().think_time_s;
                pools[c].adjust(target, 0.0, think, c, &mut think_seq, &mut think_heap);
            }
        }

        // --- Event loop ------------------------------------------------
        let n_vms = cfg.assignments.len();
        let n_samples = (cfg.duration_s / cfg.sample_dt_s).floor() as usize;
        let mut vm_samples: Vec<Vec<f64>> = vec![Vec::with_capacity(n_samples); n_vms];
        let mut vm_busy = vec![0.0f64; n_vms];
        let mut queries: Vec<Query> = Vec::new();
        let mut tasks: Vec<Task> = Vec::new();
        let mut responses: Vec<Vec<f64>> = vec![Vec::new(); cfg.clusters.len()];
        let mut issued = vec![0usize; cfg.clusters.len()];
        let mut completed = vec![0usize; cfg.clusters.len()];
        let mut qrng = rng.fork(77);

        let mut now = 0.0f64;
        let mut next_arrival_idx = 0usize;
        let mut next_sample = cfg.sample_dt_s;
        let mut samples_taken = 0usize;
        const EPS: f64 = 1e-9;

        while samples_taken < n_samples {
            // Next completion under current rates.
            let mut next_completion = f64::INFINITY;
            for task in &tasks {
                let rate = domains[task.domain].task_rate();
                if rate > 0.0 {
                    next_completion = next_completion.min(now + task.remaining / rate);
                }
            }
            let next_arrival = match cfg.arrival_model {
                ArrivalModel::Open => arrivals
                    .get(next_arrival_idx)
                    .map(|&(t, _)| t)
                    .unwrap_or(f64::INFINITY),
                ArrivalModel::Closed => think_heap.peek().map(|e| e.time).unwrap_or(f64::INFINITY),
            };
            let horizon = next_completion.min(next_arrival).min(next_sample);
            let dt = (horizon - now).max(0.0);

            // Advance work and usage integration.
            if dt > 0.0 {
                for task in tasks.iter_mut() {
                    let rate = domains[task.domain].task_rate();
                    task.remaining -= rate * dt;
                    vm_busy[task.vm] += rate * dt;
                }
                now = horizon;
            } else {
                now = horizon;
            }

            // 1. Completions (batch everything that just hit zero).
            let mut finished: Vec<usize> = Vec::new();
            for (i, task) in tasks.iter().enumerate() {
                if task.remaining <= EPS {
                    finished.push(i);
                }
            }
            for &i in finished.iter().rev() {
                let task = tasks.swap_remove(i);
                domains[task.domain].tasks -= 1;
                let q = &mut queries[task.query];
                q.pending -= 1;
                if q.pending == 0 {
                    let cluster = &cfg.clusters[q.cluster];
                    let response = now - q.arrival + cluster.config().frontend_demand_core_s;
                    completed[q.cluster] += 1;
                    if q.arrival >= cfg.warmup_s {
                        responses[q.cluster].push(response);
                    }
                    // Closed loop: the issuing client is idle again.
                    if cfg.arrival_model == ArrivalModel::Closed {
                        let think = cluster.config().think_time_s;
                        let c = q.cluster;
                        pools[c].client_idle(now, think, c, &mut think_seq, &mut think_heap);
                    }
                }
            }

            // 2a. Open-loop arrival.
            if cfg.arrival_model == ArrivalModel::Open
                && (next_arrival - now).abs() <= EPS
                && next_arrival_idx < arrivals.len()
            {
                let (t, c) = arrivals[next_arrival_idx];
                next_arrival_idx += 1;
                issue_query(
                    c,
                    t,
                    cfg,
                    &mut qrng,
                    &mut queries,
                    &mut tasks,
                    &mut domains,
                    &vm_of,
                    &domain_of_vm,
                    &mut issued,
                );
            }

            // 2b. Closed-loop think expiries (batch everything due now).
            if cfg.arrival_model == ArrivalModel::Closed {
                while think_heap.peek().is_some_and(|e| e.time <= now + EPS) {
                    let ev = think_heap.pop().expect("peeked entry exists");
                    let pool = &mut pools[ev.cluster];
                    if pool.retire_pending > 0 {
                        // The wave shrank: this client leaves instead of
                        // issuing another query.
                        pool.retire_pending -= 1;
                        pool.live = pool.live.saturating_sub(1);
                        continue;
                    }
                    issue_query(
                        ev.cluster,
                        now,
                        cfg,
                        &mut qrng,
                        &mut queries,
                        &mut tasks,
                        &mut domains,
                        &vm_of,
                        &domain_of_vm,
                        &mut issued,
                    );
                }
            }

            // 3. Sample boundary.
            if (next_sample - now).abs() <= EPS {
                for (vm, busy) in vm_busy.iter_mut().enumerate() {
                    vm_samples[vm].push(*busy / cfg.sample_dt_s);
                    *busy = 0.0;
                }
                samples_taken += 1;
                next_sample = (samples_taken + 1) as f64 * cfg.sample_dt_s;
                // Re-target the closed-loop populations to the wave.
                if cfg.arrival_model == ArrivalModel::Closed {
                    for (c, wave) in cfg.waves.iter().enumerate() {
                        let target = wave.value_at(now).round().max(0.0) as usize;
                        let think = cfg.clusters[c].config().think_time_s;
                        pools[c].adjust(target, now, think, c, &mut think_seq, &mut think_heap);
                    }
                }
            }
        }

        // --- Assemble results -------------------------------------------
        let vm_utilization: Vec<TimeSeries> = vm_samples
            .into_iter()
            .map(|v| TimeSeries::new(cfg.sample_dt_s, v))
            .collect::<std::result::Result<_, _>>()
            .map_err(ClusterError::Trace)?;
        let mut server_utilization = Vec::with_capacity(cfg.servers.len());
        for (s, spec) in cfg.servers.iter().enumerate() {
            let members: Vec<&TimeSeries> = cfg
                .assignments
                .iter()
                .enumerate()
                .filter(|(_, a)| a.server == s)
                .map(|(v, _)| &vm_utilization[v])
                .collect();
            let agg = if members.is_empty() {
                TimeSeries::constant(cfg.sample_dt_s, n_samples, 0.0)
                    .map_err(ClusterError::Trace)?
            } else {
                TimeSeries::sum_of(&members).map_err(ClusterError::Trace)?
            };
            server_utilization.push(
                agg.scale(1.0 / spec.cores as f64)
                    .map_err(ClusterError::Trace)?,
            );
        }
        Ok(ClusterSimResult {
            vm_utilization,
            server_utilization,
            response_times: responses,
            queries_issued: issued,
            queries_completed: completed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn one_cluster_config(dedicated: Option<usize>, freq: f64) -> ClusterSimConfig {
        let cluster = WebSearchCluster::paper_setup1().unwrap();
        ClusterSimConfig {
            servers: vec![ServerSpec::new(8, freq)],
            waves: vec![ClientWave::sine(0.0, 200.0, 300.0).unwrap()],
            assignments: vec![
                VmAssignment {
                    cluster: 0,
                    isn: 0,
                    server: 0,
                    dedicated_cores: dedicated,
                },
                VmAssignment {
                    cluster: 0,
                    isn: 1,
                    server: 0,
                    dedicated_cores: dedicated,
                },
            ],
            clusters: vec![cluster],
            duration_s: 300.0,
            sample_dt_s: 1.0,
            warmup_s: 30.0,
            arrival_model: ArrivalModel::Open,
            seed: 42,
        }
    }

    #[test]
    fn validation_catches_bad_configs() {
        let ok = one_cluster_config(None, 1.0);
        assert!(ClusterSim::new(ok.clone()).is_ok());

        let mut c = ok.clone();
        c.servers.clear();
        assert!(ClusterSim::new(c).is_err());

        let mut c = ok.clone();
        c.servers[0].cores = 0;
        assert!(ClusterSim::new(c).is_err());

        let mut c = ok.clone();
        c.duration_s = 0.0;
        assert!(ClusterSim::new(c).is_err());

        let mut c = ok.clone();
        c.warmup_s = 400.0;
        assert!(ClusterSim::new(c).is_err());

        let mut c = ok.clone();
        c.assignments[0].server = 9;
        assert!(matches!(
            ClusterSim::new(c),
            Err(ClusterError::BadAssignment(_))
        ));

        let mut c = ok.clone();
        c.assignments[1].isn = 0;
        assert!(ClusterSim::new(c).is_err());

        let mut c = ok.clone();
        c.assignments.pop();
        assert!(ClusterSim::new(c).is_err());

        // Mixing dedicated and pool on one server.
        let mut c = ok.clone();
        c.assignments[0].dedicated_cores = Some(4);
        assert!(ClusterSim::new(c).is_err());

        // Core over-subscription.
        let mut c = ok;
        c.assignments[0].dedicated_cores = Some(5);
        c.assignments[1].dedicated_cores = Some(5);
        assert!(ClusterSim::new(c).is_err());
    }

    #[test]
    fn run_is_deterministic() {
        let cfg = one_cluster_config(None, 1.0);
        let a = ClusterSim::new(cfg.clone()).unwrap().run().unwrap();
        let b = ClusterSim::new(cfg).unwrap().run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn out_of_range_result_queries_error_instead_of_panicking() {
        let result = ClusterSim::new(one_cluster_config(None, 1.0))
            .unwrap()
            .run()
            .unwrap();
        assert!(result.p90_response(0).is_ok());
        assert!(matches!(
            result.p90_response(7),
            Err(ClusterError::InvalidParameter(_))
        ));
        assert!(result.peak_server_utilization(0).is_ok());
        assert!(matches!(
            result.peak_server_utilization(9),
            Err(ClusterError::InvalidParameter(_))
        ));
    }

    #[test]
    fn utilization_tracks_offered_load() {
        let cfg = one_cluster_config(None, 1.0);
        let result = ClusterSim::new(cfg.clone()).unwrap().run().unwrap();
        // Mean measured utilization ≈ mean offered load (stable system).
        let wave_mean: f64 = cfg.waves[0].sample(1.0, 300).unwrap().mean();
        let expected: f64 = (0..2)
            .map(|i| cfg.clusters[0].expected_isn_load(wave_mean, i))
            .sum();
        let measured: f64 = result.vm_utilization.iter().map(|t| t.mean()).sum();
        assert!(
            (measured - expected).abs() / expected < 0.1,
            "measured {measured} vs offered {expected}"
        );
    }

    #[test]
    fn server_utilization_is_fraction_of_cores() {
        let result = ClusterSim::new(one_cluster_config(None, 1.0))
            .unwrap()
            .run()
            .unwrap();
        assert!(result.server_utilization[0].peak() <= 1.0 + 1e-9);
        assert!(result.server_utilization[0].min() >= 0.0);
    }

    #[test]
    fn most_queries_complete() {
        let result = ClusterSim::new(one_cluster_config(None, 1.0))
            .unwrap()
            .run()
            .unwrap();
        assert!(result.queries_issued[0] > 1000);
        let completion_rate = result.queries_completed[0] as f64 / result.queries_issued[0] as f64;
        assert!(completion_rate > 0.95, "completion rate {completion_rate}");
        assert!(result.p90_response(0).unwrap() > 0.0);
    }

    #[test]
    fn lower_frequency_increases_response_time() {
        let fast = ClusterSim::new(one_cluster_config(None, 1.0))
            .unwrap()
            .run()
            .unwrap();
        let slow = ClusterSim::new(one_cluster_config(None, 0.6))
            .unwrap()
            .run()
            .unwrap();
        assert!(
            slow.p90_response(0).unwrap() > fast.p90_response(0).unwrap(),
            "slow {} vs fast {}",
            slow.p90_response(0).unwrap(),
            fast.p90_response(0).unwrap()
        );
    }

    #[test]
    fn segregation_hurts_under_imbalance() {
        // The hot ISN (share 1.3) saturates its 4-core partition at the
        // wave peak; pooling the 8 cores absorbs it.
        let pooled = ClusterSim::new(one_cluster_config(None, 1.0))
            .unwrap()
            .run()
            .unwrap();
        let segregated = ClusterSim::new(one_cluster_config(Some(4), 1.0))
            .unwrap()
            .run()
            .unwrap();
        assert!(
            segregated.p90_response(0).unwrap() > pooled.p90_response(0).unwrap(),
            "segregated {} vs pooled {}",
            segregated.p90_response(0).unwrap(),
            pooled.p90_response(0).unwrap()
        );
    }

    #[test]
    fn closed_loop_runs_and_throttles_overload() {
        // Closed-loop clients cannot push the queue to divergence: under
        // the same saturating load, their tail is bounded by the client
        // population, so it stays far below the open-loop tail.
        let mut open = one_cluster_config(Some(4), 1.0);
        open.waves = vec![ClientWave::sine(0.0, 320.0, 300.0).unwrap()];
        let mut closed = open.clone();
        closed.arrival_model = ArrivalModel::Closed;
        let open_result = ClusterSim::new(open).unwrap().run().unwrap();
        let closed_result = ClusterSim::new(closed).unwrap().run().unwrap();
        assert!(closed_result.queries_issued[0] > 500);
        assert!(
            closed_result.p90_response(0).unwrap() < open_result.p90_response(0).unwrap(),
            "closed {} !< open {}",
            closed_result.p90_response(0).unwrap(),
            open_result.p90_response(0).unwrap()
        );
    }

    #[test]
    fn closed_loop_matches_open_loop_throughput_when_underloaded() {
        // Far from saturation the two arrival models offer the same
        // load: each of N clients completes ≈ duration/think queries.
        let mut cfg = one_cluster_config(None, 1.0);
        cfg.waves = vec![ClientWave::sine(40.0, 60.0, 300.0).unwrap()];
        let open = ClusterSim::new(cfg.clone()).unwrap().run().unwrap();
        cfg.arrival_model = ArrivalModel::Closed;
        let closed = ClusterSim::new(cfg).unwrap().run().unwrap();
        let ratio = closed.queries_issued[0] as f64 / open.queries_issued[0] as f64;
        assert!(
            (0.85..1.15).contains(&ratio),
            "throughput ratio closed/open = {ratio}"
        );
    }

    #[test]
    fn closed_loop_is_deterministic() {
        let mut cfg = one_cluster_config(None, 1.0);
        cfg.arrival_model = ArrivalModel::Closed;
        let a = ClusterSim::new(cfg.clone()).unwrap().run().unwrap();
        let b = ClusterSim::new(cfg).unwrap().run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn response_time_at_least_service_demand() {
        // A query cannot finish faster than its largest ISN demand at
        // one core; the p90 must exceed the mean base demand.
        let cfg = one_cluster_config(None, 1.0);
        let base = cfg.clusters[0].config().base_demand_core_s;
        let result = ClusterSim::new(cfg).unwrap().run().unwrap();
        assert!(result.p90_response(0).unwrap() > base * 0.7);
    }
}
