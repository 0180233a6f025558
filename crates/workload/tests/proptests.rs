//! Property-based tests for the workload generators.

use cavm_workload::clients::{ClientWave, WaveShape};
use cavm_workload::datacenter::{DatacenterTraceBuilder, VM_CAP_CORES};
use cavm_workload::websearch::{WebSearchCluster, WebSearchClusterConfig};
use proptest::prelude::*;

proptest! {
    /// Waves stay inside their [min, max] band for every shape.
    #[test]
    fn waves_stay_in_band(
        min in 0.0f64..100.0,
        span in 0.1f64..400.0,
        period in 1.0f64..5000.0,
        shape_idx in 0usize..4,
        t in 0.0f64..10_000.0
    ) {
        let shape = [WaveShape::Sine, WaveShape::Cosine, WaveShape::Square, WaveShape::Triangle][shape_idx];
        let w = ClientWave::new(shape, min, min + span, period).unwrap();
        let v = w.value_at(t);
        prop_assert!(v >= min - 1e-9 && v <= min + span + 1e-9, "value {} outside band", v);
    }

    /// Waves are periodic: value_at(t) == value_at(t + period).
    #[test]
    fn waves_are_periodic(
        period in 1.0f64..1000.0,
        t in 0.0f64..1000.0,
        shape_idx in 0usize..4
    ) {
        let shape = [WaveShape::Sine, WaveShape::Cosine, WaveShape::Square, WaveShape::Triangle][shape_idx];
        let w = ClientWave::new(shape, 0.0, 10.0, period).unwrap();
        prop_assert!((w.value_at(t) - w.value_at(t + period)).abs() < 1e-6);
    }

    /// Shard shares normalize to mean 1 whatever the raw weights.
    #[test]
    fn shares_normalize(raw in prop::collection::vec(0.01f64..10.0, 1..6)) {
        let cfg = WebSearchClusterConfig {
            isns: raw.len(),
            isn_shares: raw.clone(),
            ..WebSearchClusterConfig::default()
        };
        let cluster = WebSearchCluster::new(cfg).unwrap();
        let mean: f64 = cluster.config().isn_shares.iter().sum::<f64>()
            / cluster.config().isn_shares.len() as f64;
        prop_assert!((mean - 1.0).abs() < 1e-9);
        // Ordering of shares is preserved by normalization.
        for i in 1..raw.len() {
            let before = raw[i].partial_cmp(&raw[i - 1]).unwrap();
            let after = cluster.config().isn_shares[i]
                .partial_cmp(&cluster.config().isn_shares[i - 1])
                .unwrap();
            prop_assert_eq!(before, after);
        }
    }

    /// Offered load scales linearly in the client count for every ISN.
    #[test]
    fn offered_load_linear(clients in 0.0f64..500.0, scale in 0.1f64..4.0) {
        let c = WebSearchCluster::paper_setup1().unwrap();
        for isn in 0..c.isns() {
            let a = c.expected_isn_load(clients, isn);
            let b = c.expected_isn_load(clients * scale, isn);
            prop_assert!((b - a * scale).abs() < 1e-9);
        }
    }

    /// Fleets are deterministic in the seed and respect the VM cap,
    /// also when the per-VM scales push demand past it.
    #[test]
    fn fleet_deterministic_and_capped(
        seed in any::<u64>(),
        vms in 1usize..8,
        scale_hi in 1.0f64..6.0
    ) {
        let build = || {
            DatacenterTraceBuilder::new(vms)
                .groups(2)
                .seed(seed)
                .duration_hours(1.0)
                .vm_scale_range(scale_hi / 2.0, scale_hi)
                .build()
                .unwrap()
        };
        let a = build();
        let b = build();
        prop_assert_eq!(&a, &b);
        for vm in a.vms() {
            prop_assert!(vm.fine.peak() <= VM_CAP_CORES);
            prop_assert!(vm.fine.min() >= 0.0);
            prop_assert!(vm.coarse.peak() <= VM_CAP_CORES);
        }
    }

    /// select_top returns a fleet sorted by descending mean utilization.
    #[test]
    fn select_top_sorted(seed in any::<u64>(), n in 2usize..10, keep in 1usize..10) {
        let fleet = DatacenterTraceBuilder::new(n)
            .groups(2)
            .seed(seed)
            .duration_hours(1.0)
            .build()
            .unwrap();
        let top = fleet.select_top(keep);
        prop_assert_eq!(top.len(), keep.min(n));
        let means: Vec<f64> = top.vms().iter().map(|v| v.fine.mean()).collect();
        for pair in means.windows(2) {
            prop_assert!(pair[0] >= pair[1] - 1e-12);
        }
    }
}
