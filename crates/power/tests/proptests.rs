//! Property-based tests for the power/DVFS models.

use cavm_power::{DvfsLadder, EnergyMeter, Frequency, LinearPowerModel, PowerModel};
use proptest::prelude::*;

proptest! {
    /// snap_up never selects a level below the request unless the request
    /// exceeds the top level, and always returns a ladder level.
    #[test]
    fn snap_up_sound(levels in prop::collection::vec(0.5f64..4.0, 1..6), req in 0.1f64..5.0) {
        let ladder = DvfsLadder::new(
            levels.iter().map(|&g| Frequency::from_ghz(g)).collect(),
        ).unwrap();
        let chosen = ladder.snap_up(Frequency::from_ghz(req));
        prop_assert!(ladder.index_of(chosen).is_some());
        if req <= ladder.max().as_ghz() {
            prop_assert!(chosen.as_ghz() >= req - 1e-12);
            // Minimality: no lower ladder level also satisfies the request.
            for &l in ladder.levels() {
                if l < chosen {
                    prop_assert!(l.as_ghz() < req);
                }
            }
        } else {
            prop_assert_eq!(chosen, ladder.max());
        }
    }

    /// Linear model power is monotone in utilization.
    #[test]
    fn linear_power_monotone_in_u(u1 in 0.0f64..=1.0, u2 in 0.0f64..=1.0) {
        let m = LinearPowerModel::xeon_e5410();
        let f = m.ladder().max();
        let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        prop_assert!(m.power(lo, f).unwrap() <= m.power(hi, f).unwrap() + 1e-12);
    }

    /// EnergyMeter is additive: splitting an interval changes nothing.
    #[test]
    fn energy_meter_additive(w in 0.0f64..1000.0, dt in 0.0f64..100.0, split in 0.0f64..=1.0) {
        let mut whole = EnergyMeter::new();
        whole.add(w, dt);
        let mut parts = EnergyMeter::new();
        parts.add(w, dt * split);
        parts.add(w, dt * (1.0 - split));
        prop_assert!((whole.joules() - parts.joules()).abs() < 1e-6);
        prop_assert!((whole.seconds() - parts.seconds()).abs() < 1e-9);
    }
}
