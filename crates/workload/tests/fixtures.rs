//! Checked-in trace fixtures under `testdata/` and the generators that
//! produced them.
//!
//! The fixtures are deterministic renders of `SyntheticTrace`
//! workloads through the two CSV writers, so the repo carries real
//! parse targets for CI (and `cavm-exp trace` replays them end-to-end)
//! without shipping megabytes of real cloud traces. The plain tests
//! assert the checked-in bytes still match the generators and that the
//! readers ingest them; run the `#[ignore]`d regeneration tests after
//! changing a generator:
//!
//! ```text
//! cargo test -p cavm-workload --test fixtures -- --ignored
//! ```

use cavm_workload::datacenter::DailyArchetype;
use cavm_workload::dataset::{
    assemble, write_azure_csv, write_huawei_csv, AzureTraceReader, DemandModel, HuaweiTraceReader,
    SyntheticApp, SyntheticTrace, SyntheticTraceBuilder, TraceDataset, TraceRecord,
};
use cavm_workload::lifecycle::{ArrivalProcess, LifetimeModel};

const AZURE_PATH: &str = "testdata/azure_sample.csv";
const HUAWEI_PATH: &str = "testdata/huawei_sample.csv";

/// Fixture grid: 5-minute samples over a 4-hour horizon.
const SAMPLE_DT_S: f64 = 300.0;
const HORIZON: usize = 48;

/// The Azure-format fixture's source workload: ten VMs in three apps —
/// two correlated diurnal groups peaking at different hours plus an
/// uncorrelated batch group — so a correlation-aware policy has
/// structure to exploit when `cavm-exp trace` replays the file.
fn azure_source() -> SyntheticTrace {
    SyntheticTraceBuilder::new(HORIZON)
        .sample_dt_s(SAMPLE_DT_S)
        .seed(2013)
        .app(SyntheticApp {
            name: "web".into(),
            vm_count: 4,
            arrivals: ArrivalProcess::Poisson {
                mean_gap_samples: 3.0,
            },
            lifetimes: LifetimeModel::Uniform {
                min_samples: 28,
                max_samples: 44,
            },
            demand: DemandModel::Archetype {
                archetype: DailyArchetype::Diurnal {
                    base: 0.4,
                    peak: 2.4,
                    peak_hour: 1.2,
                    width_h: 0.7,
                },
                cv: 0.15,
            },
        })
        .app(SyntheticApp {
            name: "analytics".into(),
            vm_count: 3,
            arrivals: ArrivalProcess::Poisson {
                mean_gap_samples: 4.0,
            },
            lifetimes: LifetimeModel::Uniform {
                min_samples: 24,
                max_samples: 40,
            },
            demand: DemandModel::Archetype {
                archetype: DailyArchetype::Diurnal {
                    base: 0.3,
                    peak: 2.0,
                    peak_hour: 3.0,
                    width_h: 0.6,
                },
                cv: 0.15,
            },
        })
        .app(SyntheticApp {
            name: "batch".into(),
            vm_count: 3,
            arrivals: ArrivalProcess::Poisson {
                mean_gap_samples: 5.0,
            },
            lifetimes: LifetimeModel::Uniform {
                min_samples: 18,
                max_samples: 36,
            },
            demand: DemandModel::Uniform { lo: 0.2, hi: 1.2 },
        })
        .build()
        .expect("fixture parameters are valid")
}

fn azure_fixture_csv() -> String {
    let (fleet, lifecycle) = assemble(&mut azure_source()).expect("fixture assembles");
    write_azure_csv(&fleet, &lifecycle).expect("fixture exports")
}

/// The Huawei-format fixture's source: ~100 short-lease VMs in two
/// apps with flat demand (the format carries one cpu level per VM), so
/// the file is dominated by create/delete lifecycle events.
fn huawei_source() -> SyntheticTrace {
    SyntheticTraceBuilder::new(HORIZON)
        .sample_dt_s(SAMPLE_DT_S)
        .seed(4021)
        .app(SyntheticApp {
            name: "svc".into(),
            vm_count: 60,
            arrivals: ArrivalProcess::Poisson {
                mean_gap_samples: 0.55,
            },
            lifetimes: LifetimeModel::Uniform {
                min_samples: 6,
                max_samples: 30,
            },
            demand: DemandModel::Uniform { lo: 0.1, hi: 1.6 },
        })
        .app(SyntheticApp {
            name: "job".into(),
            vm_count: 40,
            arrivals: ArrivalProcess::Poisson {
                mean_gap_samples: 0.8,
            },
            lifetimes: LifetimeModel::Uniform {
                min_samples: 4,
                max_samples: 16,
            },
            demand: DemandModel::Constant { cores: 0.5 },
        })
        .build()
        .expect("fixture parameters are valid")
}

fn huawei_fixture_csv() -> String {
    let mut source = huawei_source();
    let mut records: Vec<TraceRecord> = Vec::new();
    while let Some(record) = source.next_record() {
        records.push(record.expect("generator records are valid"));
    }
    write_huawei_csv(&records, SAMPLE_DT_S).expect("fixture exports")
}

#[test]
fn azure_fixture_matches_its_generator() {
    let on_disk = std::fs::read_to_string(AZURE_PATH).expect("fixture is checked in");
    assert_eq!(
        on_disk,
        azure_fixture_csv(),
        "regenerate with: cargo test -p cavm-workload --test fixtures -- --ignored"
    );
}

#[test]
fn huawei_fixture_matches_its_generator() {
    let on_disk = std::fs::read_to_string(HUAWEI_PATH).expect("fixture is checked in");
    assert_eq!(
        on_disk,
        huawei_fixture_csv(),
        "regenerate with: cargo test -p cavm-workload --test fixtures -- --ignored"
    );
}

#[test]
fn azure_fixture_ingests_end_to_end() {
    let mut reader =
        AzureTraceReader::open(AZURE_PATH, SAMPLE_DT_S, HORIZON).expect("fixture opens");
    let (fleet, lifecycle) = assemble(&mut reader).expect("fixture assembles");
    assert_eq!(fleet.len(), 10);
    assert_eq!(lifecycle.len(), 10);
    assert_eq!(fleet.vms()[0].fine.len(), HORIZON);
    assert!(lifecycle.entries().iter().any(|e| e.arrival_sample > 0));
    assert!(lifecycle
        .entries()
        .iter()
        .any(|e| e.departure_sample.is_some()));
}

#[test]
fn huawei_fixture_ingests_end_to_end() {
    let mut reader =
        HuaweiTraceReader::open(HUAWEI_PATH, SAMPLE_DT_S, HORIZON).expect("fixture opens");
    let (fleet, lifecycle) = assemble(&mut reader).expect("fixture assembles");
    assert_eq!(fleet.len(), 100);
    assert_eq!(lifecycle.len(), 100);
    assert!(lifecycle
        .entries()
        .iter()
        .filter(|e| e.departure_sample.is_some())
        .count()
        .ge(&50));
}

#[test]
#[ignore = "writes testdata/azure_sample.csv from the generator"]
fn regenerate_azure_fixture() {
    std::fs::write(AZURE_PATH, azure_fixture_csv()).expect("write fixture");
}

#[test]
#[ignore = "writes testdata/huawei_sample.csv from the generator"]
fn regenerate_huawei_fixture() {
    std::fs::write(HUAWEI_PATH, huawei_fixture_csv()).expect("write fixture");
}
