//! Trace-dataset ingestion: one streaming surface for real and
//! synthetic workloads.
//!
//! Everything the simulator replays reduces to the same shape: a set
//! of VMs, each with an *arrival sample*, an optional *lease length*,
//! and a *demand series* covering its live window. [`TraceDataset`]
//! is that shape as a streaming trait — implementations yield one
//! [`TraceRecord`] at a time so a multi-gigabyte trace file is never
//! resident in memory — and [`assemble`] drains any implementation
//! into the simulator's native inputs: a [`VmFleet`]
//! plus a trace-driven [`Lifecycle`].
//!
//! Three implementations ship in this module:
//!
//! * [`AzureTraceReader`] — readings-style CSV (one row per VM per
//!   sampling interval), the shape of the Azure public VM traces.
//! * [`HuaweiTraceReader`] — request-log-style CSV (one `create` /
//!   `delete` event row per VM), the shape of the Huawei cloud
//!   request datasets.
//! * [`SyntheticTrace`] — per-app arrival/duration/demand
//!   distributions composed over [`SimRng`](cavm_trace::SimRng), in
//!   the style of dslab-faas' `synthetic_trace` generators.
//!
//! Demand is validated once, centrally, in [`assemble`]: NaN or
//! negative samples and backwards arrival clocks are typed errors
//! ([`WorkloadError::InvalidDemand`],
//! [`WorkloadError::NonMonotoneClock`]), never silently-degenerate
//! schedules.
//!
//! # Example
//!
//! ```
//! use cavm_workload::dataset::{assemble, AzureTraceReader};
//! use std::io::Cursor;
//!
//! # fn main() -> Result<(), cavm_workload::WorkloadError> {
//! let csv = "timestamp,vm_id,avg_cpu\n0,web-0,1.5\n300,web-0,2.5\n";
//! let mut reader = AzureTraceReader::new(Cursor::new(csv.as_bytes()), 300.0, 4)?;
//! let (fleet, lifecycle) = assemble(&mut reader)?;
//! assert_eq!(fleet.len(), 1);
//! assert_eq!(lifecycle.entries()[0].arrival_sample, 0);
//! assert_eq!(lifecycle.entries()[0].departure_sample, Some(2));
//! # Ok(())
//! # }
//! ```

mod azure;
mod csv;
mod huawei;
mod synthetic;

pub use azure::{write_azure_csv, AzureTraceReader};
pub use csv::{CsvReader, Row};
pub use huawei::{write_huawei_csv, HuaweiTraceReader};
pub use synthetic::{DemandModel, SyntheticApp, SyntheticTrace, SyntheticTraceBuilder};

use crate::lifecycle::{Lifecycle, LifecycleEntry};
use crate::{VmFleet, VmTrace, WorkloadError};
use cavm_trace::TimeSeries;

/// One VM's worth of trace data, as streamed out of a dataset.
///
/// `demand` covers exactly the live window: `lease_samples` values
/// when the lease is bounded, `horizon - arrival_sample` values when
/// the VM stays to the end (`lease_samples == None`).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Human-readable VM name (dataset-native identifier).
    pub name: String,
    /// Correlated-group index (app/service id; `0` when the dataset
    /// has no grouping information).
    pub group: usize,
    /// Sample at which the VM arrives.
    pub arrival_sample: usize,
    /// Lease length in samples; `None` means the VM runs to the
    /// horizon.
    pub lease_samples: Option<usize>,
    /// CPU demand in cores over the live window.
    pub demand: Vec<f64>,
}

/// A streaming source of [`TraceRecord`]s.
///
/// Records must be yielded in non-decreasing `arrival_sample` order —
/// [`assemble`] assigns VM ids in stream order, which keeps dataset
/// ingestion bit-compatible with [`LifecycleBuilder`]'s
/// arrival-ordered id assignment (see the round-trip property test in
/// `cavm-sim`).
///
/// [`LifecycleBuilder`]: crate::LifecycleBuilder
pub trait TraceDataset {
    /// Seconds between consecutive demand samples.
    fn sample_dt_s(&self) -> f64;

    /// Length of the replay horizon, in samples.
    fn horizon_samples(&self) -> usize;

    /// Next record, or `None` when the dataset is exhausted.
    fn next_record(&mut self) -> Option<crate::Result<TraceRecord>>;
}

/// Drains a dataset into the simulator's native `(fleet, lifecycle)`
/// inputs.
///
/// Each record becomes one [`VmTrace`] (id = stream position) and one
/// trace-driven [`LifecycleEntry`]. Demand outside the live window is
/// zero-filled: the replay engine slices each VM's trace at its
/// arrival and stops reading at departure, so the padding is never
/// observed by the controller.
///
/// # Errors
///
/// * [`WorkloadError::InvalidDemand`] — a demand sample is NaN or
///   negative.
/// * [`WorkloadError::NonMonotoneClock`] — arrivals go backwards in
///   stream order.
/// * [`WorkloadError::InvalidParameter`] — empty dataset, zero
///   horizon, a record whose demand length disagrees with its lease,
///   or a lease extending past the horizon.
pub fn assemble<D: TraceDataset + ?Sized>(dataset: &mut D) -> crate::Result<(VmFleet, Lifecycle)> {
    let horizon = dataset.horizon_samples();
    let dt = dataset.sample_dt_s();
    if horizon == 0 {
        return Err(WorkloadError::InvalidParameter(
            "dataset horizon must be at least one sample",
        ));
    }
    if !(dt.is_finite() && dt > 0.0) {
        return Err(WorkloadError::InvalidParameter(
            "dataset sample interval must be positive and finite",
        ));
    }

    let mut vms = Vec::new();
    let mut entries = Vec::new();
    let mut previous_arrival = 0usize;
    while let Some(record) = dataset.next_record() {
        let record = record?;
        let id = vms.len();
        if record.arrival_sample < previous_arrival {
            return Err(WorkloadError::NonMonotoneClock {
                sample: record.arrival_sample,
                previous: previous_arrival,
            });
        }
        previous_arrival = record.arrival_sample;
        if record.arrival_sample >= horizon {
            return Err(WorkloadError::InvalidParameter(
                "record arrives at or after the horizon",
            ));
        }
        let departure = match record.lease_samples {
            Some(0) => {
                return Err(WorkloadError::InvalidParameter(
                    "record lease must be at least one sample",
                ))
            }
            Some(lease) => {
                let end = record.arrival_sample.checked_add(lease).ok_or(
                    WorkloadError::InvalidParameter("record lease overflows the sample clock"),
                )?;
                if end > horizon {
                    return Err(WorkloadError::InvalidParameter(
                        "record lease extends past the horizon",
                    ));
                }
                Some(end)
            }
            None => None,
        };
        let end = departure.unwrap_or(horizon);
        let window = end - record.arrival_sample;
        if record.demand.len() != window {
            return Err(WorkloadError::InvalidParameter(
                "record demand length disagrees with its live window",
            ));
        }
        for (offset, &value) in record.demand.iter().enumerate() {
            if !(value.is_finite() && value >= 0.0) {
                return Err(WorkloadError::InvalidDemand {
                    vm: id,
                    sample: offset,
                    value,
                });
            }
        }

        let mut values = vec![0.0; horizon];
        values[record.arrival_sample..end].copy_from_slice(&record.demand);
        let fine = TimeSeries::new(dt, values)?;
        vms.push(VmTrace {
            id,
            name: record.name,
            group: record.group,
            // Datasets carry a single sampling grid; the coarse view
            // is the same series (refinement factor 1) — and, clones
            // sharing their samples, the same buffer: `coarse` aliases
            // `fine`, so ingest stores each trace once.
            coarse: fine.clone(),
            fine,
        });
        entries.push(LifecycleEntry {
            id,
            arrival_sample: record.arrival_sample,
            departure_sample: departure,
        });
    }

    let fleet = VmFleet::from_traces(vms)?;
    let lifecycle = Lifecycle::from_entries(entries, horizon)?;
    Ok((fleet, lifecycle))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted in-memory dataset for exercising `assemble`.
    struct Scripted {
        dt: f64,
        horizon: usize,
        records: std::vec::IntoIter<crate::Result<TraceRecord>>,
    }

    impl Scripted {
        fn new(dt: f64, horizon: usize, records: Vec<crate::Result<TraceRecord>>) -> Self {
            Scripted {
                dt,
                horizon,
                records: records.into_iter(),
            }
        }
    }

    impl TraceDataset for Scripted {
        fn sample_dt_s(&self) -> f64 {
            self.dt
        }
        fn horizon_samples(&self) -> usize {
            self.horizon
        }
        fn next_record(&mut self) -> Option<crate::Result<TraceRecord>> {
            self.records.next()
        }
    }

    fn record(arrival: usize, lease: Option<usize>, demand: Vec<f64>) -> TraceRecord {
        TraceRecord {
            name: format!("vm-{arrival}"),
            group: 0,
            arrival_sample: arrival,
            lease_samples: lease,
            demand,
        }
    }

    #[test]
    fn assembles_fleet_and_lifecycle_with_zero_padding() {
        let mut ds = Scripted::new(
            300.0,
            6,
            vec![
                Ok(record(1, Some(2), vec![1.5, 2.5])),
                Ok(record(3, None, vec![0.5, 0.5, 0.5])),
            ],
        );
        let (fleet, lifecycle) = assemble(&mut ds).unwrap();
        assert_eq!(fleet.len(), 2);
        assert_eq!(
            fleet.vms()[0].fine.values(),
            &[0.0, 1.5, 2.5, 0.0, 0.0, 0.0]
        );
        assert_eq!(
            fleet.vms()[1].fine.values(),
            &[0.0, 0.0, 0.0, 0.5, 0.5, 0.5]
        );
        assert_eq!(fleet.vms()[0].fine.dt(), 300.0);
        assert_eq!(lifecycle.horizon_samples(), 6);
        assert_eq!(lifecycle.entries()[0].departure_sample, Some(3));
        assert_eq!(lifecycle.entries()[1].departure_sample, None);
    }

    #[test]
    fn nan_demand_is_a_typed_error() {
        let mut ds = Scripted::new(1.0, 4, vec![Ok(record(0, Some(2), vec![1.0, f64::NAN]))]);
        match assemble(&mut ds).unwrap_err() {
            WorkloadError::InvalidDemand {
                vm: 0,
                sample: 1,
                value,
            } => assert!(value.is_nan()),
            other => panic!("expected InvalidDemand, got {other:?}"),
        }
    }

    #[test]
    fn negative_demand_is_a_typed_error() {
        let mut ds = Scripted::new(1.0, 4, vec![Ok(record(0, Some(2), vec![1.0, -0.25]))]);
        assert_eq!(
            assemble(&mut ds).unwrap_err(),
            WorkloadError::InvalidDemand {
                vm: 0,
                sample: 1,
                value: -0.25
            }
        );
    }

    #[test]
    fn infinite_demand_is_a_typed_error() {
        let mut ds = Scripted::new(1.0, 4, vec![Ok(record(0, Some(1), vec![f64::INFINITY]))]);
        assert!(matches!(
            assemble(&mut ds).unwrap_err(),
            WorkloadError::InvalidDemand {
                vm: 0,
                sample: 0,
                ..
            }
        ));
    }

    #[test]
    fn backwards_arrival_clock_is_a_typed_error() {
        let mut ds = Scripted::new(
            1.0,
            8,
            vec![
                Ok(record(5, Some(1), vec![1.0])),
                Ok(record(2, Some(1), vec![1.0])),
            ],
        );
        assert_eq!(
            assemble(&mut ds).unwrap_err(),
            WorkloadError::NonMonotoneClock {
                sample: 2,
                previous: 5
            }
        );
    }

    #[test]
    fn lease_past_horizon_is_rejected() {
        let mut ds = Scripted::new(1.0, 4, vec![Ok(record(3, Some(2), vec![1.0, 1.0]))]);
        assert_eq!(
            assemble(&mut ds).unwrap_err(),
            WorkloadError::InvalidParameter("record lease extends past the horizon")
        );
    }

    #[test]
    fn zero_lease_and_length_mismatch_are_rejected() {
        let mut ds = Scripted::new(1.0, 4, vec![Ok(record(0, Some(0), vec![]))]);
        assert_eq!(
            assemble(&mut ds).unwrap_err(),
            WorkloadError::InvalidParameter("record lease must be at least one sample")
        );
        let mut ds = Scripted::new(1.0, 4, vec![Ok(record(0, Some(2), vec![1.0]))]);
        assert_eq!(
            assemble(&mut ds).unwrap_err(),
            WorkloadError::InvalidParameter("record demand length disagrees with its live window")
        );
    }

    #[test]
    fn empty_dataset_and_zero_horizon_are_rejected() {
        let mut ds = Scripted::new(1.0, 4, vec![]);
        assert!(assemble(&mut ds).is_err());
        let mut ds = Scripted::new(1.0, 0, vec![Ok(record(0, None, vec![]))]);
        assert_eq!(
            assemble(&mut ds).unwrap_err(),
            WorkloadError::InvalidParameter("dataset horizon must be at least one sample")
        );
    }

    #[test]
    fn record_errors_propagate() {
        let mut ds = Scripted::new(
            1.0,
            4,
            vec![Err(WorkloadError::BadColumnCount {
                line: 7,
                expected: 3,
                got: 2,
            })],
        );
        assert_eq!(
            assemble(&mut ds).unwrap_err(),
            WorkloadError::BadColumnCount {
                line: 7,
                expected: 3,
                got: 2
            }
        );
    }
}
