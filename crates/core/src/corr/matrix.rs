//! The all-pairs cost matrix `M_cost` (paper §IV-A) — struct-of-arrays
//! kernel.
//!
//! "Using our new Cost function, we can model correlations among all VMs
//! by constructing a 2-D matrix, namely M_cost, where the (i,j)-th
//! element corresponds to Cost_ij."
//!
//! # Storage layout
//!
//! The seed implementation (preserved, test-only, as
//! `PairwiseCostMatrix` in `tests/baseline/`) kept one enum-dispatched
//! [`CostMetric`](crate::corr::CostMetric) per
//! pair: three boxed-enum trackers and ~640 bytes of state per pair,
//! walked as an array of structs on every monitoring tick. This module
//! flattens that hot path:
//!
//! * **Per-VM reference trackers are stored once**, not once per pair.
//!   Every pair `(i, j)` needs û(VMi) and û(VMj); the seed paid for
//!   `n-1` redundant copies of each VM's tracker. Here they live in one
//!   length-`n` plane.
//! * **Per-pair sum trackers are contiguous flat planes** over the
//!   upper triangle (row-major, pair `(i, j)` with `i < j` at
//!   `i·(2n-i-1)/2 + (j-i-1)`):
//!   - under [`Reference::Peak`], a single `Vec<f64>` of running
//!     maxima — 8 bytes per pair, and the tick kernel is a flat
//!     `slot = max(slot, uᵢ + uⱼ)` sweep the compiler auto-vectorizes;
//!   - under [`Reference::Percentile`], a `Vec<P2Cell>` of compact
//!     64-byte P² marker cells driven by one shared [`P2Clock`] (the
//!     sample count and desired marker positions are identical across
//!     the bank, so they are hoisted out of the per-pair state).
//! * **Monomorphized update paths**: the `Peak` and `Percentile`
//!   kernels are separate loops selected once per call, instead of a
//!   per-sample `match` on every tracker of every pair.
//!
//! Updates remain O(1) per pair per tick — the paper's UPDATE-phase
//! argument (Fig 2, line 7) — but the constant is an order of magnitude
//! smaller and the fleet tick ([`CostMatrix::push_sample`]) touches
//! `n(n-1)/2 · 8` bytes instead of `· ~640`.
//!
//! # Parallel window replay
//!
//! A monitoring tick ([`CostMatrix::push_sample`]) always runs on the
//! calling thread. Window replay — [`CostMatrix::fill`] at the period
//! close and [`CostMatrix::par_push_columns`] — can split the triangle
//! into near-equal-pair row chunks and update them on scoped
//! `std::thread`s. (The build environment has no crate registry, so
//! this uses the standard library rather than rayon; the chunking is
//! embarrassingly parallel either way.) Each pair is still updated by
//! exactly one thread in tick order, so parallel results are
//! bit-identical to serial ones — the equivalence tests in
//! `tests/soa_equivalence.rs` pin this.
//!
//! Whether they *do* fan out is one rule, `threads_for`: scoped threads
//! are spawned and joined per call, which costs about as much as
//! 10⁵ Peak pair updates, so a replay whose kernel is smaller than that
//! (`pairs × samples`, a P² update counted 16-fold) runs on the
//! calling thread and only larger ones use every core. A 16-VM
//! session's period close is the former, `flat-p95-day`'s 96 × 720 P95
//! close the latter. [`CostMatrix::par_push_columns_threads`] takes the
//! count as given.
//!
//! Batch window replay ([`CostMatrix::push_columns`],
//! [`CostMatrix::fill`]) walks the triangle row by row instead of
//! tick-major, so a row's slots are updated over the whole window
//! while they are hot in cache, instead of re-touching the entire
//! (possibly multi-megabyte) plane on every tick. A Peak row goes one
//! pair at a time. A P² row goes in blocks of four pairs (`P2_LANES`),
//! each block copied out, replayed under one local clock, and copied
//! back: a P² update is a serial chain of compares and divisions, and
//! four independent chains keep the core busy where one waits on
//! latency. The row's last `len % 4` pairs replay one at a time. Every
//! pair still sees exactly its own samples in order, so the result is
//! the per-pair one bit for bit.
//!
//! # Keyed form
//!
//! A plain matrix ([`CostMatrix::new`]) indexes its planes by VM id:
//! `n` ids, `n` rows. A long-running session whose VMs come and go
//! would pay for every id it has ever seen, so the online controller
//! uses the *keyed* form ([`CostMatrix::keyed`]) instead: the planes
//! are laid out over **rows** — as many as VMs were sampled in one
//! period — and an id → row table, captured when the matrix is filled
//! ([`CostMatrix::fill`]), translates lookups. [`CostMatrix::len`]
//! keeps meaning "ids this matrix answers for" (the *id bound*), and
//! a lookup has three answers:
//!
//! * both ids have a **row**: the Eqn (1) ratio from the planes, as in
//!   the plain form;
//! * an id below the bound has **no row** (departed before the window,
//!   never registered, or registered after the fill and covered by
//!   [`CostMatrix::extend_ids`]): it answers exactly what an all-zero
//!   window would — `(û + 0) / û` against a VM with a row (1.0; 2.0
//!   when that VM idled too) and 2.0 against another row-less id —
//!   without a row, a pair slot or a sample of work;
//! * an id at or beyond the bound, or any pair before the first
//!   sample, is **neutral** (1.5) through
//!   [`CostMatrix::cost_or_neutral`].
//!
//! `tests/soa_equivalence.rs` pins the keyed answers bit for bit
//! against a plain matrix over the zero-padded universe.

use crate::corr::cost::combine_cost;
use crate::CoreError;
use cavm_trace::{P2Cell, P2Clock, Reference, TimeSeries};
use serde::{Deserialize, Serialize};

/// Upper-triangle row-major index of pair `(i, j)`, `i < j < n`.
#[inline]
fn pair_index(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < n);
    i * (2 * n - i - 1) / 2 + (j - i - 1)
}

/// Offset of row `i`'s first pair `(i, i+1)` in the triangle.
#[inline]
fn row_offset(n: usize, i: usize) -> usize {
    i * (2 * n - i - 1) / 2
}

/// Splits rows `0..n-1` into at most `threads` contiguous chunks of
/// near-equal *pair* count. Returns `(row_start, row_end)` half-open
/// ranges; empty when `n < 2`.
fn row_chunks(n: usize, threads: usize) -> Vec<(usize, usize)> {
    let pairs = n * (n - 1) / 2;
    if pairs == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(n.saturating_sub(1));
    let target = pairs.div_ceil(threads);
    let mut chunks = Vec::with_capacity(threads);
    let mut row = 0;
    while row + 1 < n {
        let mut end = row;
        let mut acc = 0;
        while end + 1 < n && acc < target {
            acc += n - end - 1;
            end += 1;
        }
        chunks.push((row, end));
        row = end;
    }
    chunks
}

/// The id → row table's entry for an id that has no row.
const NO_ROW: u32 = u32::MAX;

/// Monomorphized streaming storage behind the matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Storage {
    /// `Reference::Peak`: running maxima, one `f64` per VM / per pair.
    Peak {
        /// Per-VM running peak of `utils[v]` (length `n`).
        vm_peak: Vec<f64>,
        /// Per-pair running peak of `utils[i] + utils[j]` (triangle).
        pair_peak: Vec<f64>,
    },
    /// `Reference::Percentile(p)`: compact P² cells under one clock.
    Percentile {
        /// Shared tick counter and desired marker positions.
        clock: P2Clock,
        /// Per-VM P² estimator state (length `n`).
        vm_cells: Vec<P2Cell>,
        /// Per-pair P² estimator state over `utils[i] + utils[j]`.
        pair_cells: Vec<P2Cell>,
    },
}

impl Storage {
    fn new(n: usize, reference: Reference) -> crate::Result<Self> {
        let pairs = n * n.saturating_sub(1) / 2;
        match reference {
            Reference::Peak => Ok(Storage::Peak {
                vm_peak: vec![f64::NEG_INFINITY; n],
                pair_peak: vec![f64::NEG_INFINITY; pairs],
            }),
            Reference::Percentile(p) => {
                if !(0.0..=100.0).contains(&p) || p == 0.0 || p == 100.0 {
                    return Err(CoreError::InvalidParameter(
                        "streaming percentile reference must lie in (0, 100)",
                    ));
                }
                Ok(Storage::Percentile {
                    clock: P2Clock::new(p / 100.0).map_err(CoreError::Trace)?,
                    vm_cells: vec![P2Cell::new(); n],
                    pair_cells: vec![P2Cell::new(); pairs],
                })
            }
        }
    }
}

/// Symmetric pairwise correlation-cost matrix over `n` VMs
/// (struct-of-arrays kernel; see the [module docs](self) for layout).
///
/// Diagonal entries are 1.0 by definition: a VM co-located with itself
/// gains nothing (`(û+û)/û(2·VM) = 1`).
///
/// # Example
///
/// ```
/// use cavm_core::corr::CostMatrix;
/// use cavm_trace::Reference;
///
/// # fn main() -> Result<(), cavm_core::CoreError> {
/// let mut m = CostMatrix::new(3, Reference::Peak)?;
/// m.push_sample(&[4.0, 0.0, 2.0])?;
/// m.push_sample(&[0.0, 4.0, 2.0])?;
/// // VM0 and VM1 peak apart: cost 2. Each against the flat VM2: 6/6 = 1.
/// assert_eq!(m.cost(0, 1), Some(2.0));
/// assert_eq!(m.cost(0, 0), Some(1.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostMatrix {
    /// Ids the matrix answers for ([`Self::len`]): equal to `rows` in
    /// the plain form, the id bound in the keyed one.
    n: usize,
    /// Rows of the streaming planes.
    rows: usize,
    reference: Reference,
    samples: u64,
    storage: Storage,
    /// When set, pairwise values are fixed (ablation studies swap in
    /// foreign metrics, e.g. Pearson-derived scores) and the streaming
    /// storage is ignored.
    fixed: Option<Vec<f64>>,
    /// Keyed form only: `key[id]` is the row `id` was sampled into
    /// when the matrix was last filled, [`NO_ROW`] for an id that had
    /// none. Ids the bound has advanced over since lie beyond the
    /// table and have no row either. `None` is the plain form, where
    /// every id below `rows` is its own row.
    key: Option<Vec<u32>>,
}

impl CostMatrix {
    /// Creates an empty matrix over `n` VMs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when `n == 0` or the
    /// reference percentile is out of range.
    pub fn new(n: usize, reference: Reference) -> crate::Result<Self> {
        if n == 0 {
            return Err(CoreError::InvalidParameter(
                "cost matrix needs at least one vm",
            ));
        }
        Ok(Self {
            n,
            rows: n,
            reference,
            samples: 0,
            storage: Storage::new(n, reference)?,
            fixed: None,
            key: None,
        })
    }

    /// Creates an empty *keyed* matrix (see the [module docs](self))
    /// with planes over `rows` rows — zero is allowed — that answers
    /// for no id yet: [`Self::fill`] installs samples and the id → row
    /// table, [`Self::extend_ids`] advances the id bound.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when the reference
    /// percentile is out of range or `rows` does not fit the row table.
    pub fn keyed(rows: usize, reference: Reference) -> crate::Result<Self> {
        if u32::try_from(rows).map_or(true, |r| r == NO_ROW) {
            return Err(CoreError::InvalidParameter(
                "keyed cost matrix has too many rows",
            ));
        }
        Ok(Self {
            n: 0,
            rows,
            reference,
            samples: 0,
            storage: Storage::new(rows, reference)?,
            fixed: None,
            key: Some(Vec::new()),
        })
    }

    /// Builds a matrix with *fixed* pairwise costs — `costs` is the
    /// upper triangle, row-major (`(0,1), (0,2), ..., (1,2), ...`).
    /// Used by ablation studies to drive the allocator with a foreign
    /// correlation measure (e.g. Pearson mapped into `[1, 2]`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when `n == 0` or the
    /// triangle length is wrong.
    pub fn from_costs(n: usize, costs: Vec<f64>) -> crate::Result<Self> {
        if n == 0 {
            return Err(CoreError::InvalidParameter(
                "cost matrix needs at least one vm",
            ));
        }
        if costs.len() != n * (n - 1) / 2 {
            return Err(CoreError::InvalidParameter(
                "fixed cost triangle has the wrong length",
            ));
        }
        let mut matrix = Self::new(n, Reference::Peak)?;
        matrix.fixed = Some(costs);
        Ok(matrix)
    }

    /// Builds a matrix from complete traces in one pass (batch exact
    /// percentiles for the pair sums are approximated by the same
    /// streaming estimators the online path uses, keeping semantics
    /// identical between offline and online use).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an empty trace set
    /// and trace errors for length mismatches.
    pub fn from_traces(traces: &[&TimeSeries], reference: Reference) -> crate::Result<Self> {
        if traces.is_empty() {
            return Err(CoreError::InvalidParameter(
                "cost matrix needs at least one vm",
            ));
        }
        let mut matrix = Self::new(traces.len(), reference)?;
        matrix.push_columns(traces, 0, traces[0].len())?;
        Ok(matrix)
    }

    /// Number of ids the matrix answers for: the VMs tracked in the
    /// plain form, the id bound in the keyed one.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` only for a keyed matrix that answers for no id yet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Rows of the streaming planes — [`Self::len`] in the plain form,
    /// the sampled population in the keyed one.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of unordered row pairs tracked (`rows(rows-1)/2`).
    pub fn pair_count(&self) -> usize {
        self.rows * self.rows.saturating_sub(1) / 2
    }

    /// The reference utilization the matrix tracks.
    pub fn reference(&self) -> Reference {
        self.reference
    }

    fn check_width(&self, got: usize) -> crate::Result<()> {
        if got != self.rows {
            return Err(CoreError::SampleCountMismatch {
                got,
                expected: self.rows,
            });
        }
        Ok(())
    }

    /// Threads a default-thread entry point uses to push `samples`
    /// samples through every pair: [`threads_for`] applied to
    /// `pairs × samples`, a P² update counted [`P2_WORK_WEIGHT`]-fold.
    fn fan_out(&self, samples: usize) -> usize {
        let weight = match self.storage {
            Storage::Peak { .. } => 1,
            Storage::Percentile { .. } => P2_WORK_WEIGHT,
        };
        threads_for(
            self.pair_count()
                .saturating_mul(samples)
                .saturating_mul(weight),
        )
    }

    /// Feeds one monitoring tick: `utils[v]` is the utilization of the
    /// VM in row `v` at this instant. Cost: `O(n²)` flat constant-time
    /// updates, on the calling thread.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SampleCountMismatch`] when `utils.len()`
    /// is not the row count, and a [non-finite
    /// sample](cavm_trace::TraceError::NonFiniteSample) error naming
    /// the first NaN or infinite entry. A refused tick changes nothing.
    pub fn push_sample(&mut self, utils: &[f64]) -> crate::Result<()> {
        self.check_width(utils.len())?;
        check_finite(utils)?;
        match &mut self.storage {
            Storage::Peak { vm_peak, pair_peak } => {
                peak_tick(utils, pair_peak);
                for (slot, &u) in vm_peak.iter_mut().zip(utils) {
                    *slot = slot.max(u);
                }
            }
            Storage::Percentile {
                clock,
                vm_cells,
                pair_cells,
            } => {
                clock.tick();
                for (cell, &u) in vm_cells.iter_mut().zip(utils) {
                    cell.push(u, clock);
                }
                p2_tick(utils, pair_cells, clock);
            }
        }
        self.samples += 1;
        Ok(())
    }

    /// Replays a half-open window `[start, end)` of trace columns into
    /// the matrix — the batch form of [`Self::push_sample`], equivalent
    /// to pushing `end - start` individual ticks but walked row by row
    /// so each row's state stays cache-resident across the window.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SampleCountMismatch`] when `traces.len()`
    /// is not the row count, a trace length mismatch when the traces
    /// disagree, and [`CoreError::InvalidParameter`] when the window is
    /// out of range.
    pub fn push_columns(
        &mut self,
        traces: &[&TimeSeries],
        start: usize,
        end: usize,
    ) -> crate::Result<()> {
        self.push_columns_threads(traces, start, end, 1)
    }

    /// [`Self::push_columns`] over at most `threads` row chunks.
    fn push_columns_threads(
        &mut self,
        traces: &[&TimeSeries],
        start: usize,
        end: usize,
        threads: usize,
    ) -> crate::Result<()> {
        self.check_width(traces.len())?;
        let len = common_len(traces.iter().map(|t| t.len()))?;
        if start > end || end > len {
            return Err(CoreError::InvalidParameter("column window out of range"));
        }
        let windows: Vec<&[f64]> = traces.iter().map(|t| &t.values()[start..end]).collect();
        self.replay(&windows, threads);
        Ok(())
    }

    /// Replays one equally long sample window per row into the planes,
    /// row by row, over at most `threads` row chunks. Each P² replay
    /// ticks a local copy of the clock as it stood before the window, so
    /// marker positions advance exactly as in the tick-by-tick path.
    fn replay(&mut self, windows: &[&[f64]], threads: usize) {
        let rows = self.rows;
        let ticks = windows.first().map_or(0, |w| w.len());
        match &mut self.storage {
            Storage::Peak { vm_peak, pair_peak } => {
                for (slot, window) in vm_peak.iter_mut().zip(windows) {
                    for &u in *window {
                        *slot = slot.max(u);
                    }
                }
                over_row_chunks(rows, threads, pair_peak, |row_start, row_end, plane| {
                    peak_window_rows(rows, row_start, row_end, windows, plane);
                });
            }
            Storage::Percentile {
                clock,
                vm_cells,
                pair_cells,
            } => {
                let snapshot = clock.clone();
                for (cell, window) in vm_cells.iter_mut().zip(windows) {
                    let mut local = snapshot.clone();
                    for &u in *window {
                        local.tick();
                        cell.push(u, &local);
                    }
                }
                over_row_chunks(rows, threads, pair_cells, |row_start, row_end, plane| {
                    p2_window_rows(rows, row_start, row_end, windows, plane, &snapshot);
                });
                for _ in 0..ticks {
                    clock.tick();
                }
            }
        }
        self.samples += ticks as u64;
    }

    /// Refills a keyed matrix from one period's row windows: forgets
    /// the previous samples (the planes' allocation is re-used),
    /// captures the id → row table from `occupants` (`occupants[r]` is
    /// the id sampled into row `r`, `None` for a row nobody held — its
    /// window should be all zeros), sets the id bound to `ids`, and
    /// replays `windows[r]` into row `r` with the batch kernel — on
    /// the calling thread when the replay is too small to repay a
    /// thread spawn, fanned out over the available cores otherwise
    /// (the [module docs](self) give the rule; the answer is the same
    /// bit for bit).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] on a plain matrix, for
    /// an occupant id at or beyond `ids` and for an id holding two
    /// rows; [`CoreError::SampleCountMismatch`] when `occupants` or
    /// `windows` do not cover exactly the rows; a trace length
    /// mismatch when the windows disagree; and a [non-finite
    /// sample](cavm_trace::TraceError::NonFiniteSample) error for the
    /// first NaN or infinite sample, its `index` the position in its
    /// row's window. A failed fill changes nothing.
    pub fn fill(
        &mut self,
        occupants: &[Option<usize>],
        ids: usize,
        windows: &[&[f64]],
    ) -> crate::Result<()> {
        if self.key.is_none() {
            return Err(CoreError::InvalidParameter(
                "only a keyed cost matrix can be filled",
            ));
        }
        self.check_width(occupants.len())?;
        self.check_width(windows.len())?;
        let samples = common_len(windows.iter().map(|w| w.len()))?;
        windows.iter().try_for_each(|window| check_finite(window))?;
        let mut key = vec![NO_ROW; ids];
        for (row, id) in occupants.iter().enumerate() {
            let Some(id) = *id else { continue };
            match key.get_mut(id) {
                // `keyed` bounded the row count below `NO_ROW`.
                Some(slot) if *slot == NO_ROW => *slot = row as u32,
                Some(_) => {
                    return Err(CoreError::InvalidParameter(
                        "an id occupies two rows of the keyed cost matrix",
                    ))
                }
                None => {
                    return Err(CoreError::InvalidParameter(
                        "row occupant beyond the keyed cost matrix's id bound",
                    ))
                }
            }
        }
        self.key = Some(key);
        self.n = ids;
        self.reset();
        self.replay(windows, self.fan_out(samples));
        Ok(())
    }

    /// Advances the id bound to at least `ids` without touching a
    /// sample: ids the bound newly covers have no row, so they answer
    /// as all-zero windows (see the [module docs](self)) — what
    /// replaying the same windows zero-padded to `ids` would produce,
    /// with no pair work. The bound never retreats.
    pub fn extend_ids(&mut self, ids: usize) {
        self.n = self.n.max(ids);
    }

    /// The row behind `id`, if it has one.
    #[inline]
    fn row_of(&self, id: usize) -> Option<usize> {
        match &self.key {
            None => (id < self.rows).then_some(id),
            Some(key) => key
                .get(id)
                .and_then(|&row| (row != NO_ROW).then_some(row as usize)),
        }
    }

    /// The reference utilization û of the VM in `row`.
    fn row_reference(&self, row: usize) -> Option<f64> {
        match &self.storage {
            Storage::Peak { vm_peak, .. } => Some(vm_peak[row]),
            Storage::Percentile {
                clock, vm_cells, ..
            } => vm_cells[row].estimate(clock),
        }
    }

    /// The cost of pair `(i, j)`, or `None` before any sample (and
    /// `Some(1.0)` on the diagonal). An id without a row pairs as an
    /// all-zero window would (see the [module docs](self)).
    ///
    /// # Panics
    ///
    /// Panics when `i` or `j` is out of range — matrix indices are
    /// program-internal, not user input.
    pub fn cost(&self, i: usize, j: usize) -> Option<f64> {
        assert!(
            i < self.n && j < self.n,
            "pair ({i},{j}) outside {}-vm matrix",
            self.n
        );
        if i == j {
            return Some(1.0);
        }
        let (lo, hi) = match (self.row_of(i), self.row_of(j)) {
            (Some(a), Some(b)) => (a.min(b), a.max(b)),
            // A row-less id pairs as an all-zero window would: û = 0
            // and the pair sum is the other VM's own signal.
            (Some(row), None) | (None, Some(row)) => {
                if self.samples == 0 {
                    return None;
                }
                let u = self.row_reference(row)?;
                return Some(combine_cost(u, 0.0, u));
            }
            (None, None) => return (self.samples > 0).then(|| combine_cost(0.0, 0.0, 0.0)),
        };
        let idx = pair_index(self.rows, lo, hi);
        if let Some(values) = &self.fixed {
            return Some(values[idx]);
        }
        if self.samples == 0 {
            return None;
        }
        match &self.storage {
            Storage::Peak { vm_peak, pair_peak } => {
                Some(combine_cost(vm_peak[lo], vm_peak[hi], pair_peak[idx]))
            }
            Storage::Percentile {
                clock,
                vm_cells,
                pair_cells,
            } => {
                let a = vm_cells[lo].estimate(clock)?;
                let b = vm_cells[hi].estimate(clock)?;
                let sum = pair_cells[idx].estimate(clock)?;
                Some(combine_cost(a, b, sum))
            }
        }
    }

    /// The cost of pair `(i, j)`, defaulting to the *neutral* midpoint
    /// 1.5 when no samples have been observed yet (first placement
    /// period). With a constant default, all unknown pairs compare
    /// equal and the proposed allocator degrades gracefully to
    /// first-fit-decreasing.
    ///
    /// Unlike [`CostMatrix::cost`], ids beyond the matrix are also
    /// neutral instead of a panic: the online admission path scores VMs
    /// that arrived *after* the period matrix was built, and such VMs
    /// have no observed pairs by definition.
    pub fn cost_or_neutral(&self, i: usize, j: usize) -> f64 {
        if i >= self.n || j >= self.n {
            return 1.5;
        }
        self.cost(i, j).unwrap_or(1.5)
    }

    /// Number of sample ticks observed (0 for a fresh matrix).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Forgets all samples (keeps dimensions, reference and, in the
    /// keyed form, the id → row table) — used by per-period windowed
    /// tracking.
    pub fn reset(&mut self) {
        self.samples = 0;
        match &mut self.storage {
            Storage::Peak { vm_peak, pair_peak } => {
                vm_peak.fill(f64::NEG_INFINITY);
                pair_peak.fill(f64::NEG_INFINITY);
            }
            Storage::Percentile {
                clock,
                vm_cells,
                pair_cells,
            } => {
                clock.reset();
                vm_cells.iter_mut().for_each(P2Cell::reset);
                pair_cells.iter_mut().for_each(P2Cell::reset);
            }
        }
    }

    /// [`Self::push_columns`] with the triangle replay fanned out over
    /// all available cores once `pairs × window` is large enough to
    /// repay the thread spawn (see the [module docs](self)); smaller
    /// replays run on the calling thread. Bit-identical to the serial
    /// batch path.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::push_columns`].
    pub fn par_push_columns(
        &mut self,
        traces: &[&TimeSeries],
        start: usize,
        end: usize,
    ) -> crate::Result<()> {
        self.push_columns_threads(traces, start, end, self.fan_out(end.saturating_sub(start)))
    }

    /// [`Self::par_push_columns`] with an explicit thread count,
    /// honoured whatever the size.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::push_columns`].
    pub fn par_push_columns_threads(
        &mut self,
        traces: &[&TimeSeries],
        start: usize,
        end: usize,
        threads: usize,
    ) -> crate::Result<()> {
        self.push_columns_threads(traces, start, end, threads)
    }
}

/// The length every window shares (0 for none), or the first mismatch.
fn common_len(lens: impl IntoIterator<Item = usize>) -> crate::Result<usize> {
    let mut lens = lens.into_iter();
    let len = lens.next().unwrap_or(0);
    match lens.find(|&other| other != len) {
        Some(right) => Err(CoreError::Trace(cavm_trace::TraceError::LengthMismatch {
            left: len,
            right,
        })),
        None => Ok(len),
    }
}

/// Refuses the first NaN or infinite sample before it reaches a
/// tracker: P² sorts its first five samples and cannot order a NaN,
/// and a running `max` would silently drop one. (Trace windows are
/// finite by construction; raw slices are not.)
fn check_finite(samples: &[f64]) -> crate::Result<()> {
    match samples.iter().position(|v| !v.is_finite()) {
        Some(index) => Err(CoreError::Trace(cavm_trace::TraceError::NonFiniteSample {
            index,
            value: samples[index],
        })),
        None => Ok(()),
    }
}

fn default_threads() -> usize {
    // `available_parallelism` is a syscall; resolve it once, not on
    // every monitoring tick.
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// Kernel work, in Peak pair updates, up to which a default-thread
/// entry point stays on the calling thread.
///
/// Spawning and joining the scoped helpers costs 40–130 µs on the
/// 2-vCPU bench host — more than halving a kernel this small saves.
/// `cargo bench -p cavm-bench --bench matrix_tick`, group
/// `close_small`, medians of four runs, one thread → both cores; the
/// P95 rows read per-pair replay → lane blocks ([`P2_LANES`]):
///
/// | rows × samples         | work   | 1 thread          | 2 threads         |
/// |------------------------|--------|-------------------|-------------------|
/// | 16 × 720, Peak         | 86 k   | 119 µs            | 137 µs            |
/// | 120 × 12, Peak         | 86 k   | 75 µs             | 115 µs            |
/// | 60 × 120, Peak         | 212 k  | 204 µs            | 184 µs            |
/// | 48 × 720, P95          | 13 M   | 19.0 → 17.2 ms    | 10.3 → 10.1 ms    |
/// | 96 × 720, P95, ⅓ idle  | 53 M   | 84.2 → 73.6 ms    | 50.6 → 39.6 ms    |
///
/// Break-even is somewhere past 2 × 10⁵; the line sits below it on
/// purpose. ROADMAP items 6(d) and 5(i) have the reason (the benchmark
/// driver reads a faster mid-size close as memory) and raising it is
/// this one line.
const SERIAL_WORK_MAX: usize = 1 << 17;

/// What one P² pair update weighs in Peak pair updates, as a power of
/// two: `close_small`'s serial rows above spend 21.2 ns (48 × 720 P95)
/// and 22.4 ns (96 × 720 P95) per P² update against 0.96 ns per Peak
/// update (60 × 120, the largest Peak replay) — 22 to 23 of them,
/// nearer 16 than 32.
const P2_WORK_WEIGHT: usize = 16;

/// The one fan-out rule of the default-thread entry points
/// ([`CostMatrix::fill`], [`CostMatrix::par_push_columns`]): the
/// calling thread alone while
/// the whole kernel costs less than spawning and joining helpers
/// would, every core above that. `work` is in Peak pair updates.
fn threads_for(work: usize) -> usize {
    if work <= SERIAL_WORK_MAX {
        1
    } else {
        default_threads()
    }
}

/// Runs `kernel(row_start, row_end, sub_plane)` over the whole triangle
/// `plane` of a `rows`-row matrix: in one call, or — when `threads`
/// splits the rows into more than one chunk — one scoped thread per
/// near-equal-pair row chunk. Each pair belongs to exactly one chunk,
/// so the result does not depend on `threads`.
fn over_row_chunks<T: Send>(
    rows: usize,
    threads: usize,
    plane: &mut [T],
    kernel: impl Fn(usize, usize, &mut [T]) + Sync,
) {
    if threads > 1 {
        let chunks = row_chunks(rows, threads);
        if chunks.len() > 1 {
            let kernel = &kernel;
            std::thread::scope(|scope| {
                for ((row_start, row_end), part) in chunked_rows(rows, &chunks, plane) {
                    scope.spawn(move || kernel(row_start, row_end, part));
                }
            });
            return;
        }
    }
    kernel(0, rows.saturating_sub(1), plane);
}

/// Splits a triangle plane into the per-chunk mutable row slices
/// described by `chunks`.
fn chunked_rows<'a, T>(
    n: usize,
    chunks: &'a [(usize, usize)],
    mut plane: &'a mut [T],
) -> impl Iterator<Item = ((usize, usize), &'a mut [T])> {
    let mut consumed = 0;
    chunks.iter().map(move |&(row_start, row_end)| {
        let chunk_end = row_offset(n, row_end);
        // `plane` walks forward through the original slice; `consumed`
        // tracks how many pair slots earlier chunks took.
        let (head, tail) = std::mem::take(&mut plane).split_at_mut(chunk_end - consumed);
        plane = tail;
        consumed = chunk_end;
        ((row_start, row_end), head)
    })
}

/// One tick of the Peak kernel over the whole pair plane.
fn peak_tick(utils: &[f64], plane: &mut [f64]) {
    let mut offset = 0;
    for (i, &ui) in utils.iter().enumerate() {
        let row_len = utils.len() - i - 1;
        let row = &mut plane[offset..offset + row_len];
        for (slot, &uj) in row.iter_mut().zip(&utils[i + 1..]) {
            *slot = slot.max(ui + uj);
        }
        offset += row_len;
    }
}

/// One tick of the P² kernel over the whole pair plane.
fn p2_tick(utils: &[f64], plane: &mut [P2Cell], clock: &P2Clock) {
    let mut offset = 0;
    for (i, &ui) in utils.iter().enumerate() {
        let row_len = utils.len() - i - 1;
        let row = &mut plane[offset..offset + row_len];
        for (cell, &uj) in row.iter_mut().zip(&utils[i + 1..]) {
            cell.push(ui + uj, clock);
        }
        offset += row_len;
    }
}

/// Pair-major window replay of the Peak kernel over rows
/// `[row_start, row_end)`; `windows[r]` holds row `r`'s samples.
fn peak_window_rows(
    n: usize,
    row_start: usize,
    row_end: usize,
    windows: &[&[f64]],
    plane: &mut [f64],
) {
    let mut offset = 0;
    for i in row_start..row_end {
        let xs = windows[i];
        let row_len = n - i - 1;
        let row = &mut plane[offset..offset + row_len];
        for (slot, ys) in row.iter_mut().zip(&windows[i + 1..]) {
            let mut peak = *slot;
            for (&x, &y) in xs.iter().zip(*ys) {
                peak = peak.max(x + y);
            }
            *slot = peak;
        }
        offset += row_len;
    }
}

/// Pairs of one row that [`p2_window_rows`] replays side by side. One
/// P² update is a serial chain of compares and divisions, so a lone
/// pair leaves the core waiting on latency; this many independent
/// chains overlap. 4 beat 2 and 8 on the 2-vCPU bench host.
const P2_LANES: usize = 4;

/// Window replay of the P² kernel over rows `[row_start, row_end)`,
/// [`P2_LANES`] pairs of a row at a time. `snapshot` is the clock state
/// *before* the window; each block of pairs (and each pair of a row's
/// remainder) replays its own local copy, so every pair sees exactly
/// its own samples, in order, under the clock of the tick-by-tick path.
fn p2_window_rows(
    n: usize,
    row_start: usize,
    row_end: usize,
    windows: &[&[f64]],
    plane: &mut [P2Cell],
    snapshot: &P2Clock,
) {
    let mut offset = 0;
    for i in row_start..row_end {
        let xs = windows[i];
        let row_len = n - i - 1;
        let row = &mut plane[offset..offset + row_len];
        let mut blocks = row.chunks_exact_mut(P2_LANES);
        let mut others = windows[i + 1..].chunks_exact(P2_LANES);
        for (block, ys) in (&mut blocks).zip(&mut others) {
            // Every window is as long as `xs`: slicing to it lets the
            // compiler drop the per-sample bounds checks.
            let ys: [&[f64]; P2_LANES] = std::array::from_fn(|l| &ys[l][..xs.len()]);
            let mut lanes: [P2Cell; P2_LANES] = std::array::from_fn(|l| block[l]);
            let mut local = snapshot.clone();
            for (t, &x) in xs.iter().enumerate() {
                local.tick();
                for (cell, y) in lanes.iter_mut().zip(ys) {
                    cell.push(x + y[t], &local);
                }
            }
            block.copy_from_slice(&lanes);
        }
        for (cell, ys) in blocks.into_remainder().iter_mut().zip(others.remainder()) {
            let mut local = snapshot.clone();
            for (&x, &y) in xs.iter().zip(*ys) {
                local.tick();
                cell.push(x + y, &local);
            }
        }
        offset += row_len;
    }
}

/// Batch-exact pairwise cost of two utilization *slices* (helper for
/// tests and experiments that already hold raw samples).
///
/// # Errors
///
/// Returns trace errors for empty or mismatched slices.
pub fn cost_of_slices(a: &[f64], b: &[f64], reference: Reference) -> crate::Result<f64> {
    if a.len() != b.len() {
        return Err(CoreError::Trace(cavm_trace::TraceError::LengthMismatch {
            left: a.len(),
            right: b.len(),
        }));
    }
    let u_a = reference.of(a)?;
    let u_b = reference.of(b)?;
    let sum: Vec<f64> = a.iter().zip(b).map(|(x, y)| x + y).collect();
    let u_sum = reference.of(&sum)?;
    Ok(combine_cost(u_a, u_b, u_sum))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(CostMatrix::new(0, Reference::Peak).is_err());
        assert!(CostMatrix::new(3, Reference::Percentile(0.0)).is_err());
        assert!(CostMatrix::new(1, Reference::Peak).is_ok());
        assert!(CostMatrix::from_traces(&[], Reference::Peak).is_err());
    }

    #[test]
    fn pair_indexing_covers_triangle_uniquely() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..6 {
            for j in (i + 1)..6 {
                assert!(seen.insert(pair_index(6, i, j)));
            }
        }
        assert_eq!(seen.len(), 15);
        assert_eq!(*seen.iter().max().unwrap(), 14);
    }

    #[test]
    fn row_chunks_partition_the_triangle() {
        for n in [2usize, 3, 5, 17, 64] {
            for threads in [1usize, 2, 3, 4, 9] {
                let chunks = row_chunks(n, threads);
                assert!(chunks.len() <= threads.max(1));
                assert_eq!(chunks.first().map(|c| c.0), Some(0));
                assert_eq!(chunks.last().map(|c| c.1), Some(n - 1));
                let mut pairs = 0;
                for w in chunks.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "chunks must be contiguous");
                }
                for &(a, b) in &chunks {
                    assert!(a < b);
                    pairs += row_offset(n, b) - row_offset(n, a);
                }
                assert_eq!(pairs, n * (n - 1) / 2);
            }
        }
        assert!(row_chunks(1, 4).is_empty());
    }

    #[test]
    fn symmetric_and_diagonal() {
        let mut m = CostMatrix::new(3, Reference::Peak).unwrap();
        m.push_sample(&[1.0, 3.0, 2.0]).unwrap();
        m.push_sample(&[3.0, 1.0, 2.0]).unwrap();
        for i in 0..3 {
            assert_eq!(m.cost(i, i), Some(1.0));
            for j in 0..3 {
                assert_eq!(m.cost(i, j), m.cost(j, i));
            }
        }
    }

    #[test]
    fn push_sample_validates_width() {
        let mut m = CostMatrix::new(3, Reference::Peak).unwrap();
        assert!(matches!(
            m.push_sample(&[1.0, 2.0]),
            Err(CoreError::SampleCountMismatch {
                got: 2,
                expected: 3
            })
        ));
    }

    /// Every answer the matrix gives, bit for bit.
    fn answers(m: &CostMatrix) -> (usize, u64, Vec<Option<u64>>) {
        let costs = (0..m.len())
            .flat_map(|i| (0..m.len()).map(move |j| (i, j)))
            .map(|(i, j)| m.cost(i, j).map(f64::to_bits))
            .collect();
        (m.len(), m.samples(), costs)
    }

    #[test]
    fn non_finite_samples_are_refused_before_any_change() {
        let refused = |err: CoreError, at: usize| {
            matches!(
                err,
                CoreError::Trace(cavm_trace::TraceError::NonFiniteSample { index, .. })
                    if index == at
            )
        };
        for reference in [Reference::Peak, Reference::Percentile(95.0)] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                // A tick: four clean ones, then the fifth, where P² sorts.
                let mut m = CostMatrix::new(3, reference).unwrap();
                for k in 0..4 {
                    m.push_sample(&[k as f64, 1.0, 2.0]).unwrap();
                }
                let before = answers(&m);
                let err = m.push_sample(&[1.0, bad, 2.0]).unwrap_err();
                assert!(refused(err, 1), "{reference:?} tick with {bad}");
                assert_eq!(answers(&m), before, "{reference:?} tick with {bad}");

                // A fill: the bad sample sits past the warm-up of row 1.
                let mut keyed = CostMatrix::keyed(3, reference).unwrap();
                let rising: Vec<f64> = (0..8).map(f64::from).collect();
                let falling: Vec<f64> = rising.iter().rev().copied().collect();
                let idle = [0.0; 8];
                let mut dirty = rising.clone();
                dirty[6] = bad;
                keyed
                    .fill(&[Some(0), Some(1), None], 2, &[&rising, &falling, &idle])
                    .unwrap();
                let before = answers(&keyed);
                let err = keyed
                    .fill(&[Some(1), Some(0), None], 3, &[&rising, &dirty, &idle])
                    .unwrap_err();
                assert!(refused(err, 6), "{reference:?} fill with {bad}");
                assert_eq!(answers(&keyed), before, "{reference:?} fill with {bad}");
            }
        }
    }

    #[test]
    fn from_traces_matches_manual_pushes() {
        let a = TimeSeries::new(1.0, vec![4.0, 0.0, 2.0, 1.0]).unwrap();
        let b = TimeSeries::new(1.0, vec![0.0, 4.0, 2.0, 1.0]).unwrap();
        let c = TimeSeries::new(1.0, vec![1.0, 1.0, 1.0, 4.0]).unwrap();
        let batch = CostMatrix::from_traces(&[&a, &b, &c], Reference::Peak).unwrap();
        let mut manual = CostMatrix::new(3, Reference::Peak).unwrap();
        for k in 0..4 {
            manual
                .push_sample(&[a.values()[k], b.values()[k], c.values()[k]])
                .unwrap();
        }
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(batch.cost(i, j), manual.cost(i, j));
            }
        }
        assert_eq!(batch.samples(), 4);
    }

    #[test]
    fn push_columns_matches_ticks_for_percentile() {
        let mut rng = cavm_trace::SimRng::new(11);
        let traces: Vec<TimeSeries> = (0..5)
            .map(|_| TimeSeries::new(1.0, (0..200).map(|_| rng.f64() * 4.0).collect()).unwrap())
            .collect();
        let refs: Vec<&TimeSeries> = traces.iter().collect();
        let mut batch = CostMatrix::new(5, Reference::Percentile(95.0)).unwrap();
        // Two windows back to back must equal one tick-by-tick replay.
        batch.push_columns(&refs, 0, 80).unwrap();
        batch.push_columns(&refs, 80, 200).unwrap();
        let mut manual = CostMatrix::new(5, Reference::Percentile(95.0)).unwrap();
        let mut buf = vec![0.0; 5];
        for k in 0..200 {
            for (v, t) in refs.iter().enumerate() {
                buf[v] = t.values()[k];
            }
            manual.push_sample(&buf).unwrap();
        }
        for i in 0..5 {
            for j in 0..5 {
                let (a, b) = (batch.cost(i, j).unwrap(), manual.cost(i, j).unwrap());
                assert_eq!(a.to_bits(), b.to_bits(), "pair ({i},{j})");
            }
        }
        assert_eq!(batch.samples(), manual.samples());
    }

    #[test]
    fn push_columns_validates_window() {
        let a = TimeSeries::new(1.0, vec![1.0, 2.0]).unwrap();
        let b = TimeSeries::new(1.0, vec![3.0, 4.0]).unwrap();
        let mut m = CostMatrix::new(2, Reference::Peak).unwrap();
        assert!(m.push_columns(&[&a, &b], 0, 3).is_err());
        assert!(m.push_columns(&[&a, &b], 2, 1).is_err());
        assert!(m.push_columns(&[&a], 0, 1).is_err());
        m.push_columns(&[&a, &b], 0, 0).unwrap();
        assert_eq!(m.samples(), 0);
    }

    #[test]
    fn from_traces_rejects_mismatched_lengths() {
        let a = TimeSeries::new(1.0, vec![1.0, 2.0]).unwrap();
        let b = TimeSeries::new(1.0, vec![1.0]).unwrap();
        assert!(CostMatrix::from_traces(&[&a, &b], Reference::Peak).is_err());
    }

    #[test]
    fn neutral_default_before_samples() {
        let m = CostMatrix::new(2, Reference::Peak).unwrap();
        assert_eq!(m.cost(0, 1), None);
        assert_eq!(m.cost_or_neutral(0, 1), 1.5);
        assert_eq!(m.samples(), 0);
    }

    #[test]
    fn neutral_for_ids_beyond_the_matrix() {
        // Online admissions score VMs that postdate the period matrix.
        let mut m = CostMatrix::new(2, Reference::Peak).unwrap();
        m.push_sample(&[3.0, 1.0]).unwrap();
        assert_eq!(m.cost_or_neutral(0, 7), 1.5);
        assert_eq!(m.cost_or_neutral(9, 1), 1.5);
        assert!(m.cost_or_neutral(0, 1) != 1.5 || m.samples() == 0);
    }

    #[test]
    fn reset_forgets_samples() {
        for reference in [Reference::Peak, Reference::Percentile(90.0)] {
            let mut m = CostMatrix::new(2, reference).unwrap();
            m.push_sample(&[1.0, 2.0]).unwrap();
            assert_eq!(m.samples(), 1);
            m.reset();
            assert_eq!(m.samples(), 0);
            assert_eq!(m.cost(0, 1), None);
            assert_eq!(m.len(), 2);
            assert!(!m.is_empty());
            assert_eq!(m.pair_count(), 1);
            assert_eq!(m.reference(), reference);
        }
    }

    #[test]
    fn dense_snapshot() {
        let mut m = CostMatrix::new(2, Reference::Peak).unwrap();
        m.push_sample(&[3.0, 0.0]).unwrap();
        m.push_sample(&[0.0, 3.0]).unwrap();
        assert_eq!(m.cost_or_neutral(0, 0), 1.0);
        assert_eq!(m.cost_or_neutral(1, 1), 1.0);
        assert_eq!(m.cost_or_neutral(0, 1), 2.0);
        assert_eq!(m.cost_or_neutral(1, 0), 2.0);
    }

    #[test]
    fn cost_of_slices_agrees_with_trace_path() {
        let xs = [4.0, 0.0, 2.0];
        let ys = [0.0, 4.0, 2.0];
        let via_slices = cost_of_slices(&xs, &ys, Reference::Peak).unwrap();
        let a = TimeSeries::new(1.0, xs.to_vec()).unwrap();
        let b = TimeSeries::new(1.0, ys.to_vec()).unwrap();
        let via_traces = crate::corr::cost_of_traces(&a, &b, Reference::Peak).unwrap();
        assert_eq!(via_slices, via_traces);
        assert!(cost_of_slices(&xs, &ys[..2], Reference::Peak).is_err());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_pair_panics() {
        let m = CostMatrix::new(2, Reference::Peak).unwrap();
        let _ = m.cost(0, 5);
    }

    #[test]
    fn fixed_cost_matrix_overrides_streaming() {
        // Triangle for n=3: (0,1), (0,2), (1,2).
        let m = CostMatrix::from_costs(3, vec![1.1, 1.9, 1.5]).unwrap();
        assert_eq!(m.cost(0, 1), Some(1.1));
        assert_eq!(m.cost(2, 0), Some(1.9));
        assert_eq!(m.cost(1, 2), Some(1.5));
        assert_eq!(m.cost(1, 1), Some(1.0));
        assert!(CostMatrix::from_costs(3, vec![1.0]).is_err());
        assert!(CostMatrix::from_costs(0, vec![]).is_err());
    }

    #[test]
    fn default_fan_out_follows_the_work_threshold() {
        assert_eq!(threads_for(0), 1);
        assert_eq!(threads_for(SERIAL_WORK_MAX), 1);
        assert_eq!(threads_for(SERIAL_WORK_MAX + 1), default_threads());
        assert_eq!(threads_for(usize::MAX), default_threads());

        // Rows × samples either side of the line, P² updates weighted.
        let p95 = Reference::Percentile(95.0);
        for (rows, samples, reference, serial) in [
            (16, 720, Reference::Peak, true),
            (47, 120, Reference::Peak, true),
            (48, 120, Reference::Peak, false),
            (120, 12, Reference::Peak, true),
            (8, 290, p95, true),
            (8, 300, p95, false),
            // `flat-p95-day`'s smallest close (its smoke size).
            (24, 720, p95, false),
            (4096, 1, Reference::Peak, false),
            (64, 1, p95, true),
        ] {
            let matrix = CostMatrix::keyed(rows, reference).unwrap();
            let expected = if serial { 1 } else { default_threads() };
            assert_eq!(
                matrix.fan_out(samples),
                expected,
                "{rows} rows x {samples} samples under {reference:?}"
            );
        }
        // Work that overflows saturates instead of wrapping to "small".
        let wide = CostMatrix::keyed(4096, Reference::Peak).unwrap();
        assert_eq!(wide.fan_out(usize::MAX), default_threads());
    }
}
