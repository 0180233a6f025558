//! The all-pairs cost matrix `M_cost` (paper §IV-A) — struct-of-arrays
//! kernel.
//!
//! "Using our new Cost function, we can model correlations among all VMs
//! by constructing a 2-D matrix, namely M_cost, where the (i,j)-th
//! element corresponds to Cost_ij."
//!
//! The matrix is a function of the window it was last filled from: every
//! way in ([`CostMatrix::fill`] at the period close,
//! [`CostMatrix::par_push_columns`], [`CostMatrix::from_traces`]) forgets
//! what it held and replays one window, whole, into fresh state.
//!
//! # Storage layout
//!
//! The seed implementation (preserved, test-only, as
//! `PairwiseCostMatrix` in `tests/baseline/`) kept one enum-dispatched
//! [`CostMetric`](crate::corr::CostMetric) per
//! pair: three boxed-enum trackers and ~640 bytes of state per pair,
//! fed one sample at a time. This module flattens that:
//!
//! * **Per-VM reference trackers are stored once**, not once per pair.
//!   Every pair `(i, j)` needs û(VMi) and û(VMj); the seed paid for
//!   `n-1` redundant copies of each VM's tracker. Here they live in one
//!   length-`n` plane.
//! * **Per-pair sum trackers are contiguous flat planes** over the
//!   upper triangle (row-major, pair `(i, j)` with `i < j` at
//!   `i·(2n-i-1)/2 + (j-i-1)`):
//!   - under [`Reference::Peak`], a single `Vec<f64>` of running
//!     maxima — 8 bytes per pair;
//!   - under [`Reference::Percentile`], a `Vec<P2Cell>` of compact
//!     64-byte P² marker cells driven by one shared [`P2Clock`] (the
//!     sample count and desired marker positions are identical across
//!     the bank, so they are hoisted out of the per-pair state).
//! * **Monomorphized kernels**: the `Peak` and `Percentile` replays
//!   are separate loops selected once per fill, instead of a
//!   per-sample `match` on every tracker of every pair.
//!
//! Each sample still costs O(1) per pair — the paper's UPDATE-phase
//! argument (Fig 2, line 7) — but over `8` bytes of pair state instead
//! of `~640`.
//!
//! # Window replay
//!
//! A fill walks the triangle row by row instead of sample-major, so a
//! row's slots are updated over the whole window while they are hot in
//! cache, instead of re-touching the entire (possibly multi-megabyte)
//! plane once per sample. A Peak row goes one pair at a time, and each
//! pair's window in blocks of four samples (`PEAK_LANES`) folded into
//! four independent running peaks, merged at the end, with the window's
//! last `len % 4` samples one at a time: one running peak is a serial
//! chain of compares, and four overlap. Every Peak update — pair or
//! per-VM — is the compare-select `raise` (`if s > peak { s } else {
//! peak }`), not `f64::max`: the latter must return the other operand
//! when one is NaN, and that lowering costs more than the update, while
//! every entry point has refused NaN and ∞ before a kernel runs. The
//! only answer the two can differ on is which zero a ±0 tie keeps, and
//! no cost can tell (see `raise`). A P² row goes in blocks of four
//! pairs (`P2_LANES`), each block copied out, replayed under one local
//! clock, and copied back: a P² update is a serial chain of compares
//! and divisions, and four independent chains keep the core busy where
//! one waits on latency. The row's last `len % 4` pairs replay one at a
//! time. Every P² pair still sees exactly its own samples in order, and
//! a running peak is the same maximum in any order, so the result is
//! the per-pair one bit for bit.
//!
//! A fill can also split the triangle into near-equal-pair row chunks
//! and hand them to [`cavm_trace::fanout`], which runs the first chunk
//! on the calling thread and each other on a scoped thread. Each pair
//! is still updated by exactly one thread in sample order, so parallel
//! results are bit-identical to serial ones — the equivalence tests in
//! `tests/soa_equivalence.rs` pin this.
//!
//! Whether it *does* fan out is one rule, `threads_for`: scoped threads
//! are spawned and joined per call, which costs about as much as
//! 1–4 × 10⁵ Peak pair updates, so a replay whose kernel is smaller
//! than 2¹⁷ of them (`pairs × samples`, a P² update counted 16-fold)
//! runs on the calling thread and only larger ones use every core. A
//! 16-VM session's period close is the former, `flat-p95-day`'s 96 ×
//! 720 P95 close the latter. [`CostMatrix::fill_threads`] takes the
//! count as given.
//!
//! # Rows and ids
//!
//! The planes are laid out over **rows**, and an id → row table,
//! captured when the matrix is filled, translates lookups.
//! [`CostMatrix::new`] is the matrix over ids `0..n`, each its own row.
//! A long-running session whose VMs come and go would pay for every id
//! it has ever seen that way, so the online controller starts from
//! [`CostMatrix::keyed`] instead — as many rows as VMs were sampled in
//! one period, no id yet — and hands [`CostMatrix::fill`] the row
//! table with each window. [`CostMatrix::len`] means "ids this matrix
//! answers for" (the *id bound*), and a lookup has three answers:
//!
//! * both ids have a **row**: the Eqn (1) ratio from the planes;
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
//! `tests/soa_equivalence.rs` pins the row-less answers bit for bit
//! against a matrix over the zero-padded universe.

use crate::corr::cost::combine_cost;
use crate::CoreError;
use cavm_trace::{fanout, P2Cell, P2Clock, Reference, TimeSeries};

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

/// What the matrix answers from.
#[derive(Debug, Clone)]
enum Storage {
    /// `Reference::Peak`: running maxima, one `f64` per VM / per pair.
    Peak {
        /// Per-row running peak of the row's samples.
        vm_peak: Vec<f64>,
        /// Per-pair running peak of the two rows' summed samples
        /// (triangle).
        pair_peak: Vec<f64>,
    },
    /// `Reference::Percentile(p)`: compact P² cells under one clock.
    Percentile {
        /// Shared sample counter and desired marker positions.
        clock: P2Clock,
        /// Per-row P² estimator state.
        vm_cells: Vec<P2Cell>,
        /// Per-pair P² estimator state over the two rows' summed
        /// samples (triangle).
        pair_cells: Vec<P2Cell>,
    },
    /// Pairwise costs given outright, the upper triangle row-major
    /// ([`CostMatrix::from_costs`]); a fill replaces them with Peak
    /// planes.
    Fixed(Vec<f64>),
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

/// Symmetric pairwise correlation-cost matrix over a set of VM ids
/// (struct-of-arrays kernel; see the [module docs](self) for layout).
///
/// Diagonal entries are 1.0 by definition: a VM co-located with itself
/// gains nothing (`(û+û)/û(2·VM) = 1`).
///
/// # Example
///
/// ```
/// use cavm_core::corr::CostMatrix;
/// use cavm_trace::{Reference, TimeSeries};
///
/// # fn main() -> Result<(), cavm_core::CoreError> {
/// let vm0 = TimeSeries::new(1.0, vec![4.0, 0.0])?;
/// let vm1 = TimeSeries::new(1.0, vec![0.0, 4.0])?;
/// let vm2 = TimeSeries::new(1.0, vec![2.0, 2.0])?;
/// let m = CostMatrix::from_traces(&[&vm0, &vm1, &vm2], Reference::Peak)?;
/// // VM0 and VM1 peak apart: cost 2. Each against the flat VM2: 6/6 = 1.
/// assert_eq!(m.cost(0, 1), Some(2.0));
/// assert_eq!(m.cost(0, 2), Some(1.0));
/// assert_eq!(m.cost(0, 0), Some(1.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CostMatrix {
    /// Ids the matrix answers for ([`Self::len`]), the id bound.
    n: usize,
    /// Rows of the planes.
    rows: usize,
    reference: Reference,
    samples: u64,
    storage: Storage,
    /// `key[id]` is the row `id` was sampled into when the matrix was
    /// last filled, [`NO_ROW`] for an id that had none. Ids the bound
    /// has advanced over since lie beyond the table and have no row
    /// either.
    key: Vec<u32>,
}

impl CostMatrix {
    /// Creates an empty matrix over ids `0..n`, each its own row.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when `n == 0`, the
    /// reference percentile is out of range or `n` does not fit the
    /// row table.
    pub fn new(n: usize, reference: Reference) -> crate::Result<Self> {
        if n == 0 {
            return Err(CoreError::InvalidParameter(
                "cost matrix needs at least one vm",
            ));
        }
        let mut matrix = Self::keyed(n, reference)?;
        matrix.n = n;
        matrix.key = (0..n as u32).collect();
        Ok(matrix)
    }

    /// Creates an empty matrix with planes over `rows` rows — zero is
    /// allowed — that answers for no id yet: [`Self::fill`] installs
    /// samples and the id → row table, [`Self::extend_ids`] advances
    /// the id bound.
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
            key: Vec::new(),
        })
    }

    /// Builds a matrix with *fixed* pairwise costs over ids `0..n` —
    /// `costs` is the upper triangle, row-major (`(0,1), (0,2), ...,
    /// (1,2), ...`). Used by ablation studies to drive the allocator
    /// with a foreign correlation measure (e.g. Pearson mapped into
    /// `[1, 2]`).
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
        let mut matrix = Self::keyed(0, Reference::Peak)?;
        matrix.n = n;
        matrix.rows = n;
        matrix.key = (0..n as u32).collect();
        matrix.storage = Storage::Fixed(costs);
        Ok(matrix)
    }

    /// Builds a matrix over ids `0..traces.len()` from the whole of
    /// each trace: [`Self::new`] plus [`Self::par_push_columns`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an empty trace set
    /// and trace errors for length mismatches.
    pub fn from_traces(traces: &[&TimeSeries], reference: Reference) -> crate::Result<Self> {
        let Some(first) = traces.first() else {
            return Err(CoreError::InvalidParameter(
                "cost matrix needs at least one vm",
            ));
        };
        let mut matrix = Self::new(traces.len(), reference)?;
        matrix.par_push_columns(traces, 0, first.len())?;
        Ok(matrix)
    }

    /// Number of ids the matrix answers for: the id bound.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` only for a matrix that answers for no id yet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Rows of the planes.
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

    /// Threads [`Self::fill`] uses to push `samples` samples through
    /// every pair: [`threads_for`] applied to `pairs × samples`, a P²
    /// update counted [`P2_WORK_WEIGHT`]-fold.
    fn fan_out(&self, samples: usize) -> usize {
        let weight = match self.storage {
            Storage::Peak { .. } | Storage::Fixed(_) => 1,
            Storage::Percentile { .. } => P2_WORK_WEIGHT,
        };
        threads_for(
            self.pair_count()
                .saturating_mul(samples)
                .saturating_mul(weight),
        )
    }

    /// Refills the matrix from one window per row: forgets the previous
    /// samples (the planes' allocation is re-used), captures the
    /// id → row table from `occupants` (`occupants[r]` is the id sampled
    /// into row `r`, `None` for a row nobody held — its window should be
    /// all zeros), sets the id bound to `ids`, and replays `windows[r]`
    /// into row `r` — on the calling thread when the replay is too small
    /// to repay a thread spawn, fanned out over the available cores
    /// otherwise (the [module docs](self) give the rule; the answer is
    /// the same bit for bit).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an occupant id at or
    /// beyond `ids` and for an id holding two rows;
    /// [`CoreError::SampleCountMismatch`] when `occupants` or `windows`
    /// do not cover exactly the rows; a trace length mismatch when the
    /// windows disagree; and a [non-finite
    /// sample](cavm_trace::TraceError::NonFiniteSample) error for the
    /// first NaN or infinite sample, its `index` the position in its
    /// row's window. A failed fill changes nothing.
    pub fn fill(
        &mut self,
        occupants: &[Option<usize>],
        ids: usize,
        windows: &[&[f64]],
    ) -> crate::Result<()> {
        let threads = self.fan_out(windows.first().map_or(0, |w| w.len()));
        self.fill_threads(occupants, ids, windows, threads)
    }

    /// [`Self::fill`] over at most `threads` row chunks, honoured
    /// whatever the size.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::fill`].
    pub fn fill_threads(
        &mut self,
        occupants: &[Option<usize>],
        ids: usize,
        windows: &[&[f64]],
        threads: usize,
    ) -> crate::Result<()> {
        self.check_width(occupants.len())?;
        self.check_width(windows.len())?;
        common_len(windows.iter().map(|w| w.len()))?;
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
        self.key = key;
        self.n = ids;
        self.replay(windows, threads);
        Ok(())
    }

    /// Forgets every sample, then replays one equally long sample
    /// window per row into the planes, row by row, over at most
    /// `threads` row chunks. Each P² replay ticks a local copy of the
    /// fresh clock, so marker positions advance exactly as they would
    /// for one cell fed the samples one at a time.
    fn replay(&mut self, windows: &[&[f64]], threads: usize) {
        let rows = self.rows;
        if let Storage::Fixed(_) = self.storage {
            self.storage = Storage::new(rows, Reference::Peak).expect("Peak takes no parameter");
        }
        let ticks = windows.first().map_or(0, |w| w.len());
        match &mut self.storage {
            Storage::Peak { vm_peak, pair_peak } => {
                vm_peak.fill(f64::NEG_INFINITY);
                pair_peak.fill(f64::NEG_INFINITY);
                for (slot, window) in vm_peak.iter_mut().zip(windows) {
                    let (blocks, tail) = window.as_chunks();
                    *slot = window_peak(*slot, blocks.iter().copied(), tail.iter().copied());
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
                clock.reset();
                vm_cells.iter_mut().for_each(P2Cell::reset);
                pair_cells.iter_mut().for_each(P2Cell::reset);
                for (cell, window) in vm_cells.iter_mut().zip(windows) {
                    let mut local = clock.clone();
                    for &u in *window {
                        local.tick();
                        cell.push(u, &local);
                    }
                }
                let fresh = clock.clone();
                over_row_chunks(rows, threads, pair_cells, |row_start, row_end, plane| {
                    p2_window_rows(rows, row_start, row_end, windows, plane, &fresh);
                });
                for _ in 0..ticks {
                    clock.tick();
                }
            }
            Storage::Fixed(_) => unreachable!("replaced by Peak planes above"),
        }
        self.samples = ticks as u64;
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
        self.key
            .get(id)
            .and_then(|&row| (row != NO_ROW).then_some(row as usize))
    }

    /// The reference utilization û of the VM in `row`.
    fn row_reference(&self, row: usize) -> Option<f64> {
        match &self.storage {
            Storage::Peak { vm_peak, .. } => Some(vm_peak[row]),
            Storage::Percentile {
                clock, vm_cells, ..
            } => vm_cells[row].estimate(clock),
            // Every id below a fixed matrix's bound has a row.
            Storage::Fixed(_) => None,
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
        match &self.storage {
            Storage::Fixed(values) => Some(values[idx]),
            _ if self.samples == 0 => None,
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

    /// Number of samples of the window last filled in (0 for a fresh
    /// matrix).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Refills the matrix from the column window `[start, end)` of
    /// `traces`, trace `r` into row `r`, every id its own row: a
    /// [`Self::fill`] over ids `0..rows` with the same fan-out rule.
    /// Like every fill it forgets what the matrix held — two calls
    /// leave the second window, not the two appended.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SampleCountMismatch`] when `traces.len()`
    /// is not the row count, a trace length mismatch when the traces
    /// disagree, and [`CoreError::InvalidParameter`] when the window is
    /// out of range. A failed call changes nothing.
    pub fn par_push_columns(
        &mut self,
        traces: &[&TimeSeries],
        start: usize,
        end: usize,
    ) -> crate::Result<()> {
        self.check_width(traces.len())?;
        let len = common_len(traces.iter().map(|t| t.len()))?;
        if start > end || end > len {
            return Err(CoreError::InvalidParameter("column window out of range"));
        }
        let windows: Vec<&[f64]> = traces.iter().map(|t| &t.values()[start..end]).collect();
        let occupants: Vec<Option<usize>> = (0..self.rows).map(Some).collect();
        self.fill(&occupants, self.rows, &windows)
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

/// Kernel work, in Peak pair updates, up to which [`CostMatrix::fill`]
/// stays on the calling thread.
///
/// Spawning and joining the scoped helpers costs 40–130 µs on the
/// 2-vCPU bench host — more than halving a kernel this small saves.
/// `cargo bench -p cavm-bench --bench matrix_tick`, group
/// `close_small`, medians of four runs, `f64::max` loop → compare-select
/// lanes ([`PEAK_LANES`]); the P95 rows run the lane-blocked P² kernel
/// ([`P2_LANES`]) on both sides:
///
/// | rows × samples         | work   | 1 thread          | 2 threads         |
/// |------------------------|--------|-------------------|-------------------|
/// | 16 × 720, Peak         | 86 k   | 91 → 35 µs        | 103 → 60 µs       |
/// | 120 × 12, Peak         | 86 k   | 61 → 33 µs        | 70 → 62 µs        |
/// | 60 × 120, Peak         | 212 k  | 161 → 58 µs       | 139 → 75 µs       |
/// | 48 × 720, P95          | 13 M   | 13.9 → 13.7 ms    | 7.9 → 7.6 ms      |
/// | 96 × 720, P95, ⅓ idle  | 53 M   | 56.8 → 56.1 ms    | 31.4 → 29.3 ms    |
///
/// Break-even is past 2 × 10⁵, and with the lanes 2¹⁷ Peak updates
/// take about 35 µs, below the spawn cost itself. The line stays where
/// it is on purpose: ROADMAP items 13(b) and 1(i) have the reason (the
/// benchmark reads a faster mid-size close as memory) and raising it
/// is this one line.
const SERIAL_WORK_MAX: usize = 1 << 17;

/// What one P² pair update weighs in Peak pair updates, as a power of
/// two: `close_small`'s serial rows above spend 16.9 ns (48 × 720 P95)
/// and 17.1 ns (96 × 720 P95) per P² update against 0.27 ns per Peak
/// update (60 × 120, the largest Peak replay) — about 62 of them, where
/// the `f64::max` loop's 0.76 ns made it 22. The weight stays 16 on
/// purpose: re-weighing moves where P² replays fan out, which is
/// moving the line of [`SERIAL_WORK_MAX`] — ROADMAP item 13(b), waiting
/// for 1(i) like it.
const P2_WORK_WEIGHT: usize = 16;

/// The one fan-out rule of [`CostMatrix::fill`] (and so of
/// [`CostMatrix::par_push_columns`] and [`CostMatrix::from_traces`]):
/// the calling thread alone while the whole kernel costs less than
/// spawning and joining helpers would, every core above that. `work`
/// is in Peak pair updates.
fn threads_for(work: usize) -> usize {
    if work <= SERIAL_WORK_MAX {
        1
    } else {
        fanout::cores()
    }
}

/// Runs `kernel(row_start, row_end, sub_plane)` over the whole triangle
/// `plane` of a `rows`-row matrix, one [`fanout`] part per
/// near-equal-pair row chunk of at most `threads`. Each pair belongs to
/// exactly one chunk, so the result does not depend on `threads`.
fn over_row_chunks<T: Send>(
    rows: usize,
    threads: usize,
    plane: &mut [T],
    kernel: impl Fn(usize, usize, &mut [T]) + Sync,
) {
    let chunks = row_chunks(rows, threads);
    fanout::run(
        chunked_rows(rows, &chunks, plane),
        |((row_start, row_end), part)| kernel(row_start, row_end, part),
    );
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

/// The Peak update: `peak` raised to `s` when `s` is larger. A
/// compare-select, not `f64::max`, whose NaN handling costs more than
/// the update itself; every caller has refused NaN and ∞ already. On
/// a ±0 tie it keeps `peak`, where `f64::max` may return either zero —
/// no cost can tell, since an aggregate peak within `IDLE_EPS` of zero
/// reads as idle and a per-VM peak enters Eqn (1) only in a sum.
#[inline(always)]
fn raise(peak: f64, s: f64) -> f64 {
    if s > peak {
        s
    } else {
        peak
    }
}

/// Samples of one window that [`window_peak`] folds side by side: a
/// lone running peak is one serial chain of compares, and four
/// independent ones overlap.
const PEAK_LANES: usize = 4;

/// `peak` raised by every sample of one window, given as its
/// [`PEAK_LANES`]-sample blocks and the `len % 4` samples after them:
/// the blocks go into as many running peaks, folded into one at the
/// end, and the tail goes one sample at a time.
#[inline(always)]
fn window_peak(
    peak: f64,
    blocks: impl Iterator<Item = [f64; PEAK_LANES]>,
    tail: impl Iterator<Item = f64>,
) -> f64 {
    let mut lanes = [peak; PEAK_LANES];
    for block in blocks {
        for (lane, s) in lanes.iter_mut().zip(block) {
            *lane = raise(*lane, s);
        }
    }
    let [a, b, c, d] = lanes;
    tail.fold(raise(raise(a, b), raise(c, d)), raise)
}

/// Pair-major window replay of the Peak kernel over rows
/// `[row_start, row_end)`; `windows[r]` holds row `r`'s samples. Each
/// pair's window of sums goes through [`window_peak`].
fn peak_window_rows(
    n: usize,
    row_start: usize,
    row_end: usize,
    windows: &[&[f64]],
    plane: &mut [f64],
) {
    let mut offset = 0;
    for i in row_start..row_end {
        let row_len = n - i - 1;
        let row = &mut plane[offset..offset + row_len];
        let (x_blocks, x_tail) = windows[i].as_chunks::<PEAK_LANES>();
        for (slot, ys) in row.iter_mut().zip(&windows[i + 1..]) {
            let (y_blocks, y_tail) = ys.as_chunks::<PEAK_LANES>();
            let sums = x_blocks
                .iter()
                .zip(y_blocks)
                .map(|(x, y)| std::array::from_fn(|l| x[l] + y[l]));
            let tail = x_tail.iter().zip(y_tail).map(|(x, y)| x + y);
            *slot = window_peak(*slot, sums, tail);
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
/// its own samples, in order, under the clock that one cell fed them
/// one at a time would see.
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

#[cfg(test)]
impl CostMatrix {
    /// Unit-test shorthand: the Peak matrix [`Self::from_traces`]
    /// builds when `ticks[t][v]` is VM `v`'s utilization at sample `t`.
    pub(crate) fn from_ticks(ticks: &[impl AsRef<[f64]>]) -> Self {
        let vms = ticks[0].as_ref().len();
        let traces: Vec<TimeSeries> = (0..vms)
            .map(|v| {
                let values = ticks.iter().map(|tick| tick.as_ref()[v]).collect();
                TimeSeries::new(1.0, values).expect("finite samples")
            })
            .collect();
        let refs: Vec<&TimeSeries> = traces.iter().collect();
        Self::from_traces(&refs, Reference::Peak).expect("equally long traces")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[f64]) -> TimeSeries {
        TimeSeries::new(1.0, values.to_vec()).unwrap()
    }

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
        let m = CostMatrix::from_ticks(&[[1.0, 3.0, 2.0], [3.0, 1.0, 2.0]]);
        for i in 0..3 {
            assert_eq!(m.cost(i, i), Some(1.0));
            for j in 0..3 {
                assert_eq!(m.cost(i, j), m.cost(j, i));
            }
        }
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
                // The bad sample sits past the warm-up of row 1.
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
        let a = series(&[4.0, 0.0, 2.0, 1.0]);
        let b = series(&[0.0, 4.0, 2.0, 1.0]);
        let c = series(&[1.0, 1.0, 1.0, 4.0]);
        let batch = CostMatrix::from_traces(&[&a, &b, &c], Reference::Peak).unwrap();
        let mut manual = CostMatrix::keyed(3, Reference::Peak).unwrap();
        manual
            .fill(
                &[Some(0), Some(1), Some(2)],
                3,
                &[a.values(), b.values(), c.values()],
            )
            .unwrap();
        assert_eq!(answers(&batch), answers(&manual));
        assert_eq!(batch.samples(), 4);
    }

    #[test]
    fn push_columns_validates_window() {
        let a = series(&[1.0, 2.0]);
        let b = series(&[3.0, 4.0]);
        let mut m = CostMatrix::new(2, Reference::Peak).unwrap();
        assert!(m.par_push_columns(&[&a, &b], 0, 3).is_err());
        assert!(m.par_push_columns(&[&a, &b], 2, 1).is_err());
        assert!(matches!(
            m.par_push_columns(&[&a], 0, 1),
            Err(CoreError::SampleCountMismatch {
                got: 1,
                expected: 2
            })
        ));
        m.par_push_columns(&[&a, &b], 0, 0).unwrap();
        assert_eq!(m.samples(), 0);
    }

    #[test]
    fn from_traces_rejects_mismatched_lengths() {
        let a = series(&[1.0, 2.0]);
        let b = series(&[1.0]);
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
        let m = CostMatrix::from_ticks(&[[3.0, 1.0]]);
        assert_eq!(m.cost_or_neutral(0, 7), 1.5);
        assert_eq!(m.cost_or_neutral(9, 1), 1.5);
        assert!(m.cost_or_neutral(0, 1) != 1.5 || m.samples() == 0);
    }

    /// A refill forgets the previous window: the matrix is a function
    /// of its last fill alone.
    #[test]
    fn reset_forgets_samples() {
        for reference in [Reference::Peak, Reference::Percentile(90.0)] {
            let first = [series(&[1.0, 5.0, 2.0]), series(&[2.0, 0.0, 7.0])];
            let second = [series(&[3.0, 1.0]), series(&[1.0, 3.0])];
            let mut m = CostMatrix::new(2, reference).unwrap();
            m.par_push_columns(&[&first[0], &first[1]], 0, 3).unwrap();
            m.par_push_columns(&[&second[0], &second[1]], 0, 2).unwrap();
            let fresh = CostMatrix::from_traces(&[&second[0], &second[1]], reference).unwrap();
            assert_eq!(answers(&m), answers(&fresh));
            assert_eq!(m.samples(), 2);

            m.par_push_columns(&[&second[0], &second[1]], 0, 0).unwrap();
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
        let m = CostMatrix::from_ticks(&[[3.0, 0.0], [0.0, 3.0]]);
        assert_eq!(m.cost_or_neutral(0, 0), 1.0);
        assert_eq!(m.cost_or_neutral(1, 1), 1.0);
        assert_eq!(m.cost_or_neutral(0, 1), 2.0);
        assert_eq!(m.cost_or_neutral(1, 0), 2.0);
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
        let mut m = CostMatrix::from_costs(3, vec![1.1, 1.9, 1.5]).unwrap();
        assert_eq!(m.cost(0, 1), Some(1.1));
        assert_eq!(m.cost(2, 0), Some(1.9));
        assert_eq!(m.cost(1, 2), Some(1.5));
        assert_eq!(m.cost(1, 1), Some(1.0));
        assert!(CostMatrix::from_costs(3, vec![1.0]).is_err());
        assert!(CostMatrix::from_costs(0, vec![]).is_err());

        // A fill measures the costs like any Peak matrix's.
        let windows: [&[f64]; 3] = [&[4.0, 0.0], &[0.0, 4.0], &[2.0, 2.0]];
        m.fill(&[Some(0), Some(1), Some(2)], 3, &windows).unwrap();
        let traces = windows.map(series);
        let measured = CostMatrix::from_traces(&traces.each_ref(), Reference::Peak).unwrap();
        assert_eq!(answers(&m), answers(&measured));
        assert_eq!(m.cost(0, 1), Some(2.0));
    }

    #[test]
    fn default_fan_out_follows_the_work_threshold() {
        assert_eq!(threads_for(0), 1);
        assert_eq!(threads_for(SERIAL_WORK_MAX), 1);
        assert_eq!(threads_for(SERIAL_WORK_MAX + 1), fanout::cores());
        assert_eq!(threads_for(usize::MAX), fanout::cores());

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
            let expected = if serial { 1 } else { fanout::cores() };
            assert_eq!(
                matrix.fan_out(samples),
                expected,
                "{rows} rows x {samples} samples under {reference:?}"
            );
        }
        // Work that overflows saturates instead of wrapping to "small".
        let wide = CostMatrix::keyed(4096, Reference::Peak).unwrap();
        assert_eq!(wide.fan_out(usize::MAX), fanout::cores());
    }
}
