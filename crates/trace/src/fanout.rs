//! The workspace's one deterministic fan-out.
//!
//! The caller splits its work into disjoint parts — each a `&mut`
//! chunk of a caller-allocated output plus whatever scratch it owns —
//! and [`run`] hands every part to the same worker function once: the
//! first on the calling thread, each other on a scoped thread. A part
//! writes only its own slots, so results land in index order and never
//! depend on how many parts there were or which thread ran which. The
//! callers choose the split: the cost-matrix fill (near-equal-pair row
//! chunks), trace synthesis (contiguous VM chunks) and the session host
//! (contiguous session chunks).

use std::sync::OnceLock;
use std::thread;

/// The host's cores, at least 1. `available_parallelism` is a syscall,
/// so it is resolved once per process.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Runs `work` once on every part: the first on the calling thread,
/// each other on its own scoped thread, all joined before it returns.
/// One part runs inline and spawns nothing; none does nothing.
///
/// # Panics
///
/// A panic in any part reaches the caller, once every part has ended.
pub fn run<P: Send>(parts: impl IntoIterator<Item = P>, work: impl Fn(P) + Sync) {
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else { return };
    let work = &work;
    thread::scope(|scope| {
        for part in parts {
            scope.spawn(move || work(part));
        }
        work(first);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_part_runs_once_into_its_own_slot() {
        for parts in [0, 1, 2, 7] {
            let mut slots = vec![0; parts];
            run(slots.iter_mut().enumerate(), |(i, slot)| *slot += i + 1);
            assert_eq!(slots, (1..=parts).collect::<Vec<_>>(), "{parts} parts");
        }
    }

    #[test]
    fn the_first_part_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        let mut ran_on = vec![None; 3];
        run(&mut ran_on, |slot| *slot = Some(thread::current().id()));
        let (first, others) = ran_on.split_first().unwrap();
        assert_eq!(*first, Some(caller));
        assert!(others.iter().all(|id| id.is_some_and(|id| id != caller)));
    }

    #[test]
    #[should_panic]
    fn a_panicking_part_panics_the_caller() {
        run(0..3, |part| assert_ne!(part, 2, "part 2 fails"));
    }

    #[test]
    fn cores_is_at_least_one() {
        assert!(cores() >= 1);
    }
}
