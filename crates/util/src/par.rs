//! Minimal scoped-thread work distribution (no external thread pool).
//!
//! Three primitives cover every parallel path in the workspace:
//!
//! * [`par_for_each_mut`] — run a function on every item of a mutable
//!   slice in place, with items claimed one at a time so uneven costs
//!   balance naturally. HDG's per-pair response-matrix build fills
//!   caller-allocated matrices with it.
//! * [`par_map`] — the same, collecting one result per item in order. Used
//!   by the bench harness to sweep experiment cells and by the protocol
//!   collector and query server to process shards.
//! * [`split_chunks`] — deterministic near-equal partition of a slice into
//!   contiguous chunks, the sharding layout of the report-ingestion engine
//!   (contiguity keeps each shard's pass cache-friendly and makes the
//!   serial/sharded equivalence argument a statement about addition only).

use std::sync::Mutex;

/// Applies `f(index, item)` to every item on up to `available_parallelism`
/// threads, in place, giving each thread at least `min_per_thread` items.
/// Items are claimed one at a time from a shared queue, so uneven item
/// costs (HIO vs Uni cells, pairs that converge early) balance naturally;
/// with one thread it runs inline and spawns nothing.
///
/// `min_per_thread` lets a caller keep small batches serial. Spawning has
/// a cost beyond the spawn itself: the first thread a process creates
/// moves glibc's malloc off its single-thread fast path for the rest of
/// the process's life, which slowed the allocation-heavy client and
/// one-shard serve paths of an otherwise single-threaded process by 5–12%
/// (2-CPU x86-64 host).
///
/// The function itself allocates nothing on the workers: a caller that
/// allocates the buffers `f` fills before the call keeps them out of the
/// workers' per-thread malloc arenas, which would otherwise grow the
/// process's resident memory.
pub fn par_for_each_mut<T: Send>(
    items: &mut [T],
    min_per_thread: usize,
    f: impl Fn(usize, &mut T) + Sync,
) {
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(items.len() / min_per_thread.max(1));
    if threads <= 1 {
        items
            .iter_mut()
            .enumerate()
            .for_each(|(i, item)| f(i, item));
        return;
    }
    let queue = Mutex::new(items.iter_mut().enumerate());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // A panicking `f` never holds the lock, so the queue
                // cannot be poisoned mid-claim; the scope re-raises it.
                let next = queue
                    .lock()
                    .expect("no worker panics while holding the queue lock")
                    .next();
                let Some((i, item)) = next else {
                    break;
                };
                f(i, item);
            });
        }
    });
}

/// Applies `f` to every item (see [`par_for_each_mut`]), preserving order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    par_for_each_mut(&mut slots, 1, |i, slot| *slot = Some(f(&items[i])));
    slots
        .into_iter()
        .map(|s| s.expect("every slot written"))
        .collect()
}

/// Splits `items` into at most `parts` contiguous chunks whose lengths
/// differ by at most one, dropping empty tails. Every item appears exactly
/// once, in order, so folding the chunks reproduces a serial pass exactly
/// for any order-insensitive accumulation.
pub fn split_chunks<T>(items: &[T], parts: usize) -> Vec<&[T]> {
    let parts = parts.max(1).min(items.len().max(1));
    let base = items.len() / parts;
    let extra = items.len() % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        if len == 0 {
            break;
        }
        out.push(&items[start..start + len]);
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<u32> = vec![];
        assert!(par_map(&none, |&x| x).is_empty());
        assert_eq!(par_map(&[7], |&x| x + 1), vec![8]);
    }

    #[test]
    fn uneven_work_balances() {
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(&items, |&x| {
            // Simulate uneven costs.
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i);
            }
            acc.wrapping_add(x)
        });
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn for_each_mut_visits_every_item_once_with_its_index() {
        for len in [0usize, 1, 2, 3, 17, 256] {
            for min_per_thread in [0, 1, 2, 100] {
                let mut items = vec![0usize; len];
                par_for_each_mut(&mut items, min_per_thread, |i, item| *item += i + 1);
                assert_eq!(items, (1..=len).collect::<Vec<_>>(), "len = {len}");
            }
        }
    }

    #[test]
    fn chunks_cover_in_order_and_balance() {
        let items: Vec<u32> = (0..13).collect();
        for parts in 1..=15 {
            let chunks = split_chunks(&items, parts);
            assert!(chunks.len() <= parts);
            assert!(chunks.iter().all(|c| !c.is_empty()));
            let flat: Vec<u32> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
            assert_eq!(flat, items, "parts = {parts}");
            let (min, max) = (
                chunks.iter().map(|c| c.len()).min().unwrap(),
                chunks.iter().map(|c| c.len()).max().unwrap(),
            );
            assert!(max - min <= 1, "unbalanced at parts = {parts}");
        }
    }

    #[test]
    fn chunks_of_empty_slice() {
        let none: Vec<u8> = vec![];
        assert!(split_chunks(&none, 4).is_empty());
    }
}
