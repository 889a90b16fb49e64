//! Work distribution over one lazily started worker pool (no external
//! thread-pool crate).
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
//!
//! # The pool
//!
//! The first call that fans out — one that would use more than one
//! thread — starts `available_parallelism − 1` workers, which park on a
//! condvar between calls; a process that never fans out never starts a
//! thread. A fanning-out call publishes its claim loop to the pool, wakes
//! as many workers as it wants helpers, and runs the same claim loop
//! itself, so the calling thread is always one of the participants and a
//! call whose items it drains before any worker wakes costs little more
//! than a serial pass. No thread is spawned per call.
//!
//! The pool serves one call at a time. A call made while it is busy — from
//! another thread, or nested inside `f` — runs its items inline on its own
//! thread instead of waiting: the claim queue lets a single thread drain
//! every item, so no call can deadlock on the pool.
//!
//! The workers live as long as the process and are never joined. They
//! hold no state between calls, so there is nothing to flush at exit, and
//! no panic is hidden by that: a panic in `f` is caught on whichever
//! participant raised it and re-raised on the caller once every
//! participant has left the call, as `std::thread::scope` would.

use crate::sync::lock_unpoisoned;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, Once, OnceLock, PoisonError};

/// Applies `f(index, item)` to every item on up to `available_parallelism`
/// threads, in place, giving each thread at least `min_per_thread` items.
/// Items are claimed one at a time from a shared queue, so uneven item
/// costs (HIO vs Uni cells, pairs that converge early) balance naturally;
/// with one thread it runs inline and touches no pool.
///
/// The threads are the caller and the pool's workers (see the module
/// docs). If the pool is already serving another call, including the call
/// this one is nested in, the items run inline on the calling thread.
///
/// `min_per_thread` lets a caller keep small batches serial. Fanning out
/// has a cost beyond the call itself: the first fan-out starts the pool,
/// and the first thread a process creates moves glibc's malloc off its
/// single-thread fast path for the rest of the process's life, which
/// slowed the allocation-heavy client and one-shard serve paths of an
/// otherwise single-threaded process by 5–12% (2-CPU x86-64 host).
///
/// The function itself allocates nothing on the workers: a caller that
/// allocates the buffers `f` fills before the call keeps them out of the
/// workers' per-thread malloc arenas, which would otherwise grow the
/// process's resident memory.
///
/// # Panics
///
/// If `f` panics, the other participants, if any, still claim the
/// remaining items, and the panic is re-raised on the caller once every
/// participant has left the call (the caller's own panic, if it had one).
pub fn par_for_each_mut<T: Send>(
    items: &mut [T],
    min_per_thread: usize,
    f: impl Fn(usize, &mut T) + Sync,
) {
    let threads = parallelism().min(items.len() / min_per_thread.max(1));
    if threads <= 1 {
        items
            .iter_mut()
            .enumerate()
            .for_each(|(i, item)| f(i, item));
        return;
    }
    let queue = Mutex::new(items.iter_mut().enumerate());
    POOL.run(threads - 1, &|| loop {
        // A panicking `f` never holds the lock, so the queue cannot be
        // poisoned mid-claim; the panic unwinds out of `Pool::run`.
        let next = queue
            .lock()
            .expect("no participant panics while holding the queue lock")
            .next();
        let Some((i, item)) = next else {
            break;
        };
        f(i, item);
    });
}

/// `available_parallelism`, read once per process: on Linux the query
/// reads the cgroup CPU-limit files, and the pool's width is fixed when it
/// starts anyway.
fn parallelism() -> usize {
    static PARALLELISM: OnceLock<usize> = OnceLock::new();
    *PARALLELISM.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
    })
}

/// One call's claim loop, as the workers see it (lifetime erased by
/// [`Pool::run`]).
type Job = &'static (dyn Fn() + Sync);

/// The process-wide pool.
static POOL: Pool = Pool {
    started: Once::new(),
    state: Mutex::new(State {
        job: None,
        invited: 0,
        active: 0,
        panic: None,
    }),
    wake: Condvar::new(),
    idle: Condvar::new(),
};

struct Pool {
    /// Guards the one-time start of the workers.
    started: Once,
    state: Mutex<State>,
    /// Signals the workers that the owning call invited helpers.
    wake: Condvar,
    /// Signals the owning call that the last worker left its job.
    idle: Condvar,
}

struct State {
    /// The owning call's claim loop; `Some` exactly while a call owns the
    /// pool.
    job: Option<Job>,
    /// Workers the owning call still invites to join its job.
    invited: usize,
    /// Workers currently inside the job.
    active: usize,
    /// The first panic a worker caught in the owning call's job.
    panic: Option<Box<dyn Any + Send>>,
}

impl Pool {
    /// Runs `job` on the calling thread and on up to `helpers` workers,
    /// starting the workers on first use, and returns once every
    /// participant has left it; re-raises the caller's own panic, else the
    /// first worker panic. If another call owns the pool, `job` runs on
    /// the calling thread alone.
    fn run(&'static self, helpers: usize, job: &(dyn Fn() + Sync)) {
        self.started.call_once(|| {
            for i in 1..parallelism() {
                // A worker that fails to spawn only narrows the pool: an
                // invitation nobody accepts is withdrawn once the caller
                // has drained the queue itself.
                let _ = std::thread::Builder::new()
                    .name(format!("privmdr-par-{i}"))
                    .spawn(|| self.work());
            }
        });
        {
            let mut state = lock_unpoisoned(&self.state);
            if state.job.is_some() {
                drop(state);
                return job();
            }
            // SAFETY: the erased borrow is reachable only through
            // `State::job`, and a worker takes it from there only while
            // counted in `State::active`. This function cannot return or
            // unwind while any participant is still inside the job: its
            // own share runs under `catch_unwind`, it then withdraws the
            // invitation, waits for `active` to reach zero and clears
            // `State::job`, and only after that resumes any panic. No use
            // of `job` outlives the borrow.
            state.job = Some(unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(job) });
            state.invited = helpers;
        }
        for _ in 0..helpers {
            self.wake.notify_one();
        }
        let own = panic::catch_unwind(AssertUnwindSafe(job));
        let worker_panic = {
            let mut state = lock_unpoisoned(&self.state);
            state.invited = 0;
            while state.active > 0 {
                state = self
                    .idle
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            state.job = None;
            state.panic.take()
        };
        if let Err(payload) = own {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            panic::resume_unwind(payload);
        }
    }

    /// A worker's life: park until invited, run the job, report back.
    fn work(&self) {
        let mut state = lock_unpoisoned(&self.state);
        loop {
            while state.invited == 0 {
                state = self
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            state.invited -= 1;
            state.active += 1;
            let job = state.job.expect("an invitation comes with a job");
            drop(state);
            let result = panic::catch_unwind(AssertUnwindSafe(job));
            state = lock_unpoisoned(&self.state);
            state.active -= 1;
            if let Err(payload) = result {
                state.panic.get_or_insert(payload);
            }
            if state.active == 0 {
                self.idle.notify_one();
            }
        }
    }
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
