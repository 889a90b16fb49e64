//! The worker pool behind `privmdr_util::par`: panics reach the caller
//! and leave the pool usable, nested and concurrent calls complete with
//! exact results, and a call never uses more threads than it asked for.
//!
//! Every test holds [`exclusive`] so that no other test of this binary
//! owns the pool meanwhile: the interleavings below are forced with
//! barriers, and a barrier inside `f` needs the pool's worker to join.

use privmdr_util::par::{par_for_each_mut, par_map};
use std::collections::HashSet;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::thread::{self, ThreadId};

fn exclusive() -> MutexGuard<'static, ()> {
    static POOL_USERS: Mutex<()> = Mutex::new(());
    POOL_USERS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn parallelism() -> usize {
    thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Runs 16 items on two participants, the caller and one worker, both
/// held at a barrier on their first item; the participant for which
/// `panics_on(is_caller)` holds then panics. Returns the re-raised
/// message and how many of the other 15 items ran.
fn run_with_panic_on(panics_on: impl Fn(bool) -> bool + Sync) -> (String, usize) {
    let caller = thread::current().id();
    let both_in = Barrier::new(2);
    let visited = AtomicUsize::new(0);
    let mut items = vec![0u8; 16];
    let outcome = panic::catch_unwind(panic::AssertUnwindSafe(|| {
        par_for_each_mut(&mut items, 8, |i, _| {
            if i < 2 {
                both_in.wait();
                let is_caller = thread::current().id() == caller;
                if panics_on(is_caller) {
                    panic!(
                        "item failed on the {}",
                        if is_caller { "caller" } else { "worker" }
                    );
                }
            }
            visited.fetch_add(1, Ordering::Relaxed);
        })
    }));
    let payload = outcome.expect_err("the item's panic reaches the caller");
    (panic_message(&*payload), visited.into_inner())
}

#[test]
fn a_panicking_item_reraises_on_the_caller_and_the_pool_recovers() {
    let _pool = exclusive();
    if parallelism() < 2 {
        return;
    }
    for round in 0..20 {
        let (message, visited) = run_with_panic_on(|is_caller| !is_caller);
        assert_eq!(message, "item failed on the worker", "round {round}");
        assert_eq!(visited, 15, "the caller drains the worker's share");

        let (message, visited) = run_with_panic_on(|is_caller| is_caller);
        assert_eq!(message, "item failed on the caller", "round {round}");
        assert_eq!(visited, 15, "the worker drains the caller's share");

        let mut items = vec![0usize; 16];
        par_for_each_mut(&mut items, 1, |i, item| *item += i + 1);
        assert_eq!(items, (1..=16).collect::<Vec<_>>(), "round {round}");
    }
}

#[test]
fn a_nested_call_completes() {
    let _pool = exclusive();
    let outer: Vec<u64> = (0..16).collect();
    let sums = par_map(&outer, |&x| {
        let inner: Vec<u64> = (0..100).collect();
        par_map(&inner, |&y| x * y).iter().sum::<u64>()
    });
    assert_eq!(sums, outer.iter().map(|x| x * 4950).collect::<Vec<_>>());
}

#[test]
fn concurrent_callers_both_get_complete_in_order_results() {
    let _pool = exclusive();
    for round in 0..50u64 {
        let start = Arc::new(Barrier::new(2));
        let callers: Vec<_> = (1..=2u64)
            .map(|k| {
                let start = Arc::clone(&start);
                thread::spawn(move || {
                    let items: Vec<u64> = (0..1000).collect();
                    start.wait();
                    (k, par_map(&items, |&x| x * k + round))
                })
            })
            .collect();
        for caller in callers {
            let (k, out) = caller.join().expect("caller completes");
            assert_eq!(
                out,
                (0..1000).map(|x| x * k + round).collect::<Vec<_>>(),
                "caller {k}, round {round}"
            );
        }
    }
}

#[test]
fn participants_never_exceed_the_requested_width() {
    let _pool = exclusive();
    let caller = thread::current().id();
    for len in [0usize, 1, 2, 3, 5, 8, 64, 1000] {
        for min_per_thread in [1usize, 2, 3, 100] {
            let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
            let mut items = vec![0u64; len];
            par_for_each_mut(&mut items, min_per_thread, |i, item| {
                seen.lock().unwrap().insert(thread::current().id());
                *item = i as u64;
            });
            let seen = seen.into_inner().unwrap();
            let width = parallelism().min(len / min_per_thread);
            assert!(
                seen.len() <= width.max(usize::from(len > 0)),
                "len {len}, min_per_thread {min_per_thread}: {} threads",
                seen.len()
            );
            if width <= 1 {
                assert!(
                    seen.iter().all(|&t| t == caller),
                    "a serial call stays inline"
                );
            }
        }
    }
}
