//! The pool starts its workers once, on the first call that fans out, and
//! never spawns again. Counted from the kernel's view of the process
//! (`Threads:` in `/proc/self/status`), so this binary holds exactly one
//! test: nothing else may start threads while it counts.

#![cfg(target_os = "linux")]

use privmdr_util::par::{par_for_each_mut, par_map};

fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("status has a Threads: line")
}

fn fan_out() {
    let items: Vec<u64> = (0..64).collect();
    let out = par_map(&items, |&x| x + 1);
    assert_eq!(out, (1..=64).collect::<Vec<_>>());
}

#[test]
fn the_pool_starts_once_on_the_first_fan_out() {
    let parallelism = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    let before = os_threads();

    // Serial calls: one item, or too few items per thread.
    assert_eq!(par_map(&[1u8], |&x| x), vec![1]);
    let mut items = vec![0u32; 8];
    par_for_each_mut(&mut items, 8, |i, item| *item = i as u32);
    assert_eq!(os_threads(), before, "serial calls start no thread");

    fan_out();
    let started = os_threads();
    assert_eq!(
        started - before,
        parallelism - 1,
        "the first fan-out starts available_parallelism - 1 workers"
    );

    for _ in 0..200 {
        fan_out();
    }
    assert_eq!(os_threads(), started, "later fan-outs reuse the workers");
}
