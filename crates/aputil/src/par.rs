//! Ordered fan-out of independent work across host threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Host threads available to this process (1 when it cannot be told).
/// Queried once per process: `available_parallelism` re-reads the cgroup
/// files on every call, and a job server asks once per job.
pub fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Applies `f` to every item on up to `threads` workers (clamped to
/// `[1, items.len()]`) and returns the results in item order, whatever
/// order the workers finished in — so output built from them is
/// identical for any thread count. With one worker (one thread, or at
/// most one item) `f` runs on the calling thread and no thread is
/// spawned; otherwise scoped threads pull the next index from one shared
/// cursor. A panic in `f` propagates to the caller.
pub fn par_map_ordered<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = threads.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    // Relaxed: the cursor only hands out indices; results travel through
    // the join below.
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, f(item)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order_for_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|i| i * i).collect();
        // 64 threads for 37 items: more workers than work.
        for threads in [0, 1, 2, 8, 64] {
            let got = par_map_ordered(&items, threads, |i| i * i);
            assert_eq!(got, expect, "{threads} threads");
        }
        assert!(par_map_ordered(&[] as &[u64], 4, |i| *i).is_empty());
    }

    #[test]
    #[should_panic(expected = "item 3 is cursed")]
    fn a_worker_panic_reaches_the_caller() {
        par_map_ordered(&[1, 2, 3, 4], 2, |&i| assert!(i != 3, "item 3 is cursed"));
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let items: Vec<u64> = (0..5).collect();
        // One thread for many items, and many threads for one item.
        for (items, threads) in [(&items[..], 1), (&items[..1], 8)] {
            let got = par_map_ordered(items, threads, |&i| (i, std::thread::current().id()));
            assert_eq!(got.iter().map(|&(i, _)| i).collect::<Vec<_>>(), items);
            assert!(got.iter().all(|&(_, id)| id == caller), "{threads} threads");
        }
    }

    #[test]
    fn an_inline_panic_keeps_its_payload() {
        #[derive(Debug, PartialEq)]
        struct Cursed(u64);
        let payload = std::panic::catch_unwind(|| {
            par_map_ordered(&[1, 2, 3], 1, |&i| {
                if i == 2 {
                    std::panic::panic_any(Cursed(i));
                }
                i
            })
        })
        .unwrap_err();
        assert_eq!(payload.downcast_ref::<Cursed>(), Some(&Cursed(2)));
    }

    #[test]
    fn available_threads_is_stable_across_calls() {
        let n = available_threads();
        assert!(n >= 1);
        assert!((0..3).all(|_| available_threads() == n));
    }
}
