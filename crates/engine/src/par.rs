//! Scoped-thread parallel map for experiment sweeps.
//!
//! One coherence simulation is inherently sequential (events are causally
//! ordered), but the evaluation runs dozens of independent simulations
//! (protocol × workload × placement). `par_map_with_threads` fans those
//! out over host cores with plain `std::thread::scope` — no work stealing
//! is needed because tasks are few and long, and a simple atomic cursor
//! balances unequal run times.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A panic caught while mapping one item: the payload rendered to a
/// string (`&str` / `String` payloads verbatim, anything else a generic
/// marker). Other items are unaffected — sibling workers drain the
/// remaining work normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemPanic {
    /// Rendered panic payload.
    pub message: String,
}

impl std::fmt::Display for ItemPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker panicked: {}", self.message)
    }
}

impl std::error::Error for ItemPanic {}

/// Renders a caught panic payload to a string: `&str` / `String`
/// payloads verbatim, anything else a generic marker. Shared by every
/// `catch_unwind` site that turns panics into typed errors.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Applies `f` to every element of `items` on `threads` workers (≥ 1,
/// capped by the number of items) and returns the results in input
/// order. `f` must be `Sync` (it is shared by reference across worker
/// threads).
///
/// A panic inside `f` no longer poisons the whole map: every other item
/// still completes, and the first panic is re-raised only after all
/// workers have drained. Callers that want the panic as data instead use
/// [`try_par_map_with_threads`].
pub fn par_map_with_threads<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let results = try_par_map_with_threads(items, threads, f);
    let mut out = Vec::with_capacity(results.len());
    let mut first_panic: Option<ItemPanic> = None;
    for r in results {
        match r {
            Ok(v) => out.push(v),
            Err(p) => {
                if first_panic.is_none() {
                    first_panic = Some(p);
                }
            }
        }
    }
    if let Some(p) = first_panic {
        panic::panic_any(p.message);
    }
    out
}

/// As [`par_map_with_threads`], but a panic in `f` is caught per item
/// and surfaced as `Err(ItemPanic)` in that item's slot while sibling
/// workers keep draining the queue. Results stay in input order.
pub fn try_par_map_with_threads<T, R, F>(
    items: &[T],
    threads: usize,
    f: F,
) -> Vec<Result<R, ItemPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let run_one = |item: &T| -> Result<R, ItemPanic> {
        panic::catch_unwind(AssertUnwindSafe(|| f(item)))
            .map_err(|payload| ItemPanic { message: panic_message(payload) })
    };
    let threads = threads.max(1).min(n);
    if threads == 1 {
        return items.iter().map(run_one).collect();
    }

    let cursor = AtomicUsize::new(0);
    // Each worker collects into its own vector; the results are merged
    // into pre-sized slots after the joins — no lock on the result path.
    let per_worker: Vec<Vec<(usize, Result<R, ItemPanic>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::with_capacity(n / threads + 1);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, run_one(&items[i])));
                    }
                    local
                })
            })
            .collect();
        // Workers never unwind (every panic is caught per item), so the
        // joins cannot fail and every sibling drains to completion.
        handles.into_iter().map(|h| h.join().expect("worker thread itself panicked")).collect()
    });

    let mut results: Vec<Option<Result<R, ItemPanic>>> = (0..n).map(|_| None).collect();
    for local in per_worker {
        for (i, r) in local {
            debug_assert!(results[i].is_none());
            results[i] = Some(r);
        }
    }
    results.into_iter().map(|r| r.expect("worker filled every slot")).collect()
}

/// Host parallelism (≥ 1).
pub fn num_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let input: Vec<u64> = (0..100).collect();
        let out = par_map_with_threads(&input, num_threads(), |&x| x * x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
    }

    #[test]
    fn empty_input() {
        let input: Vec<u32> = vec![];
        let out: Vec<u32> = par_map_with_threads(&input, 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_path() {
        let input: Vec<u32> = (0..10).collect();
        let out = par_map_with_threads(&input, 1, |&x| x + 1);
        assert_eq!(out, (1..11).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_items() {
        let input = vec![1u32, 2, 3];
        let out = par_map_with_threads(&input, 64, |&x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn panicking_item_does_not_poison_siblings() {
        let input: Vec<u32> = (0..16).collect();
        let out = try_par_map_with_threads(&input, 4, |&x| {
            if x == 7 {
                panic!("deliberate panic on item {x}");
            }
            x * 2
        });
        assert_eq!(out.len(), 16);
        for (i, r) in out.iter().enumerate() {
            if i == 7 {
                let p = r.as_ref().unwrap_err();
                assert!(p.message.contains("deliberate panic on item 7"), "{}", p.message);
            } else {
                assert_eq!(*r.as_ref().unwrap(), (i as u32) * 2);
            }
        }
    }

    #[test]
    fn panic_reraised_after_drain_in_strict_map() {
        let input: Vec<u32> = (0..8).collect();
        let finished = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_map_with_threads(&input, 2, |&x| {
                if x == 3 {
                    panic!("strict map panic");
                }
                finished.fetch_add(1, Ordering::Relaxed);
                x
            })
        }));
        assert!(caught.is_err());
        // Every non-panicking sibling still ran to completion.
        assert_eq!(finished.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn non_string_payload_rendered_generically() {
        let input = vec![0u32];
        let out = try_par_map_with_threads(&input, 1, |_| {
            std::panic::panic_any(42u32);
            #[allow(unreachable_code)]
            0u32
        });
        assert_eq!(out[0].as_ref().unwrap_err().message, "<non-string panic payload>");
    }

    #[test]
    fn unbalanced_work_completes() {
        let input: Vec<u64> = (0..32).collect();
        let out = par_map_with_threads(&input, 4, |&x| {
            // Uneven busy work.
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i);
            }
            acc ^ x
        });
        assert_eq!(out.len(), 32);
    }
}
