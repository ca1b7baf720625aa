//! The pipeline's deterministic fan-out primitive.
//!
//! Every parallel stage — phase A's contained activations, phase B's
//! restricted sessions, the prober's per-day rounds, the reduce's
//! liveness probes, and the day-epoch pool itself (whole contiguous
//! day-ranges run as `EpochRun` units, nesting their own per-sample
//! fan-outs inside; see DESIGN.md §8a) — shares the same scheduling
//! discipline: worker threads pull item indices from a shared counter,
//! each worker hands back its `(index, result)` pairs when it joins,
//! and the caller gets the results in item order. The *completion*
//! order is scheduling-dependent; the returned order never is — which
//! is the first leg of the byte-determinism argument in DESIGN.md §8
//! (the second leg is that `run` itself must be a pure function of the
//! item).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `run(i)` for every `i in 0..count` over at most `workers` OS
/// threads and return the results in item order.
///
/// `workers <= 1` (or a single item) is the plain sequential loop —
/// byte-identical to the fan-out by construction, and the path the
/// determinism differentials compare against. `run` is shared by
/// reference across threads, so it must be `Sync`. A panic inside `run`
/// propagates with its own payload, as it would from the sequential
/// loop; callers that need containment wrap `run` in `catch_unwind`, as
/// phase A does.
pub(crate) fn fan_out<R, F>(count: usize, workers: usize, run: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.max(1).min(count);
    if workers <= 1 {
        return (0..count).map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            return mine;
                        }
                        mine.push((i, run(i)));
                    }
                })
            })
            .collect();
        let mut done = Vec::with_capacity(count);
        for handle in handles {
            match handle.join() {
                Ok(mine) => done.extend(mine),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    // Every index in 0..count was claimed exactly once.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order_at_any_width() {
        let base: Vec<usize> = (0..97).map(|i| i * 3).collect();
        for workers in [1usize, 2, 7, 64] {
            let out = fan_out(97, workers, |i| i * 3);
            assert_eq!(out, base, "order broke at workers={workers}");
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u8> = fan_out(0, 8, |_| 1);
        assert!(out.is_empty());
    }

    #[test]
    fn a_worker_panic_propagates_and_the_pool_still_orders() {
        let caught = std::panic::catch_unwind(|| {
            fan_out(16, 2, |i| {
                assert_ne!(i, 5, "item 5 fails");
                i
            })
        });
        let payload = caught.expect_err("the panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(msg.contains("item 5 fails"), "{msg:?}");
        let out = fan_out(16, 2, |i| i * 2);
        assert_eq!(out, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }
}
