//! Small parallel-map helper for running independent simulations on all
//! available cores.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker count for [`parallel_map`]: the `MPPM_THREADS` environment
/// variable if set to a positive integer, otherwise the machine's
/// available parallelism. The override exists so determinism tests can
/// pin the worker count (1 vs N must be bit-identical) and so benchmark
/// runs can be isolated from background load.
pub fn worker_threads() -> usize {
    // mppm-lint: allow(taint-nondet-to-result): worker count steers scheduling only; the 1-vs-N byte-identity tests prove results never depend on it
    if let Ok(v) = std::env::var("MPPM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
        eprintln!("  [runner] ignoring invalid MPPM_THREADS={v:?}");
    }
    // mppm-lint: allow(taint-nondet-to-result): parallelism picks the worker count, not the answer; 1-vs-N runs are proven byte-identical
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Applies `f` to every item, using [`worker_threads`] workers, and returns
/// the outputs in input order. Progress is printed to stderr every few
/// completions because detailed simulations take seconds to minutes each.
pub fn parallel_map<T, U, F>(label: &str, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    parallel_map_with(label, items, || (), |(), item| f(item))
}

/// [`parallel_map`] with per-worker scratch state: `init` runs once per
/// worker thread and the resulting state is lent to every `f` call that
/// worker executes. Campaign shards use this to hand each worker its own
/// [`mppm::SolverScratch`] / `SimArena`, so warm pools persist across the
/// items a worker processes without any cross-thread sharing. Output
/// order (and, for deterministic `f`, output values) are independent of
/// the worker count — state is scratch, not an accumulator.
pub fn parallel_map_with<T, S, U, I, F>(label: &str, items: &[T], init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> U + Sync,
{
    let threads = worker_threads();
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let total = items.len();
    // Each worker claims items one at a time and returns its
    // `(index, output)` pairs when the queue runs dry.
    let worker = || {
        let mut state = init();
        let mut outputs = Vec::new();
        loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            if idx >= total {
                break;
            }
            outputs.push((idx, f(&mut state, &items[idx])));
            let d = done.fetch_add(1, Ordering::Relaxed) + 1;
            if d.is_multiple_of(10) || d == total {
                eprintln!("  [{label}] {d}/{total}");
            }
        }
        outputs
    };
    let mut slots: Vec<Option<U>> = (0..total).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> =
            (0..threads.min(total.max(1))).map(|_| scope.spawn(worker)).collect();
        for handle in workers {
            let outputs = handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (idx, out) in outputs {
                slots[idx] = Some(out);
            }
        }
    });
    slots.into_iter().map(|s| s.expect("every slot was filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map("test", &items, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = parallel_map("test", &Vec::<u32>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn worker_threads_is_positive() {
        assert!(worker_threads() >= 1);
    }

    #[test]
    fn per_worker_state_is_reused_not_shared() {
        // Each worker counts how many items it processed in its own
        // state; the per-item outputs must still be order-preserving and
        // worker-count-independent, and the counts must sum to the total.
        let items: Vec<usize> = (0..64).collect();
        let counts = Mutex::new(Vec::new());
        struct Tally<'a>(u64, &'a Mutex<Vec<u64>>);
        impl Drop for Tally<'_> {
            fn drop(&mut self) {
                self.1.lock().unwrap().push(self.0);
            }
        }
        let out = parallel_map_with(
            "test",
            &items,
            || Tally(0, &counts),
            |t, &x| {
                t.0 += 1;
                x * 3
            },
        );
        assert_eq!(out, (0..64).map(|x| x * 3).collect::<Vec<_>>());
        let total = counts.lock().unwrap().iter().sum::<u64>();
        assert_eq!(total, 64, "every item ran with some state");
    }

    #[test]
    #[should_panic(expected = "item 7 fails")]
    fn a_panicking_worker_panics_the_caller() {
        let items: Vec<usize> = (0..16).collect();
        parallel_map("test", &items, |&x| {
            assert!(x != 7, "item 7 fails");
            x
        });
    }

    #[test]
    fn heavyish_work() {
        let items: Vec<u64> = (0..32).collect();
        let out = parallel_map("test", &items, |&x| (0..10_000u64).map(|i| i ^ x).sum::<u64>());
        assert_eq!(out.len(), 32);
        // Deterministic regardless of scheduling.
        let serial: Vec<u64> =
            items.iter().map(|&x| (0..10_000u64).map(|i| i ^ x).sum::<u64>()).collect();
        assert_eq!(out, serial);
    }
}
