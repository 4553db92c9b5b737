//! Scoped-thread data parallelism: the std-only replacement for the three
//! `rayon` patterns the workspace used (`par_chunks_mut`, parallel row
//! loops, and `into_par_iter().map().collect()`).
//!
//! Workers are `std::thread::scope` threads pulling coarse work items from a
//! shared queue, so borrowed (non-`'static`) data flows into kernels exactly
//! as it did with rayon scopes. Threads are spawned per call — 75–90 µs for
//! two workers on the reference host — so a caller on a hot path must gate
//! the call on the work it hands over. Where each gate lives:
//!
//! * `nnp/matrix.rs`: `PAR_ROW_THRESHOLD` rows before a training matmul
//!   forks;
//! * `operators/stages.rs`: `BIGFUSION_PAR_MIN_FLOPS` of kernel work before
//!   `stage5_bigfusion` spreads its tiles (below it [`max_threads`] is not
//!   even asked);
//! * `core/engine.rs`: `PAR_GATHER_MIN_CHUNK` stale systems before the
//!   refresh fans VET gathers out, `PAR_REFRESH_MIN_BATCH` before the
//!   per-system arm fans evaluations out over `refresh_threads`.
//!
//! `NnpDirectEvaluator` builds features on the calling thread and does not
//! call this module. The one ungated caller is `sunway::CoreGroup`, where a
//! launch *is* the modelled event (one kernel on the simulated CPE mesh)
//! and which no production host path runs.

use std::num::NonZeroUsize;
use std::sync::Mutex;

/// Worker threads to use: the host's available parallelism, overridable with
/// `TENSORKMC_THREADS` (handy for the scaling benchmarks and for forcing
/// deterministic single-thread runs).
pub fn max_threads() -> usize {
    if let Ok(v) = std::env::var("TENSORKMC_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Applies `f(chunk_index, chunk)` to every `chunk_size` slice of `data` in
/// parallel (the `par_chunks_mut(..).enumerate().for_each(..)` shape).
///
/// The final chunk may be shorter. Runs inline when a single worker would do.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_size: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    par_chunks_mut_threads(max_threads(), data, chunk_size, f);
}

/// [`par_chunks_mut`] with an explicit worker cap instead of the
/// process-wide [`max_threads`]. `threads ≤ 1` runs inline; the cap is
/// additionally clamped to the chunk count.
pub fn par_chunks_mut_threads<T, F>(threads: usize, data: &mut [T], chunk_size: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let n_chunks = data.len().div_ceil(chunk_size);
    let workers = threads.min(n_chunks);
    if workers <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_size).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let queue = Mutex::new(data.chunks_mut(chunk_size).enumerate());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let item = queue.lock().expect("queue poisoned").next();
                match item {
                    Some((i, chunk)) => f(i, chunk),
                    None => break,
                }
            });
        }
    });
}

/// Evaluates `f(0), f(1), …, f(n-1)` in parallel and collects the results in
/// index order (the `(0..n).into_par_iter().map(f).collect()` shape).
pub fn par_map_collect<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_collect_threads(max_threads(), n, f)
}

/// [`par_map_collect`] with an explicit worker cap instead of the
/// process-wide [`max_threads`] — for callers with their own thread knob
/// (e.g. the KMC engine's `refresh_threads`). `threads ≤ 1` runs inline;
/// the cap is additionally clamped to `n`.
pub fn par_map_collect_threads<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    {
        let queue = Mutex::new(out.iter_mut().enumerate());
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let item = queue.lock().expect("queue poisoned").next();
                    match item {
                        Some((i, slot)) => *slot = Some(f(i)),
                        None => break,
                    }
                });
            }
        });
    }
    out.into_iter()
        .map(|slot| slot.expect("worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunks_cover_everything_once() {
        let mut data: Vec<u64> = vec![0; 1003]; // deliberately not a multiple
        par_chunks_mut(&mut data, 64, |i, chunk| {
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = (i * 64 + j) as u64 + 1;
            }
        });
        for (k, &x) in data.iter().enumerate() {
            assert_eq!(x, k as u64 + 1);
        }
    }

    #[test]
    fn chunk_indices_are_exhaustive() {
        let mut data = vec![0u8; 257];
        let seen = Mutex::new(HashSet::new());
        par_chunks_mut(&mut data, 16, |i, _| {
            assert!(seen.lock().unwrap().insert(i), "chunk {i} visited twice");
        });
        assert_eq!(seen.lock().unwrap().len(), 17);
    }

    #[test]
    fn map_collect_preserves_order() {
        let calls = AtomicUsize::new(0);
        let out = par_map_collect(100, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i * i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let mut empty: Vec<u32> = vec![];
        par_chunks_mut(&mut empty, 8, |_, _| panic!("no chunks expected"));
        assert!(par_map_collect(0, |i| i).is_empty());
        assert_eq!(par_map_collect(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn explicit_thread_cap_matches_inline_results() {
        for threads in [0, 1, 2, 4, 9] {
            let out = par_map_collect_threads(threads, 50, |i| i * 3);
            assert_eq!(out, (0..50).map(|i| i * 3).collect::<Vec<_>>(), "{threads}");
        }
        assert!(par_map_collect_threads(4, 0, |i| i).is_empty());
    }

    #[test]
    fn explicit_thread_cap_actually_limits_concurrency() {
        use std::sync::atomic::AtomicIsize;
        let live = AtomicIsize::new(0);
        let peak = AtomicIsize::new(0);
        par_map_collect_threads(2, 64, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn kernels_borrow_stack_data() {
        let weights: Vec<f64> = (0..32).map(f64::from).collect();
        let sums = par_map_collect(4, |i| weights[i * 8..(i + 1) * 8].iter().sum::<f64>());
        assert_eq!(sums.iter().sum::<f64>(), (0..32).map(f64::from).sum());
    }
}
