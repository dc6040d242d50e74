//! Data-parallel helpers over the persistent worker pool.
//!
//! The SGLA hot loops (SpMV over MAG-scale matrices, KNN construction,
//! reorthogonalization sweeps, blocked top-k scoring) are embarrassingly
//! parallel over rows. These helpers dispatch onto the process-wide
//! [`WorkerPool`] — parked threads woken per
//! region — instead of spawning fresh OS threads per call; chunk stealing
//! inside the pool absorbs skewed row costs. Results are identical to the
//! sequential path bit-for-bit: every index is computed independently, so
//! chunk boundaries cannot change any floating-point result. The dense
//! kernels built on them keep that contract too: the randomized SVD
//! ([`crate::svd::rsvd`]) computes every product as per-row sums (no
//! per-thread partials), so it, and the NetMF embedding built on it,
//! give the same bits at every thread count. The sequential kernels
//! remain the oracle the kernel benchmark checks the pooled ones against.

use crate::pool::WorkerPool;

/// Runs `f(start, chunk)` over contiguous chunks of `data` using up to
/// `threads` parallel workers from the global pool; `start` is the
/// chunk's offset in the original slice. Chunk boundaries are chosen by
/// the pool (atomic stealing) and carry no semantic meaning.
///
/// Runs inline when `threads <= 1` or the slice is empty.
pub fn par_chunks_mut<T: Send, F>(data: &mut [T], threads: usize, f: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = data.len();
    if n == 0 {
        return;
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        f(0, data);
        return;
    }
    WorkerPool::global().for_each_slice_chunk(data, threads, 1, f);
}

/// Runs `f(i)` for `i` in `0..count` with up to `threads` pool workers
/// and collects the results in index order.
pub fn par_map<R: Send, F>(count: usize, threads: usize, f: F) -> Vec<R>
where
    F: Fn(usize) -> R + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, count);
    if threads == 1 {
        return (0..count).map(f).collect();
    }
    let mut out: Vec<Option<R>> = Vec::with_capacity(count);
    out.resize_with(count, || None);
    par_chunks_mut(&mut out, threads, |start, slots| {
        for (off, slot) in slots.iter_mut().enumerate() {
            *slot = Some(f(start + off));
        }
    });
    out.into_iter()
        .map(|o| o.expect("pool covers every index exactly once"))
        .collect()
}

/// Number of worker threads to use by default: the `SGLA_THREADS`
/// environment variable if set, otherwise the available parallelism;
/// either way capped at 16 (the paper's experimental setup allows at
/// most 16 CPU threads). Read once and cached — the global pool is sized
/// from this value on first use.
pub fn default_threads() -> usize {
    use std::sync::OnceLock;
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        if let Some(v) = std::env::var("SGLA_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&v| v >= 1)
        {
            return v.min(16);
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(16)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_chunks_mut_covers_all_indices() {
        let mut v = vec![0usize; 103];
        par_chunks_mut(&mut v, 4, |start, chunk| {
            for (off, x) in chunk.iter_mut().enumerate() {
                *x = start + off;
            }
        });
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i);
        }
    }

    #[test]
    fn par_chunks_mut_single_thread_inline() {
        let mut v = vec![1u32; 10];
        par_chunks_mut(&mut v, 1, |_, chunk| {
            for x in chunk {
                *x += 1;
            }
        });
        assert!(v.iter().all(|&x| x == 2));
    }

    #[test]
    fn par_chunks_mut_empty() {
        let mut v: Vec<u8> = vec![];
        par_chunks_mut(&mut v, 8, |_, _| panic!("must not be called"));
    }

    #[test]
    fn par_map_order_preserved() {
        let out = par_map(57, 5, |i| i * i);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn par_map_runs_each_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = par_map(200, 8, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 200);
        assert_eq!(out.len(), 200);
    }

    #[test]
    fn par_map_panic_does_not_poison_pool() {
        let caught = std::panic::catch_unwind(|| {
            par_map(64, 4, |i| {
                if i == 13 {
                    panic!("unlucky index");
                }
                i
            })
        });
        assert!(caught.is_err());
        // The global pool must keep serving after a panicking task.
        let out = par_map(64, 4, |i| i + 1);
        assert_eq!(out.iter().sum::<usize>(), (1..=64).sum::<usize>());
    }

    #[test]
    fn default_threads_positive() {
        let t = default_threads();
        assert!((1..=16).contains(&t));
    }
}
