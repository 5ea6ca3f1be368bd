//! Deterministic data parallelism on scoped OS threads.
//!
//! The helpers here split work into contiguous chunks, one per worker, and
//! reassemble results in input order. Because every item's result depends
//! only on that item (per-worker scratch state is fully overwritten before
//! use), output is bitwise-identical regardless of the worker count —
//! including the single-threaded fallback.
//!
//! The CPU count that sets the worker count is read once per process
//! (see [`workers_for`]); after that, a call into this crate makes a
//! syscall only when it spawns threads.

use std::sync::OnceLock;

/// Number of workers to use for a task of `n` independent items: the
/// CPU count, capped at `n`, and at least 1.
///
/// The CPU count is `available_parallelism()` at the first call; every
/// later call reuses it, because asking makes several syscalls (the
/// affinity mask, and file reads for the cgroup CPU quota) that cost
/// more than a small batch's arithmetic. A process whose CPU affinity or
/// cgroup quota changes after that first call keeps splitting work by
/// the first count. The count only sets the chunking, never a result.
pub fn workers_for(n: usize) -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    let cpus = *CPUS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    });
    cpus.min(n).max(1)
}

/// Maps `items` to results in parallel, in input order, giving each worker
/// its own scratch state built by `init`.
///
/// `f` must fully overwrite whatever scratch it reads, so that a result
/// never depends on which items a worker handled earlier; that makes the
/// output independent of the chunking and of `workers`.
pub fn par_map_init<T, S, U>(
    items: Vec<T>,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, T) -> U + Sync,
) -> Vec<U>
where
    T: Send,
    U: Send,
{
    let n = items.len();
    let workers = workers_for(n);
    if workers <= 1 {
        let mut state = init();
        return items.into_iter().map(|item| f(&mut state, item)).collect();
    }
    let chunk_len = n.div_ceil(workers);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(workers);
    let mut iter = items.into_iter();
    loop {
        let chunk: Vec<T> = iter.by_ref().take(chunk_len).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    let mut slots: Vec<Option<Vec<U>>> = (0..chunks.len()).map(|_| None).collect();
    let init = &init;
    let f = &f;
    std::thread::scope(|scope| {
        for (slot, chunk) in slots.iter_mut().zip(chunks) {
            scope.spawn(move || {
                let mut state = init();
                *slot = Some(chunk.into_iter().map(|item| f(&mut state, item)).collect());
            });
        }
    });
    slots
        .into_iter()
        .flat_map(|slot| slot.expect("par worker panicked"))
        .collect()
}

/// Maps `items` to results in parallel, in input order (stateless workers).
pub fn par_map<T, U>(items: Vec<T>, f: impl Fn(T) -> U + Sync) -> Vec<U>
where
    T: Send,
    U: Send,
{
    par_map_init(items, || (), |(), item| f(item))
}

/// Splits `out` into contiguous chunks of at most `chunk_rows` items and
/// processes them in parallel; `f` receives each chunk's starting offset
/// and the mutable chunk. Used for row-chunked batch inference writing
/// straight into the output buffer.
pub fn par_chunks_mut<U: Send>(
    out: &mut [U],
    chunk_rows: usize,
    f: impl Fn(usize, &mut [U]) + Sync,
) {
    assert!(
        chunk_rows > 0,
        "par_chunks_mut: chunk_rows must be positive"
    );
    if out.len() <= chunk_rows {
        f(0, out);
        return;
    }
    let f = &f;
    std::thread::scope(|scope| {
        for (i, chunk) in out.chunks_mut(chunk_rows).enumerate() {
            scope.spawn(move || f(i * chunk_rows, chunk));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_results() {
        let squares = par_map((0..1000usize).collect(), |i| i * i);
        assert_eq!(squares.len(), 1000);
        for (i, &s) in squares.iter().enumerate() {
            assert_eq!(s, i * i);
        }
    }

    #[test]
    fn empty_and_single() {
        assert!(par_map(Vec::<usize>::new(), |i| i).is_empty());
        assert_eq!(par_map(vec![7usize], |i| i + 1), vec![8]);
    }

    #[test]
    fn per_worker_state_is_reused_not_shared() {
        // Each worker's scratch buffer is overwritten per item, so results
        // match the serial computation exactly.
        let items: Vec<usize> = (0..257).collect();
        let got = par_map_init(
            items.clone(),
            || vec![0.0f64; 8],
            |buf, i| {
                for (k, b) in buf.iter_mut().enumerate() {
                    *b = (i + k) as f64;
                }
                buf.iter().sum::<f64>()
            },
        );
        let want: Vec<f64> = items
            .iter()
            .map(|&i| (0..8).map(|k| (i + k) as f64).sum())
            .collect();
        assert_eq!(got, want);
    }

    /// This thread's `read` syscall count (`syscr` in
    /// `/proc/thread-self/io`).
    #[cfg(target_os = "linux")]
    fn thread_reads() -> u64 {
        let io = std::fs::read_to_string("/proc/thread-self/io").unwrap();
        io.lines()
            .find_map(|l| l.strip_prefix("syscr:"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn workers_for_reads_the_cpu_count_once() {
        let cpus = workers_for(usize::MAX);
        let before = thread_reads();
        let empty = thread_reads() - before;
        let before = thread_reads();
        for n in 0..1000 {
            assert_eq!(workers_for(n), cpus.min(n).max(1));
        }
        let rose = thread_reads() - before;
        assert!(
            rose <= empty,
            "1000 calls made {rose} reads; an empty bracket makes {empty}"
        );
    }

    #[test]
    fn chunks_mut_writes_disjoint_ranges() {
        let mut out = vec![0usize; 103];
        par_chunks_mut(&mut out, 10, |start, chunk| {
            for (j, o) in chunk.iter_mut().enumerate() {
                *o = start + j;
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i);
        }
    }

    #[test]
    fn chunks_mut_small_input_stays_serial() {
        let mut out = vec![1usize; 4];
        par_chunks_mut(&mut out, 100, |start, chunk| {
            assert_eq!(start, 0);
            for o in chunk.iter_mut() {
                *o = 9;
            }
        });
        assert_eq!(out, vec![9; 4]);
    }
}
