//! A std-only work-stealing thread pool for index-addressed fan-out.
//!
//! The vendored-stub policy keeps external crates out of the build, so
//! this is the minimal honest work-stealing scheme: each worker owns a
//! deque of job indices (dealt round-robin), pops its own work from the
//! front, and steals from the *back* of a neighbour's deque when it runs
//! dry. Because jobs never spawn jobs, a worker that finds every deque
//! empty can simply retire.
//!
//! Results are written into per-index slots, so the output order — and
//! therefore every downstream bit — is independent of which worker ran
//! which job and of the worker count.
//!
//! The host's parallelism is asked of the OS once per process
//! ([`available_threads`]), not once per fan-out: the answer reads
//! cgroup and affinity files and costs microseconds, and an advisor
//! search fans out a dozen times.

use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};

/// The hardware threads this process may run on
/// (`std::thread::available_parallelism`, 1 when the OS cannot say),
/// read on the first call and cached: a process reads its CPU set once,
/// so an affinity change after that first call is not seen (a benchmark
/// that pins itself does so before it).
pub fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Resolve a requested worker count: `0` means "as many as the host has"
/// ([`available_threads`]), and the result is clamped to the job count
/// (no idle spawn) and to 16.
pub fn effective_threads(requested: usize, jobs: usize) -> usize {
    let t = if requested == 0 {
        available_threads()
    } else {
        requested
    };
    t.clamp(1, 16).min(jobs.max(1))
}

/// Run `f(0..n)` across `threads` workers (0 = auto) and return results
/// in index order. Bit-deterministic for pure `f`: scheduling affects
/// only wall-clock, never which slot a result lands in. Every job records
/// into the trace recorder that is current where this is called.
pub fn map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = effective_threads(threads, n);
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }

    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((0..n).filter(|i| i % workers == w).collect()))
        .collect();
    // `Mutex<Option<T>>` slots rather than `OnceLock<T>`: the latter
    // would force `T: Sync` on the caller, and slots are written exactly
    // once so the lock is never contended.
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let recorder = hpf_trace::Recorder::current();

    std::thread::scope(|s| {
        for w in 0..workers {
            let queues = &queues;
            let results = &results;
            let f = &f;
            let recorder = &recorder;
            s.spawn(move || {
                let _recording = recorder.install();
                loop {
                    let job = pop_front(&queues[w]).or_else(|| {
                        (1..workers).find_map(|d| pop_back(&queues[(w + d) % workers]))
                    });
                    match job {
                        Some(i) => {
                            // A job index lives in exactly one deque and is
                            // removed under its lock, so the slot is ours.
                            let v = f(i);
                            let prev = results[i]
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .replace(v);
                            debug_assert!(prev.is_none(), "job {i} ran twice");
                        }
                        None => break,
                    }
                }
            });
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every job index was claimed")
        })
        .collect()
}

fn pop_front(q: &Mutex<VecDeque<usize>>) -> Option<usize> {
    q.lock().unwrap_or_else(|e| e.into_inner()).pop_front()
}

fn pop_back(q: &Mutex<VecDeque<usize>>) -> Option<usize> {
    q.lock().unwrap_or_else(|e| e.into_inner()).pop_back()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_index_order() {
        for threads in [1, 2, 4, 9] {
            let out = map_indexed(37, threads, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let ran = AtomicUsize::new(0);
        let out = map_indexed(100, 8, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(ran.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn uneven_costs_still_complete_via_stealing() {
        // Front-load the expensive jobs onto worker 0's deque; the others
        // must steal to finish in any reasonable time (correctness-only
        // assertion here: all results present and ordered).
        let out = map_indexed(32, 4, |i| {
            if i % 4 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i + 1
        });
        assert_eq!(out, (1..=32).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_record_into_the_callers_recorder() {
        let rec = hpf_trace::Recorder::new();
        let _on = rec.install();
        rec.enable();
        map_indexed(20, 4, |i| {
            hpf_trace::counter_add("pool.test.jobs", i as u64)
        });
        assert_eq!(rec.counter_get("pool.test.jobs"), (0..20).sum::<u64>());
    }

    #[test]
    fn zero_and_one_jobs() {
        assert_eq!(map_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed(1, 4, |i| i), vec![0]);
    }
}
