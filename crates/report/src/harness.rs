//! Hardened sweep harness: panic isolation, wall-clock timeouts, and
//! bounded retries for experiment jobs.
//!
//! The Table 2 sweep runs hundreds of (kernel, size, procs) configurations;
//! one panicking or wedged configuration must not take down the whole
//! campaign. Each job runs on its own worker thread behind
//! `std::panic::catch_unwind`, a watchdog enforces a wall-clock budget, and
//! transient failures are retried a bounded number of times. Failures come
//! back as data ([`JobFailure`]), never as a crash of the harness itself.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use crate::pool::map_indexed;

/// Execution limits for one isolated job.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Wall-clock budget per attempt. `None` = unlimited.
    pub timeout: Option<Duration>,
    /// Extra attempts after the first failure (panic or timeout).
    pub retries: u32,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            timeout: Some(Duration::from_secs(120)),
            retries: 1,
        }
    }
}

/// Why an isolated job did not produce a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobFailure {
    /// The job panicked; payload is the panic message.
    Panicked(String),
    /// The job exceeded its wall-clock budget.
    TimedOut,
    /// The job ran to completion but returned an error.
    Errored(String),
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobFailure::Panicked(msg) => write!(f, "panicked: {msg}"),
            JobFailure::TimedOut => write!(f, "timed out"),
            JobFailure::Errored(msg) => write!(f, "error: {msg}"),
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `job` in isolation: on a dedicated thread, behind `catch_unwind`,
/// with the configured timeout and retry budget. Returns the job's value or
/// the failure of the *last* attempt.
///
/// A timed-out attempt's thread cannot be killed — it is detached and its
/// eventual result discarded; the harness moves on. `job` must therefore be
/// `Clone`: each attempt gets its own copy. Every attempt records into the
/// trace recorder that is current where this is called.
pub fn run_isolated<T, F>(job: F, cfg: &HarnessConfig) -> Result<T, JobFailure>
where
    T: Send + 'static,
    F: Fn() -> T + Clone + Send + 'static,
{
    let mut last = JobFailure::TimedOut;
    let recorder = hpf_trace::Recorder::current();
    hpf_trace::counter_add("harness.jobs", 1);
    for attempt in 0..=cfg.retries {
        if attempt > 0 {
            hpf_trace::counter_add("harness.retries", 1);
        }
        let started = std::time::Instant::now();
        let (tx, rx) = mpsc::channel();
        let j = job.clone();
        let recorder = recorder.clone();
        std::thread::spawn(move || {
            let _recording = recorder.install();
            let outcome = catch_unwind(AssertUnwindSafe(j)).map_err(panic_message);
            // Receiver may have given up (timeout): ignore the send error.
            let _ = tx.send(outcome);
        });
        let received = match cfg.timeout {
            Some(t) => rx.recv_timeout(t).map_err(|_| JobFailure::TimedOut),
            None => rx.recv().map_err(|_| JobFailure::TimedOut),
        };
        hpf_trace::sketch_record("harness.job_seconds", started.elapsed().as_secs_f64());
        match received {
            Ok(Ok(v)) => return Ok(v),
            Ok(Err(msg)) => {
                hpf_trace::counter_add("harness.panics", 1);
                last = JobFailure::Panicked(msg);
            }
            Err(f) => {
                hpf_trace::counter_add("harness.timeouts", 1);
                last = f;
            }
        }
    }
    hpf_trace::counter_add("harness.failures", 1);
    Err(last)
}

/// One failed sweep job, identified by the caller's label.
#[derive(Debug, Clone)]
pub struct SweepFailure {
    pub label: String,
    pub failure: JobFailure,
    pub attempts: u32,
}

/// Run a batch of labelled jobs across the [`pool`](crate::pool),
/// isolating each one. All successes and all failures are returned in job
/// order; one bad job never stops the rest of the batch (the
/// panic-isolation contract of the sweep).
pub fn run_batch<T, F>(jobs: Vec<(String, F)>, cfg: &HarnessConfig) -> (Vec<T>, Vec<SweepFailure>)
where
    T: Send + 'static,
    F: Fn() -> T + Clone + Send + Sync + 'static,
{
    let outcomes = map_indexed(jobs.len(), 0, |i| {
        let _job_span = hpf_trace::span("job");
        run_isolated(jobs[i].1.clone(), cfg)
    });
    let mut results = Vec::new();
    let mut failures = Vec::new();
    for ((label, _), outcome) in jobs.into_iter().zip(outcomes) {
        match outcome {
            Ok(v) => results.push(v),
            Err(failure) => failures.push(SweepFailure {
                label,
                failure,
                attempts: cfg.retries + 1,
            }),
        }
    }
    (results, failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn quick() -> HarnessConfig {
        HarnessConfig {
            timeout: Some(Duration::from_secs(5)),
            retries: 0,
        }
    }

    #[test]
    fn healthy_job_returns_value() {
        let r = run_isolated(|| 6 * 7, &quick());
        assert_eq!(r.unwrap(), 42);
    }

    #[test]
    fn panicking_job_is_contained() {
        let r: Result<i32, _> = run_isolated(|| panic!("deliberate test panic"), &quick());
        match r {
            Err(JobFailure::Panicked(msg)) => assert!(msg.contains("deliberate")),
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn wedged_job_times_out() {
        let cfg = HarnessConfig {
            timeout: Some(Duration::from_millis(50)),
            retries: 0,
        };
        let r: Result<(), _> = run_isolated(|| std::thread::sleep(Duration::from_secs(600)), &cfg);
        assert_eq!(r.unwrap_err(), JobFailure::TimedOut);
    }

    #[test]
    fn retries_are_bounded_and_counted() {
        // A job that always panics consumes exactly retries+1 attempts.
        static ATTEMPTS: AtomicUsize = AtomicUsize::new(0);
        let cfg = HarnessConfig {
            timeout: Some(Duration::from_secs(5)),
            retries: 2,
        };
        let r: Result<(), _> = run_isolated(
            || {
                ATTEMPTS.fetch_add(1, Ordering::SeqCst);
                panic!("always fails");
            },
            &cfg,
        );
        assert!(r.is_err());
        assert_eq!(ATTEMPTS.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn wedged_first_attempt_recovers_on_retry() {
        // Timeout path + retry: attempt 0 wedges past the budget, attempt 1
        // returns promptly — the job as a whole must succeed.
        static ATTEMPTS: AtomicUsize = AtomicUsize::new(0);
        let cfg = HarnessConfig {
            timeout: Some(Duration::from_millis(80)),
            retries: 1,
        };
        let r = run_isolated(
            || {
                if ATTEMPTS.fetch_add(1, Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_secs(600));
                }
                "recovered"
            },
            &cfg,
        );
        assert_eq!(r.unwrap(), "recovered");
        assert_eq!(ATTEMPTS.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn timeout_exhaustion_reports_timed_out_not_panic() {
        // Every attempt wedges: the final failure must be TimedOut even
        // though earlier attempts also timed out (the last-attempt rule).
        let cfg = HarnessConfig {
            timeout: Some(Duration::from_millis(40)),
            retries: 2,
        };
        let r: Result<(), _> = run_isolated(|| std::thread::sleep(Duration::from_secs(600)), &cfg);
        assert_eq!(r.unwrap_err(), JobFailure::TimedOut);
    }

    #[test]
    fn timeout_path_is_observable_in_trace_metrics() {
        // The harness instrumentation: a timed-out attempt increments
        // `harness.timeouts`, its wall time lands in `harness.job_seconds`,
        // and the retry is counted.
        let rec = hpf_trace::Recorder::new();
        let _on = rec.install();
        rec.enable();
        let cfg = HarnessConfig {
            timeout: Some(Duration::from_millis(40)),
            retries: 1,
        };
        let r: Result<(), _> = run_isolated(|| std::thread::sleep(Duration::from_secs(600)), &cfg);
        assert!(r.is_err());
        assert_eq!(rec.counter_get("harness.timeouts"), 2, "both attempts");
        assert_eq!(rec.counter_get("harness.retries"), 1);
        let seconds = rec.sketch_snapshot("harness.job_seconds").unwrap();
        assert_eq!(seconds.count(), 2, "one wall-time sample per attempt");
    }

    #[test]
    fn batch_survives_poison_job() {
        // The panic-isolation acceptance test: a deliberately panicking
        // experiment completes the remaining experiments and reports the
        // failure.
        let mut jobs = Vec::new();
        for i in 0..8usize {
            jobs.push((format!("job-{i}"), move || {
                if i == 3 {
                    panic!("poison experiment");
                }
                i * 10
            }));
        }
        let (ok, failed) = run_batch(jobs, &quick());
        assert_eq!(ok, vec![0, 10, 20, 40, 50, 60, 70], "results in job order");
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].label, "job-3");
        assert!(matches!(failed[0].failure, JobFailure::Panicked(_)));
    }
}
