//! Streaming metrics for the service: the cursor ring behind
//! `GET /v1/metrics?since=<cursor>`.
//!
//! ## Why deltas
//!
//! A recorder's counters and sketches are lifetime totals. A scraper
//! that polls totals has to keep its own previous sample and subtract —
//! and gets it wrong across restarts. Instead the service does the
//! subtraction: every `GET /v1/metrics` response carries a `cursor`,
//! and a follow-up `?since=<cursor>` answers with exactly
//! what happened *between the two scrapes* — per-counter deltas and
//! per-endpoint/per-kernel latency-sketch deltas (exact bucket-wise
//! subtraction, see [`hpf_trace::QuantileSketch::delta_since`]). A
//! cursor that has aged out of the ring answers totals with
//! `"reset": true`, the standard "your window is gone, resynchronize"
//! signal.
//!
//! Delta correctness under concurrent writers: each snapshot is a
//! point-read of every counter/sketch, so for any one metric the deltas
//! between consecutive cursors telescope — their sum plus the final
//! `?since=` delta equals the total, no matter how many writers raced
//! the scrapes (the tests pin this down).
//!
//! Everything here reads the [`Recorder`] that was current when the
//! metrics were built (its `Api`'s recorder): with tracing off the export
//! degrades to empty sections, so the bit-neutrality contract of the
//! pipeline is untouched. A rate over any interval a scraper picks is a
//! `?since=` delta of a counter (`serve.requests`, `serve.queue.shed`,
//! `serve.worker_panic`, `serve.degraded`, `serve.deadline_exceeded`).

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::Instant;

use hpf_trace::json::Value;
use hpf_trace::{QuantileSketch, Recorder};

/// Schema tag on the `/v1/metrics` document.
pub const METRICS_SCHEMA: &str = "hpf-serve-metrics/v1";

/// Snapshots kept for `?since=` resolution. At one scrape per second
/// this is half a minute of history; beyond it, `"reset": true`.
const CURSOR_RING_CAP: usize = 32;

/// A point-in-time capture of every counter and sketch, labeled by the
/// cursor handed to the client that caused it.
#[derive(Clone)]
struct Snapshot {
    counters: BTreeMap<String, u64>,
    sketches: BTreeMap<String, QuantileSketch>,
}

fn capture(recorder: &Recorder) -> Snapshot {
    Snapshot {
        counters: recorder.counters_snapshot().into_iter().collect(),
        sketches: recorder.sketches_snapshot().into_iter().collect(),
    }
}

struct CursorRing {
    next: u64,
    snaps: VecDeque<(u64, Snapshot)>,
}

/// Per-server streaming-metrics state: the recorder it reads and the
/// cursor ring. One instance per [`crate::api::Api`].
pub struct ServeMetrics {
    recorder: Recorder,
    start: Instant,
    cursors: Mutex<CursorRing>,
}

impl std::fmt::Debug for ServeMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeMetrics").finish_non_exhaustive()
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// Metrics over the calling thread's current recorder.
    pub fn new() -> ServeMetrics {
        ServeMetrics {
            recorder: Recorder::current(),
            start: Instant::now(),
            cursors: Mutex::new(CursorRing {
                next: 1,
                snaps: VecDeque::new(),
            }),
        }
    }

    /// The recorder these metrics read (current when they were built).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Store `snap` in the ring under a fresh cursor and return that
    /// cursor. The stored snapshot must be the very capture the response
    /// document was built from — capturing again here would let writes
    /// that land between the two captures vanish from the delta chain.
    fn issue_cursor(&self, snap: &Snapshot) -> u64 {
        let mut ring = self.cursors.lock().unwrap_or_else(|e| e.into_inner());
        let cursor = ring.next;
        ring.next += 1;
        ring.snaps.push_back((cursor, snap.clone()));
        while ring.snaps.len() > CURSOR_RING_CAP {
            ring.snaps.pop_front();
        }
        cursor
    }

    /// The full `/v1/metrics` document: totals for every counter and
    /// sketch and the embedded `hpf-trace/v1` export — plus a fresh
    /// `cursor` for the next `?since=` scrape.
    pub fn export_full(&self) -> Value {
        let snap = capture(&self.recorder);
        let cursor = self.issue_cursor(&snap);
        Value::obj(vec![
            ("schema", Value::Str(METRICS_SCHEMA.into())),
            ("cursor", Value::Num(cursor as f64)),
            ("uptime_s", Value::Num(self.start.elapsed().as_secs_f64())),
            ("counters", counters_value(&snap.counters)),
            ("sketches", sketches_value(&snap.sketches)),
            ("trace", self.recorder.export_value()),
        ])
    }

    /// The `?since=<cursor>` document: per-counter and per-sketch deltas
    /// against the snapshot stored under `since`, plus a fresh `cursor`.
    /// An unknown (aged-out or never-issued) cursor answers totals with
    /// `"reset": true`.
    pub fn export_delta(&self, since: u64) -> Value {
        let earlier = {
            let ring = self.cursors.lock().unwrap_or_else(|e| e.into_inner());
            ring.snaps
                .iter()
                .find(|(c, _)| *c == since)
                .map(|(_, snap)| snap.clone())
        };
        let now = capture(&self.recorder);
        let cursor = self.issue_cursor(&now);
        let reset = earlier.is_none();
        let empty = Snapshot {
            counters: BTreeMap::new(),
            sketches: BTreeMap::new(),
        };
        let base = earlier.as_ref().unwrap_or(&empty);

        let counters: BTreeMap<String, u64> = now
            .counters
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v - base.counters.get(k).copied().unwrap_or(0).min(*v),
                )
            })
            .collect();
        let sketches: BTreeMap<String, QuantileSketch> = now
            .sketches
            .iter()
            .map(|(k, s)| {
                let d = match base.sketches.get(k) {
                    Some(b) => s.delta_since(b),
                    None => s.clone(),
                };
                (k.clone(), d)
            })
            .collect();

        let mut top: Vec<(&str, Value)> = vec![
            ("schema", Value::Str(METRICS_SCHEMA.into())),
            ("cursor", Value::Num(cursor as f64)),
            ("since", Value::Num(since as f64)),
            ("counters", counters_value(&counters)),
            ("sketches", sketches_value(&sketches)),
        ];
        if reset {
            top.push(("reset", Value::Bool(true)));
        }
        Value::obj(top)
    }
}

fn counters_value(counters: &BTreeMap<String, u64>) -> Value {
    Value::Obj(
        counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::Num(*v as f64)))
            .collect(),
    )
}

fn sketches_value(sketches: &BTreeMap<String, QuantileSketch>) -> Value {
    Value::Obj(
        sketches
            .iter()
            .map(|(k, s)| (k.clone(), s.to_value()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metrics over a fresh enabled recorder, installed on the calling
    /// thread.
    fn traced() -> (ServeMetrics, hpf_trace::Installed) {
        let rec = Recorder::new();
        let on = rec.install();
        rec.enable();
        (ServeMetrics::new(), on)
    }

    fn counter_in(doc: &Value, name: &str) -> u64 {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as u64
    }

    fn cursor_of(doc: &Value) -> u64 {
        doc.get("cursor").and_then(Value::as_f64).unwrap() as u64
    }

    #[test]
    fn deltas_telescope_for_counters_and_sketches() {
        let (m, _on) = traced();

        hpf_trace::counter_add("tm.requests", 10);
        hpf_trace::sketch_record("tm.lat", 1e-3);
        let a = m.export_full();
        hpf_trace::counter_add("tm.requests", 5);
        hpf_trace::sketch_record("tm.lat", 2e-3);
        hpf_trace::sketch_record("tm.lat", 3e-3);
        let b = m.export_delta(cursor_of(&a));
        hpf_trace::counter_add("tm.requests", 7);
        let c = m.export_delta(cursor_of(&b));

        assert_eq!(counter_in(&a, "tm.requests"), 10);
        assert_eq!(counter_in(&b, "tm.requests"), 5);
        assert_eq!(counter_in(&c, "tm.requests"), 7);
        assert!(b.get("reset").is_none());

        let sketch_count = |doc: &Value| {
            doc.get("sketches")
                .and_then(|s| s.get("tm.lat"))
                .and_then(|s| s.get("count"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0) as u64
        };
        assert_eq!(sketch_count(&a), 1);
        assert_eq!(sketch_count(&b), 2);
        assert_eq!(sketch_count(&c), 0);
    }

    #[test]
    fn unknown_cursor_answers_totals_with_reset() {
        let (m, _on) = traced();
        hpf_trace::counter_add("tm.reset_case", 4);
        let doc = m.export_delta(999_999);
        assert_eq!(doc.get("reset"), Some(&Value::Bool(true)));
        assert_eq!(counter_in(&doc, "tm.reset_case"), 4);
    }

    #[test]
    fn aged_out_cursor_is_reset_too() {
        let (m, _on) = traced();
        let first = m.export_full();
        for _ in 0..(CURSOR_RING_CAP + 4) {
            let _ = m.export_full();
        }
        let doc = m.export_delta(cursor_of(&first));
        assert_eq!(doc.get("reset"), Some(&Value::Bool(true)));
    }

    #[test]
    fn deltas_hold_under_concurrent_writers() {
        let (m, _on) = traced();

        const THREADS: usize = 4;
        const PER_THREAD: u64 = 5_000;
        let mut cursor = cursor_of(&m.export_full());
        let mut summed = 0u64;
        let mut sketch_summed = 0u64;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let _on = m.recorder().install();
                    for i in 0..PER_THREAD {
                        hpf_trace::counter_add("tm.conc", 1);
                        hpf_trace::sketch_record("tm.conc_lat", 1e-6 * (1 + i % 50) as f64);
                    }
                });
            }
            // Scrape deltas while the writers race.
            for _ in 0..20 {
                let d = m.export_delta(cursor);
                cursor = cursor_of(&d);
                summed += counter_in(&d, "tm.conc");
                sketch_summed += d
                    .get("sketches")
                    .and_then(|s| s.get("tm.conc_lat"))
                    .and_then(|s| s.get("count"))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0) as u64;
                std::thread::yield_now();
            }
        });
        // One final delta collects whatever the last mid-race scrape missed.
        let tail = m.export_delta(cursor);
        summed += counter_in(&tail, "tm.conc");
        sketch_summed += tail
            .get("sketches")
            .and_then(|s| s.get("tm.conc_lat"))
            .and_then(|s| s.get("count"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as u64;

        let want = (THREADS as u64) * PER_THREAD;
        assert_eq!(summed, want, "counter deltas must telescope exactly");
        assert_eq!(sketch_summed, want, "sketch deltas must telescope exactly");
    }
}
