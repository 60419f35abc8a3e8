//! Metrics: counters and mergeable quantile sketches, recorded into the
//! calling thread's current [`Recorder`](crate::Recorder). Metric names are
//! free-form (dotted convention: `sim.fault.retries`); counter names are
//! `&'static str`, sketch names may be built at runtime.

use crate::recorder::with_current;
use crate::sketch::QuantileSketch;

/// Add `delta` to the counter `name`. No-op while tracing is disabled.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    with_current(|r| r.counter_add(name, delta));
}

/// Current value of a counter (0 if never written).
pub fn counter_get(name: &str) -> u64 {
    with_current(|r| r.counter_get(name))
}

/// Record `value` into the mergeable quantile sketch `name`. No-op while
/// tracing is disabled.
#[inline]
pub fn sketch_record(name: &str, value: f64) {
    with_current(|r| r.sketch_record(name, value));
}

/// Merge a locally accumulated sketch into the sketch `name`. No-op while
/// tracing is disabled.
#[inline]
pub fn sketch_merge(name: &str, shard: &QuantileSketch) {
    with_current(|r| r.sketch_merge(name, shard));
}

/// All counters, sorted by name.
pub fn counters_snapshot() -> Vec<(String, u64)> {
    with_current(|r| r.counters_snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn sketch_record_and_merge_agree() {
        let rec = Recorder::new();
        let _on = rec.install();
        rec.enable();
        let mut shard = QuantileSketch::new();
        for v in [1e-3, 2e-3, 4e-3] {
            sketch_record("t.direct", v);
            shard.record(v);
        }
        sketch_merge("t.merged", &shard);
        let direct = rec.sketch_snapshot("t.direct").unwrap();
        assert_eq!(direct.count(), 3);
        assert_eq!(Some(direct), rec.sketch_snapshot("t.merged"));
    }
}
