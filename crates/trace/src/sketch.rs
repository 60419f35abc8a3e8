//! Mergeable quantile sketches — the streaming-aggregation primitive
//! behind `/v1/metrics` deltas and the loadgen's shard-merged latency
//! percentiles.
//!
//! ## Why a sketch and not a sample vector
//!
//! Raw latency vectors grow with traffic and cannot be combined across
//! shards without re-sorting everything. A [`QuantileSketch`] is a fixed
//! 512-slot array (64 log₂ major buckets × [`SUB_BUCKETS`] linear
//! sub-buckets, HDR-histogram style) whose layout is *value-determined*:
//! a value lands in the same slot no matter which shard records it or
//! when. Merging two sketches is therefore element-wise integer addition
//! — **exact, deterministic, and invariant under merge order and shard
//! count**, which is what lets per-client loadgen shards, per-worker
//! service shards, and cursor-delta subtraction all agree bit-for-bit.
//! Relative quantile error is bounded by the sub-bucket width: ≤ 1/8 of
//! a factor-two bucket, ~12% worst case, far inside the run-to-run noise
//! of any latency measurement.
//!
//! The sketch is a plain value type (no atomics): writers own one each
//! (per thread, per shard) and merge, or share one behind a recorder's
//! lock ([`crate::sketch_record`]).

use crate::json::Value;

/// Log₂ major buckets: 1 ns … ~584 years.
pub const MAJOR_BUCKETS: usize = 64;

/// Linear sub-buckets per major bucket. Eight gives ≤ 12.5% relative
/// resolution while keeping the sketch 4 KiB.
pub const SUB_BUCKETS: usize = 8;

/// Total slots in the fixed layout.
pub const SKETCH_SLOTS: usize = MAJOR_BUCKETS * SUB_BUCKETS;

/// A mergeable fixed-layout quantile sketch over f64 values in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    buckets: Vec<u64>,
    count: u64,
    /// Sum of recorded values in 1 ns integer units (exact under merge).
    sum_units: u64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// The value mapped to slot 0's lower bound: one nanosecond.
    pub const UNIT: f64 = 1e-9;

    pub fn new() -> QuantileSketch {
        QuantileSketch {
            buckets: vec![0; SKETCH_SLOTS],
            count: 0,
            sum_units: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The slot a value falls into. The layout is fixed: `major =
    /// ⌊log₂(v/UNIT)⌋`, then a linear split of `[2^major, 2^(major+1))`
    /// into [`SUB_BUCKETS`] equal slices.
    pub fn slot_index(value: f64) -> usize {
        let units = value / Self::UNIT;
        if value.is_nan() || units <= 1.0 {
            return 0;
        }
        let major = (units.log2().floor() as usize).min(MAJOR_BUCKETS - 1);
        let base = (major as f64).exp2();
        let sub = (((units / base) - 1.0) * SUB_BUCKETS as f64) as usize;
        major * SUB_BUCKETS + sub.min(SUB_BUCKETS - 1)
    }

    /// Inclusive lower bound of slot `i`, seconds.
    pub fn slot_lower(i: usize) -> f64 {
        let (major, sub) = (i / SUB_BUCKETS, i % SUB_BUCKETS);
        Self::UNIT * (major as f64).exp2() * (1.0 + sub as f64 / SUB_BUCKETS as f64)
    }

    /// Exclusive upper bound of slot `i`, seconds.
    pub fn slot_upper(i: usize) -> f64 {
        Self::slot_lower(i + 1)
    }

    /// Record one value (clamped to ≥ 0; NaN/∞ clamp to 0).
    pub fn record(&mut self, value: f64) {
        let v = if value.is_finite() {
            value.max(0.0)
        } else {
            0.0
        };
        self.buckets[Self::slot_index(v)] += 1;
        self.count += 1;
        self.sum_units = self.sum_units.saturating_add((v / Self::UNIT) as u64);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merge `other` into `self`: element-wise addition over the fixed
    /// layout — exact, and invariant under merge order and shard count.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_units = self.sum_units.saturating_add(other.sum_units);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The sketch that takes this one from `earlier` to `self`:
    /// element-wise saturating subtraction. Buckets, count, and sum are
    /// exact; the min/max of the delta window are unknowable from the
    /// endpoints alone, so they are re-derived from the delta's occupied
    /// slot bounds (quantiles of a delta carry up to one sub-bucket of
    /// extra clamp slack at the extremes).
    pub fn delta_since(&self, earlier: &QuantileSketch) -> QuantileSketch {
        let mut d = QuantileSketch::new();
        for (i, (a, b)) in self.buckets.iter().zip(&earlier.buckets).enumerate() {
            d.buckets[i] = a.saturating_sub(*b);
            if d.buckets[i] > 0 {
                d.min = d.min.min(Self::slot_lower(i));
                d.max = d.max.max(Self::slot_upper(i));
            }
        }
        d.count = self.count.saturating_sub(earlier.count);
        d.sum_units = self.sum_units.saturating_sub(earlier.sum_units);
        d
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of recorded values, seconds (1 ns resolution).
    pub fn sum(&self) -> f64 {
        self.sum_units as f64 * Self::UNIT
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum() / self.count as f64
        }
    }

    /// Smallest recorded value (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Estimated quantile (`0.0 ..= 1.0`): linear interpolation inside
    /// the covering slot, clamped to the observed min/max.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                let frac = (target - seen) as f64 / c as f64;
                let lo = Self::slot_lower(i);
                let hi = Self::slot_upper(i);
                return (lo + frac * (hi - lo)).clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }

    /// Serialize as a JSON value: summary quantiles plus the sparse
    /// occupied slots (`[slot, count]` pairs), from which
    /// [`QuantileSketch::from_value`] reconstructs the sketch exactly.
    pub fn to_value(&self) -> Value {
        let buckets: Vec<Value> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Value::Arr(vec![Value::Num(i as f64), Value::Num(c as f64)]))
            .collect();
        Value::obj(vec![
            ("count", Value::Num(self.count as f64)),
            ("sum_s", Value::Num(self.sum())),
            ("min_s", Value::Num(self.min())),
            ("max_s", Value::Num(self.max())),
            ("p50_s", Value::Num(self.quantile(0.50))),
            ("p95_s", Value::Num(self.quantile(0.95))),
            ("p99_s", Value::Num(self.quantile(0.99))),
            ("p999_s", Value::Num(self.quantile(0.999))),
            ("buckets", Value::Arr(buckets)),
        ])
    }

    /// Parse a value written by [`QuantileSketch::to_value`].
    pub fn from_value(v: &Value) -> Result<QuantileSketch, String> {
        let mut s = QuantileSketch::new();
        s.count = v
            .get("count")
            .and_then(Value::as_f64)
            .ok_or("sketch missing count")? as u64;
        let sum_s = v.get("sum_s").and_then(Value::as_f64).unwrap_or(0.0);
        s.sum_units = (sum_s / Self::UNIT).round().max(0.0) as u64;
        for pair in v
            .get("buckets")
            .and_then(Value::as_arr)
            .ok_or("sketch missing buckets")?
        {
            let pair = pair.as_arr().ok_or("malformed sketch bucket")?;
            let (Some(slot), Some(count)) = (
                pair.first().and_then(Value::as_f64),
                pair.get(1).and_then(Value::as_f64),
            ) else {
                return Err("malformed sketch bucket".into());
            };
            let slot = slot as usize;
            if slot >= SKETCH_SLOTS {
                return Err(format!("sketch slot {slot} out of range"));
            }
            s.buckets[slot] = count as u64;
        }
        if s.count > 0 {
            s.min = v.get("min_s").and_then(Value::as_f64).unwrap_or(0.0);
            s.max = v.get("max_s").and_then(Value::as_f64).unwrap_or(0.0);
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_layout_is_monotone_and_exhaustive() {
        let mut prev = -1.0f64;
        for i in 0..SKETCH_SLOTS {
            let lo = QuantileSketch::slot_lower(i);
            assert!(lo > prev, "slot {i} lower bound not increasing");
            prev = lo;
            // The lower bound itself maps back into the slot.
            if i > 0 {
                assert_eq!(QuantileSketch::slot_index(lo), i, "lower bound of slot {i}");
            }
            // Just under the upper bound stays in the slot (float error
            // aside at extreme magnitudes).
            if i < SKETCH_SLOTS - 1 && i > 0 && i < 400 {
                let interior = lo + 0.5 * (QuantileSketch::slot_upper(i) - lo);
                assert_eq!(QuantileSketch::slot_index(interior), i, "interior of {i}");
            }
        }
        assert_eq!(QuantileSketch::slot_index(0.0), 0);
        assert_eq!(QuantileSketch::slot_index(-1.0), 0);
        assert_eq!(QuantileSketch::slot_index(f64::NAN), 0);
        assert_eq!(QuantileSketch::slot_index(f64::MAX), SKETCH_SLOTS - 1);
    }

    #[test]
    fn sub_buckets_resolve_finer_than_log2() {
        // 1.0 ms and 1.3 ms share a log₂ bucket but not a slot.
        assert_ne!(
            QuantileSketch::slot_index(1.0e-3),
            QuantileSketch::slot_index(1.3e-3)
        );
    }

    #[test]
    fn merge_equals_single_sketch() {
        let values: Vec<f64> = (0..1000).map(|i| 1e-6 * (1.0 + i as f64)).collect();
        let mut whole = QuantileSketch::new();
        for &v in &values {
            whole.record(v);
        }
        for shards in [1usize, 2, 3, 7] {
            let mut parts: Vec<QuantileSketch> =
                (0..shards).map(|_| QuantileSketch::new()).collect();
            for (i, &v) in values.iter().enumerate() {
                parts[i % shards].record(v);
            }
            // Merge in reverse order, to boot.
            let mut merged = QuantileSketch::new();
            for p in parts.iter().rev() {
                merged.merge(p);
            }
            assert_eq!(merged, whole, "{shards} shards");
        }
    }

    #[test]
    fn quantiles_land_in_the_right_decade() {
        let mut s = QuantileSketch::new();
        for _ in 0..900 {
            s.record(1e-3);
        }
        for _ in 0..100 {
            s.record(1.0);
        }
        assert_eq!(s.count(), 1000);
        let p50 = s.quantile(0.50);
        assert!((5e-4..5e-3).contains(&p50), "p50 {p50}");
        let p99 = s.quantile(0.99);
        assert!(p99 > 0.5, "p99 {p99}");
        assert_eq!(s.quantile(1.0), 1.0);
        assert!((s.mean() - (0.9e-3 + 0.1)).abs() < 1e-4);
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let mut s = QuantileSketch::new();
        for i in 0..500 {
            s.record(1e-5 * (1 + i % 37) as f64);
        }
        let text = s.to_value().pretty();
        let back =
            QuantileSketch::from_value(&crate::json::parse(&text).expect("parses")).expect("loads");
        assert_eq!(back, s);
        assert!(QuantileSketch::from_value(&Value::obj(vec![])).is_err());
    }

    #[test]
    fn delta_since_recovers_the_window() {
        let mut early = QuantileSketch::new();
        for _ in 0..10 {
            early.record(2e-3);
        }
        let mut late = early.clone();
        for _ in 0..5 {
            late.record(0.5);
        }
        let d = late.delta_since(&early);
        assert_eq!(d.count(), 5);
        let p50 = d.quantile(0.5);
        assert!((0.2..0.8).contains(&p50), "delta p50 {p50}");
        // Deltas telescope: early + d has the same buckets as late.
        let mut recombined = early.clone();
        recombined.merge(&d);
        assert_eq!(recombined.count(), late.count());
        assert_eq!(recombined.buckets, late.buckets);
    }
}
