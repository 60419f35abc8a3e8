//! Exports: the machine-readable JSON document and the human-readable
//! flamegraph-style text tree.

use crate::json::Value;
use crate::recorder::{with_current, Recorder};
use crate::span::SpanSnapshot;

impl Recorder {
    /// The recorder's spans and metrics as a `hpf-trace/v1` document.
    /// Deterministic layout (sorted keys/paths) so two exports of the same
    /// run diff cleanly.
    pub fn export_value(&self) -> Value {
        let spans: Vec<Value> = self
            .span_snapshot()
            .iter()
            .map(|s| {
                Value::obj(vec![
                    ("path", Value::Str(s.path.clone())),
                    ("count", Value::Num(s.count as f64)),
                    ("total_s", Value::Num(s.total_s())),
                    ("min_s", Value::Num(s.min_ns as f64 / 1e9)),
                    ("max_s", Value::Num(s.max_ns as f64 / 1e9)),
                ])
            })
            .collect();
        let counters = Value::Obj(
            self.counters_snapshot()
                .into_iter()
                .map(|(k, v)| (k, Value::Num(v as f64)))
                .collect(),
        );
        let sketches = Value::Obj(
            self.sketches_snapshot()
                .into_iter()
                .map(|(k, s)| (k, s.to_value()))
                .collect(),
        );
        Value::obj(vec![
            ("schema", Value::Str("hpf-trace/v1".into())),
            ("spans", Value::Arr(spans)),
            ("counters", counters),
            ("sketches", sketches),
        ])
    }

    /// Render the span tree as indented flamegraph-style text:
    ///
    /// ```text
    /// predict                       12.88ms 100.0%  ×1
    ///   compile                      1.02ms   7.9%  ×1   (self 0.31ms)
    ///     parse                      0.71ms   5.5%  ×3
    /// ```
    ///
    /// Percentages are of the total root time; `self` is the span's time
    /// not covered by its (recorded) children, shown when it differs from
    /// the total.
    pub fn flame_text(&self) -> String {
        let spans = self.span_snapshot();
        if spans.is_empty() {
            return "(no spans recorded)\n".to_string();
        }
        let root_total: u64 = spans
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| s.total_ns)
            .sum::<u64>()
            .max(1);

        let name_width = spans
            .iter()
            .map(|s| 2 * s.depth + s.leaf().len())
            .max()
            .unwrap_or(8)
            .max(8);

        let mut out = String::new();
        for s in &spans {
            let self_ns = s.total_ns.saturating_sub(child_total(&spans, s));
            let pct = 100.0 * s.total_ns as f64 / root_total as f64;
            let indent = "  ".repeat(s.depth);
            let name = format!("{indent}{}", s.leaf());
            out.push_str(&format!(
                "{name:<name_width$} {:>10} {pct:>5.1}%  ×{}",
                fmt_ns(s.total_ns),
                s.count
            ));
            if self_ns != s.total_ns {
                out.push_str(&format!("   (self {})", fmt_ns(self_ns)));
            }
            out.push('\n');
        }
        out
    }
}

/// The current recorder's `hpf-trace/v1` document, pretty-printed.
pub fn export_json() -> String {
    with_current(|r| r.export_value().pretty())
}

/// The current recorder's span tree as text ([`Recorder::flame_text`]).
pub fn flame_text() -> String {
    with_current(|r| r.flame_text())
}

/// Sum of the total times of `parent`'s direct children.
fn child_total(spans: &[SpanSnapshot], parent: &SpanSnapshot) -> u64 {
    let prefix = format!("{}/", parent.path);
    spans
        .iter()
        .filter(|s| s.depth == parent.depth + 1 && s.path.starts_with(&prefix))
        .map(|s| s.total_ns)
        .sum()
}

/// Human duration: picks ns/µs/ms/s so the mantissa stays readable.
pub fn fmt_ns(ns: u64) -> String {
    let v = ns as f64;
    if v < 1e3 {
        format!("{ns}ns")
    } else if v < 1e6 {
        format!("{:.2}µs", v / 1e3)
    } else if v < 1e9 {
        format!("{:.2}ms", v / 1e6)
    } else {
        format!("{:.2}s", v / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.50µs");
        assert_eq!(fmt_ns(2_000_000), "2.00ms");
        assert_eq!(fmt_ns(3_500_000_000), "3.50s");
    }

    #[test]
    fn flame_text_handles_empty() {
        assert_eq!(Recorder::new().flame_text(), "(no spans recorded)\n");
    }
}
