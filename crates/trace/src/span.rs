//! RAII span timers with per-thread nesting.
//!
//! A [`span()`] guard times the region from its creation to its drop and
//! records the duration under a path composed of the names of every span
//! still open on the same thread (`a/b/c`). Aggregation happens at record
//! time: a recorder keeps one statistics cell per distinct path, so a span
//! executed a million times costs one map entry, not a million.

use std::cell::RefCell;
use std::time::Instant;

use crate::recorder::with_current;

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, Default)]
pub(crate) struct SpanStat {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl SpanStat {
    pub(crate) fn add(&mut self, dur_ns: u64) {
        self.count += 1;
        self.total_ns += dur_ns;
        self.max_ns = self.max_ns.max(dur_ns);
        self.min_ns = if self.count == 1 {
            dur_ns
        } else {
            self.min_ns.min(dur_ns)
        };
    }

    pub(crate) fn snapshot(&self, path: &str) -> SpanSnapshot {
        SpanSnapshot {
            depth: path.matches('/').count(),
            path: path.to_string(),
            count: self.count,
            total_ns: self.total_ns,
            min_ns: self.min_ns,
            max_ns: self.max_ns,
        }
    }
}

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// One aggregated span as returned by [`span_snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSnapshot {
    /// `/`-separated nesting path, e.g. `predict/compile/parse`.
    pub path: String,
    /// Nesting depth (number of `/` components minus one).
    pub depth: usize,
    /// Number of times the span closed.
    pub count: u64,
    /// Total time across all executions, nanoseconds.
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
}

impl SpanSnapshot {
    /// Total time in seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Leaf name (last path component).
    pub fn leaf(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }
}

/// Guard returned by [`span()`]; records the elapsed time when dropped,
/// into the thread's current recorder. When tracing is disabled at
/// creation the guard is inert.
#[must_use = "a span guard times the region until it is dropped"]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

/// Open a span named `name`. Returns an inert guard when the current
/// recorder is disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { name, start: None };
    }
    STACK.with(|s| s.borrow_mut().push(name));
    SpanGuard {
        name,
        start: Some(Instant::now()),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let path = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Scoped guards drop LIFO; tolerate a mismatched drop order by
            // popping back to this span's frame.
            while let Some(top) = stack.pop() {
                if std::ptr::eq(top, self.name) || top == self.name {
                    break;
                }
            }
            if stack.is_empty() {
                self.name.to_string()
            } else {
                let mut p = stack.join("/");
                p.push('/');
                p.push_str(self.name);
                p
            }
        });
        with_current(|r| r.record_span(path, dur_ns));
    }
}

/// The current recorder's spans, sorted by path (parents sort before
/// children).
pub fn span_snapshot() -> Vec<SpanSnapshot> {
    with_current(|r| r.span_snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_name_extraction() {
        let s = SpanSnapshot {
            path: "a/b/c".into(),
            depth: 2,
            count: 1,
            total_ns: 10,
            min_ns: 10,
            max_ns: 10,
        };
        assert_eq!(s.leaf(), "c");
        assert_eq!(s.total_s(), 1e-8);
    }
}
