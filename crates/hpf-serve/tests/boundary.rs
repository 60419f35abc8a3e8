//! The service boundary is total: whatever body a client POSTs to
//! `/v1/predict`, `/v1/sweep` or `/v1/advise`, the handler answers a
//! structured `hpf-serve/v1` document with status 200, 400 or 504, and
//! never panics. (A 500 is only ever injected chaos, which is off here.)
//!
//! A body names a kernel or a source (a suite kernel's text with lines
//! dropped or duplicated) and a random subset of the other fields, each a
//! plausible value or a value of any JSON type (negative, fractional,
//! huge, empty, nested), plus unknown keys; some bodies are not objects or
//! not JSON at all. Plausible values stay cheap: `procs` in 1..=16 (or
//! outside every machine's range), `runs` at most 4, and `n` small or the
//! largest the service takes, 2^32 - 1.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hpf_serve::http::Request;
use hpf_serve::{Api, CacheConfig, SCHEMA};
use hpf_trace::json::{parse, Value};
use proptest::prelude::*;

const OPTIONAL: [&str; 9] = [
    "n",
    "procs",
    "sizes",
    "simulate",
    "runs",
    "top_k",
    "machine",
    "machines",
    "deadline_ms",
];

struct Gen(u64);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(1);
        (report::splitmix64(self.0) % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<T: Clone>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())].clone()
    }

    fn num(&mut self, xs: &[f64]) -> Value {
        Value::Num(self.pick(xs))
    }

    fn str(&mut self, xs: &[&str]) -> Value {
        Value::Str(self.pick(xs).to_string())
    }

    /// A value of any JSON type, nested up to `depth` levels.
    fn any(&mut self, depth: u32) -> Value {
        match self.below(if depth == 0 { 7 } else { 9 }) {
            0 => Value::Null,
            1 => Value::Bool(self.one_in(2)),
            2 => self.num(&[-1.0, -3.5, -1e300, 0.5, 63.999]),
            3 => self.num(&[0.0, 1e300, 2f64.powi(63), 4294967296.0]),
            4 => self.str(&["", "PI", "ipsc860", "64", "\u{0}"]),
            5 => Value::Arr(Vec::new()),
            6 => Value::Obj(Default::default()),
            7 => Value::Arr((0..3).map(|_| self.any(depth - 1)).collect()),
            _ => Value::obj(vec![("min", self.any(depth - 1)), ("", self.any(0))]),
        }
    }

    fn machine(&mut self) -> Value {
        let mut names = hpf_machines::machine_names();
        names.push("cray");
        self.str(&names)
    }

    /// A suite kernel's source with lines dropped or duplicated.
    fn source(&mut self) -> String {
        let kernel = self.pick(&kernels::all_kernels());
        let text = kernel.source(self.pick(&[8, 16, 32]), self.pick(&[1, 2, 4]));
        let mut out = String::new();
        for line in text.lines() {
            for _ in 0..self.pick(&[0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2]) {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    /// A plausible value for `key`.
    fn field(&mut self, key: &str) -> Value {
        let size = [8.0, 16.0, 32.0, 64.0, 4294967295.0];
        match key {
            "kernel" => {
                let mut names: Vec<&str> = kernels::all_kernels().iter().map(|k| k.name).collect();
                names.push("No Such Kernel");
                self.str(&names)
            }
            "source" => Value::Str(self.source()),
            "n" => self.num(&size),
            "procs" if self.one_in(6) => self.num(&[0.0, 1025.0, 4096.0, 4294967295.0]),
            "procs" => Value::Num((1 + self.below(16)) as f64),
            "sizes" if self.one_in(3) => {
                Value::obj(vec![("min", self.num(&size)), ("max", self.num(&size))])
            }
            "sizes" => Value::Arr((0..self.below(4)).map(|_| self.num(&size)).collect()),
            "simulate" => Value::Bool(self.one_in(2)),
            "runs" => Value::Num((1 + self.below(4)) as f64),
            "top_k" => Value::Num(self.below(6) as f64),
            "machine" => self.machine(),
            "machines" => Value::Arr((0..self.below(4)).map(|_| self.machine()).collect()),
            _ => self.num(&[0.0, 5.0, 60_000.0]),
        }
    }

    fn body(&mut self, path: &str) -> String {
        match self.below(20) {
            0 => return self.any(2).pretty(),
            1 => {
                let text = r#"{"kernel": "PI", "n": 64}"#;
                return text[..self.below(text.len())].to_string();
            }
            _ => {}
        }
        let targets: &[&str] = match self.below(10) {
            0 => &[],
            1 => &["kernel", "source"],
            2..=5 => &["kernel"],
            _ => &["source"],
        };
        let mut fields = Vec::new();
        for &key in targets.iter().chain(&OPTIONAL) {
            let sweep_sizes = key == "sizes" && path == "/v1/sweep" && !self.one_in(6);
            if targets.contains(&key) || sweep_sizes || self.one_in(3) {
                let value = if self.one_in(6) {
                    self.any(2)
                } else {
                    self.field(key)
                };
                fields.push((key, value));
            }
        }
        if self.one_in(4) {
            fields.push((self.pick(&["bogus", "N", "Kernel", ""]), self.any(2)));
        }
        Value::obj(fields).pretty()
    }
}

/// Send `body` to `path` on a fresh service and check the answer's shape.
fn check(path: &str, body: &str) -> Result<(), String> {
    let request = Request {
        method: "POST".into(),
        path: path.into(),
        query: String::new(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    };
    let api = Api::new(&CacheConfig::default());
    let response = catch_unwind(AssertUnwindSafe(|| api.handle(&request)))
        .map_err(|_| "the handler panicked".to_string())?;
    let text = String::from_utf8_lossy(&response.body);
    let doc = parse(&text).map_err(|e| format!("{e}: {text}"))?;
    let kind = doc.get("error").and_then(|e| e.get("kind"));
    let ok = [200, 400, 504].contains(&response.status)
        && doc.get("schema").and_then(Value::as_str) == Some(SCHEMA)
        && (response.status != 400 || kind.and_then(Value::as_str).is_some());
    ok.then_some(())
        .ok_or_else(|| format!("status {}: {text}", response.status))
}

proptest! {
    #[test]
    fn service_boundary_is_total(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let path = g.pick(&["/v1/predict", "/v1/sweep", "/v1/advise"]);
        let body = g.body(path);
        check(path, &body).map_err(|e| format!("{path} {body}\n{e}"))?;
    }
}
