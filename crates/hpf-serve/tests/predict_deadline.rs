//! A predict's deadline covers the machine calibration it runs. The
//! calibration memo is process-wide, and this file runs as a process of
//! its own, so the torus below is calibrated cold, inside the request.

use hpf_serve::api::Api;
use hpf_serve::cache::CacheConfig;
use hpf_serve::http::Request;
use hpf_trace::json::{parse as parse_json, Value};

fn post(body: &str) -> Request {
    Request {
        method: "POST".into(),
        path: "/v1/predict".into(),
        query: String::new(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    }
}

#[test]
fn a_cold_calibration_past_the_deadline_answers_504_before_interpreting() {
    let api = Api::new(&CacheConfig::default());
    // Warm the bind of the point, so the request below spends its budget
    // on the calibration alone.
    let warm = api.handle(&post(r#"{"kernel": "PI", "n": 4096, "procs": 256}"#));
    assert_eq!(warm.status, 200, "{}", String::from_utf8_lossy(&warm.body));

    // The torus at 256 nodes calibrates in ~0.2 s in a release build,
    // ten times the budget, and longer in a debug build.
    let resp = api.handle(&post(
        r#"{"kernel": "PI", "n": 4096, "procs": 256, "machine": "torus3d", "deadline_ms": 20}"#,
    ));
    let text = String::from_utf8_lossy(&resp.body);
    assert_eq!(resp.status, 504, "{text}");
    let v = parse_json(&text).unwrap();
    let err = v.get("error").unwrap();
    assert_eq!(err.get("kind").and_then(Value::as_str), Some("deadline"));
    assert_eq!(
        err.get("stage").and_then(Value::as_str),
        Some("interpret"),
        "{text}"
    );
}
