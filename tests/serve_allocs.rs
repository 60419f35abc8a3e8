//! Allocation budget of serving a warm request: what one `hpf-serve`
//! worker does per keep-alive request once the response cache is warm —
//! read the request off the connection's buffers
//! (`RequestReader::read`), answer it from the response cache
//! (`Api::handle`) and write the response into the connection's write
//! buffer (`write_response`) — over a pipelined stream of the loadgen
//! mix. Allocation counts are deterministic, so the budget is a tight
//! gate where a wall-clock one could not be.

mod common;

use std::io::{BufReader, BufWriter, Write};

use hpf_serve::api::Api;
use hpf_serve::cache::CacheConfig;
use hpf_serve::http::{write_response, Request, RequestReader};
use hpf_serve::loadgen::request_at;

/// At most this many allocations per warm request, averaged over the
/// stream.
const BUDGET_PER_REQUEST: f64 = 0.1;

/// Requests in the measured stream, drawn from the loadgen mix.
const REQUESTS: usize = 4096;

#[test]
fn warm_request_stays_within_its_allocation_budget() {
    let mix: Vec<(&str, String)> = (0..REQUESTS).map(|i| request_at(1, i)).collect();
    let api = Api::new(&CacheConfig::default());
    for (path, body) in &mix {
        let warm = api.handle(&Request {
            method: "POST".into(),
            path: path.to_string(),
            body: body.as_bytes().to_vec(),
            ..Request::default()
        });
        assert_eq!(warm.status, 200);
    }
    let wire: Vec<u8> = mix
        .iter()
        .flat_map(|(path, body)| {
            format!(
                "POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        })
        .collect();

    // The server's buffer sizes: 32 KiB to read, 128 KiB to write.
    let mut reader = BufReader::with_capacity(32 << 10, wire.as_slice());
    let mut writer = BufWriter::with_capacity(128 << 10, std::io::sink());
    let mut requests = RequestReader::default();

    let (served, allocs) = common::allocations(|| {
        let mut served = 0usize;
        while let Some(req) = requests.read(&mut reader).expect("well-formed stream") {
            let resp = api.handle(req);
            assert_eq!(resp.status, 200);
            write_response(
                &mut writer,
                resp.status,
                "application/json",
                &resp.body,
                !req.wants_close(),
                None,
            )
            .expect("write to a sink");
            if reader.buffer().is_empty() {
                writer.flush().expect("flush a sink");
            }
            served += 1;
        }
        served
    });

    assert_eq!(served, REQUESTS);
    let per_request = allocs as f64 / served as f64;
    println!("{allocs} allocations over {served} warm requests: {per_request:.3} each");
    assert!(
        per_request <= BUDGET_PER_REQUEST,
        "{per_request:.3} allocations per warm request, budget {BUDGET_PER_REQUEST}"
    );
}
