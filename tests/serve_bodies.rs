//! `hpf-serve` bodies that neither a golden file nor another test pins,
//! held byte for byte by status, length and FNV-1a digest: simulated
//! sweeps (healthy, and degraded by an injected DES panic), inline-source
//! sweeps and predicts, every 400 that `/v1/sweep` and `/v1/advise`
//! answer deterministically, and the 504 each route answers to a
//! deadline that is already dead when the body is parsed.
//!
//! Every body is answered by a fresh `Api`, so no body sees another's
//! caches or breaker state.

use std::sync::Arc;

use hpf_serve::api::Api;
use hpf_serve::cache::CacheConfig;
use hpf_serve::http::Request;
use hpf_serve::ServiceStatus;
use hpf_trace::json::Value;

/// PI with its own `N = 128`: an inline source every route accepts.
const PI_SOURCE: &str = "PROGRAM PI\nINTEGER, PARAMETER :: N = 128\nREAL F(N), PIE\n\
                         !HPF$ PROCESSORS P(4)\n!HPF$ DISTRIBUTE F(BLOCK) ONTO P\n\
                         FORALL (I = 1:N) F(I) = 1.0 / I\nPIE = SUM(F) / N\nEND\n";

/// A source that does not parse.
const BROKEN_SOURCE: &str = "PROGRAM X\nREAL A(\nEND\n";

/// A source that parses but has no DISTRIBUTE for the advisor to search.
const UNMAPPED_SOURCE: &str = "PROGRAM X\nREAL A(8)\nA = 1.0\nEND\n";

/// `"source": <text>` as a JSON member.
fn source(text: &str) -> String {
    format!(r#""source": {}"#, Value::Str(text.into()).pretty())
}

/// How a body is answered: by a plain `Api`, or by one that runs with
/// chaos enabled and a request that asks for a DES panic.
#[derive(Clone, Copy, Debug)]
enum Served {
    Plain,
    SimPanic,
}

fn answer(path: &str, body: &str, served: Served) -> (u16, Vec<u8>) {
    let cfg = CacheConfig::default();
    let (api, headers) = match served {
        Served::Plain => (Api::new(&cfg), Vec::new()),
        Served::SimPanic => (
            Api::with_runtime(&cfg, Arc::new(ServiceStatus::default()), true),
            vec![("x-chaos-panic".to_string(), "sim".to_string())],
        ),
    };
    let resp = api.handle(&Request {
        method: "POST".into(),
        path: path.into(),
        headers,
        body: body.as_bytes().to_vec(),
        ..Request::default()
    });
    (resp.status, resp.body.to_vec())
}

/// A body's status, length and FNV-1a digest.
type Pin = (u16, usize, u64);

/// A route, a body, how it is served and the answer it must get.
type Case = (&'static str, String, Served, Pin);

/// Check every case, reporting all mismatches at once.
fn check(cases: &[Case]) {
    let mut wrong = Vec::new();
    for (path, body, served, want) in cases {
        let (status, bytes) = answer(path, body, *served);
        let got = (
            status,
            bytes.len(),
            report::fnv1a(report::FNV_OFFSET, &bytes),
        );
        if got != *want {
            wrong.push(format!(
                "{path} {body} ({served:?}): got ({}, {}, {:#018x}), want ({}, {}, {:#018x})\n{}",
                got.0,
                got.1,
                got.2,
                want.0,
                want.1,
                want.2,
                String::from_utf8_lossy(&bytes)
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n\n"));
}

#[test]
fn sweep_and_predict_bodies_are_pinned() {
    let simulated = r#"{"kernel": "Laplace (Blk-Blk)", "sizes": [32, 64], "procs": 4, "simulate": true, "runs": 20}"#;
    check(&[
        (
            "/v1/sweep",
            simulated.to_string(),
            Served::Plain,
            (200, 881, 0x268a_2b4f_5d22_193f),
        ),
        (
            "/v1/sweep",
            simulated.to_string(),
            Served::SimPanic,
            (200, 725, 0xf2eb_e9ad_4d36_f7a1),
        ),
        (
            "/v1/sweep",
            format!(
                r#"{{{}, "sizes": [64, 128], "procs": 4, "simulate": true, "runs": 20}}"#,
                source(PI_SOURCE)
            ),
            Served::Plain,
            (200, 824, 0x1e0f_5ff0_393d_0562),
        ),
        (
            "/v1/sweep",
            format!(
                r#"{{{}, "sizes": {{"min": 32, "max": 128}}, "procs": 2, "machine": "torus3d"}}"#,
                source(PI_SOURCE)
            ),
            Served::Plain,
            (200, 986, 0x9164_6fb2_8903_43b5),
        ),
        (
            "/v1/predict",
            format!(r#"{{{}, "procs": 4}}"#, source(PI_SOURCE)),
            Served::Plain,
            (200, 1304, 0x8a9f_eb10_1319_4304),
        ),
        (
            "/v1/predict",
            format!(r#"{{{}, "n": 512, "procs": 8}}"#, source(PI_SOURCE)),
            Served::Plain,
            (200, 1395, 0x564d_520f_bf49_a19e),
        ),
    ]);
}

#[test]
fn sweep_request_errors_are_pinned() {
    let pi = |rest: &str| format!(r#"{{"kernel": "PI", "procs": 4{rest}}}"#);
    let too_many = format!(
        r#", "sizes": [{}]"#,
        (1..=65)
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let cases: Vec<Case> = [
        // The target.
        (
            r#"{"sizes": [64]}"#.to_string(),
            (400, 132, 0xf0d1_e7c8_1fc6_d054),
        ),
        (
            format!(
                r#"{{"kernel": "PI", {}, "sizes": [64]}}"#,
                source(PI_SOURCE)
            ),
            (400, 132, 0x02b7_cb52_3d21_46eb),
        ),
        (
            r#"{"kernel": 7, "sizes": [64]}"#.to_string(),
            (400, 115, 0x3f1a_ae7e_5fc1_a28f),
        ),
        (
            r#"{"source": 7, "sizes": [64]}"#.to_string(),
            (400, 115, 0x60be_ef67_722b_05f3),
        ),
        // `procs`.
        (
            r#"{"kernel": "PI", "procs": 0, "sizes": [64]}"#.to_string(),
            (400, 124, 0xe43d_cee7_ccab_6e0c),
        ),
        (
            r#"{"kernel": "PI", "procs": 1025, "sizes": [64]}"#.to_string(),
            (400, 124, 0xe43d_cee7_ccab_6e0c),
        ),
        (
            r#"{"kernel": "PI", "procs": "4", "sizes": [64]}"#.to_string(),
            (400, 134, 0x3787_9c9c_5301_3d7e),
        ),
        // `sizes`: missing, empty, malformed.
        (pi(""), (400, 135, 0x50c6_835f_6140_34b7)),
        (pi(r#", "sizes": []"#), (400, 122, 0x5098_3b29_0e7f_add3)),
        (pi(r#", "sizes": "64""#), (400, 136, 0x57ab_6fe6_a2cc_8c9d)),
        (pi(r#", "sizes": [0]"#), (400, 137, 0x7a49_31a3_e983_4fa1)),
        (
            pi(r#", "sizes": [64, 1.5]"#),
            (400, 137, 0x7a49_31a3_e983_4fa1),
        ),
        (pi(&too_many), (400, 122, 0x5098_3b29_0e7f_add3)),
        (
            pi(r#", "sizes": {"min": 0, "max": 64}"#),
            (400, 142, 0x96d8_0e40_77ab_9dae),
        ),
        (
            pi(r#", "sizes": {"min": 128, "max": 64}"#),
            (400, 142, 0x96d8_0e40_77ab_9dae),
        ),
        (
            pi(r#", "sizes": {"min": -1}"#),
            (400, 132, 0x02d0_e1f7_849d_e393),
        ),
        // `runs`.
        (
            pi(r#", "sizes": [64], "runs": 0"#),
            (400, 124, 0x45ec_b3e8_cb54_1827),
        ),
        (
            pi(r#", "sizes": [64], "runs": 10001"#),
            (400, 124, 0x45ec_b3e8_cb54_1827),
        ),
        (
            pi(r#", "sizes": [64], "runs": "many""#),
            (400, 133, 0xf216_76ff_6dd1_7ac3),
        ),
        // The program.
        (
            r#"{"kernel": "NOSUCH", "procs": 4, "sizes": [64]}"#.to_string(),
            (400, 136, 0xfda3_8b48_cacf_e855),
        ),
        (
            format!(
                r#"{{{}, "procs": 4, "sizes": [64]}}"#,
                source(BROKEN_SOURCE)
            ),
            (400, 299, 0xe929_6d59_b6cb_91e6),
        ),
        // The machine.
        (
            pi(r#", "sizes": [64], "machine": "cm5""#),
            (400, 186, 0x9f1f_fdb5_e261_c950),
        ),
        (
            pi(r#", "sizes": [64], "machine": 5"#),
            (400, 116, 0x38c7_cf18_2dfd_4245),
        ),
        (
            r#"{"kernel": "PI", "procs": 256, "sizes": [64], "machine": "multicore"}"#.to_string(),
            (400, 193, 0xad10_f147_d925_0411),
        ),
        (
            format!(
                r#"{{{}, "procs": 4, "sizes": [64], "machine": "cm5"}}"#,
                source(PI_SOURCE)
            ),
            (400, 296, 0x625f_487c_2d8f_3f4c),
        ),
        // `deadline_ms`.
        (
            pi(r#", "sizes": [64], "deadline_ms": "soon""#),
            (400, 140, 0x852e_201f_68dc_0f2a),
        ),
        (
            pi(r#", "sizes": [64], "deadline_ms": 1.5"#),
            (400, 140, 0x852e_201f_68dc_0f2a),
        ),
        (
            pi(r#", "sizes": [64], "deadline_ms": -1"#),
            (400, 140, 0x852e_201f_68dc_0f2a),
        ),
    ]
    .into_iter()
    .map(|(body, want)| ("/v1/sweep", body, Served::Plain, want))
    .collect();
    check(&cases);
}

#[test]
fn advise_request_errors_are_pinned() {
    let laplace =
        |rest: &str| format!(r#"{{"kernel": "Laplace (Blk-Blk)", "n": 64, "procs": 4{rest}}}"#);
    let nine = format!(r#", "machines": [{}]"#, [r#""ipsc860""#; 9].join(", "));
    let cases: Vec<Case> = [
        // The target.
        (
            r#"{"n": 64}"#.to_string(),
            (400, 132, 0xf0d1_e7c8_1fc6_d054),
        ),
        (
            format!(r#"{{"kernel": "PI", {}}}"#, source(PI_SOURCE)),
            (400, 132, 0x02b7_cb52_3d21_46eb),
        ),
        // `n`, `procs` and `top_k`.
        (laplace(r#", "n": 0"#), (400, 110, 0xcf81_1fc2_3d9f_aec5)),
        (
            r#"{"kernel": "PI", "procs": 0}"#.to_string(),
            (400, 122, 0x645d_eb82_c52c_fce9),
        ),
        (
            r#"{"kernel": "PI", "procs": 65}"#.to_string(),
            (400, 122, 0x645d_eb82_c52c_fce9),
        ),
        (
            laplace(r#", "top_k": 0"#),
            (400, 122, 0x2a03_cc4c_9ed7_d878),
        ),
        (
            laplace(r#", "top_k": 17"#),
            (400, 122, 0x2a03_cc4c_9ed7_d878),
        ),
        (
            laplace(r#", "top_k": 2.5"#),
            (400, 134, 0x1679_ef94_fc27_c142),
        ),
        // The program.
        (
            r#"{"kernel": "NOSUCH", "procs": 4}"#.to_string(),
            (400, 113, 0x6fbe_9cad_03b2_b7ad),
        ),
        (
            format!(r#"{{{}, "procs": 4}}"#, source(BROKEN_SOURCE)),
            (400, 299, 0xe929_6d59_b6cb_91e6),
        ),
        (
            format!(r#"{{{}, "procs": 4}}"#, source(UNMAPPED_SOURCE)),
            (400, 290, 0xd617_91c6_e9ca_b400),
        ),
        // The machine and the machine list.
        (
            laplace(r#", "machine": "cm5""#),
            (400, 186, 0x9f1f_fdb5_e261_c950),
        ),
        (
            laplace(r#", "machine": ["torus3d"]"#),
            (400, 116, 0x38c7_cf18_2dfd_4245),
        ),
        (
            laplace(r#", "machines": "torus3d""#),
            (400, 134, 0xe9fd_b5de_cd2f_7ddc),
        ),
        (
            laplace(r#", "machines": []"#),
            (400, 124, 0x2e1e_34f2_3008_731b),
        ),
        (
            laplace(r#", "machines": ["torus3d", 3]"#),
            (400, 124, 0xae3d_8b6a_3f89_46f8),
        ),
        (
            laplace(r#", "machines": ["torus3d", "cm5"]"#),
            (400, 186, 0x9f1f_fdb5_e261_c950),
        ),
        (laplace(&nine), (400, 124, 0x2e1e_34f2_3008_731b)),
        (
            laplace(r#", "machine": "torus3d", "machines": ["ipsc860"]"#),
            (400, 135, 0x1d3d_a7d1_21b3_3bf4),
        ),
        (
            format!(
                r#"{{{}, "procs": 4, "machines": ["ipsc860", "cm5"]}}"#,
                source(PI_SOURCE)
            ),
            (400, 296, 0x625f_487c_2d8f_3f4c),
        ),
        // `deadline_ms`.
        (
            laplace(r#", "deadline_ms": "soon""#),
            (400, 140, 0x852e_201f_68dc_0f2a),
        ),
        (
            laplace(r#", "deadline_ms": 1.5"#),
            (400, 140, 0x852e_201f_68dc_0f2a),
        ),
    ]
    .into_iter()
    .map(|(body, want)| ("/v1/advise", body, Served::Plain, want))
    .collect();
    check(&cases);
}

#[test]
fn a_deadline_dead_at_parse_is_a_504_on_every_route() {
    check(&[
        (
            "/v1/predict",
            r#"{"kernel": "PI", "n": 64, "procs": 4, "deadline_ms": 0}"#.to_string(),
            Served::Plain,
            (504, 151, 0x24b8_f656_73d7_701d),
        ),
        (
            "/v1/predict",
            format!(r#"{{{}, "deadline_ms": 0}}"#, source(BROKEN_SOURCE)),
            Served::Plain,
            (504, 151, 0x24b8_f656_73d7_701d),
        ),
        (
            "/v1/sweep",
            r#"{"kernel": "PI", "sizes": [64], "procs": 4, "deadline_ms": 0}"#.to_string(),
            Served::Plain,
            (504, 151, 0x24b8_f656_73d7_701d),
        ),
        (
            "/v1/advise",
            r#"{"kernel": "Laplace (Blk-Blk)", "n": 64, "procs": 4, "deadline_ms": 0}"#.to_string(),
            Served::Plain,
            (504, 151, 0x24b8_f656_73d7_701d),
        ),
    ]);
}
