//! Golden pins of the report binaries' deterministic outputs.
//!
//! Each row regenerates one checked-in artifact in process, with the
//! renderer its binary prints, and diffs it against the file. Set
//! `UPDATE_GOLDENS=1` to regenerate the files instead.

use hpf90d::kernels::{kernel_by_name, CompiledKernel};
use hpf90d::report::characterize::{characterize_text, machines_text};
use hpf90d::report::experiments::{
    ablations_text, figure2_text, figure3_text, figure7_text, figure8_text, figures4_5, table2,
    table2_text, SweepConfig,
};
use hpf90d::report::io_accuracy::{io_accuracy, io_accuracy_text, IoAccuracyConfig};
use hpf90d::report::pipeline::calibrated_machine_for;
use hpf_advisor::{render_cross_table, render_table, Advisor, AdvisorConfig};
use hpf_machines::DEFAULT_MACHINE;
use hpf_serve::http::Request;
use hpf_serve::{chaos, Api, CacheConfig, ChaosConfig};

/// Renders an artifact's text.
type Render = fn() -> String;

/// `(artifact, renderer)`: what `ablations`, `characterize`, `figure2`,
/// `figure3`, `figure7`, `table2`, `table2 --quick` and `figures4_5` print
/// with their default options; `figure8`'s model table, without the
/// wall-clock lines it prints after it; the machine registry listing
/// followed by every registered machine's characterization at 8 nodes;
/// what `io_accuracy` prints, and what `advise --quick` prints alone and
/// with `--machines ipsc860,torus3d,fattree,multicore`, each with
/// `--threads 1` and `--threads 2`; the service's answer to
/// `examples/serve_predict_request.json`; and the metrics summary `serve
/// chaos --quick --metrics-out` writes at 1, 4 and 8 workers.
const GOLDENS: &[(&str, Render)] = &[
    ("artifacts_ablations.txt", ablations_text),
    ("artifacts_characterize.txt", || {
        characterize_text(&calibrated_machine_for(DEFAULT_MACHINE, 8).unwrap(), 8)
    }),
    ("artifacts_machine_calibration.txt", machine_calibration),
    ("artifacts_figure2.txt", figure2_text),
    ("artifacts_figure3.txt", || figure3_text(16, 4)),
    ("artifacts_figure7.txt", || figure7_text(256, 4)),
    ("artifacts_figure8.txt", figure8_text),
    ("artifacts_table2.txt", || {
        let cfg = SweepConfig::default();
        table2_text(&table2(&cfg).rows, cfg.runs)
    }),
    ("artifacts_table2_quick.txt", || {
        let cfg = SweepConfig::quick();
        table2_text(&table2(&cfg).rows, cfg.runs)
    }),
    ("artifacts_figures4_5.txt", || figures4_5(200, 256).0),
    ("artifacts_advisor_laplace.txt", || advise_quick(1)),
    ("artifacts_advisor_laplace.txt", || advise_quick(2)),
    ("artifacts_advisor_cross_machine.txt", || advise_cross(1)),
    ("artifacts_advisor_cross_machine.txt", || advise_cross(2)),
    ("artifacts_io_accuracy.txt", || io_accuracy_table(1)),
    ("artifacts_io_accuracy.txt", || io_accuracy_table(2)),
    ("artifacts_serve_predict.json", serve_predict),
    ("artifacts_chaos_metrics.json", || chaos_metrics(1)),
    ("artifacts_chaos_metrics.json", || chaos_metrics(4)),
    ("artifacts_chaos_metrics.json", || chaos_metrics(8)),
];

/// `characterize --list-machines`, then for each registered backend a blank
/// line, a `==== machine: <name> (8 nodes) ====` header and
/// `characterize --machine <name> 8`.
fn machine_calibration() -> String {
    let mut out = machines_text();
    for name in ["ipsc860", "torus3d", "fattree", "multicore"] {
        let m = calibrated_machine_for(name, 8).unwrap();
        out.push_str(&format!("\n==== machine: {name} (8 nodes) ====\n"));
        out.push_str(&characterize_text(&m, 8));
    }
    out
}

/// `io_accuracy --threads <threads>`.
fn io_accuracy_table(threads: usize) -> String {
    let cfg = IoAccuracyConfig {
        threads,
        ..IoAccuracyConfig::default()
    };
    io_accuracy_text(&cfg, &io_accuracy(&cfg).unwrap())
}

/// `POST /v1/predict` of `examples/serve_predict_request.json`, answered
/// in process by a fresh service.
fn serve_predict() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let request = Request {
        method: "POST".into(),
        path: "/v1/predict".into(),
        query: String::new(),
        headers: Vec::new(),
        body: std::fs::read(root.join("examples/serve_predict_request.json")).unwrap(),
    };
    let response = Api::new(&CacheConfig::default()).handle(&request);
    assert_eq!(response.status, 200);
    String::from_utf8(response.body.to_vec()).unwrap()
}

/// `serve chaos --quick --workers <workers> --metrics-out`: the seeded
/// chaos plan against an in-process server, whose resilience contract
/// must hold.
fn chaos_metrics(workers: usize) -> String {
    let report = chaos::run(&ChaosConfig {
        workers,
        ..ChaosConfig::quick()
    })
    .unwrap();
    assert!(report.passed(), "{}", report.render());
    format!("{}\n", report.metrics_summary.pretty())
}

/// The advisor `advise` builds for its default kernel.
fn laplace_advisor() -> Advisor {
    let kernel = kernel_by_name("Laplace (Blk-Blk)").unwrap();
    Advisor::for_kernel(&CompiledKernel::new(&kernel).unwrap()).unwrap()
}

fn quick(threads: usize) -> AdvisorConfig {
    AdvisorConfig {
        threads,
        ..AdvisorConfig::quick()
    }
}

/// `advise --quick --threads <threads>`.
fn advise_quick(threads: usize) -> String {
    render_table(&laplace_advisor().search(&quick(threads)).unwrap())
}

/// `advise --quick --threads <threads> --machines ipsc860,torus3d,fattree,multicore`.
fn advise_cross(threads: usize) -> String {
    let machines = ["ipsc860", "torus3d", "fattree", "multicore"].map(String::from);
    render_cross_table(
        &laplace_advisor()
            .search_cross(&quick(threads), &machines)
            .unwrap(),
    )
}

#[test]
fn report_artifacts_match_goldens() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let update = std::env::var_os("UPDATE_GOLDENS").is_some();
    let mut drifted = Vec::new();
    for &(file, render) in GOLDENS {
        let got = render();
        let path = root.join(file);
        if update {
            std::fs::write(&path, &got).expect("write golden");
            continue;
        }
        let want = std::fs::read_to_string(&path).expect("golden file present");
        if got != want {
            let diff: Vec<String> = want
                .lines()
                .zip(got.lines())
                .filter(|(w, g)| w != g)
                .map(|(w, g)| format!("- {w}\n+ {g}"))
                .collect();
            drifted.push(format!(
                "{file} ({} vs {} lines):\n{}",
                want.lines().count(),
                got.lines().count(),
                diff.join("\n")
            ));
        }
    }
    assert!(
        drifted.is_empty(),
        "drifted from golden:\n{}",
        drifted.join("\n")
    );
}
