//! A node count named on the command line reaches the paper's machine
//! through the registry, like any other machine's: one outside its range
//! is refused with the registry's typed error, not a panic and not a run
//! on a machine the registry does not describe.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("the binary starts")
}

/// The registry's message for `nodes` on the iPSC/860.
fn refusal(nodes: &str) -> String {
    format!("machine `ipsc860` cannot run on {nodes} node(s): supported node range is 1..=1024")
}

#[test]
fn characterize_refuses_node_counts_outside_the_registry_range() {
    for nodes in ["0", "2000"] {
        let out = run(env!("CARGO_BIN_EXE_characterize"), &[nodes]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "characterize {nodes}: {stderr}");
        assert_eq!(stderr, format!("error: {}\n", refusal(nodes)));
        assert!(
            out.stdout.is_empty(),
            "characterize {nodes} printed a model"
        );
    }
}

#[test]
fn faults_refuses_procs_outside_the_registry_range() {
    let out = run(env!("CARGO_BIN_EXE_faults"), &["--procs", "2048"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(
        stderr,
        format!("faults: machine error: {}\n", refusal("2048"))
    );
}

#[test]
fn characterize_refuses_arguments_it_does_not_understand() {
    for args in [
        &["abc"][..],
        &["--mahcine", "torus3d"],
        &["8", "16"],
        &["--machine", "torus3d", "4", "extra"],
    ] {
        let out = run(env!("CARGO_BIN_EXE_characterize"), args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "characterize {args:?}: {stderr}"
        );
        assert!(
            stderr.contains("usage: characterize"),
            "characterize {args:?}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "characterize {args:?} printed a model"
        );
    }
}

/// The report binaries refuse an unknown flag, a flag without its value
/// and a value that does not parse, and those that take no arguments
/// refuse any, before any sweep runs: each exits 2 with its usage line and
/// prints nothing to stdout.
#[test]
fn report_binaries_refuse_arguments_they_do_not_understand() {
    for (bin, name, args) in [
        (
            env!("CARGO_BIN_EXE_table2"),
            "table2",
            &["--quick", "--max-size", "5l2"][..],
        ),
        (
            env!("CARGO_BIN_EXE_table2"),
            "table2",
            &["--quick", "--runs", "x"],
        ),
        (env!("CARGO_BIN_EXE_table2"), "table2", &["--quik"]),
        (
            env!("CARGO_BIN_EXE_table2"),
            "table2",
            &["--quick", "--csv"],
        ),
        (
            env!("CARGO_BIN_EXE_table2"),
            "table2",
            &["--quick", "extra"],
        ),
        (
            env!("CARGO_BIN_EXE_figures4_5"),
            "figures4_5",
            &["--runs", "x"],
        ),
        (
            env!("CARGO_BIN_EXE_figures4_5"),
            "figures4_5",
            &["--max-size"],
        ),
        (env!("CARGO_BIN_EXE_figures4_5"), "figures4_5", &["--quick"]),
        (env!("CARGO_BIN_EXE_figure3"), "figure3", &["abc"]),
        (env!("CARGO_BIN_EXE_figure3"), "figure3", &["16", "4", "8"]),
        (env!("CARGO_BIN_EXE_figure7"), "figure7", &["--size", "256"]),
        (env!("CARGO_BIN_EXE_figure7"), "figure7", &["256", "four"]),
        (env!("CARGO_BIN_EXE_table1"), "table1", &["--quick"]),
        (env!("CARGO_BIN_EXE_table1"), "table1", &["extra"]),
        (env!("CARGO_BIN_EXE_figure2"), "figure2", &["--quick"]),
        (env!("CARGO_BIN_EXE_figure8"), "figure8", &["--quick"]),
        (
            env!("CARGO_BIN_EXE_ablations"),
            "ablations",
            &["--runs", "5"],
        ),
        (
            env!("CARGO_BIN_EXE_io_accuracy"),
            "io_accuracy",
            &["--help"],
        ),
        (
            env!("CARGO_BIN_EXE_io_accuracy"),
            "io_accuracy",
            &["--thread", "2"],
        ),
        (
            env!("CARGO_BIN_EXE_io_accuracy"),
            "io_accuracy",
            &["--threads"],
        ),
        (
            env!("CARGO_BIN_EXE_io_accuracy"),
            "io_accuracy",
            &["--threads", "x"],
        ),
    ] {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("usage: {name}")),
            "{name} {args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{name} {args:?} printed a report");
    }
}

/// Every flag a report binary takes appears in its usage line.
#[test]
fn usage_lines_name_every_flag() {
    for (bin, name, flags) in [
        (
            env!("CARGO_BIN_EXE_table2"),
            "table2",
            &["--quick", "--runs", "--max-size", "--csv"][..],
        ),
        (
            env!("CARGO_BIN_EXE_figures4_5"),
            "figures4_5",
            &["--runs", "--max-size", "--csv"],
        ),
        (
            env!("CARGO_BIN_EXE_io_accuracy"),
            "io_accuracy",
            &["--threads"],
        ),
    ] {
        let out = run(bin, &["--no-such-flag"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        for flag in flags {
            assert!(
                stderr.contains(&format!("[{flag}")),
                "{name}: {flag} missing from {stderr}"
            );
        }
    }
}
