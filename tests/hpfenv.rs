//! The interactive environment's REPL loop, end to end: a scripted session
//! sets the node count, loads a kernel, runs the directive search, selects
//! a machine by name and compares prediction against simulation, exactly
//! as `hpfenv --batch` does on stdin.

use hpf_advisor::Session;

const SCRIPT: &str = "\
set nodes 4
kernel Laplace (Blk-Blk) 256
search
machine torus3d
compare
quit
";

#[test]
fn scripted_session_searches_and_compares() {
    let (mut out, mut err) = (Vec::new(), Vec::new());
    Session::new()
        .run_script(SCRIPT.as_bytes(), &mut out, &mut err, "")
        .unwrap();
    let out = String::from_utf8(out).unwrap();
    assert!(out.contains("recommended: DISTRIBUTE (BLOCK,*)"), "{out}");
    assert!(out.lines().any(|l| l.contains("|error|")), "{out}");
    assert_eq!(String::from_utf8(err).unwrap(), "");
}

/// Every number a session prints, pinned: prediction, profile, a line
/// query, simulation, both comparisons and the trace, on the iPSC/860 and
/// after switching to the 3-D torus. Line 13 of the kernel's source is
/// its FORALL.
const PINNED_SCRIPT: &str = "\
set nodes 4
kernel Laplace (Blk-Blk) 64
predict
profile
line 13
simulate 50
compare
trace
machine torus3d
compare
quit
";

#[test]
fn scripted_session_prints_pinned_numbers() {
    let (mut out, mut err) = (Vec::new(), Vec::new());
    Session::new()
        .run_script(PINNED_SCRIPT.as_bytes(), &mut out, &mut err, "")
        .unwrap();
    assert_eq!(String::from_utf8(err).unwrap(), "");
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("| FORALL (I = 2:N-1"), "{text}");
    assert_eq!(
        (
            text.len(),
            hpf90d::report::fnv1a(hpf90d::report::FNV_OFFSET, text.as_bytes())
        ),
        (2324, 0x57af_c790_2e98_3fd4),
        "{text}"
    );
}
