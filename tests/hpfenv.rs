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
