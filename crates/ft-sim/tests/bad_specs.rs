//! `ftsim` refuses a malformed `network` line with exit code 1 and a
//! `line N:` diagnostic — never a panic (exit code 101) in a builder.

use std::io::Write;
use std::process::{Command, Stdio};

#[test]
fn ftsim_exits_1_with_a_line_number_on_bad_network_specs() {
    for spec in [
        "crossbar 0",
        "clos-strict 0 4",
        "clos-rearr 2 0",
        "benes 0",
        "benes 17",
        "multibutterfly 17 2 7",
        "multibutterfly 4 0 7",
        "ftn 0 8 8 1.0",
        "ftn 9 8 8 1.0",
        "ftn 1 3 4 1.0",
        "ftn 1 8 0 1.0",
        "ftn 1 8 4 1e10",
        "crossbar 65536",
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ftsim"))
            .arg("-")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("ftsim starts");
        let text = format!("# bad spec\nnetwork = {spec}\nduration = 1\n");
        child
            .stdin
            .take()
            .unwrap()
            .write_all(text.as_bytes())
            .unwrap();
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{spec}: {stderr}");
        assert!(stderr.starts_with("ftsim: line 2: "), "{spec}: {stderr}");
        assert!(out.stdout.is_empty(), "{spec}");
    }
}
