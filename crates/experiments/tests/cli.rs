//! `run_experiments` rejects a malformed command line with the usage
//! line and exit code 2, before any experiment runs and before any
//! file is written.

use std::fs;
use std::process::Command;

/// Runs the binary with `args` in an empty directory and asserts the
/// usage error: exit 2, nothing on stdout, no experiment started and
/// no file created.
fn assert_rejected(tag: &str, args: &[&str]) {
    let dir = std::env::temp_dir().join(format!("run-experiments-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_run_experiments"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn run_experiments");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: run_experiments"), "{args:?}: {stderr}");
    assert!(!stderr.contains("done in"), "{args:?} started an experiment: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a table");
    let written: Vec<_> = fs::read_dir(&dir).expect("read temp dir").collect();
    assert!(written.is_empty(), "{args:?} wrote {written:?}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn trailing_output_flag_without_a_path_is_rejected() {
    assert_rejected("trailing-json", &["--quick", "--json"]);
    assert_rejected("trailing-md", &["--quick", "--markdown"]);
}

#[test]
fn output_flag_does_not_take_the_next_flag_as_its_path() {
    assert_rejected("json-quick", &["--json", "--quick"]);
}

#[test]
fn unknown_argument_is_rejected() {
    assert_rejected("typo", &["--quik"]);
}
