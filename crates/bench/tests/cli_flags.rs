//! `repro` rejects out-of-range `--jobs` and `--trials` while parsing
//! its arguments, before any experiment starts a worker thread: it
//! exits 2 and names the flag on stderr.

use std::process::Command;

/// Runs `repro table1 <args>` and returns its exit code and stderr.
/// `table1` renders without worker threads, so even a flag the parser
/// wrongly accepted would start none.
fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("table1")
        .args(args)
        .output()
        .expect("repro runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_rejected(args: &[&str], flag: &str) {
    let (code, stderr) = repro(args);
    assert_eq!(code, Some(2), "{args:?} must exit 2; stderr: {stderr}");
    assert!(
        stderr.contains(flag),
        "{args:?}: stderr names {flag}: {stderr}"
    );
}

#[test]
fn zero_trials_is_rejected() {
    assert_rejected(&["--trials", "0"], "--trials");
}

#[test]
fn trials_above_the_ceiling_are_rejected() {
    assert_rejected(&["--trials", "1001"], "--trials");
    assert_rejected(&["--trials", "4000000000"], "--trials");
}

#[test]
fn jobs_above_the_ceiling_are_rejected() {
    assert_rejected(&["--jobs", "257"], "--jobs");
    assert_rejected(&["--jobs", "1000000", "--trials", "1000"], "--jobs");
}

#[test]
fn flags_in_range_are_accepted() {
    for args in [
        ["--jobs", "256", "--trials", "1000"],
        ["--jobs", "0", "--trials", "1"],
    ] {
        let (code, stderr) = repro(&args);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
    }
}
