//! The `pp_serve` binary rejects bad command lines before it binds or
//! connects: it exits nonzero with a message on stderr.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `pp_serve args…` and returns its exit success and stderr. A run
/// that is still going after ten seconds (a server that bound anyway) is
/// killed and fails the test.
fn run(args: &[&str]) -> (bool, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pp_serve"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start pp_serve");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("poll pp_serve").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill pp_serve");
            child.wait().expect("reap pp_serve");
            panic!("pp_serve {args:?} kept running instead of rejecting its arguments");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let output = child.wait_with_output().expect("collect pp_serve");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn unknown_flags_are_rejected() {
    for args in [
        &["serve", "--addr", "127.0.0.1:0", "--runner", "2"][..],
        &["submit", "--protocol", "majority", "--agnets", "4"],
        &["ping", "--pool", "10"],
    ] {
        let (ok, stderr) = run(args);
        assert!(!ok, "{args:?} succeeded");
        let flag = args[args.len() - 2];
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn zero_max_conns_is_rejected() {
    let (ok, stderr) = run(&["serve", "--addr", "127.0.0.1:0", "--max-conns", "0"]);
    assert!(!ok, "--max-conns 0 started a server");
    assert!(
        stderr.contains("--max-conns must be at least 1"),
        "{stderr}"
    );
}
