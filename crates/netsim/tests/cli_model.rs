//! `ccr-experiments model` answers a configuration it cannot build with a
//! typed error and exit status 2, never a panic.

use std::process::{Command, Output};

fn model(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ccr-experiments"))
        .arg("model")
        .args(args)
        .output()
        .expect("ccr-experiments runs")
}

#[test]
fn invalid_configurations_exit_2_without_a_panic() {
    for args in [
        ["--nodes", "1"],
        ["--nodes", "65"],
        ["--link-m", "-1"],
        ["--link-m", "1e300"],
    ] {
        let out = model(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            stderr.contains("invalid configuration"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn a_short_slot_falls_back_to_the_minimum() {
    let out = model(&["--nodes", "16", "--slot-bytes", "10"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains("using the minimum feasible slot"),
        "{stderr}"
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("U_max (Eq. 6)"));
}
