//! Command-line hygiene of the `engine_bench` binary: bad input is a
//! one-line usage error with exit code 2, never a panic with a backtrace.
//! Every case is rejected while the arguments are parsed, before any
//! scenario is built, so each invocation returns at once.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_with_one_line_and_no_backtrace() {
    let cases: &[&[&str]] = &[
        &["--mobility-nodes", "0"],
        &["--routing-nodes", "0"],
        &["--routing-nodes", "1"],
        &["--routing-nodes", "48,1"],
        &["--nodes", "1"],
        &["--nodes", "50,x"],
        &["--nodes"],
        &["--memory-nodes", "0"],
        &["--threads", "0"],
        &["--threads", "two"],
        &["--sweep-seeds", "1"],
        &["--seed", "-3"],
        &["--duration-secs", "0"],
        &["--duration-secs", "NaN"],
        &["--no-such-flag"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_engine_bench"))
            .args(*args)
            .env("RUST_BACKTRACE", "1")
            .output()
            .expect("engine_bench binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr:?}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr {stderr:?}");
        assert!(
            !stderr.contains("panicked") && !stderr.contains("backtrace"),
            "{args:?}: stderr {stderr:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: ran before rejecting");
    }
}
