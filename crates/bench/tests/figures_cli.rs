//! Command-line hygiene of the `figures` binary: a bad flag value is a
//! one-line usage error with exit code 2, reported while the arguments are
//! parsed, never a panic with a backtrace.

use std::process::Command;

#[test]
fn bad_flag_values_exit_2_with_one_line_and_no_backtrace() {
    // `--table1` alone would print the table at once; with a bad flag
    // nothing may reach stdout.
    for args in [
        vec!["--table1", "--seeds", "abc"],
        vec!["--table1", "--seeds", "0"],
        vec!["--table1", "--out"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(&args)
            .env("RUST_BACKTRACE", "1")
            .output()
            .expect("figures binary runs");
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
