//! Command-line hygiene of the `figures` binary: a bad flag value is a
//! one-line usage error with exit code 2, reported while the arguments are
//! parsed, and an output directory that cannot be created is one line with
//! exit code 1 — never a panic with a backtrace.

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

#[test]
fn unwritable_out_dir_exits_1_with_one_line_and_no_backtrace() {
    let dir = std::env::temp_dir().join(format!("figures_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("regular_file");
    std::fs::write(&file, "not a directory").expect("temp file");
    let out_dir = file.join("out");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--table1", "--out"])
        .arg(&out_dir)
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("figures binary runs");
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr {stderr:?}");
    assert_eq!(stderr.lines().count(), 1, "stderr {stderr:?}");
    assert!(
        stderr.contains("cannot create output directory") && !stderr.contains("panicked"),
        "stderr {stderr:?}"
    );
    assert!(out.stdout.is_empty(), "ran before failing on --out");
}
