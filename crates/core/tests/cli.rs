//! Drives the `cmpsim-cli` binary: every subcommand fails closed on a
//! bad command line, and the paper's analytic reports match their
//! checked-in captures byte for byte.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cmpsim-cli")).args(args).output().expect("cmpsim-cli runs")
}

fn reports() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../reports")
}

#[test]
fn bad_command_lines_exit_2_with_an_error_line() {
    let cases: &[&[&str]] = &[
        // An option the command does not take.
        &["run", "--bogus"],
        &["stats", "--bogus"],
        &["matrix", "--bogus"],
        &["breakdown", "--bogus"],
        &["vmstat", "--bogus"],
        &["report", "--bogus"],
        &["compare", "a.json", "b.json", "--bogus"],
        &["tables", "--bogus"],
        &["figures", "--bogus"],
        &["study", "alt", "--bogus"],
        &["replay", "a.json", "--bogus"],
        &["sweep", "--bogus"],
        &["chaos", "--bogus"],
        &["list", "--bogus"],
        &["study", "hops", "-n", "5"],
        &["figures", "7", "--threads", "2"],
        &["chaos", "--faults", "chaos@1"],
        // A missing value.
        &["run", "-n"],
        &["stats", "-p"],
        &["matrix", "--metrics-out"],
        &["breakdown", "-b"],
        &["vmstat", "--seed"],
        &["report", "--out"],
        &["compare", "a.json", "b.json", "--tol"],
        &["figures", "-n"],
        &["study", "area", "-n"],
        &["replay", "a.json", "--snapshot-dir"],
        &["sweep", "--seeds"],
        &["chaos", "--plans"],
        // A malformed value.
        &["run", "-n", "x"],
        &["run", "-n", "2O000"],
        &["run", "-n", "0"],
        &["run", "--threads", "0"],
        &["run", "-p", "foo"],
        &["stats", "-b", "foo"],
        &["matrix", "--threads", "0"],
        &["breakdown", "--faults", "sometimes"],
        &["vmstat", "-n", "x"],
        &["report", "-p", "foo"],
        &["compare", "a.json", "b.json", "--tol", "x"],
        &["tables", "8"],
        &["figures", "10"],
        &["figures", "7", "-n", "x"],
        &["study", "nope"],
        &["study", "density", "-n", "0"],
        &["replay", "a.json", "b.json"],
        &["sweep", "--threads", "0"],
        &["sweep", "-p", "dico,foo"],
        &["chaos", "--plans", "0"],
        &["chaos", "--mode", "sometimes"],
        &["chaos", "-p", "foo"],
        // A missing argument or command.
        &["compare", "a.json"],
        &["replay"],
        &["study"],
        &["nope"],
        &[],
    ];
    for args in cases {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}

#[test]
fn tables_match_the_captured_tables() {
    let out = cli(&["tables"]);
    assert!(out.status.success());
    let want: Vec<u8> = ["table5.txt", "table6.txt", "table7.txt"]
        .iter()
        .flat_map(|f| std::fs::read(reports().join(f)).expect("captured table"))
        .collect();
    assert_eq!(String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&want));
    for (n, file) in [("5", "table5.txt"), ("6", "table6.txt"), ("7", "table7.txt")] {
        let one = cli(&["tables", n]);
        assert_eq!(one.stdout, std::fs::read(reports().join(file)).unwrap(), "tables {n}");
    }
}

#[test]
fn hop_study_matches_its_capture() {
    let out = cli(&["study", "hops"]);
    assert!(out.status.success());
    let want = std::fs::read_to_string(reports().join("hops.txt")).unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout), want);
}

#[test]
fn per_cell_artifacts_tag_the_file_name_only() {
    let dir = std::env::temp_dir().join(format!("cmpsim-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("out.d")).unwrap();
    let m = dir.join("out.d/m");
    let out = cli(&["matrix", "-b", "radix", "-n", "200", "--metrics-out", m.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    for p in ["directory", "dico", "dico-providers", "dico-arin"] {
        assert!(dir.join(format!("out.d/m-{p}")).is_file(), "missing m-{p}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
