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
        &["list", "--bogus"],
        &["study", "hops", "-n", "5"],
        &["figures", "7", "--threads", "2"],
        &["sweep", "--mode", "chaos"],
        &["sweep", "--json-out", "chaos.json"],
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
        &["sweep", "--plans"],
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
        &["sweep", "--plans", "sometimes@1"],
        // A missing argument or command.
        &["compare", "a.json"],
        &["replay"],
        &["study"],
        &["chaos"],
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

/// A scratch directory unique to this process and `tag`.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cmpsim-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Asserts `out` is a usage failure: exit 2 and exactly one `error:`
/// line on stderr.
fn assert_fails_closed(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert!(stderr.starts_with("error: ") && stderr.lines().count() == 1, "{what}: {stderr}");
}

#[test]
fn the_environment_is_not_a_run_input() {
    let args = ["run", "-p", "dico", "-b", "radix", "-n", "300"];
    let bin = env!("CARGO_BIN_EXE_cmpsim-cli");
    let retired = ["CMPSIM_FAULTS", "CMPSIM_THREADS", "CMPSIM_TRACE", "CMPSIM_TRACE_BLOCK"];
    let mut clean = Command::new(bin);
    clean.args(args);
    for var in retired {
        clean.env_remove(var);
    }
    let clean = clean.output().expect("cmpsim-cli runs");
    let exported = Command::new(bin)
        .args(args)
        .envs(retired.into_iter().zip(["recoverable@7", "0", "1", "64"]))
        .output()
        .expect("cmpsim-cli runs");
    for out in [&clean, &exported] {
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    assert_eq!(String::from_utf8_lossy(&clean.stdout), String::from_utf8_lossy(&exported.stdout));
}

#[test]
fn bad_plan_ranges_fail_closed() {
    for range in [
        "recoverable@5..5",
        "recoverable@8..5",
        "chaos@1..18446744073709551616",
        "recoverable@..5",
        "chaos@2000..",
        "chaos@0..18446744073709551615",
    ] {
        assert_fails_closed(&cli(&["sweep", "--plans", range]), range);
    }
}

#[test]
fn replay_refuses_a_config_the_simulator_cannot_build() {
    use cmpsim::{Benchmark, ProtocolKind, ReplayArtifact, SystemConfig};
    let dir = scratch("tampered");
    let art = ReplayArtifact::new(
        ProtocolKind::DiCo,
        Benchmark::Radix,
        "stalled",
        1_000,
        2_000,
        &SystemConfig::paper(),
    );
    let path = art.save(Some(&dir)).unwrap();
    let json = std::fs::read_to_string(&path).unwrap();
    let noc = json.find("\"noc\": {").unwrap();
    let (head, tail) = json.split_at(noc);
    for tampered in [
        format!("{head}{}", tail.replacen("\"cols\": 8", "\"cols\": 7", 1)),
        json.replacen("\"mem_controllers\": 8", "\"mem_controllers\": 0", 1),
        json.replacen("\"num_vms\": 4", "\"num_vms\": 0", 1),
    ] {
        assert_ne!(tampered, json);
        std::fs::write(&path, &tampered).unwrap();
        assert_fails_closed(&cli(&["replay", path.to_str().unwrap()]), &tampered);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deeply_nested_json_is_an_input_error() {
    let dir = scratch("deep");
    let path = dir.join("deep.json");
    std::fs::write(&path, format!("{}{}", "[".repeat(200_000), "]".repeat(200_000))).unwrap();
    let p = path.to_str().unwrap();
    assert_fails_closed(&cli(&["replay", p]), "replay");
    assert_fails_closed(&cli(&["compare", p, p]), "compare");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A panic inside a sweep cell is recorded as the cell's `E-PANIC`
/// with its message, and the panic hook prints nothing for it.
#[test]
fn caught_cell_panics_stay_off_stderr() {
    let dir = std::env::temp_dir().join(format!("cmpsim-cli-panic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out_dir = dir.to_str().expect("utf-8 temp dir");
    let mut args: Vec<&str> =
        "sweep -p directory -b radix --refs 200 --inject panic@0 --out-dir".split(' ').collect();
    args.push(out_dir);
    let out = cli(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("[E-PANIC]: injected panic in cell 0"), "{stderr}");
    assert!(!stderr.contains("panicked at"), "{stderr}");
    let journal = std::fs::read_to_string(dir.join("sweep.ndjson")).expect("journal");
    assert!(journal.contains("\"error\":\"injected panic in cell 0\""), "{journal}");
    let _ = std::fs::remove_dir_all(&dir);
}
