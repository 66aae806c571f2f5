//! Drives the `cmpsim-cli` binary: every subcommand fails closed on a
//! bad command line, `--out-dir` holds every artifact under one naming
//! rule, and the paper's analytic reports match their checked-in
//! captures byte for byte.

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
        &["matrix", "--bogus"],
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
        // An option the command would accept and then ignore.
        &["run", "--threads", "2"],
        &["run", "--out", "o.md", "--all-benchmarks"],
        &["matrix", "--out", "o.md", "--all-benchmarks"],
        &["matrix", "-p", "dico"],
        &["report", "-p", "dico"],
        &["report", "--attr"],
        &["report", "-b", "lu", "--all-benchmarks"],
        &["sweep", "--resume", "j.ndjson", "--plans", "chaos@1"],
        &["sweep", "--resume", "j.ndjson", "--out-dir", "d"],
        &[
            "report",
            "-b",
            "radix",
            "--trace-out",
            "t.json",
            "--metrics-out",
            "m.json",
            "--manifest-out",
            "x.json",
            "--heatmap-out",
            "h.json",
        ],
        // Retired commands and per-artifact output flags.
        &["stats"],
        &["breakdown", "--metrics-out", "m.json", "--vmstat-out", "v.json", "--progress-out", "p"],
        &["vmstat", "--breakdown-out", "b.json", "--series-out", "s.json"],
        &["report", "--out", "r.md"],
        &["sweep", "--report-out", "r.md"],
        // A missing value.
        &["run", "-n"],
        &["run", "-p"],
        &["matrix", "--out-dir"],
        &["report", "-b"],
        &["report", "--seed"],
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
        &["run", "-p", "foo"],
        &["run", "-b", "foo"],
        &["matrix", "--threads", "0"],
        &["matrix", "--faults", "sometimes"],
        &["report", "-n", "x"],
        &["report", "-b", "foo"],
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
    let retired = [
        "--trace-out",
        "--series-out",
        "--metrics-out",
        "--breakdown-out",
        "--vmstat-out",
        "--heatmap-out",
        "--manifest-out",
        "--host-profile-out",
        "--progress-out",
    ];
    let mut lines: Vec<Vec<&str>> = cases.iter().map(|c| c.to_vec()).collect();
    for cmd in [&["run"][..], &["matrix"], &["report"], &["figures", "7"], &["study", "alt"]] {
        for flag in retired {
            lines.push([cmd, &[flag, "f.json"]].concat());
        }
    }
    for args in &lines {
        let out = cli(args);
        assert_fails_closed(&out, &format!("{args:?}"));
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

/// Every file under `dir`, relative to it, sorted.
fn listing(dir: &Path) -> Vec<String> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).expect("out dir exists") {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        if path.is_dir() {
            files.extend(listing(&path).into_iter().map(|f| format!("{name}/{f}")));
        } else {
            files.push(name);
        }
    }
    files.sort();
    files
}

/// The files a command writes: per cell `T.{kind}` for each of
/// `cell_kinds` and a host profile, plus `matrix_files`.
fn artifact_set(protocols: &[&str], cell_kinds: &[&str], matrix_files: &[&str]) -> Vec<String> {
    let mut want: Vec<String> = matrix_files.iter().map(|f| f.to_string()).collect();
    want.push("host/progress.ndjson".into());
    for p in protocols {
        let tag = format!("{p}-radix4x16p");
        want.extend(cell_kinds.iter().map(|k| format!("{tag}.{k}")));
        want.push(format!("host/{tag}.json"));
    }
    want.sort();
    want
}

#[test]
fn out_dir_holds_every_artifact_under_one_naming_rule() {
    let dir = scratch("out-dir");
    let sub = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let all = ["directory", "dico", "dico-providers", "dico-arin"];
    let cell = ["manifest.json", "metrics.json"];
    let heatmap = ["heatmap.csv", "heatmap.json"];
    let attributed =
        ["breakdown.csv", "breakdown.json", "heatmap.csv", "heatmap.json", "vmstat.json"];
    let observed = ["manifest.json", "metrics.json", "series.csv", "series.json", "trace.json"];
    let cases: [(Vec<&str>, Vec<String>); 3] = [
        (vec!["run", "-p", "dico"], artifact_set(&["dico"], &cell, &heatmap)),
        (
            vec!["matrix", "--attr", "--interval", "500", "--trace"],
            artifact_set(&all, &observed, &attributed),
        ),
        (vec!["report"], artifact_set(&all, &cell, &[&attributed[..], &["report.md"]].concat())),
    ];
    for (args, want) in cases {
        let out_dir = sub(args[0]);
        let out = cli(&[&args[..], &["-b", "radix", "-n", "200", "--out-dir", &out_dir]].concat());
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(listing(Path::new(&out_dir)), want, "{args:?}");
    }
    let md = std::fs::read_to_string(dir.join("report/report.md")).unwrap();
    assert!(md.starts_with("# cmpsim matrix report") && md.contains("```text\n"), "{md}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two runs of one command compare clean (their host profiles differ,
/// but `compare` does not read `D/host/`), and a drifted metric fails
/// the gate naming its file and metric.
#[test]
fn compare_gates_two_out_dirs() {
    let dir = scratch("compare");
    let (a, b) = (dir.join("a"), dir.join("b"));
    let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());
    for d in [a, b] {
        let out = cli(&["matrix", "-b", "radix", "-n", "200", "--out-dir", d]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let clean = cli(&["compare", a, b]);
    assert_eq!(clean.status.code(), Some(0), "{}", String::from_utf8_lossy(&clean.stdout));

    let file = "dico-radix4x16p.metrics.json";
    let path = Path::new(b).join(file);
    let text = std::fs::read_to_string(&path).unwrap();
    let key = "\"sim.cycles\": ";
    let at = text.find(key).expect("sim.cycles counter") + key.len();
    let end = at + text[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let bumped = text[at..end].parse::<u64>().unwrap() + 1000;
    std::fs::write(&path, format!("{}{bumped}{}", &text[..at], &text[end..])).unwrap();
    let diff = dir.join("diff.json");
    let drifted = cli(&["compare", a, b, "--out", diff.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&drifted.stdout);
    assert_eq!(drifted.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains(&format!("{file}: counters.sim.cycles")), "{stdout}");
    let diff = std::fs::read_to_string(diff).unwrap();
    assert!(diff.contains(file) && diff.contains("counters.sim.cycles"), "{diff}");
    let _ = std::fs::remove_dir_all(&dir);
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
