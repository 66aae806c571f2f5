//! Integration tests for the resilient sweep orchestrator: blast-radius
//! containment (panic / hang / transient-timeout injections), the
//! crash-resumable NDJSON journal, quarantined-cell crash dumps
//! round-tripping through `cmpsim-cli replay`, and planned cells judged
//! against their fault-free golden twins.

use cmpsim::replay::Value;
use cmpsim::{
    parse_journal, parse_plans, resume_sweep, run_sweep, Benchmark, CellState, FaultPlan,
    Injection, ProtocolKind, ReplayArtifact, SweepOptions, SweepSpec, SystemConfig,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

/// A fresh directory in the system temp dir, removed with everything
/// in it when dropped.
struct TempDir(PathBuf);

impl Deref for TempDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn temp_dir(tag: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!("cmpsim-orch-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    TempDir(dir)
}

fn small_spec() -> SweepSpec {
    SweepSpec {
        protocols: vec![ProtocolKind::Directory, ProtocolKind::DiCo],
        benchmarks: vec![Benchmark::Radix, Benchmark::Lu],
        seeds: vec![],
        plans: vec![],
        base: SystemConfig::smoke(),
    }
}

fn options(dir: &Path) -> SweepOptions {
    SweepOptions {
        threads: Some(2),
        out_dir: dir.to_path_buf(),
        backoff_ms: 5,
        ..SweepOptions::default()
    }
}

/// The ISSUE acceptance scenario: a sweep with an injected panic, an
/// injected hang and a transient fault completes every other cell,
/// retries the transient one to success, and quarantines the two
/// unrecoverable ones with typed E-codes in journal and report.
#[test]
fn acceptance_panic_hang_flaky() {
    let dir = temp_dir("accept");
    let mut opts = options(&dir);
    opts.deadline_ms = Some(2_000);
    opts.retries = 1;
    opts.injections = vec![
        Injection::Panic { cell: 0 },
        Injection::Hang { cell: 1 },
        Injection::Flaky { cell: 2, failures: 1 },
    ];
    let outcome = run_sweep(&small_spec(), &opts).unwrap();
    assert!(!outcome.ok());
    assert_eq!(outcome.cells.len(), 4);

    match &outcome.states[0] {
        CellState::Quarantined { attempts, error } => {
            assert_eq!(error.code, "E-PANIC");
            assert_eq!(*attempts, 1, "panics are deterministic: no retry");
        }
        other => panic!("cell 0 should be quarantined, got {other:?}"),
    }
    match &outcome.states[1] {
        CellState::Quarantined { attempts, error } => {
            assert_eq!(error.code, "E-TIMEOUT");
            assert_eq!(*attempts, 2, "timeouts are transient: one retry");
        }
        other => panic!("cell 1 should be quarantined, got {other:?}"),
    }
    match &outcome.states[2] {
        CellState::Done { attempts, artifact, .. } => {
            assert_eq!(*attempts, 2, "flaky cell succeeds on the retry");
            assert!(artifact.is_file());
        }
        other => panic!("cell 2 should be done, got {other:?}"),
    }
    match &outcome.states[3] {
        CellState::Done { attempts, .. } => assert_eq!(*attempts, 1),
        other => panic!("cell 3 should be done, got {other:?}"),
    }

    let report = outcome.report_markdown();
    assert!(report.contains("## Failed cells"), "{report}");
    assert!(report.contains("E-PANIC"), "{report}");
    assert!(report.contains("E-TIMEOUT"), "{report}");
    assert!(report.contains("PARTIAL"), "{report}");

    let journal = std::fs::read_to_string(dir.join("sweep.ndjson")).unwrap();
    assert!(journal.contains("\"event\":\"retrying\""), "{journal}");
    assert!(journal.contains("\"code\":\"E-PANIC\""), "{journal}");
    assert!(journal.contains("\"code\":\"E-TIMEOUT\""), "{journal}");
    assert!(journal.contains("\"event\":\"finish\""), "{journal}");
}

/// Identical cells (same run_id) dispatch once and share the artifact.
#[test]
fn duplicate_seeds_dedup_through_ledger() {
    let dir = temp_dir("dedup");
    let mut spec = small_spec();
    spec.benchmarks = vec![Benchmark::Radix];
    spec.seeds = vec![7, 7];
    let outcome = run_sweep(&spec, &options(&dir)).unwrap();
    assert!(outcome.ok());
    assert_eq!(outcome.cells.len(), 4);
    let mut dispatched = 0;
    for s in &outcome.states {
        match s {
            CellState::Done { attempts: 1, dedup_of: None, .. } => dispatched += 1,
            CellState::Done { attempts: 0, dedup_of: Some(_), .. } => {}
            other => panic!("unexpected state {other:?}"),
        }
    }
    assert_eq!(dispatched, 2, "two unique run_ids, two executions");
}

/// A second sweep over the same spec and out_dir reuses every artifact
/// (content-hash ledger) without recomputing, byte-identically.
#[test]
fn rerun_is_fully_cached() {
    let dir = temp_dir("cache");
    let opts = options(&dir);
    let first = run_sweep(&small_spec(), &opts).unwrap();
    assert!(first.ok());
    let bytes: BTreeMap<PathBuf, Vec<u8>> = first
        .states
        .iter()
        .map(|s| match s {
            CellState::Done { artifact, .. } => {
                (artifact.clone(), std::fs::read(artifact).unwrap())
            }
            _ => unreachable!(),
        })
        .collect();

    let second = run_sweep(&small_spec(), &opts).unwrap();
    assert!(second.ok());
    for s in &second.states {
        match s {
            CellState::Done { attempts, cached, dedup_of: None, artifact } => {
                assert_eq!(*attempts, 0, "cached cells never execute");
                assert!(*cached);
                assert_eq!(std::fs::read(artifact).unwrap(), bytes[artifact]);
            }
            CellState::Done { dedup_of: Some(_), .. } => {}
            other => panic!("unexpected state {other:?}"),
        }
    }
}

/// The ledger reuses only artifacts that record the run's end state: a
/// cell whose artifact lacks the `arch.*` counters runs again and
/// writes them back.
#[test]
fn artifacts_without_arch_state_are_recomputed() {
    let dir = temp_dir("no-arch");
    let opts = options(&dir);
    let first = run_sweep(&small_spec(), &opts).unwrap();
    let CellState::Done { artifact, .. } = &first.states[0] else { panic!("{first:?}") };
    let full = std::fs::read_to_string(artifact).unwrap();
    let stripped: String = full.split_inclusive('\n').filter(|l| !l.contains("\"arch.")).collect();
    assert_eq!(full.lines().count() - stripped.lines().count(), 6, "six arch.* counters");
    std::fs::write(artifact, stripped).unwrap();
    let second = run_sweep(&small_spec(), &opts).unwrap();
    match &second.states[0] {
        CellState::Done { attempts: 1, cached: false, .. } => {}
        other => panic!("an arch-less artifact must not be reused: {other:?}"),
    }
    assert_eq!(std::fs::read_to_string(artifact).unwrap(), full);
    assert!(matches!(second.states[1], CellState::Done { cached: true, .. }));
}

/// The journal's start line carries the whole spec: parsing it back
/// re-expands to the same cells and run_ids.
#[test]
fn journal_round_trips_the_spec() {
    let dir = temp_dir("roundtrip");
    let opts = options(&dir);
    let outcome = run_sweep(&small_spec(), &opts).unwrap();
    let text = std::fs::read_to_string(dir.join("sweep.ndjson")).unwrap();
    let parsed = parse_journal(&text, &dir).unwrap();
    let cells = parsed.spec.expand();
    assert_eq!(cells.len(), outcome.cells.len());
    for (a, b) in cells.iter().zip(&outcome.cells) {
        assert_eq!(a.manifest.run_id, b.manifest.run_id);
        assert_eq!(a.name(), b.name());
    }
    assert_eq!(parsed.terminal.len(), 4, "all four cells journaled terminal");
}

/// A tuned plan does not survive the journal's `mode@seed` spec, so its
/// cells re-expand with other run ids. Resuming must refuse, naming the
/// first such cell, rather than skip them as terminal.
#[test]
fn resume_refuses_a_journal_whose_run_ids_drifted() {
    let dir = temp_dir("drift");
    let opts = options(&dir);
    let mut plan = FaultPlan::recoverable(5);
    plan.retry_cap = 3;
    let spec = SweepSpec { plans: vec![Some(plan)], ..small_spec() };
    let outcome = run_sweep(&spec, &opts).unwrap();
    assert_eq!(outcome.cells.len(), 8);
    assert!(outcome.ok(), "violations: {:?}", outcome.violations());
    let Err(err) = resume_sweep(&dir.join("sweep.ndjson"), Some(2)) else {
        panic!("a journal whose run ids drifted was resumed");
    };
    let first = &outcome.cells[4];
    assert!(first.dedup_of.is_none() && first.golden.is_some(), "cell 4 is the first planned cell");
    assert!(err.contains("journal cell 4") && err.contains(&first.manifest.run_id), "{err}");
}

/// A quarantined cell's crash dump lies under `D/crash/`, its journal
/// line names it `crash/<file>`, it loads back byte for byte, and it
/// round-trips through `cmpsim-cli replay`: the replay reproduces the
/// original failure (same kind, same cycle) and exits zero. Fixed seed,
/// deterministic.
#[test]
fn quarantined_crash_dump_replays() {
    let dir = temp_dir("replay");
    let mut spec = small_spec();
    spec.protocols = vec![ProtocolKind::Directory];
    spec.benchmarks = vec![Benchmark::Radix];
    // An absurdly small event budget is a deterministic failure: the
    // watchdog trips, a crash dump is written, the cell quarantines.
    spec.base = spec.base.with_event_budget(500);
    let outcome = run_sweep(&spec, &options(&dir)).unwrap();
    assert!(!outcome.ok());
    let [CellState::Quarantined { error: err, .. }] = &outcome.states[..] else {
        panic!("expected one quarantined cell, got {:?}", outcome.states)
    };
    assert_eq!(err.code, "E-STALL");
    assert!(!err.transient, "watchdog stalls quarantine immediately");
    let artifact = err.artifact.as_ref().expect("stalls write a replay artifact");
    let file = artifact.file_name().unwrap().to_str().unwrap();
    assert_eq!(*artifact, dir.join("crash").join(file));
    let journal = std::fs::read_to_string(dir.join("sweep.ndjson")).unwrap();
    assert!(journal.contains(&format!("\"artifact\":\"crash/{file}\"")), "{journal}");
    let report = outcome.report_markdown();
    assert!(report.contains(&format!("(crash dump: `crash/{file}`)")), "{report}");
    let text = std::fs::read_to_string(artifact).unwrap();
    assert_eq!(ReplayArtifact::load(artifact).unwrap().to_json(), text);

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cmpsim-cli"))
        .arg("replay")
        .arg(artifact)
        .output()
        .expect("replay runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "replay exited {:?}: {stdout}", out.status.code());
    assert!(stdout.contains("reproduced"), "{stdout}");
}

/// Reference sweep shared by the kill-point property: journal text,
/// terminal state set, and every artifact's bytes.
struct Reference {
    dir: TempDir,
    journal: String,
    states: Vec<(usize, String)>,
    artifacts: BTreeMap<PathBuf, Vec<u8>>,
}

fn reference() -> &'static Reference {
    static REF: OnceLock<Reference> = OnceLock::new();
    REF.get_or_init(|| {
        let dir = temp_dir("killpoint");
        let opts = options(&dir);
        let outcome = run_sweep(&small_spec(), &opts).unwrap();
        assert!(outcome.ok());
        let artifacts = outcome
            .states
            .iter()
            .map(|s| match s {
                CellState::Done { artifact, .. } => {
                    (artifact.clone(), std::fs::read(artifact).unwrap())
                }
                _ => unreachable!(),
            })
            .collect();
        Reference {
            journal: std::fs::read_to_string(dir.join("sweep.ndjson")).unwrap(),
            dir,
            states: outcome.state_set(),
            artifacts,
        }
    })
}

/// Cases of `resume_from_any_kill_point`; the last one to finish
/// removes the shared reference sweep, which a static never drops.
const KILL_POINT_CASES: u32 = 12;
static KILL_POINTS_DONE: AtomicU32 = AtomicU32::new(0);

proptest! {
    #![proptest_config(ProptestConfig { cases: KILL_POINT_CASES, ..ProptestConfig::default() })]

    /// Crash-resume property: truncating the journal at ANY byte
    /// offset past the start line (simulating `kill -9` mid-write,
    /// torn trailing line included) and resuming converges to the
    /// same terminal state set with byte-identical artifacts.
    #[test]
    fn resume_from_any_kill_point(cut in 0usize..10_000) {
        let r = reference();
        let start_len = r.journal.find('\n').unwrap() + 1;
        let offset = start_len + cut % (r.journal.len() - start_len + 1);
        let truncated = r.dir.join(format!("cut-{offset}.ndjson"));
        std::fs::write(&truncated, &r.journal.as_bytes()[..offset]).unwrap();

        let outcome = resume_sweep(&truncated, Some(2)).unwrap();
        prop_assert!(outcome.ok());
        prop_assert_eq!(outcome.state_set(), r.states.clone());
        for (path, bytes) in &r.artifacts {
            prop_assert_eq!(&std::fs::read(path).unwrap(), bytes, "artifact {} diverged", path.display());
        }
        let _ = std::fs::remove_file(&truncated);
        if KILL_POINTS_DONE.fetch_add(1, Ordering::SeqCst) + 1 == KILL_POINT_CASES {
            let _ = std::fs::remove_dir_all(&*r.dir);
        }
    }
}

/// The chip and budget of `cmpsim-cli sweep --refs 400`, on which the
/// DiCo-Arin/radix cells under `chaos@2006` and `chaos@2007` both end
/// in an unrecoverable fault at cycle 636000.
fn arin_radix(plans: &str) -> SweepSpec {
    SweepSpec {
        protocols: vec![ProtocolKind::DiCoArin],
        benchmarks: vec![Benchmark::Radix],
        seeds: vec![],
        plans: parse_plans(plans).unwrap(),
        base: SystemConfig::small().with_refs(400),
    }
}

/// Every class a planned sweep reports: a recovered cell verified
/// against its golden twin, a typed error with a crash dump, a panic,
/// and — after the golden's recorded end state is tampered with and the
/// judged cell's artifact deleted — a silent divergence found on resume.
#[test]
fn every_outcome_class_is_produced() {
    let dir = temp_dir("classes");
    let mut opts = options(&dir);
    opts.injections = vec![Injection::Panic { cell: 3 }];
    let spec = arin_radix("recoverable@1000,chaos@2006,recoverable@1001");
    let outcome = run_sweep(&spec, &opts).unwrap();
    let statuses: Vec<&str> = outcome.states.iter().map(CellState::status).collect();
    assert_eq!(statuses, ["done", "done", "faulted", "quarantined"]);
    assert_eq!(outcome.cells[1].golden, Some(0));
    let CellState::Done { artifact: golden, .. } = &outcome.states[0] else { unreachable!() };
    let CellState::Done { artifact: judged, .. } = &outcome.states[1] else { unreachable!() };
    assert!(std::fs::read_to_string(judged).unwrap().contains("\"sim.effective_cycles\""));
    match &outcome.states[2] {
        CellState::Faulted { error, .. } => {
            assert_eq!(error.code, "E-FAULT");
            assert!(error.artifact.as_ref().is_some_and(|p| p.is_file()), "{error:?}");
        }
        other => panic!("{other:?}"),
    }
    match &outcome.states[3] {
        CellState::Quarantined { error, .. } => assert_eq!(error.code, "E-PANIC"),
        other => panic!("{other:?}"),
    }
    assert!(!outcome.ok(), "a panic is a violation");

    let text = std::fs::read_to_string(golden).unwrap();
    let key = "\"arch.version_digest\": ";
    let at = text.find(key).unwrap() + key.len();
    let end = at + text[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
    std::fs::write(golden, format!("{}12345{}", &text[..at], &text[end..])).unwrap();
    std::fs::remove_file(judged).unwrap();
    let resumed = resume_sweep(&dir.join("sweep.ndjson"), Some(2)).unwrap();
    match &resumed.states[1] {
        CellState::Diverged { golden: 0, detail, artifact, .. } => {
            assert!(detail.starts_with("version_digest: golden=12345 faulty="), "{detail}");
            assert!(artifact.is_file(), "a diverged cell keeps its metrics artifact");
        }
        other => panic!("tampered golden should make cell 1 diverge, got {other:?}"),
    }
    assert_eq!(resumed.skipped, 3);
    assert!(resumed.report_markdown().contains("**diverged** from golden cell 0"));
    let journal = std::fs::read_to_string(dir.join("sweep.ndjson")).unwrap();
    assert!(journal.contains("\"event\":\"diverged\",\"cell\":1,"), "{journal}");
}

/// A seeded plan fires the same faults at the same cycle on every
/// attempt, so a faulting planned cell settles on its first attempt.
#[test]
fn deterministic_faults_are_not_retried() {
    let dir = temp_dir("no-retry");
    let opts = options(&dir);
    let outcome = run_sweep(&arin_radix("chaos@2000,chaos@2001"), &opts).unwrap();
    assert!(outcome.ok());
    for s in &outcome.states[1..] {
        match s {
            CellState::Faulted { attempts, error } => {
                assert_eq!(*attempts, 1);
                assert!(!error.transient);
            }
            other => panic!("expected a faulted cell, got {other:?}"),
        }
    }
    let journal = std::fs::read_to_string(dir.join("sweep.ndjson")).unwrap();
    assert!(!journal.contains("\"event\":\"retrying\""), "{journal}");
}

/// Two cells failing at the same cycle write two crash dumps, each
/// stamped with its own cell's run id.
#[test]
fn crash_dumps_of_cells_failing_at_one_cycle_stay_distinct() {
    let dir = temp_dir("dumps");
    let outcome = run_sweep(&arin_radix("chaos@2006,chaos@2007"), &options(&dir)).unwrap();
    let mut dumps = Vec::new();
    for (c, s) in outcome.cells.iter().zip(&outcome.states).skip(1) {
        let CellState::Faulted { error, .. } = s else { panic!("{s:?}") };
        let path = error.artifact.clone().unwrap();
        let doc = Value::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let run_id = doc.field("manifest").unwrap().field("run_id").unwrap().as_str().unwrap();
        assert_eq!(run_id, c.manifest.run_id, "{}", path.display());
        dumps.push((path, ReplayArtifact::load(&error.artifact.clone().unwrap()).unwrap()));
    }
    assert_eq!(dumps[0].1.failing_cycle, dumps[1].1.failing_cycle);
    assert_ne!(dumps[0].0, dumps[1].0);
}

/// `kill -9` at any line of a planned sweep's journal leaves only the
/// artifacts of cells journaled terminal; resuming converges to the
/// same states and byte-identical artifacts, judging planned cells
/// against golden artifacts written before the kill.
#[test]
fn killed_planned_sweep_resumes_byte_identical() {
    let dir = temp_dir("planned-kill");
    let opts = options(&dir);
    let spec = SweepSpec { plans: parse_plans("recoverable@1,chaos@2").unwrap(), ..small_spec() };
    let reference = run_sweep(&spec, &opts).unwrap();
    let artifact = |i: usize| dir.join(reference.cells[i].artifact_name());
    let bytes: BTreeMap<usize, Vec<u8>> = (0..reference.cells.len())
        .filter_map(|i| Some((i, std::fs::read(artifact(i)).ok()?)))
        .collect();
    assert!(bytes.len() > reference.cells.len() / 2);
    let journal = std::fs::read_to_string(dir.join("sweep.ndjson")).unwrap();
    let lines: Vec<&str> = journal.split_inclusive('\n').collect();
    for cut in 1..lines.len() {
        let kept = lines[..cut].concat();
        let terminal = parse_journal(&kept, &dir).unwrap().terminal;
        for i in (0..reference.cells.len()).filter(|i| !terminal.contains_key(i)) {
            let _ = std::fs::remove_file(artifact(i));
        }
        let truncated = dir.join(format!("cut-{cut}.ndjson"));
        std::fs::write(&truncated, kept).unwrap();
        let outcome = resume_sweep(&truncated, Some(2)).unwrap();
        assert_eq!(outcome.state_set(), reference.state_set(), "cut at line {cut}");
        for (&i, want) in &bytes {
            assert_eq!(&std::fs::read(artifact(i)).unwrap(), want, "cell {i}, cut at line {cut}");
        }
    }
}

/// A sweep directory moved after the fact resumes where it now is: the
/// journal names its files relative to it, so every finished cell is
/// skipped and nothing is written back to the old location.
#[test]
fn a_moved_sweep_directory_resumes_in_place() {
    let from = temp_dir("move-from");
    let to = temp_dir("move-to");
    std::fs::remove_dir(&to).unwrap();
    let first = run_sweep(&arin_radix("chaos@2006"), &options(&from)).unwrap();
    assert_eq!(first.state_set(), [(0, "done".into()), (1, "faulted:E-FAULT".into())]);
    std::fs::rename(&from, &to).unwrap();

    let resumed = resume_sweep(&to.join("sweep.ndjson"), Some(2)).unwrap();
    assert_eq!(resumed.skipped, resumed.cells.len());
    assert_eq!(resumed.out_dir, *to);
    assert_eq!(resumed.state_set(), first.state_set());
    assert!(!from.exists(), "resume recreated {}", from.display());
    let journal = std::fs::read_to_string(to.join("sweep.ndjson")).unwrap();
    let old = from.to_str().unwrap();
    assert!(journal.lines().all(|l| !l.contains(old)), "{journal}");
}
