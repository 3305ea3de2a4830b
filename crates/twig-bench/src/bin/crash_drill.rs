//! Kill-anywhere recovery drill: proves the harness is crash-only.
//!
//! ```text
//! crash_drill [--instructions N] [--root DIR] [--quick]
//! ```
//!
//! For every crashpoint registered in `twig_sched::durable::CRASHPOINTS`,
//! the drill runs the owning workflow as a subprocess with
//! `TWIG_CRASH_SPEC=<point>` armed, asserts the process died with the
//! distinctive crash exit code (a point that never fires is a registry
//! lie and fails the drill), then runs the recovery path — batch
//! `--resume`, a fresh `fleet run`, or the next `metrics regress` — and
//! asserts the recovered outputs are **byte-identical** to an uncrashed
//! reference. Batch and fleet recovery are proven at 1 and 4 workers
//! (`--quick` drops the 4-worker pass for local iteration).
//!
//! The drill also exercises the run-lock steal implicitly: every crashed
//! subprocess dies holding its results-directory `.lock`, so recovery
//! only succeeds if the dead holder's lock is detected and stolen.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use twig_sched::durable::{CRASHPOINTS, CRASH_EXIT_CODE};

/// Crashpoints drilled through `experiments fig16 --obs counters` +
/// `--resume`.
const BATCH_POINTS: &[&str] = &[
    "ckpt-tmp",
    "ckpt-published",
    "figure-tmp",
    "manifest-tmp",
    "manifest-published",
    "bench-tmp",
    "metrics-tmp",
];

/// Crashpoints drilled through `twig-cli fleet run --state-dir` + rerun.
const FLEET_POINTS: &[&str] = &[
    "ckpt-tmp",
    "ckpt-published",
    "fleet-lastgood-pre",
    "fleet-lastgood-post",
    "fleet-manifest-tmp",
    "fleet-manifest-published",
];

/// Crashpoints drilled through `twig-cli metrics regress --trajectory`.
const TRAJ_POINTS: &[&str] = &["traj-journal", "traj-published"];

fn main() {
    let mut instructions: u64 = 100_000;
    let mut root: Option<PathBuf> = None;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--instructions" => {
                instructions = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--instructions needs a number");
            }
            "--root" => root = Some(args.next().expect("--root needs a path").into()),
            "--quick" => quick = true,
            "--help" | "-h" => {
                eprintln!("usage: crash_drill [--instructions N] [--root DIR] [--quick]");
                return;
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    let root = root.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("twig-crash-drill-{}", std::process::id()))
    });
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create drill root");

    // Sibling binaries: the drill is always built alongside them.
    let exe_dir = std::env::current_exe()
        .expect("current exe")
        .parent()
        .expect("exe dir")
        .to_path_buf();
    let experiments = exe_dir.join("experiments");
    let twig_cli = exe_dir.join("twig-cli");
    for bin in [&experiments, &twig_cli] {
        assert!(
            bin.is_file(),
            "{} not found; build the workspace first (cargo build --release)",
            bin.display()
        );
    }

    let worker_counts: &[usize] = if quick { &[1] } else { &[1, 4] };
    let mut drilled: BTreeSet<&str> = BTreeSet::new();
    let mut batch_metrics: Option<PathBuf> = None;

    for &workers in worker_counts {
        let metrics = drill_batch(&experiments, &root, instructions, workers, &mut drilled);
        batch_metrics.get_or_insert(metrics);
        drill_fleet(&twig_cli, &root, workers, &mut drilled);
    }
    let metrics_dir = batch_metrics.expect("at least one batch pass ran");
    drill_trajectory(&twig_cli, &root, &metrics_dir, &mut drilled);

    // Registry honesty: every registered crashpoint must have been
    // crashed into and recovered from. A new durability boundary that is
    // registered but not wired into a drill mode fails here, loudly.
    let registered: BTreeSet<&str> = CRASHPOINTS.iter().map(|(p, _)| *p).collect();
    let missed: Vec<&&str> = registered.difference(&drilled).collect();
    assert!(
        missed.is_empty(),
        "registered crashpoints never drilled: {missed:?}"
    );
    let unknown: Vec<&&str> = drilled.difference(&registered).collect();
    assert!(unknown.is_empty(), "drilled unregistered points: {unknown:?}");

    println!(
        "crash drill PASS: {} crashpoint(s) x {} worker count(s), \
         batch + fleet + trajectory recovery all byte-identical",
        registered.len(),
        worker_counts.len()
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A subprocess command with a scrubbed TWIG_* environment: only the
/// variables the drill sets explicitly reach the child.
fn scrubbed(bin: &Path, envs: &[(&str, String)]) -> Command {
    let mut cmd = Command::new(bin);
    for var in twig_types::config::ALL_VARS {
        cmd.env_remove(var);
    }
    cmd.env_remove("RAYON_NUM_THREADS");
    for (key, value) in envs {
        cmd.env(key, value);
    }
    cmd
}

/// Runs a command to completion, asserting the expected exit code;
/// prints the child's output on mismatch.
fn run_expect(cmd: &mut Command, expected: i32, what: &str) {
    let output = cmd.output().unwrap_or_else(|e| panic!("{what}: spawn failed: {e}"));
    let code = output.status.code();
    if code != Some(expected) {
        eprintln!("--- stdout ---\n{}", String::from_utf8_lossy(&output.stdout));
        eprintln!("--- stderr ---\n{}", String::from_utf8_lossy(&output.stderr));
        panic!("{what}: expected exit {expected}, got {code:?}");
    }
}

/// Asserts two files are byte-identical.
fn assert_same(reference: &Path, recovered: &Path, what: &str) {
    let want = std::fs::read(reference)
        .unwrap_or_else(|e| panic!("{what}: cannot read {}: {e}", reference.display()));
    let got = std::fs::read(recovered)
        .unwrap_or_else(|e| panic!("{what}: cannot read {}: {e}", recovered.display()));
    if want != got {
        let at = want
            .iter()
            .zip(&got)
            .position(|(a, b)| a != b)
            .unwrap_or(want.len().min(got.len()));
        panic!(
            "{what}: {} differs from reference {} (lengths {} vs {}, first diff at byte {at})",
            recovered.display(),
            reference.display(),
            got.len(),
            want.len()
        );
    }
}

/// Sorted `*.json` names in a metrics directory.
fn metrics_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .flatten()
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".json"))
        .collect();
    names.sort();
    names
}

/// Batch mode: crash `experiments fig16` at each point, recover with
/// `--resume`, and compare the figure plus every metrics export against
/// an uncrashed reference at the same worker count. Returns the clean
/// reference's metrics directory (reused by the trajectory drill).
fn drill_batch(
    experiments: &Path,
    root: &Path,
    instructions: u64,
    workers: usize,
    drilled: &mut BTreeSet<&'static str>,
) -> PathBuf {
    let threads = ("TWIG_NUM_THREADS", workers.to_string());
    let clean = root.join(format!("batch-w{workers}-clean"));
    let base_args = |dir: &Path| {
        vec![
            "fig16".to_string(),
            "--instructions".to_string(),
            instructions.to_string(),
            "--results-dir".to_string(),
            dir.display().to_string(),
            "--obs".to_string(),
            "counters".to_string(),
        ]
    };
    run_expect(
        scrubbed(experiments, std::slice::from_ref(&threads)).args(base_args(&clean)),
        0,
        &format!("batch w{workers} clean run"),
    );
    let reference_metrics = metrics_files(&clean.join("metrics"));
    assert!(
        !reference_metrics.is_empty(),
        "clean batch run exported no metrics; the drill would prove nothing"
    );

    for &point in BATCH_POINTS {
        let what = format!("batch w{workers} @{point}");
        let dir = root.join(format!("batch-w{workers}-{point}"));
        run_expect(
            scrubbed(
                experiments,
                &[threads.clone(), ("TWIG_CRASH_SPEC", point.to_string())],
            )
            .args(base_args(&dir)),
            CRASH_EXIT_CODE,
            &format!("{what} crash run"),
        );
        // Recovery: the crashed holder's lock must be stolen, residue
        // healed, and only the missing cells recomputed.
        let mut recover_args = base_args(&dir);
        recover_args.push("--resume".to_string());
        run_expect(
            scrubbed(experiments, std::slice::from_ref(&threads)).args(recover_args),
            0,
            &format!("{what} recovery run"),
        );
        assert_same(&clean.join("fig16.txt"), &dir.join("fig16.txt"), &what);
        let recovered_metrics = metrics_files(&dir.join("metrics"));
        assert!(
            recovered_metrics == reference_metrics,
            "{what}: metrics sets differ: {recovered_metrics:?} vs {reference_metrics:?}"
        );
        for name in &reference_metrics {
            assert_same(
                &clean.join("metrics").join(name),
                &dir.join("metrics").join(name),
                &what,
            );
        }
        let manifest = std::fs::read_to_string(dir.join("run_manifest.json"))
            .unwrap_or_else(|e| panic!("{what}: read recovered manifest: {e}"));
        assert!(
            manifest.contains("\"failed_cells\": 0"),
            "{what}: recovered run still has failed cells"
        );
        drilled.insert(point);
        println!("ok: {what}");
    }
    clean.join("metrics")
}

/// Fleet mode: crash `twig-cli fleet run` at each point, rerun into the
/// same directories (stealing the dead lock, cold-opening the state
/// store), and compare the fleet manifest against an uncrashed reference
/// at the same thread count.
fn drill_fleet(
    twig_cli: &Path,
    root: &Path,
    workers: usize,
    drilled: &mut BTreeSet<&'static str>,
) {
    let threads = ("TWIG_NUM_THREADS", workers.to_string());
    let clean = root.join(format!("fleet-w{workers}-clean"));
    let fleet_args = |out: &Path, state: &Path| {
        vec![
            "fleet".to_string(),
            "run".to_string(),
            "--out".to_string(),
            out.display().to_string(),
            "--state-dir".to_string(),
            state.display().to_string(),
        ]
    };
    run_expect(
        scrubbed(twig_cli, std::slice::from_ref(&threads))
            .args(fleet_args(&clean, &clean.join("state"))),
        0,
        &format!("fleet w{workers} clean run"),
    );

    for &point in FLEET_POINTS {
        let what = format!("fleet w{workers} @{point}");
        let out = root.join(format!("fleet-w{workers}-{point}"));
        let state = out.join("state");
        run_expect(
            scrubbed(
                twig_cli,
                &[threads.clone(), ("TWIG_CRASH_SPEC", point.to_string())],
            )
            .args(fleet_args(&out, &state)),
            CRASH_EXIT_CODE,
            &format!("{what} crash run"),
        );
        run_expect(
            scrubbed(twig_cli, std::slice::from_ref(&threads)).args(fleet_args(&out, &state)),
            0,
            &format!("{what} recovery run"),
        );
        assert_same(
            &clean.join("fleet_manifest.json"),
            &out.join("fleet_manifest.json"),
            &what,
        );
        drilled.insert(point);
        println!("ok: {what}");
    }
}

/// Trajectory mode: a three-append sequence where the middle append is
/// killed at each journal boundary. Whether the kill landed before or
/// after the publish, the healing third append must converge to a file
/// byte-identical to an uncrashed three-append reference.
fn drill_trajectory(
    twig_cli: &Path,
    root: &Path,
    metrics_dir: &Path,
    drilled: &mut BTreeSet<&'static str>,
) {
    let regress_args = |traj: &Path| {
        vec![
            "metrics".to_string(),
            "regress".to_string(),
            "--baseline".to_string(),
            metrics_dir.display().to_string(),
            metrics_dir.display().to_string(),
            "--trajectory".to_string(),
            traj.display().to_string(),
        ]
    };
    let reference = root.join("traj-clean/BENCH_trajectory.json");
    for round in 1..=3 {
        run_expect(
            scrubbed(twig_cli, &[]).args(regress_args(&reference)),
            0,
            &format!("trajectory clean append {round}"),
        );
    }

    for &point in TRAJ_POINTS {
        let what = format!("trajectory @{point}");
        let traj = root.join(format!("traj-{point}/BENCH_trajectory.json"));
        run_expect(
            scrubbed(twig_cli, &[]).args(regress_args(&traj)),
            0,
            &format!("{what} append 1"),
        );
        run_expect(
            scrubbed(twig_cli, &[("TWIG_CRASH_SPEC", point.to_string())])
                .args(regress_args(&traj)),
            CRASH_EXIT_CODE,
            &format!("{what} crashed append 2"),
        );
        // The healing append rolls the journaled run 2 forward (it was
        // durably journaled at both points) and appends run 3.
        run_expect(
            scrubbed(twig_cli, &[]).args(regress_args(&traj)),
            0,
            &format!("{what} healing append 3"),
        );
        assert_same(&reference, &traj, &what);
        drilled.insert(point);
        println!("ok: {what}");
    }
}
