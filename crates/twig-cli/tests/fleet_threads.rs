//! Thread-count invariance of `twig fleet run`: the fleet's profile jobs
//! run on the harness scheduler, whose thread cap (`TWIG_NUM_THREADS`)
//! is resolved once per process, so the property can only be tested
//! across processes.

use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("twig-fleet-threads-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the demo fleet into `out` at `threads` scheduler threads and
/// returns the manifest bytes.
fn fleet_run(out: &Path, threads: &str) -> Vec<u8> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_twig-cli"));
    // Never inherit fleet, fault, or task-policy knobs from the ambient
    // environment.
    for var in twig_types::config::ALL_VARS {
        cmd.env_remove(var);
    }
    let output = cmd
        .env_remove("RAYON_NUM_THREADS")
        .env("TWIG_NUM_THREADS", threads)
        .args(["fleet", "run", "--out"])
        .arg(out)
        .output()
        .expect("spawn twig-cli");
    assert!(
        output.status.success(),
        "fleet run at {threads} thread(s) failed: {output:?}"
    );
    std::fs::read(out.join("fleet_manifest.json")).expect("read fleet manifest")
}

#[test]
fn manifest_is_thread_count_invariant() {
    let one_dir = temp_dir("t1");
    let four_dir = temp_dir("t4");
    let one = fleet_run(&one_dir, "1");
    let four = fleet_run(&four_dir, "4");
    assert!(!one.is_empty());
    assert!(
        one == four,
        "1-thread and 4-thread fleet manifests must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&one_dir);
    let _ = std::fs::remove_dir_all(&four_dir);
}
