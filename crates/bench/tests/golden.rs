//! Golden-figure regression suite.
//!
//! Runs the `repro` binary end-to-end at a pinned small scale and diffs
//! its output byte-for-byte against the checked-in goldens under
//! `tests/golden/` (repo root):
//!
//! * `<id>.stdout.txt` — the rendered text of each experiment id;
//! * `metrics.json` — the `--metrics --no-timings` snapshot of the whole
//!   `repro all` run.
//!
//! The run repeats for every thread count in `GOLDEN_THREADS` (default
//! `1,2,8`; CI overrides per matrix leg) and every repetition must be
//! byte-identical — the determinism contract the observability layer
//! promises. Regenerate the goldens with `scripts/bless.sh` (which sets
//! `GOLDEN_BLESS=1`) after an intentional output change.

use bench::experiments::streaming_experiments;
use bench::EXPERIMENT_IDS;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const GOLDEN_SCALE: &str = "64";
const GOLDEN_SEED: &str = "2013";

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn thread_counts() -> Vec<String> {
    std::env::var("GOLDEN_THREADS")
        .unwrap_or_else(|_| "1,2,8".to_string())
        .split(',')
        .map(|t| t.trim().to_string())
        .filter(|t| !t.is_empty())
        .collect()
}

/// One full `repro all` run: (stdout, metrics snapshot).
fn run_repro(threads: &str) -> (String, String) {
    let metrics_path = std::env::temp_dir().join(format!(
        "golden-metrics-{}-t{threads}.json",
        std::process::id()
    ));
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--scale",
            GOLDEN_SCALE,
            "--seed",
            GOLDEN_SEED,
            "--threads",
            threads,
            "--no-timings",
            "--metrics",
        ])
        .arg(&metrics_path)
        .arg("all")
        .output()
        .expect("spawn repro");
    assert!(
        output.status.success(),
        "repro --threads {threads} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("repro stdout is UTF-8");
    let metrics = std::fs::read_to_string(&metrics_path).expect("read metrics snapshot");
    let _ = std::fs::remove_file(&metrics_path);
    (stdout, metrics)
}

/// Splits `repro all` stdout into per-experiment sections keyed by id.
/// Sections start at `== <id> — <title> ==` header lines.
fn split_sections(stdout: &str) -> BTreeMap<String, String> {
    let mut sections = BTreeMap::new();
    let mut current: Option<(String, String)> = None;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("== ") {
            if let Some((id, _)) = rest.split_once(" — ") {
                if let Some((prev_id, text)) = current.take() {
                    sections.insert(prev_id, text);
                }
                current = Some((id.to_string(), String::new()));
            }
        }
        if let Some((_, text)) = current.as_mut() {
            text.push_str(line);
            text.push('\n');
        }
    }
    if let Some((prev_id, text)) = current.take() {
        sections.insert(prev_id, text);
    }
    sections
}

fn diff_or_bless(path: &Path, actual: &str, bless: bool, label: &str) {
    if bless {
        std::fs::write(path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|_| {
        panic!(
            "missing golden {} — run scripts/bless.sh to generate it",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "{label} drifted from golden {}.\n\
         If the change is intentional, regenerate with scripts/bless.sh.\n\
         --- golden ---\n{expected}\n--- actual ---\n{actual}",
        path.display()
    );
}

/// The tentpole assertion: every experiment's stdout and the no-timings
/// metrics snapshot match the pinned goldens, byte-for-byte, for every
/// thread count in `GOLDEN_THREADS`.
#[test]
fn golden_stdout_and_metrics_are_pinned_for_every_thread_count() {
    let bless = std::env::var("GOLDEN_BLESS").is_ok();
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("golden dir");
    let threads = thread_counts();
    assert!(
        !threads.is_empty(),
        "GOLDEN_THREADS must name a thread count"
    );

    let (reference_threads, rest) = threads.split_first().expect("nonempty");
    let (stdout, metrics) = run_repro(reference_threads);

    // Determinism across thread counts: later runs must be byte-equal.
    for t in rest {
        let (other_stdout, other_metrics) = run_repro(t);
        assert!(
            stdout == other_stdout,
            "stdout differs between --threads {reference_threads} and --threads {t}"
        );
        assert!(
            metrics == other_metrics,
            "metrics snapshot differs between --threads {reference_threads} and --threads {t}"
        );
    }

    // Per-experiment stdout goldens: every id must appear and match.
    let sections = split_sections(&stdout);
    for id in EXPERIMENT_IDS {
        let section = sections
            .get(id)
            .unwrap_or_else(|| panic!("experiment {id} missing from repro all stdout"));
        diff_or_bless(
            &dir.join(format!("{id}.stdout.txt")),
            section,
            bless,
            &format!("experiment {id} stdout"),
        );
    }
    assert_eq!(
        sections.len(),
        EXPERIMENT_IDS.len(),
        "repro all printed unexpected extra sections"
    );

    diff_or_bless(
        &dir.join("metrics.json"),
        &metrics,
        bless,
        "metrics snapshot",
    );
}

/// The out-of-core path is pinned to the *same* goldens as the
/// in-memory path: `repro --streaming` stdout for the fold-based
/// experiments must match the checked-in sections byte-for-byte. This
/// test never blesses — the in-memory run above owns the goldens, and
/// a streaming divergence is always a streaming bug.
#[test]
fn streaming_stdout_matches_the_inmemory_goldens() {
    let dir = golden_dir();
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--scale",
            GOLDEN_SCALE,
            "--seed",
            GOLDEN_SEED,
            "--threads",
            "1",
            "--no-timings",
            "--streaming",
            "--shards",
            "3",
            "all",
        ])
        .output()
        .expect("spawn repro --streaming");
    assert!(
        output.status.success(),
        "repro --streaming failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("repro stdout is UTF-8");
    let sections = split_sections(&stdout);
    for id in streaming_experiments().map(|e| e.id) {
        let section = sections
            .get(id)
            .unwrap_or_else(|| panic!("experiment {id} missing from streaming stdout"));
        let path = dir.join(format!("{id}.stdout.txt"));
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!(
                "missing golden {} — run scripts/bless.sh (in-memory path) first",
                path.display()
            )
        });
        assert!(
            expected == *section,
            "streaming {id} stdout drifted from the in-memory golden {}.\n\
             --- golden ---\n{expected}\n--- streaming ---\n{section}",
            path.display()
        );
    }
}
