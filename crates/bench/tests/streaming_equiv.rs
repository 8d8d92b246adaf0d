//! Differential suite: streaming vs in-memory analysis paths.
//!
//! The out-of-core pipeline promises bit-identical rendered output to
//! the in-memory path for every experiment with a fold, for any
//! shard layout and thread count. These tests prove it two ways:
//!
//! * library level — fold-based results rendered against
//!   `run_experiment` output across scales {4, 16, 64} and shard
//!   counts {1, 3, 8};
//! * binary level — `repro --streaming` stdout sections byte-compared
//!   against the plain run, and `--no-timings` metrics snapshots
//!   byte-compared across thread and shard counts within the streaming
//!   path (streaming generation skips snapshot materialization, so its
//!   store metrics legitimately differ from the batch path).

use appstore_core::Seed;
use bench::experiments::streaming_experiments;
use bench::{Stores, StreamingStores};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

const SEED: u64 = 2013;

/// The ids of the experiments with an out-of-core fold, in table order.
fn streaming_ids() -> Vec<&'static str> {
    streaming_experiments().map(|e| e.id).collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("streaming-equiv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp spill dir");
    dir
}

/// Renders every streaming experiment through both paths and asserts
/// byte-equal text for the given scale and shard count.
fn assert_library_equivalence(scale: u32, shards: usize) {
    let seed = Seed::new(SEED);
    let stores = Stores::generate_all_threaded(scale, seed.child("stores"), 1);
    let dir = temp_dir(&format!("lib-s{scale}-sh{shards}"));
    let streaming = StreamingStores::generate_pure(scale, seed.child("stores"), 1, &dir, shards)
        .expect("spill generation");
    for experiment in streaming_experiments() {
        let id = experiment.id;
        let batch = experiment
            .run_in_memory(&stores, seed.child("experiments"))
            .render();
        let folded = experiment
            .run_streaming(&streaming, seed.child("experiments"))
            .expect("streaming id")
            .expect("fold io")
            .render();
        assert!(
            batch == folded,
            "{id} diverged at scale {scale}, {shards} shards\n\
             --- batch ---\n{batch}\n--- streaming ---\n{folded}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streaming_matches_batch_scale_4() {
    assert_library_equivalence(4, 3);
}

#[test]
fn streaming_matches_batch_scale_16() {
    assert_library_equivalence(16, 8);
}

#[test]
fn streaming_matches_batch_scale_64_all_shard_counts() {
    for shards in [1, 3, 8] {
        assert_library_equivalence(64, shards);
    }
}

/// One `repro` invocation; returns (stdout, metrics snapshot).
fn run_repro(scale: u32, threads: u32, streaming: Option<usize>, tag: &str) -> (String, String) {
    let metrics_path = std::env::temp_dir().join(format!(
        "streaming-equiv-metrics-{tag}-{}.json",
        std::process::id()
    ));
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args([
        "--scale",
        &scale.to_string(),
        "--seed",
        &SEED.to_string(),
        "--threads",
        &threads.to_string(),
        "--no-timings",
        "--metrics",
    ])
    .arg(&metrics_path);
    if let Some(shards) = streaming {
        cmd.args(["--streaming", "--shards", &shards.to_string()]);
    }
    cmd.args(streaming_ids());
    let output = cmd.output().expect("spawn repro");
    assert!(
        output.status.success(),
        "repro ({tag}) failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("repro stdout is UTF-8");
    let metrics = std::fs::read_to_string(&metrics_path).expect("read metrics snapshot");
    let _ = std::fs::remove_file(&metrics_path);
    (stdout, metrics)
}

/// Splits `repro` stdout into per-experiment sections keyed by id.
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

/// The binary-level matrix at scale 64: streaming stdout equals plain
/// stdout for every thread count × shard count combination, and the
/// streaming metrics snapshot is byte-stable across the whole matrix.
#[test]
fn repro_streaming_stdout_matches_plain_across_threads_and_shards() {
    let scale = 64;
    let (plain_stdout, _) = run_repro(scale, 1, None, "plain");
    let plain_sections = split_sections(&plain_stdout);

    let mut reference_metrics: Option<String> = None;
    for threads in [1, 2, 8] {
        for shards in [1, 3, 8] {
            let tag = format!("t{threads}-sh{shards}");
            let (stdout, metrics) = run_repro(scale, threads, Some(shards), &tag);
            let sections = split_sections(&stdout);
            for id in streaming_ids() {
                assert_eq!(
                    plain_sections.get(id),
                    sections.get(id),
                    "{id} stdout diverged between plain and streaming ({tag})"
                );
            }
            match &reference_metrics {
                None => reference_metrics = Some(metrics),
                Some(reference) => assert!(
                    *reference == metrics,
                    "streaming metrics snapshot differs at {tag}"
                ),
            }
        }
    }
}

/// Smaller scales through the binary, paired combinations.
#[test]
fn repro_streaming_stdout_matches_plain_small_scales() {
    for (scale, threads, shards) in [(16, 2, 3), (16, 1, 8), (4, 1, 1)] {
        let tag = format!("s{scale}-t{threads}-sh{shards}");
        let (plain_stdout, _) = run_repro(scale, 1, None, &format!("plain-{tag}"));
        let (stream_stdout, _) = run_repro(scale, threads, Some(shards), &tag);
        let plain = split_sections(&plain_stdout);
        let streamed = split_sections(&stream_stdout);
        for id in streaming_ids() {
            assert_eq!(
                plain.get(id),
                streamed.get(id),
                "{id} stdout diverged between plain and streaming at {tag}"
            );
        }
    }
}

/// `repro all --streaming` runs exactly the streaming ids and still
/// renders them identically to the targeted invocation.
#[test]
fn repro_all_streaming_runs_streaming_ids_only() {
    let (stdout, _) = run_repro(16, 1, Some(3), "all-targeted");
    let metrics_path = std::env::temp_dir().join(format!(
        "streaming-equiv-metrics-all-{}.json",
        std::process::id()
    ));
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--scale",
            "16",
            "--seed",
            &SEED.to_string(),
            "--threads",
            "1",
            "--no-timings",
            "--metrics",
        ])
        .arg(&metrics_path)
        .args(["--streaming", "--shards", "3", "all"])
        .output()
        .expect("spawn repro");
    assert!(
        output.status.success(),
        "repro all --streaming failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let _ = std::fs::remove_file(&metrics_path);
    let all_stdout = String::from_utf8(output.stdout).expect("UTF-8");
    let all_sections = split_sections(&all_stdout);
    assert_eq!(
        all_sections.keys().cloned().collect::<Vec<_>>(),
        streaming_ids()
            .iter()
            .map(|id| id.to_string())
            .collect::<Vec<_>>(),
        "repro all --streaming should run exactly the streaming ids"
    );
    assert_eq!(split_sections(&stdout), all_sections);
}

/// A non-streaming id under `--streaming` is a usage error.
#[test]
fn repro_streaming_rejects_non_streaming_ids() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "16", "--streaming", "table1"])
        .output()
        .expect("spawn repro");
    assert_eq!(
        output.status.code(),
        Some(2),
        "expected usage-error exit:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}
