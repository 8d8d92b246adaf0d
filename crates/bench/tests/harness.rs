//! Harness regression tests: the experiment table is well formed, and
//! every registered experiment must run to completion on a tiny store
//! and produce printable lines plus a JSON payload.

use appstore_core::Seed;
use bench::experiments::{find, select, streaming_experiments};
use bench::{
    run_experiment, run_experiments_observed, Experiment, Stores, EXPERIMENTS, EXPERIMENT_IDS,
};
use std::process::Command;

#[test]
fn experiment_ids_are_unique() {
    for (i, experiment) in EXPERIMENTS.iter().enumerate() {
        assert!(
            EXPERIMENTS[..i].iter().all(|e| e.id != experiment.id),
            "experiment {} registered twice",
            experiment.id
        );
    }
}

/// An experiment without schema coverage would pass any damaged results
/// file on load.
#[test]
fn every_experiment_has_required_keys() {
    for experiment in EXPERIMENTS {
        assert!(
            !experiment.required_keys.is_empty(),
            "experiment {} has no required keys registered",
            experiment.id
        );
    }
}

#[test]
fn the_experiments_with_a_fold_are_fig3_fig5_and_fig8() {
    let ids: Vec<&str> = streaming_experiments().map(|e| e.id).collect();
    assert_eq!(ids, ["fig3", "fig5", "fig8"]);
}

#[test]
fn every_experiment_runs_at_tiny_scale() {
    let seed = Seed::new(99);
    let stores = Stores::generate_all(64, seed.child("stores"));
    for id in EXPERIMENT_IDS {
        let result = run_experiment(id, &stores, seed.child("experiments"))
            .unwrap_or_else(|| panic!("unknown experiment id {id}"));
        assert_eq!(result.id, id);
        assert!(!result.lines.is_empty(), "{id} produced no output lines");
        assert!(!result.title.is_empty());
        assert!(result.json.is_object(), "{id} JSON not an object");
        // Rendering must include the id header.
        let rendered = result.render();
        assert!(rendered.contains(id), "{id} header missing");
    }
}

#[test]
fn unknown_experiment_is_rejected() {
    assert!(find("fig99").is_none());
    let err = select(&["fig2", "fig99"], false).unwrap_err();
    assert!(err.contains("fig99"), "{err}");
}

#[test]
fn selection_keeps_order_and_rejects_repeated_and_foldless_ids() {
    let ids = |selected: Vec<&Experiment>| -> Vec<&str> { selected.iter().map(|e| e.id).collect() };
    assert_eq!(
        ids(select(&["fig8", "fig2"], false).unwrap()),
        ["fig8", "fig2"]
    );
    assert_eq!(
        ids(select(&["fig5", "fig3"], true).unwrap()),
        ["fig5", "fig3"]
    );
    let err = select(&["fig2", "fig4", "fig2"], false).unwrap_err();
    assert!(
        err.contains("fig2") && err.contains("more than once"),
        "{err}"
    );
    let err = select(&["fig3", "table1"], true).unwrap_err();
    assert!(
        err.contains("table1") && err.contains("fig3, fig5, fig8"),
        "{err}"
    );
}

/// Runs `repro` with `args`, asserts it exits 2 as a usage error before
/// any store is generated or experiment runs, and returns its stderr.
fn usage_error(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert_eq!(
        output.status.code(),
        Some(2),
        "expected usage-error exit for {args:?}:\n{stderr}"
    );
    assert!(
        !stderr.contains("generating"),
        "stores were generated for {args:?}:\n{stderr}"
    );
    assert!(output.stdout.is_empty(), "{args:?} printed to stdout");
    stderr
}

/// An id given twice is a usage error, caught before any store is
/// generated, like an unknown id.
#[test]
fn repeated_experiment_id_is_rejected() {
    let stderr = usage_error(&["--scale", "256", "fig2", "fig2"]);
    assert!(
        stderr.contains("fig2"),
        "the repeated id is not named:\n{stderr}"
    );
}

/// `all` and `list` stand alone: any other argument beside them would
/// otherwise be ignored unchecked.
#[test]
fn all_and_list_must_be_the_only_experiment_argument() {
    for args in [
        &["--scale", "256", "all", "fig99"][..],
        &["--scale", "256", "fig2", "all"],
        &["list", "fig99"],
    ] {
        let stderr = usage_error(args);
        assert!(
            stderr.contains("only experiment argument"),
            "{args:?}:\n{stderr}"
        );
    }
}

/// Scale 0 would generate full-size stores while recording scale 0.
#[test]
fn zero_scale_is_rejected() {
    let stderr = usage_error(&["--scale", "0", "list"]);
    assert!(stderr.contains("--scale"), "{stderr}");
}

/// `repro --json` repeats byte for byte from one process to the next.
/// A float sum taken in `HashMap` order would not: std seeds each map's
/// order per process, so only the last digits would change.
#[test]
fn json_results_repeat_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("repro-json-repeat-{}", std::process::id()));
    let run = |round: usize| -> Vec<(String, Vec<u8>)> {
        let out = dir.join(round.to_string());
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--scale", "16", "--threads", "1", "--json"])
            .arg(&out)
            .args(["ablate-drift", "recommend"])
            .output()
            .expect("spawn repro");
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&out)
            .expect("json dir")
            .map(|entry| {
                let path = entry.expect("dir entry").path();
                let name = path.file_name().expect("file name");
                let name = name.to_string_lossy().into_owned();
                (name, std::fs::read(&path).expect("read json"))
            })
            .collect();
        files.sort();
        files
    };
    let first = run(0);
    assert_eq!(first.len(), 2, "one JSON file per experiment");
    for round in 1..3 {
        assert!(run(round) == first, "run {round} wrote different JSON");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn experiments_are_deterministic() {
    let seed = Seed::new(7);
    let stores = Stores::generate_all(64, seed.child("stores"));
    for id in ["fig2", "fig5", "fig19", "recommend"] {
        let a = run_experiment(id, &stores, seed.child("experiments")).unwrap();
        let b = run_experiment(id, &stores, seed.child("experiments")).unwrap();
        assert_eq!(a.lines, b.lines, "{id} output not deterministic");
        assert_eq!(a.json, b.json, "{id} JSON not deterministic");
    }
}

/// The promise behind `repro --threads N`: the rendered output (and the
/// JSON series) must be byte-identical for any thread count, including
/// thread counts that exceed the experiment count.
#[test]
fn experiment_batches_are_thread_count_invariant() {
    let seed = Seed::new(7);
    let stores = Stores::generate_all(64, seed.child("stores"));
    let ids = ["table1", "fig8", "fig19", "ablate-p", "crawl-recovery"];
    let render_all = |threads: usize| -> (String, Vec<String>) {
        let results = run_experiments_observed(&ids, &stores, seed, threads, |_, _| {});
        let text: String = results.iter().map(|(r, _, _)| r.render()).collect();
        let json: Vec<String> = results
            .iter()
            .map(|(r, _, _)| serde_json::to_string_pretty(&r.json).expect("serialize"))
            .collect();
        (text, json)
    };
    let (serial_text, serial_json) = render_all(1);
    for threads in [2, 8] {
        let (text, json) = render_all(threads);
        assert_eq!(serial_text, text, "stdout differs at --threads {threads}");
        assert_eq!(serial_json, json, "JSON differs at --threads {threads}");
    }
}

/// Store generation through the threaded path must match the sequential
/// default for every thread count.
#[test]
fn store_generation_is_thread_count_invariant() {
    let seed = Seed::new(31);
    let serial = Stores::generate_all_threaded(128, seed, 1);
    let parallel = Stores::generate_all_threaded(128, seed, 4);
    assert_eq!(serial.bundles.len(), parallel.bundles.len());
    for (a, b) in serial.bundles.iter().zip(&parallel.bundles) {
        assert_eq!(a.profile.name, b.profile.name);
        assert_eq!(a.store.dataset, b.store.dataset);
    }
}
