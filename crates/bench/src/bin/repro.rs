//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! repro [--scale N] [--seed S] [--threads T] [--json DIR]
//!       [--metrics FILE] [--no-timings] <experiment>...
//! repro all                 # every table/figure + ablations
//! repro list                # print the experiment ids
//! repro fig3 fig19          # a subset
//! ```
//!
//! `--scale N` divides the calibrated store sizes by `N` (apps/users by
//! `N`, downloads by `N²`), useful for quick runs; the default `1` is
//! the full calibrated reproduction. `--threads T` runs up to `T`
//! experiments concurrently (0, the default, means one per CPU);
//! experiment text goes to stdout in a fixed order and is **byte-
//! identical for every thread count**, while per-experiment wall times
//! go to stderr in completion order. `--json DIR` additionally writes
//! each experiment's structured series to `DIR/<id>.json`.
//!
//! `--metrics FILE` writes one observability snapshot per experiment
//! (plus one for store generation) as a single JSON document. With
//! `--no-timings` every volatile field — durations, per-worker tallies —
//! is zeroed, so the file is byte-identical for every `--threads` value;
//! the golden regression suite pins exactly that.
//!
//! `--streaming` switches to the out-of-core pipeline: stores are
//! generated straight into sharded spill files (`--shards`, default 4)
//! under `--spill-dir` (default: a per-run temp directory, removed on
//! exit) and the experiments run as one-pass folds over those files, so
//! resident memory stays bounded by the largest shard instead of the
//! full event history. Only the fold-based experiments (`fig3`, `fig5`,
//! `fig8`) run in this mode — `all` narrows to exactly that set — and
//! their stdout is byte-identical to the in-memory path. Peak RSS is
//! reported on stderr; with `--mem-cap-mb` the run exits 3 (after
//! writing every output) if the peak exceeded the cap.
//!
//! `repro report --flight FILE` additionally dumps every non-PASS row
//! of a failed grade as a flight-recorder event stream, for CI
//! artifact upload.

use appstore_core::Seed;
use appstore_obs::Registry;
use bench::experiments::{select, streaming_experiments};
use bench::{
    run_experiments_observed_with, Experiment, ExperimentResult, Stores, StreamingStores,
    EXPERIMENTS, EXPERIMENT_IDS,
};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    scale: u32,
    seed: u64,
    threads: usize,
    json_dir: Option<String>,
    metrics_path: Option<String>,
    no_timings: bool,
    trace_path: Option<String>,
    trace_folded_path: Option<String>,
    trace_folded_wall_path: Option<String>,
    streaming: bool,
    shards: usize,
    spill_dir: Option<String>,
    mem_cap_mb: Option<u64>,
    experiments: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: 1,
        seed: 2013,
        threads: 0,
        json_dir: None,
        metrics_path: None,
        no_timings: false,
        trace_path: None,
        trace_folded_path: None,
        trace_folded_wall_path: None,
        streaming: false,
        shards: 4,
        spill_dir: None,
        mem_cap_mb: None,
        experiments: Vec::new(),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let v = iter.next().ok_or("--scale needs a value")?;
                args.scale = v.parse().map_err(|_| format!("bad scale: {v}"))?;
                if args.scale == 0 {
                    return Err("--scale must be at least 1".into());
                }
            }
            "--seed" => {
                let v = iter.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
            }
            "--threads" => {
                let v = iter.next().ok_or("--threads needs a value")?;
                args.threads = v.parse().map_err(|_| format!("bad thread count: {v}"))?;
            }
            "--json" => {
                args.json_dir = Some(iter.next().ok_or("--json needs a directory")?);
            }
            "--metrics" => {
                args.metrics_path = Some(iter.next().ok_or("--metrics needs a file path")?);
            }
            "--no-timings" => {
                args.no_timings = true;
            }
            "--trace" => {
                args.trace_path = Some(iter.next().ok_or("--trace needs a file path")?);
            }
            "--trace-folded" => {
                args.trace_folded_path =
                    Some(iter.next().ok_or("--trace-folded needs a file path")?);
            }
            "--trace-folded-wall" => {
                args.trace_folded_wall_path =
                    Some(iter.next().ok_or("--trace-folded-wall needs a file path")?);
            }
            "--streaming" => {
                args.streaming = true;
            }
            "--shards" => {
                let v = iter.next().ok_or("--shards needs a value")?;
                args.shards = v.parse().map_err(|_| format!("bad shard count: {v}"))?;
                if args.shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--spill-dir" => {
                args.spill_dir = Some(iter.next().ok_or("--spill-dir needs a directory")?);
            }
            "--mem-cap-mb" => {
                let v = iter.next().ok_or("--mem-cap-mb needs a value")?;
                args.mem_cap_mb = Some(v.parse().map_err(|_| format!("bad memory cap: {v}"))?);
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--scale N] [--seed S] [--threads T] [--json DIR] \
                     [--metrics FILE] [--no-timings] [--trace FILE] [--trace-folded FILE] \
                     [--trace-folded-wall FILE] [--streaming] [--shards N] \
                     [--spill-dir DIR] [--mem-cap-mb MB] <experiment>|all|list\n\
                     \x20      repro report [--results DIR] [--metrics FILE] [--md FILE] \
                     [--flight FILE]"
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag: {other}"));
            }
            other => args.experiments.push(other.to_string()),
        }
    }
    if args.experiments.is_empty() {
        return Err("no experiment given; try `repro list` or `repro all`".into());
    }
    if args.experiments.len() > 1 {
        if let Some(word) = args
            .experiments
            .iter()
            .find(|e| *e == "all" || *e == "list")
        {
            return Err(format!("`{word}` must be the only experiment argument"));
        }
    }
    Ok(args)
}

/// `repro report`: grade `results/*.json` against the paper's numbers.
/// Exits 1 when any target FAILs.
fn report_main(rest: &[String]) -> ! {
    let mut results_dir = "results".to_string();
    let mut metrics_path: Option<String> = None;
    let mut md_path: Option<String> = None;
    let mut flight_path: Option<String> = None;
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--results" => match iter.next() {
                Some(v) => results_dir = v.clone(),
                None => {
                    eprintln!("--results needs a directory");
                    std::process::exit(2);
                }
            },
            "--metrics" => match iter.next() {
                Some(v) => metrics_path = Some(v.clone()),
                None => {
                    eprintln!("--metrics needs a file path");
                    std::process::exit(2);
                }
            },
            "--md" => match iter.next() {
                Some(v) => md_path = Some(v.clone()),
                None => {
                    eprintln!("--md needs a file path");
                    std::process::exit(2);
                }
            },
            "--flight" => match iter.next() {
                Some(v) => flight_path = Some(v.clone()),
                None => {
                    eprintln!("--flight needs a file path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown report argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let results = match bench::report::load_results(&results_dir) {
        Ok((results, warnings)) => {
            // Damaged results files degrade to MISSING rows, not a crash:
            // say which files were skipped and why, then grade the rest.
            for warning in &warnings {
                eprintln!("{warning}");
            }
            results
        }
        Err(err) => {
            eprintln!("cannot read results dir {results_dir}: {err}");
            std::process::exit(2);
        }
    };
    // The run's scale comes from the metrics snapshot; a scaled-down
    // run only FAILs on scale-independent invariants.
    let scale = metrics_path
        .as_deref()
        .map_or(1, |path| match std::fs::read_to_string(path) {
            Ok(text) => bench::report::scale_of_metrics(&text),
            Err(err) => {
                eprintln!("cannot read metrics snapshot {path}: {err}");
                std::process::exit(2);
            }
        });
    let rows = bench::report::evaluate(&results, scale);
    print!("{}", bench::report::render_text(&rows, scale));
    if let Some(path) = &md_path {
        std::fs::write(path, bench::report::render_markdown(&rows, scale))
            .expect("write markdown report");
        eprintln!("fidelity report written to {path}");
    }
    let failed = bench::report::has_fail(&rows);
    if let Some(path) = &flight_path {
        if failed {
            // On a failed grade, leave a flight dump behind: every
            // non-PASS row as a structured event, so CI artifacts carry
            // the shape of the failure without re-running the report.
            let flight = appstore_obs::FlightRecorder::default();
            for row in rows
                .iter()
                .filter(|r| r.verdict != bench::report::Verdict::Pass)
            {
                flight.record(
                    "report-row",
                    &[
                        ("figure", row.figure.to_string()),
                        ("metric", row.metric.to_string()),
                        ("verdict", row.verdict.label().to_string()),
                        (
                            "observed",
                            row.observed
                                .map_or_else(|| "missing".to_string(), |v| format!("{v}")),
                        ),
                        ("paper", row.paper.to_string()),
                    ],
                );
            }
            flight
                .dump_to_file(std::path::Path::new(path))
                .expect("write flight dump");
            eprintln!("flight dump written to {path}");
        } else {
            eprintln!("report clean; no flight dump written to {path}");
        }
    }
    if failed {
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("report") {
        report_main(&raw[1..]);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };

    if args.experiments == ["list"] {
        for id in EXPERIMENT_IDS {
            println!("{id}");
        }
        return;
    }

    let experiments: Vec<&'static Experiment> = if args.experiments == ["all"] {
        if args.streaming {
            // The out-of-core path implements the fold-based analyses;
            // `all` means "everything this mode can run".
            let folds: Vec<&'static Experiment> = streaming_experiments().collect();
            let ids: Vec<&str> = folds.iter().map(|e| e.id).collect();
            eprintln!(
                "streaming mode: running the fold-based experiments ({})",
                ids.join(", ")
            );
            folds
        } else {
            EXPERIMENTS.iter().collect()
        }
    } else {
        // Validate ids before paying for generation.
        let ids: Vec<&str> = args.experiments.iter().map(String::as_str).collect();
        select(&ids, args.streaming).unwrap_or_else(|message| {
            eprintln!("{message}");
            std::process::exit(2);
        })
    };

    let started = Instant::now();
    eprintln!(
        "generating the four calibrated stores (scale 1/{}, seed {})...",
        args.scale, args.seed
    );
    let seed = Seed::new(args.seed);
    let stores_registry = Registry::new();
    let wants_trace = args.trace_path.is_some()
        || args.trace_folded_path.is_some()
        || args.trace_folded_wall_path.is_some();
    let tracer = wants_trace.then(appstore_obs::Tracer::new);

    if let Some(dir) = &args.json_dir {
        std::fs::create_dir_all(dir).expect("create json output dir");
    }

    // Spill files land in --spill-dir when given (kept afterwards for
    // inspection or resumed merges), else a per-run temp directory
    // removed before exit.
    let spill_dir: Option<PathBuf> = args.streaming.then(|| {
        let dir = args.spill_dir.as_ref().map_or_else(
            || std::env::temp_dir().join(format!("repro-spill-{}", std::process::id())),
            PathBuf::from,
        );
        std::fs::create_dir_all(&dir).expect("create spill dir");
        dir
    });

    // Store generation and the experiment batch each get a root track
    // segment of their own, so their `par_map_indexed` task paths can
    // never collide in a trace.
    let run = || {
        if let Some(dir) = &spill_dir {
            // Out-of-core path: generate straight into sharded spill
            // files, then run the experiments as folds over them. Same
            // seed chain as the in-memory path, so stdout is identical.
            let streaming = appstore_obs::with_track(0, || {
                appstore_obs::with_registry(&stores_registry, || {
                    StreamingStores::generate_pure(
                        args.scale,
                        seed.child("stores"),
                        args.threads,
                        dir,
                        args.shards,
                    )
                })
            })
            .unwrap_or_else(|err| {
                eprintln!("spill generation failed: {err}");
                std::process::exit(2);
            });
            eprintln!(
                "stores spilled in {:.1}s ({} shard(s)/store, {:.1} MiB on disk)",
                started.elapsed().as_secs_f64(),
                streaming.shards(),
                streaming.bytes_spilled() as f64 / (1024.0 * 1024.0)
            );
            return appstore_obs::with_track(1, || {
                run_experiments_observed_with(
                    &experiments,
                    seed,
                    args.threads,
                    |id, secs| {
                        eprintln!("[{id} in {secs:.3}s]");
                    },
                    |experiment, seed| {
                        experiment
                            .run_streaming(&streaming, seed)
                            .expect("streaming runs select experiments with a fold")
                            .unwrap_or_else(|err| {
                                panic!("streaming {} failed: {err}", experiment.id)
                            })
                    },
                )
            });
        }
        let stores = appstore_obs::with_track(0, || {
            appstore_obs::with_registry(&stores_registry, || {
                Stores::generate_all_threaded(args.scale, seed.child("stores"), args.threads)
            })
        });
        eprintln!("stores ready in {:.1}s", started.elapsed().as_secs_f64());
        // Experiments run concurrently; their text is buffered and
        // printed in id order below so stdout is byte-identical for any
        // --threads. Wall times go to stderr in completion order.
        appstore_obs::with_track(1, || {
            run_experiments_observed_with(
                &experiments,
                seed,
                args.threads,
                |id, secs| {
                    eprintln!("[{id} in {secs:.3}s]");
                },
                |experiment, seed| experiment.run_in_memory(&stores, seed),
            )
        })
    };
    let results = match &tracer {
        Some(tracer) => appstore_obs::with_tracer(tracer, run),
        None => run(),
    };
    let mut stdout = std::io::stdout().lock();
    for (result, _secs, _registry) in &results {
        writeln!(stdout, "{}", result.render()).expect("stdout");
        if let Some(dir) = &args.json_dir {
            // Catch shape drift at the source: a file that would fail the
            // report's schema check on load is worth a WARN on write.
            if let Err(reason) = bench::schema::validate(result.id, &result.json) {
                eprintln!("WARN: {}.json fails its own schema: {reason}", result.id);
            }
            let path = format!("{dir}/{}.json", result.id);
            std::fs::write(
                &path,
                serde_json::to_string_pretty(&result.json).expect("serialize"),
            )
            .expect("write json");
        }
    }
    drop(stdout);
    if let Some(tracer) = &tracer {
        if tracer.dropped() > 0 {
            eprintln!(
                "warning: trace ring overflowed, {} oldest events dropped \
                 (timeline truncated; not comparable across runs)",
                tracer.dropped()
            );
        }
        if let Some(path) = &args.trace_path {
            std::fs::write(path, tracer.export_chrome()).expect("write trace");
            eprintln!("chrome trace written to {path} (load in Perfetto)");
        }
        if let Some(path) = &args.trace_folded_path {
            std::fs::write(
                path,
                tracer.export_collapsed(appstore_obs::TimeBase::Logical),
            )
            .expect("write folded trace");
            eprintln!("logical collapsed stacks written to {path}");
        }
        if let Some(path) = &args.trace_folded_wall_path {
            std::fs::write(path, tracer.export_collapsed(appstore_obs::TimeBase::Wall))
                .expect("write folded trace");
            eprintln!("wall-time collapsed stacks written to {path}");
        }
    }
    if let Some(path) = &args.metrics_path {
        let doc = metrics_document(&args, &stores_registry, &results);
        std::fs::write(path, doc).expect("write metrics");
        eprintln!("metrics snapshot written to {path}");
    }
    eprintln!(
        "{} experiment(s) done in {:.1}s total",
        results.len(),
        started.elapsed().as_secs_f64()
    );
    if args.streaming {
        // Quarantined chunks mean damaged spill data was skipped: the
        // printed numbers exclude it, so surface the loss loudly.
        for (result, _, _) in &results {
            let quarantined = result
                .json
                .get("streaming")
                .and_then(|s| s.get("quarantined_chunks"))
                .and_then(|q| q.as_u64())
                .unwrap_or(0);
            if quarantined > 0 {
                eprintln!(
                    "WARN: {}: {quarantined} spill chunk(s) quarantined — \
                     results computed without the damaged rows",
                    result.id
                );
            }
        }
        if args.spill_dir.is_none() {
            if let Some(dir) = &spill_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
    match appstore_core::spill::peak_rss_bytes() {
        Some(bytes) => {
            let mib = bytes.div_ceil(1024 * 1024);
            eprintln!("peak RSS {mib} MiB");
            if let Some(cap) = args.mem_cap_mb {
                if mib > cap {
                    eprintln!("FAIL: peak RSS {mib} MiB exceeds --mem-cap-mb {cap}");
                    std::process::exit(3);
                }
                eprintln!("within --mem-cap-mb {cap}");
            }
        }
        None => {
            if args.mem_cap_mb.is_some() {
                eprintln!("peak RSS unavailable on this platform; --mem-cap-mb not enforced");
            }
        }
    }
}

/// Assembles the metrics snapshot: one registry export per experiment in
/// stdout (id) order, plus the store-generation registry, under a fixed
/// top-level key order. In `--no-timings` mode the document is a pure
/// function of scale, seed, and experiment set.
fn metrics_document(
    args: &Args,
    stores_registry: &Registry,
    results: &[(ExperimentResult, f64, Registry)],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str(&format!("  \"scale\": {},\n", args.scale));
    out.push_str(&format!("  \"seed\": {},\n", args.seed));
    out.push_str(&format!("  \"no_timings\": {},\n", args.no_timings));
    out.push_str(&format!(
        "  \"stores\": {},\n",
        stores_registry.snapshot_json_indented(args.no_timings, 1)
    ));
    out.push_str("  \"experiments\": {\n");
    for (i, (result, _secs, registry)) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        out.push_str(&format!(
            "    \"{}\": {}{comma}\n",
            result.id,
            registry.snapshot_json_indented(args.no_timings, 2)
        ));
    }
    out.push_str("  }\n}\n");
    out
}
