//! Damage containment for the out-of-core pipeline, as promised by
//! DESIGN.md §11: **never a wrong number.** Spill files damaged in
//! flight (the fault injector firing at `core.spill.write`) or at rest
//! (bit flip, torn tail) lose *at most* the damaged chunks: every folded
//! counter is elementwise ≤ the clean reference, the loss is visible in
//! `quarantined` / `torn_tails`, and nothing is ever overcounted.

use appstore_core::faults::with_injector;
use appstore_core::spill::SITE_SPILL_WRITE;
use appstore_core::{FaultInjector, FaultKind, FaultPlan, FaultTrigger, Seed};
use appstore_synth::{spill_generate, StoreProfile, StoreSpill};
use bench::streaming::fold_downloads;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spill-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn make_spill(dir: &Path, shards: usize, scale: u32) -> StoreSpill {
    let profile = StoreProfile::anzhi().scaled_down(scale);
    spill_generate(&profile, Seed::new(2013).child(&profile.name), dir, shards)
        .expect("spill generation")
}

/// Elementwise `damaged ≤ reference`: losing rows is allowed, inventing
/// them never is.
fn assert_never_overcounts(reference: &[u64], damaged: &[u64], label: &str) {
    assert_eq!(
        reference.len(),
        damaged.len(),
        "{label}: app census changed"
    );
    for (app, (&clean, &dirty)) in reference.iter().zip(damaged).enumerate() {
        assert!(
            dirty <= clean,
            "{label}: app {app} overcounted ({dirty} > {clean}) — damage must only lose rows"
        );
    }
}

#[test]
fn fold_survives_write_faults_without_overcounting() {
    // Scale 8 gives the single download shard several 8192-row chunks,
    // so specific chunk indices can be damaged while others survive.
    let clean_dir = temp_dir("writer-clean");
    let clean = make_spill(&clean_dir, 1, 8);
    let reference = fold_downloads(&clean).expect("clean fold");
    assert_eq!(reference.quarantined, 0);
    assert_eq!(reference.torn_tails, 0);
    assert_eq!(reference.rows, clean.total_downloads);

    // Same generation, but every writer's second sealed chunk is
    // silently corrupted and its fourth append is torn mid-line (the
    // torn half-line swallows the following append into one bad line).
    let plan = FaultPlan::seeded(42)
        .rule(
            SITE_SPILL_WRITE,
            FaultKind::Corrupt,
            FaultTrigger::AtIndex(1),
        )
        .rule(
            SITE_SPILL_WRITE,
            FaultKind::PartialWrite,
            FaultTrigger::AtIndex(3),
        );
    let injector = FaultInjector::new(plan);
    let dirty_dir = temp_dir("writer-dirty");
    let damaged = with_injector(&injector, || make_spill(&dirty_dir, 1, 8));
    assert!(
        !injector.events().is_empty(),
        "the fault plan should have fired during generation"
    );

    let fold = fold_downloads(&damaged).expect("fold over damaged files");
    assert!(
        fold.quarantined > 0 || fold.torn_tails > 0,
        "injected damage must be visible as quarantined chunks or torn tails"
    );
    assert!(
        fold.rows < reference.rows,
        "damaged rows should be lost, not invented"
    );
    assert!(fold.rows > 0, "undamaged chunks must survive the fold");
    assert_never_overcounts(&reference.free_counts, &fold.free_counts, "write faults");
    assert_never_overcounts(
        &reference.paid_counts,
        &fold.paid_counts,
        "write faults (paid)",
    );

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dirty_dir);
}

#[test]
fn fold_quarantines_bit_flips_and_torn_tails_at_rest() {
    // Scale 16 in one shard gives a two-chunk download file: an
    // interior line to flip and a final line to tear.
    let dir = temp_dir("at-rest");
    let spill = make_spill(&dir, 1, 16);
    let reference = fold_downloads(&spill).expect("clean fold");

    // Bit-flip one byte inside the interior (first) chunk: exactly that
    // chunk must quarantine — the reader keeps folding past it.
    let path = &spill.shard_downloads[0];
    let bytes = std::fs::read(path).expect("read shard");
    let lines = bytes.iter().filter(|&&b| b == b'\n').count();
    assert!(
        lines >= 2,
        "expected a multi-chunk shard, got {lines} line(s)"
    );
    let mut flipped_bytes = bytes.clone();
    flipped_bytes[15] ^= 0x08;
    std::fs::write(path, &flipped_bytes).expect("write damaged shard");

    let flipped = fold_downloads(&spill).expect("fold over bit-flipped shard");
    assert_eq!(
        flipped.quarantined, 1,
        "exactly the flipped chunk quarantines"
    );
    assert_eq!(flipped.torn_tails, 0);
    assert_never_overcounts(&reference.free_counts, &flipped.free_counts, "bit flip");
    assert!(flipped.rows < reference.rows);
    assert!(flipped.rows > 0, "the undamaged chunk must survive");

    // Now also tear the file's last line (a killed writer): the tail
    // reads as torn, not as another quarantined interior chunk.
    let cut = flipped_bytes.len() - 9;
    std::fs::write(path, &flipped_bytes[..cut]).expect("truncate shard");

    let torn = fold_downloads(&spill).expect("fold over torn shard");
    assert_eq!(torn.quarantined, 1);
    assert_eq!(torn.torn_tails, 1, "a truncated final line is a torn tail");
    assert_never_overcounts(&flipped.free_counts, &torn.free_counts, "torn tail");

    let _ = std::fs::remove_dir_all(&dir);
}
