//! Crash/resume recovery: a campaign killed at multiple injected fault
//! points, under injected transport faults, must converge to the exact
//! dataset an uninterrupted crawl produces — the end-to-end guarantee of
//! the fault-tolerance layer (checksummed journal + day checkpoints +
//! deduplicating replay + per-day deterministic clients).

use appstore_core::{Dataset, Seed, StoreId};
use appstore_crawler::{
    canonicalize, read_journal_lossy, run_campaign_resumable, CampaignError, CampaignFaultPlan,
    FaultPlan, MarketplaceServer, ProxyPool, ServerPolicy,
};
use appstore_synth::{generate, StoreProfile};

fn ground_truth() -> Dataset {
    let mut profile = StoreProfile::anzhi().scaled_down(40);
    profile.commenter_fraction = 0.5;
    profile.comment_rate = 0.10;
    generate(&profile, StoreId(0), Seed::new(41)).dataset
}

fn server_for(truth: &Dataset) -> MarketplaceServer<'_> {
    MarketplaceServer::new(
        truth,
        ServerPolicy {
            requests_per_second: 2_000.0,
            burst: 2_000,
            ..ServerPolicy::default()
        },
    )
}

/// A non-default fault plan: responses drop and corrupt in transit.
const FAULTS: FaultPlan = FaultPlan {
    drop_chance: 0.10,
    corrupt_chance: 0.10,
};

#[test]
fn campaign_killed_repeatedly_converges_to_the_uninterrupted_dataset() {
    let truth = ground_truth();
    let server = server_for(&truth);
    let seed = Seed::new(42);

    // Reference: one uninterrupted run (same faults, same seed).
    let mut reference_journal = Vec::new();
    let reference = run_campaign_resumable(
        &server,
        &truth,
        &mut ProxyPool::planetlab(0, 20),
        None,
        FAULTS,
        CampaignFaultPlan::NONE,
        seed,
        &mut reference_journal,
    )
    .expect("uninterrupted crawl succeeds");
    assert!(reference.report.retries > 0, "faults were injected");

    // Faulty campaign killed K times: after day 0's checkpoint, in the
    // middle of day 2, and after day 3's checkpoint — then left to finish.
    let crash_schedule = [
        CampaignFaultPlan {
            crash_after_day: Some(0),
            crash_mid_day: None,
        },
        CampaignFaultPlan {
            crash_after_day: None,
            crash_mid_day: Some(2),
        },
        CampaignFaultPlan {
            crash_after_day: Some(3),
            crash_mid_day: None,
        },
        CampaignFaultPlan::NONE,
    ];

    let mut journal = Vec::new();
    let mut outcome = None;
    for (run, crashes) in crash_schedule.iter().enumerate() {
        let result = run_campaign_resumable(
            &server,
            &truth,
            &mut ProxyPool::planetlab(0, 20),
            None,
            FAULTS,
            *crashes,
            seed,
            &mut journal,
        );
        match result {
            Err(CampaignError::Crashed { .. }) => {
                assert!(run < crash_schedule.len() - 1, "final run must not crash");
            }
            Ok(done) => outcome = Some(done),
            Err(other) => panic!("run {run} failed: {other}"),
        }
    }
    let outcome = outcome.expect("final run completes the campaign");

    // Lossless convergence: byte-identical dataset.
    assert_eq!(outcome.dataset, reference.dataset);
    assert_eq!(outcome.dataset.snapshots, truth.snapshots);
    assert!(outcome.dataset.validate().is_ok());

    // The journal replays cleanly and every day is checkpointed.
    let (replayed, health) = read_journal_lossy(journal.as_slice());
    let mut replayed = replayed.unwrap();
    canonicalize(&mut replayed);
    assert_eq!(replayed, reference.dataset);
    assert!(health.quarantined.is_empty());
    assert!(!health.truncated_tail);
    assert_eq!(health.days_complete.len(), truth.snapshots.len());
    // The mid-day kill left a partial day whose re-crawl was deduplicated.
    assert!(health.records_deduplicated > 0);
}

#[test]
fn journal_corrupted_between_runs_is_quarantined_and_recrawled() {
    let truth = ground_truth();
    let server = server_for(&truth);
    let seed = Seed::new(43);

    let mut reference_journal = Vec::new();
    let reference = run_campaign_resumable(
        &server,
        &truth,
        &mut ProxyPool::planetlab(0, 20),
        None,
        FaultPlan::default(),
        CampaignFaultPlan::NONE,
        seed,
        &mut reference_journal,
    )
    .unwrap();

    // Crash after day 2, then damage one byte of the stored journal — the
    // kind of damage a torn write or disk fault leaves behind.
    let mut crashed = Vec::new();
    let err = run_campaign_resumable(
        &server,
        &truth,
        &mut ProxyPool::planetlab(0, 20),
        None,
        FaultPlan::default(),
        CampaignFaultPlan {
            crash_after_day: Some(2),
            crash_mid_day: None,
        },
        seed,
        &mut crashed,
    )
    .unwrap_err();
    assert!(matches!(err, CampaignError::Crashed { .. }));
    let (_, clean) = read_journal_lossy(crashed.as_slice());
    let target = (crashed.len() / 2..crashed.len())
        .find(|&i| crashed[i].is_ascii_digit())
        .expect("journal has digits");

    // A digit swap keeps the damaged line UTF-8; a flipped high bit does
    // not, and must still cost that line alone.
    let digit_swap = if crashed[target] == b'9' { b'8' } else { b'9' };
    for damaged in [digit_swap, crashed[target] ^ 0x80] {
        let mut journal = crashed.clone();
        journal[target] = damaged;
        let resumed = run_campaign_resumable(
            &server,
            &truth,
            &mut ProxyPool::planetlab(0, 20),
            None,
            FaultPlan::default(),
            CampaignFaultPlan::NONE,
            seed,
            &mut journal,
        )
        .unwrap();
        // The damaged line was quarantined, not fatal, and the read went
        // on past it…
        let health = &resumed.initial_health;
        assert_eq!(health.quarantined.len(), 1, "byte {damaged:#04x}");
        assert_eq!(health.lines_total, clean.lines_total, "byte {damaged:#04x}");
        // …and whatever it destroyed was re-crawled: the final dataset
        // still converges unless the corrupted line was a lone checkpoint
        // marker (in which case the whole day re-crawls — also converging).
        assert_eq!(resumed.dataset, reference.dataset, "byte {damaged:#04x}");
    }
}

/// A kill mid-append leaves a torn final line. The resume must end that
/// line before it appends, or its first record is glued to the fragment
/// and quarantined with it.
#[test]
fn resume_after_a_torn_final_line_loses_no_record() {
    let truth = ground_truth();
    let server = server_for(&truth);
    let run = |crashes: CampaignFaultPlan, journal: &mut Vec<u8>| {
        run_campaign_resumable(
            &server,
            &truth,
            &mut ProxyPool::planetlab(0, 20),
            None,
            FaultPlan::default(),
            crashes,
            Seed::new(42),
            journal,
        )
    };
    let reference = run(CampaignFaultPlan::NONE, &mut Vec::new()).unwrap();

    let mut journal = Vec::new();
    let crash_after_day_1 = CampaignFaultPlan {
        crash_after_day: Some(1),
        crash_mid_day: None,
    };
    let err = run(crash_after_day_1, &mut journal).unwrap_err();
    assert!(matches!(err, CampaignError::Crashed { .. }));
    // Append the first half of the last line, without its newline.
    let body = &journal[..journal.len() - 1];
    let last_start = body.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let torn = body[last_start..last_start + (body.len() - last_start) / 2].to_vec();
    journal.extend_from_slice(&torn);

    let resumed = run(CampaignFaultPlan::NONE, &mut journal).unwrap();
    assert!(resumed.initial_health.truncated_tail);
    assert_eq!(resumed.resumed_at, 2);
    assert_eq!(resumed.dataset.snapshots.len(), truth.snapshots.len());
    assert_eq!(resumed.dataset, reference.dataset);
}
