//! Property tests for the fault-tolerance layer: backoff discipline,
//! journal quarantine under arbitrary single-line corruption, and
//! crash/resume convergence at an arbitrary day.

use appstore_core::{Dataset, Seed, StoreId};
use appstore_crawler::{
    backoff_delay_ms, read_journal_lossy, run_campaign_resumable, write_journal, CampaignError,
    CampaignFaultPlan, FaultPlan, MarketplaceServer, ProxyPool, ResumeOutcome, ServerPolicy,
};
use appstore_synth::{generate, StoreProfile};
use proptest::prelude::*;
use std::sync::OnceLock;

fn ground_truth() -> &'static Dataset {
    static TRUTH: OnceLock<Dataset> = OnceLock::new();
    TRUTH.get_or_init(|| {
        let mut profile = StoreProfile::anzhi().scaled_down(80);
        profile.commenter_fraction = 0.5;
        profile.comment_rate = 0.10;
        generate(&profile, StoreId(0), Seed::new(51)).dataset
    })
}

fn sealed_journal() -> &'static [u8] {
    static JOURNAL: OnceLock<Vec<u8>> = OnceLock::new();
    JOURNAL.get_or_init(|| {
        let mut bytes = Vec::new();
        write_journal(ground_truth(), &mut bytes).expect("journal writes");
        bytes
    })
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

fn run(
    truth: &Dataset,
    crashes: CampaignFaultPlan,
    journal: &mut Vec<u8>,
) -> Result<ResumeOutcome, CampaignError> {
    let server = server_for(truth);
    run_campaign_resumable(
        &server,
        truth,
        &mut ProxyPool::planetlab(0, 20),
        None,
        FaultPlan {
            drop_chance: 0.05,
            corrupt_chance: 0.05,
        },
        crashes,
        Seed::new(52),
        journal,
    )
}

/// The uninterrupted reference: what any crash/resume sequence of the
/// same campaign must converge to.
fn reference() -> &'static Dataset {
    static REFERENCE: OnceLock<Dataset> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let mut journal = Vec::new();
        run(ground_truth(), CampaignFaultPlan::NONE, &mut journal)
            .expect("uninterrupted run completes")
            .dataset
    })
}

proptest! {
    /// The backoff schedule never shrinks between consecutive retries
    /// and never exceeds the documented ceiling of `base << 8`.
    #[test]
    fn backoff_is_monotone_and_bounded(base in 1u64..100_000, attempt in 1u32..1_000) {
        let delay = backoff_delay_ms(base, attempt);
        prop_assert!(delay >= backoff_delay_ms(base, attempt - 1));
        prop_assert!(delay <= backoff_delay_ms(base, attempt + 1));
        prop_assert!(delay <= base.saturating_mul(1 << 8));
        prop_assert!(delay >= base);
    }

    /// Corrupting any single non-header line of a sealed journal loses
    /// exactly that line: it is quarantined, every other record loads.
    /// The flipped bit is the low one (the line stays UTF-8) or the high
    /// one (it does not).
    #[test]
    fn any_single_corrupted_line_quarantines_exactly_one(
        fraction in 0.0f64..1.0,
        high_bit in any::<bool>(),
    ) {
        let pristine = sealed_journal();
        let lines = pristine.split(|&b| b == b'\n').filter(|l| !l.is_empty()).count();
        let (_, clean) = read_journal_lossy(pristine);
        prop_assert!(clean.quarantined.is_empty());

        // Pick a victim line (0-based, skipping the header) and flip
        // one bit in the middle of its payload.
        let victim = 1 + ((lines - 1) as f64 * fraction) as usize % (lines - 1);
        let mut damaged = pristine.to_vec();
        let (mut start, mut line) = (0usize, 0usize);
        for (i, &b) in pristine.iter().enumerate() {
            if line == victim {
                start = i;
                break;
            }
            if b == b'\n' {
                line += 1;
            }
        }
        let end = start + pristine[start..].iter().position(|&b| b == b'\n').unwrap();
        damaged[start + (end - start) / 2] ^= if high_bit { 0x80 } else { 0x01 };

        let (replayed, health) = read_journal_lossy(damaged.as_slice());
        prop_assert!(replayed.is_some(), "header intact, dataset must load");
        prop_assert_eq!(health.quarantined.len(), 1);
        prop_assert_eq!(health.quarantined[0].line, victim + 1);
        prop_assert_eq!(health.lines_total, clean.lines_total);
        prop_assert_eq!(health.records_kept, clean.records_kept - 1);
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A campaign killed at an arbitrary day — after its checkpoint or
    /// mid-day — then resumed, converges to the uninterrupted dataset.
    #[test]
    fn resume_after_any_crash_day_converges(
        fraction in 0.0f64..1.0,
        kind in 0u8..2,
    ) {
        let truth = ground_truth();
        let day = (truth.snapshots.len() as f64 * fraction) as u32;
        let crashes = if kind == 1 {
            CampaignFaultPlan { crash_after_day: None, crash_mid_day: Some(day) }
        } else {
            CampaignFaultPlan { crash_after_day: Some(day), crash_mid_day: None }
        };

        let mut journal = Vec::new();
        match run(truth, crashes, &mut journal) {
            Err(CampaignError::Crashed { .. }) => {}
            Ok(_) => prop_assert!(false, "campaign must crash at day {}", day),
            Err(other) => prop_assert!(false, "unexpected failure: {}", other),
        }
        let resumed = match run(truth, CampaignFaultPlan::NONE, &mut journal) {
            Ok(outcome) => outcome,
            Err(e) => panic!("resume failed: {e}"),
        };
        prop_assert!(resumed.resumed_at > 0 || day == 0);
        prop_assert_eq!(&resumed.dataset, reference());
    }
}
