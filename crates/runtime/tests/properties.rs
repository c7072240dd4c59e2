//! Property test: the H1 card table's maintained dirty-word index agrees
//! with a full per-card probe. (Mutation programs against a shadow model
//! live in the knob matrix, `gc_equivalence.rs`.)
//!
//! Runs on the in-repo harness (`teraheap_util::proptest_mini`): cases are
//! seeded deterministically, failures shrink to a minimal op sequence and
//! print a `TERAHEAP_PROP_SEED` for replay.

use teraheap_util::prop_assert_eq;
use teraheap_util::proptest_mini::{check, CaseResult, Config};

/// Whatever interleaving of barrier marks, per-card clears, bulk clears and
/// mid-sequence queries hits the H1 card table, the maintained dirty-word
/// index returns exactly what a full per-card probe reports: same cards,
/// same ascending order.
#[test]
fn h1_card_index_matches_full_probe() {
    use teraheap_core::Addr;
    use teraheap_runtime::space::H1CardTable;
    use teraheap_util::proptest_mini::{range_usize, vec_of};
    // Ops: (card, code). 0 = mark_dirty via an address in the card,
    // 1 = clear, 2 = clear_all, 3 = query (forces the lazy index
    // reconciliation mid-sequence, not just at the end).
    check(
        "h1_card_index_matches_full_probe",
        &vec_of((range_usize(0..130), range_usize(0..4)), 1..200),
        &Config::with_cases(256),
        |ops: Vec<(usize, usize)>| {
            // 130 cards: exercises partial bitmap words on both ends.
            let mut t = H1CardTable::new(Addr::new(1 << 20), 130 * 64, 64);
            for &(card, code) in &ops {
                match code {
                    0 => t.mark_dirty(Addr::new((1 << 20) + (card * 64 + 5) as u64)),
                    1 => t.clear(card),
                    2 => t.clear_all(),
                    _ => {
                        let _ = t.dirty_cards();
                    }
                }
            }
            let probe: Vec<usize> = (0..t.card_count()).filter(|&i| t.is_dirty(i)).collect();
            prop_assert_eq!(t.dirty_cards(), probe);
            CaseResult::Pass
        },
    );
}
