//! Property tests for access-set planning.

use std::collections::BTreeMap;

use proptest::prelude::*;

use orthrus_common::{Key, LockMode};

use crate::plan::AccessSet;

fn mode_strategy() -> impl Strategy<Value = LockMode> {
    prop_oneof![Just(LockMode::Shared), Just(LockMode::Exclusive)]
}

/// The two-vector construction `AccessSet::from_unsorted` used before it
/// worked in place: sort, then merge into a second vector.
fn two_vector_reference(mut raw: Vec<(Key, LockMode)>) -> Vec<(Key, LockMode)> {
    raw.sort_unstable_by_key(|&(k, _)| k);
    let mut entries: Vec<(Key, LockMode)> = Vec::with_capacity(raw.len());
    for (k, m) in raw {
        match entries.last_mut() {
            Some((lk, lm)) if *lk == k => {
                if m == LockMode::Exclusive {
                    *lm = LockMode::Exclusive;
                }
            }
            _ => entries.push((k, m)),
        }
    }
    entries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `AccessSet::from_unsorted` must match a BTreeMap model that merges
    /// duplicate keys to the strongest mode.
    #[test]
    fn access_set_matches_map_model(
        raw in prop::collection::vec((0u64..64, mode_strategy()), 0..64)
    ) {
        let set = AccessSet::from_unsorted(raw.clone());
        let mut model: BTreeMap<Key, LockMode> = BTreeMap::new();
        for (k, m) in raw {
            model
                .entry(k)
                .and_modify(|cur| {
                    if m == LockMode::Exclusive {
                        *cur = LockMode::Exclusive;
                    }
                })
                .or_insert(m);
        }
        let expect: Vec<(Key, LockMode)> = model.into_iter().collect();
        prop_assert_eq!(set.entries(), &expect[..]);
    }

    /// Sorting and merging in the given vector, or in a set that still
    /// holds another transaction's entries, gives what the two-vector
    /// construction gave: duplicates merge to the stronger mode.
    #[test]
    fn in_place_construction_matches_the_two_vector_reference(
        raw in prop::collection::vec((0u64..48, mode_strategy()), 0..64),
        stale in prop::collection::vec((0u64..48, mode_strategy()), 0..64),
    ) {
        let expect = two_vector_reference(raw.clone());
        let set = AccessSet::from_unsorted(raw.clone());
        prop_assert_eq!(set.entries(), &expect[..]);
        let mut reused = AccessSet::from_unsorted(stale);
        reused.refill(raw);
        prop_assert_eq!(reused, set);
    }

    /// `covers` agrees with a linear scan of the produced entries.
    #[test]
    fn covers_agrees_with_scan(
        raw in prop::collection::vec((0u64..32, mode_strategy()), 0..32),
        probe in 0u64..40,
        probe_mode in mode_strategy(),
    ) {
        let set = AccessSet::from_unsorted(raw);
        let scan = set.entries().iter().any(|&(k, m)| {
            k == probe && (probe_mode == LockMode::Shared || m == LockMode::Exclusive)
        });
        prop_assert_eq!(set.covers(probe, probe_mode), scan);
    }

    /// Entries are strictly ascending (sorted + deduplicated).
    #[test]
    fn entries_strictly_ascending(
        raw in prop::collection::vec((any::<u64>().prop_map(|k| k % 1000), mode_strategy()), 0..128)
    ) {
        let set = AccessSet::from_unsorted(raw);
        for w in set.entries().windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
    }
}
