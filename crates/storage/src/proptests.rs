//! Property tests for the storage substrates.

use std::collections::BTreeMap;

use proptest::prelude::*;

use crate::{HashIndex, PartitionedTable, RecordStore};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The open-addressing index must agree with a BTreeMap on arbitrary
    /// (deduplicated) key sets, both for hits and misses.
    #[test]
    fn hash_index_matches_map(
        entries in prop::collection::btree_map(0u64..100_000, 0usize..1_000_000, 0..200),
        probes in prop::collection::vec(0u64..100_000, 0..100),
    ) {
        let mut idx = HashIndex::with_capacity(entries.len().max(1));
        for (&k, &v) in &entries {
            idx.insert(k, v);
        }
        prop_assert_eq!(idx.len(), entries.len());
        for (&k, &v) in &entries {
            prop_assert_eq!(idx.get(k), Some(v));
        }
        for p in probes {
            prop_assert_eq!(idx.get(p), entries.get(&p).copied());
        }
    }

    /// Partitioned placement is a bijection: every loaded key resolves in
    /// exactly its own partition.
    #[test]
    fn partitioned_table_placement_is_bijective(
        n_records in 1usize..300,
        n_parts in 1usize..12,
    ) {
        let t = PartitionedTable::new(n_records, 64, n_parts);
        for key in 0..n_records as u64 {
            let owner = t.partition_of(key);
            prop_assert_eq!(owner, (key % n_parts as u64) as usize);
            prop_assert!(t.partition(owner).lookup(key).is_some());
            for p in 0..n_parts {
                if p != owner {
                    prop_assert!(t.partition(p).lookup(key).is_none());
                }
            }
        }
    }

    /// Record payload round-trips are byte-exact and neighbour-isolated.
    #[test]
    fn record_store_roundtrip_isolated(
        n_records in 2usize..32,
        record_size in 8usize..256,
        writes in prop::collection::vec((0usize..32, any::<u8>()), 1..32),
    ) {
        let store = RecordStore::new(n_records, record_size);
        let mut model: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
        for (rid, fill) in writes {
            let rid = rid % n_records;
            let payload = vec![fill; record_size];
            // SAFETY: single-threaded test — trivially exclusive.
            unsafe { store.write_from(rid, &payload) };
            model.insert(rid, payload);
        }
        let mut buf = vec![0u8; record_size];
        for rid in 0..n_records {
            // SAFETY: single-threaded test.
            unsafe { store.read_into(rid, &mut buf) };
            match model.get(&rid) {
                Some(expect) => prop_assert_eq!(&buf, expect),
                None => prop_assert!(buf.iter().all(|&b| b == 0)),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Segmented-log crash model: whatever byte offset a crash cuts the
    /// physical stream at, the scan recovers exactly the longest prefix
    /// of whole records — never garbage, never a reordered or invented
    /// payload — and tail repair leaves a cleanly appendable log.
    #[test]
    fn segmented_log_recovers_longest_valid_prefix(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..24),
        segment_budget in 32u64..256,
        cut_back in 0u64..512,
    ) {
        let t = orthrus_common::TempDir::new("seglog-prop");
        let mut log = crate::log::SegmentedLog::open(t.path(), segment_budget).unwrap();
        for p in &payloads {
            log.append(p).unwrap();
        }
        log.sync().unwrap();
        drop(log);

        let full = crate::log::scan(t.path()).unwrap();
        prop_assert_eq!(full.tear, None);
        prop_assert_eq!(&full.payloads, &payloads);

        // Crash at an arbitrary physical offset (clamped into the file).
        let total = crate::log::total_bytes(t.path()).unwrap();
        let offset = total.saturating_sub(cut_back % (total + 1));
        crate::log::truncate_at(t.path(), offset).unwrap();

        let scan = crate::log::scan(t.path()).unwrap();
        // The survivors are exactly a prefix…
        prop_assert!(scan.payloads.len() <= payloads.len());
        prop_assert_eq!(&scan.payloads[..], &payloads[..scan.payloads.len()]);
        // …namely the longest one: every record wholly below the cut
        // survives (record_ends are physical end offsets).
        let expect = full.record_ends.iter().filter(|&&e| e <= offset).count();
        prop_assert_eq!(scan.payloads.len(), expect);

        // Repair where a reader stops, then append: the log stitches
        // cleanly after any tear.
        let mut reader = crate::log::LogReader::open(t.path()).unwrap();
        while reader.next_record().unwrap().is_some() {}
        crate::log::truncate_to(t.path(), reader.position()).unwrap();
        let mut log = crate::log::SegmentedLog::open(t.path(), segment_budget).unwrap();
        log.append(b"post-crash").unwrap();
        log.sync().unwrap();
        drop(log);
        let repaired = crate::log::scan(t.path()).unwrap();
        prop_assert_eq!(repaired.tear, None);
        prop_assert_eq!(repaired.payloads.len(), expect + 1);
        prop_assert_eq!(&repaired.payloads[expect][..], b"post-crash");
    }

    /// Batched writes lay records out exactly as per-record appends do,
    /// under budgets that roll every record or two: the same payloads,
    /// the same physical record ends — so no record is split across
    /// segments, and a crash offset means the same thing in both logs.
    #[test]
    fn append_frames_matches_per_record_appends(
        batches in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 0..6),
            1..8,
        ),
        segment_budget in 24u64..160,
    ) {
        let one = orthrus_common::TempDir::new("seglog-one");
        let batched = orthrus_common::TempDir::new("seglog-batched");
        let mut log = crate::log::SegmentedLog::open(one.path(), segment_budget).unwrap();
        for p in batches.iter().flatten() {
            log.append(p).unwrap();
        }
        drop(log);
        let mut log = crate::log::SegmentedLog::open(batched.path(), segment_budget).unwrap();
        let mut frames = Vec::new();
        for batch in &batches {
            frames.clear();
            for p in batch {
                crate::log::frame_record(&mut frames, |out| out.extend_from_slice(p));
            }
            prop_assert_eq!(log.append_frames(&frames).unwrap(), frames.len() as u64);
        }
        drop(log);

        let (a, b) = (crate::log::scan(one.path()).unwrap(), crate::log::scan(batched.path()).unwrap());
        prop_assert_eq!(b.tear, None);
        let flat: Vec<Vec<u8>> = batches.iter().flatten().cloned().collect();
        prop_assert_eq!(&b.payloads, &flat);
        prop_assert_eq!(&b.payloads, &a.payloads);
        prop_assert_eq!(&b.record_ends, &a.record_ends);
        prop_assert_eq!(
            crate::log::segment_paths(batched.path()).unwrap().len(),
            crate::log::segment_paths(one.path()).unwrap().len()
        );
    }
}

/// CRC-32 one byte at a time: the definition slice-by-8 must agree with.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Slice-by-8 equals the bytewise CRC for every length up to 64 —
    /// every tail length, every count of whole words — read at each
    /// alignment a buffer can start at.
    #[test]
    fn crc32_matches_the_bytewise_definition(
        bytes in prop::collection::vec(any::<u8>(), 72..73),
        offset in 0usize..8,
    ) {
        for len in 0..=64 {
            let s = &bytes[offset..offset + len];
            prop_assert_eq!(crate::log::crc32(s), crc32_bytewise(s), "len {}", len);
        }
    }
}
