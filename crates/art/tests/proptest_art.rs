//! Property-based tests: `Art` and `SyncArt` against a `BTreeMap` model.

use std::collections::BTreeMap;

use dcart_art::{Art, Key, SyncArt};
use proptest::prelude::*;

/// A randomized sequence of map operations.
#[derive(Clone, Debug)]
enum Op {
    Insert(u64, u32),
    Remove(u64),
    Get(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Draw keys from a small domain so operations collide often.
    let key = 0u64..512;
    prop_oneof![
        (key.clone(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        key.clone().prop_map(Op::Remove),
        key.prop_map(Op::Get),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary interleavings of insert/remove/get agree with BTreeMap.
    #[test]
    fn art_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut art = Art::new();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let got = art.insert(Key::from_u64(k), v).unwrap();
                    let want = model.insert(k, v);
                    prop_assert_eq!(got, want);
                }
                Op::Remove(k) => {
                    let got = art.remove(&Key::from_u64(k));
                    let want = model.remove(&k);
                    prop_assert_eq!(got, want);
                }
                Op::Get(k) => {
                    prop_assert_eq!(art.get(&Key::from_u64(k)).copied(), model.get(&k).copied());
                }
            }
            prop_assert_eq!(art.len(), model.len());
        }
        // Final full-content equality, in order.
        let got: Vec<(u64, u32)> = art.iter().map(|(k, v)| (k.to_u64().unwrap(), *v)).collect();
        let want: Vec<(u64, u32)> = model.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    /// Every structural invariant (path compression, single parents,
    /// reachable = allocated, leaf paths) holds after any op sequence.
    #[test]
    fn invariants_hold_under_churn(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let mut art = Art::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => { art.insert(Key::from_u64(k), v).unwrap(); }
                Op::Remove(k) => { art.remove(&Key::from_u64(k)); }
                Op::Get(_) => {}
            }
            let violations = art.check_invariants();
            prop_assert!(violations.is_empty(), "{violations:?}");
        }
    }

    /// scan_prefix agrees with filtering the model by prefix.
    #[test]
    fn scan_prefix_matches_model(
        keys in proptest::collection::btree_set(0u64..100_000, 1..150),
        probe in 0u64..100_000,
        plen in 4usize..8,
    ) {
        let mut art = Art::new();
        for &k in &keys {
            art.insert(Key::from_u64(k), k).unwrap();
        }
        let probe_key = Key::from_u64(probe);
        let prefix = &probe_key.as_bytes()[..plen];
        let got: Vec<u64> = art.scan_prefix(prefix).map(|(_, v)| *v).collect();
        let want: Vec<u64> = keys
            .iter()
            .copied()
            .filter(|&k| Key::from_u64(k).as_bytes().starts_with(prefix))
            .collect();
        prop_assert_eq!(got, want);
    }

    /// Range queries return exactly the model's range, in order.
    #[test]
    fn range_matches_btreemap(
        keys in proptest::collection::btree_set(0u64..10_000, 0..200),
        lo in 0u64..10_000,
        width in 0u64..5_000,
    ) {
        let mut art = Art::new();
        let mut model = BTreeMap::new();
        for &k in &keys {
            art.insert(Key::from_u64(k), k).unwrap();
            model.insert(k, k);
        }
        let hi = lo.saturating_add(width);
        let start = Key::from_u64(lo);
        let end = Key::from_u64(hi);
        let got: Vec<u64> = art
            .range(start.as_bytes(), Some(end.as_bytes()))
            .map(|(_, v)| *v)
            .collect();
        let want: Vec<u64> = model.range(lo..hi).map(|(_, v)| *v).collect();
        prop_assert_eq!(got, want);
    }

    /// Variable-length string keys (with shared prefixes) round-trip.
    #[test]
    fn string_keys_roundtrip(words in proptest::collection::btree_set("[a-d]{1,6}", 1..60)) {
        let mut art = Art::new();
        for (i, w) in words.iter().enumerate() {
            art.insert(Key::from_str_bytes(w), i).unwrap();
        }
        for (i, w) in words.iter().enumerate() {
            prop_assert_eq!(art.get(&Key::from_str_bytes(w)), Some(&i));
        }
        // Iteration order equals lexicographic order of the words.
        let got: Vec<String> = art
            .iter()
            .map(|(k, _)| {
                let b = k.as_bytes();
                String::from_utf8(b[..b.len() - 1].to_vec()).unwrap()
            })
            .collect();
        let want: Vec<String> = words.iter().cloned().collect();
        prop_assert_eq!(got, want);
    }

    /// The concurrent tree agrees with the model under sequential use.
    #[test]
    fn sync_art_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let art = SyncArt::new();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let got = art.insert(Key::from_u64(k), v).unwrap();
                    prop_assert_eq!(got, model.insert(k, v));
                }
                Op::Remove(k) => {
                    prop_assert_eq!(art.remove(&Key::from_u64(k)), model.remove(&k));
                }
                Op::Get(k) => {
                    prop_assert_eq!(art.get(&Key::from_u64(k)), model.get(&k).copied());
                }
            }
            prop_assert_eq!(art.len(), model.len());
        }
    }

    /// scan_traced returns exactly what range() yields, truncated to the
    /// limit, and reports at least one visit per returned leaf.
    #[test]
    fn scan_traced_matches_range(
        keys in proptest::collection::btree_set(0u64..20_000, 1..150),
        start in 0u64..20_000,
        limit in 1usize..60,
    ) {
        use dcart_art::RecordingTracer;
        let mut art = Art::new();
        for &k in &keys {
            art.insert(Key::from_u64(k), k).unwrap();
        }
        let start_key = Key::from_u64(start);
        let mut tracer = RecordingTracer::new();
        let got: Vec<u64> = art
            .scan_traced(start_key.as_bytes(), limit, &mut tracer)
            .into_iter()
            .map(|(_, v)| *v)
            .collect();
        let want: Vec<u64> = art
            .range(start_key.as_bytes(), None)
            .take(limit)
            .map(|(_, v)| *v)
            .collect();
        prop_assert_eq!(&got, &want);
        prop_assert!(tracer.trace.visits.len() >= got.len(),
            "each returned leaf was fetched");
    }

    /// Bulk loading yields exactly the insert-built structure.
    #[test]
    fn bulk_load_matches_incremental(keys in proptest::collection::btree_set(any::<u64>(), 1..200)) {
        let pairs: Vec<(Key, u64)> = keys.iter().map(|&k| (Key::from_u64(k), k)).collect();
        let bulk = Art::from_sorted(pairs).unwrap();
        let mut incremental = Art::new();
        for &k in keys.iter().rev() {
            incremental.insert(Key::from_u64(k), k).unwrap();
        }
        prop_assert!(bulk.check_invariants().is_empty());
        prop_assert_eq!(bulk.node_count(), incremental.node_count());
        prop_assert_eq!(bulk.type_histogram(), incremental.type_histogram());
        let a: Vec<u64> = bulk.iter().map(|(_, v)| *v).collect();
        let b: Vec<u64> = incremental.iter().map(|(_, v)| *v).collect();
        prop_assert_eq!(a, b);
    }

    /// The path-free `iter` yields exactly the model's pairs, in order, as
    /// one inner level grows N4 → N256 under a long shared prefix and then
    /// shrinks under removes down to one key and to none.
    #[test]
    fn iter_matches_btreemap_through_growth_and_removal(
        codes in proptest::collection::btree_set(0u16..1024, 1..400),
        prefix_len in 0usize..24,
        removes in proptest::collection::vec(any::<u16>(), 0..300),
    ) {
        // A shared run of `prefix_len` bytes, then a byte with up to 256
        // distinct values (the node that grows), then a 2-bit tail.
        let key = |code: u16| {
            let mut bytes = vec![0xA5u8; prefix_len];
            bytes.extend_from_slice(&[(code >> 2) as u8, (code & 3) as u8]);
            Key::from_raw(bytes)
        };
        let mut art = Art::new();
        let mut model: BTreeMap<Vec<u8>, u16> = BTreeMap::new();
        let check = |art: &Art<u16>, model: &BTreeMap<Vec<u8>, u16>| {
            let iter = art.iter();
            prop_assert_eq!(iter.len(), model.len());
            let got: Vec<(Vec<u8>, u16)> = iter.map(|(k, &v)| (k.as_bytes().to_vec(), v)).collect();
            let want: Vec<(Vec<u8>, u16)> = model.iter().map(|(k, &v)| (k.clone(), v)).collect();
            prop_assert_eq!(got, want);
            Ok(())
        };
        for &code in &codes {
            art.insert(key(code), code).unwrap();
            model.insert(key(code).as_bytes().to_vec(), code);
        }
        check(&art, &model)?;
        let all: Vec<u16> = codes.iter().copied().collect();
        for r in removes {
            let code = all[usize::from(r) % all.len()];
            prop_assert_eq!(art.remove(&key(code)), model.remove(key(code).as_bytes()));
        }
        check(&art, &model)?;
        // Down to one key, then to none.
        let mut left: Vec<u16> = model.values().copied().collect();
        if left.is_empty() {
            art.insert(key(all[0]), all[0]).unwrap();
            model.insert(key(all[0]).as_bytes().to_vec(), all[0]);
            left.push(all[0]);
        }
        for &code in &left[1..] {
            art.remove(&key(code));
            model.remove(key(code).as_bytes());
        }
        check(&art, &model)?;
        art.remove(&key(left[0]));
        model.remove(key(left[0]).as_bytes());
        check(&art, &model)?;
        prop_assert!(art.iter().next().is_none());
    }

    /// min/max equal the model's first/last keys.
    #[test]
    fn min_max_match(keys in proptest::collection::btree_set(any::<u64>(), 1..100)) {
        let mut art = Art::new();
        for &k in &keys {
            art.insert(Key::from_u64(k), ()).unwrap();
        }
        let min = art.min().and_then(|(k, _)| k.to_u64());
        let max = art.max().and_then(|(k, _)| k.to_u64());
        prop_assert_eq!(min, keys.iter().next().copied());
        prop_assert_eq!(max, keys.iter().last().copied());
    }
}
