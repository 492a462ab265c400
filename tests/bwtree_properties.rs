//! Property-based tests of the Bw-tree against a model, across write
//! modes, flush modes, and cache settings.

use bg3_bwtree::tree::FlushMode;
use bg3_bwtree::{BwTree, BwTreeConfig, WriteMode};
use bg3_storage::{StoreBuilder, StoreConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Cmd {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Flush,
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Short keys from a small alphabet: lots of overwrites and ordering
    // edge cases (prefixes, equal keys, empty key).
    proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c')], 0..4)
}

/// Keys `key_strategy` cannot produce.
const NEVER_WRITTEN: [&[u8]; 5] = [b"\0", b"abca", b"bb\0", b"d", b"zzz-never-written"];

fn cmd_strategy() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        5 => (key_strategy(), proptest::collection::vec(any::<u8>(), 0..6))
            .prop_map(|(k, v)| Cmd::Put(k, v)),
        2 => key_strategy().prop_map(Cmd::Delete),
        1 => Just(Cmd::Flush),
    ]
}

fn run_cmds(tree: &BwTree, model: &mut BTreeMap<Vec<u8>, Vec<u8>>, cmds: &[Cmd]) {
    for cmd in cmds {
        match cmd {
            Cmd::Put(k, v) => {
                tree.put(k, v).unwrap();
                model.insert(k.clone(), v.clone());
            }
            Cmd::Delete(k) => {
                tree.delete(k).unwrap();
                model.remove(k);
            }
            Cmd::Flush => {
                tree.flush_dirty().unwrap();
            }
        }
    }
}

fn assert_matches_model(tree: &BwTree, model: &BTreeMap<Vec<u8>, Vec<u8>>) {
    // Point lookups over every key ever mentioned plus strangers.
    for k in model.keys() {
        assert_eq!(tree.get(k).unwrap().as_ref(), model.get(k), "get {k:?}");
    }
    assert_eq!(tree.get(b"zzz-never-written").unwrap(), None);
    // Full ordered scan equals the model.
    let scanned = tree.scan_range(None, None, usize::MAX);
    let expected: Vec<(Vec<u8>, Vec<u8>)> =
        model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(scanned, expected, "scan mismatch");
    assert_eq!(tree.entry_count(), model.len());
}

fn config_for(mode: WriteMode, read_cache: bool) -> BwTreeConfig {
    BwTreeConfig::default()
        .with_mode(mode)
        .with_read_cache(read_cache)
        .with_max_page_entries(6)
        .with_consolidate_threshold(3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn read_optimized_tree_matches_model(cmds in proptest::collection::vec(cmd_strategy(), 1..80)) {
        let tree = BwTree::new(
            1,
            StoreBuilder::from_config(StoreConfig::counting()).build(),
            config_for(WriteMode::ReadOptimized, true),
        );
        let mut model = BTreeMap::new();
        run_cmds(&tree, &mut model, &cmds);
        assert_matches_model(&tree, &model);
    }

    #[test]
    fn traditional_tree_matches_model(cmds in proptest::collection::vec(cmd_strategy(), 1..80)) {
        let tree = BwTree::new(
            1,
            StoreBuilder::from_config(StoreConfig::counting()).build(),
            config_for(WriteMode::Traditional, true),
        );
        let mut model = BTreeMap::new();
        run_cmds(&tree, &mut model, &cmds);
        assert_matches_model(&tree, &model);
    }

    #[test]
    fn cold_reads_agree_with_model(cmds in proptest::collection::vec(cmd_strategy(), 1..60)) {
        // Cache off: every get reconstructs the page from storage images.
        // Splits stay enabled; the durable representation must be complete.
        for mode in [WriteMode::Traditional, WriteMode::ReadOptimized] {
            let tree = BwTree::new(
                1,
                StoreBuilder::from_config(StoreConfig::counting()).build(),
                config_for(mode, false),
            );
            let mut model = BTreeMap::new();
            // Cold mode cannot serve keys never flushed in deferred mode, so
            // skip Flush commands (they are a deferred-mode concept).
            let cmds: Vec<Cmd> = cmds
                .iter()
                .filter(|c| !matches!(c, Cmd::Flush))
                .cloned()
                .collect();
            run_cmds(&tree, &mut model, &cmds);
            for k in model.keys() {
                let got = tree.get(k).unwrap();
                prop_assert_eq!(
                    got.as_ref(),
                    model.get(k),
                    "cold get {:?} under {:?}", k, mode
                );
            }
            // Deleted keys: a tombstone in a delta must hide the entry the
            // durable base may still hold.
            for cmd in &cmds {
                if let Cmd::Delete(k) = cmd {
                    if !model.contains_key(k) {
                        prop_assert_eq!(
                            tree.get(k).unwrap(),
                            None,
                            "cold get of deleted {:?} under {:?}", k, mode
                        );
                    }
                }
            }
            // Keys outside the strategy's alphabet or length, so never
            // written, sorting before, between and after the written ones.
            for k in NEVER_WRITTEN {
                prop_assert_eq!(
                    tree.get(k).unwrap(),
                    None,
                    "cold get of never-written {:?} under {:?}", k, mode
                );
            }
        }
    }

    #[test]
    fn deferred_mode_matches_model_across_flushes(
        cmds in proptest::collection::vec(cmd_strategy(), 1..80)
    ) {
        let mut tree = BwTree::new(
            1,
            StoreBuilder::from_config(StoreConfig::counting()).build(),
            config_for(WriteMode::ReadOptimized, true),
        );
        tree.set_flush_mode(FlushMode::Deferred);
        let mut model = BTreeMap::new();
        run_cmds(&tree, &mut model, &cmds);
        assert_matches_model(&tree, &model);
    }

    #[test]
    fn scan_range_is_a_model_range(
        cmds in proptest::collection::vec(cmd_strategy(), 1..60),
        start in key_strategy(),
        end in key_strategy(),
    ) {
        let tree = BwTree::new(
            1,
            StoreBuilder::from_config(StoreConfig::counting()).build(),
            config_for(WriteMode::ReadOptimized, true),
        );
        let mut model = BTreeMap::new();
        run_cmds(&tree, &mut model, &cmds);
        // Inverted bounds must yield nothing (and must not panic).
        let (lo, hi) = if start <= end { (&start, &end) } else { (&end, &start) };
        if start > end {
            prop_assert!(tree.scan_range(Some(&start), Some(&end), usize::MAX).is_empty());
        }
        let scanned = tree.scan_range(Some(lo), Some(hi), usize::MAX);
        let expected: Vec<(Vec<u8>, Vec<u8>)> = model
            .range::<Vec<u8>, _>(lo.clone()..hi.clone())
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        prop_assert_eq!(scanned, expected);
    }
}
