//! Property test of the durable page form: a base image plus at most one
//! merged delta per page, under random writes, splits, checkpoints and
//! crashes.

use crate::commit::GroupCommit;
use crate::test_leader::{Leader, LeaderConfig};
use bg3_bwtree::{BwTreeConfig, PageTag, Rewrite};
use bg3_storage::{CrashPoint, StoreBuilder, StoreConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const SEEDS: u64 = 100;
const LIVES: usize = 3;
const OPS_PER_LIFE: usize = 120;

fn config() -> LeaderConfig {
    LeaderConfig {
        tree_config: BwTreeConfig::default()
            .with_max_page_entries(16)
            .with_consolidate_threshold(4)
            .with_read_cache(false),
        group_commit_pages: usize::MAX,
    }
}

/// Mostly short values, now and then a long one, so both the op-count and
/// the quarter-of-the-base rewrite triggers fire.
fn value(rng: &mut StdRng, i: usize) -> Vec<u8> {
    let len = if rng.gen_bool(0.15) {
        rng.gen_range(32..64usize)
    } else {
        rng.gen_range(1..8usize)
    };
    (0..len).map(|j| (i + j) as u8).collect()
}

/// Random puts and deletes over a few pages with random checkpoints; each
/// life ends in a `MidFlush` or `MidGroupCommit` crash (or runs out of
/// ops) and the next starts from a recovered leader.
///
/// - After every recovery the tree equals a model of the acked writes.
/// - Right after every checkpoint, a cold `get` (read cache off: base then
///   delta from the store) equals the model for every key.
/// - A checkpoint that rewrites a base removes the page's delta key.
/// - Over all seeds, every base-rewrite trigger fires.
#[test]
fn durable_page_form_recovers_and_reads_like_the_model() {
    let mut rewrites = [0u64; 4];
    let mut delta_flushes = 0u64;
    let mut delta_keys_removed = 0u64;
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let mut rw = Leader::new(store.clone(), config());
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for life in 0..LIVES {
            let point = if rng.gen_bool(0.5) {
                CrashPoint::MidFlush
            } else {
                CrashPoint::MidGroupCommit
            };
            let arm_at = rng.gen_range(0..OPS_PER_LIFE);
            for i in 0..OPS_PER_LIFE {
                let key = format!("k{:03}", rng.gen_range(0..64u32)).into_bytes();
                if rng.gen_bool(0.2) {
                    rw.delete(&key).unwrap();
                    model.remove(&key);
                } else {
                    let v = value(&mut rng, i);
                    rw.put(&key, &v).unwrap();
                    model.insert(key, v);
                }
                if !rng.gen_bool(0.15) {
                    continue;
                }
                if i >= arm_at {
                    rw.crash_switch().arm(point);
                }
                let before = rw.mapping().snapshot();
                match rw.checkpoint() {
                    Ok(_) => {}
                    Err(e) if e.is_crash() => break,
                    Err(e) => panic!("seed {seed} life {life}: {e}"),
                }
                let after = rw.mapping().snapshot();
                for (key, addr) in after.entries() {
                    let tag = PageTag::decode(key);
                    let is_delta = tag.page != tag.page_id();
                    if is_delta || before.get(key) == Some(addr) {
                        continue;
                    }
                    let delta = PageTag::delta(tag.tree, tag.page).encode();
                    assert_eq!(after.get(delta), None, "seed {seed}: rewrite kept a delta");
                    delta_keys_removed += u64::from(before.get(delta).is_some());
                }
                for (k, v) in &model {
                    assert_eq!(
                        rw.get(k).unwrap().as_ref(),
                        Some(v),
                        "seed {seed}: cold get"
                    );
                }
                assert_eq!(rw.get(b"k-absent").unwrap(), None);
            }
            // Crash (or the end of this life): only the store and the
            // mapping table survive.
            rw.crash_switch().disarm(point);
            let stats = rw.tree().stats().snapshot();
            for (total, n) in rewrites.iter_mut().zip(stats.base_rewrites) {
                *total += n;
            }
            delta_flushes += stats.delta_flushes;
            let mapping = rw.mapping().clone();
            drop(rw);
            let retry = config().tree_config.retry;
            let (commit, records) = GroupCommit::reopen(&store, mapping, retry).unwrap();
            rw = Leader::recover(store.clone(), commit, &records, config()).unwrap();
            let expected: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            assert_eq!(
                rw.tree().scan_range(None, None, usize::MAX),
                expected,
                "seed {seed} life {life}: recovery diverged from the acked writes"
            );
        }
    }
    for why in [
        Rewrite::Fresh,
        Rewrite::Stale,
        Rewrite::Count,
        Rewrite::Size,
    ] {
        assert!(
            rewrites[why as usize] > 0,
            "{why:?} never fired: {rewrites:?}"
        );
    }
    assert!(delta_flushes > 0, "no checkpoint ever wrote a delta");
    assert!(
        delta_keys_removed > 0,
        "no rewrite ever removed a delta key"
    );
}
