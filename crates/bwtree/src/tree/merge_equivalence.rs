//! Property test of the streamed two-way merge: a tree whose pages carry
//! pending ops scans exactly like a `BTreeMap` model, and exactly like the
//! same tree once every page is consolidated, entries and `ScanOutcome`
//! alike. Covers both write modes and both flush modes; traditional
//! synchronous chains repeat keys. Half the query sets add boundary
//! prefixes, where a batched scan must stop exactly at the first key past
//! each prefix: all-`0xFF` ones, every routing separator and its leading
//! bytes, and prefixes past the last key.

use super::*;
use crate::csr::CSR_ITEM_LEN;
use bg3_storage::{StoreBuilder, StoreConfig};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Cmd {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Flush,
}

/// Mostly edge-shaped keys (group byte + 8-byte tail) over a small space,
/// so puts overwrite and deletes hit present and absent keys and groups
/// span leaves; group `0xFF` and the largest tails reach all-`0xFF` keys.
/// Plus a few short keys, which batched scans skip and which keep a page
/// off the CSR path.
fn key() -> impl Strategy<Value = Vec<u8>> {
    let group = prop_oneof![4 => 0u8..3, 1 => Just(0xFF)];
    let tail = prop_oneof![4 => 0u64..10, 1 => (0u64..2).prop_map(|d| u64::MAX - d)];
    prop_oneof![
        6 => (group, tail).prop_map(|(g, d)| [&[g][..], &d.to_be_bytes()].concat()),
        1 => proptest::collection::vec(0u8..3, 0..3),
    ]
}

fn cmd() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        6 => (key(), proptest::collection::vec(any::<u8>(), 0..4))
            .prop_map(|(k, v)| Cmd::Put(k, v)),
        3 => key().prop_map(Cmd::Delete),
        1 => Just(Cmd::Flush),
    ]
}

fn limit() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..5, Just(usize::MAX)]
}

fn bound() -> impl Strategy<Value = Option<Vec<u8>>> {
    prop_oneof![1 => Just(None), 3 => key().prop_map(Some)]
}

type Model = BTreeMap<Vec<u8>, Vec<u8>>;
type Visits = Vec<(usize, Vec<u8>, Vec<u8>)>;
/// `scan_range(start, end, limit)` arguments.
type Range = (Option<Vec<u8>>, Option<Vec<u8>>, usize);

#[derive(Debug, Clone)]
struct Queries {
    ranges: Vec<Range>,
    /// Sorted by prefix; the tag is the position.
    prefixes: Vec<(usize, Vec<u8>)>,
    per_prefix_limit: usize,
    /// The visitor returns `false` on this many visits of one prefix.
    stop_after: usize,
    /// Whether to add the built tree's [`boundary_prefixes`].
    boundaries: bool,
}

fn queries() -> impl Strategy<Value = Queries> {
    let range = (bound(), bound(), limit());
    (
        proptest::collection::vec(range, 1..6),
        proptest::collection::vec(proptest::collection::vec(0u8..4, 0..2), 0..6),
        (limit(), 1usize..8),
        any::<bool>(),
    )
        .prop_map(
            |(ranges, mut prefixes, (per_prefix_limit, stop_after), boundaries)| {
                prefixes.sort();
                Queries {
                    ranges,
                    prefixes: prefixes.into_iter().enumerate().collect(),
                    per_prefix_limit,
                    stop_after,
                    boundaries,
                }
            },
        )
}

/// Prefixes at the edges of `tree`'s key space: all-`0xFF` ones (the
/// last is a whole key), absent groups, every routing separator and its
/// leading bytes, and two prefixes past the model's last key.
fn boundary_prefixes(tree: &BwTree, model: &Model) -> Vec<Vec<u8>> {
    let mut out = vec![vec![0xFF], vec![0xFF; 2], vec![0xFF; 3], vec![0xFF; 9]];
    out.extend([vec![0x03], vec![0xFE]]);
    for sep in tree.inner.read().routing.keys().filter(|s| !s.is_empty()) {
        out.extend([1, 2, 3, sep.len()].map(|len| sep[..len.min(sep.len())].to_vec()));
    }
    if let Some(last) = model.keys().next_back() {
        out.push([&last[..], &[0]].concat());
        out.extend(last.first().map(|g| vec![g.saturating_add(1)]));
    }
    out
}

/// `q` with the boundary prefixes of `tree` added when it asks for them,
/// re-sorted and re-tagged by position.
fn with_boundaries(q: &Queries, tree: &BwTree, model: &Model) -> Queries {
    let mut q = q.clone();
    if q.boundaries {
        let mut prefixes: Vec<Vec<u8>> = q.prefixes.into_iter().map(|(_, p)| p).collect();
        prefixes.extend(boundary_prefixes(tree, model));
        prefixes.sort();
        q.prefixes = prefixes.into_iter().enumerate().collect();
    }
    q
}

fn build(mode: WriteMode, flush: FlushMode, threshold: usize, cmds: &[Cmd]) -> (BwTree, Model) {
    let config = BwTreeConfig::default()
        .with_mode(mode)
        .with_max_page_entries(6)
        .with_consolidate_threshold(threshold);
    let mut tree = BwTree::new(
        1,
        StoreBuilder::from_config(StoreConfig::counting()).build(),
        config,
    );
    tree.set_flush_mode(flush);
    let mut model = Model::new();
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
    (tree, model)
}

/// Makes every page take the merge path of `scan_prefix_batch`, the path
/// dirty pages always take, so clean and dirty pages count alike.
fn force_merge_path(tree: &BwTree) {
    for state in tree.inner.write().pages.values_mut() {
        state.csr = OnceLock::from(None);
    }
}

fn ranges(tree: &BwTree, q: &Queries) -> Vec<Entries> {
    q.ranges
        .iter()
        .map(|(s, e, limit)| tree.scan_range(s.as_deref(), e.as_deref(), *limit))
        .collect()
}

fn batch(tree: &BwTree, q: &Queries) -> (Visits, ScanOutcome) {
    let mut visits = Vec::new();
    let mut counts = vec![0usize; q.prefixes.len()];
    let outcome = tree.scan_prefix_batch(&q.prefixes, q.per_prefix_limit, &mut |tag, tail, v| {
        visits.push((tag, tail.to_vec(), v.to_vec()));
        counts[tag] += 1;
        counts[tag] < q.stop_after
    });
    (visits, outcome)
}

fn model_ranges(model: &Model, q: &Queries) -> Vec<Entries> {
    q.ranges
        .iter()
        .map(|(s, e, limit)| {
            model
                .iter()
                .filter(|(k, _)| s.as_ref().is_none_or(|s| *k >= s))
                .filter(|(k, _)| e.as_ref().is_none_or(|e| *k < e))
                .take(*limit)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        })
        .collect()
}

fn model_batch(model: &Model, q: &Queries) -> Visits {
    let mut visits = Vec::new();
    for (tag, prefix) in &q.prefixes {
        visits.extend(
            model
                .range(prefix.clone()..)
                .take_while(|(k, _)| k.starts_with(prefix))
                .filter(|(k, _)| k.len() == prefix.len() + CSR_ITEM_LEN)
                .take(q.per_prefix_limit.min(q.stop_after))
                .map(|(k, v)| (*tag, k[prefix.len()..].to_vec(), v.clone())),
        );
    }
    visits
}

fn check(mode: WriteMode, flush: FlushMode, threshold: usize, cmds: &[Cmd], q: &Queries) {
    let (tree, model) = build(mode, flush, threshold, cmds);
    let q = &with_boundaries(q, &tree, &model);

    // Dirty: served through the CSR path where a page is clean, then with
    // every page on the merge path.
    let dirty_ranges = ranges(&tree, q);
    let (dirty_visits, _) = batch(&tree, q);
    force_merge_path(&tree);
    let (merged_visits, dirty_outcome) = batch(&tree, q);
    assert_eq!(dirty_ranges, model_ranges(&model, q), "scan_range vs model");
    assert_eq!(dirty_visits, model_batch(&model, q), "batch vs model");
    assert_eq!(merged_visits, dirty_visits, "merge path vs CSR path");

    // The same tree with no pending op left: a synchronous tree keeps its
    // deltas across `flush_dirty`, so consolidate what remains.
    tree.flush_dirty().unwrap();
    for state in tree.inner.write().pages.values_mut() {
        state.consolidate();
    }
    assert_eq!(ranges(&tree, q), dirty_ranges, "scan_range vs flushed");
    let (flushed_visits, flushed_outcome) = batch(&tree, q);
    assert_eq!(flushed_visits, dirty_visits, "batch vs flushed");
    force_merge_path(&tree);
    assert_eq!(
        batch(&tree, q),
        (dirty_visits, dirty_outcome),
        "batch and its outcome vs flushed, all on the merge path"
    );
    assert_eq!(
        flushed_outcome.segments_scanned, dirty_outcome.segments_scanned,
        "CSR and merge paths stop at the same leaf"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dirty_scans_match_model_and_flushed_tree(
        cmds in proptest::collection::vec(cmd(), 1..80),
        traditional in any::<bool>(),
        deferred in any::<bool>(),
        threshold in 1usize..8,
        q in queries(),
    ) {
        let mode = if traditional { WriteMode::Traditional } else { WriteMode::ReadOptimized };
        let flush = if deferred { FlushMode::Deferred } else { FlushMode::Synchronous };
        check(mode, flush, threshold, &cmds, &q);
    }
}
