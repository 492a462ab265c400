//! Property-based tests for the storage crate's measurement and fault
//! surfaces: every counter in a store's metric registry only ever grows,
//! and fault plans must be pure functions of (seed, rules, op index).

use bg3_storage::{
    CacheConfig, FaultKind, FaultOp, FaultPlan, FaultRule, PageAddr, ReadOpts, StoreBuilder,
    StoreConfig, StreamId,
};
use proptest::prelude::*;

/// A storage op for the monotonicity drive.
#[derive(Debug, Clone)]
enum StoreCmd {
    Append(Vec<u8>),
    ReadLast,
    InvalidateLast,
}

fn store_cmd_strategy() -> impl Strategy<Value = StoreCmd> {
    prop_oneof![
        3 => proptest::collection::vec(any::<u8>(), 1..64).prop_map(StoreCmd::Append),
        2 => Just(StoreCmd::ReadLast),
        1 => Just(StoreCmd::InvalidateLast),
    ]
}

/// A command for the cache-coherence drive. Indices select among live
/// records (modulo the live count at execution time).
#[derive(Debug, Clone)]
enum CacheCmd {
    Append(Vec<u8>),
    Read(u8),
    Invalidate(u8),
    Relocate(u8),
    Expire(u8),
}

fn cache_cmd_strategy() -> impl Strategy<Value = CacheCmd> {
    prop_oneof![
        4 => proptest::collection::vec(any::<u8>(), 1..48).prop_map(CacheCmd::Append),
        4 => any::<u8>().prop_map(CacheCmd::Read),
        1 => any::<u8>().prop_map(CacheCmd::Invalidate),
        1 => any::<u8>().prop_map(CacheCmd::Relocate),
        1 => any::<u8>().prop_map(CacheCmd::Expire),
    ]
}

fn fault_op_strategy() -> impl Strategy<Value = FaultOp> {
    prop_oneof![
        Just(FaultOp::Append),
        Just(FaultOp::Read),
        Just(FaultOp::MappingPublish),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every registry counter only ever grows, so a phase's I/O is the
    /// later value minus the earlier one: the contract every experiment's
    /// before/after measurement relies on.
    #[test]
    fn store_snapshots_are_monotone(cmds in proptest::collection::vec(store_cmd_strategy(), 1..40)) {
        let store = StoreBuilder::from_config(StoreConfig::counting()).build();
        let mut prev = store.metrics_snapshot();
        let mut last_addr = None;
        for cmd in &cmds {
            match cmd {
                StoreCmd::Append(bytes) => {
                    last_addr = Some(store.append(StreamId::BASE, bytes, 0, None).unwrap());
                }
                StoreCmd::ReadLast => {
                    if let Some(addr) = last_addr {
                        store.read(addr).unwrap();
                    }
                }
                StoreCmd::InvalidateLast => {
                    if let Some(addr) = last_addr.take() {
                        store.invalidate(addr).unwrap();
                    }
                }
            }
            let now = store.metrics_snapshot();
            for c in &prev.counters {
                prop_assert!(now.counter(&c.name) >= Some(c.value), "{} moved backwards", c.name);
            }
            prev = now;
        }
    }

    /// The page cache is invisible to correctness: after any interleaving
    /// of appends, invalidations, relocations, TTL expiries, and injected
    /// torn writes, a cached `read` returns exactly what
    /// `read_with(addr, ReadOpts { bypass_cache: true })` returns — live
    /// records match their written bytes through both paths, and dead
    /// addresses error through both paths (never a stale cached copy).
    #[test]
    fn cached_reads_never_diverge_from_storage(
        params in (any::<u64>(), proptest::collection::vec(cache_cmd_strategy(), 1..48)),
    ) {
        let (seed, cmds) = params;
        // Tiny extents force many extents; a tiny 2-shard cache forces
        // CLOCK evictions and doorkeeper churn; torn appends consume
        // space without producing a readable record.
        let store = StoreBuilder::from_config(
            StoreConfig::counting()
                .with_extent_capacity(256)
                .with_cache(CacheConfig::default().with_capacity_bytes(2048).with_shards(2))
                .with_faults(FaultPlan::seeded(seed).with_rule(FaultRule::new(
                    FaultOp::Append,
                    FaultKind::AppendTorn,
                    0.1,
                ))),
        ).build();
        // Shadow model: (tag, addr, bytes) per live record; tags are unique
        // per append so relocation's `on_move(tag, ..)` pins down the entry.
        // Invalidated records stay physically readable (the bytes sit in
        // the extent until reclamation) but are skipped by relocation;
        // only extent reclaim/expiry makes an address dead.
        let mut live: Vec<(u64, PageAddr, Vec<u8>)> = Vec::new();
        let mut invalidated: Vec<(PageAddr, Vec<u8>)> = Vec::new();
        let mut dead: Vec<PageAddr> = Vec::new();
        let mut next_tag = 0u64;
        for cmd in &cmds {
            match cmd {
                CacheCmd::Append(bytes) => {
                    next_tag += 1;
                    // Every record carries an already-expired TTL so any
                    // extent is eligible for the Expire command below.
                    if let Ok(addr) = store.append(StreamId::BASE, bytes, next_tag, Some(0)) {
                        live.push((next_tag, addr, bytes.clone()));
                    }
                }
                CacheCmd::Read(i) => {
                    if !live.is_empty() {
                        let (_, addr, _) = live[*i as usize % live.len()];
                        // Populate the cache so later GC must evict it.
                        prop_assert!(store.read(addr).is_ok());
                    }
                }
                CacheCmd::Invalidate(i) => {
                    if !live.is_empty() {
                        let (_, addr, bytes) = live.remove(*i as usize % live.len());
                        store.invalidate(addr).unwrap();
                        invalidated.push((addr, bytes));
                    }
                }
                CacheCmd::Relocate(i) => {
                    if !live.is_empty() {
                        let extent = live[*i as usize % live.len()].1.extent;
                        let mut moves: Vec<(u64, PageAddr)> = Vec::new();
                        // A torn re-append aborts the relocation partway;
                        // moves already reported still hold (both copies
                        // stay readable until the final reclaim).
                        let outcome =
                            store.relocate_extent(StreamId::BASE, extent, |tag, _, new| {
                                moves.push((tag, new));
                            });
                        for (tag, new) in moves {
                            if let Some(entry) = live.iter_mut().find(|(t, _, _)| *t == tag) {
                                entry.1 = new;
                            }
                        }
                        if outcome.is_ok() {
                            // Full reclaim: every address still inside the
                            // freed extent (invalidated slots the move
                            // skipped, and any live stragglers) is dead.
                            let (gone, kept): (Vec<_>, Vec<_>) = live
                                .drain(..)
                                .partition(|(_, a, _)| a.extent == extent);
                            live = kept;
                            dead.extend(gone.into_iter().map(|(_, a, _)| a));
                            let (gone, kept): (Vec<_>, Vec<_>) = invalidated
                                .drain(..)
                                .partition(|(a, _)| a.extent == extent);
                            invalidated = kept;
                            dead.extend(gone.into_iter().map(|(a, _)| a));
                        }
                    }
                }
                CacheCmd::Expire(i) => {
                    if !live.is_empty() {
                        let extent = live[*i as usize % live.len()].1.extent;
                        if store.expire_extent(StreamId::BASE, extent).is_ok() {
                            let (gone, kept): (Vec<_>, Vec<_>) = live
                                .drain(..)
                                .partition(|(_, a, _)| a.extent == extent);
                            live = kept;
                            dead.extend(gone.into_iter().map(|(_, a, _)| a));
                            let (gone, kept): (Vec<_>, Vec<_>) = invalidated
                                .drain(..)
                                .partition(|(a, _)| a.extent == extent);
                            invalidated = kept;
                            dead.extend(gone.into_iter().map(|(a, _)| a));
                        }
                    }
                }
            }
            // The invariant, after every step, over every address we know.
            for (addr, expected) in live
                .iter()
                .map(|(_, a, b)| (a, b))
                .chain(invalidated.iter().map(|(a, b)| (a, b)))
            {
                let cached = store.read(*addr);
                let raw = store.read_with(*addr, ReadOpts { bypass_cache: true });
                prop_assert!(cached.is_ok() && raw.is_ok(), "record readable both ways");
                prop_assert_eq!(cached.unwrap().as_ref(), expected.as_slice());
                prop_assert_eq!(raw.unwrap().as_ref(), expected.as_slice());
            }
            for addr in &dead {
                prop_assert!(store.read(*addr).is_err(), "dead addr served from cache");
                prop_assert!(store
                    .read_with(*addr, ReadOpts { bypass_cache: true })
                    .is_err());
            }
        }
    }

    /// A fault plan is a pure function of its seed and rules: the same plan
    /// built twice yields the same schedule, for any op/stream/window.
    #[test]
    fn fixed_seed_schedules_are_deterministic(
        params in (any::<u64>(), fault_op_strategy(), 0..=1000u32, 1..200u64),
    ) {
        let (seed, op, prob_milli, n) = params;
        let build = || {
            FaultPlan::seeded(seed).with_rule(FaultRule::new(
                op,
                FaultKind::AppendFail,
                prob_milli as f64 / 1000.0,
            ))
        };
        let a = build().schedule(op, Some(StreamId::BASE), n);
        let b = build().schedule(op, Some(StreamId::BASE), n);
        prop_assert_eq!(&a, &b, "same plan, same schedule");
        // Re-asking the same plan instance is also stable (no hidden state).
        let plan = build();
        prop_assert_eq!(plan.schedule(op, Some(StreamId::BASE), n), a.clone());
        prop_assert_eq!(plan.schedule(op, Some(StreamId::BASE), n), a.clone());
        // A different seed exists that changes *some* schedule when the
        // probability is interior (sanity that the seed participates).
        if prob_milli > 0 {
            let fired = a.iter().filter(|d| d.is_some()).count();
            if prob_milli == 1000 {
                prop_assert_eq!(fired as u64, n, "p=1.0 fires on every op");
            }
        }
        // The empty plan never schedules anything.
        prop_assert!(FaultPlan::none()
            .schedule(op, Some(StreamId::BASE), n)
            .iter()
            .all(|d| d.is_none()));
    }
}
