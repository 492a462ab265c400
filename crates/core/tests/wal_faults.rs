//! A failed WAL append reaches the graph API as a typed error, for a
//! durable `Bg3Db` alone and as `ReplicatedBg3`'s leader.
//!
//! Each case fails one WAL append (ENOSPC, a failed fsync, or a sticky
//! full disk) partway through a run of edge inserts, then checks that no insert panicked, that the failing insert
//! returned the typed error, that a failed fsync refuses every later
//! insert, and that recovery over the same backend (no faults) holds
//! every acked edge. Two more tests cover what sits on top: the governed
//! engine sheds writes once a WAL ENOSPC marks the disk full, and a
//! split-out whose first INIT delete the WAL refuses still acks its write
//! and counts each edge once.

use bg3_core::prelude::*;
use bg3_forest::keys::group_prefix;
use bg3_graph::edge_group;
use bg3_storage::{DiskHealth, ErrorKind, IoErrorClass, SimBackend, StreamId};
use bg3_workloads::Op;
use std::sync::Arc;

/// Edge inserts per case.
const WRITES: u64 = 40;
/// WAL appends that succeed before the fault fires.
const FAIL_AFTER: u64 = 20;

#[derive(Debug, Clone, Copy)]
enum WalFault {
    NoSpace,
    SyncFail,
    DiskFull,
}

impl WalFault {
    const ALL: [WalFault; 3] = [WalFault::NoSpace, WalFault::SyncFail, WalFault::DiskFull];

    /// One fault on the WAL stream after [`FAIL_AFTER`] clean appends.
    /// Without a group commit the WAL is the only stream written to, so
    /// the op index counts WAL appends.
    fn plan(self) -> FaultPlan {
        let rule = match self {
            WalFault::NoSpace => FaultRule::new(FaultOp::Write, FaultKind::WriteNoSpace, 1.0),
            WalFault::SyncFail => FaultRule::new(FaultOp::Sync, FaultKind::SyncFail, 1.0),
            WalFault::DiskFull => FaultRule::new(FaultOp::Write, FaultKind::DiskFull, 1.0),
        };
        FaultPlan::seeded(7).with_rule(rule.on_stream(StreamId::WAL).after(FAIL_AFTER).at_most(1))
    }

    /// The typed error of the insert the fault hits.
    fn is_its_error(self, err: &StorageError) -> bool {
        let class = match self {
            WalFault::NoSpace | WalFault::DiskFull => IoErrorClass::NoSpace,
            WalFault::SyncFail => IoErrorClass::SyncFailed,
        };
        matches!(&err.kind, ErrorKind::Io { class: c, .. } if *c == class)
    }
}

/// A durable engine config with no group commit during the run.
fn config() -> Bg3Config {
    Bg3Config::default().with_group_commit_pages(usize::MAX)
}

/// A store over `backend` that injects `fault`.
fn faulty_store(backend: &Arc<SimBackend>, fault: WalFault) -> AppendOnlyStore {
    StoreBuilder::counting()
        .backend(backend.clone())
        .faults(fault.plan())
        .build()
}

fn edge(i: u64) -> Edge {
    Edge::new(VertexId(i % 4), EdgeType::FOLLOW, VertexId(100 + i))
        .with_props(i.to_le_bytes().to_vec())
}

/// Inserts [`WRITES`] edges through `insert` and checks the error path;
/// returns the acked edges.
fn drive(fault: WalFault, insert: &dyn Fn(&Edge) -> StorageResult<()>) -> Vec<Edge> {
    let mut acked = Vec::new();
    let mut errors = Vec::new();
    for i in 0..WRITES {
        let e = edge(i);
        match insert(&e) {
            Ok(()) => acked.push(e),
            Err(err) => errors.push((i, err)),
        }
    }
    let (first, err) = errors.first().expect("the fault fired");
    assert!(fault.is_its_error(err), "{fault:?}: {err:?}");
    let later = &errors[1..];
    match fault {
        WalFault::NoSpace => assert!(later.is_empty(), "one ENOSPC fails one write"),
        WalFault::SyncFail => {
            assert_eq!(
                later.len() as u64,
                WRITES - first - 1,
                "every later write refused"
            );
            assert!(later.iter().all(|(_, e)| e.is_sync_poisoned()), "{later:?}");
        }
        WalFault::DiskFull => {
            assert_eq!(
                later.len() as u64,
                WRITES - first - 1,
                "the disk stays full"
            );
            assert!(
                later.iter().all(|(_, e)| fault.is_its_error(e)),
                "{later:?}"
            );
        }
    }
    acked
}

/// Reopens `backend` without faults, recovers the engine and checks every
/// acked edge.
fn recover_holds(
    backend: Arc<SimBackend>,
    mapping: bg3_storage::SharedMappingTable,
    acked: &[Edge],
) {
    let store = StoreBuilder::counting().backend(backend).build();
    let db = Bg3Db::recover(store, mapping, config()).expect("recovery");
    for e in acked {
        assert_eq!(
            db.get_edge(e.src, e.etype, e.dst).unwrap(),
            Some(e.props.clone()),
            "acked edge {e:?} lost"
        );
    }
}

#[test]
fn a_failed_wal_append_is_a_typed_error_on_bg3db() {
    for fault in WalFault::ALL {
        let backend = Arc::new(SimBackend::new());
        let db = Bg3Db::with_store(faulty_store(&backend, fault), config());
        let acked = drive(fault, &|e| db.insert_edge(e));
        let mapping = db.mapping().unwrap().clone();
        drop(db);
        recover_holds(backend, mapping, &acked);
    }
}

#[test]
fn a_failed_wal_append_is_a_typed_error_on_the_replicated_leader() {
    for fault in WalFault::ALL {
        let backend = Arc::new(SimBackend::new());
        let rep = ReplicatedBg3::with_store(
            faulty_store(&backend, fault),
            ReplicatedConfig {
                leader: config(),
                ..ReplicatedConfig::default()
            },
        );
        let acked = drive(fault, &|e| rep.insert_edge(e));
        // The follower serves every acked edge from the log it tails.
        rep.poll_all().unwrap();
        for e in &acked {
            assert!(rep.ro_check_edge(0, e.src, e.etype, e.dst).unwrap());
        }
        let mapping = rep.leader().unwrap().mapping().unwrap().clone();
        drop(rep);
        recover_holds(backend, mapping, &acked);
    }
}

#[test]
fn the_governed_engine_sheds_writes_once_a_wal_enospc_fills_the_disk() {
    let leader = Bg3Config {
        store: StoreConfig::counting().with_faults(WalFault::NoSpace.plan()),
        ..Bg3Config::default().with_group_commit_pages(usize::MAX)
    };
    let engine = GovernedEngine::new(
        ReplicatedConfig {
            leader,
            ..ReplicatedConfig::default()
        },
        GovernedConfig::default(),
    );
    let write = |i: u64| {
        let e = edge(i);
        engine.submit(&Op::InsertEdge {
            src: e.src,
            etype: e.etype,
            dst: e.dst,
            props: e.props,
        })
    };
    let mut i = 0;
    let err = loop {
        match write(i) {
            Ok(_) => i += 1,
            Err(err) => break err,
        }
    };
    assert!(WalFault::NoSpace.is_its_error(&err), "{err:?}");
    assert_eq!(engine.rep().store().disk_health(), DiskHealth::Full);
    let shed = write(i + 1).unwrap_err();
    assert!(
        shed.is_overloaded(),
        "a full disk sheds at admission: {shed:?}"
    );
    let sheds = engine
        .rep()
        .store()
        .metrics_snapshot()
        .counter(obs::names::ENOSPC_SHEDS_TOTAL);
    assert_eq!(sheds, Some(1));
}

#[test]
fn a_split_out_whose_init_delete_fails_acks_and_counts_each_edge_once() {
    let src = VertexId(1);
    let group_edges: Vec<Edge> = (0..9u64)
        .map(|d| Edge::new(src, EdgeType::FOLLOW, VertexId(d)).with_props(vec![d as u8]))
        .collect();
    let open = |backend: &Arc<SimBackend>, faults: FaultPlan| {
        let mut config = Bg3Config::default().with_group_commit_pages(usize::MAX);
        config.forest.split_out_threshold = 8;
        let store = StoreBuilder::counting()
            .backend(backend.clone())
            .faults(faults)
            .build();
        (Bg3Db::with_store(store, config.clone()), config)
    };
    // A clean run finds the commit record's LSN: the next append is the
    // first INIT delete.
    let (clean, _) = open(&Arc::new(SimBackend::new()), FaultPlan::none());
    for e in &group_edges {
        clean.insert_edge(e).unwrap();
    }
    let commit_lsn = clean
        .open_wal_reader()
        .unwrap()
        .fetch_new()
        .unwrap()
        .into_iter()
        .find(|r| matches!(r.payload, bg3_wal::WalPayload::ForestSplitOut { .. }))
        .expect("the group split out")
        .lsn;

    let backend = Arc::new(SimBackend::new());
    let refuse_first_delete = FaultPlan::seeded(3).with_rule(
        FaultRule::new(FaultOp::Write, FaultKind::WriteNoSpace, 1.0)
            .on_stream(StreamId::WAL)
            .after(commit_lsn.0)
            .at_most(1),
    );
    let (db, config) = open(&backend, refuse_first_delete);
    for e in &group_edges {
        db.insert_edge(e)
            .expect("a committed split-out acks its write");
    }
    assert_eq!(db.store().fault_injector().total_fired(), 1);
    assert_eq!(db.forest().tree_count(), 2, "the group has its own tree");
    let served = |db: &Bg3Db| {
        db.neighbors(src, EdgeType::FOLLOW, usize::MAX)
            .unwrap()
            .into_iter()
            .map(|(dst, _)| dst.0)
            .collect::<Vec<_>>()
    };
    assert_eq!(served(&db), (0..9).collect::<Vec<_>>(), "each edge once");
    assert_eq!(db.forest().total_entries(), 9, "leftovers are not counted");

    let mapping = db.mapping().unwrap().clone();
    drop(db);
    let store = StoreBuilder::counting().backend(backend).build();
    let recovered = Bg3Db::recover(store, mapping, config).unwrap();
    let prefix = group_prefix(&edge_group(src, EdgeType::FOLLOW));
    assert!(
        recovered
            .forest()
            .init_tree()
            .scan_prefix(&prefix, usize::MAX)
            .is_empty(),
        "recovery deleted the INIT leftovers"
    );
    assert_eq!(served(&recovered), (0..9).collect::<Vec<_>>());
    assert_eq!(recovered.forest().total_entries(), 9);
}
