//! One single-node crash-and-recover round: the scenario `chaos`,
//! `disk_chaos`, `scrub` and `tests/chaos_recovery.rs` each run, with only
//! their own parameters and checks on top.
//!
//! A [`Round`] opens a durable [`Bg3Db`] over the store its config
//! describes — a `SimBackend` store or extent files under a root, under the
//! config's seeded [`FaultPlan`] — and mirrors every write into the graph
//! [`Oracle`]:
//!
//! 1. **Drive** ([`Round::drive`]): apply each [`Mutation`]. An `Ok` is
//!    acked, an error leaves the write in flight; errors are tallied by
//!    kind, and an `Ok` returned after the WAL was poisoned is counted
//!    ([`Tally`]). A [`CrashPoint`] may be armed at op *k*; a maintenance
//!    beat runs after each op, and the drive stops at the first crash.
//! 2. **Kill and recover** ([`Round::recover`]): the engine is dead. Its
//!    successor opens what survives — the same store handle on sim, a fresh
//!    open of the extent files with no fault plan on a file root — runs
//!    [`Bg3Db::recover`] from it and the mapping table, and the oracle
//!    settles each in-flight write against it.
//! 3. **Audit** ([`Round::audit`]): scan the given sources' follow
//!    adjacency and vertices against the oracle.

use bg3_core::prelude::*;
use bg3_graph::{Audit, Mutation, Oracle, Reads};
use bg3_storage::{ErrorKind, IoErrorClass, StreamId};
use serde::Serialize;
use std::ops::Range;

/// A round's write outcomes, by kind; a failed maintenance beat counts as
/// one more error of its kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Tally {
    /// Writes the engine acked.
    pub acked: u64,
    /// Writes or beats an armed crash point killed.
    pub crashed: u64,
    /// Writes refused because the WAL or a page stream was already
    /// poisoned (`SyncPoisoned`).
    pub poisoned: u64,
    /// Writes whose barrier failed (`IoErrorClass::SyncFailed`).
    pub sync_failed: u64,
    /// Writes refused with `IoErrorClass::NoSpace`.
    pub no_space: u64,
    /// Writes cut by a torn media write (`IoErrorClass::WriteZero`).
    pub write_zero: u64,
    /// Writes that failed for any other reason.
    pub other: u64,
    /// `Ok`s returned after the WAL was poisoned; 0 on a correct engine.
    pub acks_after_poison: u64,
}

impl Tally {
    fn count(&mut self, err: &StorageError) {
        let kind = match &err.kind {
            ErrorKind::Crash(_) => &mut self.crashed,
            ErrorKind::SyncPoisoned { .. } => &mut self.poisoned,
            ErrorKind::Io {
                class: IoErrorClass::SyncFailed,
                ..
            } => &mut self.sync_failed,
            ErrorKind::Io {
                class: IoErrorClass::NoSpace,
                ..
            } => &mut self.no_space,
            ErrorKind::Io {
                class: IoErrorClass::WriteZero,
                ..
            } => &mut self.write_zero,
            _ => &mut self.other,
        };
        *kind += 1;
    }

    /// Writes and beats that returned an error of any kind.
    pub fn errors(&self) -> u64 {
        self.crashed
            + self.poisoned
            + self.sync_failed
            + self.no_space
            + self.write_zero
            + self.other
    }
}

/// The maintenance beat of a drive that runs none.
pub fn no_beat(_: &Bg3Db, _: &Oracle, _: u64) -> StorageResult<()> {
    Ok(())
}

/// One durable engine under the oracle, across any number of
/// kill-and-recover cycles; see the module docs.
pub struct Round {
    db: Bg3Db,
    config: Bg3Config,
    oracle: Oracle,
    /// Write outcomes of every drive so far.
    pub tally: Tally,
}

impl Round {
    /// Opens the engine over a fresh store built from `config.store`.
    pub fn open(config: Bg3Config) -> Self {
        Self::with_store(
            StoreBuilder::from_config(config.store.clone()).build(),
            config,
        )
    }

    /// Opens the engine over `store`, which `config.store` must describe:
    /// a successor reopens the store from it.
    pub fn with_store(store: AppendOnlyStore, config: Bg3Config) -> Self {
        assert!(
            config.durability.is_some(),
            "a round drives a durable engine"
        );
        Round {
            db: Bg3Db::with_store(store, config.clone()),
            config,
            oracle: Oracle::new(),
            tally: Tally::default(),
        }
    }

    /// The live engine.
    pub fn db(&self) -> &Bg3Db {
        &self.db
    }

    /// The oracle of every write so far.
    pub fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    /// Applies `op_at(i)` for each `i` in `ops` (`None` is a read tick,
    /// which applies nothing), then runs `beat` on the engine. With `crash`
    /// set to `(k, point)`, `point` is armed just before op `k`, and
    /// disarmed when the drive ends. The drive stops at the first crash, in
    /// a write or in a beat (a beat's error ends the drive and is tallied
    /// like a write's), and returns the index of the op the engine died at.
    pub fn drive(
        &mut self,
        ops: Range<u64>,
        op_at: impl Fn(u64) -> Option<Mutation>,
        crash: Option<(u64, CrashPoint)>,
        mut beat: impl FnMut(&Bg3Db, &Oracle, u64) -> StorageResult<()>,
    ) -> Option<u64> {
        let mut died = None;
        for i in ops {
            if let Some((at, point)) = crash {
                if i == at {
                    self.db.crash_switch().arm(point);
                }
            }
            if let Some(write) = op_at(i) {
                // Poisoning observed *before* the write means it cannot ack.
                let was_poisoned = self.db.store().is_poisoned(StreamId::WAL);
                match write.apply(&self.db) {
                    Ok(()) => {
                        self.tally.acked += 1;
                        self.tally.acks_after_poison += was_poisoned as u64;
                        self.oracle.ack(write);
                    }
                    Err(err) => {
                        self.tally.count(&err);
                        self.oracle.in_flight(write);
                        if err.is_crash() {
                            died = Some(i);
                            break;
                        }
                    }
                }
            }
            if let Err(err) = beat(&self.db, &self.oracle, i) {
                self.tally.count(&err);
                died = Some(i);
                break;
            }
        }
        if let Some((_, point)) = crash {
            self.db.crash_switch().disarm(point);
        }
        died
    }

    /// Kills the engine and recovers its successor from the surviving
    /// store and mapping table, then settles the in-flight writes. A failed
    /// recovery calls `retry` with the dead engine (whose in-memory images
    /// can still repair the store) and tries again while it returns true.
    /// Returns the attempts made.
    pub fn recover(&mut self, mut retry: impl FnMut(&Bg3Db) -> bool) -> u64 {
        let mapping = self.db.mapping().expect("a durable engine").clone();
        let mut attempts = 0;
        let successor = loop {
            attempts += 1;
            let store = match self.config.store.backend {
                BackendKind::Sim => self.db.store().clone(),
                BackendKind::File { .. } => {
                    let files = self.config.store.clone().with_faults(FaultPlan::none());
                    StoreBuilder::from_config(files)
                        .open()
                        .expect("reopen the surviving extent files")
                }
            };
            match Bg3Db::recover(store, mapping.clone(), self.config.clone()) {
                Ok(db) => break db,
                Err(err) => assert!(
                    retry(&self.db),
                    "recovery failed ({attempts} attempts): {err}"
                ),
            }
        };
        self.db = successor;
        self.oracle.settle(&self.db).expect("settle reads");
        attempts
    }

    /// Audits the follow adjacency and vertex of every source in `sources`.
    pub fn audit(&self, sources: &[VertexId]) -> Audit {
        self.oracle.audit(Reads::Scan {
            store: &self.db,
            etype: EdgeType::FOLLOW,
            sources,
        })
    }
}
