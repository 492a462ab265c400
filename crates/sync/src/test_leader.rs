//! The unit tests' leader: one [`GroupCommit`] plus one [`BwTree`], the
//! smallest writer of the protocol followers tail. Deployments lead with
//! `bg3-core`'s durable `Bg3Db`, which runs the same group commit over a
//! forest.

use crate::commit::GroupCommit;
use crate::recovery::recover_tree;
use bg3_bwtree::{BwTree, BwTreeConfig};
use bg3_storage::{AppendOnlyStore, CrashSwitch, SharedMappingTable, StorageResult};
use bg3_wal::{Lsn, WalReader, WalRecord};
use std::sync::Arc;

/// The tree id every test leader writes under.
pub(crate) const TREE: u32 = 1;

#[derive(Debug, Clone)]
pub(crate) struct LeaderConfig {
    pub tree_config: BwTreeConfig,
    /// Checkpoint once this many pages are dirty.
    pub group_commit_pages: usize,
}

impl Default for LeaderConfig {
    fn default() -> Self {
        LeaderConfig {
            tree_config: BwTreeConfig::default(),
            group_commit_pages: 16,
        }
    }
}

pub(crate) struct Leader {
    tree: Arc<BwTree>,
    commit: GroupCommit,
    config: LeaderConfig,
}

impl Leader {
    /// A leader over `store` with a fresh WAL and mapping table.
    pub fn new(store: AppendOnlyStore, config: LeaderConfig) -> Self {
        let commit = GroupCommit::create(&store, config.tree_config.retry);
        let tree = BwTree::with_listener(
            TREE,
            store.clone(),
            config.tree_config.clone(),
            commit.listener(),
        );
        Self::from_parts(tree, commit, config)
    }

    /// A leader rebuilt from a reopened log (crash recovery or promotion).
    pub fn recover(
        store: AppendOnlyStore,
        commit: GroupCommit,
        records: &[WalRecord],
        config: LeaderConfig,
    ) -> StorageResult<Self> {
        let tree = recover_tree(
            TREE,
            store,
            commit.mapping(),
            records,
            config.tree_config.clone(),
            commit.listener(),
        )?;
        Ok(Self::from_parts(tree, commit, config))
    }

    fn from_parts(mut tree: BwTree, commit: GroupCommit, config: LeaderConfig) -> Self {
        commit.make_durable(&mut tree);
        Leader {
            tree: Arc::new(tree),
            commit,
            config,
        }
    }

    pub fn epoch(&self) -> u64 {
        self.commit.epoch()
    }

    pub fn crash_switch(&self) -> &CrashSwitch {
        self.commit.crash_switch()
    }

    pub fn mapping(&self) -> &SharedMappingTable {
        self.commit.mapping()
    }

    pub fn open_wal_reader(&self) -> WalReader {
        self.commit.wal().open_reader()
    }

    pub fn tree(&self) -> &Arc<BwTree> {
        &self.tree
    }

    pub fn store(&self) -> &AppendOnlyStore {
        self.tree.store()
    }

    pub fn last_lsn(&self) -> Lsn {
        self.commit.last_lsn()
    }

    /// Fenced before the tree is touched, like `Bg3Db`'s writes.
    pub fn put(&self, key: &[u8], value: &[u8]) -> StorageResult<()> {
        self.commit.wal().check_fence()?;
        self.tree.put(key, value)?;
        self.maybe_checkpoint()
    }

    pub fn delete(&self, key: &[u8]) -> StorageResult<()> {
        self.commit.wal().check_fence()?;
        self.tree.delete(key)?;
        self.maybe_checkpoint()
    }

    pub fn get(&self, key: &[u8]) -> StorageResult<Option<Vec<u8>>> {
        self.tree.get(key)
    }

    fn maybe_checkpoint(&self) -> StorageResult<()> {
        self.commit.maybe_checkpoint(
            self.tree.dirty_count(),
            self.config.group_commit_pages,
            || vec![Arc::clone(&self.tree)],
        )
    }

    pub fn checkpoint(&self) -> StorageResult<Lsn> {
        self.commit.checkpoint(std::slice::from_ref(&self.tree))
    }
}
