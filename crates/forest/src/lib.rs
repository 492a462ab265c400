//! # bg3-forest
//!
//! The *Space-Optimized Bw-tree Forest* (§3.2.1 of the BG3 paper).
//!
//! Storing every user's adjacency list in one big Bw-tree makes concurrent
//! writers collide on the same leaves (Observation 1); giving every user a
//! private tree wastes space on page holes and per-tree bookkeeping for the
//! long tail of inactive users (Observation 3). The forest takes the middle
//! road:
//!
//! * All groups (users) start in a shared **INIT tree**, keyed by
//!   `group ++ item` composite keys.
//! * When a group's edge count crosses `split_out_threshold`, its edges are
//!   carved out into a **dedicated tree** keyed by `item` alone — the group
//!   prefix is dropped from every key, the paper's space saving.
//! * When the INIT tree itself outgrows `init_tree_max_entries`, the largest
//!   resident group is evicted into a dedicated tree to keep INIT queries
//!   fast.
//!
//! A hash directory maps group → dedicated tree (the hash table on the right
//! of the paper's Fig. 3).

pub mod forest;
pub mod keys;

pub use bg3_bwtree::{BatchVisitor, ScanOutcome};
pub use forest::{BwTreeForest, ForestConfig, ForestStatsSnapshot, INIT_TREE_ID};
pub use keys::{composite_key, decode_composite, group_prefix, GroupRoute};
