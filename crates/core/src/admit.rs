//! Admission control and load shedding at the engine API (§4 robustness).
//!
//! Production graph serving at ByteDance runs behind strict SLOs; when
//! offered load exceeds capacity the engine must *shed* rather than build
//! unbounded queues. This module models that discipline on the virtual
//! clock:
//!
//! * [`AdmissionController`] — one token bucket per operation class
//!   (point read / traversal / write). Tokens are *modelled cost units*
//!   (virtual nanoseconds of work, the same currency as `IoStats`
//!   latency accounting); the bucket may go negative up to
//!   `queue_depth × expected_cost`, which is the bounded per-class
//!   queue. Past that the op is shed with
//!   [`ErrorKind::Overloaded`](bg3_storage::StorageError) carrying a
//!   `retry_after` hint; ops whose estimated queue wait exceeds their
//!   class deadline are shed with `DeadlineExceeded` instead of being
//!   admitted only to time out.
//! * [`GovernedEngine`] — a [`ReplicatedBg3`] deployment behind the
//!   controller, with the graceful-degradation ladder: under pressure,
//!   point reads and traversals are served *stale* from the RO replicas
//!   (skipping the WAL catch-up poll), writes pay a cost multiplier
//!   derived from the leader's group-commit debt and the store's GC
//!   backlog, and traversals run through the morsel-driven executor with
//!   a per-hop cost ceiling (truncating, not aborting).
//!
//! Everything threads through `bg3-obs`: `admit_admitted_total`,
//! `admit_shed_total`, `admit_stale_reads_total`, the
//! `admit_queue_wait_latency_ns` histogram, and the `admit_queue_depth`
//! gauge (deepest class).

use crate::deployment::{ReplicatedBg3, ReplicatedConfig};
use bg3_graph::{CycleQuery, Edge, EdgeType, GraphStore, PatternMatcher, Vertex, VertexId};
use bg3_obs::names;
use bg3_obs::{Counter, Gauge, Histogram, MetricRegistry};
use bg3_query::{Executor, ExecutorConfig, Query, QueryError, QueryResult, Step};
use bg3_storage::{SimClock, StorageError, StorageResult};
use bg3_workloads::Op;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const NANOS_PER_SEC: u128 = 1_000_000_000;

/// The three admission classes, mirroring the paper's workload taxonomy
/// (Table 1): cheap existence checks, expensive multi-hop traversals, and
/// writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Single-key reads (edge existence checks, vertex lookups).
    PointRead,
    /// One-hop and multi-hop expansions, pattern matching.
    Traversal,
    /// Edge/vertex inserts and deletes.
    Write,
}

impl OpClass {
    /// All classes, in index order.
    pub const ALL: [OpClass; 3] = [OpClass::PointRead, OpClass::Traversal, OpClass::Write];

    fn idx(self) -> usize {
        match self {
            OpClass::PointRead => 0,
            OpClass::Traversal => 1,
            OpClass::Write => 2,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::PointRead => "point_read",
            OpClass::Traversal => "traversal",
            OpClass::Write => "write",
        }
    }

    /// Which class a workload op belongs to.
    pub fn of(op: &Op) -> OpClass {
        match op {
            Op::InsertEdge { .. } | Op::DeleteEdge { .. } => OpClass::Write,
            Op::CheckEdge { .. } => OpClass::PointRead,
            Op::OneHop { .. } | Op::KHop { .. } | Op::PatternCycle { .. } => OpClass::Traversal,
        }
    }
}

/// Per-class token-bucket budget. Costs are in modelled virtual
/// nanoseconds of work, so `cost_per_sec = 1_000_000_000` means the class
/// may consume one full core-equivalent of modelled work per virtual
/// second.
#[derive(Debug, Clone, Copy)]
pub struct ClassBudget {
    /// Refill rate: cost units per virtual second.
    pub cost_per_sec: u64,
    /// Maximum positive token balance (burst allowance).
    pub burst: u64,
    /// Bounded queue depth, in ops of `expected_cost` each. The bucket
    /// may owe at most `queue_depth × expected_cost` units before ops are
    /// shed `Overloaded`.
    pub queue_depth: u64,
    /// Modelled cost of a typical op in this class (cost units).
    pub expected_cost: u64,
    /// Ops whose estimated queue wait exceeds this are shed
    /// `DeadlineExceeded` up front.
    pub deadline_nanos: u64,
}

impl ClassBudget {
    /// The maximum cost debt the class may carry — the bounded queue in
    /// cost units.
    pub fn backlog_cap(&self) -> u64 {
        self.queue_depth.saturating_mul(self.expected_cost)
    }
}

/// Budgets for all three classes.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Point-read budget.
    pub point_read: ClassBudget,
    /// Traversal budget.
    pub traversal: ClassBudget,
    /// Write budget.
    pub write: ClassBudget,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            point_read: ClassBudget {
                cost_per_sec: 400_000_000,
                burst: 2_000_000,
                queue_depth: 64,
                expected_cost: 20_000,
                deadline_nanos: 5_000_000,
            },
            traversal: ClassBudget {
                cost_per_sec: 300_000_000,
                burst: 10_000_000,
                queue_depth: 32,
                expected_cost: 200_000,
                deadline_nanos: 20_000_000,
            },
            write: ClassBudget {
                cost_per_sec: 300_000_000,
                burst: 4_000_000,
                queue_depth: 128,
                expected_cost: 30_000,
                deadline_nanos: 10_000_000,
            },
        }
    }
}

impl AdmissionConfig {
    /// The budget for `class`.
    pub fn budget(&self, class: OpClass) -> &ClassBudget {
        match class {
            OpClass::PointRead => &self.point_read,
            OpClass::Traversal => &self.traversal,
            OpClass::Write => &self.write,
        }
    }

    /// Mutable budget for `class` (test/experiment tuning).
    pub fn budget_mut(&mut self, class: OpClass) -> &mut ClassBudget {
        match class {
            OpClass::PointRead => &mut self.point_read,
            OpClass::Traversal => &mut self.traversal,
            OpClass::Write => &mut self.write,
        }
    }

    /// Scales every class's refill rate by `factor` — how the overload
    /// experiment sets capacity to a fraction of offered load.
    pub fn scaled(mut self, factor: f64) -> Self {
        for class in OpClass::ALL {
            let b = self.budget_mut(class);
            b.cost_per_sec = ((b.cost_per_sec as f64) * factor).max(1.0) as u64;
        }
        self
    }
}

/// A successful admission.
#[derive(Debug, Clone, Copy)]
pub struct Admitted {
    /// Estimated virtual-time queue wait this op will see (0 when the
    /// bucket was non-negative).
    pub queue_wait_nanos: u64,
    /// Post-admission backlog as a fraction of the bounded queue
    /// (`0.0` = idle, `1.0` = queue full). The degradation ladder keys
    /// off this.
    pub pressure: f64,
}

#[derive(Debug)]
struct Bucket {
    /// Token balance in cost units; negative = queued work.
    tokens: i128,
    /// Virtual instant of the last refill.
    last_refill_nanos: u64,
}

/// Monotonic shed/admit totals (conservation: `submitted == admitted +
/// shed_overloaded + shed_deadline` at every quiescent point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionSnapshot {
    /// Ops offered to `admit`.
    pub submitted: u64,
    /// Ops admitted.
    pub admitted: u64,
    /// Ops shed with `Overloaded` (queue full).
    pub shed_overloaded: u64,
    /// Ops shed with `DeadlineExceeded` (queue wait beyond deadline).
    pub shed_deadline: u64,
    /// Reads served stale off the RO replicas under pressure.
    pub stale_reads: u64,
}

impl AdmissionSnapshot {
    /// Total shed ops.
    pub fn shed(&self) -> u64 {
        self.shed_overloaded + self.shed_deadline
    }
}

/// Token-bucket admission control over the virtual clock.
#[derive(Debug)]
pub struct AdmissionController {
    clock: SimClock,
    config: AdmissionConfig,
    buckets: [Mutex<Bucket>; 3],
    queue_lens: [AtomicU64; 3],
    submitted: AtomicU64,
    admitted_n: AtomicU64,
    shed_overloaded: AtomicU64,
    shed_deadline: AtomicU64,
    stale_n: AtomicU64,
    admitted_total: Counter,
    shed_total: Counter,
    stale_reads_total: Counter,
    queue_wait: Histogram,
    queue_depth_gauge: Gauge,
}

fn div_ceil_u128(num: u128, den: u128) -> u64 {
    if den == 0 {
        return u64::MAX;
    }
    num.div_ceil(den).min(u64::MAX as u128) as u64
}

impl AdmissionController {
    /// Builds a controller on `clock`, registering its metrics in
    /// `registry` (pass the store's registry to merge with I/O counters).
    pub fn new(clock: SimClock, config: AdmissionConfig, registry: &MetricRegistry) -> Self {
        let bucket = |b: &ClassBudget| {
            Mutex::new(Bucket {
                tokens: b.burst as i128,
                last_refill_nanos: clock.now().0,
            })
        };
        AdmissionController {
            buckets: [
                bucket(&config.point_read),
                bucket(&config.traversal),
                bucket(&config.write),
            ],
            queue_lens: Default::default(),
            submitted: AtomicU64::new(0),
            admitted_n: AtomicU64::new(0),
            shed_overloaded: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            stale_n: AtomicU64::new(0),
            admitted_total: registry.counter(names::ADMIT_ADMITTED_TOTAL),
            shed_total: registry.counter(names::ADMIT_SHED_TOTAL),
            stale_reads_total: registry.counter(names::ADMIT_STALE_READS_TOTAL),
            queue_wait: registry.histogram(names::ADMIT_QUEUE_WAIT_LATENCY_NS),
            queue_depth_gauge: registry.gauge(names::ADMIT_QUEUE_DEPTH),
            clock,
            config,
        }
    }

    /// The configured budgets.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    fn refill(&self, class: OpClass, bucket: &mut Bucket) {
        let budget = self.config.budget(class);
        let now = self.clock.now().0;
        let elapsed = now.saturating_sub(bucket.last_refill_nanos);
        bucket.last_refill_nanos = now;
        if elapsed > 0 {
            let refill = (elapsed as u128 * budget.cost_per_sec as u128 / NANOS_PER_SEC) as i128;
            bucket.tokens = (bucket.tokens + refill).min(budget.burst as i128);
        }
    }

    fn queue_len_of(budget: &ClassBudget, tokens: i128) -> u64 {
        let backlog = (-tokens).max(0) as u128;
        div_ceil_u128(backlog, budget.expected_cost.max(1) as u128)
    }

    fn publish_queue_len(&self, class: OpClass, len: u64) {
        self.queue_lens[class.idx()].store(len, Ordering::Relaxed);
        let deepest = self
            .queue_lens
            .iter()
            .map(|q| q.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0);
        self.queue_depth_gauge
            .set(deepest.min(i64::MAX as u64) as i64);
    }

    /// Offers one op of modelled `cost` to `class`. Returns the admission
    /// (with estimated queue wait) or the typed shed error.
    pub fn admit(&self, class: OpClass, cost: u64) -> StorageResult<Admitted> {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let budget = *self.config.budget(class);
        let mut bucket = self.buckets[class.idx()].lock();
        self.refill(class, &mut bucket);

        let prospective = bucket.tokens - cost as i128;
        let backlog_cap = budget.backlog_cap() as i128;
        if prospective < -backlog_cap {
            // Queue full: shed with a retry hint sized to drain the
            // excess at the refill rate.
            let excess = (-prospective - backlog_cap) as u128;
            let retry_after =
                div_ceil_u128(excess * NANOS_PER_SEC, budget.cost_per_sec.max(1) as u128);
            let len = Self::queue_len_of(&budget, bucket.tokens);
            drop(bucket);
            self.publish_queue_len(class, len);
            self.shed_overloaded.fetch_add(1, Ordering::Relaxed);
            self.shed_total.inc();
            return Err(StorageError::overloaded(retry_after));
        }

        let wait = if prospective < 0 {
            div_ceil_u128(
                (-prospective) as u128 * NANOS_PER_SEC,
                budget.cost_per_sec.max(1) as u128,
            )
        } else {
            0
        };
        if wait > budget.deadline_nanos {
            let len = Self::queue_len_of(&budget, bucket.tokens);
            drop(bucket);
            self.publish_queue_len(class, len);
            self.shed_deadline.fetch_add(1, Ordering::Relaxed);
            self.shed_total.inc();
            return Err(StorageError::deadline_exceeded(wait, budget.deadline_nanos));
        }

        bucket.tokens = prospective;
        let len = Self::queue_len_of(&budget, bucket.tokens);
        let pressure = if backlog_cap > 0 {
            ((-prospective).max(0) as f64) / backlog_cap as f64
        } else {
            0.0
        };
        drop(bucket);
        self.publish_queue_len(class, len);
        self.admitted_n.fetch_add(1, Ordering::Relaxed);
        self.admitted_total.inc();
        self.queue_wait.record(wait);
        bg3_obs::span::charge(bg3_obs::CostDim::AdmitWaitNanos, wait);
        Ok(Admitted {
            queue_wait_nanos: wait,
            pressure,
        })
    }

    /// Current virtual queue length of `class` (ops of expected cost).
    /// Structurally `≤ queue_depth` — the bounded-queue invariant the
    /// admission proptest checks.
    pub fn queue_len(&self, class: OpClass) -> u64 {
        let budget = self.config.budget(class);
        let mut bucket = self.buckets[class.idx()].lock();
        self.refill(class, &mut bucket);
        Self::queue_len_of(budget, bucket.tokens)
    }

    /// Current backlog pressure of `class` in `[0, 1]`.
    pub fn pressure(&self, class: OpClass) -> f64 {
        let budget = self.config.budget(class);
        let cap = budget.backlog_cap();
        if cap == 0 {
            return 0.0;
        }
        let mut bucket = self.buckets[class.idx()].lock();
        self.refill(class, &mut bucket);
        ((-bucket.tokens).max(0) as f64) / cap as f64
    }

    /// Records one read served stale off a replica.
    pub fn note_stale_read(&self) {
        self.stale_n.fetch_add(1, Ordering::Relaxed);
        self.stale_reads_total.inc();
    }

    /// Monotonic totals.
    pub fn snapshot(&self) -> AdmissionSnapshot {
        AdmissionSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            admitted: self.admitted_n.load(Ordering::Relaxed),
            shed_overloaded: self.shed_overloaded.load(Ordering::Relaxed),
            shed_deadline: self.shed_deadline.load(Ordering::Relaxed),
            stale_reads: self.stale_n.load(Ordering::Relaxed),
        }
    }
}

/// Degradation-ladder knobs for [`GovernedEngine`].
#[derive(Debug, Clone)]
pub struct GovernedConfig {
    /// Per-class token-bucket budgets.
    pub admission: AdmissionConfig,
    /// Backlog pressure (fraction of the bounded queue) at which reads go
    /// stale and traversals switch to the ceiling-capped executor.
    pub degrade_pressure: f64,
    /// Per-hop emission ceiling for degraded traversals (the executor
    /// truncates, never aborts).
    pub hop_cost_ceiling: usize,
    /// Fan-out per vertex for unbounded expansions in both executors.
    pub default_fanout: usize,
    /// Upper bound on the write-cost multiplier (group-commit + GC debt).
    pub write_throttle_cap: f64,
    /// GC debt (invalidated-but-not-relocated records) that adds 1.0× to
    /// the write-cost multiplier.
    pub gc_debt_norm: u64,
    /// `retry_after` hint attached to writes shed because the store's
    /// disk health is Full or Poisoned (ENOSPC graceful degradation).
    /// Sized to a GC reclaim cadence rather than a token-bucket drain:
    /// the disk recovers when reclaim frees an extent, not with time.
    pub disk_full_retry_after_nanos: u64,
}

impl Default for GovernedConfig {
    fn default() -> Self {
        GovernedConfig {
            admission: AdmissionConfig::default(),
            degrade_pressure: 0.5,
            hop_cost_ceiling: 16,
            default_fanout: 100,
            write_throttle_cap: 4.0,
            gc_debt_norm: 10_000,
            disk_full_retry_after_nanos: 5_000_000,
        }
    }
}

/// How an admitted op was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// A write acknowledged by the leader.
    Write,
    /// A point read; `stale` means it skipped the WAL catch-up poll.
    Read {
        /// Whether the key was present.
        present: bool,
        /// Served without polling replication first.
        stale: bool,
    },
    /// A traversal; `results` is the vertex/match count.
    Traversal {
        /// Result cardinality.
        results: u64,
        /// Served without polling replication first.
        stale: bool,
    },
}

/// The outcome of one governed op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpOutcome {
    /// Estimated admission queue wait (virtual ns).
    pub queue_wait_nanos: u64,
    /// Whether the degradation ladder was active for this op.
    pub degraded: bool,
    /// What was served.
    pub served: Served,
}

/// A replicated deployment behind admission control, implementing the
/// graceful-degradation ladder.
pub struct GovernedEngine {
    rep: ReplicatedBg3,
    admit: AdmissionController,
    exec_fresh: Executor,
    exec_degraded: Executor,
    next_ro: AtomicUsize,
    config: GovernedConfig,
    group_commit_pages: usize,
    /// Writes shed at admission because disk health was Full/Poisoned.
    enospc_sheds: Counter,
    /// Store invalidations and GC relocations: their difference is the
    /// GC debt the write throttle charges.
    invalidations: Counter,
    relocation_moves: Counter,
}

/// A [`GraphStore`] view over one RO replica (reads) and the leader
/// (writes) — what the governed executors traverse.
struct RoView<'a> {
    rep: &'a ReplicatedBg3,
    idx: usize,
}

impl GraphStore for RoView<'_> {
    fn insert_edge(&self, edge: &Edge) -> StorageResult<()> {
        self.rep.insert_edge(edge)
    }

    fn get_edge(
        &self,
        src: VertexId,
        etype: EdgeType,
        dst: VertexId,
    ) -> StorageResult<Option<Vec<u8>>> {
        self.rep.ro_get_edge(self.idx, src, etype, dst)
    }

    fn delete_edge(&self, src: VertexId, etype: EdgeType, dst: VertexId) -> StorageResult<()> {
        self.rep.delete_edge(src, etype, dst)
    }

    fn neighbors(
        &self,
        src: VertexId,
        etype: EdgeType,
        limit: usize,
    ) -> StorageResult<Vec<(VertexId, Vec<u8>)>> {
        self.rep.ro_neighbors(self.idx, src, etype, limit)
    }

    fn insert_vertex(&self, vertex: &Vertex) -> StorageResult<()> {
        self.rep.insert_vertex(vertex)
    }

    fn get_vertex(&self, id: VertexId) -> StorageResult<Option<Vec<u8>>> {
        self.rep.ro_get_vertex(self.idx, id)
    }
}

fn unwrap_query_err(err: QueryError) -> StorageError {
    match err {
        QueryError::Storage(e) => e,
        // Governed queries are built programmatically and always validate.
        other => unreachable!("governed query rejected: {other}"),
    }
}

impl GovernedEngine {
    /// Builds the deployment and its controller. Metrics land in the
    /// shared store's registry.
    pub fn new(replicated: ReplicatedConfig, config: GovernedConfig) -> Self {
        let durability = replicated.leader.durability.clone().unwrap_or_default();
        let group_commit_pages = durability.group_commit_pages.max(1);
        let rep = ReplicatedBg3::new(replicated);
        let registry = rep.store().stats().registry().clone();
        let admit =
            AdmissionController::new(rep.store().clock().clone(), config.admission, &registry);
        let exec_config = ExecutorConfig {
            default_fanout: config.default_fanout,
            ..ExecutorConfig::default()
        }
        .with_metrics(registry.clone());
        let exec_fresh = Executor::new(exec_config.clone());
        let exec_degraded =
            Executor::new(exec_config.with_hop_cost_ceiling(config.hop_cost_ceiling));
        let enospc_sheds = registry.counter(names::ENOSPC_SHEDS_TOTAL);
        let invalidations = registry.counter(names::STORAGE_INVALIDATIONS_TOTAL);
        let relocation_moves = registry.counter(names::GC_RELOCATION_MOVES_TOTAL);
        GovernedEngine {
            rep,
            admit,
            exec_fresh,
            exec_degraded,
            next_ro: AtomicUsize::new(0),
            config,
            group_commit_pages,
            enospc_sheds,
            invalidations,
            relocation_moves,
        }
    }

    /// The underlying deployment.
    pub fn rep(&self) -> &ReplicatedBg3 {
        &self.rep
    }

    /// The admission controller.
    pub fn admission(&self) -> &AdmissionController {
        &self.admit
    }

    /// Current write-cost multiplier: 1 + group-commit debt + GC debt,
    /// capped. Group-commit debt is the leader's dirty-page count over its
    /// commit threshold; GC debt is invalidated-but-unrelocated records
    /// over `gc_debt_norm`.
    pub fn write_throttle(&self) -> f64 {
        let dirty = self.rep.dirty_pages() as f64 / self.group_commit_pages as f64;
        let debt = self
            .invalidations
            .get()
            .saturating_sub(self.relocation_moves.get()) as f64
            / self.config.gc_debt_norm.max(1) as f64;
        (1.0 + dirty + debt).min(self.config.write_throttle_cap)
    }

    /// Modelled admission cost of `op`: the class's expected cost scaled
    /// by traversal depth, plus the write throttle for writes.
    pub fn op_cost(&self, op: &Op) -> u64 {
        let class = OpClass::of(op);
        let base = self.admit.config().budget(class).expected_cost;
        let scaled = match op {
            Op::KHop { hops, .. } => base.saturating_mul((*hops).max(1) as u64),
            Op::PatternCycle { length, .. } => base.saturating_mul((*length).max(1) as u64),
            _ => base,
        };
        if class == OpClass::Write {
            ((scaled as f64) * self.write_throttle()).round() as u64
        } else {
            scaled
        }
    }

    fn pick_ro(&self) -> usize {
        self.next_ro.fetch_add(1, Ordering::Relaxed) % self.rep.ro_count().max(1)
    }

    /// Prepares replica `idx` for a read: fresh mode catches the replica
    /// up through the WAL; degraded mode skips the poll and flags the
    /// replica (and the metrics) as serving stale.
    fn prep_read(&self, idx: usize, degraded: bool) -> StorageResult<()> {
        if degraded {
            self.rep.ro(idx).set_serving_stale(true);
            self.admit.note_stale_read();
        } else {
            self.rep.poll_all()?;
            self.rep.ro(idx).set_serving_stale(false);
        }
        Ok(())
    }

    /// Admits and executes one workload op, applying the degradation
    /// ladder. Shed ops return the typed `Overloaded`/`DeadlineExceeded`
    /// error without touching the engine.
    pub fn submit(&self, op: &Op) -> StorageResult<OpOutcome> {
        let class = OpClass::of(op);
        // ENOSPC graceful degradation: when the disk under the store is
        // Full (or its tail is Poisoned), writes shed *before* touching
        // the token bucket — accepting them could only fail deeper in the
        // stack. Reads and traversals keep flowing: serving the data that
        // is already durable needs no free space, and GC-driven reclaim
        // (which restores health) runs below admission entirely.
        if class == OpClass::Write && self.rep.store().disk_health().sheds_writes() {
            self.enospc_sheds.inc();
            return Err(StorageError::overloaded(
                self.config.disk_full_retry_after_nanos,
            ));
        }
        let cost = self.op_cost(op);
        let admitted = self.admit.admit(class, cost)?;
        let degraded = admitted.pressure >= self.config.degrade_pressure;
        let served = self.execute(op, degraded)?;
        Ok(OpOutcome {
            queue_wait_nanos: admitted.queue_wait_nanos,
            degraded,
            served,
        })
    }

    fn execute(&self, op: &Op, degraded: bool) -> StorageResult<Served> {
        match op {
            Op::InsertEdge { .. } | Op::DeleteEdge { .. } => {
                self.rep.apply(&op.mutation().expect("a write op"))?;
                Ok(Served::Write)
            }
            Op::CheckEdge { src, etype, dst } => {
                let idx = self.pick_ro();
                self.prep_read(idx, degraded)?;
                let present = self.rep.ro_check_edge(idx, *src, *etype, *dst)?;
                Ok(Served::Read {
                    present,
                    stale: degraded,
                })
            }
            Op::OneHop { src, etype, limit } => {
                let mut steps = vec![Step::V(vec![*src]), Step::Out(*etype)];
                if *limit != usize::MAX {
                    steps.push(Step::Limit(*limit));
                }
                self.run_traversal(Query { steps }, degraded)
            }
            Op::KHop {
                src, etype, hops, ..
            } => self.run_traversal(
                Query {
                    steps: vec![
                        Step::V(vec![*src]),
                        Step::Repeat {
                            inner: Box::new(Step::Out(*etype)),
                            times: (*hops).max(1),
                        },
                        Step::Count,
                    ],
                },
                degraded,
            ),
            Op::PatternCycle {
                anchor,
                etype,
                length,
            } => {
                let idx = self.pick_ro();
                self.prep_read(idx, degraded)?;
                let view = RoView {
                    rep: &self.rep,
                    idx,
                };
                // Degraded mode shrinks the expansion budget in step with
                // the traversal hop ceiling.
                let matcher = PatternMatcher {
                    candidate_cap: 8,
                    max_matches: 1,
                    max_expansions: if degraded {
                        self.config.hop_cost_ceiling.saturating_mul(8).max(8)
                    } else {
                        2_000
                    },
                };
                let found = matcher.has_cycle(
                    &view,
                    CycleQuery {
                        etype: *etype,
                        length: *length,
                    },
                    *anchor,
                )?;
                Ok(Served::Traversal {
                    results: found as u64,
                    stale: degraded,
                })
            }
        }
    }

    fn run_traversal(&self, query: Query, degraded: bool) -> StorageResult<Served> {
        let idx = self.pick_ro();
        self.prep_read(idx, degraded)?;
        let view = RoView {
            rep: &self.rep,
            idx,
        };
        let exec = if degraded {
            &self.exec_degraded
        } else {
            &self.exec_fresh
        };
        let results = match exec.run(&view, &query).map_err(unwrap_query_err)? {
            QueryResult::Count(n) => n,
            QueryResult::Vertices(v) => v.len() as u64,
            QueryResult::Values(v) => v.len() as u64,
            QueryResult::Paths(p) => p.len() as u64,
        };
        Ok(Served::Traversal {
            results,
            stale: degraded,
        })
    }
}

impl std::fmt::Debug for GovernedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GovernedEngine")
            .field("rep", &self.rep)
            .field("admission", &self.admit.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bg3Config;

    fn tight_admission() -> AdmissionConfig {
        let budget = ClassBudget {
            cost_per_sec: 1_000_000,
            burst: 5_000,
            queue_depth: 8,
            expected_cost: 1_000,
            deadline_nanos: u64::MAX,
        };
        AdmissionConfig {
            point_read: budget,
            traversal: budget,
            write: budget,
        }
    }

    fn controller(config: AdmissionConfig) -> (SimClock, AdmissionController) {
        let clock = SimClock::new();
        let registry = MetricRegistry::new();
        let ctl = AdmissionController::new(clock.clone(), config, &registry);
        (clock, ctl)
    }

    #[test]
    fn bucket_sheds_overloaded_past_bounded_queue_and_refills() {
        let (clock, ctl) = controller(tight_admission());
        // burst 5k + backlog cap 8k = 13 ops of cost 1k before shedding.
        let mut admitted = 0;
        let mut first_err = None;
        for _ in 0..20 {
            match ctl.admit(OpClass::PointRead, 1_000) {
                Ok(_) => admitted += 1,
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        assert_eq!(admitted, 13);
        let err = first_err.unwrap();
        assert!(err.is_overloaded() && err.is_retryable());
        let retry = err.retry_after_nanos().unwrap();
        assert!(retry > 0);
        // Queue length is pinned at the configured depth, never past it.
        assert_eq!(ctl.queue_len(OpClass::PointRead), 8);
        assert_eq!(ctl.pressure(OpClass::PointRead), 1.0);
        // Draining at cost_per_sec=1e6/s: 1ms refills 1000 units = 1 op.
        clock.advance_millis(1);
        assert!(ctl.admit(OpClass::PointRead, 1_000).is_ok());
        let snap = ctl.snapshot();
        assert_eq!(snap.submitted, 21);
        assert_eq!(snap.admitted + snap.shed(), snap.submitted);
        assert_eq!(snap.shed_overloaded, 7);
    }

    #[test]
    fn deadline_shed_fires_before_queue_fills() {
        let mut config = tight_admission();
        // Queue admits up to 8 expected-cost ops ≙ 8ms of wait at 1e6/s,
        // but the deadline only tolerates 2ms.
        config.point_read.deadline_nanos = 2_000_000;
        let (_clock, ctl) = controller(config);
        let mut deadline_sheds = 0;
        for _ in 0..13 {
            if let Err(e) = ctl.admit(OpClass::PointRead, 1_000) {
                assert!(e.is_overloaded());
                assert!(e.retry_after_nanos().is_none(), "deadline, not queue-full");
                deadline_sheds += 1;
            }
        }
        assert!(deadline_sheds > 0);
        assert_eq!(ctl.snapshot().shed_deadline, deadline_sheds);
        // The queue never reached its cap: deadline guards cut in first.
        assert!(ctl.queue_len(OpClass::PointRead) < 8);
    }

    #[test]
    fn classes_are_isolated() {
        let (_clock, ctl) = controller(tight_admission());
        while ctl.admit(OpClass::Write, 1_000).is_ok() {}
        assert!(ctl.admit(OpClass::Write, 1_000).is_err());
        // A saturated write class leaves reads untouched.
        assert!(ctl.admit(OpClass::PointRead, 1_000).is_ok());
        assert_eq!(ctl.queue_len(OpClass::PointRead), 0);
    }

    fn governed(config: GovernedConfig) -> GovernedEngine {
        GovernedEngine::new(
            ReplicatedConfig {
                ro_nodes: 2,
                ..ReplicatedConfig::default()
            },
            config,
        )
    }

    fn seed_fanout(engine: &GovernedEngine, src: u64, n: u64) {
        for dst in 0..n {
            engine
                .rep()
                .insert_edge(&Edge::new(VertexId(src), EdgeType::FOLLOW, VertexId(dst)))
                .unwrap();
        }
        engine.rep().poll_all().unwrap();
    }

    #[test]
    fn fresh_reads_poll_and_degraded_reads_go_stale() {
        let engine = governed(GovernedConfig {
            admission: tight_admission(),
            ..GovernedConfig::default()
        });
        seed_fanout(&engine, 7, 3);
        let check = Op::CheckEdge {
            src: VertexId(7),
            etype: EdgeType::FOLLOW,
            dst: VertexId(1),
        };
        // Idle: fresh, present.
        let out = engine.submit(&check).unwrap();
        assert_eq!(
            out.served,
            Served::Read {
                present: true,
                stale: false
            }
        );
        assert!(!out.degraded);
        // Drain the point-read bucket past 50% backlog: degraded reads.
        let mut saw_stale = false;
        for _ in 0..40 {
            match engine.submit(&check) {
                Ok(o) => {
                    if o.degraded {
                        assert_eq!(
                            o.served,
                            Served::Read {
                                present: true,
                                stale: true
                            }
                        );
                        saw_stale = true;
                    }
                }
                Err(e) => assert!(e.is_overloaded()),
            }
        }
        assert!(saw_stale, "pressure should push reads onto the stale rung");
        let snap = engine.admission().snapshot();
        assert!(snap.stale_reads > 0);
        assert_eq!(snap.submitted, snap.admitted + snap.shed());
        // The stale counter also lands in the shared registry.
        let metrics = engine.rep().store().metrics_snapshot();
        assert_eq!(
            metrics.counter(names::ADMIT_STALE_READS_TOTAL),
            Some(snap.stale_reads)
        );
        assert_eq!(metrics.counter(names::ADMIT_SHED_TOTAL), Some(snap.shed()));
    }

    #[test]
    fn degraded_traversals_truncate_at_the_hop_ceiling() {
        let engine = governed(GovernedConfig {
            admission: tight_admission(),
            degrade_pressure: 0.0, // every op rides the degraded rung
            hop_cost_ceiling: 5,
            ..GovernedConfig::default()
        });
        seed_fanout(&engine, 1, 50);
        let out = engine
            .submit(&Op::OneHop {
                src: VertexId(1),
                etype: EdgeType::FOLLOW,
                limit: usize::MAX,
            })
            .unwrap();
        assert!(out.degraded);
        assert_eq!(
            out.served,
            Served::Traversal {
                results: 5,
                stale: true
            }
        );
        let metrics = engine.rep().store().metrics_snapshot();
        assert!(metrics.counter(names::QUERY_HOP_TRUNCATIONS_TOTAL).unwrap() >= 1);
    }

    #[test]
    fn khop_runs_through_the_executor_on_both_rungs() {
        let engine = governed(GovernedConfig {
            admission: AdmissionConfig::default(),
            ..GovernedConfig::default()
        });
        // 1 → {2,3}, 2 → {4}, 3 → {4}.
        for (s, d) in [(1u64, 2u64), (1, 3), (2, 4), (3, 4)] {
            engine
                .rep()
                .insert_edge(&Edge::new(VertexId(s), EdgeType::FOLLOW, VertexId(d)))
                .unwrap();
        }
        engine.rep().poll_all().unwrap();
        let out = engine
            .submit(&Op::KHop {
                src: VertexId(1),
                etype: EdgeType::FOLLOW,
                hops: 2,
                fanout: 10,
            })
            .unwrap();
        // Two traversers reach vertex 4 (one per path).
        assert_eq!(
            out.served,
            Served::Traversal {
                results: 2,
                stale: false
            }
        );
    }

    #[test]
    fn write_throttle_rises_with_group_commit_debt() {
        let engine = GovernedEngine::new(
            ReplicatedConfig {
                leader: Bg3Config::default().with_group_commit_pages(4),
                ro_nodes: 1,
                ..ReplicatedConfig::default()
            },
            GovernedConfig::default(),
        );
        let idle_cost = engine.op_cost(&Op::InsertEdge {
            src: VertexId(1),
            etype: EdgeType::FOLLOW,
            dst: VertexId(2),
            props: vec![],
        });
        assert!((engine.write_throttle() - 1.0).abs() < 0.5);
        // Dirty pages accumulate between group commits; the multiplier
        // follows, capped.
        for dst in 0..200u64 {
            engine
                .rep()
                .insert_edge(&Edge::new(VertexId(dst), EdgeType::FOLLOW, VertexId(dst)))
                .unwrap();
        }
        let throttled = engine.write_throttle();
        assert!(throttled >= 1.0);
        assert!(throttled <= engine.config.write_throttle_cap);
        let loaded_cost = engine.op_cost(&Op::InsertEdge {
            src: VertexId(1),
            etype: EdgeType::FOLLOW,
            dst: VertexId(2),
            props: vec![],
        });
        assert!(loaded_cost >= idle_cost);
    }

    #[test]
    fn full_disk_sheds_writes_but_keeps_reads_and_traversals_flowing() {
        use bg3_storage::DiskHealth;
        let engine = governed(GovernedConfig::default());
        seed_fanout(&engine, 5, 4);
        let write = Op::InsertEdge {
            src: VertexId(5),
            etype: EdgeType::FOLLOW,
            dst: VertexId(99),
            props: vec![],
        };
        let read = Op::CheckEdge {
            src: VertexId(5),
            etype: EdgeType::FOLLOW,
            dst: VertexId(1),
        };
        let traversal = Op::OneHop {
            src: VertexId(5),
            etype: EdgeType::FOLLOW,
            limit: usize::MAX,
        };

        for health in [DiskHealth::Full, DiskHealth::Poisoned] {
            engine.rep().store().disk_health_tracker().set(health);
            let err = engine.submit(&write).unwrap_err();
            assert!(err.is_overloaded(), "{health}: writes shed typed");
            assert_eq!(
                err.retry_after_nanos(),
                Some(engine.config.disk_full_retry_after_nanos),
                "{health}: the hint points at the reclaim cadence"
            );
            // The data plane that is already durable stays fully served.
            assert!(matches!(
                engine.submit(&read).unwrap().served,
                Served::Read { present: true, .. }
            ));
            assert!(matches!(
                engine.submit(&traversal).unwrap().served,
                Served::Traversal { results: 4, .. }
            ));
        }
        let metrics = engine.rep().store().metrics_snapshot();
        assert_eq!(metrics.counter(names::ENOSPC_SHEDS_TOTAL), Some(2));
        assert_eq!(
            metrics.gauge(names::DISK_HEALTH),
            Some(DiskHealth::Poisoned.level() as i64)
        );

        // Reclaim frees space (Full → NearFull): writes are admitted again
        // — they are the proof the disk recovered.
        engine
            .rep()
            .store()
            .disk_health_tracker()
            .set(DiskHealth::Full);
        engine.rep().store().disk_health_tracker().on_reclaim();
        assert_eq!(
            engine.rep().store().disk_health(),
            DiskHealth::NearFull,
            "reclaim steps the ladder down"
        );
        engine.submit(&write).unwrap();
        assert_eq!(
            engine
                .rep()
                .store()
                .metrics_snapshot()
                .counter(names::ENOSPC_SHEDS_TOTAL),
            Some(2),
            "no further sheds once reclaim freed space"
        );
    }

    #[test]
    fn deletes_are_writes_and_acked_deletes_stick() {
        let engine = governed(GovernedConfig::default());
        seed_fanout(&engine, 9, 2);
        engine
            .submit(&Op::DeleteEdge {
                src: VertexId(9),
                etype: EdgeType::FOLLOW,
                dst: VertexId(0),
            })
            .unwrap();
        engine.rep().poll_all().unwrap();
        let out = engine
            .submit(&Op::CheckEdge {
                src: VertexId(9),
                etype: EdgeType::FOLLOW,
                dst: VertexId(0),
            })
            .unwrap();
        assert_eq!(
            out.served,
            Served::Read {
                present: false,
                stale: false
            }
        );
    }
}
