//! Deterministic fault injection for the shared store.
//!
//! BG3's durability machinery (WAL-through-shared-storage, multi-version
//! mapping publishes, crash recovery) is only meaningful if the storage
//! substrate can *fail*. This module makes it fail on demand, and —
//! critically for reproducibility — *deterministically*:
//!
//! * a [`FaultPlan`] is a seed plus a list of [`FaultRule`]s;
//! * whether the rule fires at the *n*-th operation of its class is a pure
//!   function of `(seed, rule index, n)` — no wall clock, no global RNG —
//!   so the same plan produces the same fault schedule on every run;
//! * with an empty plan ([`FaultPlan::none`]) nothing is drawn at all: the
//!   store installs no [`crate::FaultBackend`], and the mapping table's
//!   draw is a single branch that touches no counter, keeping every
//!   no-fault experiment byte-identical to a build without the layer.
//!
//! One plan, one [`FaultInjector`], two draw sites. A store built with
//! `StoreConfig::with_faults` wraps its backend in [`crate::FaultBackend`],
//! which draws every byte-level fault ([`FaultOp::Write`], [`FaultOp::Read`],
//! [`FaultOp::Sync`]); [`crate::SharedMappingTable::for_store`] shares the
//! same injector and draws [`FaultOp::MappingPublish`]. The store itself
//! draws nothing.
//!
//! The module also provides the two consumers of injected failures:
//! [`RetryPolicy`] (bounded retries with simulated-clock backoff, used by
//! the Bw-tree flush path, forest split-out, GC relocation, WAL append and
//! stream rescans), and [`CrashPoint`]/[`CrashSwitch`] (named kill points
//! the chaos harness arms to stop an engine mid-protocol and exercise
//! recovery).

use crate::addr::StreamId;
use crate::clock::SimClock;
use crate::error::{StorageOp, StorageResult};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fault the injector can produce. Every kind but
/// [`FaultKind::PublishDrop`] acts on bytes and is drawn by
/// [`crate::FaultBackend`] below the store; `PublishDrop` is drawn by the
/// mapping table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The write fails outright; nothing reaches the media.
    AppendFail,
    /// The write lands with one byte scarred, then errors — a torn tail
    /// write. The store's cursor does not move, so the retry overwrites it.
    AppendTorn,
    /// The read fails.
    ReadFail,
    /// The mapping-table publish is silently dropped: readers keep seeing
    /// the previous version. Models a lost metadata-service RPC.
    PublishDrop,
    /// Silent corruption: one stored bit inside the requested span is
    /// flipped *in place* before the read is served. The call succeeds;
    /// only frame verification can notice, and the rot persists until
    /// repaired.
    ReadBitFlip,
    /// The durability barrier (fsync/fdatasync or seal) fails with EIO.
    SyncFail,
    /// The write fails with ENOSPC; nothing is written.
    WriteNoSpace,
    /// The write lands a prefix of its bytes and then fails — a torn write
    /// at the media level (short write + error).
    WriteShortTorn,
    /// The read fails with EIO.
    ReadEio,
    /// The disk enters a *sticky* full regime: this write and every later
    /// write or allocation fails ENOSPC until space is reclaimed (an
    /// extent delete reaches the backend).
    DiskFull,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FaultKind::AppendFail => "append-fail",
            FaultKind::AppendTorn => "append-torn",
            FaultKind::ReadFail => "read-fail",
            FaultKind::PublishDrop => "publish-drop",
            FaultKind::ReadBitFlip => "read-bit-flip",
            FaultKind::SyncFail => "sync-fail",
            FaultKind::WriteNoSpace => "write-no-space",
            FaultKind::WriteShortTorn => "write-short-torn",
            FaultKind::ReadEio => "read-eio",
            FaultKind::DiskFull => "disk-full",
        };
        f.write_str(name)
    }
}

/// The operation class a [`FaultRule`] applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// Backend writes ([`FaultKind::AppendFail`], [`FaultKind::AppendTorn`],
    /// [`FaultKind::WriteNoSpace`], [`FaultKind::WriteShortTorn`],
    /// [`FaultKind::DiskFull`]). A store append issues exactly one.
    Write,
    /// Backend positioned reads ([`FaultKind::ReadFail`],
    /// [`FaultKind::ReadBitFlip`], [`FaultKind::ReadEio`]): cache-missing
    /// record reads, stream rescans, scrub verification and repair reads.
    Read,
    /// Backend durability barriers — `sync` and `seal` calls
    /// ([`FaultKind::SyncFail`]).
    Sync,
    /// Mapping-table publishes ([`FaultKind::PublishDrop`]).
    MappingPublish,
}

impl FaultOp {
    const ALL: [FaultOp; 4] = [
        FaultOp::Write,
        FaultOp::Read,
        FaultOp::Sync,
        FaultOp::MappingPublish,
    ];

    fn index(self) -> usize {
        match self {
            FaultOp::Write => 0,
            FaultOp::Read => 1,
            FaultOp::Sync => 2,
            FaultOp::MappingPublish => 3,
        }
    }
}

/// One injection rule: fire `kind` on `op` with `probability`, optionally
/// restricted to a stream, an operation-index window, and a fire budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// Operation class the rule watches.
    pub op: FaultOp,
    /// Restrict to one stream (`None` = all streams / not stream-scoped).
    pub stream: Option<StreamId>,
    /// Fault to produce when the rule fires.
    pub kind: FaultKind,
    /// Per-operation fire probability in `[0, 1]`.
    pub probability: f64,
    /// Operations with index below this never fire (lets workloads warm up).
    pub after_op: u64,
    /// Maximum number of times the rule fires (`u64::MAX` = unbounded).
    pub max_fires: u64,
}

impl FaultRule {
    /// Rule firing `kind` on every matching `op` with `probability`.
    pub fn new(op: FaultOp, kind: FaultKind, probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "fault probability out of [0,1]"
        );
        FaultRule {
            op,
            stream: None,
            kind,
            probability,
            after_op: 0,
            max_fires: u64::MAX,
        }
    }

    /// Restricts the rule to `stream`.
    pub fn on_stream(mut self, stream: StreamId) -> Self {
        self.stream = Some(stream);
        self
    }

    /// Skips the first `n` matching operations.
    pub fn after(mut self, n: u64) -> Self {
        self.after_op = n;
        self
    }

    /// Caps the number of fires.
    pub fn at_most(mut self, fires: u64) -> Self {
        self.max_fires = fires;
        self
    }

    /// Pure decision: does this rule (ignoring its fire budget) fire at
    /// operation index `op_index` under `seed` as rule number `rule_index`?
    fn fires_at(&self, seed: u64, rule_index: usize, op_index: u64) -> bool {
        if op_index < self.after_op {
            return false;
        }
        if self.probability <= 0.0 {
            return false;
        }
        if self.probability >= 1.0 {
            return true;
        }
        let h = splitmix64(
            seed ^ (rule_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ op_index.wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        // Map the hash to [0, 1) with 53 bits of precision.
        let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < self.probability
    }
}

/// splitmix64: the mixer behind every seeded fault draw, and the op
/// source of the seeded chaos harnesses.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded, declarative fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed all per-operation decisions derive from.
    pub seed: u64,
    /// Rules evaluated in order; the first match wins.
    pub rules: Vec<FaultRule>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: never injects anything, and costs one branch per
    /// operation.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            rules: Vec::new(),
        }
    }

    /// An empty plan carrying `seed`, ready for `with_rule` chaining.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a rule.
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Convenience: fail backend durability barriers (fsync/seal) with
    /// `probability` ([`FaultKind::SyncFail`]).
    pub fn fail_syncs(self, probability: f64) -> Self {
        self.with_rule(FaultRule::new(
            FaultOp::Sync,
            FaultKind::SyncFail,
            probability,
        ))
    }

    /// Convenience: fail backend writes ENOSPC with `probability`
    /// ([`FaultKind::WriteNoSpace`]).
    pub fn no_space_writes(self, probability: f64) -> Self {
        self.with_rule(FaultRule::new(
            FaultOp::Write,
            FaultKind::WriteNoSpace,
            probability,
        ))
    }

    /// Convenience: tear backend writes at the media level with
    /// `probability` ([`FaultKind::WriteShortTorn`]).
    pub fn torn_backend_writes(self, probability: f64) -> Self {
        self.with_rule(FaultRule::new(
            FaultOp::Write,
            FaultKind::WriteShortTorn,
            probability,
        ))
    }

    /// Convenience: fail backend reads EIO with `probability`
    /// ([`FaultKind::ReadEio`]).
    pub fn eio_reads(self, probability: f64) -> Self {
        self.with_rule(FaultRule::new(
            FaultOp::Read,
            FaultKind::ReadEio,
            probability,
        ))
    }

    /// Convenience: arm the sticky disk-full regime on the `n`-th backend
    /// write ([`FaultKind::DiskFull`]); it clears only when reclaim
    /// deletes an extent.
    pub fn disk_full_after(self, n: u64) -> Self {
        self.with_rule(
            FaultRule::new(FaultOp::Write, FaultKind::DiskFull, 1.0)
                .after(n)
                .at_most(1),
        )
    }

    /// True when the plan can never inject anything.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Pure, stateless decision: the fault (if any) for the `op_index`-th
    /// operation of class `op` on `stream`. Ignores fire budgets (which are
    /// runtime state); [`FaultInjector`] applies those on top. Exposed so
    /// tests can check the schedule is a function of the plan alone.
    pub fn decision(
        &self,
        op: FaultOp,
        stream: Option<StreamId>,
        op_index: u64,
    ) -> Option<FaultKind> {
        self.firing(op, stream, op_index)
            .next()
            .map(|(_, rule)| rule.kind)
    }

    /// The rules that fire at the `op_index`-th operation of class `op` on
    /// `stream`, with their indices, in plan order (budgets ignored).
    fn firing(
        &self,
        op: FaultOp,
        stream: Option<StreamId>,
        op_index: u64,
    ) -> impl Iterator<Item = (usize, &FaultRule)> {
        self.rules
            .iter()
            .enumerate()
            .filter(move |(rule_index, rule)| {
                rule.op == op
                    && rule.stream.is_none_or(|s| stream == Some(s))
                    && rule.fires_at(self.seed, *rule_index, op_index)
            })
    }

    /// The first `n` decisions for `(op, stream)` — the fault schedule.
    pub fn schedule(
        &self,
        op: FaultOp,
        stream: Option<StreamId>,
        n: u64,
    ) -> Vec<Option<FaultKind>> {
        (0..n).map(|i| self.decision(op, stream, i)).collect()
    }
}

struct InjectorInner {
    plan: FaultPlan,
    /// Per-class operation counters (index = FaultOp::index()).
    op_counters: [AtomicU64; 4],
    /// Remaining fire budget per rule.
    budgets: Vec<AtomicU64>,
    /// Total faults fired per class.
    fired: [AtomicU64; 4],
}

/// Runtime fault decisions over a [`FaultPlan`]. Cheap to clone; clones
/// share counters (they model one storage service observed from several
/// handles).
#[derive(Clone)]
pub struct FaultInjector {
    inner: Arc<InjectorInner>,
}

impl FaultInjector {
    /// Injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let budgets = plan
            .rules
            .iter()
            .map(|r| AtomicU64::new(r.max_fires))
            .collect();
        FaultInjector {
            inner: Arc::new(InjectorInner {
                plan,
                op_counters: Default::default(),
                budgets,
                fired: Default::default(),
            }),
        }
    }

    /// Injector that never fires (zero-cost: one branch per operation).
    pub fn disabled() -> Self {
        Self::new(FaultPlan::none())
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.inner.plan
    }

    /// Decides the fault (if any) for the next operation of class `op` on
    /// `stream`. With an empty plan this is a single branch — no counter
    /// traffic — so disabled injection cannot perturb timing or stats.
    pub fn decide(&self, op: FaultOp, stream: Option<StreamId>) -> Option<FaultKind> {
        if self.inner.plan.is_empty() {
            return None;
        }
        let inner = &self.inner;
        let op_index = inner.op_counters[op.index()].fetch_add(1, Ordering::Relaxed);
        // The first firing rule with fire budget left wins; spending the
        // budget is one atomic decrement that never goes below zero.
        let (_, rule) = inner.plan.firing(op, stream, op_index).find(|(i, _)| {
            inner.budgets[*i]
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
                .is_ok()
        })?;
        inner.fired[op.index()].fetch_add(1, Ordering::Relaxed);
        Some(rule.kind)
    }

    /// Number of operations of class `op` observed so far.
    pub fn observed(&self, op: FaultOp) -> u64 {
        self.inner.op_counters[op.index()].load(Ordering::Relaxed)
    }

    /// Number of faults fired for class `op`.
    pub fn fired(&self, op: FaultOp) -> u64 {
        self.inner.fired[op.index()].load(Ordering::Relaxed)
    }

    /// Total faults fired across all classes.
    pub fn total_fired(&self) -> u64 {
        FaultOp::ALL.iter().map(|&op| self.fired(op)).sum()
    }
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector")
            .field("rules", &self.inner.plan.rules.len())
            .field("seed", &self.inner.plan.seed)
            .field("total_fired", &self.total_fired())
            .finish()
    }
}

/// Bounded-retry policy with exponential simulated-clock backoff.
///
/// Retries only *transient* failures ([`crate::StorageError::is_transient`]):
/// injected append/read faults. Crash-point kills and organic errors
/// propagate immediately.
///
/// Two backoff schedules are available. The default is a fixed schedule —
/// `initial_backoff_nanos` doubling per retry, capped at
/// `max_backoff_nanos`. [`Self::with_decorrelated_jitter`] switches to
/// AWS-style *decorrelated jitter*: each sleep is drawn uniformly from
/// `[initial, prev_sleep * 3]` (capped), which breaks the retry
/// synchronization that fixed schedules create when many shed callers back
/// off at once. The draw uses a deterministic xorshift PRNG seeded by the
/// caller, so simulations stay reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retries).
    pub max_attempts: u32,
    /// Simulated backoff before the first retry; doubles per retry on the
    /// fixed schedule, and is the lower bound of every jittered draw.
    pub initial_backoff_nanos: u64,
    /// Upper bound on a single backoff sleep (both schedules).
    pub max_backoff_nanos: u64,
    /// When set, use decorrelated jitter seeded with this value instead of
    /// the fixed doubling schedule.
    pub jitter_seed: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            initial_backoff_nanos: 100_000, // 100µs, ~one cloud-storage RTT
            max_backoff_nanos: 100_000_000, // 100ms cap
            jitter_seed: None,
        }
    }
}

impl RetryPolicy {
    /// Policy that never retries.
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_attempts: 1,
            initial_backoff_nanos: 0,
            max_backoff_nanos: 0,
            jitter_seed: None,
        }
    }

    /// Policy with `max_attempts` total attempts.
    pub fn with_attempts(mut self, max_attempts: u32) -> Self {
        assert!(max_attempts >= 1, "at least one attempt is required");
        self.max_attempts = max_attempts;
        self
    }

    /// Caps any single backoff sleep at `max_backoff_nanos`.
    pub fn with_max_backoff_nanos(mut self, max_backoff_nanos: u64) -> Self {
        self.max_backoff_nanos = max_backoff_nanos;
        self
    }

    /// Switches to the decorrelated-jitter schedule: each sleep is drawn
    /// uniformly from `[initial_backoff_nanos, prev_sleep * 3]`, capped at
    /// `max_backoff_nanos`. `seed` makes the draw sequence deterministic.
    pub fn with_decorrelated_jitter(mut self, seed: u64) -> Self {
        self.jitter_seed = Some(seed);
        self
    }

    /// Runs `operation` under this policy, charging backoff to `clock`
    /// between attempts.
    pub fn run<T>(
        &self,
        clock: &SimClock,
        operation: impl FnMut() -> StorageResult<T>,
    ) -> StorageResult<T> {
        self.run_when(clock, |err| err.is_transient(), operation)
    }

    /// Like [`Self::run`], but retrying whenever `retry_if(err)` holds —
    /// used by read paths that also retry checksum mismatches
    /// ([`crate::StorageError::is_retryable`]).
    pub fn run_when<T>(
        &self,
        clock: &SimClock,
        mut retry_if: impl FnMut(&crate::StorageError) -> bool,
        mut operation: impl FnMut() -> StorageResult<T>,
    ) -> StorageResult<T> {
        let mut schedule = BackoffSchedule::new(self);
        let mut attempt = 1u32;
        loop {
            match operation() {
                Ok(value) => return Ok(value),
                Err(err) if retry_if(&err) && attempt < self.max_attempts => {
                    // A shed carries a floor: sleeping less than the
                    // engine's retry_after hint guarantees another shed.
                    clock.advance_nanos(schedule.next(err.retry_after_nanos()));
                    attempt += 1;
                    bg3_obs::span::charge(bg3_obs::CostDim::Retries, 1);
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// The full backoff schedule this policy would produce (one sleep per
    /// retry, `max_attempts - 1` entries). Exposed for tests and for
    /// callers that pace themselves without `run_when`'s loop.
    pub fn backoff_schedule(&self) -> Vec<u64> {
        let mut schedule = BackoffSchedule::new(self);
        (1..self.max_attempts)
            .map(|_| schedule.next(None))
            .collect()
    }
}

/// Iterator state for one `run_when` invocation's backoff sleeps.
struct BackoffSchedule {
    initial: u64,
    cap: u64,
    /// Next fixed-schedule sleep, or previous jittered sleep.
    current: u64,
    /// xorshift64* state when jitter is enabled.
    rng: Option<u64>,
}

impl BackoffSchedule {
    fn new(policy: &RetryPolicy) -> Self {
        BackoffSchedule {
            initial: policy.initial_backoff_nanos,
            cap: policy.max_backoff_nanos,
            current: policy.initial_backoff_nanos,
            // xorshift64* cannot leave state 0; fold the seed into a
            // nonzero constant so seed 0 is valid.
            rng: policy.jitter_seed.map(|seed| seed ^ 0x9E37_79B9_7F4A_7C15),
        }
    }

    fn next(&mut self, floor_hint: Option<u64>) -> u64 {
        let sleep = match &mut self.rng {
            None => {
                let sleep = self.current.min(self.cap);
                self.current = self.current.saturating_mul(2);
                sleep
            }
            Some(state) => {
                // xorshift64*: fast, deterministic, good enough to spread
                // retry times; not a statistical PRNG requirement.
                *state ^= *state << 13;
                *state ^= *state >> 7;
                *state ^= *state << 17;
                let draw = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
                // Uniform in [initial, prev * 3], then capped.
                let hi = self.current.saturating_mul(3).min(self.cap);
                let lo = self.initial.min(hi);
                let span = hi - lo;
                let sleep = if span == 0 {
                    lo
                } else {
                    lo + draw % (span + 1)
                };
                self.current = sleep.max(self.initial);
                sleep
            }
        };
        // An Overloaded shed's retry_after is a floor, not a suggestion.
        sleep
            .max(floor_hint.unwrap_or(0))
            .min(self.cap.max(floor_hint.unwrap_or(0)))
    }
}

/// A named place in the write path where the chaos harness can kill the
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Inside a checkpoint's dirty-page flush loop: some pages flushed,
    /// nothing published.
    MidFlush,
    /// Inside a forest split-out: entries copied to the dedicated tree, the
    /// split-out record not yet logged.
    MidSplit,
    /// Inside a GC cycle: an extent relocated, the mapping repairs not yet
    /// republished.
    MidGcCycle,
    /// Inside a group commit: dirty pages flushed, the checkpoint record
    /// and mapping publish not yet issued.
    MidGroupCommit,
}

impl CrashPoint {
    /// All named crash points.
    pub const ALL: [CrashPoint; 4] = [
        CrashPoint::MidFlush,
        CrashPoint::MidSplit,
        CrashPoint::MidGcCycle,
        CrashPoint::MidGroupCommit,
    ];

    /// The storage operation a kill at this point is reported under.
    pub fn op(self) -> StorageOp {
        match self {
            CrashPoint::MidFlush | CrashPoint::MidGroupCommit => StorageOp::Append,
            CrashPoint::MidSplit => StorageOp::Append,
            CrashPoint::MidGcCycle => StorageOp::Relocate,
        }
    }
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CrashPoint::MidFlush => "mid-flush",
            CrashPoint::MidSplit => "mid-split",
            CrashPoint::MidGcCycle => "mid-gc-cycle",
            CrashPoint::MidGroupCommit => "mid-group-commit",
        };
        f.write_str(name)
    }
}

/// Shared switchboard of armed crash points. Engine code calls
/// [`CrashSwitch::fire`] at each named point; the harness arms points and
/// observes the resulting [`crate::ErrorKind::Crash`] error. Each armed
/// point fires exactly once (firing disarms it), so recovery and the
/// restarted engine run fault-free.
#[derive(Clone, Default)]
pub struct CrashSwitch {
    armed: Arc<Mutex<HashSet<CrashPoint>>>,
}

impl CrashSwitch {
    /// A switchboard with nothing armed.
    pub fn new() -> Self {
        CrashSwitch::default()
    }

    /// Arms `point`: the next [`Self::fire`] for it returns the crash error.
    pub fn arm(&self, point: CrashPoint) {
        self.armed.lock().insert(point);
    }

    /// Disarms `point` without firing.
    pub fn disarm(&self, point: CrashPoint) {
        self.armed.lock().remove(&point);
    }

    /// True when `point` is armed.
    pub fn is_armed(&self, point: CrashPoint) -> bool {
        self.armed.lock().contains(&point)
    }

    /// Kills the caller if `point` is armed (disarming it), else succeeds.
    pub fn fire(&self, point: CrashPoint) -> StorageResult<()> {
        if self.armed.lock().remove(&point) {
            Err(crate::StorageError::crash(point))
        } else {
            Ok(())
        }
    }
}

impl fmt::Debug for CrashSwitch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CrashSwitch")
            .field("armed", &self.armed.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorKind;

    fn fail_writes(seed: u64, probability: f64) -> FaultPlan {
        FaultPlan::seeded(seed).with_rule(FaultRule::new(
            FaultOp::Write,
            FaultKind::AppendFail,
            probability,
        ))
    }

    #[test]
    fn empty_plan_never_fires() {
        let injector = FaultInjector::disabled();
        for _ in 0..1000 {
            assert_eq!(injector.decide(FaultOp::Write, Some(StreamId::BASE)), None);
        }
        assert_eq!(injector.observed(FaultOp::Write), 0, "no counter traffic");
        assert_eq!(injector.total_fired(), 0);
    }

    #[test]
    fn schedule_is_deterministic_for_a_seed() {
        let plan = fail_writes(42, 0.3);
        let a = plan.schedule(FaultOp::Write, Some(StreamId::BASE), 500);
        let b = plan.schedule(FaultOp::Write, Some(StreamId::BASE), 500);
        assert_eq!(a, b);
        assert!(a.iter().any(|d| d.is_some()), "p=0.3 over 500 ops fires");
        assert!(a.iter().any(|d| d.is_none()));

        // A different seed yields a different schedule.
        assert_ne!(
            a,
            fail_writes(43, 0.3).schedule(FaultOp::Write, Some(StreamId::BASE), 500)
        );
    }

    #[test]
    fn injector_follows_the_pure_schedule() {
        let plan = fail_writes(7, 0.25);
        let injector = FaultInjector::new(plan.clone());
        for i in 0..300 {
            let live = injector.decide(FaultOp::Write, Some(StreamId::DELTA));
            assert_eq!(
                live,
                plan.decision(FaultOp::Write, Some(StreamId::DELTA), i)
            );
        }
        assert_eq!(injector.observed(FaultOp::Write), 300);
    }

    #[test]
    fn stream_scoping_and_windows_apply() {
        let rule = FaultRule::new(FaultOp::Write, FaultKind::AppendFail, 1.0)
            .on_stream(StreamId::WAL)
            .after(10);
        let plan = FaultPlan::seeded(1).with_rule(rule);
        assert_eq!(
            plan.decision(FaultOp::Write, Some(StreamId::BASE), 50),
            None
        );
        assert_eq!(plan.decision(FaultOp::Write, Some(StreamId::WAL), 5), None);
        assert_eq!(
            plan.decision(FaultOp::Write, Some(StreamId::WAL), 10),
            Some(FaultKind::AppendFail)
        );
    }

    #[test]
    fn op_classes_schedule_independently() {
        let plan = FaultPlan::seeded(9)
            .fail_syncs(0.5)
            .no_space_writes(0.2)
            .eio_reads(0.2);
        // A rule never bleeds into another class.
        assert!(plan
            .schedule(FaultOp::MappingPublish, None, 64)
            .iter()
            .all(|d| d.is_none()));
        let syncs = plan.schedule(FaultOp::Sync, None, 64);
        assert!(syncs.contains(&Some(FaultKind::SyncFail)));
        assert!(syncs.iter().flatten().all(|k| *k == FaultKind::SyncFail));
        assert_eq!(syncs, plan.schedule(FaultOp::Sync, None, 64));

        // The sticky disk-full rule arms exactly once, at its window.
        let injector = FaultInjector::new(FaultPlan::seeded(1).disk_full_after(5));
        let fires: Vec<bool> = (0..10)
            .map(|_| injector.decide(FaultOp::Write, None).is_some())
            .collect();
        assert_eq!(fires.iter().filter(|f| **f).count(), 1);
        assert!(fires[5], "disk-full must arm at the configured write");
    }

    #[test]
    fn a_spent_rule_yields_to_the_next_firing_rule() {
        let plan = FaultPlan::seeded(3)
            .with_rule(FaultRule::new(FaultOp::Write, FaultKind::AppendTorn, 1.0).at_most(2))
            .with_rule(FaultRule::new(FaultOp::Write, FaultKind::AppendFail, 1.0));
        let injector = FaultInjector::new(plan);
        let kinds: Vec<_> = (0..4)
            .map(|_| injector.decide(FaultOp::Write, None))
            .collect();
        assert_eq!(
            kinds,
            [
                Some(FaultKind::AppendTorn),
                Some(FaultKind::AppendTorn),
                Some(FaultKind::AppendFail),
                Some(FaultKind::AppendFail),
            ]
        );
        assert_eq!(injector.fired(FaultOp::Write), 4);
    }

    #[test]
    fn fire_budget_caps_injections() {
        let rule = FaultRule::new(FaultOp::Read, FaultKind::ReadFail, 1.0).at_most(3);
        let injector = FaultInjector::new(FaultPlan::seeded(1).with_rule(rule));
        let fired = (0..100)
            .filter(|_| injector.decide(FaultOp::Read, None).is_some())
            .count();
        assert_eq!(fired, 3);
        assert_eq!(injector.fired(FaultOp::Read), 3);
    }

    #[test]
    fn retry_policy_retries_transient_until_success() {
        let clock = SimClock::new();
        let mut failures_left = 2;
        let result = RetryPolicy::default().run(&clock, || {
            if failures_left > 0 {
                failures_left -= 1;
                Err(crate::StorageError::injected(
                    StorageOp::Append,
                    FaultKind::AppendFail,
                ))
            } else {
                Ok(99)
            }
        });
        assert_eq!(result.unwrap(), 99);
        // Two backoffs: 100µs + 200µs.
        assert_eq!(clock.now().as_micros(), 300);
    }

    #[test]
    fn retry_policy_gives_up_after_max_attempts() {
        let clock = SimClock::new();
        let mut attempts = 0;
        let result: StorageResult<()> = RetryPolicy::default().with_attempts(3).run(&clock, || {
            attempts += 1;
            Err(crate::StorageError::injected(
                StorageOp::Read,
                FaultKind::ReadFail,
            ))
        });
        assert_eq!(attempts, 3);
        assert!(matches!(
            result.unwrap_err().kind,
            ErrorKind::Injected(FaultKind::ReadFail)
        ));
    }

    #[test]
    fn retry_policy_does_not_retry_crashes_or_organic_errors() {
        let clock = SimClock::new();
        let mut attempts = 0;
        let result: StorageResult<()> = RetryPolicy::default().run(&clock, || {
            attempts += 1;
            Err(crate::StorageError::crash(CrashPoint::MidFlush))
        });
        assert_eq!(attempts, 1, "crash must propagate on first attempt");
        assert!(result.unwrap_err().is_crash());
        assert_eq!(clock.now().as_micros(), 0, "no backoff charged");
    }

    #[test]
    fn jittered_backoff_is_deterministic_bounded_and_decorrelated() {
        let policy = RetryPolicy::default()
            .with_attempts(8)
            .with_decorrelated_jitter(7);
        let a = policy.backoff_schedule();
        let b = policy.backoff_schedule();
        assert_eq!(a, b, "same seed must replay the same sleeps");
        assert_eq!(a.len(), 7);
        for &sleep in &a {
            assert!(sleep >= policy.initial_backoff_nanos, "floor is initial");
            assert!(sleep <= policy.max_backoff_nanos, "cap holds");
        }
        // A different seed decorrelates the sleeps.
        let other = RetryPolicy::default()
            .with_attempts(8)
            .with_decorrelated_jitter(8)
            .backoff_schedule();
        assert_ne!(a, other);
        // The fixed schedule stays what it always was: doubling, capped.
        let fixed = RetryPolicy::default()
            .with_attempts(5)
            .with_max_backoff_nanos(350_000)
            .backoff_schedule();
        assert_eq!(fixed, vec![100_000, 200_000, 350_000, 350_000]);
    }

    #[test]
    fn overloaded_retry_after_floors_the_backoff_sleep() {
        let clock = SimClock::new();
        let mut failures_left = 1;
        let policy = RetryPolicy::default().with_decorrelated_jitter(3);
        let result = policy.run_when(
            &clock,
            |err| err.is_retryable(),
            || {
                if failures_left > 0 {
                    failures_left -= 1;
                    // retry_after far above the jitter range.
                    Err(crate::StorageError::overloaded(900_000_000))
                } else {
                    Ok(1)
                }
            },
        );
        assert_eq!(result.unwrap(), 1);
        assert!(
            clock.now().0 >= 900_000_000,
            "slept only {}ns; the shed's retry_after floor was ignored",
            clock.now().0
        );
    }

    #[test]
    fn run_when_retries_by_custom_predicate() {
        let clock = SimClock::new();
        let addr = crate::PageAddr {
            stream: StreamId::BASE,
            extent: crate::ExtentId(1),
            offset: 20,
            len: 4,
            record: crate::RecordId(9),
        };
        // `run` would give up immediately on a checksum mismatch...
        let mut attempts = 0;
        let _ = RetryPolicy::default().run(&clock, || -> StorageResult<()> {
            attempts += 1;
            Err(crate::StorageError::checksum_mismatch(
                StorageOp::Read,
                addr,
            ))
        });
        assert_eq!(attempts, 1);
        // ...while `run_when(is_retryable)` keeps trying.
        let mut failures_left = 2;
        let result = RetryPolicy::default().run_when(
            &clock,
            |e| e.is_retryable(),
            || {
                if failures_left > 0 {
                    failures_left -= 1;
                    Err(crate::StorageError::checksum_mismatch(
                        StorageOp::Read,
                        addr,
                    ))
                } else {
                    Ok(7)
                }
            },
        );
        assert_eq!(result.unwrap(), 7);
    }

    #[test]
    fn crash_switch_fires_exactly_once() {
        let switch = CrashSwitch::new();
        assert!(switch.fire(CrashPoint::MidSplit).is_ok(), "disarmed");
        switch.arm(CrashPoint::MidSplit);
        assert!(switch.is_armed(CrashPoint::MidSplit));
        let err = switch.fire(CrashPoint::MidSplit).unwrap_err();
        assert!(matches!(err.kind, ErrorKind::Crash(CrashPoint::MidSplit)));
        assert!(
            switch.fire(CrashPoint::MidSplit).is_ok(),
            "firing disarms the point"
        );
    }

    #[test]
    fn crash_switch_clones_share_arming() {
        let switch = CrashSwitch::new();
        let peer = switch.clone();
        switch.arm(CrashPoint::MidGcCycle);
        assert!(peer.fire(CrashPoint::MidGcCycle).is_err());
    }
}
