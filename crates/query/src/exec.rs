//! Plan execution over any [`GraphStore`].
//!
//! Expansion runs in one of two modes:
//!
//! * **Batched (default)** — morsel-driven: each `Expand` step gathers the
//!   whole frontier's neighbor lists through one
//!   [`GraphStore::neighbors_batch`] sweep per direction, so engines with a
//!   sorted batched scan path (BG3's packed CSR segments) touch each
//!   sealed page once per hop instead of once per frontier vertex. Plans
//!   ending in `count()` (optionally through `dedup()`) additionally push
//!   the aggregation into the expansion and never materialize traversers.
//! * **Scalar** — the per-vertex baseline: one [`GraphStore::neighbors`]
//!   call per traverser per direction.
//!
//! Both modes produce identical results in identical order (the
//! `query_equivalence` proptest holds them to that).

use crate::ast::Query;
use crate::error::QueryError;
use crate::plan::{optimize, Dir, Plan, PlannedStep};
use crate::reverse_etype;
use bg3_graph::{EdgeType, GraphStore, NeighborSink, VertexId};
use bg3_obs::span::{CostDim, QueryProfile, SlowQueryLog, Span, TraceContext, VirtualClock};
use bg3_obs::{names, Counter, Histogram, MetricRegistry};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Arc;

/// Execution knobs.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Neighbors fetched per vertex per unbounded expansion — the fan-out
    /// guard the risk-control workload requires ("10 hops and 100 edges").
    pub default_fanout: usize,
    /// Hard cap on live traversers; exceeding it aborts the query rather
    /// than melting the node.
    pub max_traversers: usize,
    /// Batched (morsel-driven) expansion vs the scalar per-vertex path.
    /// Results are identical; batching trades per-call overhead for shared
    /// page scans and enables count/dedup pushdown.
    pub batch: bool,
    /// Registry receiving executor metrics (`query_frontier_len`,
    /// `query_pushdown_hits_total`, `query_hop_truncations_total`). Pass
    /// the store's registry to merge them with the engine's I/O counters.
    pub metrics: Option<MetricRegistry>,
    /// Degraded-mode emission ceiling per expansion step (per hop). When
    /// set, no single hop emits more than this many neighbors — the
    /// expansion is *truncated* (counted in
    /// `query_hop_truncations_total`), not aborted, trading recall for
    /// bounded per-hop cost under overload. `None` (the default) keeps
    /// exact semantics.
    pub hop_cost_ceiling: Option<usize>,
    /// Virtual-time source stamped onto PROFILE spans. Pass the engine's
    /// `SimClock` (wrapped) so span times line up with the I/O latency
    /// histograms; `None` pins span timestamps at 0 (structure and cost
    /// attribution still recorded).
    pub clock: Option<VirtualClock>,
    /// Slow-query log every PROFILE run is offered to (keep-K-worst by
    /// modelled cost). `None` disables the log.
    pub slow_log: Option<SlowQueryLog>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            default_fanout: 100,
            max_traversers: 100_000,
            batch: true,
            metrics: None,
            hop_cost_ceiling: None,
            clock: None,
            slow_log: None,
        }
    }
}

impl ExecutorConfig {
    /// Switches to the scalar per-vertex expansion path.
    pub fn scalar(mut self) -> Self {
        self.batch = false;
        self
    }

    /// Attaches a metrics registry.
    pub fn with_metrics(mut self, registry: MetricRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Caps every expansion step at `ceiling` emitted neighbors
    /// (degradation-ladder traversal mode).
    pub fn with_hop_cost_ceiling(mut self, ceiling: usize) -> Self {
        self.hop_cost_ceiling = Some(ceiling);
        self
    }

    /// Attaches a virtual-time source for PROFILE span timestamps.
    pub fn with_clock(mut self, clock: VirtualClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Attaches a slow-query log; every PROFILE run is offered to it.
    pub fn with_slow_log(mut self, log: SlowQueryLog) -> Self {
        self.slow_log = Some(log);
        self
    }
}

/// The result of a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryResult {
    /// Head vertices (non-terminal pipelines end here implicitly).
    Vertices(Vec<VertexId>),
    /// `count()`.
    Count(u64),
    /// `values()`: head vertices and their vertex-table properties.
    Values(Vec<(VertexId, Option<Vec<u8>>)>),
    /// `path()`: full traverser paths.
    Paths(Vec<Vec<VertexId>>),
}

/// One link in a traverser's provenance chain. Children share their
/// parent's chain through `Arc` instead of cloning the whole path per
/// emitted traverser; chains are built at all only when the plan
/// terminates in `path()`.
#[derive(Debug)]
struct PathNode {
    vertex: VertexId,
    prev: Option<Arc<PathNode>>,
}

/// One in-flight traverser: its head vertex, plus (only when the plan asks
/// for `path()`) a shared link chain back to its source.
#[derive(Debug, Clone)]
struct Traverser {
    head: VertexId,
    trail: Option<Arc<PathNode>>,
}

impl Traverser {
    fn source(id: VertexId, need_paths: bool) -> Self {
        Traverser {
            head: id,
            trail: need_paths.then(|| {
                Arc::new(PathNode {
                    vertex: id,
                    prev: None,
                })
            }),
        }
    }

    /// A child traverser at `dst`, sharing this traverser's trail.
    fn step_to(&self, dst: VertexId) -> Self {
        Traverser {
            head: dst,
            trail: self.trail.as_ref().map(|t| {
                Arc::new(PathNode {
                    vertex: dst,
                    prev: Some(Arc::clone(t)),
                })
            }),
        }
    }

    /// Source-to-head path, reconstructed from the trail chain.
    fn full_path(&self) -> Vec<VertexId> {
        let mut out = Vec::new();
        let mut node = self.trail.as_deref();
        while let Some(n) = node {
            out.push(n.vertex);
            node = n.prev.as_deref();
        }
        if out.is_empty() {
            out.push(self.head);
        }
        out.reverse();
        out
    }
}

/// Batched expansion results for a whole frontier in one flat buffer
/// (destination ids only — expansion ignores edge properties): slot `i`'s
/// neighbors are `ids[offsets[i]..offsets[i + 1]]`, in visit order.
struct Adjacency {
    offsets: Vec<usize>,
    ids: Vec<VertexId>,
}

impl Adjacency {
    fn neighbors(&self, slot: usize) -> &[VertexId] {
        &self.ids[self.offsets[slot]..self.offsets[slot + 1]]
    }
}

/// Records `neighbors_batch` visits in arrival order.
struct Gather {
    visits: Vec<(usize, VertexId)>,
}

impl NeighborSink for Gather {
    fn visit(&mut self, src_idx: usize, dst: VertexId, _props: &[u8]) -> bool {
        self.visits.push((src_idx, dst));
        true
    }
}

fn gather(
    store: &dyn GraphStore,
    heads: &[VertexId],
    etype: EdgeType,
    fanout: usize,
) -> Result<Adjacency, QueryError> {
    let mut sink = Gather { visits: Vec::new() };
    store.neighbors_batch(heads, etype, fanout, &mut sink)?;
    // Counting sort by slot. The scatter walks the visits in arrival
    // order, so each slot keeps its destination order; it advances
    // `offsets[slot]` from the slot's start to its end, and the final
    // shift turns those ends back into starts.
    let mut offsets = vec![0usize; heads.len() + 1];
    for &(slot, _) in &sink.visits {
        offsets[slot + 1] += 1;
    }
    for i in 0..heads.len() {
        offsets[i + 1] += offsets[i];
    }
    let mut ids = vec![VertexId::default(); sink.visits.len()];
    for &(slot, dst) in &sink.visits {
        ids[offsets[slot]] = dst;
        offsets[slot] += 1;
    }
    offsets.rotate_right(1);
    offsets[0] = 0;
    Ok(Adjacency { offsets, ids })
}

/// Feeds `visit` one traverser's merged neighbor list in scalar order:
/// out-neighbors first, then in-neighbors not already emitted (`both`
/// semantics, deduplicated through a hash set). Stops when `visit`
/// returns `false`.
fn merged_neighbors(
    dir: Dir,
    out: &[VertexId],
    inn: &[VertexId],
    visit: &mut impl FnMut(VertexId) -> bool,
) {
    let mut seen: HashSet<VertexId> = match dir {
        Dir::Both => out.iter().copied().collect(),
        Dir::Out | Dir::In => HashSet::new(),
    };
    for &n in out {
        if !visit(n) {
            return;
        }
    }
    for &n in inn {
        if matches!(dir, Dir::Both) && !seen.insert(n) {
            continue;
        }
        if !visit(n) {
            return;
        }
    }
}

/// Resolved handles for the executor's own metrics.
struct QueryMetrics {
    frontier_len: Histogram,
    pushdown_hits: Counter,
    hop_truncations: Counter,
    profiles: Counter,
    profile_spans: Counter,
    profile_cost: Histogram,
}

/// Per-request PROFILE state threaded through `run_plan_inner`: the
/// request's [`TraceContext`], the root span to parent hop spans under,
/// and a hop counter for span naming.
struct ProfileCtx<'a> {
    ctx: &'a TraceContext,
    root: u64,
    hop: Cell<usize>,
}

impl ProfileCtx<'_> {
    /// Opens the next `hop{i}` span under the root, tagged with the
    /// frontier size feeding the expansion.
    fn start_hop(&self, frontier: usize) -> Span<'_> {
        let i = self.hop.get();
        self.hop.set(i + 1);
        let mut span = self.ctx.start_span(&format!("hop{i}"), Some(self.root));
        span.set_attr("frontier", frontier as u64);
        span
    }
}

/// Executes plans against a graph store.
pub struct Executor {
    config: ExecutorConfig,
    metrics: Option<QueryMetrics>,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new(ExecutorConfig::default())
    }
}

impl Executor {
    /// Creates an executor with explicit limits.
    pub fn new(config: ExecutorConfig) -> Self {
        let metrics = config.metrics.as_ref().map(|registry| QueryMetrics {
            frontier_len: registry.histogram(names::QUERY_FRONTIER_LEN),
            pushdown_hits: registry.counter(names::QUERY_PUSHDOWN_HITS_TOTAL),
            hop_truncations: registry.counter(names::QUERY_HOP_TRUNCATIONS_TOTAL),
            profiles: registry.counter(names::QUERY_PROFILES_TOTAL),
            profile_spans: registry.counter(names::QUERY_PROFILE_SPANS_TOTAL),
            profile_cost: registry.histogram(names::QUERY_PROFILE_COST_LATENCY_NS),
        });
        Executor { config, metrics }
    }

    /// Parses, optimizes, and runs a textual query.
    pub fn run_text(&self, store: &dyn GraphStore, text: &str) -> Result<QueryResult, QueryError> {
        let query = crate::parser::parse(text)?;
        self.run(store, &query)
    }

    /// Optimizes and runs a parsed query.
    pub fn run(&self, store: &dyn GraphStore, query: &Query) -> Result<QueryResult, QueryError> {
        query.validate().map_err(QueryError::Invalid)?;
        self.run_plan(store, &optimize(query))
    }

    /// Parses, optimizes, and runs a textual query in PROFILE mode:
    /// alongside the result, returns a [`QueryProfile`] — the serializable
    /// span tree (root + one span per hop, with frontier sizes) and the
    /// request's full cost-attribution ledger.
    pub fn run_profiled_text(
        &self,
        store: &dyn GraphStore,
        text: &str,
    ) -> Result<(QueryResult, QueryProfile), QueryError> {
        let query = crate::parser::parse(text)?;
        query.validate().map_err(QueryError::Invalid)?;
        self.run_plan_profiled(store, &optimize(&query), text)
    }

    /// Runs an already-optimized plan in PROFILE mode; `label` becomes the
    /// profile's `query` field (and the slow-query log entry's name).
    pub fn run_plan_profiled(
        &self,
        store: &dyn GraphStore,
        plan: &Plan,
        label: &str,
    ) -> Result<(QueryResult, QueryProfile), QueryError> {
        let clock = self.config.clock.clone().unwrap_or_default();
        let ctx = TraceContext::new(clock);
        // Install the request ledger: every instrumented charge site the
        // plan touches (storage, cache, scans, WAL, admission, retries)
        // attributes to this request while the guard lives.
        let guard = ctx.ledger().install();
        let root = ctx.start_span("query", None);
        let pctx = ProfileCtx {
            ctx: &ctx,
            root: root.id(),
            hop: Cell::new(0),
        };
        let result = self.run_plan_inner(store, plan, Some(&pctx));
        root.finish();
        drop(guard);
        let result = result?;
        let cost = ctx.ledger().snapshot();
        let profile = QueryProfile {
            trace_id: ctx.trace_id(),
            query: label.to_string(),
            modelled_cost_ns: cost.modelled_cost_ns(),
            cost,
            spans: ctx.take_spans(),
        };
        if let Some(m) = &self.metrics {
            m.profiles.inc();
            m.profile_spans.add(profile.spans.len() as u64);
            m.profile_cost.record(profile.modelled_cost_ns);
        }
        if let Some(log) = &self.config.slow_log {
            log.offer(profile.clone());
        }
        Ok((result, profile))
    }

    /// Runs an already-optimized plan.
    pub fn run_plan(&self, store: &dyn GraphStore, plan: &Plan) -> Result<QueryResult, QueryError> {
        self.run_plan_inner(store, plan, None)
    }

    fn run_plan_inner(
        &self,
        store: &dyn GraphStore,
        plan: &Plan,
        profile: Option<&ProfileCtx<'_>>,
    ) -> Result<QueryResult, QueryError> {
        let need_paths = plan.steps.iter().any(|s| matches!(s, PlannedStep::Path));
        let mut traversers: Vec<Traverser> = Vec::new();
        for (i, step) in plan.steps.iter().enumerate() {
            match step {
                PlannedStep::Source(ids) => {
                    traversers = ids
                        .iter()
                        .map(|&id| Traverser::source(id, need_paths))
                        .collect();
                }
                PlannedStep::Expand { etype, dir, bound } => {
                    let span = profile.map(|p| p.start_hop(traversers.len()));
                    if self.config.batch {
                        // Count pushdown: a plan ending `…expand().count()`
                        // or `…expand().dedup().count()` aggregates inside
                        // the expansion and never materializes traversers.
                        let dedup = match &plan.steps[i + 1..] {
                            [PlannedStep::Count] => Some(false),
                            [PlannedStep::Dedup, PlannedStep::Count] => Some(true),
                            _ => None,
                        };
                        if let Some(dedup) = dedup {
                            let result =
                                self.expand_count(store, &traversers, *etype, *dir, *bound, dedup)?;
                            if let Some(mut span) = span {
                                span.set_attr("pushdown", 1);
                                if let QueryResult::Count(n) = &result {
                                    span.set_attr("emitted", *n);
                                }
                                span.finish();
                            }
                            return Ok(result);
                        }
                    }
                    traversers = self.expand(store, &traversers, *etype, *dir, *bound)?;
                    if let Some(mut span) = span {
                        span.set_attr("emitted", traversers.len() as u64);
                        span.finish();
                    }
                }
                PlannedStep::HasVertex => {
                    let mut kept = Vec::with_capacity(traversers.len());
                    for t in traversers {
                        if store.get_vertex(t.head)?.is_some() {
                            kept.push(t);
                        }
                    }
                    traversers = kept;
                }
                PlannedStep::Dedup => {
                    let mut seen: HashSet<VertexId> = HashSet::new();
                    traversers.retain(|t| seen.insert(t.head));
                }
                PlannedStep::Limit(n) => traversers.truncate(*n),
                PlannedStep::Order => traversers.sort_by_key(|t| t.head),
                PlannedStep::Count => return Ok(QueryResult::Count(traversers.len() as u64)),
                PlannedStep::Values => {
                    let mut out = Vec::with_capacity(traversers.len());
                    for t in &traversers {
                        out.push((t.head, store.get_vertex(t.head)?));
                    }
                    return Ok(QueryResult::Values(out));
                }
                PlannedStep::Path => {
                    return Ok(QueryResult::Paths(
                        traversers.iter().map(Traverser::full_path).collect(),
                    ))
                }
            }
        }
        Ok(QueryResult::Vertices(
            traversers.iter().map(|t| t.head).collect(),
        ))
    }

    /// Drives one expansion, feeding `(parent, neighbor)` pairs to `emit`
    /// in scalar order (traverser order; out-neighbors before
    /// in-neighbors). `emit` returns `false` to stop the whole expansion
    /// (pushed-down limit, budget abort). Fetches through one
    /// `neighbors_batch` sweep per direction in batched mode, or one
    /// `neighbors` call per traverser per direction in scalar mode.
    fn for_each_expansion(
        &self,
        store: &dyn GraphStore,
        traversers: &[Traverser],
        etype: EdgeType,
        dir: Dir,
        fanout: usize,
        emit: &mut dyn FnMut(&Traverser, VertexId) -> bool,
    ) -> Result<(), QueryError> {
        let wants_out = matches!(dir, Dir::Out | Dir::Both);
        let wants_in = matches!(dir, Dir::In | Dir::Both);
        let rev = reverse_etype(etype);
        if self.config.batch {
            let heads: Vec<VertexId> = traversers.iter().map(|t| t.head).collect();
            if let Some(m) = &self.metrics {
                m.frontier_len.record(heads.len() as u64);
            }
            let out_lists = if wants_out {
                Some(gather(store, &heads, etype, fanout)?)
            } else {
                None
            };
            let in_lists = if wants_in {
                Some(gather(store, &heads, rev, fanout)?)
            } else {
                None
            };
            for (i, t) in traversers.iter().enumerate() {
                let out = out_lists.as_ref().map_or(&[][..], |a| a.neighbors(i));
                let inn = in_lists.as_ref().map_or(&[][..], |a| a.neighbors(i));
                let mut go = true;
                merged_neighbors(dir, out, inn, &mut |n| {
                    go = emit(t, n);
                    go
                });
                if !go {
                    return Ok(());
                }
            }
        } else {
            for t in traversers {
                let out: Vec<VertexId> = if wants_out {
                    store
                        .neighbors(t.head, etype, fanout)?
                        .into_iter()
                        .map(|(n, _)| n)
                        .collect()
                } else {
                    Vec::new()
                };
                let inn: Vec<VertexId> = if wants_in {
                    store
                        .neighbors(t.head, rev, fanout)?
                        .into_iter()
                        .map(|(n, _)| n)
                        .collect()
                } else {
                    Vec::new()
                };
                let mut go = true;
                merged_neighbors(dir, &out, &inn, &mut |n| {
                    go = emit(t, n);
                    go
                });
                if !go {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    fn budget_error(&self) -> QueryError {
        QueryError::Invalid(format!(
            "traverser budget exceeded ({})",
            self.config.max_traversers
        ))
    }

    /// The effective per-hop emission cap: the plan's own bound tightened
    /// by the degraded-mode ceiling. Returns `(cap, ceiling_applies)`.
    fn hop_cap(&self, bound: Option<usize>) -> (usize, bool) {
        let cap = bound.unwrap_or(usize::MAX);
        match self.config.hop_cost_ceiling {
            Some(ceiling) if ceiling < cap => (ceiling, true),
            _ => (cap, false),
        }
    }

    /// Records one truncated expansion when the degraded-mode ceiling (not
    /// the plan's own bound) is what stopped it.
    fn note_truncation(&self, emitted: usize, cap: usize, ceiled: bool) {
        if ceiled && emitted >= cap {
            bg3_obs::span::charge(CostDim::HopsTruncated, 1);
            if let Some(m) = &self.metrics {
                m.hop_truncations.inc();
            }
        }
    }

    /// Materializing expansion: produces the next traverser generation.
    fn expand(
        &self,
        store: &dyn GraphStore,
        traversers: &[Traverser],
        etype: EdgeType,
        dir: Dir,
        bound: Option<usize>,
    ) -> Result<Vec<Traverser>, QueryError> {
        let (cap, ceiled) = self.hop_cap(bound);
        let fanout = self.config.default_fanout.min(cap);
        let mut next: Vec<Traverser> = Vec::new();
        let mut err: Option<QueryError> = None;
        self.for_each_expansion(store, traversers, etype, dir, fanout, &mut |t, n| {
            next.push(t.step_to(n));
            if next.len() >= cap {
                return false;
            }
            if next.len() > self.config.max_traversers {
                err = Some(self.budget_error());
                return false;
            }
            true
        })?;
        match err {
            Some(e) => Err(e),
            None => {
                self.note_truncation(next.len(), cap, ceiled);
                Ok(next)
            }
        }
    }

    /// Count pushdown: aggregates the expansion without materializing
    /// traversers. `dedup` counts distinct destination heads instead of
    /// emissions; cap and budget semantics match the materializing path
    /// exactly (both are pre-dedup).
    fn expand_count(
        &self,
        store: &dyn GraphStore,
        traversers: &[Traverser],
        etype: EdgeType,
        dir: Dir,
        bound: Option<usize>,
        dedup: bool,
    ) -> Result<QueryResult, QueryError> {
        if let Some(m) = &self.metrics {
            m.pushdown_hits.inc();
        }
        let (cap, ceiled) = self.hop_cap(bound);
        let fanout = self.config.default_fanout.min(cap);
        let mut emitted = 0usize;
        // Emitted heads, counted distinct by sort + dedup at the end.
        let mut heads: Vec<VertexId> = Vec::new();
        let mut err: Option<QueryError> = None;
        self.for_each_expansion(store, traversers, etype, dir, fanout, &mut |_, n| {
            emitted += 1;
            if dedup {
                heads.push(n);
            }
            if emitted >= cap {
                return false;
            }
            if emitted > self.config.max_traversers {
                err = Some(self.budget_error());
                return false;
            }
            true
        })?;
        if let Some(e) = err {
            return Err(e);
        }
        self.note_truncation(emitted, cap, ceiled);
        let count = if dedup {
            heads.sort_unstable();
            heads.dedup();
            heads.len()
        } else {
            emitted
        };
        Ok(QueryResult::Count(count as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bg3_graph::{Edge, EdgeType, MemGraph, Vertex};

    /// 1→{2,3}, 2→{4}, 3→{4,5}, plus reverse indexes, plus vertex props.
    fn graph() -> MemGraph {
        let g = MemGraph::new();
        for (s, d) in [(1u64, 2u64), (1, 3), (2, 4), (3, 4), (3, 5)] {
            g.insert_edge(&Edge::new(VertexId(s), EdgeType::FOLLOW, VertexId(d)))
                .unwrap();
            g.insert_edge(&Edge::new(
                VertexId(d),
                reverse_etype(EdgeType::FOLLOW),
                VertexId(s),
            ))
            .unwrap();
        }
        for v in 1..=5u64 {
            g.insert_vertex(&Vertex {
                id: VertexId(v),
                props: format!("user{v}").into_bytes(),
            })
            .unwrap();
        }
        g
    }

    fn run(text: &str) -> QueryResult {
        Executor::default().run_text(&graph(), text).unwrap()
    }

    #[test]
    fn both_unions_directions() {
        assert_eq!(
            run("g.V(3).both(follow).order()"),
            QueryResult::Vertices(vec![VertexId(1), VertexId(4), VertexId(5)])
        );
    }

    #[test]
    fn repeat_matches_manual_unrolling() {
        assert_eq!(
            run("g.V(1).repeat(out(follow), 2).dedup().order()"),
            run("g.V(1).out(follow).out(follow).dedup().order()"),
        );
    }

    #[test]
    fn has_vertex_filters_unregistered_heads() {
        // The fixture registers vertices 1..=5; edges also reach nothing
        // else, so add an edge to an unregistered vertex.
        let g = graph();
        g.insert_edge(&Edge::new(VertexId(1), EdgeType::FOLLOW, VertexId(99)))
            .unwrap();
        let exec = Executor::default();
        let all = exec.run_text(&g, "g.V(1).out(follow).order()").unwrap();
        assert_eq!(
            all,
            QueryResult::Vertices(vec![VertexId(2), VertexId(3), VertexId(99)])
        );
        let registered = exec
            .run_text(&g, "g.V(1).out(follow).has_vertex().order()")
            .unwrap();
        assert_eq!(
            registered,
            QueryResult::Vertices(vec![VertexId(2), VertexId(3)])
        );
    }

    #[test]
    fn out_and_count() {
        assert_eq!(run("g.V(1).out(follow).count()"), QueryResult::Count(2));
        assert_eq!(
            run("g.V(1).out(follow).out(follow).count()"),
            QueryResult::Count(3), // 2→4, 3→4, 3→5
        );
    }

    #[test]
    fn dedup_and_order() {
        assert_eq!(
            run("g.V(1).out(follow).out(follow).dedup().order()"),
            QueryResult::Vertices(vec![VertexId(4), VertexId(5)])
        );
    }

    #[test]
    fn in_uses_reverse_index() {
        assert_eq!(
            run("g.V(4).in(follow).order()"),
            QueryResult::Vertices(vec![VertexId(2), VertexId(3)])
        );
    }

    #[test]
    fn values_fetches_vertex_props() {
        let QueryResult::Values(vals) = run("g.V(1).out(follow).order().values()") else {
            panic!("expected values");
        };
        assert_eq!(
            vals,
            vec![
                (VertexId(2), Some(b"user2".to_vec())),
                (VertexId(3), Some(b"user3".to_vec())),
            ]
        );
    }

    #[test]
    fn paths_are_complete() {
        let QueryResult::Paths(mut paths) = run("g.V(1).out(follow).out(follow).path()") else {
            panic!("expected paths");
        };
        paths.sort();
        assert_eq!(
            paths,
            vec![
                vec![VertexId(1), VertexId(2), VertexId(4)],
                vec![VertexId(1), VertexId(3), VertexId(4)],
                vec![VertexId(1), VertexId(3), VertexId(5)],
            ]
        );
    }

    #[test]
    fn pushed_down_limit_bounds_expansion_io() {
        // A super-vertex with 1000 out-edges; limit(3) must not fetch them
        // all. MemGraph can't count fetches directly, but the bound also
        // shows in the result size and in not exceeding max_traversers.
        let g = MemGraph::new();
        for d in 0..1000u64 {
            g.insert_edge(&Edge::new(VertexId(1), EdgeType::LIKE, VertexId(d)))
                .unwrap();
        }
        let exec = Executor::new(ExecutorConfig {
            default_fanout: 100,
            max_traversers: 10, // would abort an unbounded expansion
            ..ExecutorConfig::default()
        });
        let result = exec.run_text(&g, "g.V(1).out(like).limit(3)").unwrap();
        assert_eq!(
            result,
            QueryResult::Vertices(vec![VertexId(0), VertexId(1), VertexId(2)])
        );
        // Without the pushdown (dedup in between), the same budget aborts.
        let err = exec.run_text(&g, "g.V(1).out(like).dedup().limit(3)");
        assert!(err.is_err(), "unbounded expansion exceeds the budget");
    }

    #[test]
    fn empty_source_yields_empty_results() {
        assert_eq!(run("g.V().out(follow).count()"), QueryResult::Count(0));
        assert_eq!(run("g.V()"), QueryResult::Vertices(vec![]));
    }

    #[test]
    fn non_terminal_query_returns_heads() {
        assert_eq!(
            run("g.V(2).out(follow)"),
            QueryResult::Vertices(vec![VertexId(4)])
        );
    }

    #[test]
    fn fanout_guard_caps_unbounded_expansions() {
        let g = MemGraph::new();
        for d in 0..500u64 {
            g.insert_edge(&Edge::new(VertexId(1), EdgeType::LIKE, VertexId(d)))
                .unwrap();
        }
        let exec = Executor::new(ExecutorConfig {
            default_fanout: 50,
            ..ExecutorConfig::default()
        });
        let QueryResult::Count(n) = exec.run_text(&g, "g.V(1).out(like).count()").unwrap() else {
            panic!()
        };
        assert_eq!(n, 50, "default fanout guard applied");
    }

    #[test]
    fn scalar_and_batched_agree_on_fixture_queries() {
        let g = graph();
        let batched = Executor::default();
        let scalar = Executor::new(ExecutorConfig::default().scalar());
        for q in [
            "g.V(1).out(follow)",
            "g.V(1).out(follow).count()",
            "g.V(1).out(follow).out(follow).count()",
            "g.V(1).out(follow).out(follow).dedup().count()",
            "g.V(3).both(follow).order()",
            "g.V(3).both(follow).count()",
            "g.V(4).in(follow).order()",
            "g.V(1).repeat(out(follow), 2).path()",
            "g.V(1).out(follow).limit(1)",
            "g.V(1).out(follow).order().values()",
            "g.V().out(follow).count()",
        ] {
            assert_eq!(
                batched.run_text(&g, q).unwrap(),
                scalar.run_text(&g, q).unwrap(),
                "query {q:?}"
            );
        }
    }

    #[test]
    fn count_pushdown_skips_materialization_and_counts_hits() {
        let g = graph();
        let registry = MetricRegistry::new();
        let exec = Executor::new(ExecutorConfig::default().with_metrics(registry.clone()));
        assert_eq!(
            exec.run_text(&g, "g.V(1).out(follow).out(follow).count()")
                .unwrap(),
            QueryResult::Count(3)
        );
        assert_eq!(
            exec.run_text(&g, "g.V(1).out(follow).out(follow).dedup().count()")
                .unwrap(),
            QueryResult::Count(2)
        );
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter(names::QUERY_PUSHDOWN_HITS_TOTAL),
            Some(2),
            "each terminal count() aggregated inside the expansion"
        );
        // The frontier histogram saw every batched expansion (two per
        // query: hop 1 materializes, hop 2 is the pushdown).
        let hist = snap.histogram(names::QUERY_FRONTIER_LEN).unwrap();
        assert_eq!(hist.count, 4);

        // The scalar path records no pushdown hits.
        let scalar_registry = MetricRegistry::new();
        let scalar = Executor::new(
            ExecutorConfig::default()
                .scalar()
                .with_metrics(scalar_registry.clone()),
        );
        assert_eq!(
            scalar.run_text(&g, "g.V(1).out(follow).count()").unwrap(),
            QueryResult::Count(2)
        );
        assert_eq!(
            scalar_registry
                .snapshot()
                .counter(names::QUERY_PUSHDOWN_HITS_TOTAL),
            Some(0)
        );
    }

    #[test]
    fn count_pushdown_keeps_budget_semantics() {
        let g = MemGraph::new();
        for d in 0..1000u64 {
            g.insert_edge(&Edge::new(VertexId(1), EdgeType::LIKE, VertexId(d)))
                .unwrap();
        }
        let tight = ExecutorConfig {
            default_fanout: 1000,
            max_traversers: 10,
            ..ExecutorConfig::default()
        };
        let batched = Executor::new(tight.clone());
        let scalar = Executor::new(tight.scalar());
        let b = batched.run_text(&g, "g.V(1).out(like).count()");
        let s = scalar.run_text(&g, "g.V(1).out(like).count()");
        assert!(b.is_err() && s.is_err(), "both modes abort on budget");
        assert_eq!(format!("{:?}", b), format!("{:?}", s));
    }

    #[test]
    fn hop_cost_ceiling_truncates_instead_of_aborting() {
        let g = MemGraph::new();
        for d in 0..500u64 {
            g.insert_edge(&Edge::new(VertexId(1), EdgeType::LIKE, VertexId(d)))
                .unwrap();
        }
        let registry = MetricRegistry::new();
        let degraded = Executor::new(
            ExecutorConfig {
                default_fanout: 1000,
                ..ExecutorConfig::default()
            }
            .with_hop_cost_ceiling(25)
            .with_metrics(registry.clone()),
        );
        // Materializing path truncates at the ceiling.
        let QueryResult::Vertices(heads) = degraded.run_text(&g, "g.V(1).out(like)").unwrap()
        else {
            panic!("expected vertices");
        };
        assert_eq!(heads.len(), 25);
        // Count pushdown truncates identically.
        assert_eq!(
            degraded.run_text(&g, "g.V(1).out(like).count()").unwrap(),
            QueryResult::Count(25)
        );
        assert_eq!(
            registry
                .snapshot()
                .counter(names::QUERY_HOP_TRUNCATIONS_TOTAL),
            Some(2),
            "both truncated expansions counted"
        );
        // A plan bound tighter than the ceiling is the plan's own limit,
        // not a degradation truncation.
        let before = registry
            .snapshot()
            .counter(names::QUERY_HOP_TRUNCATIONS_TOTAL);
        let QueryResult::Vertices(few) =
            degraded.run_text(&g, "g.V(1).out(like).limit(3)").unwrap()
        else {
            panic!("expected vertices");
        };
        assert_eq!(few.len(), 3);
        assert_eq!(
            registry
                .snapshot()
                .counter(names::QUERY_HOP_TRUNCATIONS_TOTAL),
            before,
            "plan-bound stops are not truncations"
        );
        // Scalar mode honors the same ceiling.
        let scalar = Executor::new(
            ExecutorConfig {
                default_fanout: 1000,
                ..ExecutorConfig::default()
            }
            .scalar()
            .with_hop_cost_ceiling(25),
        );
        assert_eq!(
            scalar.run_text(&g, "g.V(1).out(like).count()").unwrap(),
            QueryResult::Count(25)
        );
    }

    fn assert_hop_tree(profile: &QueryProfile, hops: usize, first_frontier: u64) {
        let root = profile.root().expect("root span recorded");
        assert_eq!(root.name, "query");
        let hop_spans = profile.hop_spans();
        assert_eq!(hop_spans.len(), hops, "one span per hop");
        for (i, span) in hop_spans.iter().enumerate() {
            assert_eq!(span.name, format!("hop{i}"));
            assert_eq!(span.parent, Some(root.id));
            assert!(
                span.attrs.iter().any(|a| a.key == "frontier"),
                "hop spans carry frontier sizes"
            );
        }
        assert_eq!(
            hop_spans[0]
                .attrs
                .iter()
                .find(|a| a.key == "frontier")
                .unwrap()
                .value,
            first_frontier
        );
    }

    #[test]
    fn profile_records_per_hop_span_tree_in_both_modes() {
        let g = graph();
        for config in [
            ExecutorConfig::default(),
            ExecutorConfig::default().scalar(),
        ] {
            let registry = MetricRegistry::new();
            let exec = Executor::new(config.clone().with_metrics(registry.clone()));
            let (result, profile) = exec
                .run_profiled_text(&g, "g.V(1).out(follow).out(follow).dedup().order()")
                .unwrap();
            assert_eq!(
                result,
                QueryResult::Vertices(vec![VertexId(4), VertexId(5)]),
                "profiling must not change results (batch={})",
                config.batch
            );
            assert_hop_tree(&profile, 2, 1);
            let emitted: Vec<u64> = profile
                .hop_spans()
                .iter()
                .map(|s| s.attrs.iter().find(|a| a.key == "emitted").unwrap().value)
                .collect();
            assert_eq!(emitted, vec![2, 3], "1→{{2,3}}, then {{2,3}}→{{4,4,5}}");
            let snap = registry.snapshot();
            assert_eq!(snap.counter(names::QUERY_PROFILES_TOTAL), Some(1));
            assert_eq!(
                snap.counter(names::QUERY_PROFILE_SPANS_TOTAL),
                Some(3),
                "root + two hops"
            );
            assert_eq!(
                snap.histogram(names::QUERY_PROFILE_COST_LATENCY_NS)
                    .unwrap()
                    .count,
                1
            );
        }
    }

    #[test]
    fn profile_marks_pushdown_hops() {
        let g = graph();
        let (result, profile) = Executor::default()
            .run_profiled_text(&g, "g.V(1).out(follow).out(follow).count()")
            .unwrap();
        assert_eq!(result, QueryResult::Count(3));
        assert_hop_tree(&profile, 2, 1);
        let last = profile.hop_spans()[1].clone();
        assert!(last
            .attrs
            .iter()
            .any(|a| a.key == "pushdown" && a.value == 1));
        assert!(last
            .attrs
            .iter()
            .any(|a| a.key == "emitted" && a.value == 3));
    }

    #[test]
    fn profile_feeds_slow_query_log_worst_first() {
        let g = graph();
        let log = SlowQueryLog::new(2);
        let exec = Executor::new(ExecutorConfig::default().with_slow_log(log.clone()));
        for q in [
            "g.V(1).out(follow)",
            "g.V(1).out(follow).out(follow)",
            "g.V(2).out(follow)",
        ] {
            exec.run_profiled_text(&g, q).unwrap();
        }
        assert_eq!(log.recorded(), 3);
        let entries = log.entries();
        assert_eq!(entries.len(), 2, "keep-K-worst");
        assert!(
            entries
                .windows(2)
                .all(|w| w[0].modelled_cost_ns >= w[1].modelled_cost_ns),
            "costliest first"
        );
        // Unprofiled runs are never offered.
        exec.run_text(&g, "g.V(1).out(follow)").unwrap();
        assert_eq!(log.recorded(), 3);
    }

    #[test]
    fn profile_span_times_use_injected_clock() {
        let g = graph();
        let tick = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let t = Arc::clone(&tick);
        let exec = Executor::new(ExecutorConfig::default().with_clock(VirtualClock::new(
            move || t.fetch_add(100, std::sync::atomic::Ordering::Relaxed),
        )));
        let (_, profile) = exec.run_profiled_text(&g, "g.V(1).out(follow)").unwrap();
        let root = profile.root().unwrap();
        assert!(root.end_nanos > root.start_nanos);
        for hop in profile.hop_spans() {
            assert!(hop.start_nanos >= root.start_nanos);
            assert!(hop.end_nanos <= root.end_nanos);
        }
    }

    #[test]
    fn paths_share_parent_trails() {
        // 1 → {2,3} → … fan-out: both hop-2 traversers through vertex 3
        // must share vertex 3's trail node rather than own path clones.
        let g = graph();
        let QueryResult::Paths(mut paths) = Executor::default()
            .run_text(&g, "g.V(1).out(follow).out(follow).path()")
            .unwrap()
        else {
            panic!("expected paths");
        };
        paths.sort();
        assert_eq!(paths.len(), 3);
        assert!(paths.iter().all(|p| p[0] == VertexId(1)));
    }
}
