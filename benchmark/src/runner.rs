//! Runs one workload against the product: durable `Bg3Db` on the file
//! backend, driven through `GraphStore`, `EngineRuntime`, the query
//! executor and the pattern matcher by one closed-loop client.
//!
//! One *round* is: open a fresh store in a tempdir, load the seeded graph
//! and checkpoint (timed: `setup_s`), run the frozen op stream (timed per
//! op), kill the engine by dropping it, reopen the store from its files,
//! recover (timed: `recover_s`) and re-read every acknowledged edge. A run
//! repeats the identical round several times so that timings can be
//! reported as medians; counts repeat exactly from round to round.

use crate::trace::{Name, TracedBackend, TracedStore, Tracer};
use crate::workload::{self, Op, Workload};
use bg3_core::prelude::*;
use bg3_forest::ForestStatsSnapshot;
use bg3_graph::{CycleQuery, MemGraph, PatternMatcher};
use bg3_query::{Executor, ExecutorConfig, QueryResult};
use bg3_storage::{SharedMappingTable, StreamId, StreamStats};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Per-hop fan-out of the k-hop queries: deep hops over a power-law graph
/// explode under the executor default of 100, so it is bounded the way a
/// production gateway would.
pub const KHOP_FANOUT: usize = 32;

/// Expansion budget of one cycle query — the latency bound a real-time
/// risk-control client sets. The matcher's default of 100 000 makes a few
/// ~100 ms queries decide a whole run; at 2 000 a query costs at most a few
/// milliseconds and a round runs thousands of them.
const CYCLE_EXPANSIONS: usize = 2_000;

/// What an op returned, reduced to what the checker compares.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Answer {
    Done,
    Neighbors(Vec<(VertexId, Vec<u8>)>),
    Count(u64),
    Edge(Option<Vec<u8>>),
    Cycle(bool),
}

impl Answer {
    /// 64-bit digest of the answer. The oracle pass stores one digest per
    /// op instead of the answers themselves. `DefaultHasher::new()` has
    /// fixed keys, so oracle and engine digests agree within a process.
    pub fn digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut hasher);
        hasher.finish()
    }
}

/// Whether the engine's answer is the oracle's.
pub fn answer_matches(expected_digest: u64, got: &Answer) -> bool {
    got.digest() == expected_digest
}

/// The layers above the store that ops go through.
pub struct Client {
    executor: Executor,
    matcher: PatternMatcher,
    etype: EdgeType,
}

impl Client {
    pub fn new(workload: Workload, metrics: Option<bg3_storage::MetricRegistry>) -> Client {
        let mut config = ExecutorConfig {
            default_fanout: KHOP_FANOUT,
            max_traversers: 1_000_000,
            ..ExecutorConfig::default()
        };
        config.metrics = metrics;
        Client {
            executor: Executor::new(config),
            matcher: PatternMatcher {
                max_expansions: CYCLE_EXPANSIONS,
                ..PatternMatcher::default()
            },
            etype: workload.etype(),
        }
    }

    /// Executes one op against any store — the engine or the oracle.
    pub fn execute(&self, store: &dyn GraphStore, op: &Op) -> Result<Answer, String> {
        let fail = |e: StorageError| e.to_string();
        Ok(match op {
            Op::Neighbors { src } => Answer::Neighbors(
                store
                    .neighbors(*src, self.etype, workload::NEIGHBOR_LIMIT)
                    .map_err(fail)?,
            ),
            Op::Insert(edge) => {
                store.insert_edge(edge).map_err(fail)?;
                Answer::Done
            }
            Op::KHop { text } => match self.executor.run_text(store, text) {
                Ok(QueryResult::Count(n)) => Answer::Count(n),
                Ok(other) => return Err(format!("k-hop query returned {other:?}")),
                Err(e) => return Err(e.to_string()),
            },
            Op::GetEdge { src, dst } => {
                Answer::Edge(store.get_edge(*src, self.etype, *dst).map_err(fail)?)
            }
            Op::Cycle { anchor, length } => {
                let query = CycleQuery {
                    etype: self.etype,
                    length: *length,
                };
                Answer::Cycle(
                    self.matcher
                        .has_cycle(store, query, *anchor)
                        .map_err(fail)?,
                )
            }
        })
    }
}

/// Everything a run derives from `--seed` before any timing starts.
pub struct Inputs {
    pub workload: Workload,
    pub graph: Vec<Edge>,
    pub ops: Vec<Op>,
    /// Oracle digest per op.
    pub expected: Vec<u64>,
    /// The oracle's final edge set: every acknowledged edge, last write
    /// wins. Re-read after recovery.
    pub final_edges: BTreeMap<(u64, u64), Vec<u8>>,
    /// Time spent generating the graph and the ops.
    pub gen_ns: u64,
    /// Time spent computing the expected answers.
    pub oracle_ns: u64,
    /// Σ `user_bytes` over the load and every insert of the op stream.
    pub user_bytes: u64,
}

impl Inputs {
    /// Generates the inputs and runs the op stream through `MemGraph`, the
    /// reference implementation, to get the expected answer of every op.
    pub fn generate(workload: Workload, seed: u64, n_ops: usize) -> Result<Inputs, String> {
        let started = Instant::now();
        let graph = workload::graph(workload.etype());
        let ops = workload::ops(workload, seed, n_ops, &graph);
        let gen_ns = started.elapsed().as_nanos() as u64;

        let started = Instant::now();
        let oracle = MemGraph::new();
        let mut final_edges = BTreeMap::new();
        let mut user_bytes = 0;
        let mut mirror = |edge: &Edge| {
            final_edges.insert((edge.src.0, edge.dst.0), edge.props.clone());
            user_bytes += workload::user_bytes(edge);
        };
        for edge in &graph {
            oracle.insert_edge(edge).map_err(|e| e.to_string())?;
            mirror(edge);
        }
        let client = Client::new(workload, None);
        let mut expected = Vec::with_capacity(ops.len());
        for op in &ops {
            expected.push(client.execute(&oracle, op)?.digest());
            if let Op::Insert(edge) = op {
                mirror(edge);
            }
        }
        Ok(Inputs {
            workload,
            graph,
            ops,
            expected,
            final_edges,
            gen_ns,
            oracle_ns: started.elapsed().as_nanos() as u64,
            user_bytes,
        })
    }
}

/// The engine configuration under test: defaults plus durability (WAL
/// fsync on every append, group commit at 16 dirty pages) on the file
/// backend. Only what a workload's definition names is changed.
pub fn engine_config(workload: Workload, root: &std::path::Path) -> Bg3Config {
    let mut config = Bg3Config::default()
        .with_durability()
        .with_backend(BackendKind::File {
            root: root.to_path_buf(),
        });
    match workload {
        Workload::RiskMixed => config = config.with_ttl_nanos(Some(workload::RISK_TTL_NANOS)),
        Workload::LookupCold => {
            config = config.with_cache_capacity(workload::COLD_CACHE_BYTES);
            config.forest.tree_config = config.forest.tree_config.clone().with_read_cache(false);
        }
        Workload::FollowHot | Workload::RecoKhop => {}
    }
    config
}

/// Counters read before and after a phase; metrics are their differences.
#[derive(Debug, Clone, Default)]
pub struct Snap {
    pub metrics: MetricsSnapshot,
    pub cache: CacheStatsSnapshot,
    pub forest: ForestStatsSnapshot,
    pub trees: bg3_bwtree::BwTreeStatsSnapshot,
    /// BASE, DELTA, WAL.
    pub streams: [StreamStats; 3],
    pub used_bytes: u64,
    pub mapping_len: u64,
}

pub const STREAMS: [StreamId; 3] = [StreamId::BASE, StreamId::DELTA, StreamId::WAL];

impl Snap {
    pub fn take(db: &Bg3Db) -> Snap {
        let mut trees = bg3_bwtree::BwTreeStatsSnapshot::default();
        for tree in db.forest().all_trees() {
            let s = tree.stats().snapshot();
            trees.writes += s.writes;
            trees.reads += s.reads;
            trees.delta_flushes += s.delta_flushes;
            trees.base_flushes += s.base_flushes;
            trees.delta_merges += s.delta_merges;
            trees.consolidations += s.consolidations;
            trees.splits += s.splits;
            trees.cold_reads += s.cold_reads;
            trees.cold_read_ios += s.cold_read_ios;
        }
        Snap {
            metrics: db.metrics_snapshot(),
            cache: db.cache_snapshot(),
            forest: db.forest().stats(),
            trees,
            streams: STREAMS.map(|s| db.store().stream_stats(s).unwrap_or_default()),
            used_bytes: db.store().total_used_bytes(),
            mapping_len: db.mapping().map_or(0, |m| m.snapshot().len() as u64),
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counter(name).unwrap_or(0)
    }
}

/// Difference of one registry counter between two snapshots.
pub fn delta(before: &Snap, after: &Snap, name: &str) -> u64 {
    after.counter(name).saturating_sub(before.counter(name))
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    pub setup_s: f64,
    /// Ack latency of every load insert.
    pub setup_write_ns: Vec<u64>,
    /// Latency of every non-mutating op of the measured phase.
    pub read_ns: Vec<u64>,
    /// Ack latency of every `insert_edge` of the measured phase.
    pub write_ns: Vec<u64>,
    /// Every `run_maintenance` call of the measured phase.
    pub maintenance_ns: Vec<u64>,
    pub reclaimed_extents: u64,
    pub moved_bytes: u64,
    /// Σ op latencies + maintenance: the time the engine was busy.
    pub busy_ns: u64,
    pub ops_done: usize,
    pub recover_ns: u64,
    /// Ops attempted plus edges re-read after recovery.
    pub attempted: u64,
    /// Errors + wrong answers + acknowledged edges missing after recovery.
    pub failed: u64,
    pub at_open: Snap,
    pub at_loaded: Snap,
    pub at_end: Snap,
    pub after_recover: Snap,
}

impl Round {
    /// Reopen + `recover` until the first read was served.
    pub fn recover_s(&self) -> f64 {
        self.recover_ns as f64 / 1e9
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops_done as f64 / (self.busy_ns as f64 / 1e9)
    }

    /// Bytes appended to every stream since open ÷ user bytes inserted.
    pub fn write_amp(&self, user_bytes: u64) -> f64 {
        let name = obs::names::STORAGE_BYTES_APPENDED_TOTAL;
        delta(&self.at_open, &self.at_end, name) as f64 / user_bytes as f64
    }

    /// Bytes occupied at the end ÷ user bytes inserted.
    pub fn space_amp(&self, user_bytes: u64) -> f64 {
        self.at_end.used_bytes as f64 / user_bytes as f64
    }
}

/// Tracing hooks of the traced round; `None` in every measured run.
pub struct Tracing {
    pub tracer: Arc<Tracer>,
    pub backend: Option<Arc<TracedBackend>>,
    /// Every engine call of the measured phase, in order.
    pub log: Vec<crate::replay::Call>,
}

impl Tracing {
    pub fn new() -> Tracing {
        Tracing {
            tracer: Tracer::new(),
            backend: None,
            log: Vec::new(),
        }
    }
}

fn open_engine(
    workload: Workload,
    root: &std::path::Path,
    tracing: Option<&mut Tracing>,
) -> Result<(Bg3Db, Bg3Config), String> {
    let config = engine_config(workload, root);
    let mut builder = StoreBuilder::from_config(config.store.clone());
    if let Some(tracing) = tracing {
        let file = config.store.backend.create().map_err(|e| e.to_string())?;
        let traced = TracedBackend::new(file, Arc::clone(&tracing.tracer));
        tracing.backend = Some(Arc::clone(&traced));
        builder = builder.backend(traced);
    }
    let store = builder.open().map_err(|e| format!("open store: {e}"))?;
    Ok((
        <Bg3Db as GraphEngine>::with_store(store, config.clone()),
        config,
    ))
}

fn client_name(op: &Op) -> Name {
    match op {
        Op::Neighbors { .. } => Name::ClientNeighbors,
        Op::Insert(_) => Name::ClientInsert,
        Op::KHop { .. } => Name::ClientKhop,
        Op::GetEdge { .. } => Name::ClientGetEdge,
        Op::Cycle { .. } => Name::ClientCycle,
    }
}

/// Errors printed in full before the rest are only counted.
const ERRORS_SHOWN: u64 = 5;

/// Runs one round. `label` keeps tempdirs of concurrent rounds apart;
/// `deadline` is when the measured phase must stop even if ops remain.
pub fn run_round(
    inputs: &Inputs,
    label: &str,
    mut tracing: Option<&mut Tracing>,
    deadline: Instant,
) -> Result<Round, String> {
    let workload = inputs.workload;
    let dir = crate::tempdir::TempDir::new(&format!("{}-{label}", workload.name()))
        .map_err(|e| format!("create tempdir: {e}"))?;
    let mut round = Round::default();
    let advance_clock = workload == Workload::RiskMixed;

    // Set-up: open + load + checkpoint. This is durable bulk ingest.
    let started = Instant::now();
    let (db, config) = open_engine(workload, dir.path(), tracing.as_deref_mut())?;
    round.at_open = Snap::take(&db);
    round.setup_write_ns.reserve(inputs.graph.len());
    for (i, edge) in inputs.graph.iter().enumerate() {
        if advance_clock {
            db.store().clock().advance_nanos(workload::SIM_NANOS_PER_OP);
        }
        let t = Instant::now();
        db.insert_edge(edge)
            .map_err(|e| format!("set-up insert {i} of {}: {e}", inputs.graph.len()))?;
        round.setup_write_ns.push(t.elapsed().as_nanos() as u64);
    }
    db.checkpoint()
        .map_err(|e| format!("set-up checkpoint: {e}"))?;
    round.setup_s = started.elapsed().as_secs_f64();
    round.at_loaded = Snap::take(&db);

    // Measured phase.
    let tracer = tracing.as_deref().map(|t| Arc::clone(&t.tracer));
    if let Some(backend) = tracing.as_deref().and_then(|t| t.backend.as_ref()) {
        backend.set_recording(true);
    }
    let registry = db.store().stats().registry().clone();
    let client = Client::new(workload, Some(registry));
    let traced_store = TracedStore::new(&db, tracer.clone());
    let store: &dyn GraphStore = match tracer {
        Some(_) => &traced_store,
        None => &db,
    };
    for (i, op) in inputs.ops.iter().enumerate() {
        if advance_clock {
            db.store().clock().advance_nanos(workload::SIM_NANOS_PER_OP);
        }
        let root = tracer.as_ref().map(|t| t.begin(client_name(op)));
        let t = Instant::now();
        let result = client.execute(store, op);
        let nanos = t.elapsed().as_nanos() as u64;
        if let (Some(tracer), Some(root)) = (&tracer, root) {
            tracer.end(root);
        }
        round.busy_ns += nanos;
        round.ops_done += 1;
        if op.is_write() {
            round.write_ns.push(nanos);
        } else {
            round.read_ns.push(nanos);
        }
        let ok = match &result {
            Ok(answer) => answer_matches(inputs.expected[i], answer),
            Err(_) => false,
        };
        if !ok {
            round.failed += 1;
            if round.failed <= ERRORS_SHOWN {
                eprintln!("op {i} ({}) failed: {result:?}", op.kind());
            }
        }
        if advance_clock && (i + 1) % workload::MAINTENANCE_EVERY == 0 {
            let t = Instant::now();
            let report = match &tracer {
                Some(tracer) => tracer.span(Name::ClientMaintenance, || {
                    tracer.span(Name::Maintenance, || {
                        db.run_maintenance(workload::MAINTENANCE_BUDGET)
                    })
                }),
                None => db.run_maintenance(workload::MAINTENANCE_BUDGET),
            };
            let nanos = t.elapsed().as_nanos() as u64;
            round.busy_ns += nanos;
            round.maintenance_ns.push(nanos);
            match report {
                Ok(report) => {
                    round.reclaimed_extents += report.reclaimed_extents;
                    round.moved_bytes += report.moved_bytes;
                }
                Err(e) => {
                    round.failed += 1;
                    eprintln!("maintenance after op {i} failed: {e}");
                }
            }
        }
        if i % 1024 == 0 && Instant::now() > deadline {
            eprintln!(
                "warning: {} stopped at op {i} of {}: out of time",
                workload.name(),
                inputs.ops.len()
            );
            break;
        }
    }
    round.attempted = round.ops_done as u64;
    round.at_end = Snap::take(&db);
    if let Some(tracing) = tracing.as_deref_mut() {
        tracing.log = traced_store.take_log();
        if let Some(backend) = &tracing.backend {
            backend.set_recording(false);
        }
    }

    // Kill by drop: only the files and the mapping service survive.
    let mapping: SharedMappingTable = db
        .mapping()
        .expect("durable engine has a mapping table")
        .clone();
    drop(db);
    let recover = || -> Result<Bg3Db, String> {
        let store = StoreBuilder::from_config(config.store.clone())
            .open()
            .map_err(|e| format!("reopen store: {e}"))?;
        let db = Bg3Db::recover(store, mapping, config).map_err(|e| format!("recover: {e}"))?;
        let first = &inputs.graph[0];
        db.get_edge(first.src, first.etype, first.dst)
            .map_err(|e| format!("first read after recover: {e}"))?;
        Ok(db)
    };
    let started = Instant::now();
    let db = match tracing.as_deref() {
        Some(t) => t.tracer.span(Name::ClientRecover, || {
            t.tracer.span(Name::Recover, recover)
        }),
        None => recover(),
    }?;
    round.recover_ns = started.elapsed().as_nanos() as u64;
    round.after_recover = Snap::take(&db);

    // Every acknowledged edge must still be there, with its last value.
    let etype = workload.etype();
    if round.ops_done == inputs.ops.len() {
        for (&(src, dst), props) in &inputs.final_edges {
            round.attempted += 1;
            match db.get_edge(VertexId(src), etype, VertexId(dst)) {
                Ok(Some(got)) if &got == props => {}
                other => {
                    round.failed += 1;
                    if round.failed <= ERRORS_SHOWN {
                        eprintln!("edge {src}->{dst} after recovery: {other:?}");
                    }
                }
            }
        }
    }
    Ok(round)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_answer_is_caught() {
        let right = Answer::Neighbors(vec![(VertexId(3), vec![0, 1]), (VertexId(9), vec![])]);
        let expected = right.digest();
        assert!(answer_matches(expected, &right));
        // A missing neighbour, a changed property, a different verdict.
        let missing = Answer::Neighbors(vec![(VertexId(3), vec![0, 1])]);
        assert!(!answer_matches(expected, &missing));
        let altered = Answer::Neighbors(vec![(VertexId(3), vec![0, 2]), (VertexId(9), vec![])]);
        assert!(!answer_matches(expected, &altered));
        assert!(!answer_matches(
            Answer::Cycle(true).digest(),
            &Answer::Cycle(false)
        ));
        assert!(!answer_matches(
            Answer::Edge(Some(vec![7])).digest(),
            &Answer::Edge(None)
        ));
        assert!(!answer_matches(
            Answer::Count(10).digest(),
            &Answer::Count(11)
        ));
    }

    #[test]
    fn the_checker_catches_an_engine_that_drops_a_write() {
        // An "engine" that acknowledges inserts without storing them.
        struct Forgetful(MemGraph);
        impl GraphStore for Forgetful {
            fn insert_edge(&self, _: &Edge) -> StorageResult<()> {
                Ok(())
            }
            fn get_edge(
                &self,
                s: VertexId,
                t: EdgeType,
                d: VertexId,
            ) -> StorageResult<Option<Vec<u8>>> {
                self.0.get_edge(s, t, d)
            }
            fn delete_edge(&self, s: VertexId, t: EdgeType, d: VertexId) -> StorageResult<()> {
                self.0.delete_edge(s, t, d)
            }
            fn neighbors(
                &self,
                s: VertexId,
                t: EdgeType,
                l: usize,
            ) -> StorageResult<Vec<(VertexId, Vec<u8>)>> {
                self.0.neighbors(s, t, l)
            }
            fn insert_vertex(&self, v: &Vertex) -> StorageResult<()> {
                self.0.insert_vertex(v)
            }
            fn get_vertex(&self, id: VertexId) -> StorageResult<Option<Vec<u8>>> {
                self.0.get_vertex(id)
            }
        }
        let inputs = Inputs::generate(Workload::RiskMixed, 3, 400).unwrap();
        let engine = Forgetful(MemGraph::new());
        for edge in &inputs.graph {
            engine.0.insert_edge(edge).unwrap();
        }
        let client = Client::new(Workload::RiskMixed, None);
        let wrong = inputs
            .ops
            .iter()
            .zip(&inputs.expected)
            .filter(|(op, &want)| !answer_matches(want, &client.execute(&engine, op).unwrap()))
            .count();
        assert!(wrong > 0, "reads of the dropped writes must mismatch");
    }

    #[test]
    fn one_round_of_every_workload_is_correct() {
        let deadline = Instant::now() + std::time::Duration::from_secs(120);
        for workload in Workload::ALL {
            let inputs = Inputs::generate(workload, 11, 600).unwrap();
            let round = run_round(&inputs, "unit", None, deadline).unwrap();
            assert_eq!(round.failed, 0, "{}", workload.name());
            assert_eq!(round.ops_done, 600);
            assert!(round.attempted > 600, "edges re-read after recovery");
            assert!(round.write_amp(inputs.user_bytes) > 1.0);
        }
    }
}
