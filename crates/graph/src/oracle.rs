//! The one reference model the chaos harnesses audit an engine against.
//!
//! A harness submits each [`Mutation`] to the engine and mirrors the
//! outcome into an [`Oracle`]: an acknowledged write is [`Oracle::ack`]ed,
//! a write a crash interrupted or that returned an error is
//! [`Oracle::in_flight`], and a write that must never become visible (a
//! fenced zombie's) is [`Oracle::forbid`]den. After recovery,
//! [`Oracle::settle`] resolves each in-flight write on its own: it must be
//! wholly present or wholly absent, and the oracle adopts whichever the
//! engine shows. [`Oracle::audit`] then reads
//! the engine the way the harness chooses ([`Reads`]) and counts the three
//! kinds of fault in an [`Audit`].

use crate::model::{Edge, EdgeType, Vertex, VertexId};
use crate::store::GraphStore;
use bg3_storage::StorageResult;
use std::collections::{BTreeMap, BTreeSet};

/// An edge named by its source, type and destination.
pub type EdgeKey = (VertexId, EdgeType, VertexId);

/// One graph write, as a harness submits it to the engine and the oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// Insert or overwrite an edge.
    InsertEdge(Edge),
    /// Delete an edge.
    DeleteEdge(EdgeKey),
    /// Insert or overwrite a vertex.
    InsertVertex(Vertex),
}

impl Mutation {
    /// Submits the write to `store`.
    pub fn apply(&self, store: &dyn GraphStore) -> StorageResult<()> {
        match self {
            Mutation::InsertEdge(edge) => store.insert_edge(edge),
            Mutation::DeleteEdge((src, etype, dst)) => store.delete_edge(*src, *etype, *dst),
            Mutation::InsertVertex(vertex) => store.insert_vertex(vertex),
        }
    }

    /// The edge or vertex the write targets.
    fn target(&self) -> Target {
        match self {
            Mutation::InsertEdge(edge) => Target::Edge((edge.src, edge.etype, edge.dst)),
            Mutation::DeleteEdge(key) => Target::Edge(*key),
            Mutation::InsertVertex(vertex) => Target::Vertex(vertex.id),
        }
    }
}

/// See [`Mutation::target`].
#[derive(PartialEq)]
enum Target {
    Edge(EdgeKey),
    Vertex(VertexId),
}

/// What an audit found. Every count is zero on a correct engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Audit {
    /// Acked writes whose effect is missing: an acked edge or vertex that
    /// is absent, or an acked delete whose edge is back.
    pub acked_lost: u64,
    /// Reads that served bytes nobody acked: wrong bytes on an acked key,
    /// an edge or vertex that was never acked, or an edge served twice.
    pub garbage_served: u64,
    /// Forbidden edges the engine shows.
    pub forbidden_visible: u64,
}

impl Audit {
    /// True when the audit found no fault.
    pub fn is_clean(&self) -> bool {
        *self == Audit::default()
    }

    /// Counts one key: `want` is the oracle's acked state (`None`: never
    /// acked; `Some(None)`: deleted), `got` what the engine served (`None`:
    /// absent; `Some(None)`: present, bytes not read).
    fn judge(&mut self, want: Option<Option<&[u8]>>, forbidden: bool, got: Option<Option<&[u8]>>) {
        let Some(got) = got else {
            if matches!(want, Some(Some(_))) {
                self.acked_lost += 1;
            }
            return;
        };
        match want {
            _ if forbidden => self.forbidden_visible += 1,
            Some(Some(bytes)) if got.is_some_and(|g| g != bytes) => self.garbage_served += 1,
            Some(Some(_)) => {}
            Some(None) => self.acked_lost += 1,
            None => self.garbage_served += 1,
        }
    }
}

/// The engine reads an [`Oracle::audit`] issues.
pub enum Reads<'a> {
    /// One `neighbors(src, etype, usize::MAX)` per listed source, followed
    /// by one `get_vertex(src)` once the oracle has seen a vertex write.
    /// Every edge a scan returns is judged, acked or not.
    Scan {
        /// The engine under audit.
        store: &'a dyn GraphStore,
        /// The edge type whose adjacency is scanned.
        etype: EdgeType,
        /// The sources scanned, in order.
        sources: &'a [VertexId],
    },
    /// One point read per acked edge or delete, then one per forbidden
    /// edge, in key order; the closure returns `None` for an absent edge.
    Get(&'a mut dyn FnMut(EdgeKey) -> Option<Vec<u8>>),
    /// One presence check per acked edge or delete, then one per forbidden
    /// edge, in key order; bytes are not compared.
    Contains(&'a mut dyn FnMut(EdgeKey) -> bool),
}

/// Acked, in-flight and forbidden writes; see the module docs.
#[derive(Debug, Default)]
pub struct Oracle {
    /// Acked edge state: `Some(bytes)` present, `None` deleted.
    edges: BTreeMap<EdgeKey, Option<Vec<u8>>>,
    vertices: BTreeMap<VertexId, Vec<u8>>,
    /// Whether any vertex write was seen; only then does a scan audit read
    /// vertices.
    wrote_vertices: bool,
    /// Unresolved writes, in submission order.
    in_flight: Vec<Mutation>,
    forbidden: BTreeSet<EdgeKey>,
}

impl Oracle {
    /// An oracle that has seen no write.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a write the engine acknowledged. It supersedes every
    /// earlier in-flight write to the same edge or vertex: those are
    /// ordered before it, so settling must not adopt one over it.
    pub fn ack(&mut self, mutation: Mutation) {
        let target = mutation.target();
        self.in_flight.retain(|m| m.target() != target);
        match mutation {
            Mutation::InsertEdge(edge) => {
                self.edges
                    .insert((edge.src, edge.etype, edge.dst), Some(edge.props));
            }
            Mutation::DeleteEdge(key) => {
                self.edges.insert(key, None);
            }
            Mutation::InsertVertex(vertex) => {
                self.wrote_vertices = true;
                self.vertices.insert(vertex.id, vertex.props);
            }
        }
    }

    /// Records a write that may or may not have landed (a crash
    /// interrupted it, or it returned an error); [`Oracle::settle`]
    /// resolves it after recovery.
    pub fn in_flight(&mut self, mutation: Mutation) {
        self.wrote_vertices |= matches!(mutation, Mutation::InsertVertex(_));
        self.in_flight.push(mutation);
    }

    /// Records an edge that must never become visible.
    pub fn forbid(&mut self, key: EdgeKey) {
        self.forbidden.insert(key);
    }

    /// Acked edges that are present, in key order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeKey, &[u8])> + Clone {
        self.edges
            .iter()
            .filter_map(|(key, bytes)| Some((*key, bytes.as_deref()?)))
    }

    /// Resolves each in-flight write, in submission order, with one read
    /// of `store`: the oracle acks it iff the engine shows it wholly
    /// applied. Otherwise the oracle keeps the prior state, so a partly
    /// applied write shows up in the next audit.
    pub fn settle(&mut self, store: &dyn GraphStore) -> StorageResult<()> {
        for mutation in std::mem::take(&mut self.in_flight) {
            self.settle_one(store, mutation)?;
        }
        Ok(())
    }

    fn settle_one(&mut self, store: &dyn GraphStore, mutation: Mutation) -> StorageResult<()> {
        let landed = match &mutation {
            Mutation::InsertEdge(edge) => {
                store.get_edge(edge.src, edge.etype, edge.dst)?.as_deref()
                    == Some(edge.props.as_slice())
            }
            Mutation::DeleteEdge((src, etype, dst)) => {
                store.get_edge(*src, *etype, *dst)?.is_none()
            }
            Mutation::InsertVertex(vertex) => {
                store.get_vertex(vertex.id)?.as_deref() == Some(vertex.props.as_slice())
            }
        };
        if landed {
            self.ack(mutation);
        }
        Ok(())
    }

    /// Reads the engine through `reads` and counts every fault. Panics if
    /// an in-flight write was not settled, or a scan read fails.
    pub fn audit(&self, reads: Reads<'_>) -> Audit {
        assert!(
            self.in_flight.is_empty(),
            "settle the in-flight writes before auditing"
        );
        let mut audit = Audit::default();
        let want = |key: &EdgeKey| self.edges.get(key).map(Option::as_deref);
        match reads {
            Reads::Scan {
                store,
                etype,
                sources,
            } => {
                for &src in sources {
                    let served = store.neighbors(src, etype, usize::MAX).expect("audit scan");
                    let mut seen = BTreeSet::new();
                    for (dst, bytes) in &served {
                        let key = (src, etype, *dst);
                        if seen.insert(*dst) {
                            audit.judge(
                                want(&key),
                                self.forbidden.contains(&key),
                                Some(Some(bytes.as_slice())),
                            );
                        } else {
                            audit.garbage_served += 1;
                        }
                    }
                    let acked = self
                        .edges
                        .range((src, etype, VertexId(0))..=(src, etype, VertexId(u64::MAX)));
                    for (key, bytes) in acked {
                        if !seen.contains(&key.2) {
                            audit.judge(Some(bytes.as_deref()), false, None);
                        }
                    }
                    if self.wrote_vertices {
                        let got = store.get_vertex(src).expect("audit vertex read");
                        let want = self.vertices.get(&src).map(|b| Some(b.as_slice()));
                        audit.judge(want, false, got.as_deref().map(Some));
                    }
                }
            }
            Reads::Get(get) => {
                for key in self.edges.keys().chain(&self.forbidden) {
                    let got = get(*key);
                    audit.judge(
                        want(key),
                        self.forbidden.contains(key),
                        got.as_deref().map(Some),
                    );
                }
            }
            Reads::Contains(contains) => {
                for key in self.edges.keys().chain(&self.forbidden) {
                    let got = contains(*key).then_some(None);
                    audit.judge(want(key), self.forbidden.contains(key), got);
                }
            }
        }
        audit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemGraph;

    const FOLLOW: EdgeType = EdgeType::FOLLOW;

    fn edge(src: u64, dst: u64, props: &[u8]) -> Edge {
        Edge::new(VertexId(src), FOLLOW, VertexId(dst)).with_props(props.to_vec())
    }

    fn key(src: u64, dst: u64) -> EdgeKey {
        (VertexId(src), FOLLOW, VertexId(dst))
    }

    /// An engine and an oracle that agree on two edges of source 1, an
    /// acked delete and one vertex.
    fn agreed() -> (MemGraph, Oracle) {
        let engine = MemGraph::new();
        let mut oracle = Oracle::new();
        for m in [
            Mutation::InsertEdge(edge(1, 10, b"a")),
            Mutation::InsertEdge(edge(1, 11, b"b")),
            Mutation::InsertEdge(edge(1, 12, b"c")),
            Mutation::DeleteEdge(key(1, 12)),
            Mutation::InsertVertex(Vertex {
                id: VertexId(1),
                props: b"v".to_vec(),
            }),
        ] {
            m.apply(&engine).unwrap();
            oracle.ack(m);
        }
        (engine, oracle)
    }

    /// The three read modes over `engine`, each audited once.
    fn audits(oracle: &Oracle, engine: &MemGraph) -> [Audit; 3] {
        let sources = [VertexId(1), VertexId(2)];
        let scan = oracle.audit(Reads::Scan {
            store: engine,
            etype: FOLLOW,
            sources: &sources,
        });
        let get = oracle.audit(Reads::Get(&mut |(s, t, d)| {
            engine.get_edge(s, t, d).unwrap()
        }));
        let contains = oracle.audit(Reads::Contains(&mut |(s, t, d)| {
            engine.get_edge(s, t, d).unwrap().is_some()
        }));
        [scan, get, contains]
    }

    fn one(field: fn(&mut Audit) -> &mut u64) -> Audit {
        let mut audit = Audit::default();
        *field(&mut audit) = 1;
        audit
    }

    #[test]
    fn an_agreeing_engine_audits_clean() {
        let (engine, oracle) = agreed();
        assert_eq!(oracle.edges().count(), 2);
        for audit in audits(&oracle, &engine) {
            assert!(audit.is_clean(), "{audit:?}");
        }
    }

    #[test]
    fn an_acked_edge_removed_behind_the_oracle_is_lost() {
        let (engine, oracle) = agreed();
        engine
            .delete_edge(VertexId(1), FOLLOW, VertexId(10))
            .unwrap();
        let lost = one(|a| &mut a.acked_lost);
        assert_eq!(audits(&oracle, &engine), [lost; 3]);
    }

    #[test]
    fn wrong_bytes_are_garbage() {
        let (engine, oracle) = agreed();
        engine.insert_edge(&edge(1, 11, b"rot")).unwrap();
        let [scan, get, contains] = audits(&oracle, &engine);
        assert_eq!(scan, one(|a| &mut a.garbage_served));
        assert_eq!(get, one(|a| &mut a.garbage_served));
        assert!(contains.is_clean(), "a presence check reads no bytes");
    }

    #[test]
    fn an_unacked_edge_is_garbage() {
        let (engine, oracle) = agreed();
        engine.insert_edge(&edge(2, 20, b"never acked")).unwrap();
        let [scan, get, contains] = audits(&oracle, &engine);
        assert_eq!(scan, one(|a| &mut a.garbage_served));
        assert!(
            get.is_clean() && contains.is_clean(),
            "point reads see acked keys only"
        );
    }

    #[test]
    fn a_resurrected_delete_is_lost() {
        let (engine, oracle) = agreed();
        engine.insert_edge(&edge(1, 12, b"c")).unwrap();
        let lost = one(|a| &mut a.acked_lost);
        assert_eq!(audits(&oracle, &engine), [lost; 3]);
    }

    #[test]
    fn a_visible_zombie_key_is_forbidden() {
        let (engine, mut oracle) = agreed();
        oracle.forbid(key(2, 99));
        engine.insert_edge(&edge(2, 99, b"from the grave")).unwrap();
        let forbidden = one(|a| &mut a.forbidden_visible);
        assert_eq!(audits(&oracle, &engine), [forbidden; 3]);
    }

    #[test]
    fn a_wrong_vertex_is_garbage_and_a_missing_one_lost() {
        let (engine, oracle) = agreed();
        let scan = |engine: &MemGraph| {
            oracle.audit(Reads::Scan {
                store: engine,
                etype: FOLLOW,
                sources: &[VertexId(1)],
            })
        };
        engine
            .insert_vertex(&Vertex {
                id: VertexId(1),
                props: b"rot".to_vec(),
            })
            .unwrap();
        assert_eq!(scan(&engine), one(|a| &mut a.garbage_served));
        assert_eq!(
            scan(&MemGraph::new()),
            Audit {
                acked_lost: 3,
                ..Audit::default()
            }
        );
    }

    #[test]
    fn a_settled_in_flight_insert_is_adopted_or_dropped() {
        for landed in [true, false] {
            let (engine, mut oracle) = agreed();
            let m = Mutation::InsertEdge(edge(2, 20, b"new"));
            if landed {
                m.apply(&engine).unwrap();
            }
            oracle.in_flight(m);
            oracle.settle(&engine).unwrap();
            assert_eq!(oracle.edges().count(), 2 + landed as usize);
            for audit in audits(&oracle, &engine) {
                assert!(audit.is_clean(), "landed {landed}: {audit:?}");
            }
        }
    }

    #[test]
    fn in_flight_writes_settle_one_by_one() {
        let (engine, mut oracle) = agreed();
        let landed = Mutation::InsertEdge(edge(2, 20, b"landed"));
        landed.apply(&engine).unwrap();
        oracle.in_flight(landed);
        oracle.in_flight(Mutation::InsertEdge(edge(2, 21, b"dropped")));
        oracle.settle(&engine).unwrap();
        assert_eq!(oracle.edges().count(), 3, "one adopted, one dropped");
        for audit in audits(&oracle, &engine) {
            assert!(audit.is_clean(), "{audit:?}");
        }
    }

    #[test]
    fn an_in_flight_insert_with_other_bytes_is_garbage() {
        let (engine, mut oracle) = agreed();
        engine.insert_edge(&edge(2, 20, b"torn")).unwrap();
        oracle.in_flight(Mutation::InsertEdge(edge(2, 20, b"submitted")));
        oracle.settle(&engine).unwrap();
        let [scan, _, _] = audits(&oracle, &engine);
        assert_eq!(scan, one(|a| &mut a.garbage_served));
    }

    #[test]
    fn a_later_ack_supersedes_an_in_flight_write_to_the_same_key() {
        // The engine lost the acked delete and still shows the in-flight
        // insert before it: that is a lost ack, not an adopted insert.
        let (engine, mut oracle) = agreed();
        let stale = Mutation::InsertEdge(edge(2, 20, b"stale"));
        stale.apply(&engine).unwrap();
        oracle.in_flight(stale);
        oracle.ack(Mutation::DeleteEdge(key(2, 20)));
        oracle.settle(&engine).unwrap();
        let lost = one(|a| &mut a.acked_lost);
        assert_eq!(audits(&oracle, &engine), [lost; 3]);
    }

    #[test]
    #[should_panic(expected = "settle the in-flight writes")]
    fn an_unsettled_in_flight_write_cannot_be_audited() {
        let (engine, mut oracle) = agreed();
        oracle.in_flight(Mutation::DeleteEdge(key(1, 10)));
        audits(&oracle, &engine);
    }
}
