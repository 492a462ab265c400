//! Per-layer metrics of the traced run. Layer = crate name.
//!
//! *Live* metrics are span self times or public-counter differences over
//! the traced round's measured phase; *replay* metrics come from
//! [`crate::replay`]. Every workload prints every metric; one that does not
//! apply to a workload reads 0.

use crate::metrics::Report;
use crate::replay::{LiveCalls, Replay};
use crate::runner::{delta, Inputs, Round, Tracing};
use crate::stats;
use crate::trace::{Layer, Name, TraceReport};
use bg3_storage::obs::names;
use std::collections::BTreeMap;

/// `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, &str); 75] = [
    ("workloads.gen_ns_per_op", "ns", "lower"),
    ("query.self_ns_per_op", "ns", "lower"),
    ("query.engine_calls_per_op", "1/op", "lower"),
    ("query.frontier_len_mean", "count", "lower"),
    ("query.pushdown_hits", "count", "higher"),
    ("graph.pattern_self_ns_per_op", "ns", "lower"),
    ("graph.pattern_engine_calls_per_op", "1/op", "lower"),
    ("core.insert_edge_p50_ns", "ns", "lower"),
    ("core.neighbors_p50_ns", "ns", "lower"),
    ("core.neighbors_batch_ns_per_src", "ns", "lower"),
    ("core.get_edge_p50_ns", "ns", "lower"),
    ("core.self_ns_per_op", "ns", "lower"),
    ("core.csr_segments_per_op", "1/op", "lower"),
    ("core.scan_bytes_per_op", "B/op", "lower"),
    ("core.group_commits", "count", "lower"),
    ("forest.put_ns", "ns", "lower"),
    ("forest.get_ns", "ns", "lower"),
    ("forest.scan_group_ns", "ns", "lower"),
    ("forest.scan_groups_ns_per_group", "ns", "lower"),
    ("forest.route_self_ns", "ns", "lower"),
    ("forest.dedicated_trees", "count", "lower"),
    ("forest.split_outs", "count", "lower"),
    ("bwtree.put_ns", "ns", "lower"),
    ("bwtree.get_ns", "ns", "lower"),
    ("bwtree.scan_ns_per_entry", "ns", "lower"),
    ("bwtree.flush_ns_per_page", "ns", "lower"),
    ("bwtree.base_flushes", "count", "lower"),
    ("bwtree.consolidations", "count", "lower"),
    ("bwtree.splits", "count", "lower"),
    ("bwtree.delta_merges", "count", "lower"),
    ("bwtree.cold_ios_per_cold_read", "1/op", "lower"),
    ("bwtree.page_bytes_mean", "B", "lower"),
    ("bwtree.page_bytes_max", "B", "lower"),
    ("wal.appends", "count", "lower"),
    ("wal.bytes_per_user_byte", "B/B", "lower"),
    ("wal.append_cpu_ns", "ns", "lower"),
    ("wal.sync_share", "ratio", "lower"),
    ("storage.frame_encode_ns_per_kb", "ns", "lower"),
    ("storage.frame_verify_ns_per_kb", "ns", "lower"),
    ("storage.append_ns", "ns", "lower"),
    ("storage.read_hit_ns", "ns", "lower"),
    ("storage.read_miss_ns", "ns", "lower"),
    ("storage.base_bytes_per_user_byte", "B/B", "lower"),
    ("storage.delta_bytes_per_user_byte", "B/B", "lower"),
    ("storage.mapping_publishes", "count", "lower"),
    ("storage.mapping_publish_ns", "ns", "lower"),
    ("storage.bytes_read_per_read_op", "B/op", "lower"),
    ("storage.read_ios_per_op", "1/op", "lower"),
    ("storage.utilization", "ratio", "higher"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.admission_rejects", "count", "lower"),
    ("cache.resident_bytes", "B", "higher"),
    ("cache.get_hit_ns", "ns", "lower"),
    ("cache.insert_ns", "ns", "lower"),
    ("gc.cycles", "count", "higher"),
    ("gc.busy_ns_total", "ns", "lower"),
    ("gc.stall_max_ns", "ns", "lower"),
    ("gc.moved_bytes_per_user_byte", "B/B", "lower"),
    ("gc.reclaimed_extents", "count", "higher"),
    ("gc.expired_extents", "count", "higher"),
    ("backend.writes", "count", "lower"),
    ("backend.bytes_written", "B", "lower"),
    ("backend.write_ns_total", "ns", "lower"),
    ("backend.syncs", "count", "lower"),
    ("backend.sync_ns_total", "ns", "lower"),
    ("backend.sync_p50_ns", "ns", "lower"),
    ("backend.reads", "count", "lower"),
    ("backend.bytes_read", "B", "lower"),
    ("backend.read_ns_total", "ns", "lower"),
    ("backend.share_of_wall", "ratio", "lower"),
    ("sync.recover_ns", "ns", "lower"),
    ("sync.wal_records_replayed", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_ratio", "ratio", "lower"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn p50(durations: &[u32]) -> f64 {
    if durations.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<u64> = durations.iter().map(|&d| d as u64).collect();
    sorted.sort_unstable();
    stats::percentile(&sorted, 0.5) as f64
}

/// Estimated engine-stack self time: the live call counts at the per-call
/// costs of the engine replayed on the simulated backend (the top of the
/// replay chain), plus the maintenance and recovery spans, which are
/// measured whole.
fn attributed_ns(trace: &TraceReport, replay: &Replay, live: &LiveCalls) -> f64 {
    replay.core.estimate(live)
        + trace.of(Name::Maintenance).self_ns as f64
        + trace.of(Name::Recover).self_ns as f64
}

/// Mean frontier the executor handed to `neighbors_batch` in the measured
/// phase (the histogram records lengths in its nanosecond field).
pub fn frontier_len_mean(round: &Round) -> f64 {
    let read = |snap: &crate::runner::Snap| {
        snap.metrics
            .histogram(names::QUERY_FRONTIER_LEN)
            .map_or((0, 0), |h| (h.sum_nanos, h.count))
    };
    let (before, after) = (read(&round.at_loaded), read(&round.at_end));
    ratio((after.0 - before.0) as f64, (after.1 - before.1) as f64)
}

/// Builds the per-layer report from the untraced round, the traced round
/// of the same ops, and the replay.
pub fn per_layer(
    inputs: &Inputs,
    plain: &Round,
    traced: &Round,
    tracing: &Tracing,
    trace: &TraceReport,
    replay: &Replay,
) -> Report {
    let (before, after) = (&traced.at_loaded, &traced.at_end);
    let d = |name: &str| delta(before, after, name) as f64;
    let ops = traced.ops_done as f64;
    let reads = traced.read_ns.len() as f64;
    // Bytes the measured phase inserted; the load is outside it.
    let phase_user_bytes: f64 = inputs
        .ops
        .iter()
        .take(traced.ops_done)
        .filter_map(|op| match op {
            crate::workload::Op::Insert(edge) => Some(crate::workload::user_bytes(edge) as f64),
            _ => None,
        })
        .sum();
    let device = tracing
        .backend
        .as_ref()
        .expect("the traced round installs a traced backend");
    let sum3 = |counters: &[crate::trace::DeviceCounter; 4]| {
        counters.iter().fold((0u64, 0u64, 0u64), |acc, c| {
            let s = c.snapshot();
            (acc.0 + s.0, acc.1 + s.1, acc.2 + s.2)
        })
    };
    let (writes, bytes_written, write_ns) = sum3(&device.stats.writes);
    let (dev_reads, bytes_read, read_ns) = sum3(&device.stats.reads);
    let (syncs, _, sync_ns) = sum3(&device.stats.syncs);
    let stream_written = |slot: usize| device.stats.writes[slot].snapshot().1 as f64;
    let wal_sync_ns = device.stats.syncs[2].snapshot().2 as f64;
    let sync_p50 = p50(&device
        .stats
        .sync_durations
        .lock()
        .expect("sync samples mutex poisoned by a panic"));

    let client_ns = trace.root_ns as f64;
    let engine_self = trace.layer_self_ns(Layer::Engine) as f64;
    let device_self = trace.layer_self_ns(Layer::Device) as f64;
    let khop = trace.of(Name::ClientKhop);
    let cycle = trace.of(Name::ClientCycle);
    let batch = trace.of(Name::NeighborsBatch);
    let batch_srcs: f64 = tracing
        .log
        .iter()
        .map(|call| match call {
            crate::replay::Call::Batch(srcs, _) => srcs.len() as f64,
            _ => 0.0,
        })
        .sum();
    let live = LiveCalls {
        inserts: trace.of(Name::InsertEdge).count as f64,
        gets: trace.of(Name::GetEdge).count as f64,
        neighbors: trace.of(Name::Neighbors).count as f64,
        batch_srcs,
    };
    let live_calls = live.inserts + live.gets + live.neighbors + live.batch_srcs;
    let publishes = d(names::MAPPING_PUBLISHES_TOTAL);
    let wal_appends = device.stats.writes[2].snapshot().0 as f64;
    let attributed = attributed_ns(trace, replay, &live);
    let (base, delta_stream) = (&after.streams[0], &after.streams[1]);
    let cache_lookups =
        (after.cache.hits - before.cache.hits + after.cache.misses - before.cache.misses) as f64;
    let tree_d = |f: fn(&bg3_bwtree::BwTreeStatsSnapshot) -> u64| {
        f(&after.trees).saturating_sub(f(&before.trees)) as f64
    };

    let mut v: BTreeMap<&str, f64> = BTreeMap::new();
    let mut set = |name: &'static str, value: f64| {
        v.insert(name, value);
    };
    set(
        "workloads.gen_ns_per_op",
        ratio(inputs.gen_ns as f64, inputs.ops.len() as f64),
    );
    set(
        "query.self_ns_per_op",
        ratio(khop.self_ns as f64, khop.count as f64),
    );
    set(
        "query.engine_calls_per_op",
        ratio(batch.count as f64, khop.count as f64),
    );
    set("query.frontier_len_mean", frontier_len_mean(traced));
    set("query.pushdown_hits", d(names::QUERY_PUSHDOWN_HITS_TOTAL));
    set(
        "graph.pattern_self_ns_per_op",
        ratio(cycle.self_ns as f64, cycle.count as f64),
    );
    set(
        "graph.pattern_engine_calls_per_op",
        if cycle.count > 0 {
            // Every engine call of a risk_mixed cycle op is an expansion or
            // an edge check; point reads of get_edge ops are client-direct.
            let direct = trace.of(Name::ClientGetEdge).count as f64;
            ratio(
                trace.of(Name::Neighbors).count as f64 + trace.of(Name::GetEdge).count as f64
                    - direct,
                cycle.count as f64,
            )
        } else {
            0.0
        },
    );
    set(
        "core.insert_edge_p50_ns",
        p50(&trace.of(Name::InsertEdge).durations),
    );
    set(
        "core.neighbors_p50_ns",
        p50(&trace.of(Name::Neighbors).durations),
    );
    set(
        "core.neighbors_batch_ns_per_src",
        ratio(batch.total_ns as f64, batch_srcs),
    );
    set(
        "core.get_edge_p50_ns",
        p50(&trace.of(Name::GetEdge).durations),
    );
    set("core.self_ns_per_op", ratio(engine_self, ops));
    set(
        "core.csr_segments_per_op",
        ratio(d(names::QUERY_CSR_SEGMENTS_SCANNED_TOTAL), ops),
    );
    set(
        "core.scan_bytes_per_op",
        ratio(d(names::QUERY_SCAN_BYTES_TOTAL), ops),
    );
    set("core.group_commits", publishes);
    set("forest.put_ns", replay.forest.insert.mean());
    set("forest.get_ns", replay.forest.get.mean());
    set("forest.scan_group_ns", replay.forest_scan_group_ns);
    set(
        "forest.scan_groups_ns_per_group",
        replay.forest.batch_src.mean(),
    );
    // Forest minus tree for the same calls, per live engine call.
    set(
        "forest.route_self_ns",
        ratio(
            (replay.forest.estimate(&live) - replay.bwtree.estimate(&live)).max(0.0),
            live_calls,
        ),
    );
    set(
        "forest.dedicated_trees",
        after.forest.dedicated_trees as f64,
    );
    set(
        "forest.split_outs",
        (after.forest.threshold_split_outs + after.forest.init_evictions) as f64,
    );
    set("bwtree.put_ns", replay.bwtree.insert.mean());
    set("bwtree.get_ns", replay.bwtree.get.mean());
    set("bwtree.scan_ns_per_entry", replay.bwtree.scan_entry.mean());
    set("bwtree.flush_ns_per_page", replay.bwtree.flush_page.mean());
    set("bwtree.base_flushes", tree_d(|t| t.base_flushes));
    set("bwtree.consolidations", tree_d(|t| t.consolidations));
    set("bwtree.splits", tree_d(|t| t.splits));
    set("bwtree.delta_merges", tree_d(|t| t.delta_merges));
    set(
        "bwtree.cold_ios_per_cold_read",
        ratio(tree_d(|t| t.cold_read_ios), tree_d(|t| t.cold_reads)),
    );
    set(
        "bwtree.page_bytes_mean",
        ratio(base.valid_bytes as f64, base.valid_records as f64),
    );
    set(
        "bwtree.page_bytes_max",
        device.stats.max_write_bytes[0]
            .load(std::sync::atomic::Ordering::Relaxed)
            .saturating_sub(bg3_storage::FRAME_HEADER_LEN as u64) as f64,
    );
    set("wal.appends", wal_appends);
    set(
        "wal.bytes_per_user_byte",
        ratio(stream_written(2), phase_user_bytes),
    );
    set("wal.append_cpu_ns", replay.wal_append_cpu_ns);
    set(
        "wal.sync_share",
        ratio(wal_sync_ns, trace.of(Name::ClientInsert).total_ns as f64),
    );
    set(
        "storage.frame_encode_ns_per_kb",
        replay.frame_encode_ns_per_kb,
    );
    set(
        "storage.frame_verify_ns_per_kb",
        replay.frame_verify_ns_per_kb,
    );
    set("storage.append_ns", replay.storage_append_ns);
    set("storage.read_hit_ns", replay.storage_read_hit_ns);
    set("storage.read_miss_ns", replay.storage_read_miss_ns);
    set(
        "storage.base_bytes_per_user_byte",
        ratio(stream_written(0), phase_user_bytes),
    );
    set(
        "storage.delta_bytes_per_user_byte",
        ratio(stream_written(1), phase_user_bytes),
    );
    set("storage.mapping_publishes", publishes);
    set("storage.mapping_publish_ns", replay.mapping_publish_ns);
    set(
        "storage.bytes_read_per_read_op",
        ratio(d(names::STORAGE_BYTES_READ_TOTAL), reads),
    );
    set(
        "storage.read_ios_per_op",
        ratio(d(names::STORAGE_RANDOM_READS_TOTAL), reads),
    );
    set(
        "storage.utilization",
        ratio(
            (base.valid_bytes + delta_stream.valid_bytes) as f64,
            (base.used_bytes + delta_stream.used_bytes) as f64,
        ),
    );
    set(
        "cache.hit_ratio",
        ratio((after.cache.hits - before.cache.hits) as f64, cache_lookups),
    );
    set(
        "cache.evictions",
        (after.cache.evictions - before.cache.evictions) as f64,
    );
    set(
        "cache.admission_rejects",
        (after.cache.admission_rejects - before.cache.admission_rejects) as f64,
    );
    set("cache.resident_bytes", after.cache.resident_bytes as f64);
    set("cache.get_hit_ns", replay.cache_get_hit_ns);
    set("cache.insert_ns", replay.cache_insert_ns);
    set("gc.cycles", d(names::GC_CYCLES_TOTAL));
    set(
        "gc.busy_ns_total",
        traced.maintenance_ns.iter().sum::<u64>() as f64,
    );
    set(
        "gc.stall_max_ns",
        traced.maintenance_ns.iter().copied().max().unwrap_or(0) as f64,
    );
    set(
        "gc.moved_bytes_per_user_byte",
        ratio(traced.moved_bytes as f64, phase_user_bytes),
    );
    set("gc.reclaimed_extents", traced.reclaimed_extents as f64);
    set("gc.expired_extents", d(names::GC_EXTENTS_EXPIRED_TOTAL));
    set("backend.writes", writes as f64);
    set("backend.bytes_written", bytes_written as f64);
    set("backend.write_ns_total", write_ns as f64);
    set("backend.syncs", syncs as f64);
    set("backend.sync_ns_total", sync_ns as f64);
    set("backend.sync_p50_ns", sync_p50);
    set("backend.reads", dev_reads as f64);
    set("backend.bytes_read", bytes_read as f64);
    set("backend.read_ns_total", read_ns as f64);
    set("backend.share_of_wall", ratio(device_self, client_ns));
    set("sync.recover_ns", traced.recover_ns as f64);
    set(
        "sync.wal_records_replayed",
        traced.after_recover.streams[2].valid_records as f64,
    );
    set(
        "trace.overhead_ratio",
        ratio(traced.busy_ns as f64, plain.busy_ns as f64),
    );
    set(
        "trace.unattributed_ratio",
        ratio((engine_self - attributed).abs(), engine_self),
    );

    eprintln!(
        "{} trace: {} ops, client {:.3}s = query/graph {:.3}s + engine {:.3}s + device {:.3}s \
         (self-time sum / client = {:.4}); replay: engine on sim {:.3}s > forest {:.3}s > bwtree {:.3}s for the live calls; replay took {:.2}s",
        inputs.workload.name(),
        trace.ops,
        client_ns / 1e9,
        trace.layer_self_ns(Layer::Client) as f64 / 1e9,
        engine_self / 1e9,
        device_self / 1e9,
        ratio(trace.self_sum_ns as f64, client_ns),
        attributed / 1e9,
        replay.forest.estimate(&live) / 1e9,
        replay.bwtree.estimate(&live) / 1e9,
        replay.replay_s
    );
    Report {
        values: PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, unit, v.get(name).copied().unwrap_or(0.0)))
            .collect(),
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        warnings: Vec::new(),
    }
}
