//! What the traced runs share: the drive pipeline's parameters, its
//! stage-by-stage traced twin, the replays around a frame, and the
//! per-layer metrics and layer-sum check built from them.

use std::sync::Arc;
use std::time::Instant;

use kd_bonsai::cluster::{ClusterParams, FramePipeline, StreamingExtractor, TreeMode};
use kd_bonsai::core::{
    BonsaiTree, CompactionPolicy, EpochPublisher, RadiusSearchEngine, RouterSnapshot, ShardConfig,
    ShardRouter,
};
use kd_bonsai::geom::{Aabb, Point3};
use kd_bonsai::kdtree::{simd::LeafVisit, Neighbor, QueryBatch, SearchScratch, SearchStats};
use kd_bonsai::sim::SimEngine;

use crate::stats::{mean, ms, ratio};
use crate::trace::Tracer;
use crate::{Outcome, LAYER_SUM_TOLERANCE};

/// Spatial shards of the streaming index.
const SHARDS: usize = 8;

/// The pipeline parameters every drive workload uses.
pub fn params() -> ClusterParams {
    ClusterParams {
        shards: SHARDS,
        ..ClusterParams::default()
    }
}

/// Per-cluster boxes, the same fold `FramePipeline` post-processing
/// does, over any point lookup.
fn cluster_boxes(clusters: &[Vec<u32>], point: impl Fn(u32) -> Point3) -> Vec<Aabb> {
    clusters
        .iter()
        .filter_map(|c| {
            let mut members = c.iter().map(|&i| point(i));
            let first = members.next()?;
            Some(members.fold(Aabb::new(first, first), |mut b, p| {
                b.insert(p);
                b
            }))
        })
        .collect()
}

/// Order-free digest of a frame's output: sorted cluster sizes and
/// sorted box corner bits.
pub fn shape_of(clusters: &[Vec<u32>], boxes: &[Aabb]) -> (Vec<usize>, Vec<[u32; 6]>) {
    let mut sizes: Vec<usize> = clusters.iter().map(Vec::len).collect();
    sizes.sort_unstable();
    let mut corners: Vec<[u32; 6]> = boxes
        .iter()
        .map(|b| {
            [
                b.min.x.to_bits(),
                b.min.y.to_bits(),
                b.min.z.to_bits(),
                b.max.x.to_bits(),
                b.max.y.to_bits(),
                b.max.z.to_bits(),
            ]
        })
        .collect();
    corners.sort_unstable();
    (sizes, corners)
}

/// The stages of `StreamingPipeline::process_frame`, called one by one
/// through the public API with a span around each: preprocess → diff →
/// apply → compact → extract → boxes → publish. It keeps its own
/// extractor and epoch publisher with the pipeline's defaults.
pub struct TracedIngest {
    pipeline: FramePipeline,
    ex: StreamingExtractor,
    publisher: Arc<EpochPublisher<RouterSnapshot>>,
    compaction: CompactionPolicy,
    pub compactions: u64,
    pub published: u64,
    /// Matched ÷ frame points, per traced frame.
    pub reuse: Vec<f64>,
    /// Garbage slots ÷ all slots after each traced frame (reported as
    /// the mean).
    pub garbage: Vec<f64>,
    pub search: SearchStats,
    pub queries: u64,
}

/// One traced frame's output.
pub struct TracedFrame {
    pub points: Vec<Point3>,
    pub clusters: Vec<Vec<u32>>,
    pub boxes: Vec<Aabb>,
}

impl TracedIngest {
    /// A twin of `StreamingPipeline::new(params(), Bonsai)`, bootstrapped
    /// with `first` (untimed, like the pipeline's set-up frame).
    pub fn new(first: &[Point3]) -> TracedIngest {
        let params = params();
        let mut ex = StreamingExtractor::new(TreeMode::Bonsai, params.tree, params.shards);
        let publisher = Arc::new(EpochPublisher::new(ex.snapshot()));
        let pipeline = FramePipeline::new(params);
        ex.ingest_frame(&pipeline.preprocess(&mut SimEngine::disabled(), first));
        publisher.publish(ex.snapshot());
        TracedIngest {
            pipeline,
            ex,
            publisher,
            compaction: CompactionPolicy::default(),
            compactions: 0,
            published: 0,
            reuse: Vec::new(),
            garbage: Vec::new(),
            search: SearchStats::default(),
            queries: 0,
        }
    }

    pub fn publisher(&self) -> &Arc<EpochPublisher<RouterSnapshot>> {
        &self.publisher
    }

    pub fn extractor(&self) -> &StreamingExtractor {
        &self.ex
    }

    /// Ingests and clusters one raw frame inside a `frame` span.
    pub fn frame(&mut self, tracer: &mut Tracer, op: u64, raw: &[Point3]) -> TracedFrame {
        let f = tracer.open("frame", op, None);
        let at = Some(f);
        let pipeline = &self.pipeline;
        let points = tracer.time("filters.preprocess", op, at, || {
            pipeline.preprocess(&mut SimEngine::disabled(), raw)
        });
        let update = tracer.time("streaming.diff", op, at, || self.ex.diff(&points));
        tracer.time("shard.apply", op, at, || self.ex.apply(&update));
        let compacted = tracer.time("shard.compact", op, at, || {
            self.ex.maybe_compact(&self.compaction)
        });
        let p = pipeline.params();
        let out = tracer.time("extract.bfs", op, at, || {
            self.ex
                .extract(p.tolerance, p.min_cluster_size, p.max_cluster_size)
        });
        let ex = &self.ex;
        let boxes = tracer.time("extract.boxes", op, at, || {
            cluster_boxes(&out.clusters, |g| ex.point(g))
        });
        tracer.time("epoch.publish", op, at, || {
            self.publisher.publish(self.ex.snapshot())
        });
        tracer.close(f);

        self.compactions += u64::from(compacted.is_some());
        self.published += 1;
        self.reuse
            .push(1.0 - ratio(update.added.len() as f64, points.len() as f64));
        let router = self.ex.router();
        self.garbage.push(ratio(
            router.garbage_slots() as f64,
            router.slot_count() as f64,
        ));
        self.search += out.search_stats;
        self.queries += points.len() as u64;
        TracedFrame {
            points,
            clusters: out.clusters,
            boxes,
        }
    }
}

/// Wall time of the two halves of the fast radius search — leaf
/// collection (`KdTree::collect_leaves_in_radius`) and the compressed
/// sweep (`RadiusSearchEngine::sweep_visited`) — over `queries` on a
/// `BonsaiTree` of `tree`'s points, timed as two separate passes.
pub struct KernelReplay {
    pub traverse_ms: f64,
    pub sweep_ms: f64,
}

pub fn kernel_replay(tree: &BonsaiTree, queries: &[Point3], radius: f32) -> KernelReplay {
    let kd = tree.kd_tree();
    let engine = RadiusSearchEngine::bonsai(tree);
    let mut scratch = SearchScratch::new();
    let mut stats = SearchStats::default();
    let mut visited: Vec<LeafVisit> = Vec::new();
    let mut all: Vec<LeafVisit> = Vec::new();
    let mut ends = Vec::with_capacity(queries.len());
    let t = Instant::now();
    for &q in queries {
        kd.collect_leaves_in_radius(q, radius, &mut scratch, &mut stats, &mut visited);
        all.extend_from_slice(&visited);
        ends.push(all.len());
    }
    let traverse_ms = ms(t.elapsed());
    let mut out: Vec<Neighbor> = Vec::new();
    let mut start = 0;
    let t = Instant::now();
    for (&q, &end) in queries.iter().zip(&ends) {
        out.clear();
        engine.sweep_visited(&all[start..end], q, radius, &mut out, &mut stats);
        start = end;
    }
    let sweep_ms = ms(t.elapsed());
    std::hint::black_box(&out);
    KernelReplay {
        traverse_ms,
        sweep_ms,
    }
}

/// Replays around one ingested frame: the routed batch search over the
/// live points, a from-scratch shard build of the same points, and the
/// kernel halves on the frame's single `BonsaiTree`.
#[derive(Default)]
pub struct FrameReplays {
    pub router_ms: Vec<f64>,
    pub build_ms: Vec<f64>,
    pub traverse_ms: Vec<f64>,
    pub sweep_ms: Vec<f64>,
}

impl FrameReplays {
    pub fn replay(&mut self, snapshot: &RouterSnapshot, points: &[Point3]) {
        let p = params();
        let mut batch = QueryBatch::new();
        let t = Instant::now();
        snapshot.search_batch(points, p.tolerance, &mut batch);
        self.router_ms.push(ms(t.elapsed()));
        std::hint::black_box(batch.total_matches());

        let t = Instant::now();
        let router = ShardRouter::bonsai(points, p.tree, ShardConfig::with_shards(p.shards));
        self.build_ms.push(ms(t.elapsed()));
        drop(router);

        let tree = BonsaiTree::build(points.to_vec(), p.tree, &mut SimEngine::disabled());
        let k = kernel_replay(&tree, points, p.tolerance);
        self.traverse_ms.push(k.traverse_ms);
        self.sweep_ms.push(k.sweep_ms);
    }
}

/// Sets the per-layer metrics a [`TracedIngest`] and its replays
/// measured over `frames` traced frames.
pub fn set_ingest_layers(out: &mut Outcome, tracer: &Tracer, ingest: &TracedIngest, frames: usize) {
    for (metric, span) in [
        ("filters.preprocess_ms", "filters.preprocess"),
        ("streaming.diff_ms", "streaming.diff"),
        ("shard.apply_ms", "shard.apply"),
        ("shard.compact_ms", "shard.compact"),
        ("extract.bfs_ms", "extract.bfs"),
        ("extract.boxes_ms", "extract.boxes"),
        ("epoch.publish_ms", "epoch.publish"),
    ] {
        out.set(metric, tracer.mean_ms(span, frames));
    }
    out.set("streaming.reuse_frac", mean(&ingest.reuse));
    out.set(
        "shard.compactions",
        ratio(ingest.compactions as f64, frames as f64),
    );
    out.set("shard.garbage_frac", mean(&ingest.garbage));
    out.set("epoch.published", ingest.published as f64);
}

pub fn set_search_layers(out: &mut Outcome, s: &SearchStats, queries: u64) {
    let per = |v: u64| ratio(v as f64, queries as f64);
    out.set("search.nodes_visited", per(s.nodes_visited));
    out.set("search.leaf_visits", per(s.leaf_visits));
    out.set("search.points_inspected", per(s.points_inspected));
    out.set("search.fallbacks", per(s.fallbacks));
    out.set("search.fallback_ratio", s.fallback_ratio());
}

/// The layer-sum check: the six frame stages the layers name must add
/// up to the traced frame time within [`LAYER_SUM_TOLERANCE`].
pub fn check_layer_sum(out: &mut Outcome, tracer: &Tracer, frames: usize) {
    let frame = tracer.mean_ms("frame", frames);
    let stages: f64 = [
        "filters.preprocess",
        "streaming.diff",
        "shard.apply",
        "shard.compact",
        "extract.bfs",
        "epoch.publish",
    ]
    .iter()
    .map(|s| tracer.mean_ms(s, frames))
    .sum();
    let gap = ratio((frame - stages).abs(), frame);
    out.set("trace.frame_ms", frame);
    out.set("trace.layer_sum_gap_frac", gap);
    out.check(
        gap <= LAYER_SUM_TOLERANCE,
        format!(
            "layer sum: preprocess+diff+apply+compact+bfs+publish = {stages:.3} ms vs traced \
             frame {frame:.3} ms (gap {:.2}%, tolerance {:.0}%)",
            gap * 100.0,
            LAYER_SUM_TOLERANCE * 100.0
        ),
    );
}
