//! Degenerate-input pinning across all three tree modes (Baseline /
//! Bonsai / SoftwareCodec), for every radius-search front-end: the
//! instrumented `LeafProcessor` paths, the fast `RadiusSearchEngine`,
//! the sharded `ShardRouter` and the `StreamingExtractor` on top of it.
//!
//! Covers the two bug classes this repo's PR 2 fixed and guards:
//!
//! * **Degenerate radii** — `radius <= 0` and non-finite radii must
//!   return empty results with zero traversal work. Before the guard,
//!   `-r` returned the same neighbors as `+r` (only `r² = radius·radius`
//!   was ever compared) and NaN/∞ radii mis-pruned silently.
//! * **Degenerate clouds** — all-identical points, coincident
//!   duplicates, a single point, and coordinates that saturate the
//!   f16-approximate rows (|x| > 65504 rounds to ±∞ in binary16) must
//!   keep all three modes bit-identical in membership.
//! * **Degenerate NDT alignments** — an empty scan, non-finite scan
//!   points, `scan_stride: 0`, a map without cells and strided scans
//!   either side of the fan-out cut-over must not panic, and the
//!   production alignment (batched engine lookups, fanned out across
//!   cores past the cut-over) must equal the simulator-instrumented one
//!   bit for bit.
//! * **Degenerate frame streams** — a frame with no finite point, a
//!   frame translated outside every shard box and a thousand coincident
//!   points must stream through `StreamingExtractor` without a panic,
//!   with a clean audit and with the clusters of a fresh extraction.

use kd_bonsai::cluster::{extract_euclidean_clusters_batched, StreamingExtractor, TreeMode};
use kd_bonsai::core::fanout::PARALLEL_FRONTIER_MIN;
use kd_bonsai::core::{
    BonsaiTree, RadiusSearchEngine, ShardConfig, ShardRouter, SoftwareCodecProcessor,
};
use kd_bonsai::geom::{Point3, Pose};
use kd_bonsai::isa::Machine;
use kd_bonsai::kdtree::{
    BaselineLeafProcessor, KdTreeConfig, Neighbor, QueryBatch, SearchScratch, SearchStats,
};
use kd_bonsai::ndt::{AlignResult, NdtConfig, NdtMap, NdtMatcher, NdtSearchMode};
use kd_bonsai::sim::{CpuConfig, SimEngine};

const MODES: [TreeMode; 3] = [
    TreeMode::Baseline,
    TreeMode::Bonsai,
    TreeMode::SoftwareCodec,
];

/// One query through the instrumented (seed-style) search path of a
/// mode, returning the hits and the stats it recorded.
fn instrumented_search(
    tree: &BonsaiTree,
    mode: TreeMode,
    query: Point3,
    radius: f32,
) -> (Vec<Neighbor>, SearchStats) {
    let mut sim = SimEngine::disabled();
    let mut out = Vec::new();
    let mut stats = SearchStats::default();
    match mode {
        TreeMode::Baseline => {
            let mut proc = BaselineLeafProcessor::new(&mut sim);
            tree.kd_tree()
                .radius_search(&mut sim, &mut proc, query, radius, &mut out, &mut stats);
        }
        TreeMode::Bonsai => {
            let mut machine = Machine::new();
            tree.radius_search(&mut sim, &mut machine, query, radius, &mut out, &mut stats);
        }
        TreeMode::SoftwareCodec => {
            let mut proc = SoftwareCodecProcessor::new(&mut sim, tree.directory());
            tree.kd_tree()
                .radius_search(&mut sim, &mut proc, query, radius, &mut out, &mut stats);
        }
    }
    (out, stats)
}

fn engine_for<'t>(tree: &'t BonsaiTree, mode: TreeMode) -> RadiusSearchEngine<'t> {
    match mode {
        TreeMode::Baseline => RadiusSearchEngine::baseline(tree.kd_tree()),
        TreeMode::Bonsai => RadiusSearchEngine::bonsai(tree),
        TreeMode::SoftwareCodec => RadiusSearchEngine::software_codec(tree),
    }
}

fn sorted_indices(hits: &[Neighbor]) -> Vec<u32> {
    let mut v: Vec<u32> = hits.iter().map(|n| n.index).collect();
    v.sort_unstable();
    v
}

fn brute_force(cloud: &[Point3], q: Point3, r: f32) -> Vec<u32> {
    let r_sq = r * r;
    let mut hits: Vec<u32> = cloud
        .iter()
        .enumerate()
        .filter(|(_, p)| p.distance_squared(q) <= r_sq)
        .map(|(i, _)| i as u32)
        .collect();
    hits.sort_unstable();
    hits
}

/// Every mode, every front-end: membership equals brute force for the
/// given cloud/query/radius, and all three modes agree.
fn pin_all_modes(cloud: &[Point3], query: Point3, radius: f32, label: &str) {
    let mut sim = SimEngine::disabled();
    let tree = BonsaiTree::build(cloud.to_vec(), KdTreeConfig::default(), &mut sim);
    let expect = brute_force(cloud, query, radius);
    let mut scratch = SearchScratch::new();
    let mut out = Vec::new();
    for mode in MODES {
        let (slow, _) = instrumented_search(&tree, mode, query, radius);
        assert_eq!(
            sorted_indices(&slow),
            expect,
            "{label}: {mode:?} instrumented"
        );

        let engine = engine_for(&tree, mode);
        let mut stats = SearchStats::default();
        engine.search_one(query, radius, &mut scratch, &mut out, &mut stats);
        assert_eq!(out, slow, "{label}: {mode:?} engine vs instrumented");

        let shard_cfg = ShardConfig::with_shards(4);
        let router = match mode {
            TreeMode::Baseline => ShardRouter::baseline(cloud, KdTreeConfig::default(), shard_cfg),
            TreeMode::Bonsai => ShardRouter::bonsai(cloud, KdTreeConfig::default(), shard_cfg),
            TreeMode::SoftwareCodec => {
                ShardRouter::software_codec(cloud, KdTreeConfig::default(), shard_cfg)
            }
        };
        let mut stats = SearchStats::default();
        router.search_one(query, radius, &mut scratch, &mut out, &mut stats);
        assert_eq!(sorted_indices(&out), expect, "{label}: {mode:?} router");
    }
}

// ---------------------------------------------------------------------
// Degenerate radii.
// ---------------------------------------------------------------------

fn lane_cloud(n: usize) -> Vec<Point3> {
    (0..n)
        .map(|i| {
            Point3::new(
                (i % 25) as f32 * 0.4,
                (i / 25) as f32 * 0.4,
                (i % 7) as f32 * 0.1,
            )
        })
        .collect()
}

/// The headline regression: a negative radius must not behave like its
/// absolute value. This test fails on the pre-guard code (where `-0.7`
/// returned every neighbor `+0.7` finds) in all three modes and all
/// front-ends.
#[test]
fn negative_radius_regression_all_modes() {
    let cloud = lane_cloud(600);
    let mut sim = SimEngine::disabled();
    let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    let query = cloud[111];
    let radius = 0.7f32;

    for mode in MODES {
        // Sanity: the positive radius finds several neighbors.
        let (positive, _) = instrumented_search(&tree, mode, query, radius);
        assert!(positive.len() > 1, "{mode:?}: +r found {}", positive.len());

        // Instrumented path.
        let (negative, stats) = instrumented_search(&tree, mode, query, -radius);
        assert!(
            negative.is_empty(),
            "{mode:?}: radius -{radius} returned {} neighbors (the +r set?)",
            negative.len()
        );
        assert_eq!(stats, SearchStats::default(), "{mode:?}: -r did work");

        // Engine: search_one, search_batch, search_batch_parallel.
        let engine = engine_for(&tree, mode);
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        engine.search_one(query, -radius, &mut scratch, &mut out, &mut stats);
        assert!(out.is_empty(), "{mode:?}: engine search_one");
        assert_eq!(stats, SearchStats::default());

        let mut batch = QueryBatch::new();
        engine.search_batch(&cloud[..64], -radius, &mut batch);
        assert_eq!(batch.num_queries(), 64);
        assert_eq!(batch.total_matches(), 0, "{mode:?}: engine search_batch");
        assert_eq!(*batch.stats(), SearchStats::default());

        #[cfg(feature = "parallel")]
        {
            engine.search_batch_parallel(&cloud[..64], -radius, &mut batch, 3);
            assert_eq!(batch.num_queries(), 64);
            assert_eq!(batch.total_matches(), 0, "{mode:?}: engine parallel");
        }
    }
}

#[test]
fn non_finite_and_zero_radii_are_empty_all_modes() {
    let cloud = lane_cloud(300);
    let mut sim = SimEngine::disabled();
    let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    for mode in MODES {
        for r in [0.0f32, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let (hits, stats) = instrumented_search(&tree, mode, cloud[5], r);
            assert!(hits.is_empty(), "{mode:?} radius {r}");
            assert_eq!(stats, SearchStats::default(), "{mode:?} radius {r}");
        }
    }
}

#[test]
fn degenerate_radii_are_empty_through_the_router() {
    let cloud = lane_cloud(400);
    for shards in [1, 4] {
        let router = ShardRouter::bonsai(
            &cloud,
            KdTreeConfig::default(),
            ShardConfig::with_shards(shards),
        );
        for r in [0.0f32, -0.7, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut batch = QueryBatch::new();
            router.search_batch(&cloud[..32], r, &mut batch);
            assert_eq!(batch.num_queries(), 32);
            assert_eq!(batch.total_matches(), 0, "K={shards} radius {r}");
            assert_eq!(
                *batch.stats(),
                SearchStats::default(),
                "K={shards} radius {r}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Non-finite query centers (this repo's PR 5 bugfix).
// ---------------------------------------------------------------------

const NON_FINITE_QUERIES: [Point3; 4] = [
    Point3::new(f32::NAN, 0.0, 0.0),
    Point3::new(0.0, f32::INFINITY, 0.0),
    Point3::new(0.0, 0.0, f32::NEG_INFINITY),
    Point3::new(f32::NAN, f32::INFINITY, f32::NAN),
];

/// The query-center regression: NaN/±∞ centers must return empty
/// results with zero traversal work through every single-tree front-end
/// (instrumented, fast engine, batched). This test fails on the
/// pre-guard code: radius search traversed silently, and `knn` returned
/// `k` garbage neighbors with NaN `dist_sq` because `heap.len() < k`
/// admitted whatever the first leaves held.
#[test]
fn non_finite_query_centers_are_empty_all_modes() {
    let cloud = lane_cloud(400);
    let mut sim = SimEngine::disabled();
    let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    let mut scratch = SearchScratch::new();
    let mut out = Vec::new();
    for q in NON_FINITE_QUERIES {
        for mode in MODES {
            let (hits, stats) = instrumented_search(&tree, mode, q, 1.0);
            assert!(hits.is_empty(), "{mode:?} query {q:?}");
            assert_eq!(stats, SearchStats::default(), "{mode:?} query {q:?}");

            let engine = engine_for(&tree, mode);
            let mut stats = SearchStats::default();
            engine.search_one(q, 1.0, &mut scratch, &mut out, &mut stats);
            assert!(out.is_empty(), "{mode:?} engine query {q:?}");
            assert_eq!(stats, SearchStats::default(), "{mode:?} engine query {q:?}");
        }
        // kNN: the worst offender pre-guard.
        assert!(
            tree.kd_tree().knn(&mut sim, q, 7).is_empty(),
            "knn found neighbors at {q:?}"
        );
        assert!(tree.kd_tree().nearest(&mut sim, q).is_none());
    }
    // Batched: one empty result range per query, zero aggregate stats.
    for mode in MODES {
        let engine = engine_for(&tree, mode);
        let mut batch = QueryBatch::new();
        engine.search_batch(&NON_FINITE_QUERIES, 1.0, &mut batch);
        assert_eq!(batch.num_queries(), NON_FINITE_QUERIES.len());
        assert_eq!(batch.total_matches(), 0, "{mode:?}");
        assert_eq!(*batch.stats(), SearchStats::default(), "{mode:?}");
    }
}

/// The sharded twin: the router must reject non-finite centers before
/// the AABB walk (NaN makes every `intersects_ball` false, ±∞ makes the
/// box distance arithmetic NaN — either way it could diverge from the
/// single-tree engine without the shared guard).
#[test]
fn non_finite_query_centers_are_empty_through_the_router() {
    let cloud = lane_cloud(400);
    for shards in [1, 4] {
        let router = ShardRouter::bonsai(
            &cloud,
            KdTreeConfig::default(),
            ShardConfig::with_shards(shards),
        );
        let mut batch = QueryBatch::new();
        router.search_batch(&NON_FINITE_QUERIES, 1.0, &mut batch);
        assert_eq!(batch.num_queries(), NON_FINITE_QUERIES.len());
        assert_eq!(batch.total_matches(), 0, "K={shards}");
        assert_eq!(*batch.stats(), SearchStats::default(), "K={shards}");
    }
}

// ---------------------------------------------------------------------
// Degenerate clouds.
// ---------------------------------------------------------------------

#[test]
fn all_identical_points_pin_every_mode() {
    let p = Point3::new(12.345, -6.789, 1.5);
    let cloud = vec![p; 100];
    // Within radius: everything; the f16 approximation of a point is
    // the same for all copies, so every mode must return all 100.
    pin_all_modes(&cloud, p, 0.5, "identical in-radius");
    // Query offset past the radius: nothing.
    pin_all_modes(&cloud, p + Point3::new(2.0, 0.0, 0.0), 0.5, "identical out");
    // Query exactly at distance ~r: membership still pinned to brute
    // force in every mode (the shell recomputes boundary cases).
    pin_all_modes(
        &cloud,
        p + Point3::new(0.5, 0.0, 0.0),
        0.5,
        "identical boundary",
    );
}

#[test]
fn coincident_duplicates_pin_every_mode() {
    // Three duplicate sites embedded in a regular lattice.
    let mut cloud = lane_cloud(200);
    let dup_a = Point3::new(3.0, 3.0, 0.3);
    let dup_b = Point3::new(7.0, 1.0, 0.0);
    for _ in 0..17 {
        cloud.push(dup_a);
    }
    for _ in 0..23 {
        cloud.push(dup_b);
    }
    for (q, r, label) in [
        (dup_a, 0.01, "tight around dup A"),
        (dup_a, 1.0, "wide around dup A"),
        (dup_b, 0.01, "tight around dup B"),
        (Point3::new(5.0, 2.0, 0.1), 3.0, "covering both sites"),
    ] {
        pin_all_modes(&cloud, q, r, label);
    }
}

#[test]
fn single_point_cloud_pins_every_mode() {
    let p = Point3::new(-4.2, 8.8, 0.9);
    let cloud = vec![p];
    pin_all_modes(&cloud, p, 0.1, "single hit");
    pin_all_modes(&cloud, p + Point3::new(1.0, 1.0, 0.0), 0.5, "single miss");
    pin_all_modes(
        &cloud,
        p + Point3::new(0.3, 0.4, 0.0),
        0.5,
        "single boundary",
    );
}

/// Coordinates beyond binary16's finite range (±65504) saturate the
/// f16-approximate SoA rows to ±∞. The error-bound LUT returns ∞ for
/// exponent field 31, so every such point must take the exact-recompute
/// fallback — membership stays pinned to the `f32` brute force.
#[test]
fn f16_saturating_coordinates_pin_every_mode() {
    let mut cloud = vec![
        Point3::new(66_000.0, 0.0, 0.0),
        Point3::new(66_010.0, 0.0, 0.0),
        Point3::new(66_000.0, 12.0, 0.0),
        Point3::new(-66_000.0, 0.0, 0.0),
        Point3::new(-66_000.0, -12.0, 0.0),
        Point3::new(65_504.0, 0.0, 0.0),  // largest finite f16
        Point3::new(65_520.0, 0.0, 0.0),  // rounds to ∞
        Point3::new(1.0e20, 1.0e20, 0.0), // deep overflow
    ];
    // Plus some well-behaved points so the tree has mixed leaves.
    cloud.extend(lane_cloud(50));

    for (q, r, label) in [
        (Point3::new(66_000.0, 0.0, 0.0), 15.0, "hits both saturated"),
        (Point3::new(66_000.0, 0.0, 0.0), 5.0, "hits one saturated"),
        (
            Point3::new(-66_000.0, 0.0, 0.0),
            20.0,
            "negative saturation",
        ),
        (Point3::new(65_504.0, 0.0, 0.0), 20.0, "finite-f16 boundary"),
        (Point3::new(0.0, 0.0, 0.0), 10.0, "normal region untouched"),
        (Point3::new(1.0e20, 1.0e20, 0.0), 1.0, "deep-overflow site"),
    ] {
        pin_all_modes(&cloud, q, r, label);
    }

    // The saturated points really do exercise the fallback: a Bonsai
    // search around them must recompute at least one point.
    let mut sim = SimEngine::disabled();
    let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    let (_, stats) = instrumented_search(
        &tree,
        TreeMode::Bonsai,
        Point3::new(66_000.0, 0.0, 0.0),
        15.0,
    );
    assert!(
        stats.fallbacks > 0,
        "saturation did not hit the shell fallback"
    );
}

/// Degenerate clouds through the router with more shards than distinct
/// coordinates: median-cut over identical points must still terminate
/// and partition cleanly.
#[test]
fn identical_points_shard_cleanly() {
    let p = Point3::new(1.0, 2.0, 3.0);
    let cloud = vec![p; 64];
    for shards in [1, 4, 64, 200] {
        let router = ShardRouter::bonsai(
            &cloud,
            KdTreeConfig::default(),
            ShardConfig::with_shards(shards),
        );
        assert_eq!(router.num_points(), 64);
        assert_eq!(router.shard_sizes().sum::<usize>(), 64);
        let mut batch = QueryBatch::new();
        router.search_batch(&[p], 0.25, &mut batch);
        assert_eq!(batch.results(0).len(), 64, "K={shards}");
        // Canonical order: ascending global index.
        let idx: Vec<u32> = batch.results(0).iter().map(|n| n.index).collect();
        assert_eq!(idx, (0..64).collect::<Vec<u32>>(), "K={shards}");
    }
}

// ---------------------------------------------------------------------------
// Degenerate mutations (the incremental-update guards).
// ---------------------------------------------------------------------------

/// Non-finite inserts are rejected by every mutation entry point —
/// tree, compressed tree, and router — without growing any state.
#[test]
fn non_finite_inserts_are_rejected_everywhere() {
    let cloud = lane_cloud(200);
    let mut sim = SimEngine::disabled();
    let mut tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    let mut router =
        ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(3));
    for p in [
        Point3::new(f32::NAN, 0.0, 0.0),
        Point3::new(0.0, f32::INFINITY, 0.0),
        Point3::new(0.0, 0.0, f32::NEG_INFINITY),
        Point3::new(f32::NAN, f32::NAN, f32::NAN),
    ] {
        assert!(tree.insert(&mut sim, p).is_none(), "{p:?} into tree");
        assert!(router.insert(p).is_none(), "{p:?} into router");
    }
    assert!(
        !tree.has_pending_rebake(),
        "rejected inserts dirtied leaves"
    );
    assert_eq!(tree.kd_tree().points().len(), 200);
    assert_eq!(router.num_points(), 200);
    // The accepted path still works afterwards.
    let idx = tree.insert(&mut sim, Point3::new(0.5, 0.5, 0.5)).unwrap();
    tree.commit(&mut sim);
    assert_eq!(idx, 200);
}

/// Deleting a nonexistent index is a no-op with zero traversal: no
/// simulated events, no stats, no dirty leaves.
#[test]
fn nonexistent_deletes_are_no_ops_with_zero_traversal() {
    let cloud = lane_cloud(150);
    let mut sim = SimEngine::new(&kd_bonsai::sim::CpuConfig::a72_like());
    let mut tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    let before = sim.totals().micro_ops();
    assert!(!tree.delete(&mut sim, 150), "out-of-range index");
    assert!(!tree.delete(&mut sim, u32::MAX));
    assert_eq!(sim.totals().micro_ops(), before, "no-op delete did work");
    assert!(!tree.has_pending_rebake());

    assert!(tree.delete(&mut sim, 3), "live index deletes");
    assert!(
        !tree.delete(&mut sim, 3),
        "second delete of the same index is a no-op"
    );
    tree.commit(&mut sim);

    let mut router =
        ShardRouter::baseline(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(4));
    assert!(!router.delete(150));
    assert!(router.delete(7));
    assert!(!router.delete(7));
    assert_eq!(router.num_points(), 149);
}

/// Updating an empty tree behaves like a build: the same searches
/// succeed, all three modes stay pinned to each other, and the
/// compressed state is fully baked.
#[test]
fn update_on_empty_tree_behaves_like_build() {
    let cloud = lane_cloud(120);
    let mut sim = SimEngine::disabled();
    let mut grown = BonsaiTree::build(Vec::new(), KdTreeConfig::default(), &mut sim);
    let inserted = grown.update(&mut sim, &cloud, &[]);
    assert_eq!(inserted, (0..120).collect::<Vec<u32>>());
    assert!(!grown.has_pending_rebake());

    let built = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    for (qi, &q) in cloud.iter().step_by(11).enumerate() {
        for r in [0.05f32, 0.8, 5.0] {
            let got = sorted_indices(&grown.radius_search_simple(q, r));
            let expect = sorted_indices(&built.radius_search_simple(q, r));
            assert_eq!(got, expect, "query {qi} r {r}");
            let base = sorted_indices(&grown.kd_tree().radius_search_simple(q, r));
            assert_eq!(got, base, "query {qi} r {r}: modes diverge");
        }
    }

    // Degenerate radii stay rejected on a grown tree too.
    for r in [0.0f32, -1.0, f32::NAN, f32::INFINITY] {
        assert!(
            grown.radius_search_simple(cloud[0], r).is_empty(),
            "radius {r}"
        );
    }

    // The empty-router twin: point-by-point growth from nothing.
    let mut router = ShardRouter::bonsai(&[], KdTreeConfig::default(), ShardConfig::with_shards(3));
    let ids = router.apply_update(&cloud, &[]);
    assert_eq!(ids.len(), 120);
    let mut scratch = SearchScratch::new();
    let mut out = Vec::new();
    let mut stats = SearchStats::default();
    router.search_one(cloud[60], 0.8, &mut scratch, &mut out, &mut stats);
    let expect = {
        let mut v = built.radius_search_simple(cloud[60], 0.8);
        v.sort_unstable_by_key(|n| n.index);
        v
    };
    assert_eq!(out, expect, "router grown from empty diverges");
}

/// Deleting every point, then inserting again: the hollowed-out tree
/// keeps every mode consistent and the compressed directory clean.
#[test]
fn full_deletion_then_reinsertion_stays_consistent() {
    let cloud = lane_cloud(90);
    let mut sim = SimEngine::disabled();
    let mut tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
    let removed: Vec<u32> = (0..90).collect();
    tree.update(&mut sim, &[], &removed);
    assert_eq!(tree.kd_tree().num_live(), 0);
    for r in [0.5f32, 100.0] {
        assert!(tree.radius_search_simple(cloud[0], r).is_empty());
        assert!(tree.kd_tree().radius_search_simple(cloud[0], r).is_empty());
    }
    let p = Point3::new(2.0, 2.0, 0.5);
    let idx = tree.update(&mut sim, &[p], &[])[0];
    let hits = tree.radius_search_simple(p, 0.1);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].index, idx);
}

// ---------------------------------------------------------------------------
// Degenerate frame streams through the streaming extractor.
// ---------------------------------------------------------------------------

/// Ingests `frames` in order into a fresh extractor for every mode and
/// two shard counts. After each frame the extractor must audit clean
/// and serve the same clusters (as member-coordinate multisets) as a
/// fresh extraction over the frame's finite points.
fn assert_stream_matches_fresh(frames: &[Vec<Point3>], label: &str) {
    let key = |p: Point3| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()];
    let norm = |clusters: &[Vec<u32>], point: &dyn Fn(u32) -> Point3| {
        let mut v: Vec<Vec<[u32; 3]>> = clusters
            .iter()
            .map(|c| {
                let mut w: Vec<[u32; 3]> = c.iter().map(|&i| key(point(i))).collect();
                w.sort_unstable();
                w
            })
            .collect();
        v.sort_unstable();
        v
    };
    for mode in MODES {
        for shards in [1, 3] {
            let mut ex = StreamingExtractor::new(mode, KdTreeConfig::default(), shards);
            for (k, frame) in frames.iter().enumerate() {
                let tag = format!("{label} {mode:?} shards {shards} frame {k}");
                ex.ingest_frame(frame);
                let finite: Vec<Point3> = frame.iter().copied().filter(|p| p.is_finite()).collect();
                assert_eq!(ex.num_live(), finite.len(), "{tag}");
                let audit = ex.audit();
                assert!(audit.is_empty(), "{tag}: audit: {audit:?}");
                let streamed = ex.extract(0.5, 1, 100_000);
                let fresh = extract_euclidean_clusters_batched(
                    finite.clone(),
                    0.5,
                    1,
                    100_000,
                    KdTreeConfig::default(),
                    mode,
                );
                assert_eq!(
                    norm(&streamed.clusters, &|g| ex.point(g)),
                    norm(&fresh.clusters, &|i| finite[i as usize]),
                    "{tag}"
                );
            }
        }
    }
}

/// A populated frame, then one with no finite point (every shard
/// empties out), then a populated frame again (an emptied shard
/// revives).
#[test]
fn extractor_survives_an_all_non_finite_frame() {
    let blank: Vec<Point3> = (0..40)
        .map(|i| match i % 3 {
            0 => Point3::new(f32::NAN, 0.0, 0.0),
            1 => Point3::new(0.0, f32::INFINITY, 0.0),
            _ => Point3::new(0.0, 0.0, f32::NEG_INFINITY),
        })
        .collect();
    let frames = [lane_cloud(200), blank, lane_cloud(150)];
    assert_stream_matches_fresh(&frames, "non-finite frame");
}

/// A frame translated 1 km outside every shard box, then back: every
/// addition lands outside the boxes it is routed against.
#[test]
fn extractor_follows_a_frame_translated_outside_every_shard_box() {
    let near = lane_cloud(200);
    let far: Vec<Point3> = near
        .iter()
        .map(|&p| p + Point3::new(1000.0, 0.0, 0.0))
        .collect();
    let frames = [near.clone(), far, near];
    assert_stream_matches_fresh(&frames, "translated frame");
}

/// One coordinate repeated 1000 times, then a frame that keeps half of
/// the copies: exact-coordinate matching must pair duplicates
/// one for one and the shards must stay consistent.
#[test]
fn extractor_handles_a_thousand_coincident_points() {
    let p = Point3::new(1.0, 2.0, 3.0);
    let frames = [vec![p; 1000], vec![p; 500]];
    assert_stream_matches_fresh(&frames, "coincident points");
}

// ---------------------------------------------------------------------------
// NDT alignment on degenerate inputs
// ---------------------------------------------------------------------------

const NDT_MODES: [NdtSearchMode; 2] = [NdtSearchMode::Baseline, NdtSearchMode::Bonsai];

/// A small map with structure along every axis: a floor, a side wall
/// and a cross wall.
fn ndt_scene() -> Vec<Point3> {
    let mut pts = Vec::new();
    for i in 0..40 {
        for j in 0..10 {
            let (a, b) = (i as f32 * 0.25, j as f32 * 0.3);
            pts.push(Point3::new(a, b, 0.0));
            pts.push(Point3::new(a, 0.0, b));
            pts.push(Point3::new(4.0, a * 0.5, b));
        }
    }
    pts
}

/// Aligns `scan` against a map of `map_cloud` with the simulator off
/// (production: one engine batch per Newton iteration) and on
/// (instrumented per-point walk), asserts the two agree bit for bit and
/// returns the production result.
fn align_both_paths(
    map_cloud: &[Point3],
    scan: &[Point3],
    cfg: &NdtConfig,
    mode: NdtSearchMode,
    label: &str,
) -> AlignResult {
    let guess = Pose::from_translation_euler(Point3::new(0.2, -0.1, 0.0), 0.0, 0.0, 0.01);
    let run = |sim: &mut SimEngine| {
        let map = NdtMap::build(sim, map_cloud, 2.0);
        NdtMatcher::new(sim, map, cfg.clone(), mode).align(sim, scan, &guess)
    };
    let fast = run(&mut SimEngine::disabled());
    let walked = run(&mut SimEngine::new(&CpuConfig::a72_like()));
    assert_eq!(fast, walked, "{label} ({mode:?}): batched ≠ instrumented");
    fast
}

/// No scan point, or no map cell, means no neighbour: a zero gradient,
/// a zero step and convergence on the first iteration.
fn assert_no_lookup_work(r: &AlignResult, label: &str) {
    assert_eq!(r.iterations, 1, "{label}");
    assert!(r.converged, "{label}");
    assert_eq!(r.score, 0.0, "{label}");
    assert_eq!(r.search_stats.points_inspected, 0, "{label}");
}

#[test]
fn ndt_empty_scan_converges_without_work() {
    let scene = ndt_scene();
    for mode in NDT_MODES {
        let r = align_both_paths(&scene, &[], &NdtConfig::default(), mode, "empty scan");
        assert_no_lookup_work(&r, "empty scan");
        assert_eq!(r.search_stats, SearchStats::default());
    }
}

#[test]
fn ndt_non_finite_scan_points_contribute_nothing() {
    let scene = ndt_scene();
    let mut dirty = Vec::new();
    for (i, &p) in scene.iter().enumerate() {
        dirty.push(p);
        if i % 50 == 0 {
            dirty.push(Point3::new(f32::NAN, p.y, p.z));
            dirty.push(Point3::new(p.x, f32::INFINITY, p.z));
            dirty.push(Point3::new(p.x, p.y, f32::NEG_INFINITY));
        }
    }
    let cfg = NdtConfig::default();
    for mode in NDT_MODES {
        let clean = align_both_paths(&scene, &scene, &cfg, mode, "finite scan");
        let r = align_both_paths(&scene, &dirty, &cfg, mode, "non-finite scan points");
        // A non-finite query finds nothing and costs no traversal, so
        // the alignment is the finite scan's, bit for bit.
        assert_eq!(r, clean, "{mode:?}");
        assert!(r.search_stats.points_inspected > 0, "{mode:?}");
    }
}

#[test]
fn ndt_zero_scan_stride_means_every_point() {
    let scene = ndt_scene();
    let every = |stride| NdtConfig {
        scan_stride: stride,
        ..NdtConfig::default()
    };
    for mode in NDT_MODES {
        let zero = align_both_paths(&scene, &scene, &every(0), mode, "scan_stride 0");
        let one = align_both_paths(&scene, &scene, &every(1), mode, "scan_stride 1");
        assert_eq!(zero, one, "{mode:?}");
    }
}

#[test]
fn ndt_scans_either_side_of_the_fan_out_cut_over_match_the_walk() {
    // From PARALLEL_FRONTIER_MIN strided points on, a production
    // Newton iteration splits the scan across cores (on a multi-core
    // host) and folds the per-point terms back in scan order; one
    // point fewer stays on the caller. Both must equal the
    // instrumented per-point walk.
    let scene = ndt_scene();
    let cfg = NdtConfig {
        scan_stride: 2,
        ..NdtConfig::default()
    };
    for strided in [
        PARALLEL_FRONTIER_MIN - 1,
        PARALLEL_FRONTIER_MIN,
        PARALLEL_FRONTIER_MIN + 1,
    ] {
        // `2·n − 1` points at stride 2 leave `n` strided points.
        let scan = &scene[..2 * strided - 1];
        assert_eq!(scan.iter().step_by(2).count(), strided);
        let label = format!("{strided} strided points");
        for mode in NDT_MODES {
            let r = align_both_paths(&scene, scan, &cfg, mode, &label);
            assert!(r.search_stats.points_inspected > 0, "{label} ({mode:?})");
        }
    }
}

#[test]
fn ndt_map_without_cells_converges_without_work() {
    // Five points per voxel at most: below the per-cell minimum, so
    // the map keeps no Gaussian and the centroid tree is empty.
    let sparse: Vec<Point3> = (0..5)
        .flat_map(|i| {
            let c = i as f32 * 4.0 + 0.5;
            (0..5).map(move |j| Point3::new(c + j as f32 * 0.1, 0.5, 0.5))
        })
        .collect();
    let scene = ndt_scene();
    for (label, map_cloud) in [("sparse map", &sparse[..]), ("empty map", &[][..])] {
        let map = NdtMap::build(&mut SimEngine::disabled(), map_cloud, 2.0);
        assert!(map.cells().is_empty(), "{label}");
        for mode in NDT_MODES {
            let r = align_both_paths(map_cloud, &scene, &NdtConfig::default(), mode, label);
            assert_no_lookup_work(&r, label);
        }
    }
}
