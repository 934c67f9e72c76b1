//! Sharded multi-tree radius-search serving.
//!
//! One tree per frame caps both the memory footprint a single
//! `CompressedDirectory` must hold and the rebuild latency a frame pays
//! before its first query. A [`ShardRouter`] instead median-cuts the
//! cloud into `K` spatial shards, builds an independent
//! [`KdTree`]/[`BonsaiTree`] per shard (fanned out over threads with the
//! `parallel` feature), and serves a [`QueryBatch`] by routing every
//! query to exactly the shards whose bounding box intersects the query
//! ball — the ikd-Tree idiom of many independently updated and queried
//! spatial regions.
//!
//! **Exactness.** Per-point membership and the reported `dist_sq` bits
//! are independent of tree shape in every mode: the baseline scan
//! computes the same `f32` distance from the same coordinates, and the
//! compressed scan classifies each point from its *own* f16
//! approximation and per-point error bound, falling back to the exact
//! `f32` point inside the shell. Routing never loses a neighbor either,
//! because [`Aabb::intersects_ball`] under-estimates the distance to
//! every contained point. The router therefore returns, for every
//! query, the same neighbor set with bit-identical `(index, dist_sq)`
//! values as a single-tree [`RadiusSearchEngine`] over the whole cloud
//! — property-tested at the workspace root for all three modes
//! (Baseline / Bonsai / SoftwareCodec). Hits are emitted in ascending
//! global point index, a canonical order that is independent of the
//! shard layout (a single tree emits leaf order instead, so compare
//! after sorting). Traversal *counters* are aggregated per shard: they
//! equal the sum over shards of searching that shard's own engine with
//! the queries routed to it.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use bonsai_floatfmt::PartErrorMem;
use bonsai_geom::{Aabb, Point3};
use bonsai_kdtree::{
    AuditViolation, BuildStats, KdTree, KdTreeConfig, Neighbor, QueryBatch, SearchScratch,
    SearchStats, ViolationKind,
};
use bonsai_sim::SimEngine;

use crate::engine::{append_hits, EngineMode};
use crate::epoch::QueryError;
use crate::tree::BonsaiTree;

/// Sharding parameters of a [`ShardRouter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Desired shard count `K` (clamped to at least 1; a cloud with
    /// fewer points than shards gets one single-point shard per point).
    pub shards: usize,
    /// Threads used to build the shard trees: `0` uses the machine's
    /// available parallelism, `1` builds sequentially. Ignored (always
    /// sequential) without the `parallel` feature.
    pub build_threads: usize,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            shards: 4,
            build_threads: 0,
        }
    }
}

impl ShardConfig {
    /// A configuration with `shards` shards and automatic build threads.
    pub fn with_shards(shards: usize) -> ShardConfig {
        ShardConfig {
            shards,
            ..ShardConfig::default()
        }
    }
}

/// One spatial shard: a contiguous region's points, their global
/// indices, and the per-shard tree.
///
/// `Clone` backs the copy-on-write epoch scheme: the router stores
/// `Arc<Shard>`, and a mutation clones a shard (via [`Arc::make_mut`])
/// only when a published [`RouterSnapshot`] still pins it — unpinned
/// shards mutate in place at zero copy cost.
#[derive(Debug, Clone)]
struct Shard {
    /// Tight bounding box of the shard's points (the routing test).
    aabb: Aabb,
    /// Shard-local point index → global cloud index (ascending after a
    /// build/rebuild; routed inserts append, possibly with recycled —
    /// smaller — global indices).
    global: Vec<u32>,
    tree: ShardTree,
    /// A quarantined shard is suspected corrupt: queries skip it
    /// (reported through [`ShardRouter::coverage`]), mutations never
    /// touch its tree, and
    /// [`rebuild_shards_from`](ShardRouter::rebuild_shards_from)
    /// re-admits it from authoritative coordinates.
    quarantined: bool,
    /// Deletes routed here while quarantined — the tree cannot be
    /// trusted to record them, so they are queued and resolved by the
    /// healing rebuild (which only re-admits points the caller lists as
    /// live).
    pending_deletes: Vec<u32>,
}

#[derive(Debug, Clone)]
#[allow(clippy::large_enum_variant)] // a handful of shards per router
enum ShardTree {
    Baseline(KdTree),
    Bonsai(BonsaiTree),
}

impl ShardTree {
    fn kd(&self) -> &KdTree {
        match self {
            ShardTree::Baseline(t) => t,
            ShardTree::Bonsai(b) => b.kd_tree(),
        }
    }

    fn bonsai(&self) -> Option<&BonsaiTree> {
        match self {
            ShardTree::Baseline(_) => None,
            ShardTree::Bonsai(b) => Some(b),
        }
    }

    fn insert(&mut self, sim: &mut SimEngine, p: Point3) -> Option<u32> {
        match self {
            ShardTree::Baseline(t) => t.insert(sim, p),
            ShardTree::Bonsai(b) => b.insert(sim, p),
        }
    }

    fn delete(&mut self, sim: &mut SimEngine, local: u32) -> bool {
        match self {
            ShardTree::Baseline(t) => t.delete(sim, local),
            ShardTree::Bonsai(b) => b.delete(sim, local),
        }
    }

    /// Re-bakes pending dirty leaves (Bonsai) and drains the dirty log
    /// (baseline trees have no layered cache to invalidate).
    fn commit(&mut self, sim: &mut SimEngine) {
        match self {
            ShardTree::Baseline(t) => {
                t.drain_dirty_nodes();
            }
            ShardTree::Bonsai(b) => {
                b.commit(sim);
            }
        }
    }
}

/// Where one global point index lives: its shard and the shard-local
/// index.
#[derive(Debug, Clone, Copy)]
struct PointLoc {
    shard: u32,
    local: u32,
}

impl PointLoc {
    /// The entry of a dead point whose storage a shard rebuild
    /// reclaimed: the global index no longer resolves to any shard
    /// slot. Guarded in [`ShardRouter::delete`], because after a
    /// rebuild the old local index may name a *different* live point.
    const GONE: PointLoc = PointLoc {
        shard: u32::MAX,
        local: u32::MAX,
    };
}

/// One shard's part in a rebuild: the shard-local slots to drop and
/// the `(global, point)` additions it takes in.
#[derive(Debug, Default)]
struct Rebuild {
    shard: usize,
    drop: Vec<u32>,
    add: Vec<(u32, Point3)>,
}

/// When a [`ShardRouter`] shard is worth compacting — the
/// ikd-Tree-style criterion that triggers a rolling
/// [`rebuild_shard`](ShardRouter::rebuild_shard).
///
/// A shard's **waste** is its tree's abandoned `vind`/SoA slots
/// (`garbage_slots`, lane-padded footprints) plus its dead points
/// (deleted entries still occupying the point array); its **footprint**
/// is total slots plus total points. The shard is rebuilt when
/// `waste ≥ garbage_ratio · footprint` and the footprint is at least
/// `min_points` (rebuilding a tiny shard costs more than the waste).
///
/// # Examples
///
/// ```
/// use bonsai_core::CompactionPolicy;
/// let policy = CompactionPolicy::default();
/// assert!(policy.should_compact(300, 1000));
/// assert!(!policy.should_compact(100, 1000));
/// assert!(!policy.should_compact(90, 100)); // below min_points
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Waste fraction that triggers a rebuild.
    pub garbage_ratio: f64,
    /// Minimum shard footprint (slots + points) worth rebuilding.
    pub min_points: usize,
}

impl Default for CompactionPolicy {
    fn default() -> CompactionPolicy {
        CompactionPolicy {
            garbage_ratio: 0.25,
            min_points: 256,
        }
    }
}

impl CompactionPolicy {
    /// Whether a shard with `waste` wasted units out of a `footprint`
    /// total should be rebuilt under this policy.
    pub fn should_compact(&self, waste: usize, footprint: usize) -> bool {
        footprint >= self.min_points && waste as f64 >= self.garbage_ratio * footprint as f64
    }
}

/// What fraction of the indexed space a query answer covers: complete,
/// or missing the regions of quarantined shards.
///
/// Returned by [`ShardRouter::coverage`] and attached to every
/// streaming extraction so a downstream consumer can tell an
/// authoritative "no neighbors here" from "that region's shard is
/// offline pending a healing rebuild".
#[derive(Debug, Clone, PartialEq)]
pub struct Coverage {
    /// `true` when no shard is quarantined — results are exact over the
    /// whole live cloud.
    pub complete: bool,
    /// Bounding boxes of the quarantined shards' regions (empty when
    /// `complete`). Queries intersecting these boxes may be missing
    /// neighbors.
    pub offline: Vec<Aabb>,
}

impl Default for Coverage {
    fn default() -> Coverage {
        Coverage {
            complete: true,
            offline: Vec::new(),
        }
    }
}

/// A sharded multi-tree radius-search front-end: `K` spatial shards,
/// each with its own tree and engine state, behind the same batch API
/// as the single-tree [`RadiusSearchEngine`].
///
/// See the module source docs (`core/src/shard.rs`) for the exactness
/// contract.
///
/// # Examples
///
/// ```
/// use bonsai_core::{ShardConfig, ShardRouter};
/// use bonsai_geom::Point3;
/// use bonsai_kdtree::{KdTreeConfig, QueryBatch};
///
/// let cloud: Vec<Point3> =
///     (0..400).map(|i| Point3::new((i % 20) as f32 * 0.3, (i / 20) as f32 * 0.3, 1.0)).collect();
/// let router = ShardRouter::bonsai(
///     &cloud, KdTreeConfig::default(), ShardConfig::with_shards(4));
/// assert_eq!(router.num_shards(), 4);
///
/// let mut batch = QueryBatch::new();
/// router.search_batch(&cloud[..32], 0.5, &mut batch);
/// assert_eq!(batch.num_queries(), 32);
/// assert!(batch.results(0).iter().any(|n| n.index == 0));
/// ```
///
/// [`RadiusSearchEngine`]: crate::RadiusSearchEngine
#[derive(Debug)]
pub struct ShardRouter {
    /// Copy-on-write shard storage: queries snapshot it with an O(K)
    /// `Arc` clone ([`snapshot`](ShardRouter::snapshot)), and mutations
    /// go through [`Arc::make_mut`] — in place while unpinned, a
    /// one-shard deep copy when a live snapshot still reads it.
    shards: Vec<Arc<Shard>>,
    mode: EngineMode,
    num_points: usize,
    lut: PartErrorMem,
    /// Tree construction parameters, kept for shards created by
    /// inserts into an empty router.
    tree_cfg: KdTreeConfig,
    /// Global point index → owning shard and shard-local index
    /// (deleted points keep their entry until a shard rebuild retires
    /// it to [`PointLoc::GONE`]; the shard tree tracks liveness).
    locs: Vec<PointLoc>,
    /// Per-global-index generation tag, parallel to `locs`: bumped each
    /// time the index is retired to [`PointLoc::GONE`], so a consumer
    /// holding a stale global index can detect that the index was
    /// recycled for a different point.
    generations: Vec<u32>,
    /// Retired global indices available for reuse —
    /// [`insert`](ShardRouter::insert) pops from here before growing
    /// `locs`, so a long churn stream's directory stops growing once
    /// retirement keeps pace.
    free_globals: Vec<u32>,
    /// Round-robin cursor of [`compact_next`](ShardRouter::compact_next):
    /// which shard the next policy check inspects.
    compact_cursor: usize,
}

impl ShardRouter {
    /// A router over uncompressed `f32` shard trees.
    ///
    /// `points` is borrowed: each shard copies exactly the points it
    /// serves, so the caller keeps (and can reuse) the original cloud
    /// without a second full copy.
    pub fn baseline(points: &[Point3], tree_cfg: KdTreeConfig, cfg: ShardConfig) -> ShardRouter {
        ShardRouter::build(points, tree_cfg, cfg, EngineMode::Baseline)
    }

    /// A router over Bonsai-compressed shard trees (exact membership).
    pub fn bonsai(points: &[Point3], tree_cfg: KdTreeConfig, cfg: ShardConfig) -> ShardRouter {
        ShardRouter::build(points, tree_cfg, cfg, EngineMode::Compressed)
    }

    /// A router matching the software-codec strawman's results — the
    /// fast scan is shared with [`bonsai`](ShardRouter::bonsai), exactly
    /// as in the single-tree engine.
    pub fn software_codec(
        points: &[Point3],
        tree_cfg: KdTreeConfig,
        cfg: ShardConfig,
    ) -> ShardRouter {
        ShardRouter::bonsai(points, tree_cfg, cfg)
    }

    fn build(
        points: &[Point3],
        tree_cfg: KdTreeConfig,
        cfg: ShardConfig,
        mode: EngineMode,
    ) -> ShardRouter {
        let num_points = points.len();
        let parts = median_cut(points, cfg.shards.max(1));
        let inputs: Vec<(Vec<u32>, Vec<Point3>)> = parts
            .into_iter()
            .map(|global| {
                let pts = global.iter().map(|&i| points[i as usize]).collect();
                (global, pts)
            })
            .collect();
        let shards: Vec<Arc<Shard>> = build_shards(inputs, tree_cfg, mode, cfg.build_threads)
            .into_iter()
            .map(Arc::new)
            .collect();
        let mut locs = vec![PointLoc { shard: 0, local: 0 }; num_points];
        for (si, shard) in shards.iter().enumerate() {
            for (local, &global) in shard.global.iter().enumerate() {
                locs[global as usize] = PointLoc {
                    shard: si as u32,
                    local: local as u32,
                };
            }
        }
        ShardRouter {
            shards,
            mode,
            num_points,
            lut: PartErrorMem::new(),
            tree_cfg,
            generations: vec![0; locs.len()],
            locs,
            free_globals: Vec::new(),
            compact_cursor: 0,
        }
    }

    /// The leaf representation every shard scans.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// Number of shards actually built (≤ the configured count when the
    /// cloud has fewer points than shards; 0 for an empty cloud).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total **live** points across all shards (inserts add, deletes
    /// subtract).
    pub fn num_points(&self) -> usize {
        self.num_points
    }

    /// Per-shard point counts, in shard order.
    pub fn shard_sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.shards.iter().map(|s| s.global.len())
    }

    /// Per-shard tight bounding boxes, in shard order.
    pub fn shard_bounds(&self) -> impl Iterator<Item = Aabb> + '_ {
        self.shards.iter().map(|s| s.aabb)
    }

    /// The global cloud indices shard `shard` serves — ascending after
    /// construction; routed inserts append past the build-time range
    /// (and deleted indices linger, tracked dead by the shard's tree).
    /// A shard's tree is built over exactly these points in exactly
    /// this order, so rebuilding a single-tree engine from them
    /// reproduces the shard's results and counters — the observability
    /// hook the router's property tests rest on.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= num_shards()`.
    pub fn shard_points(&self, shard: usize) -> &[u32] {
        &self.shards[shard].global
    }

    /// Aggregated shape statistics: leaf/interior counts summed over
    /// shards, `max_depth` the deepest shard's depth.
    pub fn build_stats(&self) -> BuildStats {
        let mut agg = BuildStats::default();
        for s in &self.shards {
            let b = s.tree.kd().build_stats();
            agg.num_leaves += b.num_leaves;
            agg.num_interior += b.num_interior;
            agg.max_depth = agg.max_depth.max(b.max_depth);
        }
        agg
    }

    /// Total compressed-directory bytes across shards (0 in baseline
    /// mode).
    pub fn compressed_bytes(&self) -> u64 {
        self.shards
            .iter()
            .filter_map(|s| s.tree.bonsai())
            .map(|b| b.compression_stats().compressed_bytes)
            .sum()
    }

    // ------------------------------------------------------------------
    // Incremental updates (the ikd-Tree "many independently updated
    // regions" idiom): every mutation touches exactly one shard.
    // ------------------------------------------------------------------

    /// Inserts a point, routed to the shard whose bounding box is
    /// nearest (containing boxes have distance 0); an out-of-bounds
    /// insert **grows** that shard's box so later query routing keeps
    /// seeing the point — preferring an emptied shard, when one
    /// exists, over stretching a populated shard's box across a region
    /// it does not serve. Returns the point's new global index, or
    /// `None` for a non-finite point. An empty router grows its first
    /// single-point shard.
    ///
    /// Only the chosen shard's tree mutates; re-baking its compressed
    /// leaves is deferred to [`commit`](ShardRouter::commit) (or
    /// [`apply_update`](ShardRouter::apply_update)).
    pub fn insert(&mut self, p: Point3) -> Option<u32> {
        if !p.is_finite() {
            return None;
        }
        let global = self.alloc_global();
        let mut sim = SimEngine::disabled();
        let Some(si) = self.route(p, |i| self.shards[i].aabb) else {
            // No healthy shard exists (empty router, or every shard is
            // quarantined): bootstrap a new single-point shard rather
            // than mutating a suspect tree.
            let si = self.shards.len();
            self.shards.push(Arc::new(build_shard(
                vec![global],
                vec![p],
                self.tree_cfg,
                self.mode,
            )));
            self.set_loc(
                global,
                PointLoc {
                    shard: si as u32,
                    local: 0,
                },
            );
            self.num_points += 1;
            return Some(global);
        };
        // lint: allow(cow-discipline) — insert IS the mutation that
        // creates the dirt; there is nothing to commit before cloning,
        // and a pinned snapshot must not see the new point anyway.
        let shard = Arc::make_mut(&mut self.shards[si]);
        shard.aabb.insert(p);
        // lint: allow(panic-free-serving) — the router's `insert`
        // rejected non-finite points before routing, and a finite
        // point is always accepted by the shard tree.
        let local = shard
            .tree
            .insert(&mut sim, p)
            .expect("finite point is accepted by the shard tree");
        debug_assert_eq!(local as usize, shard.global.len());
        shard.global.push(global);
        self.set_loc(
            global,
            PointLoc {
                shard: si as u32,
                local,
            },
        );
        self.num_points += 1;
        Some(global)
    }

    /// The healthy shard a new point `p` belongs to, judged by the
    /// routing boxes `box_of(shard)`: the one whose box is nearest
    /// (containing boxes have distance 0), or `None` when no healthy
    /// shard exists.
    ///
    /// When no box covers `p`, a *rebuilt-empty* shard is revived
    /// instead (its inverted sentinel box is infinitely far, so
    /// distance routing alone would never pick it again) rather than
    /// stretching a populated shard's box over a region it does not
    /// serve. Delete-emptied but never-rebuilt shards are deliberately
    /// excluded: their stale boxes still describe the region they
    /// served, so ordinary distance routing remains the better (and
    /// nearer) choice for them.
    fn route(&self, p: Point3, box_of: impl Fn(usize) -> Aabb) -> Option<usize> {
        let healthy = || (0..self.shards.len()).filter(|&i| !self.shards[i].quarantined);
        // The first healthy shard at the least distance; a containing
        // box (distance 0) cannot be beaten, so it ends the scan.
        let mut nearest: Option<(usize, f32)> = None;
        for i in healthy() {
            let d = box_of(i).distance_squared_to(p);
            if d == 0.0 {
                return Some(i);
            }
            if nearest.is_none_or(|(_, best)| d.total_cmp(&best).is_lt()) {
                nearest = Some((i, d));
            }
        }
        let (nearest, _) = nearest?;
        let empty = healthy().find(|&i| {
            let b = box_of(i);
            b.min.x > b.max.x
        });
        Some(empty.unwrap_or(nearest))
    }

    /// The next global index an insert will occupy: a retired
    /// (free-listed) index when one exists, else a fresh one past the
    /// directory.
    fn alloc_global(&mut self) -> u32 {
        match self.free_globals.pop() {
            Some(g) => g,
            None => self.locs.len() as u32,
        }
    }

    /// Records `global → loc`, growing the directory (and its
    /// generation tags) when `global` is fresh.
    fn set_loc(&mut self, global: u32, loc: PointLoc) {
        let gi = global as usize;
        if gi < self.locs.len() {
            debug_assert_eq!(
                self.locs[gi].shard,
                PointLoc::GONE.shard,
                "recycled global {global} still mapped"
            );
            self.locs[gi] = loc;
        } else {
            debug_assert_eq!(gi, self.locs.len());
            self.locs.push(loc);
            self.generations.push(0);
        }
    }

    /// Deletes global point `global`, routed to its owning shard.
    /// Returns `false` — without touching any shard tree beyond a
    /// constant-time liveness check — when the index is out of range,
    /// already deleted, or reclaimed by an earlier
    /// [`rebuild_shard`](ShardRouter::rebuild_shard). Shard boxes are
    /// left unshrunk (conservative: routing stays exact, merely less
    /// selective) until a rebuild re-tightens them.
    pub fn delete(&mut self, global: u32) -> bool {
        let Some(&loc) = self.locs.get(global as usize) else {
            return false;
        };
        if loc.shard == PointLoc::GONE.shard {
            return false;
        }
        let mut sim = SimEngine::disabled();
        // lint: allow(cow-discipline) — delete IS the mutation that
        // creates the dirt; the clone must happen before we can mark
        // anything dirty, so there is no gate to consult.
        let shard = Arc::make_mut(&mut self.shards[loc.shard as usize]);
        if shard.quarantined {
            // The tree is suspect — queue the delete instead of
            // mutating corrupt state. The healing rebuild resolves the
            // queue (it only re-admits points the authoritative live
            // set still contains). Liveness is judged from the alive
            // mask, which fault injection leaves intact.
            if shard.pending_deletes.contains(&global) {
                return false;
            }
            let kd = shard.tree.kd();
            let was_live = (loc.local as usize) < kd.points().len() && kd.is_live(loc.local);
            shard.pending_deletes.push(global);
            if was_live {
                self.num_points -= 1;
            }
            return was_live;
        }
        let deleted = shard.tree.delete(&mut sim, loc.local);
        if deleted {
            self.num_points -= 1;
        }
        deleted
    }

    /// Re-bakes every shard with pending mutations (a no-op for clean
    /// shards — only touched shards pay).
    pub fn commit(&mut self) {
        let mut sim = SimEngine::disabled();
        for shard in &mut self.shards {
            // Clean shards are checked read-only before `make_mut`:
            // otherwise a live snapshot pinning an untouched shard would
            // force a pointless deep copy on every commit.
            if shard.quarantined || !shard.tree.kd().has_dirty_nodes() {
                continue; // frozen until healed, or nothing pending
            }
            Arc::make_mut(shard).tree.commit(&mut sim);
        }
    }

    /// Applies one frame's diff: deletes `removed` (dead indices are
    /// skipped), inserts `added` (non-finite points are skipped), then
    /// re-bakes the touched shards. Returns the global indices of the
    /// accepted inserts, in `added` order.
    pub fn apply_update(&mut self, added: &[Point3], removed: &[u32]) -> Vec<u32> {
        for &idx in removed {
            self.delete(idx);
        }
        let inserted = added.iter().filter_map(|&p| self.insert(p)).collect();
        self.commit();
        inserted
    }

    // ------------------------------------------------------------------
    // Rolling compaction: criterion-triggered shard rebuilds bound the
    // memory a long churn stream can pin (the ikd-Tree re-building
    // idiom, one shard at a time so no frame pays for the whole index).
    // ------------------------------------------------------------------

    /// Rebuilds shard `shard` from scratch over its **live** points:
    /// dead point slots, abandoned `vind`/SoA ranges and retired pool
    /// nodes are all dropped, and the shard's bounding box is
    /// **re-tightened** to the live points (deletes only ever leave
    /// boxes over-grown — see [`delete`](ShardRouter::delete) — so
    /// stale boxes route queries into shards that cannot answer them).
    /// Global indices are preserved: every live point keeps its index,
    /// so query results are unchanged; only per-shard traversal
    /// counters may shrink with the tightened routing and the rebuilt
    /// shape. A shard whose points were all deleted collapses to an
    /// empty tree with a never-intersecting box (it revives on the next
    /// routed insert).
    ///
    /// This is [`rebuild_update`](ShardRouter::rebuild_update) with no
    /// removals and no additions, forced onto one shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= num_shards()`.
    pub fn rebuild_shard(&mut self, shard: usize) {
        // lint: allow(debug-assert-discipline) — rebuilding a
        // quarantined shard from its own suspect tree would launder
        // corruption into a "clean" index; this must hold in release
        // builds, where the chaos/heal machinery actually runs.
        assert!(
            !self.shards[shard].quarantined,
            "rebuilding quarantined shard {shard} from its own (suspect) tree; \
             use rebuild_shards_from with authoritative coordinates"
        );
        self.rebuild_targets(vec![Rebuild {
            shard,
            ..Rebuild::default()
        }]);
    }

    /// Applies one frame's diff by **rebuilding** every healthy shard it
    /// touches, instead of replaying it point by point through
    /// [`delete`](ShardRouter::delete) and
    /// [`insert`](ShardRouter::insert). A touched shard's new contents
    /// are its surviving live points plus the additions routed to it;
    /// it comes out with no dead points, no garbage slots and a tight
    /// box. Untouched shards keep their `Arc` (no copy-on-write clone;
    /// pinned snapshots are unaffected).
    ///
    /// - The finite additions are routed in order exactly as a run of
    ///   `insert` calls would route them (nearest healthy box, grown by
    ///   each point routed to it; a point outside every box revives a
    ///   rebuilt-empty shard), starting from the boxes as they were
    ///   before the update. With no healthy shard, the additions
    ///   bootstrap one new shard.
    /// - Additions take global indices from the free list first, then
    ///   fresh ones; they are allocated before this update's removals
    ///   are retired, so a removed index is never reused by the same
    ///   update.
    /// - Removed live points are retired (generation bumped, index
    ///   free-listed). Dead or out-of-range indices are skipped. A
    ///   removal owned by a quarantined shard is queued exactly as
    ///   `delete` queues it; quarantined shards are never rebuilt here
    ///   and receive no additions.
    ///
    /// Returns one entry per `added` point, in order: its new global
    /// index, or `None` for a non-finite point.
    ///
    /// Replaying an update point by point costs in proportion to its
    /// size, while this rebuild costs about the same at any size. On a
    /// 7.2k-point drive frame over 8 shards (2-vCPU Xeon) the two break
    /// even when 1–2 % of the points move; vehicle-frame LiDAR scans
    /// replace nearly every point each frame.
    pub fn rebuild_update(&mut self, added: &[Point3], removed: &[u32]) -> Vec<Option<u32>> {
        let mut targets: Vec<Rebuild> = (0..self.shards.len())
            .map(|shard| Rebuild {
                shard,
                ..Rebuild::default()
            })
            .collect();
        for &g in removed {
            let Some(&loc) = self.locs.get(g as usize) else {
                continue;
            };
            let Some(shard) = self.shards.get(loc.shard as usize) else {
                continue; // retired (`PointLoc::GONE`)
            };
            if shard.quarantined {
                self.delete(g);
                continue;
            }
            let kd = shard.tree.kd();
            if (loc.local as usize) < kd.points().len() && kd.is_live(loc.local) {
                targets[loc.shard as usize].drop.push(loc.local);
            }
        }
        if added.iter().any(|p| p.is_finite()) && self.shards.iter().all(|s| s.quarantined) {
            // No healthy shard to route into: bootstrap one, as `insert`
            // does, rather than mutating a suspect tree.
            targets.push(Rebuild {
                shard: self.shards.len(),
                ..Rebuild::default()
            });
            self.shards.push(Arc::new(self.make_empty_shard()));
        }
        // Route every addition as `insert` would, one after another:
        // each routed point grows its shard's routing box (reviving a
        // rebuilt-empty shard takes it out of the empty pool), and no
        // shard is rebuilt until all are routed.
        let mut boxes: Vec<Aabb> = self.shards.iter().map(|s| s.aabb).collect();
        let inserted = added
            .iter()
            .map(|&p| {
                if !p.is_finite() {
                    return None;
                }
                let si = self.route(p, |i| boxes[i])?;
                boxes[si].insert(p);
                let g = self.alloc_global();
                // The local index is fixed when the shard is rebuilt.
                self.set_loc(
                    g,
                    PointLoc {
                        shard: si as u32,
                        local: u32::MAX,
                    },
                );
                targets[si].add.push((g, p));
                Some(g)
            })
            .collect();
        targets.retain(|t| !t.drop.is_empty() || !t.add.is_empty());
        self.rebuild_targets(targets);
        // Untouched shards may still hold dirt from earlier per-point
        // mutations; settle it so the router leaves committed.
        self.commit();
        inserted
    }

    /// The one shard-rebuild routine behind
    /// [`rebuild_shard`](ShardRouter::rebuild_shard) (and so rolling
    /// compaction) and [`rebuild_update`](ShardRouter::rebuild_update):
    /// each target shard is rebuilt over its live points minus
    /// `drop`, plus `add`, in ascending global order. Every other global
    /// the shard held (dead points, dropped points) is retired. Targets
    /// must be healthy and their `add` globals already allocated.
    fn rebuild_targets(&mut self, targets: Vec<Rebuild>) {
        let mut inputs: Vec<(Vec<u32>, Vec<Point3>)> = Vec::with_capacity(targets.len());
        let mut slots: Vec<usize> = Vec::with_capacity(targets.len());
        for t in targets {
            let (mut keep, gone, live_before) = {
                let s = &self.shards[t.shard];
                let kd = s.tree.kd();
                let mut dropped = vec![false; s.global.len()];
                for &l in &t.drop {
                    dropped[l as usize] = true;
                }
                let mut keep = t.add;
                let mut gone = Vec::new();
                for (local, &g) in s.global.iter().enumerate() {
                    if kd.is_live(local as u32) && !dropped[local] {
                        keep.push((g, kd.points()[local]));
                    } else {
                        gone.push(g);
                    }
                }
                (keep, gone, kd.num_live())
            };
            for g in gone {
                self.retire_global(g);
            }
            self.num_points = (self.num_points + keep.len()).saturating_sub(live_before);
            if keep.is_empty() {
                // Keep the shard slot (locs store shard ids) with an
                // inverted box no ball can intersect; the next routed
                // insert revives it.
                self.shards[t.shard] = Arc::new(self.make_empty_shard());
                continue;
            }
            keep.sort_unstable_by_key(|&(g, _)| g);
            inputs.push(keep.into_iter().unzip());
            slots.push(t.shard);
        }
        let built = build_shards(inputs, self.tree_cfg, self.mode, 0);
        for (slot, shard) in slots.into_iter().zip(built) {
            self.install_shard(slot, shard);
        }
    }

    /// Stores freshly built `shard` in slot `slot` and points every
    /// global it holds at its new `(slot, local)` home.
    fn install_shard(&mut self, slot: usize, shard: Shard) {
        for (local, &g) in shard.global.iter().enumerate() {
            self.locs[g as usize] = PointLoc {
                shard: slot as u32,
                local: local as u32,
            };
        }
        self.shards[slot] = Arc::new(shard);
    }

    /// One amortized step of the rolling compaction: inspects the next
    /// shard in round-robin order and rebuilds it when `policy` says
    /// its waste warrants it. Returns the rebuilt shard's index, or
    /// `None` when the inspected shard (or an empty router) needed
    /// nothing. Call once per frame — over `num_shards()` frames every
    /// shard gets checked, so no single frame ever pays for more than
    /// one rebuild.
    pub fn compact_next(&mut self, policy: &CompactionPolicy) -> Option<usize> {
        if self.shards.is_empty() {
            return None;
        }
        let i = self.compact_cursor % self.shards.len();
        self.compact_cursor = (i + 1) % self.shards.len();
        if self.shards[i].quarantined {
            return None; // frozen until healed
        }
        let (waste, footprint) = self.shard_fragmentation(i);
        if policy.should_compact(waste, footprint) {
            self.rebuild_shard(i);
            Some(i)
        } else {
            None
        }
    }

    /// Shard `shard`'s `(waste, footprint)` pair: abandoned slots plus
    /// dead points, over total slots plus total points — the quantities
    /// [`CompactionPolicy::should_compact`] consumes.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= num_shards()`.
    pub fn shard_fragmentation(&self, shard: usize) -> (usize, usize) {
        let kd = self.shards[shard].tree.kd();
        let dead = kd.points().len() - kd.num_live();
        (
            kd.garbage_slots() + dead,
            kd.vind().len() + kd.points().len(),
        )
    }

    /// Total abandoned `vind`/SoA slots across all shards (the
    /// fragmentation counter the soak bench plots).
    pub fn garbage_slots(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.tree.kd().garbage_slots())
            .sum()
    }

    /// Total `vind`/SoA slots across all shards (live + garbage), the
    /// denominator of the garbage ratio.
    pub fn slot_count(&self) -> usize {
        self.shards.iter().map(|s| s.tree.kd().vind().len()).sum()
    }

    /// Host-side memory footprint across all shards, in bytes (point
    /// arrays including dead points, slot arrays including garbage,
    /// node pools, f16 rows and compressed directories) plus the
    /// global→shard directory.
    pub fn resident_bytes(&self) -> u64 {
        let shard_bytes: u64 = self
            .shards
            .iter()
            .map(|s| {
                let tree = match &s.tree {
                    ShardTree::Baseline(t) => t.resident_bytes(),
                    ShardTree::Bonsai(b) => b.resident_bytes(),
                };
                tree + s.global.len() as u64 * 4
            })
            .sum();
        shard_bytes + self.locs.len() as u64 * 8
    }

    /// Answers one query, clearing `out` first: hits from every shard
    /// whose box intersects the query ball, re-indexed to global cloud
    /// indices and sorted ascending. Allocation-free once `scratch` and
    /// `out` are warm.
    ///
    /// A non-positive or non-finite `radius` — or a query center with a
    /// non-finite coordinate — yields an empty result without touching
    /// any shard.
    pub fn search_one(
        &self,
        query: Point3,
        radius: f32,
        scratch: &mut SearchScratch,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) {
        out.clear();
        self.append_query(query, radius, scratch, out, stats);
    }

    /// Answers every query in one call, filling `batch` (reset first):
    /// the sharded equivalent of `RadiusSearchEngine::search_batch`,
    /// with [`QueryBatch::stats`] aggregating the whole batch across
    /// shards.
    pub fn search_batch(&self, queries: &[Point3], radius: f32, batch: &mut QueryBatch) {
        batch.reset();
        // One route BVH amortized over the whole batch: per-query
        // dispatch is O(log K + hits) instead of a scan of all K boxes.
        let routes = RouteIndex::build(&self.shards);
        for &query in queries {
            batch.push_query(|scratch, out, stats| {
                append_routed(
                    &self.shards,
                    &self.lut,
                    Some(&routes),
                    query,
                    radius,
                    scratch,
                    out,
                    stats,
                );
            });
        }
    }

    /// [`search_batch`](ShardRouter::search_batch) fanned out over
    /// scoped worker threads through [`fanout`](crate::fanout)
    /// (`threads == 0` uses the machine's available parallelism;
    /// batches below
    /// [`PARALLEL_FRONTIER_MIN`](crate::fanout::PARALLEL_FRONTIER_MIN)
    /// stay on the caller). Results are merged in query order, so
    /// output and aggregate stats are identical to the sequential call.
    #[cfg(feature = "parallel")]
    pub fn search_batch_parallel(
        &self,
        queries: &[Point3],
        radius: f32,
        batch: &mut QueryBatch,
        threads: usize,
    ) {
        crate::fanout::search_batch_across_threads(queries, radius, batch, threads, |q, r, b| {
            self.search_batch(q, r, b)
        });
    }

    /// The routed per-query kernel: searches every intersecting shard,
    /// re-indexes its hits to global indices, and sorts the query's
    /// merged hits into canonical ascending-index order. Shared
    /// verbatim with [`RouterSnapshot`], so a pinned snapshot can never
    /// drift from the live router at the same state.
    fn append_query(
        &self,
        query: Point3,
        radius: f32,
        scratch: &mut SearchScratch,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) {
        // Single-query path on the live router: linear scan (no route
        // BVH to reuse between mutations). Batches and snapshots route
        // through the BVH.
        append_routed(
            &self.shards,
            &self.lut,
            None,
            query,
            radius,
            scratch,
            out,
            stats,
        );
    }

    /// [`search_one`](ShardRouter::search_one) behind the typed serving
    /// boundary: a router that is non-empty but has **every** shard
    /// quarantined returns [`QueryError::NoCoverage`] instead of a
    /// silently empty answer. Partial quarantine still answers (the
    /// healthy shards' hits), reported through
    /// [`coverage`](ShardRouter::coverage) as before; an empty router
    /// is legitimately empty, not an error.
    pub fn try_search_one(
        &self,
        query: Point3,
        radius: f32,
        scratch: &mut SearchScratch,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) -> Result<(), QueryError> {
        coverage_gate(&self.shards)?;
        self.search_one(query, radius, scratch, out, stats);
        Ok(())
    }

    /// [`search_batch`](ShardRouter::search_batch) behind the typed
    /// serving boundary — see
    /// [`try_search_one`](ShardRouter::try_search_one). On error the
    /// batch is left reset (no partial results).
    pub fn try_search_batch(
        &self,
        queries: &[Point3],
        radius: f32,
        batch: &mut QueryBatch,
    ) -> Result<(), QueryError> {
        batch.reset();
        coverage_gate(&self.shards)?;
        self.search_batch(queries, radius, batch);
        Ok(())
    }

    /// An immutable point-in-time view of the router for concurrent
    /// serving: O(K) `Arc` clones of the shard list — no tree data is
    /// copied. The snapshot answers queries bit-identically to this
    /// router at the moment of the call, and **stays** bit-identical
    /// while the router keeps mutating (copy-on-write: a mutation
    /// deep-copies a shard only while a snapshot still pins it).
    ///
    /// Publish snapshots through an
    /// [`EpochPublisher`](crate::EpochPublisher) to serve queries while
    /// ingesting frames.
    pub fn snapshot(&self) -> RouterSnapshot {
        RouterSnapshot {
            // The route BVH is immutable alongside the shard list it
            // indexes, so every query served off this snapshot routes
            // in O(log K) with zero per-query build cost.
            routes: Arc::new(RouteIndex::build(&self.shards)),
            shards: self.shards.clone(),
            mode: self.mode,
            num_points: self.num_points,
            lut: self.lut.clone(),
        }
    }

    // ------------------------------------------------------------------
    // Fault tolerance: deep audit, quarantine, healing rebuild.
    // ------------------------------------------------------------------

    /// Retires global index `g`: the directory entry goes to
    /// [`PointLoc::GONE`], its generation tag is bumped, and the index
    /// joins the free list for reuse by a later insert.
    fn retire_global(&mut self, g: u32) {
        self.locs[g as usize] = PointLoc::GONE;
        self.generations[g as usize] = self.generations[g as usize].wrapping_add(1);
        self.free_globals.push(g);
    }

    /// An empty shard slot: a never-intersecting inverted box over an
    /// empty tree, revived by the next routed insert.
    fn make_empty_shard(&self) -> Shard {
        let mut sim = SimEngine::disabled();
        let tree = match self.mode {
            EngineMode::Baseline => {
                ShardTree::Baseline(KdTree::build(Vec::new(), self.tree_cfg, &mut sim))
            }
            EngineMode::Compressed => {
                ShardTree::Bonsai(BonsaiTree::build(Vec::new(), self.tree_cfg, &mut sim))
            }
        };
        Shard {
            aabb: Aabb {
                min: Point3::splat(f32::INFINITY),
                max: Point3::splat(f32::NEG_INFINITY),
            },
            global: Vec::new(),
            tree,
            quarantined: false,
            pending_deletes: Vec::new(),
        }
    }

    /// Marks shard `shard` quarantined: queries skip it (the region is
    /// reported through [`coverage`](ShardRouter::coverage)), mutations
    /// never touch its tree (deletes are queued), and only
    /// [`rebuild_shards_from`](ShardRouter::rebuild_shards_from)
    /// re-admits it. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= num_shards()`.
    pub fn quarantine(&mut self, shard: usize) {
        // lint: allow(cow-discipline) — a health-flag flip must copy
        // even a clean pinned shard: readers on older epochs keep
        // serving the pre-quarantine snapshot by design.
        Arc::make_mut(&mut self.shards[shard]).quarantined = true;
    }

    /// Whether shard `shard` is quarantined.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= num_shards()`.
    pub fn is_quarantined(&self, shard: usize) -> bool {
        self.shards[shard].quarantined
    }

    /// Global indices deleted from shard `shard` while it was
    /// quarantined, queued for the healing rebuild to resolve (empty
    /// for a healthy shard).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= num_shards()`.
    pub fn pending_deletes(&self, shard: usize) -> &[u32] {
        &self.shards[shard].pending_deletes
    }

    /// Indices of the quarantined shards, ascending.
    pub fn quarantined_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.quarantined)
            .map(|(i, _)| i)
            .collect()
    }

    /// The coverage the next query would see: complete when no shard is
    /// quarantined, else the offline regions' bounding boxes.
    pub fn coverage(&self) -> Coverage {
        let offline: Vec<Aabb> = self
            .shards
            .iter()
            .filter(|s| s.quarantined)
            .map(|s| s.aabb)
            .collect();
        Coverage {
            complete: offline.is_empty(),
            offline,
        }
    }

    /// The shard currently owning global index `global`, or `None` when
    /// the index is out of range or retired.
    pub fn shard_of(&self, global: u32) -> Option<usize> {
        let loc = self.locs.get(global as usize)?;
        if loc.shard == PointLoc::GONE.shard {
            None
        } else {
            Some(loc.shard as usize)
        }
    }

    /// Generation tag of global index `global` (bumped each time the
    /// index is retired and made reusable), or `None` out of range.
    pub fn generation(&self, global: u32) -> Option<u32> {
        self.generations.get(global as usize).copied()
    }

    /// Deep invariant audit of the whole router: every healthy shard's
    /// tree (its full [`KdTree`] invariant web plus, under Bonsai, the
    /// f16 rows and compressed directory), the global→(shard, local)
    /// directory ↔ per-shard live-set bijection, the free-list ↔
    /// retired-entry bijection, and the live-point accounting. Never
    /// panics on corrupt state — every finding comes back as a typed
    /// [`AuditViolation`] (shard-attributed where one is involved);
    /// an empty vector certifies the router.
    ///
    /// Quarantined shards are skipped: they are already known-suspect
    /// and frozen.
    pub fn audit(&self) -> Vec<AuditViolation> {
        let mut out = Vec::new();
        for (si, shard) in self.shards.iter().enumerate() {
            if shard.quarantined {
                continue;
            }
            let tree_violations = match &shard.tree {
                ShardTree::Baseline(t) => t.audit(),
                ShardTree::Bonsai(b) => b.audit(),
            };
            for v in tree_violations {
                out.push(v.at_shard(si as u32));
            }
            let kd = shard.tree.kd();
            if shard.global.len() != kd.points().len() {
                out.push(
                    AuditViolation::new(
                        ViolationKind::ShardDirectory,
                        format!(
                            "local→global map covers {} of {} tree points",
                            shard.global.len(),
                            kd.points().len()
                        ),
                    )
                    .at_shard(si as u32),
                );
            }
        }
        // Reverse pass: every live local slot of a healthy shard must be
        // claimed by exactly its directory entry.
        for (si, shard) in self.shards.iter().enumerate() {
            if shard.quarantined {
                continue;
            }
            let kd = shard.tree.kd();
            for (local, &g) in shard.global.iter().enumerate() {
                if local >= kd.points().len() || !kd.is_live(local as u32) {
                    continue;
                }
                match self.locs.get(g as usize) {
                    Some(loc) if loc.shard == si as u32 && loc.local == local as u32 => {}
                    Some(loc) if loc.shard == PointLoc::GONE.shard => out.push(
                        AuditViolation::new(
                            ViolationKind::ShardDirectory,
                            format!("live global {g} (shard {si} local {local}) is retired"),
                        )
                        .at_shard(si as u32)
                        .at_index(g),
                    ),
                    Some(loc) => out.push(
                        AuditViolation::new(
                            ViolationKind::ShardDirectory,
                            format!(
                                "live global {g} lives at shard {si} local {local} but the \
                                 directory claims shard {} local {}",
                                loc.shard, loc.local
                            ),
                        )
                        .at_shard(si as u32)
                        .at_index(g),
                    ),
                    None => out.push(
                        AuditViolation::new(
                            ViolationKind::ShardDirectory,
                            format!(
                                "live global {g} (shard {si} local {local}) is past the \
                                 directory ({} entries)",
                                self.locs.len()
                            ),
                        )
                        .at_shard(si as u32)
                        .at_index(g),
                    ),
                }
            }
        }
        // Forward pass: every mapped directory entry must resolve to a
        // shard slot holding exactly that global index.
        let mut retired = 0usize;
        for (g, loc) in self.locs.iter().enumerate() {
            if loc.shard == PointLoc::GONE.shard {
                retired += 1;
                continue;
            }
            let Some(shard) = self.shards.get(loc.shard as usize) else {
                out.push(
                    AuditViolation::new(
                        ViolationKind::ShardDirectory,
                        format!("global {g} maps to shard {} past the router", loc.shard),
                    )
                    .at_index(g as u32),
                );
                continue;
            };
            if shard.quarantined {
                continue;
            }
            match shard.global.get(loc.local as usize) {
                Some(&owner) if owner == g as u32 => {}
                Some(&owner) => out.push(
                    AuditViolation::new(
                        ViolationKind::ShardDirectory,
                        format!(
                            "global {g} maps to shard {} local {} but that slot holds \
                             global {owner}",
                            loc.shard, loc.local
                        ),
                    )
                    .at_shard(loc.shard)
                    .at_index(g as u32),
                ),
                None => out.push(
                    AuditViolation::new(
                        ViolationKind::ShardDirectory,
                        format!(
                            "global {g} maps to shard {} local {}, past the shard's {} slots",
                            loc.shard,
                            loc.local,
                            shard.global.len()
                        ),
                    )
                    .at_shard(loc.shard)
                    .at_index(g as u32),
                ),
            }
        }
        // Free list ↔ retired entries: a bijection.
        let mut seen = HashSet::new();
        for &g in &self.free_globals {
            match self.locs.get(g as usize) {
                None => out.push(
                    AuditViolation::new(
                        ViolationKind::ShardDirectory,
                        format!("free-list entry {g} is past the directory"),
                    )
                    .at_index(g),
                ),
                Some(_) if !seen.insert(g) => out.push(
                    AuditViolation::new(
                        ViolationKind::ShardDirectory,
                        format!("free-list entry {g} is listed twice"),
                    )
                    .at_index(g),
                ),
                Some(loc) if loc.shard != PointLoc::GONE.shard => out.push(
                    AuditViolation::new(
                        ViolationKind::ShardDirectory,
                        format!("free-list entry {g} is still mapped to shard {}", loc.shard),
                    )
                    .at_index(g),
                ),
                Some(_) => {}
            }
        }
        if retired != self.free_globals.len() {
            out.push(AuditViolation::new(
                ViolationKind::ShardDirectory,
                format!(
                    "directory holds {retired} retired entries but the free list holds {}",
                    self.free_globals.len()
                ),
            ));
        }
        if self.generations.len() != self.locs.len() {
            out.push(AuditViolation::new(
                ViolationKind::ShardDirectory,
                format!(
                    "generation tags cover {} of {} directory entries",
                    self.generations.len(),
                    self.locs.len()
                ),
            ));
        }
        // Live accounting is only meaningful with every shard healthy —
        // deletes routed to a quarantined shard are counted from a
        // suspect alive mask until the heal recounts.
        if self.shards.iter().all(|s| !s.quarantined) {
            let live: usize = self.shards.iter().map(|s| s.tree.kd().num_live()).sum();
            if live != self.num_points {
                out.push(AuditViolation::new(
                    ViolationKind::Accounting,
                    format!(
                        "num_points is {} but shards hold {live} live points",
                        self.num_points
                    ),
                ));
            }
        }
        out
    }

    /// Heals shards from authoritative coordinates: quarantines every
    /// shard in `targets` (idempotent), then rebuilds each from the
    /// subset of `live` — the caller's authoritative `(global index,
    /// exact point)` live set, e.g. the streaming extractor's — that no
    /// healthy shard owns, and re-admits them. Directory entries of
    /// healthy-shard points are repaired in place, global indices
    /// vanished from the live set are retired (generation bumped, index
    /// free-listed), pending quarantine-time deletes are resolved by
    /// construction, and the live-point counter is recounted once no
    /// shard remains quarantined.
    ///
    /// Unclaimed live points go to the target their directory entry
    /// names when it names one, else to the nearest target by
    /// bounding-box distance; each target is rebuilt over its points in
    /// ascending global order, so healing is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if any target index is `>= num_shards()`.
    pub fn rebuild_shards_from(&mut self, targets: &[usize], live: &[(u32, Point3)]) {
        if targets.is_empty() {
            return;
        }
        for &t in targets {
            // lint: allow(cow-discipline) — the heal replaces target
            // trees wholesale; any uncommitted dirt they carried is
            // superseded by the authoritative rebuild that follows.
            Arc::make_mut(&mut self.shards[t]).quarantined = true;
        }
        // Reverse map over the healthy shards: which globals they own
        // (live slots only). Points the healthy half owns must NOT be
        // adopted into a rebuilt target — that would double-store them.
        let mut owned: HashMap<u32, PointLoc> = HashMap::new();
        for (si, shard) in self.shards.iter().enumerate() {
            if shard.quarantined {
                continue;
            }
            let kd = shard.tree.kd();
            for (local, &g) in shard.global.iter().enumerate() {
                if local < kd.points().len() && kd.is_live(local as u32) {
                    owned.insert(
                        g,
                        PointLoc {
                            shard: si as u32,
                            local: local as u32,
                        },
                    );
                }
            }
        }
        // Partition the unclaimed live points among the targets.
        let mut assign: Vec<Vec<(u32, Point3)>> = vec![Vec::new(); targets.len()];
        for &(g, p) in live {
            if let Some(&loc) = owned.get(&g) {
                // A healthy shard owns it — repair the directory entry
                // in place if corruption redirected it.
                if (g as usize) < self.locs.len() {
                    self.locs[g as usize] = loc;
                }
                continue;
            }
            let claimed = self
                .locs
                .get(g as usize)
                .filter(|loc| loc.shard != PointLoc::GONE.shard)
                .and_then(|loc| targets.iter().position(|&t| t == loc.shard as usize));
            let ti = claimed.unwrap_or_else(|| {
                targets
                    .iter()
                    .enumerate()
                    .min_by(|(_, &a), (_, &b)| {
                        self.shards[a]
                            .aabb
                            .distance_squared_to(p)
                            .total_cmp(&self.shards[b].aabb.distance_squared_to(p))
                    })
                    .map(|(i, _)| i)
                    // lint: allow(panic-free-serving) — `targets` is
                    // the non-empty rebuild set computed above; a min
                    // over it always exists.
                    .expect("targets is non-empty")
            });
            assign[ti].push((g, p));
        }
        let mut inputs: Vec<(Vec<u32>, Vec<Point3>)> = Vec::with_capacity(targets.len());
        let mut slots: Vec<usize> = Vec::with_capacity(targets.len());
        for (ti, &t) in targets.iter().enumerate() {
            let mut items = std::mem::take(&mut assign[ti]);
            items.sort_unstable_by_key(|&(g, _)| g);
            let Some(&(last, _)) = items.last() else {
                self.shards[t] = Arc::new(self.make_empty_shard());
                continue;
            };
            if (last as usize) >= self.locs.len() {
                // An authoritative global past the directory (the
                // directory itself was corrupt): grow to cover it.
                self.locs.resize(last as usize + 1, PointLoc::GONE);
                self.generations.resize(last as usize + 1, 0);
            }
            inputs.push(items.into_iter().unzip());
            slots.push(t);
        }
        let built = build_shards(inputs, self.tree_cfg, self.mode, 0);
        for (slot, shard) in slots.into_iter().zip(built) {
            self.install_shard(slot, shard);
        }
        // Retirement sweep: directory entries no shard slot holds any
        // more (dead points the rebuild dropped, quarantine-time
        // deletes) are retired with a generation bump. Entries present
        // in any shard — live or dead — are left alone; the owning
        // shard's own rebuild retires its dead ones later.
        let mut present = vec![false; self.locs.len()];
        for shard in &self.shards {
            for &g in &shard.global {
                if let Some(slot) = present.get_mut(g as usize) {
                    *slot = true;
                }
            }
        }
        for (g, here) in present.iter().enumerate() {
            if !here && self.locs[g].shard != PointLoc::GONE.shard {
                self.locs[g] = PointLoc::GONE;
                self.generations[g] = self.generations[g].wrapping_add(1);
            }
        }
        // Re-derive the free list as exactly the retired entries — the
        // heal may have both retired entries and revived free-listed
        // ones (a repaired directory entry).
        self.free_globals = self
            .locs
            .iter()
            .enumerate()
            .filter(|(_, loc)| loc.shard == PointLoc::GONE.shard)
            .map(|(g, _)| g as u32)
            .collect();
        if self.shards.iter().all(|s| !s.quarantined) {
            self.num_points = self.shards.iter().map(|s| s.tree.kd().num_live()).sum();
        }
    }
}

/// A pinned, immutable view of a [`ShardRouter`]'s searchable state:
/// the shard list (shared `Arc`s), mode and error-bound LUT — everything
/// queries touch, nothing mutation needs.
///
/// Obtained from [`ShardRouter::snapshot`] and typically published
/// through an [`EpochPublisher`](crate::EpochPublisher): readers pin an
/// epoch's snapshot and search it from any thread
/// (`RouterSnapshot: Send + Sync`) while the live router ingests the
/// next frame. Results are bit-identical — values, order and
/// [`SearchStats`] — to searching the router frozen at snapshot time,
/// because both run the exact same routed kernel over the exact same
/// shard `Arc`s.
#[derive(Debug, Clone)]
pub struct RouterSnapshot {
    shards: Vec<Arc<Shard>>,
    mode: EngineMode,
    num_points: usize,
    lut: PartErrorMem,
    /// Route BVH over the healthy shard boxes, frozen with them.
    routes: Arc<RouteIndex>,
}

impl RouterSnapshot {
    /// The leaf representation every shard scans.
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// Number of shards in the snapshot.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Live points at snapshot time.
    pub fn num_points(&self) -> usize {
        self.num_points
    }

    /// The coverage this snapshot serves — frozen at snapshot time.
    pub fn coverage(&self) -> Coverage {
        let offline: Vec<Aabb> = self
            .shards
            .iter()
            .filter(|s| s.quarantined)
            .map(|s| s.aabb)
            .collect();
        Coverage {
            complete: offline.is_empty(),
            offline,
        }
    }

    /// Answers one query exactly as [`ShardRouter::search_one`] would
    /// have at snapshot time: `out` cleared, hits re-indexed to global
    /// indices, canonical ascending order.
    pub fn search_one(
        &self,
        query: Point3,
        radius: f32,
        scratch: &mut SearchScratch,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) {
        out.clear();
        self.search_append(query, radius, scratch, out, stats);
    }

    /// The appending per-query kernel (the closure shape
    /// [`QueryBatch::push_query`] consumes): hits append to `out`
    /// without clearing it, in canonical order per query. This is the
    /// entry point the `bonsai-serve` batch executor drives.
    pub fn search_append(
        &self,
        query: Point3,
        radius: f32,
        scratch: &mut SearchScratch,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) {
        append_routed(
            &self.shards,
            &self.lut,
            Some(&self.routes),
            query,
            radius,
            scratch,
            out,
            stats,
        );
    }

    /// Answers every query in one call, filling `batch` (reset first) —
    /// [`ShardRouter::search_batch`] frozen at snapshot time.
    pub fn search_batch(&self, queries: &[Point3], radius: f32, batch: &mut QueryBatch) {
        batch.reset();
        for &query in queries {
            batch.push_query(|scratch, out, stats| {
                self.search_append(query, radius, scratch, out, stats);
            });
        }
    }

    /// [`search_batch`](RouterSnapshot::search_batch) fanned out over
    /// scoped worker threads as
    /// [`ShardRouter::search_batch_parallel`] does, identical output and
    /// stats.
    #[cfg(feature = "parallel")]
    pub fn search_batch_parallel(
        &self,
        queries: &[Point3],
        radius: f32,
        batch: &mut QueryBatch,
        threads: usize,
    ) {
        crate::fanout::search_batch_across_threads(queries, radius, batch, threads, |q, r, b| {
            self.search_batch(q, r, b)
        });
    }

    /// [`search_one`](RouterSnapshot::search_one) behind the typed
    /// serving boundary: [`QueryError::NoCoverage`] when the snapshot
    /// is non-empty but every shard is quarantined.
    pub fn try_search_one(
        &self,
        query: Point3,
        radius: f32,
        scratch: &mut SearchScratch,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
    ) -> Result<(), QueryError> {
        coverage_gate(&self.shards)?;
        self.search_one(query, radius, scratch, out, stats);
        Ok(())
    }

    /// [`search_batch`](RouterSnapshot::search_batch) behind the typed
    /// serving boundary. On error the batch is left reset.
    pub fn try_search_batch(
        &self,
        queries: &[Point3],
        radius: f32,
        batch: &mut QueryBatch,
    ) -> Result<(), QueryError> {
        batch.reset();
        coverage_gate(&self.shards)?;
        self.search_batch(queries, radius, batch);
        Ok(())
    }
}

/// A flat skip-pointer BVH over the healthy shards' bounding boxes:
/// the routing accelerator that keeps per-query dispatch `O(log K +
/// hits)` instead of a linear scan of all `K` shard boxes, both when a
/// batch is routed and when each query is served off a snapshot.
///
/// Nodes are stored in preorder; `skip` jumps past a node's whole
/// subtree when the query ball misses its box. A leaf carries the
/// shard's position in the shard list and **its exact bounding box**,
/// so the accepted shard set is bit-identical to the linear
/// `intersects_ball` scan (interior nodes only ever prune shards the
/// scan would also reject). Quarantined and empty shards are excluded
/// at build time, mirroring the scan's skip.
///
/// Built per [`ShardRouter::search_batch`] call (the list may mutate
/// between calls) and cached inside each immutable [`RouterSnapshot`]
/// (the serving path routes single queries, so it must not pay a
/// per-query build).
#[derive(Debug)]
struct RouteIndex {
    nodes: Vec<RouteNode>,
}

#[derive(Debug, Clone, Copy)]
struct RouteNode {
    aabb: Aabb,
    /// Preorder index just past this node's subtree: where the walk
    /// resumes when the query ball misses `aabb`.
    skip: u32,
    /// Leaf payload — the shard's index in the shard list — or
    /// `u32::MAX` for an interior node.
    shard: u32,
}

impl RouteIndex {
    fn build(shards: &[Arc<Shard>]) -> RouteIndex {
        let mut entries: Vec<(u32, Aabb)> = shards
            .iter()
            .enumerate()
            // An empty shard's inverted box can never intersect a ball;
            // a quarantined shard must not be searched.
            .filter(|(_, s)| !s.quarantined && s.aabb.min.x <= s.aabb.max.x)
            .map(|(i, s)| (i as u32, s.aabb))
            .collect();
        let mut nodes = Vec::with_capacity(entries.len().saturating_mul(2));
        if !entries.is_empty() {
            build_route_nodes(&mut entries, &mut nodes);
        }
        RouteIndex { nodes }
    }

    /// Calls `f` for every shard whose box the query ball intersects —
    /// exactly the set the linear scan accepts, in preorder.
    fn for_each_hit(&self, query: Point3, r_sq: f32, mut f: impl FnMut(usize)) {
        let mut i = 0usize;
        while let Some(n) = self.nodes.get(i) {
            if n.aabb.intersects_ball(query, r_sq) {
                if n.shard != u32::MAX {
                    f(n.shard as usize);
                }
                i += 1;
            } else {
                i = n.skip as usize;
            }
        }
    }
}

/// Recursive preorder build: union box, median split of the entries by
/// box center along the union's widest axis. `entries` is never empty.
fn build_route_nodes(entries: &mut [(u32, Aabb)], nodes: &mut Vec<RouteNode>) {
    let aabb = entries[1..]
        .iter()
        .fold(entries[0].1, |acc, (_, b)| acc.union(b));
    let me = nodes.len();
    nodes.push(RouteNode {
        aabb,
        skip: 0,
        shard: if entries.len() == 1 {
            entries[0].0
        } else {
            u32::MAX
        },
    });
    if entries.len() > 1 {
        let axis = aabb.widest_axis();
        let mid = entries.len() / 2;
        entries.select_nth_unstable_by(mid, |a, b| {
            a.1.center()[axis].total_cmp(&b.1.center()[axis])
        });
        let (lo, hi) = entries.split_at_mut(mid);
        build_route_nodes(lo, nodes);
        build_route_nodes(hi, nodes);
    }
    nodes[me].skip = nodes.len() as u32;
}

/// The routed per-query kernel shared by [`ShardRouter`] and
/// [`RouterSnapshot`]: searches every healthy intersecting shard,
/// re-indexes its hits to global indices, sorts the query's merged hits
/// into canonical ascending-index order.
#[allow(clippy::too_many_arguments)] // the flattened router state
fn append_routed(
    shards: &[Arc<Shard>],
    lut: &PartErrorMem,
    routes: Option<&RouteIndex>,
    query: Point3,
    radius: f32,
    scratch: &mut SearchScratch,
    out: &mut Vec<Neighbor>,
    stats: &mut SearchStats,
) {
    // Same up-front rejection as the traversal layer, so a
    // degenerate radius or a non-finite query center skips even the
    // AABB walk. Without the center guard the router could diverge
    // from the single-tree engine: `Aabb::intersects_ball` with a
    // NaN center is false for every box (no shard searched), while
    // an ∞ center makes the distance arithmetic produce NaN
    // (∞ − ∞) for boxes that "contain" the coordinate.
    if !bonsai_kdtree::radius_is_searchable(radius) || !bonsai_kdtree::query_is_searchable(query) {
        return;
    }
    let r_sq = radius * radius;
    let start = out.len();
    let mut search_shard = |shard: &Shard| {
        let before = out.len();
        append_hits(
            shard.tree.kd(),
            shard.tree.bonsai(),
            lut,
            query,
            radius,
            scratch,
            out,
            stats,
        );
        for n in &mut out[before..] {
            n.index = shard.global[n.index as usize];
        }
    };
    match routes {
        // Batched and snapshot-serving paths: the prebuilt route BVH
        // accepts exactly the shards the scan below would.
        Some(routes) => routes.for_each_hit(query, r_sq, |i| search_shard(&shards[i])),
        None => {
            for shard in shards {
                // Quarantined shards are skipped outright: their trees
                // are suspect, coverage() reports the offline region.
                if shard.quarantined || !shard.aabb.intersects_ball(query, r_sq) {
                    continue;
                }
                search_shard(shard);
            }
        }
    }
    // Global indices are unique, so the sort key is total and the
    // canonical order is independent of the shard layout.
    out[start..].sort_unstable_by_key(|n| n.index);
}

/// The typed-error gate of the `try_` search variants: `Err` exactly
/// when the shard set is non-empty and wholly quarantined — the one
/// state where a plain search's empty answer would be silently wrong
/// rather than authoritative.
fn coverage_gate(shards: &[Arc<Shard>]) -> Result<(), QueryError> {
    if !shards.is_empty() && shards.iter().all(|s| s.quarantined) {
        return Err(QueryError::NoCoverage {
            offline: shards.iter().map(|s| s.aabb).collect(),
        });
    }
    Ok(())
}

/// Deterministic fault-injection hooks for the chaos test suite: each
/// corrupts live router state in a way the audit is contracted to
/// catch, returning the shard attributed (or `None` when the router
/// offers no applicable site). Never compiled into default builds.
#[cfg(feature = "chaos")]
impl ShardRouter {
    /// Tries the per-tree fault on each healthy shard (starting from a
    /// seeded pick) until one applies.
    fn chaos_try(
        &mut self,
        rng: &mut bonsai_kdtree::ChaosRng,
        mut f: impl FnMut(&mut ShardTree, &mut bonsai_kdtree::ChaosRng) -> bool,
    ) -> Option<usize> {
        let candidates: Vec<usize> = (0..self.shards.len())
            .filter(|&i| !self.shards[i].quarantined)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let start = rng.below(candidates.len());
        for k in 0..candidates.len() {
            let si = candidates[(start + k) % candidates.len()];
            // lint: allow(cow-discipline) — seeded fault injection
            // deliberately mutates a live tree to plant corruption;
            // bypassing the dirty gate is the point of the exercise.
            if f(&mut Arc::make_mut(&mut self.shards[si]).tree, rng) {
                return Some(si);
            }
        }
        None
    }

    /// Duplicates a `vind` entry inside one shard tree's leaf.
    pub fn chaos_duplicate_vind(&mut self, rng: &mut bonsai_kdtree::ChaosRng) -> Option<usize> {
        self.chaos_try(rng, |t, rng| match t {
            ShardTree::Baseline(k) => k.chaos_duplicate_vind(rng),
            ShardTree::Bonsai(b) => b.chaos_duplicate_vind(rng),
        })
    }

    /// Skews one interior divider past its split value.
    pub fn chaos_skew_divider(&mut self, rng: &mut bonsai_kdtree::ChaosRng) -> Option<usize> {
        self.chaos_try(rng, |t, rng| match t {
            ShardTree::Baseline(k) => k.chaos_skew_divider(rng),
            ShardTree::Bonsai(b) => b.chaos_skew_divider(rng),
        })
    }

    /// Skews one shard tree's garbage-slot counter.
    pub fn chaos_skew_garbage(&mut self, rng: &mut bonsai_kdtree::ChaosRng) -> Option<usize> {
        self.chaos_try(rng, |t, rng| match t {
            ShardTree::Baseline(k) => k.chaos_skew_garbage(rng),
            ShardTree::Bonsai(b) => b.chaos_skew_garbage(rng),
        })
    }

    /// Flips one f16-approximate row bit (Bonsai shards only).
    pub fn chaos_flip_f16(&mut self, rng: &mut bonsai_kdtree::ChaosRng) -> Option<usize> {
        self.chaos_try(rng, |t, rng| match t {
            ShardTree::Baseline(_) => false,
            ShardTree::Bonsai(b) => b.chaos_flip_f16(rng),
        })
    }

    /// Redirects one compressed-directory reference past its byte
    /// array (Bonsai shards only).
    pub fn chaos_truncate_directory(&mut self, rng: &mut bonsai_kdtree::ChaosRng) -> Option<usize> {
        self.chaos_try(rng, |t, rng| match t {
            ShardTree::Baseline(_) => false,
            ShardTree::Bonsai(b) => b.chaos_truncate_directory(rng),
        })
    }

    /// Breaks one global→(shard, local) directory entry: a mapped
    /// global routed to a healthy shard gets a local index no shard
    /// slot can hold.
    pub fn chaos_break_directory(&mut self, rng: &mut bonsai_kdtree::ChaosRng) -> Option<usize> {
        let candidates: Vec<usize> = self
            .locs
            .iter()
            .enumerate()
            .filter(|(_, loc)| {
                loc.shard != PointLoc::GONE.shard
                    && (loc.shard as usize) < self.shards.len()
                    && !self.shards[loc.shard as usize].quarantined
            })
            .map(|(g, _)| g)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let g = candidates[rng.below(candidates.len())];
        let si = self.locs[g].shard as usize;
        self.locs[g].local = u32::MAX - 1;
        Some(si)
    }
}

/// Median-cut spatial partition: repeatedly splits the most populous
/// part at the median of its bounding box's widest axis until `k`
/// non-empty parts exist (or every part is a single point). Each part's
/// global indices are returned sorted ascending, and the parts
/// themselves ordered by their smallest index, so the layout is
/// deterministic.
fn median_cut(points: &[Point3], k: usize) -> Vec<Vec<u32>> {
    if points.is_empty() {
        return Vec::new();
    }
    let mut parts: Vec<Vec<u32>> = vec![(0..points.len() as u32).collect()];
    while parts.len() < k {
        let (widest, _) = parts
            .iter()
            .enumerate()
            .max_by_key(|(_, p)| p.len())
            // lint: allow(panic-free-serving) — `parts` starts with
            // one partition and only ever splits; it is never empty.
            .expect("parts is non-empty");
        if parts[widest].len() < 2 {
            break; // Only single-point parts remain.
        }
        let mut part = parts.swap_remove(widest);
        // lint: allow(panic-free-serving) — the split-candidate part
        // was just checked to hold ≥ 2 points, so its box exists.
        let bbox =
            Aabb::from_points(part.iter().map(|&i| points[i as usize])).expect("non-empty part");
        let axis = bbox.widest_axis();
        let mid = part.len() / 2;
        part.select_nth_unstable_by(mid, |&a, &b| {
            points[a as usize][axis].total_cmp(&points[b as usize][axis])
        });
        let right = part.split_off(mid);
        parts.push(part);
        parts.push(right);
    }
    for p in &mut parts {
        p.sort_unstable();
    }
    parts.sort_unstable_by_key(|p| p[0]);
    parts
}

/// Builds one shard's tree (and, under Bonsai, its compressed
/// directory) from its owned point set.
fn build_shard(global: Vec<u32>, pts: Vec<Point3>, cfg: KdTreeConfig, mode: EngineMode) -> Shard {
    build_shard_threaded(global, pts, cfg, mode, 1)
}

/// [`build_shard`] with `inner_threads` workers fanning the top levels
/// of the single shard's build recursion (the dinotree idiom; the
/// resulting tree is identical to the sequential build's). Used when
/// the router has fewer shards than threads — e.g. a one-shard
/// streaming index on a many-core box.
fn build_shard_threaded(
    global: Vec<u32>,
    pts: Vec<Point3>,
    cfg: KdTreeConfig,
    mode: EngineMode,
    inner_threads: usize,
) -> Shard {
    // lint: allow(panic-free-serving) — the median cut never emits an
    // empty shard, so the bounding box always exists.
    let aabb = Aabb::from_points(pts.iter().copied()).expect("shards are non-empty");
    let tree = if inner_threads > 1 {
        match mode {
            EngineMode::Baseline => {
                ShardTree::Baseline(KdTree::build_parallel(pts, cfg, inner_threads))
            }
            EngineMode::Compressed => {
                ShardTree::Bonsai(BonsaiTree::build_parallel(pts, cfg, inner_threads))
            }
        }
    } else {
        let mut sim = SimEngine::disabled();
        match mode {
            EngineMode::Baseline => ShardTree::Baseline(KdTree::build(pts, cfg, &mut sim)),
            EngineMode::Compressed => ShardTree::Bonsai(BonsaiTree::build(pts, cfg, &mut sim)),
        }
    };
    Shard {
        aabb,
        global,
        tree,
        quarantined: false,
        pending_deletes: Vec::new(),
    }
}

/// Builds every shard, fanning out over scoped threads when the
/// `parallel` feature is enabled and more than one thread is requested.
#[cfg(feature = "parallel")]
fn build_shards(
    inputs: Vec<(Vec<u32>, Vec<Point3>)>,
    cfg: KdTreeConfig,
    mode: EngineMode,
    threads: usize,
) -> Vec<Shard> {
    let requested = crate::fanout::requested_threads(threads);
    let threads = crate::fanout::resolve_threads(threads, inputs.len());
    let total: usize = inputs.iter().map(|(global, _)| global.len()).sum();
    let largest = inputs.iter().map(|(global, _)| global.len()).max();
    if threads == 1 || largest.is_some_and(|n| n * threads > total) {
        // One shard, or one shard outweighing a worker's fair share (a
        // rebuild touching one big shard and a few small ones): build
        // the shards one after another and give each shard's own build
        // recursion the parallelism instead (subtree fan-out).
        return inputs
            .into_iter()
            .map(|(global, pts)| build_shard_threaded(global, pts, cfg, mode, requested))
            .collect();
    }
    let chunk = inputs.len().div_ceil(threads);
    let mut chunks: Vec<Vec<(Vec<u32>, Vec<Point3>)>> = Vec::with_capacity(threads);
    let mut iter = inputs.into_iter();
    loop {
        let c: Vec<_> = iter.by_ref().take(chunk).collect();
        if c.is_empty() {
            break;
        }
        chunks.push(c);
    }
    // Workers beyond one-per-shard go into each shard's own build
    // recursion (e.g. 2 shards on an 8-core box: 2 workers × 4 inner
    // threads instead of 6 idle cores).
    let inner = (requested / threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| {
                scope.spawn(move || -> Vec<Shard> {
                    c.into_iter()
                        .map(|(global, pts)| build_shard_threaded(global, pts, cfg, mode, inner))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            // lint: allow(panic-free-serving) — join() only fails when
            // the worker itself panicked; re-raising that panic is the
            // correct propagation, not an input condition.
            .flat_map(|h| h.join().expect("shard build worker panicked"))
            .collect()
    })
}

#[cfg(not(feature = "parallel"))]
fn build_shards(
    inputs: Vec<(Vec<u32>, Vec<Point3>)>,
    cfg: KdTreeConfig,
    mode: EngineMode,
    _threads: usize,
) -> Vec<Shard> {
    inputs
        .into_iter()
        .map(|(global, pts)| build_shard(global, pts, cfg, mode))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RadiusSearchEngine;

    fn urban_cloud(n: usize, seed: u64) -> Vec<Point3> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f32 / (1u64 << 53) as f32
        };
        (0..n)
            .map(|_| {
                let cluster = (next() * 12.0).floor();
                Point3::new(
                    (cluster - 6.0) * 15.0 + next() * 3.0,
                    (next() - 0.5) * 60.0,
                    next() * 2.5,
                )
            })
            .collect()
    }

    fn sorted(mut hits: Vec<Neighbor>) -> Vec<Neighbor> {
        hits.sort_unstable_by_key(|n| n.index);
        hits
    }

    #[test]
    fn median_cut_partitions_every_point_once() {
        let cloud = urban_cloud(1000, 1);
        for k in [1, 2, 3, 7, 16] {
            let parts = median_cut(&cloud, k);
            assert_eq!(parts.len(), k);
            let mut seen = vec![false; cloud.len()];
            for p in &parts {
                assert!(!p.is_empty());
                for &i in p {
                    assert!(!seen[i as usize], "point {i} in two shards");
                    seen[i as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
            // Median splits keep shards balanced within 2×.
            let min = parts.iter().map(Vec::len).min().unwrap();
            let max = parts.iter().map(Vec::len).max().unwrap();
            assert!(max <= 2 * min, "k {k}: {min}..{max}");
        }
    }

    #[test]
    fn more_shards_than_points_caps_at_one_point_each() {
        let cloud = urban_cloud(5, 2);
        let parts = median_cut(&cloud, 64);
        assert_eq!(parts.len(), 5);
        assert!(parts.iter().all(|p| p.len() == 1));
    }

    #[test]
    fn empty_cloud_builds_an_empty_router() {
        let router = ShardRouter::bonsai(&[], KdTreeConfig::default(), ShardConfig::with_shards(4));
        assert_eq!(router.num_shards(), 0);
        let mut batch = QueryBatch::new();
        router.search_batch(&[Point3::ZERO], 1.0, &mut batch);
        assert_eq!(batch.num_queries(), 1);
        assert_eq!(batch.total_matches(), 0);
    }

    #[test]
    fn router_matches_single_tree_engine_values() {
        let cloud = urban_cloud(3000, 3);
        let mut sim = SimEngine::disabled();
        let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
        let engine = RadiusSearchEngine::bonsai(&tree);
        let router =
            ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(6));
        let queries: Vec<Point3> = cloud.iter().step_by(17).copied().collect();

        let mut single = QueryBatch::new();
        engine.search_batch(&queries, 1.2, &mut single);
        let mut sharded = QueryBatch::new();
        router.search_batch(&queries, 1.2, &mut sharded);

        assert_eq!(sharded.num_queries(), single.num_queries());
        for i in 0..single.num_queries() {
            assert_eq!(
                sharded.results(i),
                &sorted(single.results(i).to_vec())[..],
                "query {i}"
            );
        }
    }

    #[test]
    fn degenerate_radii_are_empty_through_the_router() {
        let cloud = urban_cloud(500, 4);
        let router = ShardRouter::baseline(&cloud, KdTreeConfig::default(), ShardConfig::default());
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        router.search_one(cloud[0], 1.0, &mut scratch, &mut out, &mut stats);
        assert!(!out.is_empty());
        for r in [0.0f32, -1.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut stats = SearchStats::default();
            router.search_one(cloud[0], r, &mut scratch, &mut out, &mut stats);
            assert!(out.is_empty(), "radius {r}");
            assert_eq!(stats, SearchStats::default(), "radius {r}");
        }
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_router_batch_is_identical_to_sequential() {
        let cloud = urban_cloud(2000, 9);
        let mut router =
            ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(5));
        // Healthy, then with one shard quarantined (skipped by routing);
        // 64 workers is more than there are shards.
        for quarantined in [false, true] {
            if quarantined {
                router.quarantine(1);
            }
            let mut sequential = QueryBatch::new();
            router.search_batch(&cloud, 0.9, &mut sequential);
            for threads in [0, 1, 2, 3, 7, 64] {
                let mut parallel = QueryBatch::new();
                router.search_batch_parallel(&cloud, 0.9, &mut parallel, threads);
                let label = format!("quarantined {quarantined} threads {threads}");
                assert_eq!(parallel.num_queries(), sequential.num_queries(), "{label}");
                for i in 0..sequential.num_queries() {
                    assert_eq!(
                        parallel.results(i),
                        sequential.results(i),
                        "{label} query {i}"
                    );
                }
                assert_eq!(parallel.stats(), sequential.stats(), "{label}");
            }
        }
        // Degenerate inputs: an empty batch, and a NaN radius over a
        // batch large enough to fan out.
        let mut batch = QueryBatch::new();
        router.search_batch_parallel(&[], 0.9, &mut batch, 4);
        assert_eq!(batch.num_queries(), 0);
        router.search_batch_parallel(&cloud, f32::NAN, &mut batch, 4);
        assert_eq!(batch.num_queries(), cloud.len());
        assert_eq!(batch.total_matches(), 0);
        assert_eq!(*batch.stats(), SearchStats::default());
    }

    /// Routed incremental updates must keep the router bit-identical to
    /// a fresh single-tree engine over the live points.
    #[test]
    fn routed_updates_match_fresh_single_tree() {
        let cloud = urban_cloud(2000, 21);
        let mut router =
            ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(5));
        let added = urban_cloud(250, 22);
        let removed: Vec<u32> = (0..250u32).map(|i| i * 13 % 2000).collect();
        let inserted = router.apply_update(&added, &removed);
        assert_eq!(inserted.len(), 250);
        assert_eq!(router.num_points(), 2000 - removed.len() + 250);

        // The live global cloud, by ascending global index.
        let mut live: Vec<(u32, Point3)> = Vec::new();
        for (si, shard) in router.shards.iter().enumerate() {
            for (local, &global) in shard.global.iter().enumerate() {
                if shard.tree.kd().is_live(local as u32) {
                    let p = shard.tree.kd().points()[local];
                    live.push((global, p));
                    assert_eq!(router.locs[global as usize].shard, si as u32);
                }
            }
        }
        live.sort_unstable_by_key(|&(g, _)| g);
        assert_eq!(live.len(), router.num_points());
        let live_pts: Vec<Point3> = live.iter().map(|&(_, p)| p).collect();
        let mut sim = SimEngine::disabled();
        let fresh = BonsaiTree::build(live_pts, KdTreeConfig::default(), &mut sim);
        let engine = RadiusSearchEngine::bonsai(&fresh);

        let mut scratch = SearchScratch::new();
        let mut got = Vec::new();
        let mut expect = Vec::new();
        for (qi, q) in urban_cloud(30, 23).into_iter().enumerate() {
            let mut stats = SearchStats::default();
            router.search_one(q, 1.4, &mut scratch, &mut got, &mut stats);
            let mut fresh_stats = SearchStats::default();
            engine.search_one(q, 1.4, &mut scratch, &mut expect, &mut fresh_stats);
            let remapped = sorted(
                expect
                    .iter()
                    .map(|n| Neighbor {
                        index: live[n.index as usize].0,
                        dist_sq: n.dist_sq,
                    })
                    .collect(),
            );
            assert_eq!(got, remapped, "query {qi}");
        }
    }

    /// An insert outside every shard box grows the nearest shard's box
    /// so query routing keeps finding the point.
    #[test]
    fn out_of_bounds_insert_grows_a_shard_box() {
        let cloud = urban_cloud(600, 25);
        let mut router =
            ShardRouter::baseline(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(4));
        let far = Point3::new(500.0, 500.0, 50.0);
        assert!(router.shard_bounds().all(|b| !b.intersects_ball(far, 0.01)));
        let idx = router.insert(far).unwrap();
        router.commit();
        assert!(router.shard_bounds().any(|b| b.intersects_ball(far, 0.0)));
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        router.search_one(far, 1.0, &mut scratch, &mut out, &mut stats);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].index, idx);
    }

    /// Inserting into an empty router bootstraps a shard; non-finite
    /// inserts and dead deletes stay rejected.
    #[test]
    fn empty_router_bootstraps_and_guards_degenerate_mutations() {
        let mut router =
            ShardRouter::bonsai(&[], KdTreeConfig::default(), ShardConfig::with_shards(4));
        assert!(router.insert(Point3::new(f32::NAN, 0.0, 0.0)).is_none());
        assert!(!router.delete(0), "delete on an empty router");
        let idx = router.insert(Point3::new(1.0, 2.0, 3.0)).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(router.num_shards(), 1);
        router.commit();
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        router.search_one(
            Point3::new(1.0, 2.0, 3.0),
            0.5,
            &mut scratch,
            &mut out,
            &mut stats,
        );
        assert_eq!(out.len(), 1);
        assert!(router.delete(idx));
        assert!(!router.delete(idx), "double delete");
        assert_eq!(router.num_points(), 0);
    }

    /// Regression (query-center guard): a NaN center must be empty with
    /// zero stats — before the guard `intersects_ball` was false for
    /// every box under NaN (silently empty by accident) while an ∞
    /// center made the box distance arithmetic produce NaN, so the
    /// router's behavior was undefined relative to the single-tree
    /// engine's.
    #[test]
    fn non_finite_query_centers_are_empty_through_the_router() {
        let cloud = urban_cloud(600, 6);
        let router = ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::default());
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        for q in [
            Point3::new(f32::NAN, 0.0, 0.0),
            Point3::new(0.0, f32::INFINITY, 0.0),
            Point3::new(0.0, 0.0, f32::NEG_INFINITY),
        ] {
            let mut stats = SearchStats::default();
            router.search_one(q, 1.0, &mut scratch, &mut out, &mut stats);
            assert!(out.is_empty(), "query {q:?}");
            assert_eq!(stats, SearchStats::default(), "query {q:?} did work");
        }
        let mut batch = QueryBatch::new();
        router.search_batch(&[Point3::new(f32::NAN, 0.0, 0.0)], 1.0, &mut batch);
        assert_eq!(batch.num_queries(), 1);
        assert_eq!(batch.total_matches(), 0);
        assert_eq!(*batch.stats(), SearchStats::default());
    }

    /// The satellite pinning test: deletes leave shard boxes over-grown
    /// (queries in the emptied region still pay traversal work), and a
    /// rolling rebuild re-tightens them back to the rebuilt-router
    /// baseline — here, a region whose points are all gone routes **no**
    /// work at all afterwards.
    #[test]
    fn rebuild_retightens_overgrown_shard_boxes() {
        // Two well-separated blobs → 2 shards, one per blob.
        let mut cloud: Vec<Point3> = (0..400)
            .map(|i| Point3::new((i % 20) as f32 * 0.1, (i / 20) as f32 * 0.1, 1.0))
            .collect();
        let far_base = cloud.len() as u32;
        cloud.extend(
            (0..400)
                .map(|i| Point3::new(500.0 + (i % 20) as f32 * 0.1, (i / 20) as f32 * 0.1, 1.0)),
        );
        let mut router =
            ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(2));
        let probe = Point3::new(500.5, 0.5, 1.0);

        // Delete the whole far blob.
        for g in far_base..far_base + 400 {
            assert!(router.delete(g));
        }
        router.commit();
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        let mut stale_stats = SearchStats::default();
        router.search_one(probe, 0.5, &mut scratch, &mut out, &mut stale_stats);
        assert!(out.is_empty());
        assert!(
            stale_stats.nodes_visited > 0,
            "the over-grown box should still route the probe into the emptied shard"
        );

        // Rolling rebuild over every shard re-tightens the boxes.
        for i in 0..router.num_shards() {
            router.rebuild_shard(i);
        }
        let mut tight_stats = SearchStats::default();
        router.search_one(probe, 0.5, &mut scratch, &mut out, &mut tight_stats);
        assert!(out.is_empty());
        assert_eq!(
            tight_stats,
            SearchStats::default(),
            "after re-tightening, the emptied region routes no work — the rebuilt-router baseline"
        );

        // Near-blob queries still answer identically, and the emptied
        // shard revives on insert.
        let near = cloud[30];
        let mut stats = SearchStats::default();
        router.search_one(near, 0.3, &mut scratch, &mut out, &mut stats);
        assert!(out.iter().any(|n| n.index == 30));
        let idx = router.insert(probe).unwrap();
        router.commit();
        router.search_one(probe, 0.1, &mut scratch, &mut out, &mut stats);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].index, idx);
    }

    /// Rolling rebuilds keep results bit-identical, reclaim dead
    /// points + garbage slots, and keep later mutations safe (a dead
    /// global must not resolve to a recycled local slot).
    #[test]
    fn rebuild_shard_preserves_results_and_guards_dead_globals() {
        let cloud = urban_cloud(2000, 31);
        let mut router =
            ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(4));
        let added = urban_cloud(300, 32);
        let removed: Vec<u32> = (0..300u32).map(|i| i * 11 % 2000).collect();
        router.apply_update(&added, &removed);

        let queries: Vec<Point3> = cloud.iter().step_by(37).copied().collect();
        let mut before = QueryBatch::new();
        router.search_batch(&queries, 1.3, &mut before);
        let bytes_before = router.resident_bytes();

        for i in 0..router.num_shards() {
            router.rebuild_shard(i);
        }
        assert_eq!(router.garbage_slots(), 0, "rebuilds drop garbage slots");
        assert!(
            router.resident_bytes() < bytes_before,
            "rebuilds reclaim dead-point storage"
        );
        let mut after = QueryBatch::new();
        router.search_batch(&queries, 1.3, &mut after);
        for i in 0..before.num_queries() {
            assert_eq!(after.results(i), before.results(i), "query {i} moved");
        }

        // Dead globals stay dead (their reclaimed local slots now name
        // other live points — deleting them again must be a no-op)…
        for &g in removed.iter().take(50) {
            assert!(!router.delete(g), "dead global {g} deleted twice");
        }
        // …and live globals keep routing.
        let live_probe = (0..2000u32).find(|g| !removed.contains(g)).unwrap();
        assert!(router.delete(live_probe));
        assert!(!router.delete(live_probe));
        router.commit();
    }

    /// An emptied-and-rebuilt shard (inverted box, infinitely far from
    /// everything under distance routing) must be revived by the next
    /// out-of-box insert instead of a populated shard's box stretching
    /// across the emptied region — otherwise the over-broad routing the
    /// re-tightening fixed would silently come back, permanently.
    #[test]
    fn out_of_box_inserts_revive_emptied_shards() {
        let mut cloud: Vec<Point3> = (0..300)
            .map(|i| Point3::new((i % 20) as f32 * 0.1, (i / 20) as f32 * 0.1, 1.0))
            .collect();
        let far_base = cloud.len() as u32;
        cloud.extend(
            (0..300)
                .map(|i| Point3::new(500.0 + (i % 20) as f32 * 0.1, (i / 20) as f32 * 0.1, 1.0)),
        );
        let mut router =
            ShardRouter::baseline(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(2));
        for g in far_base..far_base + 300 {
            assert!(router.delete(g));
        }
        router.commit();
        router.rebuild_shard(1); // the far shard empties
        assert_eq!(router.shard_sizes().nth(1), Some(0));

        // The stream resumes in the far region: the emptied shard must
        // take the inserts, and the near shard's box must stay tight.
        let near_box_before = router.shard_bounds().next().unwrap();
        let p = Point3::new(500.5, 0.5, 1.0);
        let idx = router.insert(p).unwrap();
        router.commit();
        assert_eq!(
            router.shard_sizes().nth(1),
            Some(1),
            "insert did not revive the emptied shard"
        );
        assert_eq!(
            router.shard_bounds().next().unwrap(),
            near_box_before,
            "near shard's box stretched across the emptied region"
        );
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        router.search_one(p, 0.5, &mut scratch, &mut out, &mut stats);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].index, idx);
        // An in-box insert still routes to its covering shard, not the
        // (now single-point) revived one.
        let covered = cloud[30];
        router.insert(covered).unwrap();
        router.commit();
        assert_eq!(router.shard_sizes().next(), Some(301));
    }

    /// A frame update rebuilds exactly the shards it touches: an
    /// untouched shard keeps the `Arc` a pinned snapshot holds, the
    /// touched one carries no waste, removed globals are retired, and
    /// searches equal a brute-force scan of the live points.
    #[test]
    fn rebuild_update_rebuilds_only_touched_shards() {
        // Two well-separated blobs → 2 shards, one per blob.
        let mut cloud: Vec<Point3> = (0..300)
            .map(|i| Point3::new((i % 20) as f32 * 0.1, (i / 20) as f32 * 0.1, 1.0))
            .collect();
        cloud.extend(
            (0..300)
                .map(|i| Point3::new(500.0 + (i % 20) as f32 * 0.1, (i / 20) as f32 * 0.1, 1.0)),
        );
        let mut router =
            ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(2));
        let near = router.shard_of(0).unwrap();
        let far = 1 - near;
        let pinned = router.snapshot();

        let removed: Vec<u32> = (0..40).collect();
        let added = [
            Point3::new(0.55, 0.55, 1.2),
            Point3::new(f32::NAN, 0.0, 0.0),
        ];
        let generations: Vec<Option<u32>> = removed.iter().map(|&g| router.generation(g)).collect();
        let inserted = router.rebuild_update(&added, &removed);

        assert_eq!(inserted.len(), 2);
        assert_eq!(inserted[1], None, "non-finite addition");
        let g = inserted[0].expect("finite addition is indexed");
        assert!(
            !removed.contains(&g),
            "a removed global was reused by its own update"
        );
        assert_eq!(router.shard_of(g), Some(near));
        assert!(Arc::ptr_eq(&router.shards[far], &pinned.shards[far]));
        assert!(!Arc::ptr_eq(&router.shards[near], &pinned.shards[near]));
        assert_eq!(router.shard_fragmentation(near).0, 0);
        for (&r, &before) in removed.iter().zip(&generations) {
            assert_eq!(router.shard_of(r), None, "removed {r} not retired");
            assert!(router.generation(r) > before);
        }
        assert_eq!(router.num_points(), 600 - 40 + 1);
        assert!(router.audit().is_empty());

        let mut live: Vec<(u32, Point3)> = (40..600u32).map(|i| (i, cloud[i as usize])).collect();
        live.push((g, added[0]));
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        for &q in cloud.iter().step_by(23).chain(&added[..1]) {
            router.search_one(q, 0.35, &mut scratch, &mut out, &mut stats);
            let got: Vec<u32> = out.iter().map(|n| n.index).collect();
            let mut expect: Vec<u32> = live
                .iter()
                .filter(|(_, p)| p.distance_squared(q) <= 0.35 * 0.35)
                .map(|&(i, _)| i)
                .collect();
            expect.sort_unstable();
            assert_eq!(got, expect, "query {q:?}");
        }
    }

    /// The round-robin policy only pays when a shard's waste crosses
    /// the threshold, and one call never rebuilds more than one shard.
    #[test]
    fn compact_next_is_criterion_triggered_and_amortized() {
        let cloud = urban_cloud(1600, 41);
        let mut router =
            ShardRouter::baseline(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(4));
        let policy = CompactionPolicy::default();
        // Fresh router: a full round of checks rebuilds nothing.
        for _ in 0..router.num_shards() {
            assert_eq!(router.compact_next(&policy), None);
        }
        // Delete most points: every shard crosses the waste threshold;
        // each call rebuilds exactly one shard, round robin.
        for g in 0..1400u32 {
            router.delete(g);
        }
        router.commit();
        let mut rebuilt = Vec::new();
        for _ in 0..router.num_shards() {
            if let Some(i) = router.compact_next(&policy) {
                rebuilt.push(i);
            }
        }
        assert_eq!(
            rebuilt.len(),
            router.num_shards(),
            "all shards hollowed out"
        );
        let mut sorted_ids = rebuilt.clone();
        sorted_ids.sort_unstable();
        sorted_ids.dedup();
        assert_eq!(
            sorted_ids.len(),
            rebuilt.len(),
            "a shard rebuilt twice in one round"
        );
        // After the round, everything is clean again.
        for _ in 0..router.num_shards() {
            assert_eq!(router.compact_next(&policy), None);
        }
        // Never-compact policy never fires.
        let off = CompactionPolicy {
            garbage_ratio: f64::INFINITY,
            min_points: usize::MAX,
        };
        assert_eq!(router.compact_next(&off), None);
    }

    #[test]
    fn query_outside_every_shard_box_touches_nothing() {
        let cloud = urban_cloud(800, 5);
        let router =
            ShardRouter::baseline(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(4));
        let far = Point3::new(1.0e6, 1.0e6, 1.0e6);
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        router.search_one(far, 1.0, &mut scratch, &mut out, &mut stats);
        assert!(out.is_empty());
        // No shard box intersects, so not even a root node is visited.
        assert_eq!(stats, SearchStats::default());
    }

    /// Regression: an all-quarantined router used to answer queries
    /// with a silent empty result — indistinguishable from "nothing in
    /// range" even though *zero* indexed space was searched. The `try_`
    /// accessors must surface that as the typed
    /// [`QueryError::NoCoverage`] instead.
    #[test]
    fn all_quarantined_router_is_a_typed_error_not_silent_empty() {
        let cloud = urban_cloud(900, 6);
        let mut router =
            ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(3));
        let probe = cloud[0];
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        let mut stats = SearchStats::default();

        // Healthy: try_ answers exactly like the plain search.
        router
            .try_search_one(probe, 1.0, &mut scratch, &mut out, &mut stats)
            .expect("healthy router serves");
        assert!(!out.is_empty());

        for s in 0..router.num_shards() {
            router.quarantine(s);
        }
        // The old serving surface: silently empty (kept for the
        // partial-quarantine case where skipping IS correct).
        router.search_one(probe, 1.0, &mut scratch, &mut out, &mut stats);
        assert!(out.is_empty());
        // The fixed surface: typed, with the offline regions attached.
        match router.try_search_one(probe, 1.0, &mut scratch, &mut out, &mut stats) {
            Err(QueryError::NoCoverage { offline }) => assert_eq!(offline.len(), 3),
            other => panic!("expected NoCoverage, got {other:?}"),
        }
        let mut batch = QueryBatch::new();
        match router.try_search_batch(&[probe, cloud[1]], 1.0, &mut batch) {
            Err(QueryError::NoCoverage { .. }) => {}
            other => panic!("expected NoCoverage, got {other:?}"),
        }
        assert_eq!(batch.num_queries(), 0, "failed batch must be left reset");

        // The same contract holds through a published snapshot.
        let snap = router.snapshot();
        match snap.try_search_one(probe, 1.0, &mut scratch, &mut out, &mut stats) {
            Err(QueryError::NoCoverage { offline }) => assert_eq!(offline.len(), 3),
            other => panic!("expected NoCoverage, got {other:?}"),
        }

        // Partial quarantine is coverage, not an error: one healed
        // shard serves again.
        let live: Vec<(u32, Point3)> = (0..100u32).map(|g| (g, cloud[g as usize])).collect();
        router.rebuild_shards_from(&[0], &live);
        router
            .try_search_one(probe, 1.0, &mut scratch, &mut out, &mut stats)
            .expect("partial coverage serves");
    }

    /// A snapshot is a point-in-time view: mutations after `snapshot()`
    /// must not leak into it (copy-on-write), and its answers must be
    /// bit-identical to the router as it stood at the snapshot.
    #[test]
    fn snapshot_is_immutable_under_router_mutation() {
        let cloud = urban_cloud(1200, 7);
        let mut router =
            ShardRouter::bonsai(&cloud, KdTreeConfig::default(), ShardConfig::with_shards(4));
        let probe = cloud[42];
        let mut scratch = SearchScratch::new();

        let snap = router.snapshot();
        let mut frozen = Vec::new();
        let mut stats_a = SearchStats::default();
        snap.search_one(probe, 1.1, &mut scratch, &mut frozen, &mut stats_a);
        assert!(frozen.iter().any(|n| n.index == 42));
        assert_eq!(snap.num_points(), router.num_points());

        // Mutate the router hard: delete the probe's own point, insert
        // new ones, commit, rebuild a shard.
        assert!(router.delete(42));
        router.apply_update(&[Point3::new(9.0, 9.0, 9.0)], &[]);
        router.commit();
        router.rebuild_shard(1);

        // The live router no longer returns 42 …
        let mut live = Vec::new();
        let mut stats_b = SearchStats::default();
        router.search_one(probe, 1.1, &mut scratch, &mut live, &mut stats_b);
        assert!(live.iter().all(|n| n.index != 42));

        // … but the pinned snapshot still answers exactly as before,
        // values AND instrumentation.
        let mut again = Vec::new();
        let mut stats_c = SearchStats::default();
        snap.search_one(probe, 1.1, &mut scratch, &mut again, &mut stats_c);
        assert_eq!(frozen, again, "snapshot mutated under the reader");
        assert_eq!(stats_a, stats_c, "snapshot work changed under the reader");
    }
}
