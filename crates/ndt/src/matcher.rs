use std::ops::Range;

use bonsai_core::{fanout, BonsaiLeafProcessor, BonsaiTree, RadiusSearchEngine};
use bonsai_geom::{Mat3, Mat6, Point3, Pose, Vec6};
use bonsai_isa::Machine;
use bonsai_kdtree::{
    BaselineLeafProcessor, KdTree, KdTreeConfig, Neighbor, QueryBatch, SearchScratch, SearchStats,
};
use bonsai_sim::{Kernel, OpClass, SimEngine};

use crate::map::{NdtMap, CELL_STRIDE};

/// Which leaf path the matcher's radius searches use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NdtSearchMode {
    /// Uncompressed `f32` leaves.
    #[default]
    Baseline,
    /// Bonsai-compressed leaves.
    Bonsai,
}

/// Matcher parameters (defaults follow Autoware's `ndt_matching`).
#[derive(Debug, Clone, PartialEq)]
pub struct NdtConfig {
    /// Newton iterations cap.
    pub max_iterations: u32,
    /// Convergence threshold on the update norm.
    pub epsilon: f64,
    /// Magnusson's outlier ratio (mixes a uniform distribution into the
    /// per-cell Gaussians).
    pub outlier_ratio: f64,
    /// Levenberg damping added to the Hessian diagonal.
    pub damping: f64,
    /// Maximum Newton step norm per iteration (PCL's `step_size`
    /// safeguard, in meters/radians of the 6-vector).
    pub max_step: f64,
    /// Use every `stride`-th scan point (Autoware downsamples scans
    /// before matching).
    pub scan_stride: usize,
}

impl Default for NdtConfig {
    fn default() -> NdtConfig {
        NdtConfig {
            max_iterations: 30,
            epsilon: 1e-4,
            outlier_ratio: 0.55,
            damping: 1e-3,
            max_step: 0.1,
            scan_stride: 1,
        }
    }
}

/// The outcome of one alignment.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignResult {
    /// The estimated map-from-vehicle pose.
    pub pose: Pose,
    /// Newton iterations executed.
    pub iterations: u32,
    /// Final NDT score (more negative = better fit).
    pub score: f64,
    /// Whether the update norm fell below epsilon.
    pub converged: bool,
    /// Radius-search work counters.
    pub search_stats: SearchStats,
}

impl AlignResult {
    /// Translation distance between the estimate and a reference pose.
    pub fn translation_error(&self, reference: &Pose) -> f32 {
        self.pose.translation.distance(reference.translation)
    }
}

/// NDT scan-to-map matching with k-d-tree neighbour gathering.
///
/// Each Newton iteration transforms the strided scan with the current
/// pose and gathers every point's neighbour cells. With the simulator
/// disabled (production) the strided scan is split into contiguous
/// ranges through [`bonsai_core::fanout`] (more than one only with the
/// `parallel` feature, at least
/// [`PARALLEL_FRONTIER_MIN`](bonsai_core::fanout::PARALLEL_FRONTIER_MIN)
/// points and more than one core): each worker answers its range with
/// one [`RadiusSearchEngine::search_batch`] call and computes the
/// range's per-point Newton terms, and the terms are then folded in
/// scan-point order. With the simulator enabled, each point walks the
/// instrumented tree through a leaf processor so the simulator records
/// Figure 2's event stream, and its terms go through the same per-point
/// function and the same fold. Both sources return the same neighbours
/// in the same order, so the pose is bit-identical either way, for any
/// worker count.
///
/// See the [crate docs](crate) for the algorithm notes and an example.
#[derive(Debug)]
pub struct NdtMatcher {
    map: NdtMap,
    cfg: NdtConfig,
    index: MapIndex,
    machine: Machine,
    gauss: Gauss,
    /// Per-worker buffers of the batched lookups, reused across
    /// iterations and alignments.
    workers: Vec<RangeWork>,
    /// The instrumented walk's traversal stack and per-point hits.
    scratch: SearchScratch,
    neighbors: Vec<Neighbor>,
}

/// The centroid k-d tree in the requested [`NdtSearchMode`].
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one instance per matcher
enum MapIndex {
    Baseline(KdTree),
    Bonsai(BonsaiTree),
}

impl NdtMatcher {
    /// Builds the matcher: fits the centroid k-d tree in the requested
    /// mode and precomputes Magnusson's mixture constants.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.outlier_ratio` is not strictly between 0 and 1:
    /// the mixture constants are NaN there, and so would every pose be.
    pub fn new(
        sim: &mut SimEngine,
        map: NdtMap,
        cfg: NdtConfig,
        mode: NdtSearchMode,
    ) -> NdtMatcher {
        assert!(
            cfg.outlier_ratio > 0.0 && cfg.outlier_ratio < 1.0,
            "outlier_ratio must lie strictly between 0 and 1, got {}",
            cfg.outlier_ratio
        );
        let centroids = map.centroids();
        let index = match mode {
            NdtSearchMode::Baseline => {
                MapIndex::Baseline(KdTree::build(centroids, KdTreeConfig::default(), sim))
            }
            NdtSearchMode::Bonsai => {
                MapIndex::Bonsai(BonsaiTree::build(centroids, KdTreeConfig::default(), sim))
            }
        };
        // Magnusson 2009, Eq. 6.8: Gaussian + uniform mixture constants.
        // PCL's `gauss_d1_` is negative (it maximizes score); we minimize
        // `f = Σ −d1·exp(−d2/2·qᵀBq)` with the positive magnitude.
        let c = map.resolution() as f64;
        let gauss_c1 = 10.0 * (1.0 - cfg.outlier_ratio);
        let gauss_c2 = cfg.outlier_ratio / (c * c * c);
        let gauss_d3 = -(gauss_c2).ln();
        let d1_pcl = -((gauss_c1 + gauss_c2).ln()) - gauss_d3;
        let d2 = -2.0 * ((-(gauss_c1 * (-0.5f64).exp() + gauss_c2).ln() - gauss_d3) / d1_pcl).ln();
        let d1 = -d1_pcl;
        NdtMatcher {
            map,
            cfg,
            index,
            machine: Machine::new(),
            gauss: Gauss { d1, d2 },
            workers: Vec::new(),
            scratch: SearchScratch::new(),
            neighbors: Vec::new(),
        }
    }

    /// The map.
    pub fn map(&self) -> &NdtMap {
        &self.map
    }

    /// Aligns `scan` (vehicle frame) to the map starting from `guess`,
    /// returning the refined pose.
    ///
    /// A Newton step that comes out non-finite ends the alignment
    /// unconverged, on the last finite pose.
    pub fn align(&mut self, sim: &mut SimEngine, scan: &[Point3], guess: &Pose) -> AlignResult {
        self.align_threads(sim, scan, guess, 0)
    }

    /// [`align`](NdtMatcher::align) with `threads` fan-out workers
    /// requested (`0` = the machine's available parallelism, resolved
    /// by [`fanout::workers`]); the result does not depend on it.
    fn align_threads(
        &mut self,
        sim: &mut SimEngine,
        scan: &[Point3],
        guess: &Pose,
        threads: usize,
    ) -> AlignResult {
        let mut pose = *guess;
        let mut stats = SearchStats::default();
        let mut iterations = 0;
        let mut converged = false;
        let mut score = 0.0;
        let radius = self.map.resolution();
        let stride = self.cfg.scan_stride.max(1);
        let points = scan.len().div_ceil(stride);
        let workers = fanout::workers(points, threads);
        if self.workers.len() < workers {
            self.workers.resize_with(workers, RangeWork::default);
        }
        let scan_addr = sim.alloc(scan.len() as u64 * 16, 64);
        let lookup = Lookup {
            engine: match &self.index {
                MapIndex::Baseline(tree) => RadiusSearchEngine::baseline(tree),
                MapIndex::Bonsai(tree) => RadiusSearchEngine::bonsai(tree),
            },
            map: &self.map,
            gauss: self.gauss,
            scan,
            stride,
            radius,
        };
        let mut walker = sim
            .is_enabled()
            .then(|| Walker::new(sim, &self.index, &mut self.machine));

        for _ in 0..self.cfg.max_iterations {
            iterations += 1;
            let mut sum = NewtonSum::default();
            match walker.as_mut() {
                None => {
                    // Each worker transforms and looks up its range of
                    // the strided scan, then computes the range's terms;
                    // folding the workers in order keeps point order.
                    let at = pose;
                    fanout::for_each_range(points, &mut self.workers[..workers], |range, work| {
                        work.run(&lookup, &at, range)
                    });
                    for work in &self.workers[..workers] {
                        stats += *work.batch.stats();
                        sum.fold(&work.terms);
                    }
                }
                Some(walker) => {
                    // Simulator on: one instrumented walk per point.
                    let terms = &mut self.workers[0].terms;
                    terms.clear();
                    for (i, &p) in scan.iter().enumerate().step_by(stride) {
                        // Transform the point with the current estimate.
                        sim.set_kernel(Kernel::NdtMath);
                        sim.load(scan_addr + i as u64 * 16, 12);
                        sim.exec(OpClass::FpAlu, 18);
                        let rotated = pose.rotation.mul_point(p);
                        let x = rotated + pose.translation;
                        // Neighbour gathering: the radius search of Figure 2.
                        walker.search(
                            sim,
                            x,
                            radius,
                            &mut self.neighbors,
                            &mut stats,
                            &mut self.scratch,
                        );
                        sim.set_kernel(Kernel::NdtMath);
                        for nb in &self.neighbors {
                            sim.load(self.map.cell_addr(nb.index), CELL_STRIDE as u32);
                            sim.exec(OpClass::FpAlu, 90); // q, Bq, score, J products
                        }
                        terms.push(&self.map, self.gauss, x, rotated, &self.neighbors);
                    }
                    sum.fold(terms);
                }
            }
            score = sum.score;

            sim.set_kernel(Kernel::NdtMath);
            sim.exec(OpClass::FpAlu, 300); // 6×6 solve
            let mut hessian = sum.hessian();
            hessian.add_diagonal(self.cfg.damping + 1e-9);
            let Some(mut delta) = hessian.solve(Vec6(sum.gradient) * -1.0) else {
                break;
            };
            // Step safeguard (PCL clamps the Newton step the same way).
            let norm = delta.norm();
            if norm > self.cfg.max_step {
                delta = delta * (self.cfg.max_step / norm);
            }
            // A NaN or infinite step would poison the pose: stop on the
            // last finite one, unconverged.
            if !delta.is_finite() {
                break;
            }
            // Apply: t += δt; R = ΔR(δω)·R.
            let delta_rot = Mat3::from_euler(delta[3], delta[4], delta[5]);
            let new_rot = delta_rot * pose.rotation;
            let new_t =
                pose.translation + Point3::new(delta[0] as f32, delta[1] as f32, delta[2] as f32);
            pose = Pose::from_translation_rotation(new_t, new_rot);
            if delta.norm() < self.cfg.epsilon {
                converged = true;
                break;
            }
        }
        sim.set_kernel(Kernel::Other);
        AlignResult {
            pose,
            iterations,
            score,
            converged,
            search_stats: stats,
        }
    }
}

/// Magnusson's mixture constants: a neighbour cell scores `−d1·e` and
/// weighs `d1·d2·e` in the gradient and Hessian, `e = exp(−d2/2·qᵀBq)`.
#[derive(Debug, Clone, Copy)]
struct Gauss {
    d1: f64,
    d2: f64,
}

/// What every worker of one batched Newton iteration reads.
struct Lookup<'a> {
    engine: RadiusSearchEngine<'a>,
    map: &'a NdtMap,
    gauss: Gauss,
    scan: &'a [Point3],
    stride: usize,
    radius: f32,
}

/// One fan-out worker's buffers: the transformed points of its range of
/// the strided scan, their `R·p` parts, their lookups and their Newton
/// terms.
#[derive(Debug, Default)]
struct RangeWork {
    queries: Vec<Point3>,
    rotated: Vec<Point3>,
    batch: QueryBatch,
    terms: Terms,
}

impl RangeWork {
    /// Transforms strided scan points `range` with `pose`, answers them
    /// with one sequential `search_batch` and computes their terms, in
    /// point order.
    fn run(&mut self, lookup: &Lookup<'_>, pose: &Pose, range: Range<usize>) {
        self.queries.clear();
        self.rotated.clear();
        let points = lookup.scan.iter().skip(range.start * lookup.stride);
        for &p in points.step_by(lookup.stride).take(range.len()) {
            let rotated = pose.rotation.mul_point(p);
            self.rotated.push(rotated);
            self.queries.push(rotated + pose.translation);
        }
        lookup
            .engine
            .search_batch(&self.queries, lookup.radius, &mut self.batch);
        self.terms.clear();
        let points = self.queries.iter().zip(&self.rotated);
        for ((&x, &rotated), hits) in points.zip(self.batch.iter()) {
            self.terms.push(lookup.map, lookup.gauss, x, rotated, hits);
        }
    }
}

/// The instrumented per-query walk used while the simulator records:
/// the map tree plus one stateful leaf processor per alignment
/// (per-query construction would poison the cache model with cold
/// regions).
enum Walker<'a> {
    Baseline(&'a KdTree, BaselineLeafProcessor),
    Bonsai(&'a KdTree, BonsaiLeafProcessor<'a>),
}

impl<'a> Walker<'a> {
    fn new(sim: &mut SimEngine, index: &'a MapIndex, machine: &'a mut Machine) -> Walker<'a> {
        match index {
            MapIndex::Baseline(tree) => Walker::Baseline(tree, BaselineLeafProcessor::new(sim)),
            MapIndex::Bonsai(tree) => Walker::Bonsai(
                tree.kd_tree(),
                BonsaiLeafProcessor::new(tree.directory(), machine),
            ),
        }
    }

    /// Radius search around `x`, replacing `out` with the hits.
    fn search(
        &mut self,
        sim: &mut SimEngine,
        x: Point3,
        radius: f32,
        out: &mut Vec<Neighbor>,
        stats: &mut SearchStats,
        scratch: &mut SearchScratch,
    ) {
        match self {
            Walker::Baseline(tree, proc) => {
                tree.radius_search_scratch(sim, proc, x, radius, out, stats, scratch)
            }
            Walker::Bonsai(tree, proc) => {
                tree.radius_search_scratch(sim, proc, x, radius, out, stats, scratch)
            }
        }
    }
}

/// Upper-triangle entries of a symmetric 6×6, row-major.
const SYM6: usize = 21;

/// The Newton terms of a run of scan points, in point order.
#[derive(Debug, Default)]
struct Terms {
    /// `d1·e` of every (point, neighbour cell) pair.
    score: Vec<f64>,
    /// `Jᵀ g` and the upper triangle of `Jᵀ M J` of every point with at
    /// least one neighbour.
    points: Vec<([f64; 6], [f64; SYM6])>,
}

impl Terms {
    fn clear(&mut self) {
        self.score.clear();
        self.points.clear();
    }

    /// Appends the terms of one transformed scan point `x` (`rotated` is
    /// `R·p`, before translation) against its neighbour cells.
    ///
    /// The Jacobian `J = [I | −[v]×]`, `v = R·p`, depends only on the
    /// point, so the cells fold into `M = Σ w·B` and `g = Σ w·B·q` first
    /// and `J` is applied once: gradient `Jᵀ g`, Gauss–Newton Hessian
    /// `Jᵀ M J`. The exact Newton Hessian subtracts `d2·(JᵀBq)(JᵀBq)ᵀ`
    /// per cell, which is indefinite away from the optimum; PCL
    /// compensates with a More–Thuente line search, we keep the PSD
    /// form instead (documented deviation, same fixed point).
    fn push(&mut self, map: &NdtMap, gauss: Gauss, x: Point3, rotated: Point3, cells: &[Neighbor]) {
        if cells.is_empty() {
            return;
        }
        let mut m = [0.0f64; 6]; // M's upper triangle: 00 01 02 11 12 22
        let mut g = [0.0f64; 3];
        for nb in cells {
            let cell = &map.cells()[nb.index as usize];
            let q = [
                (x.x - cell.mean.x) as f64,
                (x.y - cell.mean.y) as f64,
                (x.z - cell.mean.z) as f64,
            ];
            let b: &Mat3 = &cell.inv_cov;
            let bq = b.mul_vec(q);
            let u = q[0] * bq[0] + q[1] * bq[1] + q[2] * bq[2];
            let e = (-0.5 * gauss.d2 * u).exp();
            self.score.push(gauss.d1 * e);
            let w = gauss.d1 * gauss.d2 * e;
            for r in 0..3 {
                g[r] += w * bq[r];
            }
            for (k, (r, c)) in [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
                .into_iter()
                .enumerate()
            {
                m[k] += w * b[(r, c)];
            }
        }
        let v = [rotated.x as f64, rotated.y as f64, rotated.z as f64];
        // Column k of −[v]× is e_k × v, so its dot with g is (v × g)_k.
        let gradient = [
            g[0],
            g[1],
            g[2],
            v[1] * g[2] - v[2] * g[1],
            v[2] * g[0] - v[0] * g[2],
            v[0] * g[1] - v[1] * g[0],
        ];
        self.points.push((gradient, jt_m_j(m, v)));
    }
}

/// The upper triangle of `Jᵀ M J` for `J = [I | C]`, `C = −[v]×`, and
/// symmetric `M` given by its upper triangle `00 01 02 11 12 22`:
/// the blocks are `M`, `N = M·C` and `Cᵀ·N`.
fn jt_m_j(m: [f64; 6], v: [f64; 3]) -> [f64; SYM6] {
    let [m00, m01, m02, m11, m12, m22] = m;
    let rows = [[m00, m01, m02], [m01, m11, m12], [m02, m12, m22]];
    // N[i][k] = row_i(M) · (e_k × v).
    let n = rows.map(|r| {
        [
            r[2] * v[1] - r[1] * v[2],
            r[0] * v[2] - r[2] * v[0],
            r[1] * v[0] - r[0] * v[1],
        ]
    });
    // (CᵀN)[k][l] = (e_k × v) · N[:, l].
    let p = |k: usize, l: usize| match k {
        0 => v[1] * n[2][l] - v[2] * n[1][l],
        1 => v[2] * n[0][l] - v[0] * n[2][l],
        _ => v[0] * n[1][l] - v[1] * n[0][l],
    };
    [
        m00,
        m01,
        m02,
        n[0][0],
        n[0][1],
        n[0][2],
        m11,
        m12,
        n[1][0],
        n[1][1],
        n[1][2],
        m22,
        n[2][0],
        n[2][1],
        n[2][2],
        p(0, 0),
        p(0, 1),
        p(0, 2),
        p(1, 1),
        p(1, 2),
        p(2, 2),
    ]
}

/// One Newton iteration's score, gradient and Gauss–Newton Hessian
/// (upper triangle), folded from [`Terms`] in scan-point order.
#[derive(Debug, Default)]
struct NewtonSum {
    score: f64,
    gradient: [f64; 6],
    hessian: [f64; SYM6],
}

impl NewtonSum {
    /// Adds a run of terms. The score stays the in-order sum of
    /// per-cell terms; gradient and Hessian add one term per point.
    fn fold(&mut self, terms: &Terms) {
        for s in &terms.score {
            self.score -= s;
        }
        for (gradient, hessian) in &terms.points {
            for (acc, t) in self.gradient.iter_mut().zip(gradient) {
                *acc += t;
            }
            for (acc, t) in self.hessian.iter_mut().zip(hessian) {
                *acc += t;
            }
        }
    }

    /// The Hessian as a full symmetric 6×6.
    fn hessian(&self) -> Mat6 {
        let mut out = Mat6::ZERO;
        let mut k = 0;
        for r in 0..6 {
            for c in r..6 {
                out[(r, c)] = self.hessian[k];
                out[(c, r)] = self.hessian[k];
                k += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use bonsai_sim::{CpuConfig, TimingModel};

    use super::*;

    /// A structured scene: floor, side walls and cross walls — enough
    /// constraint in all six degrees of freedom (a corridor without the
    /// cross walls leaves x observable only through its ends: the
    /// aperture problem, under which any NDT converges slowly).
    fn structured_cloud() -> Vec<Point3> {
        let mut pts = Vec::new();
        for i in 0..80 {
            for j in 0..10 {
                let x = i as f32 * 0.4;
                pts.push(Point3::new(x, j as f32 * 0.35, 0.0)); // floor
                pts.push(Point3::new(x, 0.0, j as f32 * 0.3)); // left wall
                pts.push(Point3::new(x, 12.0, j as f32 * 0.3)); // right wall
            }
        }
        // Cross walls every 8 m give x-translation a strong gradient.
        for k in 0..5 {
            let x = k as f32 * 8.0;
            for j in 0..24 {
                for h in 0..8 {
                    pts.push(Point3::new(x, j as f32 * 0.5, h as f32 * 0.3));
                }
            }
        }
        pts
    }

    fn align_from(guess: Pose, mode: NdtSearchMode) -> AlignResult {
        align_with(
            &mut SimEngine::disabled(),
            NdtConfig::default(),
            guess,
            mode,
        )
    }

    /// Aligns the structured scene against itself through `sim`.
    fn align_with(
        sim: &mut SimEngine,
        cfg: NdtConfig,
        guess: Pose,
        mode: NdtSearchMode,
    ) -> AlignResult {
        let cloud = structured_cloud();
        let map = NdtMap::build(sim, &cloud, 2.0);
        let mut matcher = NdtMatcher::new(sim, map, cfg, mode);
        matcher.align(sim, &cloud, &guess)
    }

    #[test]
    fn identity_guess_stays_put() {
        let r = align_from(Pose::identity(), NdtSearchMode::Baseline);
        assert!(
            r.translation_error(&Pose::identity()) < 0.05,
            "drift {}",
            r.translation_error(&Pose::identity())
        );
    }

    #[test]
    fn recovers_small_perturbations() {
        let guess = Pose::from_translation_euler(Point3::new(0.4, -0.3, 0.1), 0.0, 0.0, 0.02);
        let r = align_from(guess, NdtSearchMode::Baseline);
        assert!(
            r.converged,
            "did not converge in {} iterations",
            r.iterations
        );
        assert!(
            r.translation_error(&Pose::identity()) < 0.1,
            "residual {}",
            r.translation_error(&Pose::identity())
        );
    }

    #[test]
    fn bonsai_mode_matches_baseline_alignment() {
        let guess = Pose::from_translation_euler(Point3::new(0.3, 0.2, 0.0), 0.0, 0.0, -0.015);
        let a = align_from(guess, NdtSearchMode::Baseline);
        let b = align_from(guess, NdtSearchMode::Bonsai);
        // Identical membership, in identical order, in every radius
        // search ⇒ identical Newton trajectory ⇒ bit-identical pose.
        assert_eq!(a.pose, b.pose);
        assert_eq!(a.score, b.score);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn batched_lookups_match_the_instrumented_walk() {
        // Production alignment (simulator off) answers each Newton
        // iteration with one engine batch; with the simulator on, every
        // point walks the instrumented tree. Same neighbours in the
        // same order ⇒ the same result, bit for bit, in both modes.
        let cfg = NdtConfig {
            scan_stride: 2,
            ..NdtConfig::default()
        };
        let guess = Pose::from_translation_euler(Point3::new(0.4, -0.3, 0.1), 0.0, 0.0, 0.02);
        for mode in [NdtSearchMode::Baseline, NdtSearchMode::Bonsai] {
            let fast = align_with(&mut SimEngine::disabled(), cfg.clone(), guess, mode);
            let mut sim = SimEngine::new(&CpuConfig::a72_like());
            let walked = align_with(&mut sim, cfg.clone(), guess, mode);
            assert!(fast.converged, "{mode:?}");
            assert!(fast.search_stats.leaf_visits > 0, "{mode:?}");
            assert_eq!(fast.pose, walked.pose, "{mode:?}");
            assert_eq!(fast.iterations, walked.iterations, "{mode:?}");
            assert_eq!(fast.score, walked.score, "{mode:?}");
            assert_eq!(fast.converged, walked.converged, "{mode:?}");
            assert_eq!(fast.search_stats, walked.search_stats, "{mode:?}");
        }
    }

    #[test]
    fn alignment_performs_radius_searches() {
        let r = align_from(Pose::identity(), NdtSearchMode::Baseline);
        assert!(r.search_stats.points_inspected > 100);
        assert!(r.search_stats.leaf_visits > 10);
    }

    #[test]
    fn score_improves_with_alignment_quality() {
        let good = align_from(Pose::identity(), NdtSearchMode::Baseline);
        let cloud = structured_cloud();
        let mut sim = SimEngine::disabled();
        let map = NdtMap::build(&mut sim, &cloud, 2.0);
        let mut matcher = NdtMatcher::new(
            &mut sim,
            map,
            NdtConfig {
                max_iterations: 1,
                ..NdtConfig::default()
            },
            NdtSearchMode::Baseline,
        );
        let far_guess = Pose::from_translation_euler(Point3::new(3.0, 2.0, 0.5), 0.1, 0.1, 0.4);
        let bad = matcher.align(&mut sim, &cloud, &far_guess);
        assert!(
            good.score < bad.score,
            "good {} vs bad {}",
            good.score,
            bad.score
        );
    }

    /// The dense `Jᵀ B J` the matcher summed per neighbour cell before
    /// the per-point factoring, as a reference.
    fn dense_jt_b_j(b: &Mat3, v: [f64; 3]) -> [[f64; 6]; 6] {
        let cols: [[f64; 3]; 6] = [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, -v[2], v[1]], // e0 × v
            [v[2], 0.0, -v[0]], // e1 × v
            [-v[1], v[0], 0.0], // e2 × v
        ];
        let mut out = [[0.0f64; 6]; 6];
        for r in 0..6 {
            let b_cr = b.mul_vec(cols[r]);
            for c in 0..6 {
                out[r][c] = cols[c][0] * b_cr[0] + cols[c][1] * b_cr[1] + cols[c][2] * b_cr[2];
            }
        }
        out
    }

    #[test]
    fn factored_hessian_matches_the_dense_jacobian_product() {
        let b = Mat3::from_rows([2.0, 0.3, -0.4], [0.3, 1.5, 0.25], [-0.4, 0.25, 3.0]);
        for v in [[0.0, 0.0, 0.0], [1.5, -2.0, 0.75], [-30.0, 12.5, 4.0]] {
            let m = [
                b[(0, 0)],
                b[(0, 1)],
                b[(0, 2)],
                b[(1, 1)],
                b[(1, 2)],
                b[(2, 2)],
            ];
            let sum = NewtonSum {
                hessian: jt_m_j(m, v),
                ..NewtonSum::default()
            };
            let got = sum.hessian();
            let want = dense_jt_b_j(&b, v);
            for r in 0..6 {
                for c in 0..6 {
                    let tol = 1e-12 * want[r][c].abs().max(1.0);
                    assert!(
                        (got[(r, c)] - want[r][c]).abs() <= tol,
                        "v {v:?} ({r}, {c}): {} vs {}",
                        got[(r, c)],
                        want[r][c]
                    );
                }
            }
        }
    }

    #[test]
    fn fanned_out_iterations_match_sequential_bit_for_bit() {
        // The strided scan splits into one contiguous range per worker,
        // and the per-point terms fold in scan-point order, so pose,
        // score, iterations and search stats cannot depend on the worker
        // count — below the cut-over (where the work stays on the
        // caller), at it, past it, and on a length no count divides.
        let cloud = structured_cloud();
        let cut = fanout::PARALLEL_FRONTIER_MIN;
        let cfg = NdtConfig {
            max_iterations: 6,
            ..NdtConfig::default()
        };
        let guess = Pose::from_translation_euler(Point3::new(0.3, -0.2, 0.05), 0.0, 0.0, 0.02);
        let mut sim = SimEngine::disabled();
        let map = NdtMap::build(&mut sim, &cloud, 2.0);
        for mode in [NdtSearchMode::Baseline, NdtSearchMode::Bonsai] {
            let mut matcher = NdtMatcher::new(&mut sim, map.clone(), cfg.clone(), mode);
            for len in [0, 1, cut - 1, cut, cut + 1, 1001] {
                let scan = &cloud[..len];
                let sequential = matcher.align_threads(&mut sim, scan, &guess, 1);
                if len >= cut {
                    assert!(sequential.search_stats.points_inspected > 0, "{len}");
                }
                for threads in [2, 3] {
                    let fanned = matcher.align_threads(&mut sim, scan, &guess, threads);
                    assert_eq!(fanned, sequential, "{mode:?} len {len} threads {threads}");
                }
            }
        }
    }

    #[test]
    fn outlier_ratios_outside_the_open_unit_interval_are_rejected() {
        let cloud = structured_cloud();
        let mut sim = SimEngine::disabled();
        let map = NdtMap::build(&mut sim, &cloud, 2.0);
        for ratio in [0.0, 1.0, -0.1, 1.5, f64::NAN] {
            let cfg = NdtConfig {
                outlier_ratio: ratio,
                ..NdtConfig::default()
            };
            let built = std::panic::catch_unwind(|| {
                let mut sim = SimEngine::disabled();
                NdtMatcher::new(&mut sim, map.clone(), cfg, NdtSearchMode::Baseline)
            });
            assert!(built.is_err(), "outlier_ratio {ratio} accepted");
        }
    }

    #[test]
    fn non_finite_newton_step_stops_on_the_last_finite_pose() {
        // A NaN damping makes the Hessian, and so the first step, NaN.
        let cfg = NdtConfig {
            damping: f64::NAN,
            ..NdtConfig::default()
        };
        let guess = Pose::from_translation_euler(Point3::new(0.4, -0.3, 0.1), 0.0, 0.0, 0.02);
        for mode in [NdtSearchMode::Baseline, NdtSearchMode::Bonsai] {
            let r = align_with(&mut SimEngine::disabled(), cfg.clone(), guess, mode);
            assert!(!r.converged, "{mode:?}");
            assert_eq!(r.iterations, 1, "{mode:?}");
            assert_eq!(r.pose, guess, "{mode:?}");
            assert!(r.score.is_finite() && r.score < 0.0, "{mode:?}");
        }
    }

    /// One small alignment of the structured scene with the simulator
    /// on, counting only the alignment (map and tree building reset).
    fn simulated_alignment(mode: NdtSearchMode) -> (AlignResult, SimEngine) {
        let cloud = structured_cloud();
        let mut sim = SimEngine::new(&CpuConfig::a72_like());
        let map = NdtMap::build(&mut sim, &cloud, 2.0);
        let cfg = NdtConfig {
            max_iterations: 4,
            scan_stride: 3,
            ..NdtConfig::default()
        };
        let mut matcher = NdtMatcher::new(&mut sim, map, cfg, mode);
        sim.reset_counters();
        let guess = Pose::from_translation_euler(Point3::new(0.3, -0.2, 0.05), 0.0, 0.0, 0.02);
        let r = matcher.align(&mut sim, &cloud, &guess);
        (r, sim)
    }

    /// Golden per-kernel simulator counters of [`simulated_alignment`]:
    /// `(kernel, cycles, loads, branches, mispredicts, L1 misses)`.
    /// They pin the instrumented walk's event stream — the numbers
    /// behind Figure 2's NDT share — so no refactor of `align` can make
    /// them drift unnoticed.
    #[test]
    fn simulated_alignment_counters_are_pinned() {
        type Golden = [(Kernel, f64, u64, u64, u64, u64); 4];
        let baseline: Golden = [
            (Kernel::NdtMath, 361683.9166666667, 15386, 0, 0, 3961),
            (Kernel::Traverse, 216214.75, 47902, 32048, 6905, 7),
            (Kernel::LeafScan, 576002.75, 111339, 100433, 8975, 217),
            (Kernel::Fallback, 0.0, 0, 0, 0, 0),
        ];
        let bonsai: Golden = [
            (Kernel::NdtMath, 361407.4166666667, 15386, 0, 0, 3879),
            (Kernel::Traverse, 186918.5, 47902, 32048, 4808, 30),
            (Kernel::LeafScan, 483958.25, 50509, 200800, 11685, 40),
            (Kernel::Fallback, 886.8333333333333, 132, 66, 31, 39),
        ];
        let timing = TimingModel::a72_like();
        for (mode, golden) in [
            (NdtSearchMode::Baseline, baseline),
            (NdtSearchMode::Bonsai, bonsai),
        ] {
            let (r, sim) = simulated_alignment(mode);
            assert_eq!(r.iterations, 4, "{mode:?}");
            assert_eq!(r.score, -5671.626498629433, "{mode:?}");
            for (kernel, cycles, loads, branches, mispredicts, l1_misses) in golden {
                let c = sim.kernel_counters(kernel);
                let got = (
                    timing.cycles(c),
                    c.loads,
                    c.branches,
                    c.mispredicts,
                    c.l1_misses,
                );
                assert_eq!(
                    got,
                    (cycles, loads, branches, mispredicts, l1_misses),
                    "{mode:?} {kernel:?}"
                );
            }
        }
    }
}
