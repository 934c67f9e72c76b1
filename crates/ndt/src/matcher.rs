use bonsai_core::{BonsaiLeafProcessor, BonsaiTree, RadiusSearchEngine};
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
/// disabled (production) the whole iteration is one
/// [`RadiusSearchEngine::search_batch`] call; with it enabled, each
/// point walks the instrumented tree through a leaf processor so the
/// simulator records Figure 2's event stream. Both sources return the
/// same neighbours in the same order, so the pose is bit-identical
/// either way.
///
/// See the [crate docs](crate) for the algorithm notes and an example.
#[derive(Debug)]
pub struct NdtMatcher {
    map: NdtMap,
    cfg: NdtConfig,
    index: MapIndex,
    machine: Machine,
    d1: f64,
    d2: f64,
    /// Lookup buffers, reused across alignments: the transformed scan
    /// points of one iteration and their batched results, or the
    /// instrumented walk's traversal stack and per-point hits.
    queries: Vec<Point3>,
    batch: QueryBatch,
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
    pub fn new(
        sim: &mut SimEngine,
        map: NdtMap,
        cfg: NdtConfig,
        mode: NdtSearchMode,
    ) -> NdtMatcher {
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
            d1,
            d2,
            queries: Vec::new(),
            batch: QueryBatch::new(),
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
    pub fn align(&mut self, sim: &mut SimEngine, scan: &[Point3], guess: &Pose) -> AlignResult {
        let mut pose = *guess;
        let mut stats = SearchStats::default();
        let mut iterations = 0;
        let mut converged = false;
        let mut score = 0.0;
        let radius = self.map.resolution();
        let stride = self.cfg.scan_stride.max(1);
        let scan_addr = sim.alloc(scan.len() as u64 * 16, 64);
        let engine = match &self.index {
            MapIndex::Baseline(tree) => RadiusSearchEngine::baseline(tree),
            MapIndex::Bonsai(tree) => RadiusSearchEngine::bonsai(tree),
        };
        let mut walker = sim
            .is_enabled()
            .then(|| Walker::new(sim, &self.index, &mut self.machine));

        for _ in 0..self.cfg.max_iterations {
            iterations += 1;
            let mut step = NewtonStep::new(&self.map, self.d1, self.d2);
            match walker.as_mut() {
                None => {
                    // Transform every point, look them all up at once,
                    // then run the math in the same point order.
                    self.queries.clear();
                    self.queries
                        .extend(scan.iter().step_by(stride).map(|&p| pose.apply(p)));
                    engine.search_batch(&self.queries, radius, &mut self.batch);
                    stats += *self.batch.stats();
                    let points = scan.iter().step_by(stride).zip(&self.queries);
                    for ((&p, &x), hits) in points.zip(self.batch.iter()) {
                        step.add(sim, x, pose.rotation.mul_point(p), hits);
                    }
                }
                Some(walker) => {
                    // Simulator on: one instrumented walk per point.
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
                        step.add(sim, x, rotated, &self.neighbors);
                    }
                }
            }
            score = step.score;

            sim.set_kernel(Kernel::NdtMath);
            sim.exec(OpClass::FpAlu, 300); // 6×6 solve
            step.hessian.add_diagonal(self.cfg.damping + 1e-9);
            let Some(mut delta) = step.hessian.solve(step.gradient * -1.0) else {
                break;
            };
            // Step safeguard (PCL clamps the Newton step the same way).
            let norm = delta.norm();
            if norm > self.cfg.max_step {
                delta = delta * (self.cfg.max_step / norm);
            }
            // Apply: t += δt; R = ΔR(δω)·R.
            let delta_rot = Mat3::from_euler(delta[3], delta[4], delta[5]);
            let new_rot = delta_rot * pose.rotation;
            let new_t =
                pose.translation + Point3::new(delta[0] as f32, delta[1] as f32, delta[2] as f32);
            pose = pose_from_parts(new_rot, new_t);
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

/// One Newton iteration's score, gradient and Gauss–Newton Hessian,
/// accumulated point by point.
struct NewtonStep<'m> {
    map: &'m NdtMap,
    d1: f64,
    d2: f64,
    score: f64,
    gradient: Vec6,
    hessian: Mat6,
}

impl<'m> NewtonStep<'m> {
    fn new(map: &'m NdtMap, d1: f64, d2: f64) -> NewtonStep<'m> {
        NewtonStep {
            map,
            d1,
            d2,
            score: 0.0,
            gradient: Vec6::ZERO,
            hessian: Mat6::ZERO,
        }
    }

    /// Adds the terms of one transformed scan point `x` (`rotated` is
    /// `R·p`, before translation) against each of its neighbour cells.
    fn add(&mut self, sim: &mut SimEngine, x: Point3, rotated: Point3, neighbors: &[Neighbor]) {
        sim.set_kernel(Kernel::NdtMath);
        for nb in neighbors {
            let cell = &self.map.cells()[nb.index as usize];
            sim.load(self.map.cell_addr(nb.index), CELL_STRIDE as u32);
            sim.exec(OpClass::FpAlu, 90); // q, Bq, score, J products

            let q = [
                (x.x - cell.mean.x) as f64,
                (x.y - cell.mean.y) as f64,
                (x.z - cell.mean.z) as f64,
            ];
            let b: &Mat3 = &cell.inv_cov;
            let bq = b.mul_vec(q);
            let u = q[0] * bq[0] + q[1] * bq[1] + q[2] * bq[2];
            let e = (-0.5 * self.d2 * u).exp();
            self.score -= self.d1 * e;
            let w = self.d1 * self.d2 * e;

            // Jacobian columns: translation = I, rotation = −[v]×
            // with v = R·p.
            let v = [rotated.x as f64, rotated.y as f64, rotated.z as f64];
            let mut jt_bq = [0.0f64; 6]; // (Jᵀ B q)
            jt_bq[0] = bq[0];
            jt_bq[1] = bq[1];
            jt_bq[2] = bq[2];
            // (−[v]×)ᵀ B q = (v × Bq) … column k of −[v]× is e_k×v.
            jt_bq[3] = v[1] * bq[2] - v[2] * bq[1];
            jt_bq[4] = v[2] * bq[0] - v[0] * bq[2];
            jt_bq[5] = v[0] * bq[1] - v[1] * bq[0];

            for r in 0..6 {
                self.gradient[r] += w * jt_bq[r];
            }
            // Positive-semidefinite Gauss–Newton Hessian
            // `Σ w·JᵀBJ`. The exact Newton Hessian subtracts
            // `d2·(JᵀBq)(JᵀBq)ᵀ`, which is indefinite away from
            // the optimum; PCL compensates with a More–Thuente
            // line search, we keep the PSD form instead
            // (documented deviation, same fixed point).
            let jbj = jt_b_j(b, v);
            for r in 0..6 {
                for cc in 0..6 {
                    self.hessian[(r, cc)] += w * jbj[r][cc];
                }
            }
        }
    }
}

/// `Jᵀ B J` for `J = [I | −[v]×]`, returned as a dense 6×6.
fn jt_b_j(b: &Mat3, v: [f64; 3]) -> [[f64; 6]; 6] {
    // Columns of J: c0..c2 = e0..e2, c3..c5 = e_k × v.
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

/// Builds a pose from rotation matrix + translation (recovering Euler
/// angles for reporting).
fn pose_from_parts(rotation: Mat3, translation: Point3) -> Pose {
    // Pose stores Euler angles alongside the matrix; recover them.
    let pitch = (-rotation[(2, 0)]).asin();
    let roll = rotation[(2, 1)].atan2(rotation[(2, 2)]);
    let yaw = rotation[(1, 0)].atan2(rotation[(0, 0)]);
    let mut pose = Pose::from_translation_euler(translation, roll, pitch, yaw);
    // Keep the exact matrix (from_euler re-derives an equivalent one, but
    // exactness helps iteration-to-iteration stability).
    pose.rotation = rotation;
    pose
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
