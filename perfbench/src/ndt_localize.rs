//! `ndt_localize`: closed-loop NDT localization of consecutive drive
//! frames against a map of the same road, `NdtSearchMode::Bonsai`.
//!
//! The map comes from a separate 1 Hz pass over the world (other
//! sensor noise, other positions of the moving traffic), in world
//! coordinates, voxelized at 0.4 m into 2 m NDT cells. Each frame is
//! aligned from the previous estimate moved by the true odometry and
//! perturbed by a seeded error of about 25 cm lateral and 1.7° heading.
//! A sample of alignments is repeated with a Baseline matcher after the
//! timed loop; the poses must be bit-identical.

use std::time::Instant;

use kd_bonsai::cluster::filters;
use kd_bonsai::core::{BonsaiLeafProcessor, BonsaiTree};
use kd_bonsai::geom::{Point3, Pose};
use kd_bonsai::isa::Machine;
use kd_bonsai::kdtree::{KdTreeConfig, SearchScratch, SearchStats};
use kd_bonsai::lidar::DrivingSequence;
use kd_bonsai::ndt::{NdtConfig, NdtMap, NdtMatcher, NdtSearchMode};
use kd_bonsai::sim::SimEngine;

use crate::inputs::{drive_config, play, ray_cast, Drive, SEGMENTS, SEGMENT_SPACING};
use crate::layers::{kernel_replay, set_search_layers};
use crate::stats::{mean, mib, ms, peak_rss_mib, percentile, ratio, Rng};
use crate::trace::Tracer;
use crate::{repeat_setup, Outcome, RunConfig};

/// Alignments timed per run at least, so `align_p90_ms` has ten samples
/// beyond it.
pub const MIN_ALIGNS: usize = 100;
/// Every `CHECK_EVERY`-th alignment is repeated in Baseline mode.
const CHECK_EVERY: usize = 10;
/// An alignment ending farther than this from the true pose failed.
const MAX_RESIDUAL_M: f32 = 0.5;
const MAP_VOXEL: f32 = 0.4;
const NDT_RESOLUTION: f32 = 2.0;

fn ndt_config() -> NdtConfig {
    NdtConfig {
        scan_stride: 4,
        ..NdtConfig::default()
    }
}

/// Scan preparation as in `examples/localization.rs`: crop at 60 m,
/// keeping the ground, then a 0.3 m voxel grid.
fn scan_prep(raw: &[Point3]) -> Vec<Point3> {
    let mut sim = SimEngine::disabled();
    let cropped = filters::crop(&mut sim, raw, 60.0, -0.5, 6.0);
    filters::voxel_downsample(&mut sim, &cropped, 0.3)
}

/// World-frame points of a 1 Hz mapping pass over the stretches of road
/// the drive segments cover, from 1 s before each segment to 1 s after
/// its start.
fn mapping_pass(seed: u64) -> Vec<Point3> {
    let mut cfg = drive_config(seed);
    cfg.frame_hz = 1.0;
    let seq = DrivingSequence::new(cfg);
    let seconds_apart = SEGMENT_SPACING / 10;
    let indices: Vec<usize> = (0..SEGMENTS)
        .flat_map(|s| {
            let t = s * seconds_apart;
            t.saturating_sub(1)..=t + 1
        })
        .collect();
    ray_cast(&seq, &indices)
        .into_iter()
        .zip(&indices)
        .flat_map(|(f, &j)| {
            let pose = seq.pose(j);
            f.into_iter().map(move |p| pose.apply(p))
        })
        .collect()
}

/// Program set-up: map voxelization, NDT cells and the Bonsai matcher.
fn setup(map_cloud: &[Point3]) -> NdtMatcher {
    let mut sim = SimEngine::disabled();
    let down = filters::voxel_downsample(&mut sim, map_cloud, MAP_VOXEL);
    let map = NdtMap::build(&mut sim, &down, NDT_RESOLUTION);
    NdtMatcher::new(&mut sim, map, ndt_config(), NdtSearchMode::Bonsai)
}

/// The odometry guess for frame `i` after frame `j`: the previous
/// estimate moved by the true relative motion, then displaced
/// sideways and turned by a seeded error.
fn guess(drive: &Drive, est: &Pose, j: usize, i: usize, rng: &mut Rng) -> Pose {
    let odom = drive.pose(j).inverse().compose(&drive.pose(i));
    let pred = est.compose(&odom);
    let [roll, pitch, yaw] = pred.euler();
    let (along, lateral, up) = (
        rng.range(-0.05, 0.05),
        rng.sign() * rng.range(0.2, 0.3),
        rng.range(0.0, 0.05),
    );
    let (s, c) = yaw.sin_cos();
    let offset = Point3::new(
        (c * along - s * lateral) as f32,
        (s * along + c * lateral) as f32,
        up as f32,
    );
    let heading = rng.sign() * rng.range(0.025, 0.035);
    Pose::from_translation_euler(pred.translation + offset, roll, pitch, yaw + heading)
}

/// Replays an alignment's radius lookups — `iterations` passes over
/// the strided scan at the result pose — through the matcher's
/// instrumented walker; returns the wall time in milliseconds.
fn lookup_replay(tree: &BonsaiTree, machine: &mut Machine, queries: &[Point3], radius: f32) -> f64 {
    let kd = tree.kd_tree();
    let mut sim = SimEngine::disabled();
    let mut proc = BonsaiLeafProcessor::new(tree.directory(), machine);
    let mut scratch = SearchScratch::new();
    let mut stats = SearchStats::default();
    let mut out = Vec::new();
    let t = Instant::now();
    for &q in queries {
        kd.radius_search_scratch(
            &mut sim,
            &mut proc,
            q,
            radius,
            &mut out,
            &mut stats,
            &mut scratch,
        );
    }
    let elapsed = ms(t.elapsed());
    std::hint::black_box(&out);
    elapsed
}

struct Sample {
    scan: Vec<Point3>,
    guess: Pose,
    pose: Pose,
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let drive = Drive::new(cfg.seed);
    let map_cloud = mapping_pass(cfg.seed);
    let (mut matcher, setup_s) = repeat_setup(|| setup(&map_cloud));
    let mut out = Outcome::default();

    // Twin of the matcher's map index: memory and the traced replays.
    let map_tree = BonsaiTree::build(
        matcher.map().centroids(),
        KdTreeConfig::default(),
        &mut SimEngine::disabled(),
    );
    let stride = ndt_config().scan_stride;
    let mut machine = Machine::new();
    let mut tracer = Tracer::new(Instant::now());
    let (mut lookup_ms, mut traverse_ms, mut sweep_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut iterations, mut queries) = (Vec::new(), 0u64);
    let mut search = SearchStats::default();

    let mut rng = Rng::new(cfg.seed, 2);
    let mut sim = SimEngine::disabled();
    let mut est = drive.pose(0);
    let mut align_ms = Vec::new();
    let mut residuals = Vec::new();
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut k = 1;
    while align_ms.len() < MIN_ALIGNS || start.elapsed() < cfg.seconds {
        let step = play(k);
        let i = step.slot;
        k += 1;
        if step.jump {
            // A new stretch of road starts from a known pose.
            est = drive.pose(i);
            continue;
        }
        let g = guess(&drive, &est, play(k - 2).slot, i, &mut rng);
        let raw = &drive.frames[i];
        let op = (k - 1) as u64;
        let t = Instant::now();
        let (scan, result) = if cfg.trace {
            let a = tracer.open("align_frame", op, None);
            let scan = tracer.time("filters.scan_prep", op, Some(a), || scan_prep(raw));
            let r = tracer.time("ndt.align", op, Some(a), || {
                matcher.align(&mut sim, &scan, &g)
            });
            tracer.close(a);
            (scan, r)
        } else {
            let scan = scan_prep(raw);
            let r = matcher.align(&mut sim, &scan, &g);
            (scan, r)
        };
        align_ms.push(ms(t.elapsed()));
        out.attempted += 1;

        let truth = drive.pose(i);
        let residual = result.translation_error(&truth);
        residuals.push(f64::from(residual));
        if residual.is_nan() || residual > MAX_RESIDUAL_M {
            out.failed += 1;
            out.check(
                false,
                format!("alignment of slot {i} ended {residual} m from the true pose"),
            );
        }
        if cfg.trace {
            let at_pose: Vec<Point3> = scan
                .iter()
                .step_by(stride)
                .map(|&p| result.pose.apply(p))
                .collect();
            let replayed: Vec<Point3> = (0..result.iterations)
                .flat_map(|_| at_pose.iter().copied())
                .collect();
            lookup_ms.push(lookup_replay(
                &map_tree,
                &mut machine,
                &replayed,
                NDT_RESOLUTION,
            ));
            let kr = kernel_replay(&map_tree, &replayed, NDT_RESOLUTION);
            traverse_ms.push(kr.traverse_ms);
            sweep_ms.push(kr.sweep_ms);
            iterations.push(f64::from(result.iterations));
            queries += (result.iterations as usize * scan.len().div_ceil(stride)) as u64;
            search += result.search_stats;
        }
        if align_ms.len() % CHECK_EVERY == 0 {
            samples.push(Sample {
                scan,
                guess: g,
                pose: result.pose,
            });
        }
        est = result.pose;
    }
    let rss = peak_rss_mib();
    let timed = align_ms.len();

    // Output check, outside the timed loop: sampled alignments again
    // with a Baseline matcher over the same map.
    let mut baseline = NdtMatcher::new(
        &mut sim,
        matcher.map().clone(),
        ndt_config(),
        NdtSearchMode::Baseline,
    );
    let same = samples
        .iter()
        .filter(|s| baseline.align(&mut sim, &s.scan, &s.guess).pose == s.pose)
        .count();
    out.check(
        same == samples.len() && !samples.is_empty(),
        format!(
            "{same} of {} sampled Bonsai alignments give the Baseline matcher's pose bit for bit",
            samples.len()
        ),
    );

    let p50 = percentile(&align_ms, 0.5);
    let p90 = percentile(&align_ms, 0.9);
    let index = mib(map_tree.resident_bytes());
    out.set("setup_s", setup_s);
    out.set("op_p50_ms", p50);
    out.set("op_p90_ms", p90);
    out.set("index_mb", index);
    out.set("peak_rss_mb", rss);
    out.name("setup_s", setup_s, "s");
    out.name("align_p50_ms", p50, "ms");
    out.name("align_p90_ms", p90, "ms");
    out.name("alignments", align_ms.len() as f64, "count");
    out.name("residual_p50_m", percentile(&residuals, 0.5), "m");
    out.name("map_cells", matcher.map().cells().len() as f64, "count");
    out.name("index_peak_mb", index, "MiB");
    out.name("peak_rss_mb", rss, "MiB");
    out.name(
        "failed_frac",
        ratio(out.failed as f64, out.attempted as f64),
        "ratio",
    );

    if cfg.trace {
        let scan_prep_ms = tracer.mean_ms("filters.scan_prep", timed);
        let align = tracer.mean_ms("ndt.align", timed);
        let lookup = mean(&lookup_ms);
        out.set("filters.scan_prep_ms", scan_prep_ms);
        out.set("ndt.align_ms", align);
        out.set("ndt.iterations", mean(&iterations));
        out.set("ndt.lookup_ms", lookup);
        // Derived, not measured: the alignment's time outside lookups.
        out.set("ndt.math_ms", align - lookup);
        out.set("kernel.traverse_ms", mean(&traverse_ms));
        out.set("kernel.sweep_ms", mean(&sweep_ms));
        set_search_layers(&mut out, &search, queries);
        let frame = tracer.mean_ms("align_frame", timed);
        out.set("trace.frame_ms", frame);
        out.set(
            "trace.layer_sum_gap_frac",
            ratio((frame - scan_prep_ms - align).abs(), frame),
        );
        tracer.write_run("ndt_localize", cfg.seed);
    }
    out
}
