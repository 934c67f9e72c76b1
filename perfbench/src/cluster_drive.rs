//! `cluster_drive`: consecutive 10 Hz drive frames run closed-loop
//! through `StreamingPipeline::process_frame` (8 shards, Bonsai mode).
//!
//! Each frame's clusters and boxes are checked against a from-scratch
//! `FramePipeline::run` in Baseline mode after the timed loop.

use std::collections::HashMap;
use std::time::Instant;

use kd_bonsai::cluster::{FramePipeline, FrameResult, StreamingPipeline, TreeMode};
use kd_bonsai::sim::SimEngine;

use crate::inputs::{play, Drive};
use crate::layers::{
    check_layer_sum, params, set_ingest_layers, set_search_layers, shape_of, FrameReplays,
    TracedIngest,
};
use crate::stats::{mean, mib, ms, peak_rss_mib, percentile, ratio};
use crate::trace::Tracer;
use crate::{repeat_setup, Outcome, RunConfig};

/// Frames timed per run at least, so `frame_p90_ms` has ten samples
/// beyond it.
pub const MIN_FRAMES: usize = 100;

/// Program set-up: the pipeline and its first (building) frame.
fn setup(drive: &Drive) -> (StreamingPipeline, FrameResult) {
    let mut pipeline = StreamingPipeline::new(params(), TreeMode::Bonsai);
    let first = pipeline.process_frame(&drive.frames[0]);
    (pipeline, first)
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let drive = Drive::new(cfg.seed);
    let ((mut pipeline, first), setup_s) = repeat_setup(|| setup(&drive));
    let mut out = Outcome::default();

    let mut traced = cfg.trace.then(|| TracedIngest::new(&drive.frames[0]));
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let mut replays = FrameReplays::default();
    let mut twin_mismatch = 0usize;

    let mut frame_ms = Vec::new();
    let mut results: Vec<(usize, FrameResult)> = vec![(0, first)];
    let mut resident = vec![pipeline.extractor().router().resident_bytes()];
    let start = Instant::now();
    let mut k = 1;
    while frame_ms.len() < MIN_FRAMES || start.elapsed() < cfg.seconds {
        let step = play(k);
        let i = step.slot;
        let t = Instant::now();
        let result = pipeline.try_process_frame(&drive.frames[i]);
        let dt = t.elapsed();
        out.attempted += 1;
        match result {
            Ok(r) => {
                if !step.jump {
                    frame_ms.push(ms(dt));
                }
                results.push((i, r));
            }
            Err(e) => {
                out.failed += 1;
                out.check(false, format!("frame {i}: {e}"));
            }
        }
        resident.push(pipeline.extractor().router().resident_bytes());

        if let Some(ingest) = traced.as_mut() {
            let tf = ingest.frame(&mut tracer, k as u64, &drive.frames[i]);
            let snapshot = ingest.extractor().snapshot();
            replays.replay(&snapshot, &tf.points);
            if let Some((_, r)) = results.last().filter(|(j, _)| *j == i) {
                if shape_of(&r.output.clusters, &r.boxes) != shape_of(&tf.clusters, &tf.boxes) {
                    twin_mismatch += 1;
                }
            }
        }
        k += 1;
    }
    let rss = peak_rss_mib();
    let timed = k - 1;

    // Output check, outside the timed loop: every processed frame
    // against a from-scratch Baseline run of the same frame.
    let reference = FramePipeline::new(params());
    let mut expected: HashMap<usize, FrameResult> = HashMap::new();
    let mut bad = 0usize;
    for (i, r) in &results {
        let e = expected.entry(*i).or_insert_with(|| {
            reference.run(
                &mut SimEngine::disabled(),
                &drive.frames[*i],
                TreeMode::Baseline,
            )
        });
        if r.output.clusters != e.output.clusters || r.boxes != e.boxes {
            bad += 1;
        }
    }
    out.check(
        bad == 0,
        format!(
            "{} of {} frames match FramePipeline::run(Baseline) clusters and boxes ({} distinct)",
            results.len() - bad,
            results.len(),
            expected.len()
        ),
    );

    let p50 = percentile(&frame_ms, 0.5);
    let p90 = percentile(&frame_ms, 0.9);
    let index_peak = mib(resident.iter().copied().max().unwrap_or(0));
    let index_mean = mib(resident.iter().sum::<u64>() / resident.len() as u64);
    out.set("setup_s", setup_s);
    out.set("op_p50_ms", p50);
    out.set("op_p90_ms", p90);
    out.set("index_mb", index_mean);
    out.set("peak_rss_mb", rss);
    out.name("setup_s", setup_s, "s");
    out.name("frame_p50_ms", p50, "ms");
    out.name("frame_p90_ms", p90, "ms");
    out.name("frames", frame_ms.len() as f64, "count");
    out.name("index_peak_mb", index_peak, "MiB");
    out.name("index_mean_mb", index_mean, "MiB");
    out.name("peak_rss_mb", rss, "MiB");
    out.name(
        "failed_frac",
        ratio(out.failed as f64, out.attempted as f64),
        "ratio",
    );

    if let Some(ingest) = traced {
        out.check(
            twin_mismatch == 0,
            format!(
                "traced stage-by-stage twin matches process_frame on {} of {timed} frames",
                timed - twin_mismatch
            ),
        );
        set_ingest_layers(&mut out, &tracer, &ingest, timed);
        set_search_layers(&mut out, &ingest.search, ingest.queries);
        out.set("search.router_ms", mean(&replays.router_ms));
        out.set("shard.build_ms", mean(&replays.build_ms));
        out.set("kernel.traverse_ms", mean(&replays.traverse_ms));
        out.set("kernel.sweep_ms", mean(&replays.sweep_ms));
        check_layer_sum(&mut out, &tracer, timed);
        let traced_p50 = percentile(&tracer.durations_ms("frame"), 0.5);
        out.set("trace.overhead_ms", traced_p50 - p50);
        tracer.write_run("cluster_drive", cfg.seed);
    }
    out
}
