//! `serve_churn`: open-loop `bonsai-serve` radius queries against the
//! epochs a `StreamingPipeline` publishes while a writer thread ingests
//! the drive at 10 Hz.
//!
//! One client thread sends on a fixed schedule and polls
//! `Ticket::try_take`; latency runs from each request's scheduled send
//! instant, so a stalled generator or server shows in it, and the
//! generator's own lateness is reported apart. The rate ladder runs
//! 1k, 4k, 16k and 64k req/s, each step for a fixed time; 4k is the
//! reference rate, and a rate is met when p99 ≤ 1 ms with no rejection
//! and no growing backlog.
//! A sample of answers is checked after the run against a
//! stop-the-world search of the epoch each answer names.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use kd_bonsai::cluster::{FramePipeline, PipelineError, StreamingPipeline, TreeMode};
use kd_bonsai::core::{BonsaiTree, EpochPublisher, RouterSnapshot};
use kd_bonsai::geom::Point3;
use kd_bonsai::kdtree::{QueryBatch, SearchScratch, SearchStats};
use kd_bonsai::serve::{QueryResult, ServeConfig, ServeMetrics, Server, Ticket};
use kd_bonsai::sim::SimEngine;

use crate::inputs::{play, Drive};
use crate::layers::{
    check_layer_sum, kernel_replay, params, set_ingest_layers, set_search_layers, FrameReplays,
    TracedIngest,
};
use crate::stats::{mean, median, mib, ms, peak_rss_mib, percentile, ratio, us, Rng};
use crate::trace::Tracer;
use crate::{repeat_setup, Outcome, RunConfig};

/// Offered rates under ingest, req/s, each with its share of
/// `--seconds`.
const LADDER: [(u32, f64); 4] = [
    (1_000, 0.1),
    (4_000, 0.45),
    (16_000, 0.175),
    (64_000, 0.175),
];
/// Share of `--seconds` spent at the reference rate before ingest starts.
const QUIET_SHARE: f64 = 0.1;
/// Latency percentiles are taken per window of this length and the
/// median over windows reported.
const WINDOW: Duration = Duration::from_secs(1);
/// The rate whose latency is `query_p50_us` / `query_p99_us`.
const REFERENCE_RATE: u32 = 4_000;
/// A rate is met when its p99 stays within this.
const P99_LIMIT_US: f64 = 1_000.0;
/// A step stops sending, and fails, once this many requests wait.
const BACKLOG_LIMIT: usize = 256;
const RADIUS: f32 = 0.8;
/// Query centres are frame points within this planar range of the ego.
const QUERY_RANGE_M: f32 = 20.0;
const QUERY_POOL: usize = 1 << 16;
const WRITER_PERIOD: Duration = Duration::from_millis(100);
/// Every `SAMPLE_EVERY`-th answer is kept for the output check.
const SAMPLE_EVERY: u64 = 16;
/// Epochs kept for the output check (few, so the shard copies they
/// pin weigh little in the memory peak).
const RETAINED_EPOCHS: [u64; 2] = [12, 36];
/// `kernel.*` on this workload is the time per this many served queries.
const KERNEL_QUERIES: usize = 1_000;

/// The writer side: the pipeline itself, or its traced stage-by-stage
/// twin with the writer's span buffer.
enum Ingest {
    Plain(Box<StreamingPipeline>),
    Traced(Box<TracedIngest>, Tracer),
}

impl Ingest {
    fn publisher(&self) -> &Arc<EpochPublisher<RouterSnapshot>> {
        match self {
            Ingest::Plain(p) => p.epoch_publisher(),
            Ingest::Traced(t, _) => t.publisher(),
        }
    }

    fn frame(&mut self, op: u64, raw: &[Point3]) -> Result<(), PipelineError> {
        match self {
            Ingest::Plain(p) => p.try_process_frame(raw).map(drop),
            Ingest::Traced(t, tracer) => {
                t.frame(tracer, op, raw);
                Ok(())
            }
        }
    }

    fn resident_bytes(&self) -> u64 {
        match self {
            Ingest::Plain(p) => p.extractor().router().resident_bytes(),
            Ingest::Traced(t, _) => t.extractor().router().resident_bytes(),
        }
    }
}

/// What the writer thread saw.
#[derive(Default)]
struct WriterLog {
    /// Frames ingested, segment jumps included.
    frames: u64,
    /// Ingest time of frames that follow their 10 Hz predecessor.
    ingest_ms: Vec<f64>,
    late_ms: Vec<f64>,
    failed: u64,
    /// Router resident bytes after each frame.
    resident: Vec<u64>,
    lag_max: u64,
    /// Published epoch → frame it holds.
    frame_of_epoch: HashMap<u64, usize>,
    retained: HashMap<u64, RouterSnapshot>,
}

/// Ingests frames on the 10 Hz schedule until `stop`; a frame that
/// comes due while the previous one is still running starts late.
fn writer(ingest: &mut Ingest, frames: &[Vec<Point3>], stop: &AtomicBool) -> WriterLog {
    let mut log = WriterLog::default();
    let t0 = Instant::now();
    let mut m = 1usize;
    // Relaxed: the flag publishes no other data.
    while !stop.load(Ordering::Relaxed) {
        let due = t0 + WRITER_PERIOD * (m as u32 - 1);
        let now = Instant::now();
        if now < due {
            thread::sleep((due - now).min(Duration::from_millis(5)));
            continue;
        }
        log.late_ms.push(ms(now - due));
        let step = play(m);
        let i = step.slot;
        let t = Instant::now();
        let result = ingest.frame(m as u64, &frames[i]);
        let dt = t.elapsed();
        log.frames += 1;
        if !step.jump {
            log.ingest_ms.push(ms(dt));
        }
        if result.is_err() {
            log.failed += 1;
        }
        log.resident.push(ingest.resident_bytes());
        let publisher = ingest.publisher();
        log.lag_max = log.lag_max.max(publisher.epoch_lag());
        let epoch = publisher.pin();
        log.frame_of_epoch.insert(epoch.id(), i);
        if RETAINED_EPOCHS.contains(&epoch.id()) {
            log.retained.insert(epoch.id(), epoch.value().clone());
        }
        m += 1;
    }
    log
}

/// One rate step of the ladder.
#[derive(Default)]
struct Step {
    rate: u32,
    sent: u64,
    rejected: u64,
    errors: u64,
    aborted: bool,
    latency_us: Vec<f64>,
    /// The [`WINDOW`] each latency sample was due in.
    window: Vec<u32>,
    client_late_us: Vec<f64>,
}

impl Step {
    fn p(&self, q: f64) -> f64 {
        percentile(&self.latency_us, q)
    }

    /// Each [`WINDOW`]'s `q`-quantile, in order.
    fn per_window(&self, q: f64) -> Vec<f64> {
        let windows = self.window.iter().max().map_or(0, |&w| w + 1) as usize;
        let mut by_window = vec![Vec::new(); windows];
        for (&w, &lat) in self.window.iter().zip(&self.latency_us) {
            by_window[w as usize].push(lat);
        }
        by_window
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| percentile(w, q))
            .collect()
    }

    /// The median over the step's windows of each window's
    /// `q`-quantile: a stall of the shared machine moves one window,
    /// not the figure.
    fn windowed(&self, q: f64) -> f64 {
        median(&self.per_window(q))
    }

    fn met(&self) -> bool {
        !self.aborted && self.rejected == 0 && self.errors == 0 && self.p(0.99) <= P99_LIMIT_US
    }
}

struct Pending {
    ticket: Ticket,
    due: Instant,
    id: u64,
    query: Point3,
}

/// The open-loop client and what it collected across steps.
struct Client<'a> {
    publisher: &'a Arc<EpochPublisher<RouterSnapshot>>,
    queries: &'a [Point3],
    next_query: u64,
    /// Every `SAMPLE_EVERY`-th answer, for the output check.
    samples: Vec<(Point3, QueryResult)>,
    /// Server counters summed over every window's server.
    served: ServeMetrics,
    /// With tracing, each request gets a `serve.submit` span around the
    /// submit call and a `serve.query` span from due to answer.
    tracer: Option<Tracer>,
}

impl Client<'_> {
    /// Offers `rate` for `duration` as back-to-back [`WINDOW`]s, each
    /// against a freshly started server. Where the scheduler places the
    /// server's executor thread sets its wake-up path for as long as
    /// the thread lives, so one thread per window makes the median over
    /// windows a median over placements too.
    fn step(&mut self, rate: u32, duration: Duration) -> Step {
        let mut step = Step {
            rate,
            ..Step::default()
        };
        let windows = (duration.as_secs_f64() / WINDOW.as_secs_f64())
            .round()
            .max(1.0) as u32;
        for w in 0..windows {
            let server = Server::new(Arc::clone(self.publisher), ServeConfig::default());
            self.window(&server, &mut step, w);
            let m = server.metrics();
            self.served.submitted += m.submitted;
            self.served.served += m.served;
            self.served.rejected += m.rejected;
            self.served.batches += m.batches;
            self.served.max_batch_absorbed =
                self.served.max_batch_absorbed.max(m.max_batch_absorbed);
        }
        step
    }

    /// Sends at `step.rate` for one window, then drains.
    fn window(&mut self, server: &Server<RouterSnapshot>, step: &mut Step, w: u32) {
        let period = Duration::from_secs_f64(1.0 / f64::from(step.rate));
        let start = Instant::now();
        let send_end = start + WINDOW;
        let mut next = start;
        let mut pending: Vec<Pending> = Vec::with_capacity(BACKLOG_LIMIT + 1);
        loop {
            let sending = !step.aborted && next < send_end;
            if !sending && pending.is_empty() {
                // A failed step still lasts its full time, so the
                // writer ingests for the same time on every run.
                if let Some(rest) = send_end.checked_duration_since(Instant::now()) {
                    thread::sleep(rest);
                }
                break;
            }
            while sending && !step.aborted && next < send_end && next <= Instant::now() {
                let id = self.next_query;
                self.next_query += 1;
                let query = self.queries[id as usize % self.queries.len()];
                let t = Instant::now();
                step.client_late_us.push(us(t - next));
                let submitted = server.submit(query, RADIUS);
                if let Some(tr) = self.tracer.as_mut() {
                    tr.record("serve.submit", id, t, Instant::now());
                }
                step.sent += 1;
                match submitted {
                    Ok(ticket) => pending.push(Pending {
                        ticket,
                        due: next,
                        id,
                        query,
                    }),
                    Err(_) => step.rejected += 1,
                }
                next += period;
                step.aborted = pending.len() > BACKLOG_LIMIT;
            }
            let mut i = 0;
            while i < pending.len() {
                let Some(outcome) = pending[i].ticket.try_take() else {
                    i += 1;
                    continue;
                };
                let done = Instant::now();
                let p = pending.swap_remove(i);
                step.latency_us.push(us(done - p.due));
                step.window.push(w);
                if let Some(tr) = self.tracer.as_mut() {
                    tr.record("serve.query", p.id, p.due, done);
                }
                match outcome {
                    Ok(r) if p.id.is_multiple_of(SAMPLE_EVERY) => self.samples.push((p.query, r)),
                    Ok(_) => {}
                    Err(_) => step.errors += 1,
                }
            }
            // Spin politely: a sleeping client wakes up to a millisecond
            // late on a busy machine, which would read as server latency.
            thread::yield_now();
        }
    }
}

/// Query centres: seeded draws from preprocessed frame points within
/// [`QUERY_RANGE_M`] of the ego.
fn query_pool(drive: &Drive, seed: u64) -> Vec<Point3> {
    let pipeline = FramePipeline::new(params());
    let near: Vec<Point3> = drive
        .frames
        .iter()
        .flat_map(|f| pipeline.preprocess(&mut SimEngine::disabled(), f))
        .filter(|p| p.planar_range() < QUERY_RANGE_M)
        .collect();
    let mut rng = Rng::new(seed, 3);
    (0..QUERY_POOL)
        .map(|_| near[rng.index(near.len())])
        .collect()
}

fn setup(drive: &Drive, trace: Option<Instant>) -> Ingest {
    if let Some(origin) = trace {
        Ingest::Traced(
            Box::new(TracedIngest::new(&drive.frames[0])),
            Tracer::new(origin),
        )
    } else {
        let mut p = StreamingPipeline::new(params(), TreeMode::Bonsai);
        p.process_frame(&drive.frames[0]);
        Ingest::Plain(Box::new(p))
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let drive = Drive::new(cfg.seed);
    let queries = query_pool(&drive, cfg.seed);
    let origin = Instant::now();
    let trace = cfg.trace.then_some(origin);
    let (mut ingest, setup_s) = repeat_setup(|| setup(&drive, trace));
    let mut out = Outcome::default();
    let publisher = Arc::clone(ingest.publisher());
    let mut client = Client {
        publisher: &publisher,
        queries: &queries,
        next_query: 0,
        samples: Vec::new(),
        served: ServeMetrics::default(),
        tracer: None,
    };

    // The reference rate once without ingest, for comparison.
    let quiet = client.step(REFERENCE_RATE, cfg.seconds.mul_f64(QUIET_SHARE));
    client.tracer = cfg.trace.then(|| Tracer::new(origin));
    let setup_epoch = publisher.epoch();
    let stop = AtomicBool::new(false);
    let mut steps: Vec<Step> = Vec::new();
    let mut wlog = thread::scope(|s| {
        let writer = s.spawn(|| writer(&mut ingest, &drive.frames, &stop));
        for (rate, share) in LADDER {
            steps.push(client.step(rate, cfg.seconds.mul_f64(share)));
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("writer thread panicked")
    });
    let rss = peak_rss_mib();
    let Client {
        samples,
        served: metrics,
        tracer: client_tracer,
        ..
    } = client;
    wlog.frame_of_epoch.insert(setup_epoch, 0);

    let sent: u64 = steps.iter().chain([&quiet]).map(|s| s.sent).sum();
    let lost: u64 = steps
        .iter()
        .chain([&quiet])
        .map(|s| s.rejected + s.errors)
        .sum();
    out.attempted = sent + wlog.frames;
    out.failed = lost + wlog.failed;

    // Output check: sampled answers against a stop-the-world search of
    // the retained epoch they name.
    let mut scratch = SearchScratch::new();
    let mut stats = SearchStats::default();
    let mut expect = Vec::new();
    let (mut checked, mut wrong) = (0usize, 0usize);
    for (q, r) in &samples {
        if let Some(snapshot) = wlog.retained.get(&r.epoch) {
            snapshot.search_one(*q, RADIUS, &mut scratch, &mut expect, &mut stats);
            checked += 1;
            wrong += usize::from(expect != r.neighbors);
        }
    }
    out.check(
        checked > 0 && wrong == 0,
        format!(
            "{} of {checked} sampled answers match a stop-the-world search of their epoch \
             ({} epochs retained)",
            checked - wrong,
            wlog.retained.len()
        ),
    );
    let unknown = samples
        .iter()
        .filter(|(_, r)| !wlog.frame_of_epoch.contains_key(&r.epoch))
        .count();
    out.check(
        unknown == 0,
        format!("{unknown} sampled answers name an epoch the writer never published"),
    );

    let reference = steps
        .iter()
        .find(|s| s.rate == REFERENCE_RATE)
        .expect("the reference step always runs");
    let p50 = reference.windowed(0.5);
    let p90 = reference.windowed(0.9);
    let p99 = reference.windowed(0.99);
    let max_rate = steps
        .iter()
        .take_while(|s| s.met())
        .last()
        .map_or(0.0, |s| f64::from(s.rate));
    let ingest_p50 = percentile(&wlog.ingest_ms, 0.5);
    let ingest_p90 = percentile(&wlog.ingest_ms, 0.9);
    let index_peak = mib(wlog.resident.iter().copied().max().unwrap_or(0));
    let index_mean = mib(wlog.resident.iter().sum::<u64>() / wlog.resident.len().max(1) as u64);
    out.set("setup_s", setup_s);
    // The gated `op_*` metrics are the writer's frames under read load.
    // Query latency is reported but not gated: on a 2-vCPU guest its
    // median moves 6–10 µs from run to run with the host's wake-up
    // latency, too much for a 0.25 bound.
    out.set("op_p50_ms", ingest_p50);
    out.set("op_p90_ms", ingest_p90);
    out.set("index_mb", index_mean);
    out.set("peak_rss_mb", rss);
    out.name("setup_s", setup_s, "s");
    out.name("query_p50_us", p50, "us");
    out.name("query_p90_us", p90, "us");
    out.name("query_p99_us", p99, "us");
    out.name(
        "queries_at_reference",
        reference.latency_us.len() as f64,
        "count",
    );
    out.name("max_rate_qps", max_rate, "1/s");
    out.name("quiet_p50_us", quiet.windowed(0.5), "us");
    out.name("quiet_p99_us", quiet.windowed(0.99), "us");
    out.name("ingest_p50_ms", ingest_p50, "ms");
    out.name("ingest_p90_ms", ingest_p90, "ms");
    out.name("frames_ingested", wlog.frames as f64, "count");
    out.name("index_peak_mb", index_peak, "MiB");
    out.name("index_mean_mb", index_mean, "MiB");
    out.name("peak_rss_mb", rss, "MiB");
    out.name(
        "failed_frac",
        ratio(out.failed as f64, out.attempted as f64),
        "ratio",
    );
    let labelled = [("no ingest", &quiet)]
        .into_iter()
        .chain(steps.iter().map(|s| ("ingest", s)));
    for (label, s) in labelled {
        println!(
            "  {label:>9} {:>6} req/s: sent {:>6}, p50 {:>9.1} us, p99 {:>9.1} us, client late p99 \
             {:>8.1} us, rejected {}, backlog {}, {}",
            s.rate,
            s.sent,
            s.p(0.5),
            s.p(0.99),
            percentile(&s.client_late_us, 0.99),
            s.rejected,
            if s.aborted { "grew" } else { "bounded" },
            if s.met() { "met" } else { "missed" },
        );
        let fmt = |v: Vec<f64>| {
            v.iter()
                .map(|x| format!("{x:.0}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "            per-window p50 [{}] p99 [{}] us",
            fmt(s.per_window(0.5)),
            fmt(s.per_window(0.99))
        );
    }

    if let Ingest::Traced(ingest, mut tracer) = ingest {
        let frames = wlog.frames as usize;
        set_ingest_layers(&mut out, &tracer, &ingest, frames);
        out.set("epoch.lag_max", wlog.lag_max as f64);
        let client_tracer = client_tracer.expect("traced run");
        let submit_us: Vec<f64> = client_tracer
            .durations_ms("serve.submit")
            .iter()
            .map(|ms| ms * 1e3)
            .collect();
        let late: Vec<f64> = steps
            .iter()
            .flat_map(|s| s.client_late_us.clone())
            .collect();
        out.set("serve.submit_us", percentile(&submit_us, 0.99));
        out.set("gen.client_late_us", percentile(&late, 0.99));
        out.set("gen.writer_late_ms", percentile(&wlog.late_ms, 0.5));
        let batch_mean = ratio(metrics.served as f64, metrics.batches as f64);
        out.set("serve.batch_mean", batch_mean);
        out.set("serve.max_batch", metrics.max_batch_absorbed as f64);
        out.set("serve.rejected", metrics.rejected as f64);

        // Replays after the run, on the retained epochs and the frames
        // they hold.
        let mut retained: Vec<(&u64, &RouterSnapshot)> = wlog.retained.iter().collect();
        retained.sort_by_key(|(e, _)| **e);
        let preprocess = FramePipeline::new(params());
        let frame_points = |epoch: u64| {
            let frame = &drive.frames[wlog.frame_of_epoch[&epoch]];
            preprocess.preprocess(&mut SimEngine::disabled(), frame)
        };
        let mut replays = FrameReplays::default();
        for &(&epoch, snapshot) in &retained {
            replays.replay(snapshot, &frame_points(epoch));
        }
        out.set("search.router_ms", mean(&replays.router_ms));
        out.set("shard.build_ms", mean(&replays.build_ms));

        // With no retained epoch the output check has already failed;
        // the service and kernel replays then stay at 0.
        if let Some(&(&last, snapshot)) = retained.last() {
            let served: Vec<Point3> = samples.iter().map(|(q, _)| *q).collect();
            let per_batch = (batch_mean.round() as usize).max(1);
            let mut batch = QueryBatch::new();
            let mut service_us = Vec::new();
            let mut search = SearchStats::default();
            for chunk in served.chunks_exact(per_batch) {
                let t = Instant::now();
                snapshot.search_batch(chunk, RADIUS, &mut batch);
                service_us.push(us(t.elapsed()));
                search += *batch.stats();
            }
            let service = median(&service_us);
            out.set("serve.service_us", service);
            // Derived: the part of the median latency not spent searching.
            out.set("serve.queue_us", p50 - service);
            set_search_layers(&mut out, &search, (service_us.len() * per_batch) as u64);

            let tree = BonsaiTree::build(
                frame_points(last),
                params().tree,
                &mut SimEngine::disabled(),
            );
            let n = served.len().min(KERNEL_QUERIES);
            let k = kernel_replay(&tree, &served[..n], RADIUS);
            let per_thousand = KERNEL_QUERIES as f64 / n as f64;
            out.set("kernel.traverse_ms", k.traverse_ms * per_thousand);
            out.set("kernel.sweep_ms", k.sweep_ms * per_thousand);
        }

        check_layer_sum(&mut out, &tracer, frames);
        tracer.absorb(client_tracer);
        tracer.write_run("serve_churn", cfg.seed);
    }
    out
}
