//! Shared command-line plumbing for the figure/table regeneration
//! binaries.
//!
//! Every binary accepts:
//!
//! * `--quick` — a small smoke-run configuration (seconds instead of
//!   minutes);
//! * `--frames N` — override the number of frames the experiment
//!   simulates (where applicable).
//!
//! Without flags, binaries run the paper-scale configuration: the
//! eight-minute synthetic drive with 20 × 300 ms systematic sub-samples
//! (60 simulated frames).

#![forbid(unsafe_code)]

use bonsai_pipeline::ExperimentConfig;

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The experiment configuration (paper or quick).
    pub config: ExperimentConfig,
    /// Optional frame-count override.
    pub frames: Option<usize>,
    /// Whether `--quick` was passed.
    pub quick: bool,
}

impl Cli {
    /// Parses `std::env::args()`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on unknown arguments.
    pub fn parse() -> Cli {
        Cli::parse_from(std::env::args().skip(1))
    }

    /// Parses the given arguments.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Cli {
        let mut quick = false;
        let mut frames = None;
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--quick" => quick = true,
                "--frames" => {
                    let v = iter.next().expect("--frames needs a value");
                    frames = Some(v.parse().expect("--frames needs a number"));
                }
                "--help" | "-h" => {
                    println!("usage: [--quick] [--frames N]");
                    std::process::exit(0);
                }
                other => panic!("unknown argument {other:?} (try --help)"),
            }
        }
        let config = if quick {
            ExperimentConfig::quick()
        } else {
            ExperimentConfig::paper()
        };
        Cli {
            config,
            frames,
            quick,
        }
    }

    /// The frame count to use, defaulting per scale.
    pub fn frames_or(&self, paper_default: usize, quick_default: usize) -> usize {
        self.frames.unwrap_or(if self.quick {
            quick_default
        } else {
            paper_default
        })
    }
}

/// Shared synthetic workloads, so the criterion benches and the
/// `BENCH_*.json` trajectory binaries measure the identical clouds.
pub mod workload {
    use bonsai_geom::Point3;

    /// Cloud size of the batch radius-search workload.
    pub const BATCH_CLOUD: usize = 20_000;
    /// Queries per batch of the batch radius-search workload.
    pub const BATCH_QUERIES: usize = 2_048;
    /// Search radius of the batch radius-search workload, meters.
    pub const BATCH_RADIUS: f32 = 0.8;

    /// The clustered "urban" cloud the radius-search benches share:
    /// 40 lanes of structure along x, LiDAR-plausible spreads in y/z.
    pub fn urban_cloud(n: usize) -> Vec<Point3> {
        let mut state = 0xC0FFEEu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f32 / (1u64 << 53) as f32
        };
        (0..n)
            .map(|_| {
                let cluster = (next() * 40.0).floor();
                Point3::new(
                    (cluster - 20.0) * 4.0 + next() * 2.0,
                    (next() - 0.5) * 100.0,
                    next() * 2.5,
                )
            })
            .collect()
    }

    /// The query set of the batch workload: every 97th point, wrapped.
    pub fn batch_queries(cloud: &[Point3], n: usize) -> Vec<Point3> {
        (0..n).map(|i| cloud[(i * 97) % cloud.len()]).collect()
    }

    /// Radius of the leaf-sweep kernel comparisons (criterion group
    /// and the `simd` rows of `BENCH_radius_batch.json`): larger than
    /// [`BATCH_RADIUS`] so each collected visit list carries enough
    /// leaf work to time the kernel rather than the dispatch — an
    /// obstacle-inflation-scale query; the kernels are radius-blind.
    pub const SWEEP_RADIUS: f32 = BATCH_RADIUS * 5.0;

    /// Collects each sweep query's visited leaves up front (the
    /// traversal half of the two-phase search) and the total points
    /// they hold, so a bench loop over
    /// `RadiusSearchEngine::sweep_visited` times exactly the
    /// leaf-sweep kernels. Shared by the criterion group and the
    /// trajectory binary so both measure the same thing.
    pub fn collect_sweep_sets(
        tree: &bonsai_kdtree::KdTree,
        queries: &[Point3],
        radius: f32,
    ) -> (Vec<Vec<bonsai_kdtree::simd::LeafVisit>>, u64) {
        let mut scratch = bonsai_kdtree::SearchScratch::new();
        let mut stats = bonsai_kdtree::SearchStats::default();
        let sets: Vec<Vec<bonsai_kdtree::simd::LeafVisit>> = queries
            .iter()
            .map(|&q| {
                let mut visited = Vec::new();
                tree.collect_leaves_in_radius(q, radius, &mut scratch, &mut stats, &mut visited);
                visited
            })
            .collect();
        let points = sets
            .iter()
            .flat_map(|s| s.iter().map(|&(_, _, c)| c as u64))
            .sum();
        (sets, points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_scale() {
        let cli = Cli::parse_from(Vec::new());
        assert!(!cli.quick);
        assert_eq!(cli.config.samples, 20);
        assert_eq!(cli.frames_or(60, 4), 60);
    }

    #[test]
    fn quick_flag_switches_config() {
        let cli = Cli::parse_from(vec!["--quick".to_string()]);
        assert!(cli.quick);
        assert_eq!(cli.frames_or(60, 4), 4);
    }

    #[test]
    fn frames_override_wins() {
        let cli = Cli::parse_from(vec![
            "--quick".to_string(),
            "--frames".to_string(),
            "7".to_string(),
        ]);
        assert_eq!(cli.frames_or(60, 4), 7);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn unknown_argument_panics() {
        Cli::parse_from(vec!["--bogus".to_string()]);
    }
}
