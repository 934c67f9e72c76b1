//! K-D Bonsai: compressed k-d tree leaves with exact-result radius search.
//!
//! This crate is the paper's primary contribution. A [`BonsaiTree`] is a
//! PCL-style k-d tree whose leaf points are additionally stored in a
//! compressed side array (the `cmprsd_strct_array`,
//! [`CompressedDirectory`]), produced during construction with the
//! Bonsai compress instructions. Radius search then fetches the small
//! compressed structures instead of the scattered 12-byte `f32` points —
//! the data-movement saving that yields the paper's end-to-end gains.
//!
//! Compression is lossy (`f32 → f16` mantissa truncation), but the search
//! is **exact**: every distance computed from compressed data carries a
//! worst-case error bound (Eq. 9/11), and a candidate whose squared
//! distance falls inside the uncertainty shell `r² ± Tεsd` (Eq. 12,
//! [`shell`]) is re-classified from the original `f32` point. The crate's
//! tests assert bit-identical result sets against the baseline.
//!
//! # Examples
//!
//! ```
//! use bonsai_core::BonsaiTree;
//! use bonsai_geom::Point3;
//! use bonsai_kdtree::KdTreeConfig;
//! use bonsai_sim::SimEngine;
//!
//! let cloud: Vec<Point3> = (0..200)
//!     .map(|i| Point3::new((i % 20) as f32 * 0.3, (i / 20) as f32 * 0.3, 0.5))
//!     .collect();
//! let mut sim = SimEngine::disabled();
//! let tree = BonsaiTree::build(cloud.clone(), KdTreeConfig::default(), &mut sim);
//!
//! // Same result membership as the uncompressed baseline, guaranteed.
//! let q = cloud[42];
//! let bonsai: Vec<u32> =
//!     tree.radius_search_simple(q, 0.5).iter().map(|n| n.index).collect();
//! let baseline: Vec<u32> =
//!     tree.kd_tree().radius_search_simple(q, 0.5).iter().map(|n| n.index).collect();
//! assert_eq!(bonsai, baseline);
//! ```

pub mod fanout;
pub mod shell;

mod audit;
#[cfg(feature = "chaos")]
mod chaos;
mod directory;
mod engine;
mod epoch;
mod processor;
mod reduced;
mod shard;
mod simd;
mod software;
mod tree;

#[cfg(feature = "chaos")]
pub use chaos::{FaultKind, FaultPlan};
pub use directory::{CompressedDirectory, LeafRef};
pub use engine::{EngineMode, RadiusSearchEngine};
pub use epoch::{Epoch, EpochPublisher, QueryError};
pub use processor::BonsaiLeafProcessor;
pub use reduced::ReducedUncheckedProcessor;
pub use shard::{CompactionPolicy, Coverage, RouterSnapshot, ShardConfig, ShardRouter};
pub use software::SoftwareCodecProcessor;
pub use tree::{BonsaiTree, CompressionStats};
