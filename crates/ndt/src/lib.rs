//! Normal-Distributions-Transform (NDT) scan matching.
//!
//! The paper's Figure 2 shows radius search consuming 51 % of
//! Autoware.ai's `ndt_matching` localization task. This crate implements
//! that workload: the map is voxelized into Gaussian cells ([`NdtMap`],
//! Biber 2003 / Magnusson 2009), and scan alignment ([`NdtMatcher`])
//! iterates Newton steps whose per-point neighbourhood gathering is a
//! **k-d tree radius search** over the cell centroids (the `KDTREE`
//! neighbour mode of Autoware's pclomp NDT) — which is exactly where
//! K-D Bonsai applies.
//!
//! Production alignment (simulator disabled) gathers neighbours through
//! the batched engine. Each Newton iteration splits the strided scan
//! into contiguous ranges through
//! [`bonsai_core::fanout`], one per core — with the
//! `parallel` feature and at least
//! [`PARALLEL_FRONTIER_MIN`](bonsai_core::fanout::PARALLEL_FRONTIER_MIN)
//! points; otherwise one range on the caller's thread. Each worker
//! transforms its range, answers it with one sequential
//! [`RadiusSearchEngine::search_batch`](bonsai_core::RadiusSearchEngine::search_batch)
//! call and computes the range's per-point Newton terms. The Jacobian
//! depends only on the scan point, so a point's neighbour cells fold
//! into one 3×3 `M = Σ w·B` and one `g = Σ w·B·q` before `Jᵀ M J` and
//! `Jᵀ g` are formed once per point. The caller then folds every
//! point's terms in scan-point order, so pose, score, iteration count
//! and search stats are bit-identical for any worker count. The
//! instrumented per-query walker (a leaf processor driven through the
//! simulator) runs only under an enabled
//! [`SimEngine`](bonsai_sim::SimEngine), so Figure 2's event stream is
//! recorded; its points go through the same per-point terms and the
//! same fold. The engine returns the leaf processors' neighbours in the
//! same order, so both paths give bit-identical poses.
//!
//! Deviations from PCL's implementation, both standard and
//! convergence-equivalent:
//!
//! * the pose increment is linearized as a left-multiplied small
//!   rotation (`x′ = ΔR·(R p) + t + δt`, Jacobian `[I | −[Rp]×]`)
//!   instead of Euler-angle derivatives;
//! * the Hessian uses the Gauss–Newton approximation (second-order term
//!   dropped) with Levenberg damping.
//!
//! # Examples
//!
//! ```
//! use bonsai_geom::{Point3, Pose};
//! use bonsai_ndt::{NdtConfig, NdtMap, NdtMatcher, NdtSearchMode};
//! use bonsai_sim::SimEngine;
//!
//! // A map with structure along every axis.
//! let mut map = Vec::new();
//! for i in 0..60 {
//!     for j in 0..8 {
//!         map.push(Point3::new(i as f32, j as f32 * 0.3, (i % 7) as f32 * 0.1));
//!         map.push(Point3::new(i as f32, 20.0 - j as f32 * 0.3, 2.0));
//!     }
//! }
//! let mut sim = SimEngine::disabled();
//! let ndt_map = NdtMap::build(&mut sim, &map, 2.0);
//! let mut matcher = NdtMatcher::new(&mut sim, ndt_map, NdtConfig::default(),
//!                                   NdtSearchMode::Baseline);
//! // Align the map against itself from a perturbed guess.
//! let guess = Pose::from_translation_euler(Point3::new(0.3, -0.2, 0.0), 0.0, 0.0, 0.01);
//! let result = matcher.align(&mut sim, &map, &guess);
//! assert!(result.translation_error(&Pose::identity()) < 0.1);
//! ```

#![forbid(unsafe_code)]

mod map;
mod matcher;

pub use map::{NdtCell, NdtMap};
pub use matcher::{AlignResult, NdtConfig, NdtMatcher, NdtSearchMode};
