//! Ordered scoped-thread fan-out: the spawn/chunk/merge mechanism
//! behind the parallel paths that split a list of items (batch
//! searches, BFS frontiers, NDT Newton iterations). Shard builds
//! partition shards instead, and only share the thread-count
//! resolution.
//!
//! A fan-out splits `0..items` into contiguous ranges, one per worker,
//! ascending with the worker index, and hands worker `k` its own state
//! `states[k]`. The caller merges by reading the states in order, so
//! the merged result visits items in item order whatever the worker
//! count — folds stay bit-identical for 1, 2 or N workers. The
//! [`RadiusSearchEngine`](crate::RadiusSearchEngine) and
//! [`ShardRouter`](crate::ShardRouter) batch front-ends and the NDT
//! matcher's Newton iterations all fan out through here, so a change to
//! the cut-over, the clamping or the split applies to every path at
//! once.
//!
//! Without the `parallel` feature [`workers`] is always 1 and
//! [`for_each_range`] runs its ranges one after another on the caller's
//! thread.

use std::ops::Range;

#[cfg(feature = "parallel")]
use bonsai_geom::Point3;
#[cfg(feature = "parallel")]
use bonsai_kdtree::QueryBatch;

/// Item count below which a fan-out stays on the caller's thread:
/// under it, scoped-thread setup costs more than the work it splits.
pub const PARALLEL_FRONTIER_MIN: usize = 512;

/// Resolves `0` (meaning "use the machine's available parallelism")
/// into a concrete worker count, unclamped.
#[cfg(feature = "parallel")]
pub(crate) fn requested_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// Resolves a requested worker count: `0` means the machine's available
/// parallelism, and the result is clamped to `1..=items`.
#[cfg(feature = "parallel")]
pub(crate) fn resolve_threads(threads: usize, items: usize) -> usize {
    requested_threads(threads).min(items).max(1)
}

/// The number of workers a fan-out over `items` uses: 1 below
/// [`PARALLEL_FRONTIER_MIN`] (or without the `parallel` feature),
/// otherwise `threads` — `0` meaning the machine's available
/// parallelism, so a one-core host stays sequential — clamped to
/// `1..=items`.
pub fn workers(items: usize, threads: usize) -> usize {
    #[cfg(feature = "parallel")]
    if items >= PARALLEL_FRONTIER_MIN {
        return resolve_threads(threads, items);
    }
    let _ = (items, threads);
    1
}

/// The `k`-th of `parts` contiguous, ascending ranges covering
/// `0..items`; lengths differ by at most one.
fn range_of(k: usize, parts: usize, items: usize) -> Range<usize> {
    k * items / parts..(k + 1) * items / parts
}

/// Runs `work(range, &mut states[k])` for each of the `states.len()`
/// contiguous ranges of `0..items` and returns once every range is
/// done. Range `k` precedes range `k + 1`, so reading `states` in order
/// visits the items in order.
///
/// With the `parallel` feature, ranges `1..` run on scoped threads and
/// range 0 on the caller's; size `states` with [`workers`] to honour
/// the cut-over. A worker's panic propagates to the caller.
pub fn for_each_range<S, F>(items: usize, states: &mut [S], work: F)
where
    S: Send,
    F: Fn(Range<usize>, &mut S) + Sync,
{
    let parts = states.len();
    #[cfg(feature = "parallel")]
    if parts > 1 {
        let (first, rest) = states.split_at_mut(1);
        let work = &work;
        return std::thread::scope(|scope| {
            for (k, state) in rest.iter_mut().enumerate() {
                scope.spawn(move || work(range_of(k + 1, parts, items), state));
            }
            work(range_of(0, parts, items), &mut first[0]);
        });
    }
    for (k, state) in states.iter_mut().enumerate() {
        work(range_of(k, parts, items), state);
    }
}

/// Runs `search` (any sequential whole-batch searcher) over `queries`
/// fanned out through [`for_each_range`] (`threads` as in [`workers`]),
/// merging the per-worker batches into `batch` in query order — output
/// and aggregate stats are identical to one sequential `search` call
/// over all queries.
#[cfg(feature = "parallel")]
pub(crate) fn search_batch_across_threads<S>(
    queries: &[Point3],
    radius: f32,
    batch: &mut QueryBatch,
    threads: usize,
    search: S,
) where
    S: Fn(&[Point3], f32, &mut QueryBatch) + Sync,
{
    let workers = workers(queries.len(), threads);
    if workers == 1 {
        return search(queries, radius, batch);
    }
    let mut parts: Vec<QueryBatch> = (0..workers).map(|_| QueryBatch::new()).collect();
    for_each_range(queries.len(), &mut parts, |range, part| {
        search(&queries[range], radius, part)
    });
    batch.reset();
    for part in &parts {
        batch.absorb(part);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every item lands in exactly one range, in order, for any split —
    /// including more parts than items (empty ranges).
    #[test]
    fn ranges_cover_items_in_order() {
        for items in [0, 1, 2, 5, 511, 512, 513, 1001] {
            for parts in 1..=4 {
                let mut states: Vec<Vec<usize>> = vec![Vec::new(); parts];
                for_each_range(items, &mut states, |range, seen| seen.extend(range));
                let flat: Vec<usize> = states.concat();
                assert_eq!(flat, (0..items).collect::<Vec<_>>(), "{items}/{parts}");
                let lens: Vec<usize> = states.iter().map(Vec::len).collect();
                let (lo, hi) = (lens.iter().min(), lens.iter().max());
                assert!(hi.unwrap() - lo.unwrap() <= 1, "{items}/{parts}: {lens:?}");
            }
        }
    }

    #[test]
    fn small_fan_outs_stay_on_the_caller() {
        for threads in [0, 1, 2, 7] {
            assert_eq!(workers(0, threads), 1);
            assert_eq!(workers(PARALLEL_FRONTIER_MIN - 1, threads), 1);
        }
        assert_eq!(workers(PARALLEL_FRONTIER_MIN, 1), 1);
        #[cfg(feature = "parallel")]
        {
            assert_eq!(workers(PARALLEL_FRONTIER_MIN, 3), 3);
            assert_eq!(workers(PARALLEL_FRONTIER_MIN, 0), requested_threads(0));
        }
        #[cfg(not(feature = "parallel"))]
        assert_eq!(workers(PARALLEL_FRONTIER_MIN, 3), 1);
    }
}
