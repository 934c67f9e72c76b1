//! Epoch-based snapshot publication: immutable, `Arc`-shared index
//! snapshots that readers pin while writers build the next one off to
//! the side.
//!
//! The scheme is the ikd-Tree double-buffer idiom generalized: a
//! [`EpochPublisher`] owns the *current* epoch — an [`Epoch`] wrapping
//! an immutable snapshot value (a [`RouterSnapshot`](crate::RouterSnapshot),
//! a shared tree, anything `Send + Sync`) — and every in-flight search
//! [`pin`](EpochPublisher::pin)s the epoch it started on. Mutation
//! never touches a published epoch: the writer clones/rebuilds its own
//! working state, then [`publish`](EpochPublisher::publish)es the next
//! snapshot with one brief lock-held `Arc` swap. Readers therefore
//! never block on writer work (the lock is held only for the pointer
//! swap, never across a rebuild), and a pinned epoch stays exactly as
//! it was for as long as its `Arc` lives — searches against epoch N are
//! bit-identical to a stop-the-world engine frozen at epoch N.
//!
//! An epoch is **retired** when its last reader drops: the publisher
//! holds only `Weak` handles to past epochs, so retirement is the plain
//! `Arc` drop with no bookkeeping on the query path. Asking for a
//! retired epoch by id is a typed error
//! ([`QueryError::EpochRetired`]), never a panic — the serving boundary
//! convention of [`PipelineError`](../bonsai_cluster) carried down to
//! the snapshot layer.
//!
//! # Examples
//!
//! ```
//! use bonsai_core::EpochPublisher;
//!
//! let publisher = EpochPublisher::new(vec![1, 2, 3]);
//! let pinned = publisher.pin(); // a reader starts on epoch 0
//! publisher.publish(vec![4, 5, 6]); // writer swaps in epoch 1
//!
//! // The reader still sees exactly what it pinned…
//! assert_eq!(pinned.value(), &[1, 2, 3]);
//! assert_eq!(pinned.id(), 0);
//! // …while new readers get the fresh epoch.
//! assert_eq!(publisher.pin().value(), &[4, 5, 6]);
//!
//! // Retirement is the Arc drop; a retired epoch is a typed error.
//! drop(pinned);
//! assert!(publisher.try_pin_epoch(0).is_err());
//! ```

use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError, Weak};

use bonsai_geom::Aabb;

/// A query-side snapshot-access failure, typed so serving layers can
/// distinguish "retry on the current epoch" from "the data is offline".
///
/// Matches the `PipelineError` convention from the cluster crate: every
/// condition a caller can trigger is a variant, not a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The requested epoch was retired: its last reader dropped and the
    /// publisher no longer holds it. Pin the current epoch instead.
    EpochRetired {
        /// The epoch id that is no longer available.
        epoch: u64,
    },
    /// The index cannot answer any query right now: every shard is
    /// quarantined pending a healing rebuild, so a search would cover
    /// none of the indexed space (an empty result would be silently
    /// wrong, not authoritative).
    NoCoverage {
        /// Bounding boxes of the offline regions.
        offline: Vec<Aabb>,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::EpochRetired { epoch } => {
                write!(f, "epoch {epoch} was retired (its last reader dropped)")
            }
            QueryError::NoCoverage { offline } => write!(
                f,
                "no searchable coverage: all {} shard region(s) are quarantined",
                offline.len()
            ),
        }
    }
}

impl Error for QueryError {}

/// One published snapshot: an immutable value tagged with its epoch id.
///
/// Readers hold it through `Arc<Epoch<T>>`; the value is never mutated
/// after publication, so a pinned epoch is a consistent point-in-time
/// view for as long as the `Arc` lives.
#[derive(Debug)]
pub struct Epoch<T> {
    id: u64,
    value: T,
}

impl<T> Epoch<T> {
    /// This epoch's id: 0 for the publisher's initial value, +1 per
    /// publish.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The immutable snapshot value.
    pub fn value(&self) -> &T {
        &self.value
    }
}

#[derive(Debug)]
struct PublisherState<T> {
    current: Arc<Epoch<T>>,
    /// `(id, weak)` of every epoch not yet known-retired, ascending by
    /// id. Weak handles only: retirement is the readers' `Arc` drop,
    /// and the dead entries are pruned on each publish/lookup.
    history: Vec<(u64, Weak<Epoch<T>>)>,
}

/// Publication point for [`Epoch`] snapshots: readers
/// [`pin`](EpochPublisher::pin), writers
/// [`publish`](EpochPublisher::publish). See the docs at the top of
/// `epoch.rs` for the scheme.
#[derive(Debug)]
pub struct EpochPublisher<T> {
    state: Mutex<PublisherState<T>>,
}

impl<T> EpochPublisher<T> {
    /// A publisher whose epoch 0 is `value`.
    pub fn new(value: T) -> EpochPublisher<T> {
        let current = Arc::new(Epoch { id: 0, value });
        let history = vec![(0, Arc::downgrade(&current))];
        EpochPublisher {
            state: Mutex::new(PublisherState { current, history }),
        }
    }

    /// Lock the publisher state. A poisoned lock is recovered, not
    /// propagated: the state is a pair of `Arc`s whose every transition
    /// is a complete assignment, so there is no torn intermediate a
    /// panicking thread could have left behind.
    fn locked(&self) -> std::sync::MutexGuard<'_, PublisherState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pins the current epoch: the returned `Arc` keeps that snapshot
    /// alive (and bit-stable) until dropped. Never blocks on writer
    /// work — the internal lock is only ever held for pointer swaps.
    pub fn pin(&self) -> Arc<Epoch<T>> {
        Arc::clone(&self.locked().current)
    }

    /// The current epoch id without pinning it.
    pub fn epoch(&self) -> u64 {
        self.locked().current.id
    }

    /// Publishes `value` as the next epoch and returns its id. The
    /// previous epoch stays alive exactly as long as readers still pin
    /// it; with no readers it retires immediately.
    ///
    /// Build `value` **before** calling — the swap itself is O(history)
    /// under the lock, so readers never stall behind a rebuild.
    pub fn publish(&self, value: T) -> u64 {
        let mut state = self.locked();
        let id = state.current.id + 1;
        let next = Arc::new(Epoch { id, value });
        state.history.push((id, Arc::downgrade(&next)));
        state.history.retain(|(_, w)| w.strong_count() > 0);
        state.current = next;
        id
    }

    /// Re-pins a specific epoch by id: the snapshot if any reader (or
    /// the publisher, for the current epoch) still holds it, else
    /// [`QueryError::EpochRetired`].
    ///
    /// This is the non-panicking accessor the serving layer exposes for
    /// "continue my session on the epoch I started on" semantics.
    pub fn try_pin_epoch(&self, id: u64) -> Result<Arc<Epoch<T>>, QueryError> {
        let state = self.locked();
        state
            .history
            .iter()
            .find(|(eid, _)| *eid == id)
            .and_then(|(_, w)| w.upgrade())
            .ok_or(QueryError::EpochRetired { epoch: id })
    }

    /// Ids of every epoch still alive (pinned by a reader, or current),
    /// ascending.
    pub fn live_epochs(&self) -> Vec<u64> {
        self.locked()
            .history
            .iter()
            .filter(|(_, w)| w.strong_count() > 0)
            .map(|(id, _)| *id)
            .collect()
    }

    /// How far the oldest still-pinned epoch lags the current one:
    /// `current − oldest_live`, 0 when no reader pins anything older
    /// than the current epoch. A reader that lags far behind is wedged
    /// or mid-recovery, and holds its epoch's copy-on-write shard
    /// copies alive.
    pub fn epoch_lag(&self) -> u64 {
        let state = self.locked();
        let current = state.current.id;
        state
            .history
            .iter()
            .filter(|(_, w)| w.strong_count() > 0)
            .map(|(id, _)| *id)
            .min()
            .map_or(0, |oldest| current - oldest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_bumps_epoch_and_readers_keep_their_pin() {
        let p = EpochPublisher::new(10u32);
        assert_eq!(p.epoch(), 0);
        let old = p.pin();
        assert_eq!(p.publish(20), 1);
        assert_eq!(p.publish(30), 2);
        assert_eq!(*old.value(), 10, "pinned epoch mutated under the reader");
        assert_eq!(*p.pin().value(), 30);
        assert_eq!(p.epoch(), 2);
    }

    #[test]
    fn retired_epoch_is_a_typed_error_not_a_panic() {
        let p = EpochPublisher::new(1u32);
        let pinned = p.pin();
        p.publish(2);
        // Still pinned: re-pinnable by id.
        let again = p.try_pin_epoch(0).expect("epoch 0 is still pinned");
        assert_eq!(*again.value(), 1);
        drop(pinned);
        drop(again);
        assert!(matches!(
            p.try_pin_epoch(0),
            Err(QueryError::EpochRetired { epoch: 0 })
        ));
        // Unknown / future ids are the same typed error.
        assert!(matches!(
            p.try_pin_epoch(99),
            Err(QueryError::EpochRetired { epoch: 99 })
        ));
    }

    #[test]
    fn epoch_lag_follows_the_oldest_pin() {
        let p = EpochPublisher::new(0u32);
        assert_eq!(p.epoch_lag(), 0, "current epoch alone lags nothing");
        let e0 = p.pin();
        for v in 1..=5 {
            p.publish(v);
        }
        assert_eq!(p.epoch_lag(), 5, "epoch 0 is pinned five publishes back");
        let e3 = p.try_pin_epoch(5).expect("current epoch pins");
        drop(e0);
        assert_eq!(p.epoch_lag(), 0, "only the current epoch remains pinned");
        drop(e3);
        p.publish(6);
        assert_eq!(p.epoch_lag(), 0);
    }

    #[test]
    fn live_epochs_tracks_pins_and_prunes_retired() {
        let p = EpochPublisher::new(0u32);
        let e0 = p.pin();
        p.publish(1);
        let e1 = p.pin();
        p.publish(2);
        assert_eq!(p.live_epochs(), vec![0, 1, 2]);
        drop(e0);
        assert_eq!(p.live_epochs(), vec![1, 2]);
        drop(e1);
        // Publishing retires the unpinned previous epoch: with no
        // reader holding 2, the swap to 3 drops its last Arc.
        p.publish(3);
        assert_eq!(p.live_epochs(), vec![3]);
    }

    #[test]
    fn concurrent_pin_and_publish_never_tears() {
        let p = std::sync::Arc::new(EpochPublisher::new(vec![0u64; 64]));
        std::thread::scope(|s| {
            let writer = {
                let p = std::sync::Arc::clone(&p);
                s.spawn(move || {
                    for i in 1..200u64 {
                        p.publish(vec![i; 64]);
                    }
                })
            };
            for _ in 0..4 {
                let p = std::sync::Arc::clone(&p);
                s.spawn(move || {
                    for _ in 0..500 {
                        let e = p.pin();
                        let v = e.value();
                        assert!(v.iter().all(|&x| x == v[0]), "epoch {} tore: {v:?}", e.id());
                    }
                });
            }
            writer.join().expect("writer panicked");
        });
    }
}
