//! The concurrency primitives a [`Session`] is built from — the bounded
//! channel its lanes stage into (`Bounded`), the refresh worker's busy
//! time (`BusyNs`) and the drop guard that closes channels on every exit
//! path (`Defer`). The runner itself lives in [`crate::replica`]; the staging
//! it runs, in [`crate::pipeline::stage_batch`].

use crate::session::{Session, SessionConfig};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// The one-lane spelling of [`Session`], kept for callers that name it.
pub type TrainingEngine = Session;
/// The one-lane spelling of [`SessionConfig`], kept for callers that name it.
pub type EngineConfig = SessionConfig;

/// A bounded MPMC channel built on `Mutex` + `Condvar` — the workspace
/// avoids external concurrency crates, and `std::sync::mpsc` receivers
/// cannot be shared by the lanes that draw from one buffer pool.
pub(crate) struct Bounded<T> {
    state: Mutex<ChannelState<T>>,
    capacity: usize,
    not_full: Condvar,
    not_empty: Condvar,
}

struct ChannelState<T> {
    queue: VecDeque<T>,
    closed: bool,
}

impl<T> Bounded<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "channel capacity must be positive");
        Self {
            state: Mutex::new(ChannelState {
                queue: VecDeque::new(),
                closed: false,
            }),
            capacity,
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Blocks while full. Returns `false` (dropping `item`) if the channel
    /// was closed.
    pub(crate) fn send(&self, item: T) -> bool {
        self.send_or_return(item).is_none()
    }

    /// Blocks while full. On a closed channel the item is handed back so
    /// the caller can fall back to computing locally.
    pub(crate) fn send_or_return(&self, item: T) -> Option<T> {
        let mut st = self.state.lock().unwrap();
        while st.queue.len() >= self.capacity && !st.closed {
            st = self.not_full.wait(st).unwrap();
        }
        if st.closed {
            return Some(item);
        }
        st.queue.push_back(item);
        self.not_empty.notify_one();
        None
    }

    /// Blocks while empty. Returns `None` once the channel is closed *and*
    /// drained.
    pub(crate) fn recv(&self) -> Option<T> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(item) = st.queue.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap();
        }
    }

    /// Non-blocking **LIFO** receive: `None` when the queue is momentarily
    /// empty (or closed) — the pool path's "no spare bundle, allocate
    /// fresh". Popping the most recently returned item keeps a buffer pool
    /// cycling its hottest bundles — the ones whose capacities have already
    /// grown to the working set — so steady state arrives after a handful
    /// of batches instead of after every pooled bundle has individually
    /// served the largest batch.
    pub(crate) fn try_recv(&self) -> Option<T> {
        let mut st = self.state.lock().unwrap();
        let item = st.queue.pop_back();
        if item.is_some() {
            self.not_full.notify_one();
        }
        item
    }

    /// Non-blocking send: hands `item` back when the channel is full or
    /// closed, so a bounded pool can simply drop surplus bundles instead
    /// of stalling the train stage on its own recycling.
    pub(crate) fn try_send(&self, item: T) -> Option<T> {
        let mut st = self.state.lock().unwrap();
        if st.closed || st.queue.len() >= self.capacity {
            return Some(item);
        }
        st.queue.push_back(item);
        self.not_empty.notify_one();
        None
    }

    /// Like [`Self::recv`], but gives up after `timeout` of continuous
    /// emptiness — the supervisor's only way to tell a *stalled* producer
    /// (alive but not progressing) from a merely slow one. A closed+drained
    /// channel still reports [`RecvTimeout::Closed`] immediately.
    pub(crate) fn recv_timeout(&self, timeout: Duration) -> RecvTimeout<T> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(item) = st.queue.pop_front() {
                self.not_full.notify_one();
                return RecvTimeout::Item(item);
            }
            if st.closed {
                return RecvTimeout::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return RecvTimeout::TimedOut;
            }
            let (guard, _) = self.not_empty.wait_timeout(st, deadline - now).unwrap();
            st = guard;
        }
    }

    /// Marks the channel closed; receivers drain the queue then see `None`.
    pub(crate) fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

/// Outcome of [`Bounded::recv_timeout`].
pub(crate) enum RecvTimeout<T> {
    /// An item arrived within the timeout.
    Item(T),
    /// The channel is closed and drained — the producer exited.
    Closed,
    /// Nothing arrived for the whole timeout — the producer may be stalled.
    TimedOut,
}

/// The refresh worker's busy nanoseconds, credited by wall-clock window.
#[derive(Default)]
pub(crate) struct BusyNs(AtomicU64);

impl BusyNs {
    pub(crate) fn add(&self, since: Instant) {
        self.0
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn seconds(&self) -> f64 {
        self.0.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// Runs a closure on drop — used so that channel close happens even when a
/// stage panics, turning a bug-induced panic into a
/// propagated failure instead of a deadlock (workers blocked forever on a
/// channel nobody will close).
pub(crate) struct Defer<F: FnMut()>(pub(crate) F);

impl<F: FnMut()> Drop for Defer<F> {
    fn drop(&mut self) {
        (self.0)();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bounded_channel_blocks_at_capacity_and_drains_after_close() {
        let ch: Arc<Bounded<u32>> = Arc::new(Bounded::new(2));
        let producer = {
            let ch = Arc::clone(&ch);
            std::thread::spawn(move || {
                for i in 0..10 {
                    assert!(ch.send(i));
                }
                ch.close();
            })
        };
        let mut got = Vec::new();
        while let Some(v) = ch.recv() {
            got.push(v);
        }
        producer.join().unwrap();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        // After close, sends hand the item back and recv keeps seeing None.
        assert!(!ch.send(99));
        assert_eq!(ch.send_or_return(7), Some(7));
        assert!(ch.recv().is_none());
    }

    #[test]
    fn try_ops_never_block_and_bounce_at_capacity_or_close() {
        let ch: Bounded<u32> = Bounded::new(2);
        assert_eq!(ch.try_recv(), None, "empty channel yields nothing");
        assert_eq!(ch.try_send(1), None);
        assert_eq!(ch.try_send(2), None);
        assert_eq!(ch.try_send(3), Some(3), "full channel bounces the item");
        assert_eq!(ch.try_recv(), Some(2), "try_recv is LIFO: hottest first");
        assert_eq!(ch.try_send(3), None, "recv made room");
        ch.close();
        assert_eq!(ch.try_send(4), Some(4), "closed channel bounces");
        // A closed channel still drains — the pool's teardown path.
        assert_eq!(ch.try_recv(), Some(3));
        assert_eq!(ch.try_recv(), Some(1));
        assert_eq!(ch.try_recv(), None);
    }
}
