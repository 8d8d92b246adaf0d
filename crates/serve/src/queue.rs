//! The bounded accept/work queue.
//!
//! Connections accepted off the listener do not go straight to a
//! worker; they enter a [`BoundedQueue`]. Below capacity every arrival
//! is admitted; at capacity, or once the queue is closed, the arrival
//! is shed and handed back to the caller, who owns the explicit 503.
//!
//! Admitted items leave in FIFO order; shedding never reorders or
//! drops an admitted item. The depth is mirrored in an atomic that
//! `push` and `pop` set under the lock, so reading it takes no lock.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A blocking MPMC queue that holds at most `capacity` items.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
    /// `items.len()` as of the last push or pop.
    len: AtomicUsize,
}

impl<T> BoundedQueue<T> {
    /// Creates an empty queue that holds at most `capacity` items.
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
            len: AtomicUsize::new(0),
        }
    }

    /// Locks the queue state, recovering from poisoning: a panicking
    /// worker must not wedge the accept queue for every other thread.
    fn state(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Offers one item. `None` means it was enqueued; a shed item (the
    /// queue was full or closed) comes back as `Some` to the caller.
    pub fn push(&self, item: T) -> Option<T> {
        let mut inner = self.state();
        if inner.closed || inner.items.len() >= self.capacity {
            return Some(item);
        }
        inner.items.push_back(item);
        self.len.store(inner.items.len(), Ordering::Relaxed);
        drop(inner);
        self.ready.notify_one();
        None
    }

    /// Blocks until an item is available (FIFO) or the queue is closed
    /// and drained; `None` means shutdown.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.state();
        loop {
            if let Some(item) = inner.items.pop_front() {
                self.len.store(inner.items.len(), Ordering::Relaxed);
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = match self.ready.wait(inner) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Closes the queue: pending items still drain, new offers shed,
    /// and blocked poppers wake with `None` once empty.
    pub fn close(&self) {
        self.state().closed = true;
        self.ready.notify_all();
    }

    /// Items currently queued, read without taking the lock.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn admits_then_sheds_at_capacity() {
        let queue = BoundedQueue::new(3);
        for i in 0..3 {
            assert_eq!(queue.push(i), None, "below capacity admits");
        }
        assert_eq!(
            queue.push(99),
            Some(99),
            "shed items come back to the caller"
        );
        assert_eq!(queue.len(), 3);
    }

    #[test]
    fn close_wakes_poppers_and_sheds_new_offers() {
        let queue = BoundedQueue::new(8);
        assert_eq!(queue.push(1), None);
        queue.close();
        assert_eq!(queue.pop(), Some(1), "queued items still drain");
        assert_eq!(queue.pop(), None, "then shutdown");
        assert_eq!(queue.push(2), Some(2));
    }

    proptest! {
        /// The queue never holds more than `capacity` items, whatever
        /// the interleaving of pushes and pops.
        #[test]
        fn never_exceeds_capacity(
            capacity in 1usize..16,
            ops in proptest::collection::vec(any::<bool>(), 0..200),
        ) {
            let queue = BoundedQueue::new(capacity);
            let mut next = 0u32;
            for is_push in ops {
                if is_push {
                    queue.push(next);
                    next += 1;
                } else if !queue.is_empty() {
                    queue.pop();
                }
                prop_assert!(queue.len() <= capacity);
            }
        }

        /// FIFO holds for admitted items: whatever was shed, the items
        /// that did get in come out in exactly their arrival order.
        #[test]
        fn fifo_preserved_for_admitted(
            capacity in 1usize..12,
            pushes in 1usize..100,
        ) {
            let queue = BoundedQueue::new(capacity);
            let mut admitted = Vec::new();
            for i in 0..pushes as u32 {
                if queue.push(i).is_none() {
                    admitted.push(i);
                }
                // Drain a little mid-stream to vary the depths (pop
                // blocks on an empty queue, so only drain when full).
                if i % 5 == 4 && !queue.is_empty() {
                    let x = queue.pop().unwrap();
                    assert_eq!(x, admitted.remove(0));
                }
            }
            for expect in admitted {
                prop_assert_eq!(queue.pop(), Some(expect));
            }
        }
    }
}
