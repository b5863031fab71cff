//! Blocking FIFO queues — the Redis `RPUSH`/`BLPOP` pair the funcX service
//! uses for per-endpoint task and result queues.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use funcx_types::time::Wake;
use parking_lot::{Condvar, Mutex};

/// An unbounded, thread-safe FIFO with blocking pop and front-requeue.
///
/// Front-requeue (`push_front`) backs the at-least-once story: when a
/// forwarder detects a dead agent it "returns outstanding tasks back into
/// the task queue" (§4.1) ahead of newer work.
pub struct BlockingQueue {
    inner: Mutex<QueueInner>,
    cv: Condvar,
}

struct QueueInner {
    items: VecDeque<Bytes>,
    closed: bool,
    /// The wake of the one loop that drains this queue (its forwarder).
    waker: Option<Arc<Wake>>,
}

impl QueueInner {
    fn notify(&self) {
        if let Some(wake) = &self.waker {
            wake.notify();
        }
    }
}

impl BlockingQueue {
    /// New empty queue.
    pub fn new() -> Arc<Self> {
        Arc::new(BlockingQueue {
            inner: Mutex::new(QueueInner { items: VecDeque::new(), closed: false, waker: None }),
            cv: Condvar::new(),
        })
    }

    /// Append to the back (`RPUSH`). Returns false if the queue is closed.
    pub fn push_back(&self, item: Bytes) -> bool {
        let mut g = self.inner.lock();
        if g.closed {
            return false;
        }
        g.items.push_back(item);
        g.notify();
        drop(g);
        self.cv.notify_one();
        true
    }

    /// Requeue at the front (`LPUSH`) — redelivered tasks jump the line.
    pub fn push_front(&self, item: Bytes) -> bool {
        let mut g = self.inner.lock();
        if g.closed {
            return false;
        }
        g.items.push_front(item);
        g.notify();
        drop(g);
        self.cv.notify_one();
        true
    }

    /// Non-blocking pop (`LPOP`).
    pub fn try_pop(&self) -> Option<Bytes> {
        self.inner.lock().items.pop_front()
    }

    /// Blocking pop (`BLPOP`) with a wall-clock timeout. Returns `None` on
    /// timeout or when the queue is closed and drained.
    pub fn pop_timeout(&self, timeout: Duration) -> Option<Bytes> {
        let deadline = std::time::Instant::now() + timeout;
        let mut g = self.inner.lock();
        loop {
            if let Some(item) = g.items.pop_front() {
                return Some(item);
            }
            if g.closed {
                return None;
            }
            if self.cv.wait_until(&mut g, deadline).timed_out() {
                return g.items.pop_front();
            }
        }
    }

    /// Drain up to `max` items without blocking — the forwarder's batch
    /// read (§4.7 internal batching).
    pub fn drain(&self, max: usize) -> Vec<Bytes> {
        let mut g = self.inner.lock();
        let n = g.items.len().min(max);
        g.items.drain(..n).collect()
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.inner.lock().items.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Close the queue: pushes fail, poppers drain what's left then get
    /// `None`.
    pub fn close(&self) {
        let mut g = self.inner.lock();
        g.closed = true;
        g.notify();
        drop(g);
        self.cv.notify_all();
    }

    /// Post `wake` on every push and on close, for a loop that drains this
    /// queue among other sources and so cannot park in
    /// [`pop_timeout`](Self::pop_timeout). A later call replaces the wake
    /// (a new forwarder generation takes over the endpoint's queue).
    /// Installing it posts it once, on behalf of what is already queued.
    pub fn set_waker(&self, wake: Arc<Wake>) {
        wake.notify();
        self.inner.lock().waker = Some(wake);
    }

    /// True once closed.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order() {
        let q = BlockingQueue::new();
        q.push_back(Bytes::from_static(b"a"));
        q.push_back(Bytes::from_static(b"b"));
        assert_eq!(q.try_pop().unwrap(), Bytes::from_static(b"a"));
        assert_eq!(q.try_pop().unwrap(), Bytes::from_static(b"b"));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn push_front_jumps_line() {
        let q = BlockingQueue::new();
        q.push_back(Bytes::from_static(b"new"));
        q.push_front(Bytes::from_static(b"requeued"));
        assert_eq!(q.try_pop().unwrap(), Bytes::from_static(b"requeued"));
    }

    #[test]
    fn blocking_pop_wakes_on_push() {
        let q = BlockingQueue::new();
        let q2 = q.clone();
        let h = thread::spawn(move || q2.pop_timeout(Duration::from_secs(10)));
        thread::sleep(Duration::from_millis(30));
        q.push_back(Bytes::from_static(b"x"));
        assert_eq!(h.join().unwrap().unwrap(), Bytes::from_static(b"x"));
    }

    #[test]
    fn pop_times_out_empty() {
        let q = BlockingQueue::new();
        let start = std::time::Instant::now();
        assert_eq!(q.pop_timeout(Duration::from_millis(30)), None);
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn close_unblocks_poppers_and_rejects_pushes() {
        let q = BlockingQueue::new();
        let q2 = q.clone();
        let h = thread::spawn(move || q2.pop_timeout(Duration::from_secs(10)));
        thread::sleep(Duration::from_millis(30));
        q.close();
        assert_eq!(h.join().unwrap(), None);
        assert!(!q.push_back(Bytes::from_static(b"x")));
        assert!(!q.push_front(Bytes::from_static(b"x")));
    }

    #[test]
    fn close_drains_remaining_items_first() {
        let q = BlockingQueue::new();
        q.push_back(Bytes::from_static(b"left-over"));
        q.close();
        assert_eq!(
            q.pop_timeout(Duration::from_millis(10)).unwrap(),
            Bytes::from_static(b"left-over")
        );
        assert_eq!(q.pop_timeout(Duration::from_millis(10)), None);
    }

    #[test]
    fn waker_is_posted_by_pushes_and_close_and_is_replaceable() {
        let tick = Duration::from_millis(20);
        let q = BlockingQueue::new();
        q.push_back(Bytes::from_static(b"early"));
        let first = Wake::new();
        q.set_waker(Arc::clone(&first));
        // Queued before the wake was installed: installing announces it.
        assert!(first.wait_timeout(Duration::from_secs(30)));
        assert_eq!(q.drain(8).len(), 1);

        q.push_back(Bytes::from_static(b"a"));
        assert!(first.wait_timeout(Duration::from_secs(30)));
        q.push_front(Bytes::from_static(b"b"));
        assert!(first.wait_timeout(Duration::from_secs(30)));

        // A second forwarder generation on the same queue takes over.
        let second = Wake::new();
        q.set_waker(Arc::clone(&second));
        assert!(second.wait_timeout(Duration::from_secs(30)));
        q.push_back(Bytes::from_static(b"c"));
        assert!(second.wait_timeout(Duration::from_secs(30)));
        assert!(!first.wait_timeout(tick), "replaced wake is no longer posted");

        q.close();
        assert!(second.wait_timeout(Duration::from_secs(30)));
        // A refused push is not news.
        assert!(!q.push_back(Bytes::from_static(b"d")));
        assert!(!second.wait_timeout(tick));
    }

    #[test]
    fn drain_takes_at_most_max() {
        let q = BlockingQueue::new();
        for i in 0..10u8 {
            q.push_back(Bytes::copy_from_slice(&[i]));
        }
        let batch = q.drain(4);
        assert_eq!(batch.len(), 4);
        assert_eq!(batch[0], Bytes::from_static(&[0]));
        assert_eq!(q.len(), 6);
        assert_eq!(q.drain(100).len(), 6);
        assert!(q.is_empty());
    }

    #[test]
    fn many_producers_one_consumer_sees_everything() {
        let q = BlockingQueue::new();
        let producers = 8;
        let per = 200;
        thread::scope(|s| {
            for _ in 0..producers {
                let q = q.clone();
                s.spawn(move || {
                    for i in 0..per {
                        q.push_back(Bytes::copy_from_slice(&(i as u32).to_le_bytes()));
                    }
                });
            }
            let q = q.clone();
            let consumer = s.spawn(move || {
                let mut seen = 0;
                while seen < producers * per {
                    if q.pop_timeout(Duration::from_secs(5)).is_some() {
                        seen += 1;
                    } else {
                        break;
                    }
                }
                seen
            });
            assert_eq!(consumer.join().unwrap(), producers * per);
        });
    }
}
