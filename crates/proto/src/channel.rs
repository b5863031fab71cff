//! The [`Channel`] abstraction and its in-process implementation.
//!
//! A `Channel` is a bidirectional, message-oriented, possibly-failing pipe —
//! the role ZeroMQ DEALER/ROUTER pairs play in the paper. Components hold
//! `ChannelHandle`s (boxed trait objects) so the same agent/forwarder code
//! runs over in-process queues or TCP without change. Failure injection for
//! the fault-tolerance experiments (Figures 7 and 8) works by dropping a
//! handle: the peer observes `Disconnected`, exactly like a ZeroMQ peer
//! losing its socket.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use funcx_types::time::Wake;
use funcx_types::{FuncxError, Result};
use parking_lot::Mutex;

use crate::message::Message;

/// A bidirectional message pipe.
pub trait Channel: Send + Sync {
    /// Send a message; fails with `Disconnected` if the peer is gone.
    fn send(&self, msg: Message) -> Result<()>;
    /// Receive with a wall-clock timeout; `Timeout` if nothing arrived,
    /// `Disconnected` if the peer is gone and the pipe is drained.
    fn recv_timeout(&self, timeout: Duration) -> Result<Message>;
    /// Receive without blocking.
    fn try_recv(&self) -> Result<Option<Message>>;
    /// Close this side; the peer sees `Disconnected` once drained.
    fn close(&self);
    /// True once either side closed.
    fn is_closed(&self) -> bool;
    /// Post `wake` whenever `try_recv` on this side may have something new
    /// to say: a message was delivered, or the link closed or dropped at
    /// either end. A later call replaces the wake. Installing it posts it
    /// once, on behalf of whatever was queued before.
    fn set_waker(&self, wake: Arc<Wake>);
}

/// Boxed channel, the form components store.
pub type ChannelHandle = Arc<dyn Channel>;

/// Where a receiving side's [`Wake`] is kept for whoever delivers to it.
#[derive(Default)]
pub(crate) struct WakerSlot(Mutex<Option<Arc<Wake>>>);

impl WakerSlot {
    pub(crate) fn set(&self, wake: Arc<Wake>) {
        wake.notify();
        *self.0.lock() = Some(wake);
    }

    pub(crate) fn notify(&self) {
        if let Some(wake) = self.0.lock().as_ref() {
            wake.notify();
        }
    }
}

/// What the two sides of an in-process pair share: the closed flag and one
/// waker slot per side, so a send on side `i` posts the wake of side `1 - i`.
#[derive(Default)]
struct PairState {
    closed: AtomicBool,
    wakers: [WakerSlot; 2],
}

impl PairState {
    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Close the link and wake both loops so each observes it.
    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.wakers[0].notify();
        self.wakers[1].notify();
    }
}

/// One side of an in-process channel pair.
struct InprocSide {
    tx: Sender<Message>,
    rx: Receiver<Message>,
    pair: Arc<PairState>,
    /// Which of the pair's waker slots is this side's own.
    side: usize,
}

impl Channel for InprocSide {
    fn send(&self, msg: Message) -> Result<()> {
        if self.pair.is_closed() {
            return Err(FuncxError::Disconnected("channel closed".into()));
        }
        self.tx.send(msg).map_err(|_| FuncxError::Disconnected("peer receiver dropped".into()))?;
        self.pair.wakers[1 - self.side].notify();
        Ok(())
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Message> {
        if self.pair.is_closed() && self.rx.is_empty() {
            return Err(FuncxError::Disconnected("channel closed".into()));
        }
        match self.rx.recv_timeout(timeout) {
            Ok(m) => Ok(m),
            Err(RecvTimeoutError::Timeout) => {
                if self.pair.is_closed() {
                    Err(FuncxError::Disconnected("channel closed".into()))
                } else {
                    Err(FuncxError::Timeout("recv".into()))
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                Err(FuncxError::Disconnected("peer sender dropped".into()))
            }
        }
    }

    fn try_recv(&self) -> Result<Option<Message>> {
        match self.rx.try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(crossbeam::channel::TryRecvError::Empty) => {
                if self.pair.is_closed() {
                    Err(FuncxError::Disconnected("channel closed".into()))
                } else {
                    Ok(None)
                }
            }
            Err(crossbeam::channel::TryRecvError::Disconnected) => {
                Err(FuncxError::Disconnected("peer sender dropped".into()))
            }
        }
    }

    fn close(&self) {
        self.pair.close();
    }

    fn is_closed(&self) -> bool {
        self.pair.is_closed()
    }

    fn set_waker(&self, wake: Arc<Wake>) {
        self.pair.wakers[self.side].set(wake);
    }
}

/// Dropping a side is the failure injection of Figures 7 and 8. The peer's
/// loop is woken *after* the link reads closed: a wake-up that ran ahead of
/// the sender's own drop would find the pipe merely empty and sleep again.
impl Drop for InprocSide {
    fn drop(&mut self) {
        self.pair.close();
    }
}

/// Create a connected pair of in-process channels. Closing either side (or
/// dropping it) disconnects the peer — the hook the failure-injection
/// experiments use.
pub fn inproc_pair() -> (ChannelHandle, ChannelHandle) {
    let (a_tx, b_rx) = unbounded();
    let (b_tx, a_rx) = unbounded();
    let pair = Arc::new(PairState::default());
    let a = InprocSide { tx: a_tx, rx: a_rx, pair: Arc::clone(&pair), side: 0 };
    let b = InprocSide { tx: b_tx, rx: b_rx, pair, side: 1 };
    (Arc::new(a), Arc::new(b))
}

/// One side of a latency-injecting in-process pair: every message is
/// stamped with `send_time + latency` and is not delivered before that
/// virtual instant. Messages in flight overlap (bandwidth is not modelled,
/// only propagation delay) — the behaviour that makes batching (§4.7) pay:
/// a request/reply exchange costs a full round trip, while one big batch
/// costs a single latency.
struct LatencySide {
    tx: Sender<(funcx_types::time::VirtualInstant, Message)>,
    rx: Receiver<(funcx_types::time::VirtualInstant, Message)>,
    clock: funcx_types::time::SharedClock,
    latency: Duration,
    pair: Arc<PairState>,
    side: usize,
}

impl Channel for LatencySide {
    fn send(&self, msg: Message) -> Result<()> {
        if self.pair.is_closed() {
            return Err(FuncxError::Disconnected("channel closed".into()));
        }
        let deliver_at = self.clock.now() + self.latency;
        self.tx
            .send((deliver_at, msg))
            .map_err(|_| FuncxError::Disconnected("peer receiver dropped".into()))?;
        // Posted at send time: the woken loop's `try_recv` then sleeps out
        // the rest of the propagation delay on the virtual clock.
        self.pair.wakers[1 - self.side].notify();
        Ok(())
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Message> {
        if self.pair.is_closed() && self.rx.is_empty() {
            return Err(FuncxError::Disconnected("channel closed".into()));
        }
        match self.rx.recv_timeout(timeout) {
            Ok((deliver_at, m)) => {
                self.clock.sleep_until(deliver_at);
                Ok(m)
            }
            Err(RecvTimeoutError::Timeout) => {
                if self.pair.is_closed() {
                    Err(FuncxError::Disconnected("channel closed".into()))
                } else {
                    Err(FuncxError::Timeout("recv".into()))
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                Err(FuncxError::Disconnected("peer sender dropped".into()))
            }
        }
    }

    fn try_recv(&self) -> Result<Option<Message>> {
        match self.rx.try_recv() {
            Ok((deliver_at, m)) => {
                self.clock.sleep_until(deliver_at);
                Ok(Some(m))
            }
            Err(crossbeam::channel::TryRecvError::Empty) => {
                if self.pair.is_closed() {
                    Err(FuncxError::Disconnected("channel closed".into()))
                } else {
                    Ok(None)
                }
            }
            Err(crossbeam::channel::TryRecvError::Disconnected) => {
                Err(FuncxError::Disconnected("peer sender dropped".into()))
            }
        }
    }

    fn close(&self) {
        self.pair.close();
    }

    fn is_closed(&self) -> bool {
        self.pair.is_closed()
    }

    fn set_waker(&self, wake: Arc<Wake>) {
        self.pair.wakers[self.side].set(wake);
    }
}

impl Drop for LatencySide {
    fn drop(&mut self) {
        self.pair.close();
    }
}

/// A connected in-process pair with one-way propagation delay `latency`
/// (in virtual time). Pass `Duration::ZERO` for a plain pair.
pub fn inproc_pair_with_latency(
    clock: funcx_types::time::SharedClock,
    latency: Duration,
) -> (ChannelHandle, ChannelHandle) {
    if latency.is_zero() {
        return inproc_pair();
    }
    let (a_tx, b_rx) = unbounded();
    let (b_tx, a_rx) = unbounded();
    let pair = Arc::new(PairState::default());
    let a = LatencySide {
        tx: a_tx,
        rx: a_rx,
        clock: Arc::clone(&clock),
        latency,
        pair: Arc::clone(&pair),
        side: 0,
    };
    let b = LatencySide { tx: b_tx, rx: b_rx, clock, latency, pair, side: 1 };
    (Arc::new(a), Arc::new(b))
}

/// The [`Channel::set_waker`] contract, checked against every transport.
#[cfg(test)]
pub(crate) mod waker_contract {
    use super::*;

    /// A drain-then-block loop in miniature; panics if the wake is not
    /// posted for something `try_recv` goes on to report.
    fn next(ch: &ChannelHandle, wake: &Wake) -> Result<Message> {
        loop {
            if let Some(msg) = ch.try_recv()? {
                return Ok(msg);
            }
            assert!(wake.wait_timeout(Duration::from_secs(30)), "slept through an event");
        }
    }

    pub(crate) fn check(pair: impl Fn() -> (ChannelHandle, ChannelHandle)) {
        let (a, b) = pair();
        // Sent before the wake exists: installing it is the announcement.
        a.send(Message::heartbeat(1)).unwrap();
        let first = Wake::new();
        b.set_waker(Arc::clone(&first));
        assert_eq!(next(&b, &first).unwrap(), Message::heartbeat(1));
        // Delivery posts the receiving side's wake, in both directions.
        a.send(Message::heartbeat(2)).unwrap();
        assert_eq!(next(&b, &first).unwrap(), Message::heartbeat(2));
        let a_wake = Wake::new();
        a.set_waker(Arc::clone(&a_wake));
        b.send(Message::HeartbeatAck { seq: 2 }).unwrap();
        assert_eq!(next(&a, &a_wake).unwrap(), Message::HeartbeatAck { seq: 2 });
        // A second wake replaces the first.
        first.wait_timeout(Duration::ZERO);
        let second = Wake::new();
        b.set_waker(Arc::clone(&second));
        a.send(Message::heartbeat(3)).unwrap();
        assert_eq!(next(&b, &second).unwrap(), Message::heartbeat(3));
        assert!(!first.wait_timeout(Duration::from_millis(20)), "replaced wake still posted");
        // Closing one side wakes both loops into `Disconnected`.
        a.close();
        assert!(matches!(next(&a, &a_wake), Err(FuncxError::Disconnected(_))));
        assert!(matches!(next(&b, &second), Err(FuncxError::Disconnected(_))));

        // Dropping a side (the failure injection) wakes its peer.
        let (a, b) = pair();
        let wake = Wake::new();
        b.set_waker(Arc::clone(&wake));
        drop(a);
        assert!(matches!(next(&b, &wake), Err(FuncxError::Disconnected(_))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn waker_contract_holds_for_both_inproc_pairs() {
        use funcx_types::time::RealClock;
        waker_contract::check(inproc_pair);
        // One virtual second each way is 1 ms of wall time.
        waker_contract::check(|| {
            let clock = Arc::new(RealClock::with_speedup(1000.0));
            inproc_pair_with_latency(clock, Duration::from_secs(1))
        });
    }

    #[test]
    fn bidirectional_send_recv() {
        let (a, b) = inproc_pair();
        a.send(Message::heartbeat(1)).unwrap();
        b.send(Message::HeartbeatAck { seq: 1 }).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_millis(100)).unwrap(), Message::heartbeat(1));
        assert_eq!(
            a.recv_timeout(Duration::from_millis(100)).unwrap(),
            Message::HeartbeatAck { seq: 1 }
        );
    }

    #[test]
    fn timeout_when_empty() {
        let (a, _b) = inproc_pair();
        assert!(matches!(a.recv_timeout(Duration::from_millis(20)), Err(FuncxError::Timeout(_))));
    }

    #[test]
    fn close_disconnects_both_sides() {
        let (a, b) = inproc_pair();
        a.close();
        assert!(a.is_closed() && b.is_closed());
        assert!(matches!(b.send(Message::Shutdown), Err(FuncxError::Disconnected(_))));
        assert!(matches!(
            b.recv_timeout(Duration::from_millis(10)),
            Err(FuncxError::Disconnected(_))
        ));
    }

    #[test]
    fn drop_of_peer_disconnects() {
        let (a, b) = inproc_pair();
        drop(b);
        assert!(matches!(a.send(Message::Shutdown), Err(FuncxError::Disconnected(_))));
    }

    #[test]
    fn try_recv_nonblocking() {
        let (a, b) = inproc_pair();
        assert_eq!(a.try_recv().unwrap(), None);
        b.send(Message::Shutdown).unwrap();
        assert_eq!(a.try_recv().unwrap(), Some(Message::Shutdown));
    }

    #[test]
    fn latency_pair_delays_delivery_in_virtual_time() {
        use funcx_types::time::{Clock, RealClock};
        let clock = Arc::new(RealClock::with_speedup(1000.0));
        let (a, b) = inproc_pair_with_latency(clock.clone(), Duration::from_secs(1));
        let t0 = clock.now();
        a.send(Message::heartbeat(1)).unwrap();
        let _ = b.recv_timeout(Duration::from_secs(10)).unwrap();
        let elapsed = clock.now().saturating_duration_since(t0);
        assert!(elapsed >= Duration::from_millis(900), "one-way delay, got {elapsed:?}");
    }

    #[test]
    fn latency_pair_overlaps_inflight_messages() {
        use funcx_types::time::{Clock, RealClock};
        let clock = Arc::new(RealClock::with_speedup(1000.0));
        let (a, b) = inproc_pair_with_latency(clock.clone(), Duration::from_secs(1));
        let t0 = clock.now();
        // 10 messages sent back-to-back share the pipe; total time should
        // be ~1 latency, not ~10.
        for seq in 0..10 {
            a.send(Message::heartbeat(seq)).unwrap();
        }
        for _ in 0..10 {
            b.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        let elapsed = clock.now().saturating_duration_since(t0);
        assert!(elapsed < Duration::from_secs(5), "pipelined, got {elapsed:?}");
    }

    #[test]
    fn zero_latency_pair_is_plain() {
        use funcx_types::time::ManualClock;
        let (a, b) = inproc_pair_with_latency(ManualClock::new(), Duration::ZERO);
        a.send(Message::Shutdown).unwrap();
        // Would hang on a frozen ManualClock if latency were injected.
        assert_eq!(b.recv_timeout(Duration::from_millis(100)).unwrap(), Message::Shutdown);
    }

    #[test]
    fn messages_preserve_order_across_threads() {
        let (a, b) = inproc_pair();
        let h = thread::spawn(move || {
            for seq in 0..1000 {
                a.send(Message::heartbeat(seq)).unwrap();
            }
        });
        for expect in 0..1000 {
            let Message::Heartbeat { seq, .. } = b.recv_timeout(Duration::from_secs(5)).unwrap()
            else {
                panic!()
            };
            assert_eq!(seq, expect);
        }
        h.join().unwrap();
    }
}
