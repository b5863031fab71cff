//! TCP transport: the same [`Channel`] contract over real sockets.
//!
//! Frames are `u32` length-prefixed message bodies. Each channel runs a
//! reader thread that feeds an internal queue, so `recv_timeout` has the
//! same semantics as the in-process implementation. This is the transport a
//! real deployment uses between the cloud service and remote endpoints; the
//! experiments use it to show the protocol is not an in-process toy.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use funcx_types::time::Wake;
use funcx_types::{FuncxError, Result};
use parking_lot::Mutex;

use crate::channel::{Channel, ChannelHandle, WakerSlot};
use crate::message::Message;

/// Largest accepted frame (64 MiB) — guards against hostile length prefixes.
const MAX_FRAME: u32 = 64 << 20;

/// Write one length-prefixed frame.
fn write_frame(stream: &mut TcpStream, body: &[u8]) -> std::io::Result<()> {
    let len = body.len() as u32;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Read one length-prefixed frame.
fn read_frame(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds limit"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    stream.read_exact(&mut body)?;
    Ok(body)
}

struct TcpChannel {
    writer: Mutex<TcpStream>,
    incoming: Receiver<Message>,
    closed: Arc<AtomicBool>,
    /// Shared with the reader thread, which is what delivers to this side.
    waker: Arc<WakerSlot>,
}

impl TcpChannel {
    fn spawn(stream: TcpStream) -> ChannelHandle {
        stream.set_nodelay(true).ok();
        let closed = Arc::new(AtomicBool::new(false));
        let (tx, rx): (Sender<Message>, Receiver<Message>) = unbounded();
        let mut reader = stream.try_clone().expect("clone tcp stream");
        let closed_reader = Arc::clone(&closed);
        let waker = Arc::new(WakerSlot::default());
        let waker_reader = Arc::clone(&waker);
        std::thread::Builder::new()
            .name("funcx-tcp-reader".into())
            .spawn(move || {
                // Until EOF or a read error (peer gone):
                while let Ok(body) = read_frame(&mut reader) {
                    match Message::from_bytes(&body) {
                        Ok(msg) => {
                            if tx.send(msg).is_err() {
                                break;
                            }
                            waker_reader.notify();
                        }
                        Err(_) => break, // protocol violation: drop link
                    }
                }
                closed_reader.store(true, Ordering::Release);
                waker_reader.notify();
            })
            .expect("spawn tcp reader");
        Arc::new(TcpChannel { writer: Mutex::new(stream), incoming: rx, closed, waker })
    }
}

impl Channel for TcpChannel {
    fn send(&self, msg: Message) -> Result<()> {
        if self.closed.load(Ordering::Acquire) {
            return Err(FuncxError::Disconnected("tcp channel closed".into()));
        }
        let body = msg.to_bytes();
        write_frame(&mut self.writer.lock(), &body).map_err(|e| {
            self.closed.store(true, Ordering::Release);
            FuncxError::Disconnected(format!("tcp send: {e}"))
        })
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Message> {
        match self.incoming.recv_timeout(timeout) {
            Ok(m) => Ok(m),
            Err(RecvTimeoutError::Timeout) => {
                if self.closed.load(Ordering::Acquire) {
                    Err(FuncxError::Disconnected("tcp channel closed".into()))
                } else {
                    Err(FuncxError::Timeout("tcp recv".into()))
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                Err(FuncxError::Disconnected("tcp reader exited".into()))
            }
        }
    }

    fn try_recv(&self) -> Result<Option<Message>> {
        match self.incoming.try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(crossbeam::channel::TryRecvError::Empty) => {
                if self.closed.load(Ordering::Acquire) {
                    Err(FuncxError::Disconnected("tcp channel closed".into()))
                } else {
                    Ok(None)
                }
            }
            Err(crossbeam::channel::TryRecvError::Disconnected) => {
                Err(FuncxError::Disconnected("tcp reader exited".into()))
            }
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        let _ = self.writer.lock().shutdown(std::net::Shutdown::Both);
        self.waker.notify();
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    fn set_waker(&self, wake: Arc<Wake>) {
        self.waker.set(wake);
    }
}

/// The reader thread holds a clone of the socket, so without this a dropped
/// handle would leave the connection up: the peer would learn of the loss
/// from heartbeat silence, and the reader would outlive the channel.
impl Drop for TcpChannel {
    fn drop(&mut self) {
        self.close();
    }
}

/// A listening TCP endpoint that yields channels, one per inbound peer.
pub struct TcpServer {
    listener: TcpListener,
    addr: SocketAddr,
}

impl TcpServer {
    /// Bind to an address (use port 0 for an ephemeral port).
    pub fn bind(addr: &str) -> Result<Self> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| FuncxError::Internal(format!("tcp bind {addr}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| FuncxError::Internal(format!("tcp local_addr: {e}")))?;
        Ok(TcpServer { listener, addr })
    }

    /// The bound address peers should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until a peer connects; returns the channel to it.
    pub fn accept(&self) -> Result<ChannelHandle> {
        let (stream, _) =
            self.listener.accept().map_err(|e| FuncxError::Internal(format!("tcp accept: {e}")))?;
        Ok(TcpChannel::spawn(stream))
    }

    /// Accept with a wall-clock timeout (the forwarder's accept loop polls
    /// this so it can honour shutdown while waiting for an agent).
    pub fn accept_timeout(&self, timeout: Duration) -> Result<Option<ChannelHandle>> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| FuncxError::Internal(format!("tcp nonblocking: {e}")))?;
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream
                        .set_nonblocking(false)
                        .map_err(|e| FuncxError::Internal(format!("tcp blocking: {e}")))?;
                    return Ok(Some(TcpChannel::spawn(stream)));
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if std::time::Instant::now() >= deadline {
                        return Ok(None);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(FuncxError::Internal(format!("tcp accept: {e}"))),
            }
        }
    }
}

/// Connect to a listening peer.
pub fn connect(addr: SocketAddr) -> Result<ChannelHandle> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| FuncxError::Disconnected(format!("tcp connect {addr}: {e}")))?;
    Ok(TcpChannel::spawn(stream))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Message, TaskDispatch};
    use funcx_types::{FunctionId, TaskId};
    use std::thread;

    fn pair() -> (ChannelHandle, ChannelHandle) {
        let server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let h = thread::spawn(move || server.accept().unwrap());
        let client = connect(addr).unwrap();
        let server_side = h.join().unwrap();
        (client, server_side)
    }

    #[test]
    fn waker_contract_holds_over_real_sockets() {
        crate::channel::waker_contract::check(pair);
    }

    #[test]
    fn roundtrip_over_real_sockets() {
        let (client, server) = pair();
        client.send(Message::heartbeat(7)).unwrap();
        assert_eq!(server.recv_timeout(Duration::from_secs(2)).unwrap(), Message::heartbeat(7));
        server.send(Message::HeartbeatAck { seq: 7 }).unwrap();
        assert_eq!(
            client.recv_timeout(Duration::from_secs(2)).unwrap(),
            Message::HeartbeatAck { seq: 7 }
        );
    }

    #[test]
    fn large_batch_crosses_intact() {
        let (client, server) = pair();
        let tasks: Vec<TaskDispatch> = (0..500)
            .map(|i| TaskDispatch {
                task_id: TaskId::from_u128(i),
                function_id: FunctionId::from_u128(1),
                code: vec![b'x'; 200],
                payload: vec![b'y'; 100],
                container: None,
                container_modules: vec![],
                span: Default::default(),
                runtime: Default::default(),
                limits: Default::default(),
                capabilities: vec![],
                session: None,
            })
            .collect();
        client.send(Message::Tasks(tasks.clone())).unwrap();
        let Message::Tasks(got) = server.recv_timeout(Duration::from_secs(5)).unwrap() else {
            panic!()
        };
        assert_eq!(got, tasks);
    }

    #[test]
    fn peer_close_is_observed() {
        let (client, server) = pair();
        client.close();
        // Server eventually observes disconnect (reader thread sees EOF).
        let mut disconnected = false;
        for _ in 0..50 {
            match server.recv_timeout(Duration::from_millis(50)) {
                Err(FuncxError::Disconnected(_)) => {
                    disconnected = true;
                    break;
                }
                Err(FuncxError::Timeout(_)) => continue,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(disconnected);
    }

    #[test]
    fn many_messages_preserve_order() {
        let (client, server) = pair();
        let h = thread::spawn(move || {
            for seq in 0..2000 {
                client.send(Message::heartbeat(seq)).unwrap();
            }
        });
        for expect in 0..2000 {
            let Message::Heartbeat { seq, .. } =
                server.recv_timeout(Duration::from_secs(5)).unwrap()
            else {
                panic!()
            };
            assert_eq!(seq, expect);
        }
        h.join().unwrap();
    }
}
