//! HTTP/1.1 server and client with persistent connections.
//!
//! The paper's API is "a JSON POST request to the REST API" (§3). This
//! module gives the REST layer a real socket to live on without pulling in
//! a web framework, and keeps the per-request cost at parse + handler +
//! one write: a connection is opened once and reused, and nothing on the
//! request path sleeps, spawns or reconnects.
//!
//! **Server.** [`HttpServer`] blocks in `accept` and hands each connection
//! to a pool thread: a parked one if there is one, a new one while fewer
//! than `MAX_CONNECTIONS` connections are open, and a `503` otherwise. A
//! thread runs its connection's request loop (read request → handler →
//! one `write_all`) until either side says `Connection: close`, the peer
//! goes quiet for `IDLE_TIMEOUT`, or a request fails to parse; then it
//! parks again. Requests are bounded in line length, header count, body
//! size and total arrival time, so no byte sequence can pin a thread.
//!
//! **Client.** [`HttpClient`] pools idle connections per address;
//! [`http_request`] is the one-shot `Connection: close` form of the same
//! exchange. The stale-connection rule, stated once: a pooled connection
//! idle for more than half the server's `IDLE_TIMEOUT` is discarded
//! rather than reused; if a reused connection fails before the first
//! response byte, a `GET` is retried once on a fresh connection; any other
//! method is **never replayed** and surfaces `Disconnected`, because a
//! replayed `POST /v1/submit` would create a second task.
//!
//! Deliberately unsupported: chunked transfer encoding (Content-Length
//! bodies only; a `Transfer-Encoding` request is answered `400`), TLS, and
//! `Expect: 100-continue` (no interim response is ever sent).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver};
use funcx_telemetry::fx_log;
use funcx_types::{FuncxError, Result};
use parking_lot::Mutex;

/// Largest accepted request body (1 MiB — bigger payloads must go
/// out-of-band, mirroring the service's data-size stance).
const MAX_BODY: usize = 1 << 20;

/// Longest accepted start line or header line, terminator included.
const MAX_LINE: usize = 8 << 10;

/// Most header lines accepted in one message.
const MAX_HEADERS: usize = 64;

/// Most connections a server holds open, and so most pool threads: a
/// kept-alive connection occupies one thread for as long as it is open.
const MAX_CONNECTIONS: usize = 256;

/// How long a server waits on a silent connection, between requests or in
/// the middle of one, before closing it.
const IDLE_TIMEOUT: Duration = Duration::from_secs(4);

/// How long one request may take to arrive, first byte to last.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Largest response body a client will allocate for.
const MAX_RESPONSE_BODY: usize = 64 << 20;

/// Most idle connections an [`HttpClient`] keeps per address.
const MAX_IDLE_PER_ADDR: usize = 16;

/// Longest a client waits on one socket read or write, so that a server
/// that stops answering costs its caller an error and not a thread.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, `PUT`, `DELETE`.
    pub method: String,
    /// Path with no query string, e.g. `/v1/tasks/abc/status`.
    pub path: String,
    /// Raw query string (no leading `?`), empty when the URL had none.
    pub query: String,
    /// Lower-cased header map.
    pub headers: HashMap<String, String>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// Bearer token from the Authorization header, if present.
    pub fn bearer(&self) -> Option<&str> {
        self.headers.get("authorization").and_then(|v| v.strip_prefix("Bearer "))
    }

    /// Value of query parameter `name` (`?name=value`), if present.
    ///
    /// Percent-decoded (`%2F` → `/`, `+` → space). A bare key (`?name`) or
    /// an empty value (`?name=`) both yield `Some("")` — present but empty;
    /// callers that want a default should treat empty as absent. When a key
    /// repeats, the first occurrence wins.
    pub fn query_param(&self, name: &str) -> Option<String> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = match pair.split_once('=') {
                Some((k, v)) => (k, v),
                None => (pair, ""),
            };
            (percent_decode(k) == name).then(|| percent_decode(v))
        })
    }
}

/// Decode `%XX` escapes and `+`-as-space. Malformed escapes (`%`, `%2`,
/// `%zz`) pass through literally rather than erroring — a query string must
/// never be able to take a route down.
fn percent_decode(raw: &str) -> String {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if i + 2 < bytes.len() => {
                let hex = |b: u8| (b as char).to_digit(16).map(|d| d as u8);
                match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                    (Some(hi), Some(lo)) => {
                        out.push(hi << 4 | lo);
                        i += 2;
                    }
                    _ => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Content-Type header value.
    pub content_type: String,
    /// Extra headers beyond Content-Type/Content-Length/Connection —
    /// `Location` on redirects, `Retry-After` on throttles.
    pub headers: Vec<(String, String)>,
    /// Body bytes (JSON in this service; plain text for `/v1/metrics`).
    pub body: Vec<u8>,
}

impl Response {
    /// A response with a JSON body.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "application/json".into(),
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A response in the Prometheus text exposition format.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "text/plain; version=0.0.4".into(),
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Attach an extra response header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Value of header `name`, matched case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            307 => "Temporary Redirect",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        }
    }
}

/// Handler type for the server.
pub type Handler = Arc<dyn Fn(Request) -> Response + Send + Sync>;

// ---------------------------------------------------------------------------
// Codec: message heads, shared by server and client.

/// Why a message head could not be read.
enum HeadError {
    /// EOF or a socket error in the middle of the message.
    Closed,
    /// The read timeout or the request deadline passed.
    TimedOut,
    /// A line over [`MAX_LINE`] or more than [`MAX_HEADERS`] header lines.
    TooLarge,
    /// A line that is not UTF-8.
    Malformed,
}

impl HeadError {
    fn from_io(e: &std::io::Error) -> HeadError {
        // A socket read timeout is `WouldBlock` on Unix, `TimedOut` elsewhere.
        match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => HeadError::TimedOut,
            _ => HeadError::Closed,
        }
    }

    /// The status a server answers a request that failed this way.
    fn status(self) -> u16 {
        match self {
            HeadError::Closed | HeadError::Malformed => 400,
            HeadError::TimedOut => 408,
            HeadError::TooLarge => 431,
        }
    }

    /// The error a client surfaces for a response that failed this way.
    fn client_error(self) -> FuncxError {
        match self {
            HeadError::Closed => FuncxError::Disconnected("http recv: connection closed".into()),
            HeadError::TimedOut => FuncxError::Disconnected("http recv: timed out".into()),
            HeadError::TooLarge => {
                FuncxError::ProtocolViolation("http response head too large".into())
            }
            HeadError::Malformed => FuncxError::ProtocolViolation("malformed http response".into()),
        }
    }
}

/// One line of a message head without its terminator (`\r\n`, or a bare
/// `\n`), never buffering more than [`MAX_LINE`] bytes of it.
fn read_line<R: BufRead>(reader: &mut R) -> std::result::Result<String, HeadError> {
    let mut line = Vec::new();
    Read::take(&mut *reader, MAX_LINE as u64)
        .read_until(b'\n', &mut line)
        .map_err(|e| HeadError::from_io(&e))?;
    if line.last() != Some(&b'\n') {
        return Err(if line.len() >= MAX_LINE { HeadError::TooLarge } else { HeadError::Closed });
    }
    line.pop();
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| HeadError::Malformed)
}

/// The header block up to and including its blank line, names as sent.
/// Lines without a colon are skipped but still count against the cap.
fn read_headers<R: BufRead>(
    reader: &mut R,
) -> std::result::Result<Vec<(String, String)>, HeadError> {
    let mut headers = Vec::new();
    for _ in 0..=MAX_HEADERS {
        let line = read_line(reader)?;
        if line.is_empty() {
            return Ok(headers);
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }
    }
    Err(HeadError::TooLarge)
}

/// Whether the connection outlives this message: the `Connection` header
/// when it speaks, else the version's default (HTTP/1.1 persists).
fn persists(version: Option<&str>, connection: Option<&str>) -> bool {
    let says = |token: &str| {
        connection.is_some_and(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case(token)))
    };
    !says("close") && (says("keep-alive") || version == Some("HTTP/1.1"))
}

fn connection_header(keep_alive: bool) -> &'static str {
    if keep_alive {
        "keep-alive"
    } else {
        "close"
    }
}

/// Head and body as one buffer, so a message is one `write_all` and never
/// two segments for Nagle and delayed ACK to hold apart.
fn encode_response(resp: &Response, keep_alive: bool) -> Vec<u8> {
    let mut wire = Vec::with_capacity(160 + resp.body.len());
    let _ = write!(
        wire,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        resp.status,
        resp.reason(),
        resp.content_type,
        resp.body.len(),
        connection_header(keep_alive),
    );
    for (name, value) in &resp.headers {
        let _ = write!(wire, "{name}: {value}\r\n");
    }
    wire.extend_from_slice(b"\r\n");
    wire.extend_from_slice(&resp.body);
    wire
}

fn encode_request(
    method: &str,
    path: &str,
    bearer: Option<&str>,
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let mut wire = Vec::with_capacity(160 + body.len());
    let _ = write!(
        wire,
        "{method} {path} HTTP/1.1\r\nHost: funcx\r\nContent-Length: {}\r\nConnection: {}\r\n",
        body.len(),
        connection_header(keep_alive),
    );
    if let Some(token) = bearer {
        let _ = write!(wire, "Authorization: Bearer {token}\r\n");
    }
    wire.extend_from_slice(b"\r\n");
    wire.extend_from_slice(body);
    wire
}

// ---------------------------------------------------------------------------
// Server.

/// A server-side socket whose reads fail once the request being read has
/// been arriving for [`REQUEST_TIMEOUT`]: the socket's own read timeout
/// bounds one silent stretch, this bounds a peer that drips bytes.
struct Deadlined<'a> {
    stream: &'a TcpStream,
    deadline: Option<Instant>,
}

impl Read for Deadlined<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            return Err(ErrorKind::TimedOut.into());
        }
        self.stream.read(buf)
    }
}

/// The next request on the connection and whether the connection persists
/// after its response. `Ok(None)` is the clean end of a connection: EOF,
/// reset or [`IDLE_TIMEOUT`] with no byte of a next request read. `Err` is
/// the status to answer before closing.
fn read_request(
    reader: &mut BufReader<Deadlined<'_>>,
) -> std::result::Result<Option<(Request, bool)>, u16> {
    // Bytes left in the buffer after the previous body are the next
    // request; only an empty buffer waits on the socket.
    reader.get_mut().deadline = None;
    if !reader.fill_buf().is_ok_and(|buffered| !buffered.is_empty()) {
        return Ok(None);
    }
    reader.get_mut().deadline = Some(Instant::now() + REQUEST_TIMEOUT);

    let line = read_line(reader).map_err(HeadError::status)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or(400u16)?.to_string();
    let target = parts.next().ok_or(400u16)?;
    let version = parts.next();
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let headers: HashMap<String, String> = read_headers(reader)
        .map_err(HeadError::status)?
        .into_iter()
        .map(|(name, value)| (name.to_lowercase(), value))
        .collect();
    let keep_alive = persists(version, headers.get("connection").map(String::as_str));

    // An unreadable length or a chunked body would leave the stream out of
    // step with the request boundaries, so both are refused outright.
    if headers.contains_key("transfer-encoding") {
        return Err(400);
    }
    let len: usize = match headers.get("content-length") {
        Some(v) => v.parse().map_err(|_| 400u16)?,
        None => 0,
    };
    if len > MAX_BODY {
        return Err(413);
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).map_err(|e| HeadError::from_io(&e).status())?;
    Ok(Some((Request { method, path, query, headers, body }, keep_alive)))
}

fn error_response(status: u16) -> Response {
    Response::json(status, format!("{{\"error\":\"http {status}\"}}"))
}

/// Run one connection's request loop to its end.
fn serve_connection(stream: &TcpStream, handler: &Handler) {
    let configured = stream
        .set_nodelay(true)
        .and_then(|_| stream.set_read_timeout(Some(IDLE_TIMEOUT)))
        .and_then(|_| stream.set_write_timeout(Some(IDLE_TIMEOUT)));
    if configured.is_err() {
        return;
    }
    let mut reader = BufReader::new(Deadlined { stream, deadline: None });
    loop {
        let (resp, keep_alive) = match read_request(&mut reader) {
            Ok(Some((req, keep_alive))) => {
                // A panicking handler costs its caller a 500 and the
                // connection, not the pool a thread.
                match catch_unwind(AssertUnwindSafe(|| handler(req))) {
                    Ok(resp) => (resp, keep_alive),
                    Err(_) => (error_response(500), false),
                }
            }
            Ok(None) => return,
            Err(status) => (error_response(status), false),
        };
        let mut socket = stream;
        if socket.write_all(&encode_response(&resp, keep_alive)).is_err() || !keep_alive {
            return;
        }
    }
}

/// Answer `503` on a connection no thread can take, and close it.
fn refuse(stream: &TcpStream) {
    let mut socket = stream;
    let _ = socket.write_all(&encode_response(&error_response(503), false));
    let _ = stream.shutdown(Shutdown::Both);
}

/// An accepted connection and its key in [`Shared::live`].
type Conn = (u64, Arc<TcpStream>);

/// State the accept thread, the pool threads and `stop` share.
struct Shared {
    handler: Handler,
    shutdown: AtomicBool,
    /// Every open connection, so `stop` can shut down the ones whose
    /// thread is blocked reading an idle socket. Only the accept thread
    /// inserts, which is why `stop` sweeps after joining it.
    live: Mutex<HashMap<u64, Arc<TcpStream>>>,
    /// Parked pool threads not yet promised a connection. Pool threads
    /// increment it; only the accept thread decrements it.
    idle: AtomicUsize,
    /// Pool threads spawned so far; they live until `stop`.
    threads: AtomicUsize,
}

/// A running HTTP server.
pub struct HttpServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// The accept thread, which returns the pool threads it spawned.
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl HttpServer {
    /// Bind and serve `handler` on `addr` (use port 0 for ephemeral).
    pub fn serve(addr: &str, handler: Handler) -> Result<HttpServer> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| FuncxError::Internal(format!("http bind {addr}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| FuncxError::Internal(format!("http local_addr: {e}")))?;
        let shared = Arc::new(Shared {
            handler,
            shutdown: AtomicBool::new(false),
            live: Mutex::new(HashMap::new()),
            idle: AtomicUsize::new(0),
            threads: AtomicUsize::new(0),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("funcx-http-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .map_err(|e| FuncxError::Internal(format!("http accept thread: {e}")))?
        };
        Ok(HttpServer { addr: local, shared, acceptor: Some(acceptor) })
    }

    /// Bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, close every open connection and join every thread.
    /// A handler that is running finishes first; idle kept-alive
    /// connections do not delay the return.
    pub fn stop(&mut self) {
        let Some(acceptor) = self.acceptor.take() else { return };
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The accept thread is blocked in `accept`: a connection wakes it.
        let _ = TcpStream::connect(self.addr);
        let workers = acceptor.join().unwrap_or_default();
        for stream in self.shared.live.lock().values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for worker in workers {
            let _ = worker.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Accept until `stop`, giving each connection to a parked pool thread, a
/// new one, or a `503`. Returning drops the channel's only sender, which
/// is what tells parked threads to exit.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) -> Vec<JoinHandle<()>> {
    let (tx, rx) = unbounded::<Conn>();
    let mut workers = Vec::new();
    for id in 0u64.. {
        let stream = match listener.accept() {
            Ok((stream, _)) => Arc::new(stream),
            Err(e) if matches!(e.kind(), ErrorKind::ConnectionAborted | ErrorKind::Interrupted) => {
                continue
            }
            Err(e) => {
                fx_log!(Error, "http", "accept failed, listener closed", error = e);
                break;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        {
            let mut live = shared.live.lock();
            if live.len() >= MAX_CONNECTIONS {
                drop(live);
                refuse(&stream);
                continue;
            }
            live.insert(id, Arc::clone(&stream));
        }
        if shared.idle.load(Ordering::SeqCst) > 0 {
            shared.idle.fetch_sub(1, Ordering::SeqCst);
            // `rx` is alive in this scope, so the send cannot fail.
            let _ = tx.send((id, stream));
            continue;
        }
        // Every pool thread holds a connection, and fewer than the cap are
        // open, so fewer than the cap threads exist.
        let spawned = {
            let (shared, rx) = (Arc::clone(shared), rx.clone());
            std::thread::Builder::new()
                .name("funcx-http-conn".into())
                .spawn(move || pool_thread(&shared, &rx, (id, stream)))
        };
        match spawned {
            Ok(worker) => {
                shared.threads.fetch_add(1, Ordering::SeqCst);
                workers.push(worker);
            }
            // The closure and its handle on the socket are gone; the
            // registry's handle still answers the client.
            Err(_) => {
                if let Some(stream) = shared.live.lock().remove(&id) {
                    refuse(&stream);
                }
            }
        }
    }
    workers
}

/// Serve `first`, then park on the channel for the next connection, until
/// the accept thread hangs up.
fn pool_thread(shared: &Shared, rx: &Receiver<Conn>, first: Conn) {
    let mut next = Some(first);
    while let Some((id, stream)) = next {
        serve_connection(&stream, &shared.handler);
        shared.live.lock().remove(&id);
        // Counted idle before the socket closes: a client that sees the
        // close and reconnects at once finds this thread, not a spawn or,
        // at the cap, a 503.
        shared.idle.fetch_add(1, Ordering::SeqCst);
        let _ = stream.shutdown(Shutdown::Both);
        drop(stream);
        next = rx.recv().ok();
    }
}

// ---------------------------------------------------------------------------
// Client.

/// An open client connection; the reader may hold bytes read ahead.
type ClientConn = BufReader<TcpStream>;

/// A failed exchange, and whether it failed before any byte of the
/// response arrived (the only point at which a retry can be considered).
struct ExchangeError {
    error: FuncxError,
    before_response: bool,
}

fn connect(addr: SocketAddr) -> Result<ClientConn> {
    let stream = TcpStream::connect(addr)
        .map_err(|e| FuncxError::Disconnected(format!("http connect {addr}: {e}")))?;
    stream
        .set_nodelay(true)
        .and_then(|_| stream.set_read_timeout(Some(CLIENT_TIMEOUT)))
        .and_then(|_| stream.set_write_timeout(Some(CLIENT_TIMEOUT)))
        .map_err(|e| FuncxError::Disconnected(format!("http connect {addr}: {e}")))?;
    Ok(BufReader::new(stream))
}

/// Send one encoded request and read its response. The flag is whether
/// the connection may carry another request afterwards.
fn exchange(
    conn: &mut ClientConn,
    wire: &[u8],
) -> std::result::Result<(Response, bool), ExchangeError> {
    let lost = |what: &str, e: std::io::Error| ExchangeError {
        error: FuncxError::Disconnected(format!("http {what}: {e}")),
        before_response: true,
    };
    conn.get_mut().write_all(wire).map_err(|e| lost("send", e))?;
    match conn.fill_buf() {
        Ok([]) => return Err(lost("recv", ErrorKind::UnexpectedEof.into())),
        Ok(_) => {}
        Err(e) => return Err(lost("recv", e)),
    }
    read_response(conn).map_err(|error| ExchangeError { error, before_response: false })
}

fn read_response(conn: &mut ClientConn) -> Result<(Response, bool)> {
    let status_line = read_line(conn).map_err(HeadError::client_error)?;
    let mut parts = status_line.split_whitespace();
    let version = parts.next();
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| FuncxError::ProtocolViolation("bad http status line".into()))?;
    let mut content_length = None;
    let mut content_type = String::from("application/json");
    let mut connection = None;
    let mut headers = Vec::new();
    for (name, value) in read_headers(conn).map_err(HeadError::client_error)? {
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(value.parse::<usize>().map_err(|_| {
                FuncxError::ProtocolViolation(format!("bad http content-length {value:?}"))
            })?);
        } else if name.eq_ignore_ascii_case("content-type") {
            content_type = value;
        } else if name.eq_ignore_ascii_case("connection") {
            connection = Some(value);
        } else {
            headers.push((name, value));
        }
    }
    let len = content_length.unwrap_or(0);
    if len > MAX_RESPONSE_BODY {
        return Err(FuncxError::ProtocolViolation(format!(
            "http response of {len} bytes exceeds the {MAX_RESPONSE_BODY}-byte limit"
        )));
    }
    let mut body = vec![0u8; len];
    conn.read_exact(&mut body)
        .map_err(|e| FuncxError::Disconnected(format!("http recv body: {e}")))?;
    // Without a length the body's end is unknown, so the stream is spent.
    let reusable = content_length.is_some() && persists(version, connection.as_deref());
    Ok((Response { status, content_type, headers, body }, reusable))
}

/// One-shot HTTP client request (`Connection: close`).
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    bearer: Option<&str>,
    body: &[u8],
) -> Result<Response> {
    let mut conn = connect(addr)?;
    match exchange(&mut conn, &encode_request(method, path, bearer, body, false)) {
        Ok((resp, _)) => Ok(resp),
        Err(e) => Err(e.error),
    }
}

struct IdleConn {
    conn: ClientConn,
    since: Instant,
}

/// An HTTP client that keeps connections open between requests: at most
/// `MAX_IDLE_PER_ADDR` idle ones per address, any number in use. Shared
/// by reference; a request holds the lock only to take and return its
/// connection. The module doc states the stale-connection rule.
#[derive(Default)]
pub struct HttpClient {
    /// Idle connections per address, most recently used last.
    idle: Mutex<HashMap<SocketAddr, Vec<IdleConn>>>,
}

impl HttpClient {
    /// A client with no connection open.
    pub fn new() -> HttpClient {
        HttpClient::default()
    }

    /// Send a request to `addr` on a pooled connection, or a new one.
    pub fn request(
        &self,
        addr: SocketAddr,
        method: &str,
        path: &str,
        bearer: Option<&str>,
        body: &[u8],
    ) -> Result<Response> {
        let wire = encode_request(method, path, bearer, body, true);
        if let Some(mut conn) = self.checkout(addr) {
            match exchange(&mut conn, &wire) {
                Ok(done) => return Ok(self.finish(addr, conn, done)),
                // The server closed a connection it thought idle. Only a
                // GET may go again, on a fresh connection: see the module
                // doc.
                Err(e) if e.before_response && method == "GET" => {}
                Err(e) => return Err(e.error),
            }
        }
        let mut conn = connect(addr)?;
        let done = exchange(&mut conn, &wire).map_err(|e| e.error)?;
        Ok(self.finish(addr, conn, done))
    }

    /// Keep the connection for the next request if both sides allow it.
    fn finish(&self, addr: SocketAddr, conn: ClientConn, done: (Response, bool)) -> Response {
        let (resp, reusable) = done;
        if reusable {
            let mut idle = self.idle.lock();
            let conns = idle.entry(addr).or_default();
            if conns.len() < MAX_IDLE_PER_ADDR {
                conns.push(IdleConn { conn, since: Instant::now() });
            }
        }
        resp
    }

    /// The most recently used idle connection to `addr`, unless even that
    /// one has been idle long enough for the server to have dropped it.
    fn checkout(&self, addr: SocketAddr) -> Option<ClientConn> {
        let mut idle = self.idle.lock();
        let newest = idle.get_mut(&addr)?.pop()?;
        if newest.since.elapsed() > IDLE_TIMEOUT / 2 {
            idle.remove(&addr);
            return None;
        }
        Some(newest.conn)
    }
}

#[cfg(test)]
mod tests;
