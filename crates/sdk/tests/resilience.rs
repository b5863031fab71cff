//! SDK transport resilience: the `RestApi` follows 307 redirects to a
//! partition's owning instance and retries throttled (429) / unavailable
//! (503) answers with capped exponential backoff, honoring `Retry-After`.
//!
//! Each test scripts a tiny real HTTP server (the service's own
//! `HttpServer`) so the behavior is exercised over actual sockets — one
//! regression test per status code the cluster FrontDoor can answer with.
//!
//! The second half pins connection reuse: one `RestApi` keeps one
//! connection per address through calls, redirects and retries, a `GET`
//! survives a connection the server dropped, and a `POST` is never sent
//! twice.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use funcx_sdk::api::ServiceApi;
use funcx_sdk::{RestApi, RetryPolicy};
use funcx_service::http::{Handler, HttpServer, Response};
use funcx_types::FuncxError;

/// The local stub harness can't serialize REST bodies; these tests only
/// run where real serde is linked (CI).
fn serde_is_stubbed() -> bool {
    serde_json::to_vec(&serde_json::json!({})).is_err()
}

/// A short-fuse policy so retry tests finish in milliseconds.
fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
        max_redirects: 5,
    }
}

/// Serve `f` on an ephemeral port.
fn scripted(
    f: impl Fn(usize) -> Response + Send + Sync + 'static,
) -> (HttpServer, Arc<AtomicUsize>) {
    let hits = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&hits);
    let handler: Handler = Arc::new(move |_req| {
        let n = seen.fetch_add(1, Ordering::SeqCst);
        f(n)
    });
    (HttpServer::serve("127.0.0.1:0", handler).unwrap(), hits)
}

const SLO_BODY: &[u8] = br#"{"slos": []}"#;

#[test]
fn temporary_redirects_are_followed_to_the_owner() {
    if serde_is_stubbed() {
        return;
    }
    // `owner` holds the answer; the front instance only points at it.
    let (owner, owner_hits) = scripted(|_| Response::json(200, SLO_BODY));
    let owner_addr = owner.local_addr();
    let (front, front_hits) = scripted(move |_| {
        Response::json(307, Vec::new())
            .with_header("Location", format!("http://{owner_addr}/v1/slo"))
    });

    let api = RestApi::with_policy(front.local_addr(), fast_policy());
    let out = api.slo("token").expect("redirect must be followed transparently");
    assert!(out["slos"].as_array().is_some(), "owner's body must come back: {out}");
    assert_eq!(front_hits.load(Ordering::SeqCst), 1);
    assert_eq!(owner_hits.load(Ordering::SeqCst), 1, "exactly one forwarded request");
}

#[test]
fn relative_redirects_stay_on_the_same_instance() {
    if serde_is_stubbed() {
        return;
    }
    let (server, hits) = scripted(|n| {
        if n == 0 {
            Response::json(307, Vec::new()).with_header("Location", "/v1/slo")
        } else {
            Response::json(200, SLO_BODY)
        }
    });
    let api = RestApi::with_policy(server.local_addr(), fast_policy());
    api.slo("token").expect("bare-path Location must resolve against the same host");
    assert_eq!(hits.load(Ordering::SeqCst), 2);
}

#[test]
fn redirect_loops_are_bounded() {
    if serde_is_stubbed() {
        return;
    }
    // Every answer bounces back to ourselves: the client must give up
    // after `max_redirects` hops rather than spin forever.
    let (server, hits) =
        scripted(|_| Response::json(307, Vec::new()).with_header("Location", "/v1/slo"));
    let api = RestApi::with_policy(server.local_addr(), fast_policy());
    let err = api.slo("token").expect_err("a redirect loop must error out");
    assert!(matches!(err, FuncxError::ProtocolViolation(_)), "got {err:?}");
    // max_redirects hops plus the original request.
    assert!(hits.load(Ordering::SeqCst) <= fast_policy().max_redirects as usize + 1);
}

#[test]
fn throttled_requests_retry_after_the_hinted_delay() {
    if serde_is_stubbed() {
        return;
    }
    // Two 429s (with a deliberately huge Retry-After the policy must cap),
    // then success.
    let (server, hits) = scripted(|n| {
        if n < 2 {
            Response::json(429, br#"{"error": "rate_limited", "message": "slow down"}"#.to_vec())
                .with_header("Retry-After", "3600")
        } else {
            Response::json(200, SLO_BODY)
        }
    });
    let api = RestApi::with_policy(server.local_addr(), fast_policy());
    let started = std::time::Instant::now();
    api.slo("token").expect("the third attempt must succeed");
    assert_eq!(hits.load(Ordering::SeqCst), 3);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "an hour-long Retry-After must be capped by max_backoff"
    );
}

#[test]
fn exhausted_retries_surface_the_rate_limit() {
    if serde_is_stubbed() {
        return;
    }
    let (server, hits) = scripted(|_| {
        Response::json(429, br#"{"error": "rate_limited", "message": "slow down"}"#.to_vec())
            .with_header("Retry-After", "7")
    });
    let api = RestApi::with_policy(server.local_addr(), fast_policy());
    let err = api.slo("token").expect_err("a permanently throttled user sees the 429");
    assert!(
        matches!(err, FuncxError::RateLimited { retry_after_secs: 7 }),
        "the server's hint must ride the error: {err:?}"
    );
    assert_eq!(hits.load(Ordering::SeqCst), fast_policy().max_attempts as usize);
}

#[test]
fn unavailable_answers_are_retried_with_backoff() {
    if serde_is_stubbed() {
        return;
    }
    // One 503 with no Retry-After: the exponential schedule drives the
    // sleep, and the follow-up succeeds.
    let (server, hits) = scripted(|n| {
        if n == 0 {
            Response::json(503, br#"{"error": "internal", "message": "failing over"}"#.to_vec())
        } else {
            Response::json(200, SLO_BODY)
        }
    });
    let api = RestApi::with_policy(server.local_addr(), fast_policy());
    api.slo("token").expect("a transient 503 must be retried");
    assert_eq!(hits.load(Ordering::SeqCst), 2);
}

#[test]
fn other_errors_do_not_retry() {
    if serde_is_stubbed() {
        return;
    }
    let (server, hits) = scripted(|_| {
        Response::json(400, br#"{"error": "bad_request", "message": "nope"}"#.to_vec())
    });
    let api = RestApi::with_policy(server.local_addr(), fast_policy());
    let err = api.slo("token").expect_err("a 400 is not retryable");
    assert!(matches!(err, FuncxError::BadRequest(_)), "got {err:?}");
    assert_eq!(hits.load(Ordering::SeqCst), 1, "no retries for client errors");
}

// ---------------------------------------------------------------------------
// Connection reuse. These tests need to see connections, not requests, so
// they script a listener of their own: it serves one connection at a time
// (a `RestApi` uses one at a time per address), counts accepts and
// requests, and can drop a connection without saying so.

/// What the scripted listener does with a request it has read.
enum Step {
    /// Answer, and keep the connection open.
    Reply(Response),
    /// Answer, then close the socket without a `Connection: close`: what a
    /// client sees when the server has dropped an idle connection.
    ReplyThenDrop(Response),
    /// Close the socket without answering.
    Vanish,
}

struct Wire {
    addr: std::net::SocketAddr,
    accepts: Arc<AtomicUsize>,
    requests: Arc<AtomicUsize>,
    posts: Arc<AtomicUsize>,
    stop: Arc<std::sync::atomic::AtomicBool>,
    current: Arc<parking_lot::Mutex<Option<std::net::TcpStream>>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Wire {
    fn counts(&self) -> (usize, usize) {
        (self.accepts.load(Ordering::SeqCst), self.requests.load(Ordering::SeqCst))
    }
}

impl Drop for Wire {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(stream) = self.current.lock().take() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let _ = std::net::TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            thread.join().expect("scripted listener panicked");
        }
    }
}

/// Read one request off `reader`; `None` at EOF. Returns its method.
fn read_wire_request(reader: &mut impl std::io::BufRead) -> Option<String> {
    let mut line = String::new();
    if reader.read_line(&mut line).ok()? == 0 {
        return None;
    }
    let method = line.split_whitespace().next()?.to_string();
    let mut len = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line).ok()?;
        if line.trim_end().is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                len = value.trim().parse().ok()?;
            }
        }
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).ok()?;
    Some(method)
}

/// Serve `script(request number, method)` on an ephemeral port.
fn wire(script: impl Fn(usize, &str) -> Step + Send + 'static) -> Wire {
    use std::io::Write;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accepts = Arc::new(AtomicUsize::new(0));
    let requests = Arc::new(AtomicUsize::new(0));
    let posts = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let current = Arc::new(parking_lot::Mutex::new(None));
    let thread = {
        let (accepts, requests, posts) =
            (Arc::clone(&accepts), Arc::clone(&requests), Arc::clone(&posts));
        let (stop, current) = (Arc::clone(&stop), Arc::clone(&current));
        std::thread::spawn(move || loop {
            let (mut stream, _) = listener.accept().unwrap();
            if stop.load(Ordering::SeqCst) {
                return;
            }
            accepts.fetch_add(1, Ordering::SeqCst);
            *current.lock() = Some(stream.try_clone().unwrap());
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            while let Some(method) = read_wire_request(&mut reader) {
                let n = requests.fetch_add(1, Ordering::SeqCst);
                if method == "POST" {
                    posts.fetch_add(1, Ordering::SeqCst);
                }
                let (resp, keep) = match script(n, &method) {
                    Step::Reply(resp) => (resp, true),
                    Step::ReplyThenDrop(resp) => (resp, false),
                    Step::Vanish => break,
                };
                let mut wire = format!(
                    "HTTP/1.1 {} Scripted\r\nContent-Length: {}\r\nConnection: keep-alive\r\n",
                    resp.status,
                    resp.body.len()
                );
                for (name, value) in &resp.headers {
                    wire.push_str(&format!("{name}: {value}\r\n"));
                }
                wire.push_str("\r\n");
                let mut wire = wire.into_bytes();
                wire.extend_from_slice(&resp.body);
                if stream.write_all(&wire).is_err() || !keep {
                    break;
                }
            }
            current.lock().take();
        })
    };
    Wire { addr, accepts, requests, posts, stop, current, thread: Some(thread) }
}

const EMPTY_BATCH: &[u8] = br#"{"task_ids": []}"#;

#[test]
fn fifty_calls_open_one_connection() {
    if serde_is_stubbed() {
        return;
    }
    let server = wire(|_, _| Step::Reply(Response::json(200, SLO_BODY)));
    let api = RestApi::with_policy(server.addr, fast_policy());
    for _ in 0..50 {
        api.slo("token").unwrap();
    }
    assert_eq!(server.counts(), (1, 50));
}

#[test]
fn a_redirect_opens_one_connection_at_the_owner_and_the_door_keeps_its_own() {
    if serde_is_stubbed() {
        return;
    }
    let owner = wire(|_, _| Step::Reply(Response::json(200, SLO_BODY)));
    let owner_addr = owner.addr;
    let door = wire(move |n, _| {
        // Odd calls are answered at the door, even ones sent to the owner.
        if n % 2 == 0 {
            Step::Reply(
                Response::json(307, Vec::new())
                    .with_header("Location", format!("http://{owner_addr}/v1/slo")),
            )
        } else {
            Step::Reply(Response::json(200, SLO_BODY))
        }
    });
    let api = RestApi::with_policy(door.addr, fast_policy());
    for _ in 0..10 {
        api.slo("token").unwrap();
    }
    assert_eq!(door.counts(), (1, 10), "every call starts on the door's one connection");
    assert_eq!(owner.counts(), (1, 5), "five redirects share one connection to the owner");
}

#[test]
fn a_throttled_retry_reuses_the_connection() {
    if serde_is_stubbed() {
        return;
    }
    let server = wire(|n, _| {
        if n < 2 {
            Step::Reply(
                Response::json(
                    429,
                    br#"{"error": "rate_limited", "message": "slow down"}"#.to_vec(),
                )
                .with_header("Retry-After", "0"),
            )
        } else {
            Step::Reply(Response::json(200, SLO_BODY))
        }
    });
    let api = RestApi::with_policy(server.addr, fast_policy());
    api.slo("token").expect("the third attempt must succeed");
    assert_eq!(server.counts(), (1, 3));
}

#[test]
fn a_dropped_idle_connection_is_invisible_to_a_get() {
    if serde_is_stubbed() {
        return;
    }
    // The server drops the connection after its first answer, as it would
    // one that sat idle; the client only finds out on its next request.
    let server = wire(|n, _| {
        let resp = Response::json(200, SLO_BODY);
        if n == 0 {
            Step::ReplyThenDrop(resp)
        } else {
            Step::Reply(resp)
        }
    });
    let api = RestApi::with_policy(server.addr, fast_policy());
    api.slo("token").unwrap();
    api.slo("token").expect("a GET on a stale connection goes again on a fresh one");
    assert_eq!(server.counts(), (2, 2));

    // A GET the server swallowed on a reused connection goes again too,
    // once: a fresh connection that fails is an error.
    let server = wire(|n, _| match n {
        0 | 2 => Step::Reply(Response::json(200, SLO_BODY)),
        _ => Step::Vanish,
    });
    let api = RestApi::with_policy(server.addr, fast_policy());
    api.slo("token").unwrap();
    api.slo("token").expect("request 1 vanished, its retry is request 2");
    assert_eq!(server.counts(), (2, 3));
    api.slo("token").expect_err("request 3 vanishes; so does its one retry");
    assert_eq!(server.counts(), (3, 5));
}

#[test]
fn a_post_on_a_killed_connection_is_never_replayed() {
    if serde_is_stubbed() {
        return;
    }
    // Request 0 warms the connection; request 1, a POST, is read by the
    // server, which then dies without answering.
    let server = wire(|n, _| match n {
        1 => Step::Vanish,
        _ => Step::Reply(Response::json(200, EMPTY_BATCH)),
    });
    let api = RestApi::with_policy(server.addr, fast_policy());
    api.submit_batch("token", Vec::new()).unwrap();
    assert_eq!(server.posts.load(Ordering::SeqCst), 1);

    let err = api.submit_batch("token", Vec::new()).expect_err("the answer never came");
    assert!(matches!(err, FuncxError::Disconnected(_)), "got {err:?}");
    assert_eq!(server.posts.load(Ordering::SeqCst), 2, "delivered once, not replayed");
    assert_eq!(server.counts(), (1, 2), "and no second connection was tried for it");

    // Nor when the connection was already gone before the POST was sent.
    let server = wire(|n, _| {
        let resp = Response::json(200, EMPTY_BATCH);
        if n == 0 {
            Step::ReplyThenDrop(resp)
        } else {
            Step::Reply(resp)
        }
    });
    let api = RestApi::with_policy(server.addr, fast_policy());
    api.submit_batch("token", Vec::new()).unwrap();
    let err = api.submit_batch("token", Vec::new()).expect_err("the connection was stale");
    assert!(matches!(err, FuncxError::Disconnected(_)), "got {err:?}");
    assert_eq!(server.posts.load(Ordering::SeqCst), 1, "the stale POST reached nobody");
    // The caller's own retry is a new request on a new connection.
    api.submit_batch("token", Vec::new()).unwrap();
    assert_eq!(server.posts.load(Ordering::SeqCst), 2);
    assert_eq!(server.accepts.load(Ordering::SeqCst), 2);
}
