//! Socket-level tests of the server, the client pool and the codec. Each
//! one talks to a real listener on an ephemeral port; the raw-byte tests
//! write exactly what a misbehaving peer would.

use super::*;

fn echo_server() -> HttpServer {
    HttpServer::serve(
        "127.0.0.1:0",
        Arc::new(|req: Request| {
            let body = format!(
                "{{\"method\":\"{}\",\"path\":\"{}\",\"len\":{},\"bearer\":\"{}\"}}",
                req.method,
                req.path,
                req.body.len(),
                req.bearer().unwrap_or("")
            );
            Response::json(200, body)
        }),
    )
    .unwrap()
}

/// A raw client socket. The read timeout only turns a test that would
/// hang into one that fails.
fn raw(server: &HttpServer) -> ClientConn {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    BufReader::new(stream)
}

fn send(conn: &mut ClientConn, bytes: &[u8]) {
    conn.get_mut().write_all(bytes).unwrap();
}

/// The next response and whether the server keeps the connection open.
fn recv(conn: &mut ClientConn) -> (Response, bool) {
    read_response(conn).expect("a well-formed response")
}

fn text(resp: &Response) -> &str {
    std::str::from_utf8(&resp.body).unwrap()
}

/// Block until the server closes; fail on any byte it sends first.
fn assert_closed(conn: &mut ClientConn) {
    let mut rest = Vec::new();
    // A reset is a close too: the server may drop a socket with bytes of
    // ours unread.
    let _ = conn.read_to_end(&mut rest);
    assert!(rest.is_empty(), "unexpected bytes: {:?}", String::from_utf8_lossy(&rest));
}

fn threads(server: &HttpServer) -> usize {
    server.shared.threads.load(Ordering::SeqCst)
}

fn idle_threads(server: &HttpServer) -> usize {
    server.shared.idle.load(Ordering::SeqCst)
}

// ---- one-shot client, query strings (as before keep-alive) -----------------

#[test]
fn request_response_roundtrip() {
    let server = echo_server();
    let resp =
        http_request(server.local_addr(), "POST", "/v1/submit", Some("tok123"), b"{\"x\":1}")
            .unwrap();
    assert_eq!(resp.status, 200);
    let text = String::from_utf8(resp.body).unwrap();
    assert!(text.contains("\"method\":\"POST\""));
    assert!(text.contains("\"path\":\"/v1/submit\""));
    assert!(text.contains("\"len\":7"));
    assert!(text.contains("\"bearer\":\"tok123\""));
}

#[test]
fn query_strings_are_stripped() {
    let server = echo_server();
    let resp = http_request(server.local_addr(), "GET", "/v1/tasks?limit=5", None, b"").unwrap();
    let text = String::from_utf8(resp.body).unwrap();
    assert!(text.contains("\"path\":\"/v1/tasks\""));
}

#[test]
fn query_params_are_parsed() {
    let req = Request {
        method: "GET".into(),
        path: "/v1/traces".into(),
        query: "slowest=5&format=chrome".into(),
        headers: HashMap::new(),
        body: Vec::new(),
    };
    assert_eq!(req.query_param("slowest").as_deref(), Some("5"));
    assert_eq!(req.query_param("format").as_deref(), Some("chrome"));
    assert_eq!(req.query_param("missing"), None);

    let bare = Request {
        method: "GET".into(),
        path: "/v1/traces".into(),
        query: String::new(),
        headers: HashMap::new(),
        body: Vec::new(),
    };
    assert_eq!(bare.query_param("slowest"), None);
}

#[test]
fn query_params_decode_and_degrade_gracefully() {
    let req = |query: &str| Request {
        method: "GET".into(),
        path: "/v1/traces".into(),
        query: query.into(),
        headers: HashMap::new(),
        body: Vec::new(),
    };
    // Percent-encoding and plus-as-space decode.
    assert_eq!(req("name=a%2Fb+c").query_param("name").as_deref(), Some("a/b c"));
    assert_eq!(req("a%3D=x").query_param("a=").as_deref(), Some("x"));
    // Bare key and empty value are both present-but-empty.
    assert_eq!(req("flag").query_param("flag").as_deref(), Some(""));
    assert_eq!(req("flag=").query_param("flag").as_deref(), Some(""));
    // First occurrence wins when a key repeats.
    assert_eq!(req("n=1&n=2").query_param("n").as_deref(), Some("1"));
    // Malformed escapes pass through instead of erroring.
    assert_eq!(req("n=%zz%2").query_param("n").as_deref(), Some("%zz%2"));
    assert_eq!(req("n=100%").query_param("n").as_deref(), Some("100%"));
}

#[test]
fn empty_body_get() {
    let server = echo_server();
    let resp = http_request(server.local_addr(), "GET", "/", None, b"").unwrap();
    assert_eq!(resp.status, 200);
}

#[test]
fn extra_headers_cross_the_wire() {
    let server = HttpServer::serve(
        "127.0.0.1:0",
        Arc::new(|_req: Request| {
            Response::json(307, "{}")
                .with_header("Location", "http://127.0.0.1:9/v1/submit")
                .with_header("Retry-After", "3")
        }),
    )
    .unwrap();
    let resp = http_request(server.local_addr(), "POST", "/v1/submit", None, b"{}").unwrap();
    assert_eq!(resp.status, 307);
    assert_eq!(resp.header("location"), Some("http://127.0.0.1:9/v1/submit"));
    assert_eq!(resp.header("RETRY-AFTER"), Some("3"));
    assert_eq!(resp.header("absent"), None);
}

// ---- keep-alive conformance ------------------------------------------------

#[test]
fn two_hundred_requests_on_one_connection_hold_one_thread() {
    let server = echo_server();
    let mut conn = raw(&server);
    for i in 0..200 {
        send(&mut conn, format!("GET /r/{i} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes());
        let (resp, keep_alive) = recv(&mut conn);
        assert_eq!(resp.status, 200);
        assert!(keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(text(&resp).contains(&format!("\"path\":\"/r/{i}\"")));
        assert_eq!(threads(&server), 1);
    }
}

#[test]
fn connection_close_and_http_1_0_end_after_one_response() {
    let server = echo_server();

    let mut conn = raw(&server);
    send(&mut conn, b"GET /a HTTP/1.1\r\nConnection: close\r\n\r\n");
    let (resp, keep_alive) = recv(&mut conn);
    assert_eq!(resp.status, 200);
    assert!(!keep_alive, "the response must carry Connection: close");
    assert_closed(&mut conn);

    let mut conn = raw(&server);
    send(&mut conn, b"GET /b HTTP/1.0\r\n\r\n");
    let (resp, keep_alive) = recv(&mut conn);
    assert_eq!(resp.status, 200);
    assert!(!keep_alive);
    assert_closed(&mut conn);

    // HTTP/1.0 may opt in.
    let mut conn = raw(&server);
    send(&mut conn, b"GET /c HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
    assert!(recv(&mut conn).1);
    send(&mut conn, b"GET /d HTTP/1.0\r\n\r\n");
    let (resp, keep_alive) = recv(&mut conn);
    assert!(text(&resp).contains("\"path\":\"/d\""));
    assert!(!keep_alive);
    assert_closed(&mut conn);
}

#[test]
fn two_requests_in_one_write_get_two_in_order_responses() {
    let server = echo_server();
    let mut conn = raw(&server);
    send(
        &mut conn,
        b"POST /first HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /second HTTP/1.1\r\n\r\n",
    );
    let (first, _) = recv(&mut conn);
    assert!(text(&first).contains("\"path\":\"/first\""));
    assert!(text(&first).contains("\"len\":3"));
    let (second, keep_alive) = recv(&mut conn);
    assert!(text(&second).contains("\"path\":\"/second\""));
    assert!(keep_alive);
}

#[test]
fn idle_timeout_closes_the_socket_and_frees_the_thread() {
    let server = echo_server();
    let mut conn = raw(&server);
    send(&mut conn, b"GET / HTTP/1.1\r\n\r\n");
    assert!(recv(&mut conn).1);
    assert_eq!((threads(&server), idle_threads(&server)), (1, 0));

    let waiting = Instant::now();
    assert_closed(&mut conn);
    assert!(waiting.elapsed() >= IDLE_TIMEOUT - Duration::from_millis(100));
    assert!(waiting.elapsed() < IDLE_TIMEOUT + Duration::from_secs(2));
    // The thread is counted idle before the close is visible, so the next
    // connection takes it instead of spawning.
    assert_eq!((threads(&server), idle_threads(&server)), (1, 1));
    assert_eq!(http_request(server.local_addr(), "GET", "/", None, b"").unwrap().status, 200);
    assert_eq!(threads(&server), 1);
}

#[test]
fn the_connection_cap_answers_503() {
    let server = echo_server();
    // Connections are accepted in the order they were made, so a response
    // on the last one means all of them are registered.
    let mut held: Vec<ClientConn> = (0..MAX_CONNECTIONS).map(|_| raw(&server)).collect();
    send(&mut held[MAX_CONNECTIONS - 1], b"GET / HTTP/1.1\r\n\r\n");
    assert_eq!(recv(&mut held[MAX_CONNECTIONS - 1]).0.status, 200);

    let mut over = raw(&server);
    send(&mut over, b"GET / HTTP/1.1\r\n\r\n");
    let (resp, keep_alive) = recv(&mut over);
    assert_eq!(resp.status, 503);
    assert!(!keep_alive);
    assert_closed(&mut over);
    assert!(threads(&server) <= MAX_CONNECTIONS);

    // One connection ends; its place and its thread are free at once.
    send(&mut held[0], b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(recv(&mut held[0]).0.status, 200);
    assert_closed(&mut held[0]);
    let mut next = raw(&server);
    send(&mut next, b"GET / HTTP/1.1\r\n\r\n");
    assert_eq!(recv(&mut next).0.status, 200);
    assert_eq!(threads(&server), MAX_CONNECTIONS);
}

#[test]
fn stop_returns_promptly_with_idle_connections_and_a_running_handler() {
    let (entered_tx, entered_rx) = std::sync::mpsc::channel();
    let entered_tx = Mutex::new(entered_tx);
    let mut server = HttpServer::serve(
        "127.0.0.1:0",
        Arc::new(move |req: Request| {
            if req.path == "/slow" {
                entered_tx.lock().send(()).unwrap();
                std::thread::sleep(Duration::from_millis(30));
            }
            Response::json(200, "{}")
        }),
    )
    .unwrap();
    let addr = server.local_addr();
    let mut idle: Vec<ClientConn> = (0..8).map(|_| raw(&server)).collect();
    for conn in &mut idle {
        send(conn, b"GET / HTTP/1.1\r\n\r\n");
        assert!(recv(conn).1);
    }
    let slow = std::thread::spawn(move || http_request(addr, "GET", "/slow", None, b""));
    entered_rx.recv().unwrap();

    let stopping = Instant::now();
    server.stop();
    let took = stopping.elapsed();
    assert!(took < Duration::from_millis(100), "stop took {took:?}");

    // The running handler finished, but onto a closed socket.
    assert!(slow.join().unwrap().is_err());
    for conn in &mut idle {
        assert_closed(conn);
    }
}

#[test]
fn sixteen_keep_alive_clients_times_fifty_requests_are_all_served() {
    let server = echo_server();
    let addr = server.local_addr();
    let client = HttpClient::new();
    std::thread::scope(|scope| {
        for c in 0..16 {
            let client = &client;
            scope.spawn(move || {
                for i in 0..50 {
                    let path = format!("/c/{c}/{i}");
                    let resp = client.request(addr, "GET", &path, None, b"").unwrap();
                    assert_eq!(resp.status, 200);
                    assert!(text(&resp).contains(&format!("\"path\":\"{path}\"")));
                }
            });
        }
    });
    // 800 requests over at most one connection per concurrent caller.
    assert!(threads(&server) <= 16, "{} threads", threads(&server));
}

// ---- parser hardening ------------------------------------------------------

#[test]
fn an_over_long_line_is_answered_431() {
    let server = echo_server();
    for request in [
        format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE)),
        format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "b".repeat(MAX_LINE)),
        // No terminator at all: the server must answer without one.
        "c".repeat(4 * MAX_LINE),
    ] {
        let mut conn = raw(&server);
        send(&mut conn, request.as_bytes());
        let (resp, keep_alive) = recv(&mut conn);
        assert_eq!(resp.status, 431);
        assert!(!keep_alive);
    }
    // A line of exactly the limit passes.
    let mut conn = raw(&server);
    let fits = format!("GET /{} HTTP/1.1\r\n", "a".repeat(MAX_LINE - "GET / HTTP/1.1\r\n".len()));
    assert_eq!(fits.len(), MAX_LINE);
    send(&mut conn, format!("{fits}\r\n").as_bytes());
    assert_eq!(recv(&mut conn).0.status, 200);
}

#[test]
fn a_thousand_headers_are_answered_431() {
    let server = echo_server();
    let mut conn = raw(&server);
    let mut request = String::from("GET / HTTP/1.1\r\n");
    for i in 0..1000 {
        request.push_str(&format!("X-H{i}: v\r\n"));
    }
    request.push_str("\r\n");
    send(&mut conn, request.as_bytes());
    let (resp, keep_alive) = recv(&mut conn);
    assert_eq!(resp.status, 431);
    assert!(!keep_alive);

    // The cap itself passes.
    let mut conn = raw(&server);
    let mut request = String::from("GET / HTTP/1.1\r\n");
    for i in 0..MAX_HEADERS {
        request.push_str(&format!("X-H{i}: v\r\n"));
    }
    request.push_str("\r\n");
    send(&mut conn, request.as_bytes());
    assert_eq!(recv(&mut conn).0.status, 200);
}

#[test]
fn a_truncated_body_is_answered_400() {
    let server = echo_server();
    let mut conn = raw(&server);
    send(&mut conn, b"POST /v1/submit HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
    conn.get_ref().shutdown(Shutdown::Write).unwrap();
    let (resp, keep_alive) = recv(&mut conn);
    assert_eq!(resp.status, 400);
    assert!(!keep_alive);
    assert_closed(&mut conn);
}

#[test]
fn unframed_bodies_are_answered_400() {
    let server = echo_server();
    for head in ["Content-Length: ten", "Content-Length: -1", "Transfer-Encoding: chunked"] {
        let mut conn = raw(&server);
        send(&mut conn, format!("POST / HTTP/1.1\r\n{head}\r\n\r\n").as_bytes());
        let (resp, keep_alive) = recv(&mut conn);
        assert_eq!(resp.status, 400, "{head}");
        assert!(!keep_alive);
    }
}

#[test]
fn bare_newline_line_endings_are_accepted() {
    let server = echo_server();
    let mut conn = raw(&server);
    send(&mut conn, b"POST /lf HTTP/1.1\nAuthorization: Bearer t\nContent-Length: 2\n\nhi");
    let (resp, keep_alive) = recv(&mut conn);
    assert_eq!(resp.status, 200);
    assert!(keep_alive);
    assert!(text(&resp).contains("\"path\":\"/lf\""));
    assert!(text(&resp).contains("\"len\":2"));
    assert!(text(&resp).contains("\"bearer\":\"t\""));
}

#[test]
fn garbage_after_a_complete_request_is_answered_400_after_its_response() {
    let server = echo_server();
    let mut conn = raw(&server);
    send(&mut conn, b"GET /ok HTTP/1.1\r\n\r\n\x00\xff\xfe not http\r\n\r\n");
    let (resp, _) = recv(&mut conn);
    assert_eq!(resp.status, 200);
    assert!(text(&resp).contains("\"path\":\"/ok\""));
    let (resp, keep_alive) = recv(&mut conn);
    assert_eq!(resp.status, 400);
    assert!(!keep_alive);
    assert_closed(&mut conn);
}

#[test]
fn eof_between_requests_is_a_clean_close() {
    let server = echo_server();
    // Never a request at all.
    let mut conn = raw(&server);
    conn.get_ref().shutdown(Shutdown::Write).unwrap();
    assert_closed(&mut conn);
    // One request, then the client hangs up: no 400 follows the 200.
    let mut conn = raw(&server);
    send(&mut conn, b"GET / HTTP/1.1\r\n\r\n");
    assert_eq!(recv(&mut conn).0.status, 200);
    conn.get_ref().shutdown(Shutdown::Write).unwrap();
    assert_closed(&mut conn);
}

#[test]
fn a_stalled_request_is_answered_408_and_frees_its_thread() {
    let server = echo_server();
    for partial in
        [&b"GET / HTTP/1.1\r\nHost:"[..], b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab"]
    {
        let mut conn = raw(&server);
        send(&mut conn, partial);
        let (resp, keep_alive) = recv(&mut conn);
        assert_eq!(resp.status, 408);
        assert!(!keep_alive);
        assert_closed(&mut conn);
        assert_eq!(idle_threads(&server), 1);
    }
}

#[test]
fn a_dripped_request_meets_the_request_deadline() {
    // The deadline is checked on every read, against a socket that still
    // has bytes to give.
    let (mut peer, ours) = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        (peer, listener.accept().unwrap().0)
    };
    peer.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let mut reader = Deadlined { stream: &ours, deadline: Some(Instant::now()) };
    let err = reader.read(&mut [0u8; 8]).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::TimedOut);
    assert_eq!(HeadError::from_io(&err).status(), 408);
    reader.deadline = Some(Instant::now() + REQUEST_TIMEOUT);
    assert_eq!(reader.read(&mut [0u8; 8]).unwrap(), 8);
}

// ---- failure containment ---------------------------------------------------

#[test]
fn a_panicking_handler_is_answered_500_and_the_pool_survives() {
    let server = HttpServer::serve(
        "127.0.0.1:0",
        Arc::new(|req: Request| {
            assert!(req.path != "/panic", "handler panics on purpose (expected in test output)");
            Response::json(200, "{}")
        }),
    )
    .unwrap();
    let mut conns: Vec<ClientConn> = (0..4).map(|_| raw(&server)).collect();
    for conn in &mut conns {
        send(conn, b"GET / HTTP/1.1\r\n\r\n");
        assert_eq!(recv(conn).0.status, 200);
    }
    assert_eq!(threads(&server), 4);

    let mut doomed = conns.pop().unwrap();
    send(&mut doomed, b"GET /panic HTTP/1.1\r\n\r\n");
    let (resp, keep_alive) = recv(&mut doomed);
    assert_eq!(resp.status, 500);
    assert!(!keep_alive);
    assert_closed(&mut doomed);
    assert_eq!((threads(&server), idle_threads(&server)), (4, 1));

    for i in 0..100 {
        let conn = &mut conns[i % 3];
        send(conn, b"GET / HTTP/1.1\r\n\r\n");
        assert_eq!(recv(conn).0.status, 200);
    }
    // The thread that caught the panic takes the next connection.
    assert_eq!(http_request(server.local_addr(), "GET", "/", None, b"").unwrap().status, 200);
    assert_eq!(threads(&server), 4);
}

// ---- client ----------------------------------------------------------------

/// A listener that answers each connection with `reply` and closes.
fn canned(reply: &'static [u8]) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let thread = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        while read_line(&mut reader).is_ok_and(|line| !line.is_empty()) {}
        stream.write_all(reply).unwrap();
    });
    (addr, thread)
}

#[test]
fn an_oversized_content_length_is_a_protocol_violation() {
    let (addr, server) = canned(b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n");
    let err = http_request(addr, "GET", "/", None, b"").unwrap_err();
    assert!(matches!(err, FuncxError::ProtocolViolation(_)), "got {err:?}");
    server.join().unwrap();
}

#[test]
fn an_endless_response_line_is_a_protocol_violation() {
    static LONG: [u8; 3 * MAX_LINE] = [b'x'; 3 * MAX_LINE];
    let (addr, server) = canned(&LONG);
    let err = http_request(addr, "GET", "/", None, b"").unwrap_err();
    assert!(matches!(err, FuncxError::ProtocolViolation(_)), "got {err:?}");
    server.join().unwrap();
}

#[test]
fn a_pooled_connection_idle_past_half_the_timeout_is_discarded() {
    let server = echo_server();
    let addr = server.local_addr();
    let client = HttpClient::new();
    let pooled_port = || {
        let idle = client.idle.lock();
        assert_eq!(idle[&addr].len(), 1);
        idle[&addr][0].conn.get_ref().local_addr().unwrap().port()
    };
    assert_eq!(client.request(addr, "POST", "/", None, b"x").unwrap().status, 200);
    let first = pooled_port();
    assert_eq!(client.request(addr, "POST", "/", None, b"x").unwrap().status, 200);
    assert_eq!(pooled_port(), first, "two requests, one connection");

    // Age the pooled connection instead of sleeping through the rule.
    let aged = Instant::now().checked_sub(IDLE_TIMEOUT / 2 + Duration::from_millis(1)).unwrap();
    client.idle.lock().get_mut(&addr).unwrap()[0].since = aged;
    assert_eq!(client.request(addr, "POST", "/", None, b"x").unwrap().status, 200);
    assert_ne!(pooled_port(), first, "the aged connection must not be reused");
}
