//! End-to-end tests for `resilience-cli serve`: the daemon's response
//! bytes must equal the same answers rendered from direct library calls,
//! on both transports (stdin/stdout pipe and TCP), a `shutdown` query
//! must ack, close the stream, and exit the process cleanly, and an
//! over-long request line or a connection over the cap must cost only its
//! own connection.

use resilience::{grid_spec, reference_scenarios, Theorem};
use resilience_service::protocol::{Query, Reply, Request, Response};
use resilience_service::server::{MAX_CONNECTIONS, MAX_REQUEST_LINE};
use serde::Serialize;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Deterministic mixed workload with library-computed expected responses.
fn workload() -> Vec<(String, String)> {
    let scenarios = reference_scenarios();
    let spec = grid_spec(10);
    let mut lines = Vec::new();
    for (i, theorem) in Theorem::ALL.into_iter().enumerate() {
        let s = &scenarios[i % scenarios.len()];
        let id = lines.len() as u64 + 1;
        let request = Request {
            id,
            query: Query::Optimum {
                platform: s.platform,
                costs: s.costs,
                theorem,
            },
        };
        let expected = Response {
            id,
            outcome: Ok(Reply::Optimum(theorem.optimize(&s.platform, &s.costs))),
        };
        lines.push((request.to_json_string(), expected.to_json_string()));

        let pattern = theorem.optimize(&s.platform, &s.costs).pattern;
        let id = lines.len() as u64 + 1;
        let request = Request {
            id,
            query: Query::Overhead {
                pattern: pattern.clone(),
                platform: s.platform,
                costs: s.costs,
            },
        };
        let expected = Response {
            id,
            outcome: Ok(Reply::Overhead(resilience::first_order_overhead(
                &pattern,
                &s.platform,
                &s.costs,
            ))),
        };
        lines.push((request.to_json_string(), expected.to_json_string()));
    }
    for index in [0u64, 137, 999] {
        let id = lines.len() as u64 + 1;
        let request = Request {
            id,
            query: Query::SweepCell {
                grid_size: 10,
                index,
            },
        };
        let cell = spec.cell_at(index as usize);
        let expected = Response {
            id,
            outcome: Ok(Reply::SweepCell {
                index,
                name: cell.name.to_string(),
                theorem: cell.theorem,
                optimum: cell.theorem.optimize(&cell.platform, &cell.costs),
            }),
        };
        lines.push((request.to_json_string(), expected.to_json_string()));
    }
    // An invalid cell must come back as a named-field error, not a crash.
    let id = lines.len() as u64 + 1;
    let request = Request {
        id,
        query: Query::SweepCell {
            grid_size: 10,
            index: 1_000,
        },
    };
    let expected = Response {
        id,
        outcome: Err("index: 1000 out of range for the 1000-cell grid".into()),
    };
    lines.push((request.to_json_string(), expected.to_json_string()));
    lines
}

fn shutdown_line(id: u64) -> (String, String) {
    let request = Request {
        id,
        query: Query::Shutdown,
    };
    let expected = Response {
        id,
        outcome: Ok(Reply::ShuttingDown),
    };
    (request.to_json_string(), expected.to_json_string())
}

fn spawn_serve(extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_resilience-cli"))
        .arg("serve")
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns")
}

/// Port 0 is ephemeral; the daemon announces the bound address on stderr.
fn announced_addr(child: &mut Child) -> String {
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr"));
    let mut announce = String::new();
    stderr.read_line(&mut announce).expect("read announcement");
    announce
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {announce:?}"))
        .to_owned()
}

#[test]
fn pipe_mode_answers_are_byte_identical_to_the_library() {
    let mut child = spawn_serve(&[]);
    let lines = workload();
    let (bye_request, bye_expected) = shutdown_line(9_999);

    let mut stdin = child.stdin.take().expect("stdin");
    let mut payload = String::new();
    for (request, _) in &lines {
        payload.push_str(request);
        payload.push('\n');
    }
    payload.push_str(&bye_request);
    payload.push('\n');
    stdin.write_all(payload.as_bytes()).expect("write requests");
    drop(stdin);

    let stdout = BufReader::new(child.stdout.take().expect("stdout"));
    let mut got = stdout.lines().map(|l| l.expect("read line"));
    for (request, expected) in &lines {
        let line = got.next().unwrap_or_else(|| panic!("EOF before {request}"));
        assert_eq!(&line, expected, "for request {request}");
    }
    assert_eq!(got.next().as_deref(), Some(bye_expected.as_str()));
    assert_eq!(got.next(), None, "stream must close after the shutdown ack");

    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit status: {status}");
}

#[test]
fn tcp_mode_announces_its_port_and_answers_byte_identically() {
    let mut child = spawn_serve(&["--port", "0"]);
    let addr = announced_addr(&mut child);

    let mut stream = TcpStream::connect(&addr).expect("connect");
    let lines = workload();
    let mut payload = String::new();
    for (request, _) in &lines {
        payload.push_str(request);
        payload.push('\n');
    }
    stream
        .write_all(payload.as_bytes())
        .expect("write requests");

    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    for (request, expected) in &lines {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        assert_eq!(line.trim_end(), expected, "for request {request}");
    }

    let (bye_request, bye_expected) = shutdown_line(424_242);
    stream
        .write_all(format!("{bye_request}\n").as_bytes())
        .expect("write shutdown");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read shutdown ack");
    assert_eq!(line.trim_end(), bye_expected);
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("drain to EOF");
    assert!(rest.is_empty(), "bytes after shutdown ack: {rest:?}");

    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit status: {status}");
    // The announced port must now refuse connections.
    assert!(
        TcpStream::connect(&addr).is_err(),
        "{addr} still accepting after shutdown"
    );
}

#[test]
fn an_overlong_line_is_refused_and_closes_only_its_connection() {
    let mut child = spawn_serve(&["--port", "0"]);
    let addr = announced_addr(&mut child);

    // The flooding client sends 1 MiB with no newline from its own thread;
    // its writes fail once the daemon drops the connection.
    let flood = TcpStream::connect(&addr).expect("connect flood");
    flood
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut flood_tx = flood.try_clone().expect("clone flood");
    let flooder = std::thread::spawn(move || {
        let _ = flood_tx.write_all(&vec![b'x'; 1 << 20]);
    });

    // Meanwhile a second client keeps getting correct answers.
    let mut healthy = TcpStream::connect(&addr).expect("connect healthy");
    let mut answers = BufReader::new(healthy.try_clone().expect("clone healthy"));
    for (request, expected) in workload() {
        healthy
            .write_all(format!("{request}\n").as_bytes())
            .expect("write request");
        let mut line = String::new();
        answers.read_line(&mut line).expect("read response");
        assert_eq!(line.trim_end(), expected, "for request {request}");
    }

    let mut flood_rx = BufReader::new(flood);
    let mut reply = String::new();
    flood_rx.read_line(&mut reply).expect("read refusal");
    let refusal = Response {
        id: 0,
        outcome: Err(format!(
            "invalid request: line exceeds {MAX_REQUEST_LINE} bytes; closing connection"
        )),
    };
    assert_eq!(reply.trim_end(), refusal.to_json_string());
    // Closed: end of stream (or a reset, since the flood went unread).
    let mut rest = Vec::new();
    if let Ok(n) = flood_rx.read_to_end(&mut rest) {
        assert_eq!(n, 0, "bytes after the refusal: {rest:?}");
    }
    flooder.join().expect("flooder thread");

    let (bye_request, bye_expected) = shutdown_line(7);
    healthy
        .write_all(format!("{bye_request}\n").as_bytes())
        .expect("write shutdown");
    let mut line = String::new();
    answers.read_line(&mut line).expect("read shutdown ack");
    assert_eq!(line.trim_end(), bye_expected);
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit status: {status}");
}

/// Sends one request line on `stream` and returns the reply line.
fn ask(stream: &mut TcpStream, request: &str) -> String {
    stream
        .write_all(format!("{request}\n").as_bytes())
        .expect("write request");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    line.trim_end().to_owned()
}

#[test]
fn connections_over_the_cap_are_refused_by_name_and_open_ones_keep_working() {
    let mut child = spawn_serve(&["--port", "0"]);
    let addr = announced_addr(&mut child);
    let (request, expected) = workload().swap_remove(0);

    // Fill every slot, each proven live by a correct answer.
    let mut open: Vec<TcpStream> = (0..MAX_CONNECTIONS)
        .map(|_| {
            let mut stream = TcpStream::connect(&addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("read timeout");
            assert_eq!(ask(&mut stream, &request), expected);
            stream
        })
        .collect();

    // One more gets the named refusal, then end of stream.
    let refusal = Response {
        id: 0,
        outcome: Err(format!(
            "server busy: {MAX_CONNECTIONS} connections already open \
             (MAX_CONNECTIONS); closing connection"
        )),
    };
    let extra = TcpStream::connect(&addr).expect("connect over the cap");
    extra
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut extra = BufReader::new(extra);
    let mut reply = String::new();
    extra.read_line(&mut reply).expect("read refusal");
    assert_eq!(reply.trim_end(), refusal.to_json_string());
    let mut rest = Vec::new();
    assert_eq!(extra.read_to_end(&mut rest).expect("read to EOF"), 0);

    // Connections already open are unaffected.
    assert_eq!(ask(&mut open[0], &request), expected);
    assert_eq!(ask(&mut open[MAX_CONNECTIONS - 1], &request), expected);

    // Closing one frees its slot once its handler sees the hangup. Probe
    // by listening first: a refused socket says so unprompted. A socket
    // that stays silent is asked a query; a refusal or reset that still
    // arrives (a slow accept) means the slot was not free yet.
    drop(open.pop());
    let deadline = Instant::now() + Duration::from_secs(30);
    let fresh = loop {
        assert!(Instant::now() < deadline, "the closed slot never freed");
        let mut probe = TcpStream::connect(&addr).expect("connect after a close");
        probe
            .set_read_timeout(Some(Duration::from_secs(1)))
            .expect("read timeout");
        let mut reader = BufReader::new(probe.try_clone().expect("clone probe"));
        let mut line = String::new();
        if reader.read_line(&mut line).is_err() {
            let _ = probe.write_all(format!("{request}\n").as_bytes());
            line.clear();
            if reader.read_line(&mut line).is_ok() && line.trim_end() == expected {
                break probe;
            }
        }
        if !line.is_empty() {
            assert_eq!(line.trim_end(), refusal.to_json_string());
        }
        std::thread::sleep(Duration::from_millis(20));
    };

    let (bye_request, bye_expected) = shutdown_line(65);
    assert_eq!(ask(&mut open[0], &bye_request), bye_expected);
    // The daemon exits once every open connection has hung up.
    drop(fresh);
    drop(open);
    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit status: {status}");
}
