//! In-process integration suite: a real server on an ephemeral port,
//! driven end-to-end through the blocking client (and, for the
//! malformed-frame cases, through a raw socket).
//!
//! The load-bearing property throughout is **parity**: every solution
//! that crosses the wire is bit-identical — verdict, witness, route,
//! search stats — to what a direct in-process
//! [`Session`](cqcs_core::Session) answers for the same instance.

use cqcs_core::Session;
use cqcs_cq::{contained_in, parse_query};
use cqcs_net::client::{Client, ClientError};
use cqcs_net::codec::{
    solutions_identical, ErrorCode, Request, Response, HEADER_LEN, LEGACY_HEADER_LEN,
    LEGACY_VERSION, PROTOCOL_VERSION,
};
use cqcs_net::server::{Server, ServerConfig};
use cqcs_structures::{generators, Structure};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn server_with(cfg: ServerConfig) -> Server {
    Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral port")
}

fn default_server() -> Server {
    server_with(ServerConfig::default())
}

/// A spread of digraph instances against K3: some 3-colorable, some
/// not, various routes.
fn instances() -> Vec<Structure> {
    let mut v = vec![
        generators::undirected_cycle(4),
        generators::undirected_cycle(5),
        generators::complete_graph(4),
        generators::directed_path(6),
        generators::petersen(),
    ];
    for seed in 0..6 {
        v.push(generators::random_graph_nm(7, 10, seed));
    }
    v
}

#[test]
fn solve_matches_direct_session_bit_for_bit() {
    let server = default_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let k3 = generators::complete_graph(3);
    let id = client.register_template(&k3).unwrap();
    let direct = Session::compile(&k3);
    for a in instances() {
        let over_wire = client.solve(id, &a).unwrap();
        let in_process = direct.solve(&a);
        assert!(
            solutions_identical(&over_wire, &in_process),
            "wire solution diverged: {over_wire:?} vs {in_process:?}"
        );
    }
    server.shutdown();
}

#[test]
fn solve_batch_matches_direct_batch() {
    let server = default_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let k3 = generators::complete_graph(3);
    let id = client.register_template(&k3).unwrap();
    let batch = instances();
    let over_wire = client.solve_batch(id, &batch).unwrap();
    let direct = Session::compile(&k3).solve_batch(&batch);
    assert_eq!(over_wire.len(), direct.len());
    for (w, d) in over_wire.iter().zip(direct.iter()) {
        assert!(solutions_identical(w, d));
    }
    // An empty batch is answered, not refused.
    assert!(client.solve_batch(id, &[]).unwrap().is_empty());
    server.shutdown();
}

#[test]
fn containment_matches_in_process() {
    let server = default_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let cases = [
        ("Q(X) :- E(X, Y), E(Y, X).", "Q(X) :- E(X, Y)."),
        ("Q(X) :- E(X, Y).", "Q(X) :- E(X, Y), E(Y, X)."),
        ("Q(X, Y) :- E(X, Y).", "Q(X, Y) :- E(X, Y)."),
    ];
    for (q1, q2) in cases {
        let expected = contained_in(&parse_query(q1).unwrap(), &parse_query(q2).unwrap()).unwrap();
        assert_eq!(client.containment(q1, q2).unwrap(), expected, "{q1} ⊑ {q2}");
    }
    // A bad query is a structured error, not a hangup.
    match client.containment("this is not a query", "Q(X) :- E(X, Y).") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::InvalidQuery),
        other => panic!("expected InvalidQuery, got {other:?}"),
    }
    // The connection is still usable afterwards.
    assert!(client.status().unwrap().requests > 0);
    server.shutdown();
}

#[test]
fn unknown_template_and_vocabulary_mismatch_are_structured_errors() {
    let server = default_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let k3 = generators::complete_graph(3);
    let c4 = generators::undirected_cycle(4);

    match client.solve(999, &c4) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownTemplate),
        other => panic!("expected UnknownTemplate, got {other:?}"),
    }

    let id = client.register_template(&k3).unwrap();
    // An instance over a different vocabulary is refused up front —
    // this must be an error frame, never a server-side panic.
    let other_voc = generators::random_structure(3, &[2, 2], 2, 1);
    match client.solve(id, &other_voc) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::VocabularyMismatch),
        other => panic!("expected VocabularyMismatch, got {other:?}"),
    }
    // The same template still answers well-vocabularied requests.
    assert!(client.solve(id, &c4).unwrap().homomorphism.is_some());
    server.shutdown();
}

#[test]
fn concurrent_solves_coalesce_into_shared_batches() {
    // A generous window guarantees all four clients' jobs land in one
    // executor pass; the barrier makes them concurrent.
    let server = server_with(ServerConfig {
        coalesce_window: Duration::from_millis(750),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let k3 = generators::complete_graph(3);
    let id = Client::connect(addr)
        .unwrap()
        .register_template(&k3)
        .unwrap();
    let direct = Arc::new(Session::compile(&k3));

    let n_clients = 4;
    let barrier = Arc::new(Barrier::new(n_clients));
    let mismatches = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..n_clients)
        .map(|ci| {
            let barrier = Arc::clone(&barrier);
            let direct = Arc::clone(&direct);
            let mismatches = Arc::clone(&mismatches);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let a = generators::random_graph_nm(7, 10, ci as u64);
                barrier.wait();
                let sol = c.solve(id, &a).unwrap();
                if !solutions_identical(&sol, &direct.solve(&a)) {
                    mismatches.fetch_add(1, Ordering::SeqCst);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        mismatches.load(Ordering::SeqCst),
        0,
        "coalescing changed answers"
    );

    let status = Client::connect(addr).unwrap().status().unwrap();
    assert!(
        status.max_coalesced_jobs >= 2,
        "no coalescing observed: {status:?}"
    );
    assert!(
        status.batches < status.solves,
        "batching never shared a pass"
    );
    server.shutdown();
}

#[test]
fn registry_evicts_lru_and_reports_unknown_template() {
    let server = server_with(ServerConfig {
        registry_capacity: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let id_k2 = client
        .register_template(&generators::complete_graph(2))
        .unwrap();
    let id_k3 = client
        .register_template(&generators::complete_graph(3))
        .unwrap();
    // Touch K2 so K3 is the LRU victim when a third template arrives.
    let p2 = generators::directed_path(2);
    client.solve(id_k2, &p2).unwrap();
    let id_k4 = client
        .register_template(&generators::complete_graph(4))
        .unwrap();

    match client.solve(id_k3, &p2) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownTemplate),
        other => panic!("expected UnknownTemplate after eviction, got {other:?}"),
    }
    assert!(client.solve(id_k2, &p2).unwrap().homomorphism.is_some());
    assert!(client.solve(id_k4, &p2).unwrap().homomorphism.is_some());

    let status = client.status().unwrap();
    assert_eq!(status.templates, 2);
    assert_eq!(status.evictions, 1);
    server.shutdown();
}

#[test]
fn admission_control_refuses_overload_with_structured_error() {
    // Queue bound 1 and a long window: the first job is admitted and
    // parked in the coalescer; a second concurrent job must be refused
    // immediately with Overloaded (not queued, not hung).
    let server = server_with(ServerConfig {
        max_queue_depth: 1,
        coalesce_window: Duration::from_millis(1500),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let k3 = generators::complete_graph(3);
    let id = Client::connect(addr)
        .unwrap()
        .register_template(&k3)
        .unwrap();

    let first = {
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            c.solve(id, &generators::undirected_cycle(4)).unwrap()
        })
    };
    // Let the first request get admitted into the window.
    std::thread::sleep(Duration::from_millis(400));
    let mut second = Client::connect(addr).unwrap();
    match second.solve(id, &generators::undirected_cycle(5)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Overloaded),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // The admitted request still completes correctly.
    let sol = first.join().unwrap();
    assert!(solutions_identical(
        &sol,
        &Session::compile(&k3).solve(&generators::undirected_cycle(4))
    ));
    assert!(second.status().unwrap().overloaded >= 1);
    server.shutdown();
}

#[test]
fn queue_deadline_expires_stale_requests() {
    // A 1 ms deadline cannot survive a 600 ms coalesce window.
    let server = server_with(ServerConfig {
        coalesce_window: Duration::from_millis(600),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let id = client
        .register_template(&generators::complete_graph(3))
        .unwrap();
    match client.solve_deadline(id, &generators::undirected_cycle(4), 1) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::DeadlineExceeded),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // No-deadline requests on the same connection still succeed.
    assert!(client
        .solve(id, &generators::undirected_cycle(4))
        .unwrap()
        .homomorphism
        .is_some());
    assert!(client.status().unwrap().deadline_expired >= 1);
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let server = server_with(ServerConfig {
        coalesce_window: Duration::from_millis(800),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let k3 = generators::complete_graph(3);
    let id = Client::connect(addr)
        .unwrap()
        .register_template(&k3)
        .unwrap();

    let in_flight = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.solve(id, &generators::petersen()).unwrap()
    });
    // The request is parked in the coalesce window when shutdown hits.
    std::thread::sleep(Duration::from_millis(250));
    server.shutdown();

    let sol = in_flight.join().expect("in-flight request completed");
    assert!(solutions_identical(
        &sol,
        &Session::compile(&k3).solve(&generators::petersen())
    ));
    // The port is closed for new connections (or refuses service):
    // either connect fails, or the accepted socket is dropped unserved.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s) => {
            let _ = s.write_all(&Request::Status.encode(1).unwrap());
            let mut buf = [0u8; 1];
            // A live server would answer; a shut-down one hangs up.
            let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
            assert!(
                !matches!(s.read(&mut buf), Ok(n) if n > 0),
                "server answered after shutdown"
            );
        }
    }
}

#[test]
fn shutdown_is_not_blocked_by_a_client_stalled_mid_frame() {
    // A client that sends half a frame header and then goes silent must
    // not pin its connection thread — and therefore shutdown, which
    // joins connection threads — forever. The drain grace bounds how
    // long shutdown waits for the rest of the frame.
    let server = server_with(ServerConfig {
        shutdown_drain_grace: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled.write_all(b"CQ\x02").unwrap(); // 3 of 16 header bytes, then silence
    stalled.flush().unwrap();
    // Give the connection thread time to start reading the partial frame.
    std::thread::sleep(Duration::from_millis(100));

    let start = std::time::Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown hung on a stalled client: {:?}",
        start.elapsed()
    );
    drop(stalled);
}

// ---------------------------------------------------------------------
// Raw-socket protocol conformance: what a *misbehaving* client sees.

/// Reads one v2 response frame and expects it to be a structured error,
/// returning the correlation id alongside the error.
fn read_error_frame(s: &mut TcpStream) -> (u64, ErrorCode, String) {
    let mut header = [0u8; HEADER_LEN];
    s.read_exact(&mut header).expect("error frame header");
    let (kind, id, len) = cqcs_net::codec::parse_header(&header).expect("valid response header");
    let mut payload = vec![0u8; len as usize];
    s.read_exact(&mut payload).expect("error frame payload");
    match Response::decode_payload(kind, &payload).expect("decodable response") {
        Response::Error { code, message } => (id, code, message),
        other => panic!("expected an error frame, got {other:?}"),
    }
}

/// Reads one **legacy (v1) framed** error — what the server sends to a
/// peer whose version byte it refused, in the only framing that peer
/// can be assumed to decode.
fn read_legacy_error_frame(s: &mut TcpStream) -> (ErrorCode, String) {
    let mut header = [0u8; LEGACY_HEADER_LEN];
    s.read_exact(&mut header)
        .expect("legacy error frame header");
    let (kind, len) =
        cqcs_net::codec::parse_legacy_header(&header).expect("valid v1 response header");
    let mut payload = vec![0u8; len as usize];
    s.read_exact(&mut payload)
        .expect("legacy error frame payload");
    match Response::decode_payload(kind, &payload).expect("decodable response") {
        Response::Error { code, message } => (code, message),
        other => panic!("expected an error frame, got {other:?}"),
    }
}

#[test]
fn wrong_protocol_version_is_refused() {
    let server = default_server();
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    let mut frame = Request::Status.encode(1).unwrap();
    frame[2] = PROTOCOL_VERSION + 1;
    s.write_all(&frame).unwrap();
    // The refusal is typed but legacy-framed: the server cannot assume
    // an unknown-version peer decodes v2 frames.
    let (code, _) = read_legacy_error_frame(&mut s);
    assert_eq!(code, ErrorCode::UnsupportedVersion);
    // The server hangs up after a framing error (the stream cannot be
    // trusted to be in sync).
    let mut buf = [0u8; 1];
    assert_eq!(s.read(&mut buf).unwrap_or(0), 0);
    server.shutdown();
}

#[test]
fn v1_peer_gets_structured_unsupported_version_not_desync() {
    // A well-formed *v1* frame (8-byte header, version 1, Status kind,
    // empty payload): the v2 server must answer with a typed
    // UnsupportedVersion error in v1 framing — no panic, no desync, no
    // silent hangup — and the server must keep serving v2 clients.
    let server = default_server();
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    let mut v1_frame = Vec::new();
    v1_frame.extend_from_slice(b"CQ");
    v1_frame.push(LEGACY_VERSION);
    v1_frame.push(0x05); // K_STATUS in the v1 kind space
    v1_frame.extend_from_slice(&0u32.to_le_bytes());
    s.write_all(&v1_frame).unwrap();
    let (code, message) = read_legacy_error_frame(&mut s);
    assert_eq!(code, ErrorCode::UnsupportedVersion);
    assert!(
        message.contains('1'),
        "refusal names the offered version: {message}"
    );
    let mut buf = [0u8; 1];
    assert_eq!(s.read(&mut buf).unwrap_or(0), 0, "v1 peer is hung up on");
    // The server survives: a v2 client on a fresh connection works.
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.status().unwrap().protocol_version, PROTOCOL_VERSION);
    server.shutdown();
}

#[test]
fn garbage_header_is_refused_without_panic() {
    let server = default_server();
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let (code, _) = read_legacy_error_frame(&mut s);
    assert_eq!(code, ErrorCode::Malformed);
    // The server survives: a fresh, well-behaved connection works.
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.status().unwrap().protocol_version, PROTOCOL_VERSION);
    server.shutdown();
}

#[test]
fn malformed_payload_keeps_connection_alive() {
    let server = default_server();
    let addr = server.local_addr();
    let mut s = TcpStream::connect(addr).unwrap();
    // A valid header announcing a 3-byte Solve payload that cannot
    // possibly decode (Solve needs ≥ 12 bytes of ids alone).
    let mut frame = Vec::new();
    frame.extend_from_slice(b"CQ");
    frame.push(PROTOCOL_VERSION);
    frame.push(0x02); // K_SOLVE
    frame.extend_from_slice(&77u64.to_le_bytes()); // correlation id
    frame.extend_from_slice(&3u32.to_le_bytes());
    frame.extend_from_slice(&[1, 2, 3]);
    s.write_all(&frame).unwrap();
    let (id, code, _) = read_error_frame(&mut s);
    assert_eq!(id, 77, "the refusal names the offending request");
    assert_eq!(code, ErrorCode::Malformed);
    // Framing stayed in sync, so the same connection keeps working.
    s.write_all(&Request::Status.encode(78).unwrap()).unwrap();
    let mut header = [0u8; HEADER_LEN];
    s.read_exact(&mut header)
        .expect("status reply on same connection");
    let (kind, id, len) = cqcs_net::codec::parse_header(&header).unwrap();
    assert_eq!(id, 78);
    let mut payload = vec![0u8; len as usize];
    s.read_exact(&mut payload).unwrap();
    let resp = Response::decode_payload(kind, &payload).unwrap();
    assert!(matches!(resp, Response::Status(_)));
    server.shutdown();
}

#[test]
fn status_reports_protocol_and_counters() {
    let server = default_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let id = client
        .register_template(&generators::complete_graph(3))
        .unwrap();
    client.solve(id, &generators::undirected_cycle(4)).unwrap();
    client
        .solve_batch(
            id,
            &[
                generators::undirected_cycle(5),
                generators::directed_path(3),
            ],
        )
        .unwrap();
    let status = client.status().unwrap();
    assert_eq!(status.protocol_version, PROTOCOL_VERSION);
    assert_eq!(status.templates, 1);
    assert_eq!(status.solves, 3);
    assert!(status.batches >= 2);
    assert!(status.requests >= 4);
    assert_eq!(status.queue_depth, 0, "nothing outstanding at rest");
    assert!(
        !status.shards.is_empty(),
        "status reports per-shard counters"
    );
    assert_eq!(
        status
            .shards
            .iter()
            .map(|s| u64::from(s.queue_depth))
            .sum::<u64>(),
        0,
        "shard depths drain to zero at rest"
    );
    assert_eq!(
        status.shards.iter().map(|s| s.batches).sum::<u64>(),
        status.batches,
        "shard batch counters sum to the global one"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------
// Pipelining: correlation ids under out-of-order completion.

#[test]
fn solve_pipelined_matches_direct_session_at_every_depth() {
    let server = default_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let k3 = generators::complete_graph(3);
    let id = client.register_template(&k3).unwrap();
    let batch = instances();
    let direct: Vec<_> = {
        let s = Session::compile(&k3);
        batch.iter().map(|a| s.solve(a)).collect()
    };
    for depth in [1, 3, 8, 64] {
        let over_wire = client.solve_pipelined(id, &batch, depth).unwrap();
        assert_eq!(over_wire.len(), direct.len());
        for (i, (w, d)) in over_wire.iter().zip(direct.iter()).enumerate() {
            assert!(
                solutions_identical(w, d),
                "depth {depth}, instance {i}: pipelined solution diverged"
            );
        }
    }
    server.shutdown();
}

#[test]
fn pipelined_multi_template_load_never_mismatches_correlation_ids() {
    // Several clients, each pipelining solves that alternate between
    // two templates routed to different executor shards, released
    // simultaneously by a barrier. Shards complete independently, so
    // responses genuinely arrive out of submission order; every one
    // must still match the direct solution for *its own* instance —
    // a swapped correlation id would pair a response with the wrong
    // instance and fail parity.
    let server = server_with(ServerConfig {
        executor_shards: 4,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let k3 = generators::complete_graph(3);
    let k4 = generators::complete_graph(4);
    let (id3, id4) = {
        let mut c = Client::connect(addr).unwrap();
        (
            c.register_template(&k3).unwrap(),
            c.register_template(&k4).unwrap(),
        )
    };
    let direct3 = Arc::new(Session::compile(&k3));
    let direct4 = Arc::new(Session::compile(&k4));

    let n_clients = 3;
    let per_client = 12;
    let barrier = Arc::new(Barrier::new(n_clients));
    let mismatches = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..n_clients)
        .map(|ci| {
            let barrier = Arc::clone(&barrier);
            let direct3 = Arc::clone(&direct3);
            let direct4 = Arc::clone(&direct4);
            let mismatches = Arc::clone(&mismatches);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let work: Vec<(u64, Structure)> = (0..per_client)
                    .map(|ri| {
                        let seed = (ci * per_client + ri) as u64;
                        let a = generators::random_graph_nm(7, 10, seed);
                        (if ri % 2 == 0 { id3 } else { id4 }, a)
                    })
                    .collect();
                barrier.wait();
                // Submit the whole window, remembering which id went
                // with which instance, then receive in whatever order
                // the shards finish.
                let mut pending = std::collections::HashMap::new();
                for (tid, a) in &work {
                    let rid = c
                        .submit(&Request::Solve {
                            template_id: *tid,
                            deadline_ms: 0,
                            instance: a.clone(),
                        })
                        .unwrap();
                    pending.insert(rid, (*tid, a.clone()));
                }
                for _ in 0..work.len() {
                    let (rid, resp) = c.recv().unwrap();
                    let (tid, a) = pending.remove(&rid).expect("known id, never reused");
                    let Response::Solved(sol) = resp else {
                        panic!("expected Solved, got {resp:?}");
                    };
                    let direct = if tid == id3 {
                        direct3.solve(&a)
                    } else {
                        direct4.solve(&a)
                    };
                    if !solutions_identical(&sol, &direct) {
                        mismatches.fetch_add(1, Ordering::SeqCst);
                    }
                }
                assert!(pending.is_empty(), "every submission answered exactly once");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        mismatches.load(Ordering::SeqCst),
        0,
        "a response was paired with the wrong request"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------
// Idle connections must not spin.

#[test]
fn idle_connection_does_not_inflate_wakeup_counters() {
    // Wide idle interval, tight mid-frame interval: a connection that
    // sits idle shorter than the idle interval must record zero idle
    // wakeups (the pre-fix behavior polled at poll_interval, ~24 wakes
    // in this window).
    let server = server_with(ServerConfig {
        poll_interval: Duration::from_millis(25),
        idle_poll_interval: Duration::from_millis(1200),
        ..ServerConfig::default()
    });
    let mut idle = Client::connect(server.local_addr()).unwrap();
    std::thread::sleep(Duration::from_millis(600));
    let status = idle.status().unwrap();
    assert_eq!(
        status.idle_wakeups, 0,
        "an idle connection woke the reader: {status:?}"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------
// Robustness: timeouts, truncation, chaos, self-healing, resilience.

use cqcs_net::client::ClientConfig;
use cqcs_net::resilient::{ResilientClient, RetryPolicy};
use cqcs_net::server::ChaosConfig;
use cqcs_net::transport::FaultConfig;
use std::net::TcpListener;

/// A retry policy tuned for tests: patient enough to outlast injected
/// stalls, bounded enough that a genuinely dead server fails fast.
fn test_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 64,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(20),
        request_deadline: Duration::from_secs(30),
        jitter_seed: 0x7E57,
    }
}

#[test]
fn half_frame_then_silence_is_a_typed_timeout() {
    // Regression for the mid-frame hangup bug: a server that answers
    // half a response header and then stalls used to pin `recv` in a
    // blocking read forever. With a read timeout configured the client
    // must surface a typed, retryable `ClientError::Timeout`.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stall = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let mut discard = [0u8; 256];
        let _ = s.read(&mut discard); // swallow the request
        s.write_all(b"CQ\x02\x05").unwrap(); // 4 of 16 header bytes
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1500)); // then silence
    });
    let mut client = Client::connect_with(
        addr,
        &ClientConfig {
            read_timeout: Some(Duration::from_millis(200)),
            ..ClientConfig::default()
        },
    )
    .unwrap();
    match client.status() {
        Err(ClientError::Timeout) => {}
        other => panic!("expected ClientError::Timeout, got {other:?}"),
    }
    assert!(ClientError::Timeout.is_retryable());
    stall.join().unwrap();
}

#[test]
fn half_frame_then_close_is_a_typed_error() {
    // The hangup variant of the same bug: half a frame and then EOF
    // must decode to a typed, retryable error — never a hang, never a
    // panic, never a silent `Ok`.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hangup = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let mut discard = [0u8; 256];
        let _ = s.read(&mut discard);
        s.write_all(b"CQ\x02\x05\x01\x00\x00").unwrap(); // 7 of 16 bytes
        s.flush().unwrap();
        // drop: close mid-frame
    });
    let mut client = Client::connect(addr).unwrap();
    let err = client.status().expect_err("half frame then close");
    assert!(
        matches!(err, ClientError::Io(ref e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
        "expected UnexpectedEof, got {err:?}"
    );
    assert!(err.is_retryable());
    hangup.join().unwrap();
}

#[test]
fn truncated_requests_at_every_cut_point_never_kill_the_server() {
    // Server-end truncation sweep: a client that dies after sending
    // every possible prefix of a valid solve frame. The server must
    // survive each one and keep answering well-behaved clients.
    let server = server_with(ServerConfig {
        shutdown_drain_grace: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let id = client
        .register_template(&generators::complete_graph(3))
        .unwrap();
    let frame = Request::Solve {
        template_id: id,
        deadline_ms: 0,
        instance: generators::undirected_cycle(4),
    }
    .encode(7)
    .unwrap();
    for cut in 0..frame.len() {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&frame[..cut]).unwrap();
        s.flush().unwrap();
        drop(s); // hang up mid-frame
    }
    // The full frame still works, and the server still answers.
    assert!(client
        .solve(id, &generators::undirected_cycle(4))
        .unwrap()
        .homomorphism
        .is_some());
    server.shutdown();
}

#[test]
fn truncated_responses_at_every_cut_point_are_typed_client_errors() {
    // Client-end truncation sweep: a server that hangs up after every
    // possible prefix of a valid response frame. The client must return
    // a typed error at every cut point — no panic, no hang, no bogus
    // success.
    let status_frame = {
        let server = default_server();
        let mut probe = TcpStream::connect(server.local_addr()).unwrap();
        probe
            .write_all(&Request::Status.encode(1).unwrap())
            .unwrap();
        let mut header = [0u8; HEADER_LEN];
        probe.read_exact(&mut header).unwrap();
        let (_, _, len) = cqcs_net::codec::parse_header(&header).unwrap();
        let mut payload = vec![0u8; len as usize];
        probe.read_exact(&mut payload).unwrap();
        server.shutdown();
        let mut f = header.to_vec();
        f.extend_from_slice(&payload);
        f
    };
    for cut in 0..status_frame.len() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let prefix = status_frame[..cut].to_vec();
        let trunc = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut discard = [0u8; 256];
            let _ = s.read(&mut discard);
            s.write_all(&prefix).unwrap();
            s.flush().unwrap();
        });
        let mut client = Client::connect(addr).unwrap();
        let err = client
            .status()
            .expect_err("a truncated response must not decode");
        assert!(
            err.is_retryable(),
            "cut {cut}: truncation must be retryable, got {err:?}"
        );
        trunc.join().unwrap();
    }
}

#[test]
fn injected_panic_is_contained_to_a_typed_internal_error() {
    // panic_every = 2 on a single shard: solve #1 succeeds, solve #2
    // panics inside catch_unwind and is answered `Internal`, solve #3
    // succeeds **on the same shard** — the panic cost one request its
    // answer, not the executor its life.
    let server = server_with(ServerConfig {
        executor_shards: 1,
        chaos: Some(ChaosConfig {
            seed: 1,
            fault_rate: 0.0,
            accept_reset_rate: 0.0,
            panic_every: 2,
            crash_every: 0,
        }),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let id = client
        .register_template(&generators::complete_graph(3))
        .unwrap();
    let c4 = generators::undirected_cycle(4);
    assert!(client.solve(id, &c4).unwrap().homomorphism.is_some());
    match client.solve(id, &c4) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Internal),
        other => panic!("expected Internal from the injected panic, got {other:?}"),
    }
    assert!(client.solve(id, &c4).unwrap().homomorphism.is_some());
    let status = client.status().unwrap();
    assert_eq!(status.panics_caught, 1, "{status:?}");
    assert_eq!(status.shards_respawned, 0, "the shard must not die");
    server.shutdown();
}

#[test]
fn crashed_executor_is_respawned_and_requeued_jobs_complete() {
    // crash_every = 2 kills the executor thread itself on every second
    // batch — *outside* the panic containment. The supervisor must
    // respawn the shard and re-queue the admitted jobs, so every solve
    // still completes with the right answer.
    let server = server_with(ServerConfig {
        executor_shards: 1,
        poll_interval: Duration::from_millis(10),
        chaos: Some(ChaosConfig {
            seed: 2,
            fault_rate: 0.0,
            accept_reset_rate: 0.0,
            panic_every: 0,
            crash_every: 2,
        }),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let k3 = generators::complete_graph(3);
    let id = client.register_template(&k3).unwrap();
    let direct = Session::compile(&k3);
    for a in instances().into_iter().take(6) {
        let sol = client.solve(id, &a).unwrap();
        assert!(
            solutions_identical(&sol, &direct.solve(&a)),
            "a requeued job changed its answer"
        );
    }
    let status = client.status().unwrap();
    assert!(
        status.shards_respawned >= 2,
        "crash_every=2 over 6 solves must respawn: {status:?}"
    );
    server.shutdown();
}

#[test]
fn executor_crash_during_shutdown_drain_is_recovered() {
    // A job admitted just before shutdown whose executor crashes only
    // after shutdown began: the coalesce window holds the sweep (and so
    // the crash) until shutdown is joining the connection, whose writer
    // waits for that job's reply. The supervisor must still respawn the
    // executor then, or the reply never comes and shutdown hangs.
    let server = server_with(ServerConfig {
        executor_shards: 1,
        poll_interval: Duration::from_millis(10),
        coalesce_window: Duration::from_millis(300),
        chaos: Some(ChaosConfig {
            seed: 3,
            fault_rate: 0.0,
            accept_reset_rate: 0.0,
            panic_every: 0,
            crash_every: 1,
        }),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let id = client
        .register_template(&generators::complete_graph(3))
        .unwrap();
    let solve = client
        .submit(&Request::Solve {
            template_id: id,
            deadline_ms: 0,
            instance: instances().remove(0),
        })
        .unwrap();
    // Frames are read in order: once Status is answered, the solve is
    // admitted and its executor is inside the coalesce window.
    client.submit(&Request::Status).unwrap();
    assert!(matches!(client.recv().unwrap().1, Response::Status(_)));
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    assert!(
        done_rx.recv_timeout(Duration::from_secs(30)).is_ok(),
        "shutdown hung on a job stranded by an executor crash"
    );
    // It crashed both executors that swept it, so it is answered with a
    // typed error rather than a third attempt.
    match client.recv().unwrap() {
        (got, Response::Error { code, .. }) => {
            assert_eq!((got, code), (solve, ErrorCode::Internal));
        }
        other => panic!("expected the stranded job's Internal error, got {other:?}"),
    }
}

#[test]
fn resilient_client_survives_disconnect_heavy_chaos() {
    // Server-side fault injection at a rate where stalls and mid-frame
    // disconnects are certain across the run. The resilient client must
    // finish every solve with bit-identical answers, reconnecting and
    // replaying its template registrations as needed.
    let server = server_with(ServerConfig {
        chaos: Some(ChaosConfig {
            seed: 0xC0A5,
            fault_rate: 0.25,
            accept_reset_rate: 0.0,
            panic_every: 0,
            crash_every: 0,
        }),
        ..ServerConfig::default()
    });
    let k3 = generators::complete_graph(3);
    let direct = Session::compile(&k3);
    let mut client = ResilientClient::connect(
        server.local_addr(),
        ClientConfig {
            // Without a read timeout, a connection whose server-side
            // writer died to an injected fault would pin the client
            // until the server's idle poll happens to sever it.
            read_timeout: Some(Duration::from_millis(250)),
            write_timeout: Some(Duration::from_millis(250)),
            fault: None,
        },
        test_retry(),
    )
    .unwrap();
    let handle = client.register_template(&k3).unwrap();
    for a in instances() {
        let sol = client.solve(handle, &a).unwrap();
        assert!(
            solutions_identical(&sol, &direct.solve(&a)),
            "a retried solve changed its answer"
        );
    }
    assert!(
        client.retries() + client.reconnects() >= 1,
        "a 25% fault rate injected nothing? retries={} reconnects={}",
        client.retries(),
        client.reconnects()
    );
    assert!(cqcs_net::faults_injected() > 0);
    server.shutdown();
}

#[test]
fn resilient_pipelined_chaos_loses_and_duplicates_nothing() {
    // Faults on *both* ends of the wire, pipelined at depth 8: every
    // logical request must settle exactly once, in submission order,
    // bit-identical to the direct session — the exactly-once invariant
    // experiment E20 gates at scale.
    let server = server_with(ServerConfig {
        chaos: Some(ChaosConfig {
            seed: 0xE2E,
            fault_rate: 0.10,
            accept_reset_rate: 0.0,
            panic_every: 0,
            crash_every: 0,
        }),
        ..ServerConfig::default()
    });
    let k3 = generators::complete_graph(3);
    let direct = Session::compile(&k3);
    let mut client = ResilientClient::connect(
        server.local_addr(),
        ClientConfig {
            read_timeout: Some(Duration::from_millis(500)),
            write_timeout: Some(Duration::from_millis(500)),
            fault: Some(FaultConfig::new(0x51DE, 0.05)),
        },
        test_retry(),
    )
    .unwrap();
    let handle = client.register_template(&k3).unwrap();
    let batch = instances();
    let sols = client.solve_pipelined(handle, &batch, 8).unwrap();
    assert_eq!(sols.len(), batch.len(), "no request lost, none invented");
    for (i, (w, d)) in sols
        .iter()
        .zip(batch.iter().map(|a| direct.solve(a)))
        .enumerate()
    {
        assert!(
            solutions_identical(w, &d),
            "instance {i}: pipelined chaos solution diverged"
        );
    }
    server.shutdown();
}

#[test]
fn evicted_template_is_transparently_re_registered() {
    // A registry too small for both templates: registering the second
    // evicts the first server-side. The resilient client treats the
    // resulting UnknownTemplate as retryable, re-registers from its
    // remembered copy, and the solve succeeds without caller-visible
    // failure.
    let server = server_with(ServerConfig {
        registry_capacity: 1,
        ..ServerConfig::default()
    });
    let mut client =
        ResilientClient::connect(server.local_addr(), ClientConfig::default(), test_retry())
            .unwrap();
    let h_k3 = client
        .register_template(&generators::complete_graph(3))
        .unwrap();
    let _h_k4 = client
        .register_template(&generators::complete_graph(4))
        .unwrap();
    // K3 was evicted; this solve must re-register it behind the scenes.
    let sol = client.solve(h_k3, &generators::directed_path(2)).unwrap();
    assert!(sol.homomorphism.is_some());
    assert!(client.retries() >= 1, "the eviction must have cost a retry");
    server.shutdown();
}

#[test]
fn accept_resets_are_counted_and_survivable() {
    // Half of all accepted connections are reset before a byte is
    // served. Plain clients see transport errors; the resilient client
    // gets through; Status reports the injected accept faults.
    let server = server_with(ServerConfig {
        chaos: Some(ChaosConfig {
            seed: 0xACCE,
            fault_rate: 0.0,
            accept_reset_rate: 0.5,
            panic_every: 0,
            crash_every: 0,
        }),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    // Burn through enough accepts that the seeded schedule certainly
    // contains both resets and passes.
    for _ in 0..12 {
        if let Ok(mut c) = Client::connect(addr) {
            let _ = c.status(); // may fail: that is the point
        }
    }
    let mut client = ResilientClient::connect(addr, ClientConfig::default(), test_retry()).unwrap();
    let status = client.status().unwrap();
    assert!(
        status.accept_faults >= 1,
        "a 50% reset rate over 12+ accepts injected nothing: {status:?}"
    );
    server.shutdown();
}

#[test]
fn retry_flagged_requests_are_counted_by_the_server() {
    let server = default_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let id = client
        .register_template(&generators::complete_graph(3))
        .unwrap();
    let c4 = generators::undirected_cycle(4);
    // A retry-flagged roundtrip still solves correctly…
    let resp = client
        .roundtrip(
            &Request::Solve {
                template_id: id,
                deadline_ms: 0,
                instance: c4.clone(),
            },
            true,
        )
        .unwrap();
    assert!(matches!(resp, Response::Solved(_)));
    // …and the server's failure ledger saw the flag.
    let status = client.status().unwrap();
    assert_eq!(status.client_retries, 1, "{status:?}");
    server.shutdown();
}
