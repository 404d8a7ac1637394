//! Edge cases of the protocol layer over real loopback TCP: malformed JSON,
//! unknown request kinds, oversized lines, half-closed connections, and a
//! server that keeps serving other clients through all of it.

use mrls_serve::{
    read_frame, Client, DurabilityMode, Request, RequestBody, Response, ResponseBody, ServeConfig,
    Server, ServerHandle,
};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn spawn_server(max_line_bytes: usize) -> ServerHandle {
    Server::spawn(
        ServeConfig {
            capacities: vec![4, 4],
            batch_window: Duration::ZERO,
            max_line_bytes,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind loopback")
}

/// Sends a raw line and reads one raw response line.
fn raw_roundtrip(stream: &mut TcpStream, line: &str) -> Response {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let reply = read_frame(&mut reader, 1 << 20).unwrap().expect("a reply");
    serde_json::from_str(&reply).unwrap()
}

#[test]
fn malformed_json_gets_an_error_reply() {
    let handle = spawn_server(1 << 16);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let response = raw_roundtrip(&mut stream, "this is { not json");
    assert_eq!(response.id, 0);
    assert!(matches!(response.body, ResponseBody::Error { .. }));
    // The connection survives a parse error; a valid request still works.
    let response = raw_roundtrip(&mut stream, r#"{"id":9,"tenant":"t","body":"QueryStatus"}"#);
    assert_eq!(response.id, 9);
    assert!(matches!(response.body, ResponseBody::Status { .. }));

    Client::connect(handle.addr(), "t")
        .unwrap()
        .shutdown()
        .unwrap();
    handle.join();
}

/// A request line nested `depth` arrays deep inside an otherwise valid
/// request with id 7.
fn deeply_nested_line(depth: usize) -> String {
    format!(
        r#"{{"id":7,"tenant":"t","body":"QueryStatus","x":{}{}}}"#,
        "[".repeat(depth),
        "]".repeat(depth)
    )
}

#[test]
fn deeply_nested_lines_are_rejected_without_exhausting_the_stack() {
    // Depth 10 000 is a ~20 KB line; an unbounded recursive parser overflows
    // a default 2 MiB thread stack on it and aborts the whole process.
    let line = deeply_nested_line(10_000);
    let outcome = std::thread::Builder::new()
        .spawn(move || {
            (
                mrls_serve::parse_request(&line),
                mrls_serve::probe_request_id(&line),
            )
        })
        .unwrap()
        .join()
        .expect("parsing a deep line must not panic");
    let err = outcome.0.expect_err("a 10 000-deep line is rejected");
    assert!(err.contains("recursion limit"), "{err}");
    assert_eq!(outcome.1, 0, "the id probe gives up on the same line");
    // At the limit the nesting itself is accepted (the unknown field is
    // ignored), so the cap rejects only what is deeper.
    let within = deeply_nested_line(serde_json::RECURSION_LIMIT - 1);
    assert_eq!(mrls_serve::parse_request(&within).unwrap().id, 7);

    // Over the wire: the hostile line gets an error reply on a connection
    // thread, and the server keeps serving.
    let handle = spawn_server(1 << 16);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let response = raw_roundtrip(&mut stream, &deeply_nested_line(10_000));
    assert_eq!(response.id, 0);
    assert!(matches!(response.body, ResponseBody::Error { .. }));
    let response = raw_roundtrip(&mut stream, r#"{"id":9,"tenant":"t","body":"QueryStatus"}"#);
    assert_eq!(response.id, 9);
    assert!(matches!(response.body, ResponseBody::Status { .. }));

    Client::connect(handle.addr(), "t")
        .unwrap()
        .shutdown()
        .unwrap();
    handle.join();
}

#[test]
fn unknown_request_kinds_echo_the_id() {
    let handle = spawn_server(1 << 16);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let response = raw_roundtrip(&mut stream, r#"{"id":41,"tenant":"t","body":"Flarb"}"#);
    assert_eq!(response.id, 41, "id recovered from the unparsable request");
    let ResponseBody::Error { message } = response.body else {
        panic!("expected an error response");
    };
    assert!(message.contains("malformed request"), "{message}");
    // Unknown payload-carrying kinds are errors too.
    let response = raw_roundtrip(
        &mut stream,
        r#"{"id":42,"tenant":"t","body":{"Reticulate":{"splines":3}}}"#,
    );
    assert_eq!(response.id, 42);
    assert!(matches!(response.body, ResponseBody::Error { .. }));

    Client::connect(handle.addr(), "t")
        .unwrap()
        .shutdown()
        .unwrap();
    handle.join();
}

#[test]
fn oversized_lines_are_rejected_and_the_connection_dropped() {
    let handle = spawn_server(256);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let long = format!(
        r#"{{"id":1,"tenant":"{}","body":"QueryStatus"}}"#,
        "x".repeat(1000)
    );
    stream.write_all(long.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let reply = read_frame(&mut reader, 1 << 20).unwrap().expect("a reply");
    let response: Response = serde_json::from_str(&reply).unwrap();
    let ResponseBody::Error { message } = response.body else {
        panic!("expected an error response");
    };
    assert!(message.contains("256-byte limit"), "{message}");
    // The server closed this connection — there is no way to resynchronise.
    assert_eq!(read_frame(&mut reader, 1 << 20).unwrap(), None);
    // Other clients are unaffected.
    let mut client = Client::connect(handle.addr(), "t").unwrap();
    assert_eq!(client.status().unwrap().jobs_submitted, 0);
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn half_closed_connections_still_get_their_responses() {
    let handle = spawn_server(1 << 16);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let request = Request {
        id: 7,
        tenant: "half".into(),
        token: None,
        body: RequestBody::QueryStatus,
    };
    stream
        .write_all(mrls_serve::encode_line(&request).as_bytes())
        .unwrap();
    stream.flush().unwrap();
    // Close the write half before reading: the server must still process the
    // request and deliver the response on the intact read half.
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reader = BufReader::new(stream);
    let reply = read_frame(&mut reader, 1 << 20).unwrap().expect("a reply");
    let response: Response = serde_json::from_str(&reply).unwrap();
    assert_eq!(response.id, 7);
    assert!(matches!(response.body, ResponseBody::Status { .. }));
    // And the server then sees EOF and drops the connection quietly.
    assert_eq!(read_frame(&mut reader, 1 << 20).unwrap(), None);

    Client::connect(handle.addr(), "t")
        .unwrap()
        .shutdown()
        .unwrap();
    handle.join();
}

#[test]
fn query_durability_reports_the_log_position_over_the_wire() {
    // A plain server answers with mode `off` and an empty log.
    let handle = spawn_server(1 << 16);
    let mut client = Client::connect(handle.addr(), "t").unwrap();
    let status = client.durability().unwrap();
    assert_eq!(status.mode, "off");
    assert_eq!((status.wal_records, status.wal_bytes), (0, 0));
    assert_eq!(status.recoveries, 0);
    client.shutdown().unwrap();
    handle.join();

    // A durable server reports its live log position and checkpoint
    // watermark, and the raw unit-variant wire form works too.
    let dir = std::env::temp_dir().join(format!("mrls-protocol-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = Server::spawn(
        ServeConfig {
            capacities: vec![4, 4],
            batch_window: Duration::ZERO,
            durability: DurabilityMode::Buffered,
            dir: Some(dir.clone()),
            checkpoint_every_rounds: 1,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let mut client = Client::connect(handle.addr(), "t").unwrap();
    let job = mrls_model::MoldableJob::new(0, mrls_model::ExecTimeSpec::Constant { time: 1.0 });
    client.submit_job(job, vec![]).unwrap();
    client.drain().unwrap();
    let status = client.durability().unwrap();
    assert_eq!(status.mode, "buffered");
    assert!(status.wal_records >= 2, "a Job and a Round record at least");
    assert!(status.wal_bytes > 8, "more than the magic");
    assert!(status.last_checkpoint_seq.is_some(), "drain checkpoints");
    assert_eq!(status.recoveries, 0);

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let response = raw_roundtrip(
        &mut stream,
        r#"{"id":21,"tenant":"t","body":"QueryDurability"}"#,
    );
    assert_eq!(response.id, 21);
    assert!(matches!(response.body, ResponseBody::Durability { .. }));

    // Malformed shapes of the new verb are errors that keep the connection:
    // a payload where none belongs, and a misspelled variant.
    let response = raw_roundtrip(
        &mut stream,
        r#"{"id":22,"tenant":"t","body":{"QueryDurability":{"extra":1}}}"#,
    );
    assert_eq!(response.id, 22);
    assert!(matches!(response.body, ResponseBody::Error { .. }));
    let response = raw_roundtrip(
        &mut stream,
        r#"{"id":23,"tenant":"t","body":"QueryDurabilty"}"#,
    );
    assert_eq!(response.id, 23);
    assert!(matches!(response.body, ResponseBody::Error { .. }));
    // The connection survived all of it.
    let response = raw_roundtrip(
        &mut stream,
        r#"{"id":24,"tenant":"t","body":"QueryDurability"}"#,
    );
    assert!(matches!(response.body, ResponseBody::Durability { .. }));

    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn oversized_query_durability_drops_the_connection() {
    let handle = spawn_server(128);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let long = format!(
        r#"{{"id":1,"tenant":"{}","body":"QueryDurability"}}"#,
        "x".repeat(500)
    );
    stream.write_all(long.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let reply = read_frame(&mut reader, 1 << 20).unwrap().expect("a reply");
    let response: Response = serde_json::from_str(&reply).unwrap();
    let ResponseBody::Error { message } = response.body else {
        panic!("expected an error response");
    };
    assert!(message.contains("128-byte limit"), "{message}");
    assert_eq!(read_frame(&mut reader, 1 << 20).unwrap(), None);

    Client::connect(handle.addr(), "t")
        .unwrap()
        .shutdown()
        .unwrap();
    handle.join();
}

#[test]
fn query_quarantine_works_and_rejects_malformed_shapes() {
    // A server whose every attempt dies and whose retry budget is one
    // attempt: the submitted job must land in quarantine, visible both via
    // the typed client and the raw unit-variant wire form.
    let handle = Server::spawn(
        ServeConfig {
            capacities: vec![4, 4],
            batch_window: Duration::ZERO,
            failures: mrls_sim::FailurePlan {
                model: mrls_sim::FailureModel::Random { prob: 1.0 },
                outages: vec![],
                retry: mrls_sim::RetryPolicy {
                    max_attempts: 1,
                    backoff_base: 0.5,
                    backoff_factor: 2.0,
                },
            },
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let mut client = Client::connect(handle.addr(), "doomed").unwrap();
    let job = mrls_model::MoldableJob::new(0, mrls_model::ExecTimeSpec::Constant { time: 1.0 });
    client.submit_job(job, vec![]).unwrap();
    client.drain().unwrap();
    let entries = client.quarantine().unwrap();
    assert_eq!(entries.len(), 1, "the only attempt failed into quarantine");
    assert_eq!(entries[0].tenant, "doomed");
    assert_eq!(entries[0].job, 0);
    assert_eq!(entries[0].cause, "fault");

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let response = raw_roundtrip(
        &mut stream,
        r#"{"id":31,"tenant":"t","body":"QueryQuarantine"}"#,
    );
    assert_eq!(response.id, 31);
    assert!(matches!(response.body, ResponseBody::Quarantine { .. }));
    // Malformed shapes are errors that keep the connection: a payload where
    // none belongs, and a misspelled variant.
    let response = raw_roundtrip(
        &mut stream,
        r#"{"id":32,"tenant":"t","body":{"QueryQuarantine":{"extra":1}}}"#,
    );
    assert_eq!(response.id, 32);
    assert!(matches!(response.body, ResponseBody::Error { .. }));
    let response = raw_roundtrip(
        &mut stream,
        r#"{"id":33,"tenant":"t","body":"QueryQuarantene"}"#,
    );
    assert_eq!(response.id, 33);
    assert!(matches!(response.body, ResponseBody::Error { .. }));
    // The connection survived all of it.
    let response = raw_roundtrip(
        &mut stream,
        r#"{"id":34,"tenant":"t","body":"QueryQuarantine"}"#,
    );
    assert!(matches!(response.body, ResponseBody::Quarantine { .. }));

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn oversized_query_quarantine_drops_the_connection() {
    let handle = spawn_server(128);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let long = format!(
        r#"{{"id":1,"tenant":"{}","body":"QueryQuarantine"}}"#,
        "x".repeat(500)
    );
    stream.write_all(long.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let reply = read_frame(&mut reader, 1 << 20).unwrap().expect("a reply");
    let response: Response = serde_json::from_str(&reply).unwrap();
    let ResponseBody::Error { message } = response.body else {
        panic!("expected an error response");
    };
    assert!(message.contains("128-byte limit"), "{message}");
    assert_eq!(read_frame(&mut reader, 1 << 20).unwrap(), None);

    Client::connect(handle.addr(), "t")
        .unwrap()
        .shutdown()
        .unwrap();
    handle.join();
}

#[test]
fn duplicate_idempotency_tokens_admit_once_over_the_wire() {
    let handle = spawn_server(1 << 16);
    let job = || mrls_model::MoldableJob::new(0, mrls_model::ExecTimeSpec::Constant { time: 1.0 });

    // The typed client: resending the same pinned token yields the
    // original id and no second admission.
    let mut client = Client::connect(handle.addr(), "t").unwrap();
    let first = client
        .submit_job_with_token(job(), vec![], "tok-a")
        .unwrap();
    let replay = client
        .submit_job_with_token(job(), vec![], "tok-a")
        .unwrap();
    assert_eq!(first, replay, "the replay must return the original id");
    assert_eq!(client.status().unwrap().jobs_submitted, 1);

    // Even from a *different connection* (the crashed-and-reconnected
    // client): the dedup window lives in the server, not the socket.
    let mut second = Client::connect(handle.addr(), "t").unwrap();
    let replay = second
        .submit_job_with_token(job(), vec![], "tok-a")
        .unwrap();
    assert_eq!(first, replay);
    assert_eq!(second.status().unwrap().jobs_submitted, 1);

    // The raw wire form: a token field on the request JSON.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    let tokened = Request {
        id: 51,
        tenant: "t".into(),
        token: Some("tok-a".to_string()),
        body: RequestBody::SubmitJob {
            job: job(),
            deps: vec![],
        },
    };
    let line = mrls_serve::encode_line(&tokened);
    assert!(line.contains(r#""token":"tok-a""#), "{line}");
    let response = raw_roundtrip(&mut stream, line.trim_end());
    assert_eq!(response.id, 51);
    let ResponseBody::Accepted { jobs } = response.body else {
        panic!("expected an accepted response");
    };
    assert_eq!(jobs, vec![first]);

    // Distinct tokens admit distinct jobs, and auto tokens never collide.
    let other = second
        .submit_job_with_token(job(), vec![], "tok-b")
        .unwrap();
    assert_ne!(first, other);
    let auto = second.submit_job(job(), vec![]).unwrap();
    assert_ne!(other, auto);
    assert_eq!(second.status().unwrap().jobs_submitted, 3);

    second.drain().unwrap();
    second.shutdown().unwrap();
    handle.join();
}

#[test]
fn empty_lines_are_skipped() {
    let handle = spawn_server(1 << 16);
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(b"\n\n").unwrap();
    let response = raw_roundtrip(&mut stream, r#"{"id":3,"tenant":"t","body":"QueryStatus"}"#);
    assert_eq!(response.id, 3);

    Client::connect(handle.addr(), "t")
        .unwrap()
        .shutdown()
        .unwrap();
    handle.join();
}
