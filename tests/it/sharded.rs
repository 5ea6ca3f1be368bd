//! Sharded serving and the binary wire protocol, end to end.
//!
//! Pins the serving contract the PR-9 API redesign introduced:
//!
//! * the binary codec round-trips every finite `f64` bit pattern
//!   bitwise (a property sweep over random bit patterns plus the usual
//!   adversarial values);
//! * truncated, oversized, and bad-magic streams produce *typed*
//!   `WireError` responses and a clean close — never a hang;
//! * the connection→shard FNV-1a mapping is stable (exact literal pins:
//!   changing the hash is a protocol-visible event);
//! * scores are bitwise identical whether a request is served by a
//!   single engine or any shard of a 1/2/8-way [`ShardedEngine`] —
//!   sharding is a throughput knob, never a numerics knob;
//! * the poll-loop TCP frontend serves JSONL and binary connections on
//!   the same port, negotiated from the first byte, answers a lone
//!   request without waiting out the fill window, and times out a
//!   silent peer;
//! * chaos-wedging one shard's workers leaves its neighbors serving
//!   (per-shard `shard{i}.worker_batch` injection points).

use chaos::{Chaos, FaultKind, FaultPlan, Trigger};
use datasets::{CriteoLike, ExperimentData, Setting, SettingSizes};
use integration::row_sum_scorer;
use linalg::random::Prng;
use linalg::Matrix;
use obs::Obs;
use rdrp::{DrpConfig, MethodConfig, RdrpConfig, RoiMethod};
use serve::{
    decode_client_frame, encode_score_request, run_session, shard_index, BinaryCodec, ClientFrame,
    Decoded, EngineConfig, Frame, FrameBuf, ModelRegistry, NetConfig, ScoreError, ScoreRequest,
    SessionLimits, ShardedEngine, WireCodec, WireError, DEFAULT_MODEL,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Serializes every `ShardedEngine` construction in this file: the
/// `RDRP_SHARD_PIN` env var is read at construction, and tests must not
/// observe each other's pins.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn serial_config(shards: usize) -> EngineConfig {
    EngineConfig::builder()
        .workers(1)
        .shards(shards)
        .max_wait(Duration::ZERO)
        .build()
        .expect("valid test config")
}

// ---------------------------------------------------------------------
// Binary codec: float exactness.
// ---------------------------------------------------------------------

/// SplitMix64: a deterministic stream of raw 64-bit patterns — uniform
/// over *bit patterns*, not values, so it reaches exponents and
/// mantissas no arithmetic distribution would.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Adversarial values first, then a sweep of random bit patterns
/// (finite ones — the request surface, like its JSON equivalent, only
/// admits finite rows).
fn finite_f64_patterns() -> Vec<f64> {
    let mut values = vec![
        0.0,
        -0.0,
        1.0,
        -1.0,
        f64::MIN,
        f64::MAX,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::EPSILON,
        1.0 + f64::EPSILON,
        5e-324,  // smallest positive subnormal
        -5e-324, // its negation
        std::f64::consts::PI,
        -std::f64::consts::E,
        1e308,
        -1e308,
        1e-308,
        0.1,
        1.0 / 3.0,
    ];
    let mut state = 0xF64_F64;
    while values.len() < 4096 {
        let v = f64::from_bits(splitmix64(&mut state));
        if v.is_finite() {
            values.push(v);
        }
    }
    values
}

#[test]
fn binary_round_trip_is_bitwise_for_every_finite_f64_pattern() {
    let values = finite_f64_patterns();
    // Request direction: rows in.
    let req = ScoreRequest {
        id: "bits".to_string(),
        model: None,
        version: None,
        rows: values.chunks(64).map(<[f64]>::to_vec).collect(),
        deadline_ms: Some(1234.5),
    };
    let mut wire = Vec::new();
    encode_score_request(&req, &mut wire).expect("encodable request");
    let mut buf = FrameBuf::new();
    buf.extend(&wire);
    let mut codec = BinaryCodec::new();
    let Decoded::Frame(Frame::Score(got)) = codec.decode_frame(&mut buf) else {
        panic!("score request did not decode");
    };
    assert_eq!(got.id, "bits");
    assert_eq!(got.deadline_ms.map(f64::to_bits), Some(1234.5f64.to_bits()));
    let flat: Vec<f64> = got.rows.into_iter().flatten().collect();
    assert_eq!(flat.len(), values.len());
    for (i, (sent, received)) in values.iter().zip(&flat).enumerate() {
        assert_eq!(
            sent.to_bits(),
            received.to_bits(),
            "pattern {i} ({sent:?}) did not round-trip"
        );
    }

    // Response direction: scores out.
    let mut out = Vec::new();
    codec.encode_response("bits", &values, &mut out);
    let mut buf = FrameBuf::new();
    buf.extend(&out);
    let frame = decode_client_frame(&mut buf)
        .expect("well-formed response")
        .expect("complete response");
    let ClientFrame::Scores { id, scores } = frame else {
        panic!("expected a scores frame, got {frame:?}");
    };
    assert_eq!(id, "bits");
    let sent_bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
    let got_bits: Vec<u64> = scores.iter().map(|v| v.to_bits()).collect();
    assert_eq!(sent_bits, got_bits, "response scores drifted bitwise");
}

// ---------------------------------------------------------------------
// Binary codec: corruption is a typed answer, not a hang.
// ---------------------------------------------------------------------

/// Runs one corrupt stream through a full `run_session` and returns the
/// typed error the server answered with before closing.
fn corrupt_session_error(input: &[u8]) -> WireError {
    let engine = ShardedEngine::start(serial_config(1), Obs::disabled());
    let registry = ModelRegistry::new();
    registry.insert(DEFAULT_MODEL, "1", row_sum_scorer(3));
    let mut output = Vec::new();
    run_session(
        std::io::Cursor::new(input.to_vec()),
        &mut output,
        &mut BinaryCodec::new(),
        engine.shard_for(0),
        &registry,
        &SessionLimits::default(),
    )
    .expect("corrupt streams are answered, not I/O errors");
    let mut buf = FrameBuf::new();
    buf.extend(&output);
    match decode_client_frame(&mut buf)
        .expect("server answers with a well-formed frame")
        .expect("server answered before closing")
    {
        ClientFrame::Error { error, .. } => error,
        other => panic!("expected an error frame, got {other:?}"),
    }
}

#[test]
fn truncated_oversized_and_bad_magic_streams_get_typed_errors() {
    let _guard = ENV_LOCK.lock().unwrap();
    let req = ScoreRequest {
        id: "t".to_string(),
        model: None,
        version: None,
        rows: vec![vec![1.0, 2.0, 3.0]],
        deadline_ms: None,
    };
    let mut wire = Vec::new();
    encode_score_request(&req, &mut wire).expect("encodable request");

    // The stream ends inside the 8-byte header.
    let err = corrupt_session_error(&wire[..3]);
    assert_eq!(err.code, "bad_request");
    assert!(err.message.contains("truncated"), "{}", err.message);

    // A valid header, but the stream ends mid-payload.
    let err = corrupt_session_error(&wire[..wire.len() - 5]);
    assert_eq!(err.code, "bad_request");
    assert!(err.message.contains("truncated"), "{}", err.message);

    // A header whose payload length exceeds the 64 MiB cap.
    let mut oversized = wire.clone();
    oversized[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = corrupt_session_error(&oversized);
    assert_eq!(err.code, "bad_request");
    assert!(err.message.contains("oversized"), "{}", err.message);

    // A stream that does not start with the magic byte, as hit when a
    // client is forced onto a binary-only port but speaks JSONL.
    let mut bad_magic = wire.clone();
    bad_magic[0] = b'{';
    let err = corrupt_session_error(&bad_magic);
    assert_eq!(err.code, "bad_request");
    assert!(err.message.contains("magic"), "{}", err.message);

    // An unsupported protocol version.
    let mut bad_version = wire;
    bad_version[1] = 99;
    let err = corrupt_session_error(&bad_version);
    assert_eq!(err.code, "bad_request");
    assert!(err.message.contains("version"), "{}", err.message);
}

// ---------------------------------------------------------------------
// Shard hashing: exact pins.
// ---------------------------------------------------------------------

#[test]
fn shard_hash_values_are_pinned() {
    // FNV-1a 64 over the connection id's little-endian bytes. These
    // exact values are part of the serving contract: change the hash
    // and every connection silently re-homes, so any change here must
    // be deliberate and protocol-visible.
    for (conn_id, shards, want) in [
        (0u64, 8usize, 5usize),
        (1, 8, 4),
        (2, 8, 7),
        (3, 8, 6),
        (7, 8, 2),
        (12_345, 8, 4),
        (0, 2, 1),
        (1, 2, 0),
        (2, 2, 1),
        (3, 2, 0),
        (0, 1, 0),
    ] {
        assert_eq!(
            shard_index(conn_id, shards),
            want,
            "conn {conn_id} re-homed among {shards} shards"
        );
    }
}

// ---------------------------------------------------------------------
// Sharded vs single: bitwise equality at shards {1, 2, 8}.
// ---------------------------------------------------------------------

/// Fits a small MC-sweep model (`drp-mc`) and returns (scorer, test
/// rows, scores from the direct path). MC models are the hard case:
/// their dropout sweep consumes RNG per request, which per-request
/// seeding from `rdrp::SCORING_SEED` must keep topology-invariant.
fn fitted_mc_scorer() -> (Arc<dyn RoiMethod>, Matrix, Vec<f64>) {
    let sizes = SettingSizes {
        train_sufficient: 600,
        insufficient_fraction: 0.15,
        calibration: 400,
        test: 300,
    };
    let mut rng = Prng::seed_from_u64(4242);
    let data = ExperimentData::build(&CriteoLike::new(), Setting::SuNo, &sizes, &mut rng);
    let config = MethodConfig {
        rdrp: RdrpConfig {
            drp: DrpConfig {
                epochs: 3,
                hidden: 8,
                ..DrpConfig::default()
            },
            mc_passes: 5,
            ..RdrpConfig::default()
        },
        ..MethodConfig::default()
    };
    let obs = Obs::disabled();
    let mut method = rdrp::build("drp-mc", &config).expect("registry has drp-mc");
    let mut fit_rng = Prng::seed_from_u64(8);
    method
        .fit(&data.train, &data.calibration, &mut fit_rng, &obs)
        .expect("fit succeeds");
    assert!(
        !method.rowwise(),
        "drp-mc must take the per-request MC path"
    );
    let x = data.test.x.clone();
    let expected = method.scores_fresh(&x, &obs);
    (Arc::from(method), x, expected)
}

#[test]
fn sharded_scores_match_single_engine_bitwise_at_1_2_8_shards() {
    let _guard = ENV_LOCK.lock().unwrap();
    let (scorer, x, expected) = fitted_mc_scorer();
    let expected_bits: Vec<u64> = expected.iter().map(|v| v.to_bits()).collect();
    for shards in [1usize, 2, 8] {
        let engine = ShardedEngine::start(serial_config(shards), Obs::disabled());
        assert_eq!(engine.shards(), shards);
        // Several connection ids, landing on different shards.
        for conn_id in [0u64, 1, 2, 7, 12_345] {
            let got = engine
                .submit_to(conn_id, &scorer, x.clone(), None)
                .expect("queued")
                .wait()
                .expect("scored");
            let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                expected_bits, got_bits,
                "conn {conn_id} on {shards} shards drifted from direct scoring"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Binary session end to end (in-memory transport).
// ---------------------------------------------------------------------

#[test]
fn binary_session_scores_and_rejects_like_jsonl() {
    let _guard = ENV_LOCK.lock().unwrap();
    let engine = ShardedEngine::start(serial_config(1), Obs::disabled());
    let registry = ModelRegistry::new();
    registry.insert(DEFAULT_MODEL, "1", row_sum_scorer(3));

    let mut input = Vec::new();
    for (id, rows) in [
        ("a", vec![vec![1.0, 2.0, 3.0]]),
        ("b", vec![vec![4.0, 5.0, 6.0], vec![7.0, 8.0, 9.0]]),
    ] {
        encode_score_request(
            &ScoreRequest {
                id: id.to_string(),
                model: None,
                version: None,
                rows,
                deadline_ms: None,
            },
            &mut input,
        )
        .expect("encodable request");
    }
    // An unknown model gets a typed rejection mid-stream; the
    // connection keeps serving.
    encode_score_request(
        &ScoreRequest {
            id: "c".to_string(),
            model: Some("nope".to_string()),
            version: None,
            rows: vec![vec![0.0, 0.0, 0.0]],
            deadline_ms: None,
        },
        &mut input,
    )
    .expect("encodable request");

    let mut output = Vec::new();
    run_session(
        std::io::Cursor::new(input),
        &mut output,
        &mut BinaryCodec::new(),
        engine.shard_for(0),
        &registry,
        &SessionLimits::default(),
    )
    .expect("clean session");

    let mut buf = FrameBuf::new();
    buf.extend(&output);
    let mut frames = Vec::new();
    while let Some(frame) = decode_client_frame(&mut buf).expect("well-formed") {
        frames.push(frame);
    }
    assert_eq!(frames.len(), 3, "one response per request");
    assert_eq!(
        frames[0],
        ClientFrame::Scores {
            id: "a".to_string(),
            scores: vec![6.0]
        }
    );
    assert_eq!(
        frames[1],
        ClientFrame::Scores {
            id: "b".to_string(),
            scores: vec![15.0, 24.0]
        }
    );
    match &frames[2] {
        ClientFrame::Error { id, error } => {
            assert_eq!(id, "c");
            assert_eq!(error.code, "unknown_model");
        }
        other => panic!("expected unknown_model, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Poll-loop TCP frontend: both codecs on one port.
// ---------------------------------------------------------------------

/// Serves `listener` from a thread until `net.max_conns` connections
/// have drained; the handle yields `serve_poll`'s result.
fn spawn_poll_server(
    listener: TcpListener,
    engine: &Arc<ShardedEngine>,
    registry: &Arc<ModelRegistry>,
    limits: SessionLimits,
    net: NetConfig,
    obs: Obs,
) -> std::thread::JoinHandle<std::io::Result<()>> {
    let engine = Arc::clone(engine);
    let registry = Arc::clone(registry);
    std::thread::spawn(move || {
        serve::serve_poll(&listener, &engine, &registry, &limits, &net, &obs)
    })
}

#[test]
fn poll_server_negotiates_jsonl_and_binary_on_one_port() {
    let _guard = ENV_LOCK.lock().unwrap();
    let engine = Arc::new(ShardedEngine::start(serial_config(2), Obs::disabled()));
    let registry = Arc::new(ModelRegistry::new());
    registry.insert(DEFAULT_MODEL, "1", row_sum_scorer(3));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = spawn_poll_server(
        listener,
        &engine,
        &registry,
        SessionLimits::default(),
        NetConfig {
            max_conns: Some(2),
            conn_timeout: Some(Duration::from_secs(10)),
            ..NetConfig::default()
        },
        Obs::disabled(),
    );

    // Connection 1: JSONL.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"{\"id\": \"j\", \"rows\": [[1, 2, 3]]}\n")
            .expect("send");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).expect("read");
        assert_eq!(line, "{\"id\":\"j\",\"scores\":[6]}\n");
    }
    // Connection 2: binary, same port.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut wire = Vec::new();
        encode_score_request(
            &ScoreRequest {
                id: "b".to_string(),
                model: None,
                version: None,
                rows: vec![vec![10.0, 20.0, 30.0]],
                deadline_ms: None,
            },
            &mut wire,
        )
        .expect("encodable request");
        stream.write_all(&wire).expect("send");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut bytes = Vec::new();
        stream.read_to_end(&mut bytes).expect("read");
        let mut buf = FrameBuf::new();
        buf.extend(&bytes);
        let frame = decode_client_frame(&mut buf)
            .expect("well-formed")
            .expect("answered");
        assert_eq!(
            frame,
            ClientFrame::Scores {
                id: "b".to_string(),
                scores: vec![60.0]
            }
        );
    }
    server
        .join()
        .expect("server thread")
        .expect("clean poll-loop exit");
}

/// A lone request is answered at once even with a 2 s `max_wait`: a
/// one-worker shard has no busy sibling to hold a batch for, and the
/// poll loop blocks on the engine's wake-up instead of sleeping.
#[test]
fn poll_server_answers_a_lone_request_without_waiting_for_fill() {
    let _guard = ENV_LOCK.lock().unwrap();
    let config = EngineConfig::builder()
        .workers(1)
        .max_wait(Duration::from_secs(2))
        .build()
        .expect("valid test config");
    let engine = Arc::new(ShardedEngine::start(config, Obs::disabled()));
    let registry = Arc::new(ModelRegistry::new());
    registry.insert(DEFAULT_MODEL, "1", row_sum_scorer(3));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = spawn_poll_server(
        listener,
        &engine,
        &registry,
        SessionLimits::default(),
        NetConfig {
            max_conns: Some(1),
            conn_timeout: Some(Duration::from_secs(10)),
            ..NetConfig::default()
        },
        Obs::disabled(),
    );

    let mut stream = TcpStream::connect(addr).expect("connect");
    let start = Instant::now();
    stream
        .write_all(b"{\"id\": \"lone\", \"rows\": [[1, 2, 3]]}\n")
        .expect("send");
    let mut line = String::new();
    BufReader::new(&stream).read_line(&mut line).expect("read");
    let elapsed = start.elapsed();
    assert_eq!(line, "{\"id\":\"lone\",\"scores\":[6]}\n");
    assert!(
        elapsed < Duration::from_secs(1),
        "a lone request took {elapsed:?}"
    );
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    server
        .join()
        .expect("server thread")
        .expect("clean poll-loop exit");
}

/// A peer that connects and never sends is disconnected after
/// `conn_timeout`, though none of the loop's descriptors ever turns
/// ready: the loop's `poll` timeout is the nearest idle deadline.
#[test]
fn poll_server_disconnects_a_silent_client_after_conn_timeout() {
    let _guard = ENV_LOCK.lock().unwrap();
    let engine = Arc::new(ShardedEngine::start(serial_config(1), Obs::disabled()));
    let registry = Arc::new(ModelRegistry::new());
    registry.insert(DEFAULT_MODEL, "1", row_sum_scorer(3));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (obs, recorder) = Obs::in_memory();
    let server = spawn_poll_server(
        listener,
        &engine,
        &registry,
        SessionLimits::default(),
        NetConfig {
            max_conns: Some(1),
            conn_timeout: Some(Duration::from_millis(100)),
            ..NetConfig::default()
        },
        obs,
    );

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut byte = [0u8; 1];
    let read = stream
        .read(&mut byte)
        .expect("the server closes, not stalls");
    assert_eq!(read, 0, "a silent client got bytes");
    server
        .join()
        .expect("server thread")
        .expect("clean poll-loop exit");
    assert_eq!(recorder.counter_value("serve.slow_client_disconnects"), 1.0);
}

/// Regression: a client that writes a deep backlog and half-closes must
/// get every response. Backpressure pauses decoding while the response
/// window is full, so at EOF the server still holds undecoded requests
/// in the connection's read buffer — an early `finished()` check used
/// to drop the connection there, silently discarding accepted work.
#[test]
fn poll_server_serves_backlog_written_before_half_close() {
    let _guard = ENV_LOCK.lock().unwrap();
    const REQUESTS: usize = 500;
    let engine = Arc::new(ShardedEngine::start(serial_config(1), Obs::disabled()));
    let registry = Arc::new(ModelRegistry::new());
    registry.insert(DEFAULT_MODEL, "1", row_sum_scorer(3));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = spawn_poll_server(
        listener,
        &engine,
        &registry,
        SessionLimits::default(),
        NetConfig {
            max_conns: Some(1),
            conn_timeout: Some(Duration::from_secs(10)),
            ..NetConfig::default()
        },
        Obs::disabled(),
    );

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut wire = Vec::new();
    for i in 0..REQUESTS {
        encode_score_request(
            &ScoreRequest {
                id: format!("r{i}"),
                model: None,
                version: None,
                rows: vec![vec![i as f64, 0.0, 0.0]],
                deadline_ms: None,
            },
            &mut wire,
        )
        .expect("encodable request");
    }
    stream.write_all(&wire).expect("send backlog");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");

    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("read");
    let mut buf = FrameBuf::new();
    buf.extend(&bytes);
    let mut answered = 0usize;
    while let Some(frame) = decode_client_frame(&mut buf).expect("well-formed") {
        match frame {
            ClientFrame::Scores { id, scores } => {
                assert_eq!(id, format!("r{answered}"), "responses out of order");
                assert_eq!(scores, vec![answered as f64]);
                answered += 1;
            }
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    assert_eq!(answered, REQUESTS, "backlogged requests were dropped");
    server
        .join()
        .expect("server thread")
        .expect("clean poll-loop exit");
}

/// Regression for two unbounded-memory overload bugs. (1) The poll
/// loop used to drain the kernel socket buffer into the connection's
/// read buffer even while the response window was full, so a sender
/// faster than the engine grew server memory without bound — the
/// documented push-back via TCP flow control never engaged because the
/// kernel buffer was always emptied. (2) Responses for a peer that
/// never reads used to accumulate unflushed without bound, and the
/// slow-client timeout could not fire while the peer's own requests
/// kept the window busy. With reads gated on the window and the
/// unflushed cap, a firehose client that never reads must fail to push
/// its whole backlog into the server (the write stalls in the kernel)
/// and then be disconnected by the conn timeout.
#[test]
fn poll_server_pushes_back_on_firehose_client_that_never_reads() {
    let _guard = ENV_LOCK.lock().unwrap();
    let engine = Arc::new(ShardedEngine::start(serial_config(1), Obs::disabled()));
    let registry = Arc::new(ModelRegistry::new());
    registry.insert(DEFAULT_MODEL, "1", row_sum_scorer(1));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = spawn_poll_server(
        listener,
        &engine,
        &registry,
        SessionLimits::with_window(2),
        NetConfig {
            max_conns: Some(1),
            conn_timeout: Some(Duration::from_millis(300)),
            max_unflushed: 1024,
            ..NetConfig::default()
        },
        Obs::disabled(),
    );

    // ~64 MiB of pipelined requests — far more than the kernel socket
    // buffers on both ends can absorb, so if the server stops reading,
    // this write cannot complete. (Responses are request-sized, so the
    // server can flush at most a few MiB into its send buffer before
    // the unflushed cap freezes the connection's pipeline.)
    let mut frame = Vec::new();
    encode_score_request(
        &ScoreRequest {
            id: "f".to_string(),
            model: None,
            version: None,
            rows: (0..4096).map(|i| vec![i as f64]).collect(),
            deadline_ms: None,
        },
        &mut frame,
    )
    .expect("encodable request");
    let mut wire = Vec::new();
    while wire.len() < 64 * 1024 * 1024 {
        wire.extend_from_slice(&frame);
    }

    let mut stream = TcpStream::connect(addr).expect("connect");
    // Firehose without ever reading a byte, until either the whole
    // backlog is written or the server disconnects us mid-write.
    let mut sent = 0usize;
    loop {
        match stream.write(&wire[sent..]) {
            Ok(0) => break,
            Ok(n) => {
                sent += n;
                if sent == wire.len() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    assert!(
        sent < wire.len(),
        "server buffered the whole {}-byte firehose in memory",
        wire.len()
    );
    server
        .join()
        .expect("server thread")
        .expect("clean poll-loop exit");
}

// ---------------------------------------------------------------------
// Chaos: one wedged shard does not take its neighbors down.
// ---------------------------------------------------------------------

#[test]
fn wedged_shard_leaves_other_shards_serving() {
    let _guard = ENV_LOCK.lock().unwrap();
    let obs = Obs::disabled();
    // conn 0 hashes to shard 1, conn 1 to shard 0 (pinned above). Panic
    // every batch on shard 1 only.
    let plan = FaultPlan::new().fail("shard1.worker_batch", Trigger::Always, FaultKind::Panic);
    let engine =
        ShardedEngine::start_with_chaos(serial_config(2), obs.clone(), Chaos::new(plan, obs));
    let scorer = row_sum_scorer(3);
    let row = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);

    let wedged = engine
        .submit_to(0, &scorer, row.clone(), None)
        .expect("queued")
        .wait();
    assert_eq!(wedged, Err(ScoreError::WorkerPanicked));

    let healthy = engine
        .submit_to(1, &scorer, row, None)
        .expect("queued")
        .wait();
    assert_eq!(healthy, Ok(vec![6.0]), "healthy shard was taken down too");
}

// ---------------------------------------------------------------------
// Shard pinning via env (constructor-captured).
// ---------------------------------------------------------------------

#[test]
fn shard_pin_env_routes_every_connection_to_one_shard() {
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::set_var(serve::SHARD_PIN_ENV, "1");
    let engine = ShardedEngine::start(serial_config(4), Obs::disabled());
    std::env::remove_var(serve::SHARD_PIN_ENV);
    for conn_id in [0u64, 1, 2, 3, 7, 12_345] {
        assert_eq!(engine.shard_index_for(conn_id), 1, "pin ignored");
    }
    // A post-removal engine routes by hash again.
    let unpinned = ShardedEngine::start(serial_config(4), Obs::disabled());
    assert_eq!(unpinned.shard_index_for(0), shard_index(0, 4));
}
