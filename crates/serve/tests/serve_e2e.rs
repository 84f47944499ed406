//! End-to-end tests against a real in-process daemon over TCP: protocol
//! round trips, the validated cache, typed overload rejections, clock-
//! driven deadline shedding, the circuit breaker, and both shutdown modes
//! (including checkpoint-shutdown → restart → byte-identical recovery).

use bddcf_serve::protocol::{
    read_frame, write_frame, ErrorCode, Request, RequestBody, Response, ShutdownMode, Source,
    Status, SynthSpec, DEFAULT_MAX_FRAME,
};
use bddcf_serve::server::{Server, ServerConfig};
use bddcf_serve::{execute, json};
use std::io::{BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("timeout");
        let read_half = stream.try_clone().expect("clone");
        Client {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
        }
    }

    fn roundtrip_raw(&mut self, payload: &[u8]) -> Vec<u8> {
        write_frame(&mut self.writer, payload).expect("send");
        read_frame(&mut self.reader, DEFAULT_MAX_FRAME)
            .expect("read")
            .expect("reply")
    }

    fn roundtrip(&mut self, request: &Request) -> Response {
        let reply = self.roundtrip_raw(&request.to_bytes());
        Response::from_bytes(&reply).expect("parseable response")
    }
}

fn synth_request(id: &str, spec: SynthSpec) -> Request {
    Request {
        id: id.into(),
        body: RequestBody::Synth {
            spec,
            deadline_ms: None,
            checkpoint: false,
        },
    }
}

fn tiny_spec() -> SynthSpec {
    SynthSpec::new(Source::Pla(
        ".i 3\n.o 2\n000 11\n111 10\n010 01\n.e\n".into(),
    ))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bddcf-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Polls the daemon's `stats` op until `key` reaches `want` — the
/// deterministic way to wait for queue/worker state over the wire.
fn wait_for_stat(addr: SocketAddr, key: &str, want: i64) {
    let stats_req = Request {
        id: "s".into(),
        body: RequestBody::Stats,
    };
    loop {
        let reply = Client::connect(addr).roundtrip_raw(&stats_req.to_bytes());
        let value = json::parse(&reply).expect("stats json");
        let got = value
            .get("stats")
            .and_then(|s| s.get(key))
            .and_then(json::Json::as_i64)
            .expect("stat field");
        if got == want {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn synth_round_trip_then_cache_hit_is_byte_identical() {
    let server = Server::start(ServerConfig::default()).expect("start");
    let addr = server.local_addr();
    let mut client = Client::connect(addr);

    let first = client.roundtrip(&synth_request("r1", tiny_spec()));
    assert_eq!(first.status, Status::Ok, "{:?}", first.error);
    assert!(!first.cached);
    let result = first.result.clone().expect("payload");
    assert!(result.verilog.contains("module"));

    // Second request for the same spec: served from the validated cache,
    // with the identical deterministic artifact portion.
    let second = client.roundtrip(&synth_request("r1", tiny_spec()));
    assert!(second.cached, "second hit must come from the cache");
    assert_eq!(second.artifact_bytes(), first.artifact_bytes());

    // Local recomputation agrees byte-for-byte too.
    let local = execute(&tiny_spec(), None, None, false).expect("local");
    assert_eq!(local.result, result);

    // The stats op sums the completed job's collections and the nodes
    // they reclaimed.
    let stats_reply = client.roundtrip_raw(
        &Request {
            id: "s".into(),
            body: RequestBody::Stats,
        }
        .to_bytes(),
    );
    let value = json::parse(&stats_reply).expect("stats json");
    let counter = |key: &str| {
        value
            .get("stats")
            .and_then(|s| s.get(key))
            .and_then(json::Json::as_i64)
            .expect("engine counter")
    };
    assert!(counter("engine_gc_runs") > 0);
    assert!(counter("engine_gc_reclaimed") > 0);
    assert!(counter("engine_swap_reclaimed") > 0);

    let shutdown = Request {
        id: "q".into(),
        body: RequestBody::Shutdown(ShutdownMode::Drain),
    };
    let ack = client.roundtrip_raw(&shutdown.to_bytes());
    assert!(String::from_utf8_lossy(&ack).contains("\"shutdown\":\"drain\""));
    let stats = server.wait();
    assert_eq!(stats.pool.completed, 1);
    assert_eq!(stats.cache.hits, 1);
}

#[test]
fn malformed_and_oversized_frames_get_typed_errors() {
    let server = Server::start(ServerConfig {
        max_frame_len: 512,
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = server.local_addr();

    let mut client = Client::connect(addr);
    let reply = client.roundtrip_raw(b"{\"id\":\"m1\",\"op\":\"wat\"}");
    let response = Response::from_bytes(&reply).expect("parse");
    assert_eq!(response.id, "m1", "the salvaged id must be echoed");
    let (code, _) = response.error.expect("error");
    assert_eq!(code, ErrorCode::Malformed);

    // Not even JSON: still a typed malformed error, id empty.
    let reply = client.roundtrip_raw(b"\x00\x01garbage");
    let response = Response::from_bytes(&reply).expect("parse");
    let (code, _) = response.error.expect("error");
    assert_eq!(code, ErrorCode::Malformed);

    // Oversized: rejected on the length prefix, then the stream closes.
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    raw.write_all(&(600u32).to_le_bytes()).expect("prefix");
    raw.flush().expect("flush");
    let mut reader = BufReader::new(raw);
    let reply = read_frame(&mut reader, DEFAULT_MAX_FRAME)
        .expect("read")
        .expect("reply");
    let response = Response::from_bytes(&reply).expect("parse");
    let (code, _) = response.error.expect("error");
    assert_eq!(code, ErrorCode::Oversized);
    assert!(
        read_frame(&mut reader, DEFAULT_MAX_FRAME)
            .expect("eof")
            .is_none(),
        "the connection must close after an oversized frame"
    );

    let shutdown = Request {
        id: "q".into(),
        body: RequestBody::Shutdown(ShutdownMode::Drain),
    };
    let _ = Client::connect(addr).roundtrip_raw(&shutdown.to_bytes());
    server.wait();
}

#[test]
fn queue_full_rejection_is_deterministic_with_the_hold_hook() {
    let hold = Arc::new(AtomicBool::new(true));
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        hold: Some(Arc::clone(&hold)),
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = server.local_addr();

    // First request: picked up by the (held) worker on its own thread.
    let held_client = std::thread::spawn(move || {
        Client::connect(addr).roundtrip(&synth_request("held", tiny_spec()))
    });
    // Wait until the worker owns it (stats over the wire), so the queue
    // state is deterministic.
    wait_for_stat(addr, "inflight", 1);

    // A *different* spec fills the queue; once it is visibly queued, a
    // third must be rejected queue_full — no races, no sleeps.
    let mut other = tiny_spec();
    other.sift = 2;
    let queued_client = {
        let other = other.clone();
        std::thread::spawn(move || Client::connect(addr).roundtrip(&synth_request("queued", other)))
    };
    wait_for_stat(addr, "queue", 1);
    let mut third = tiny_spec();
    third.sift = 3;
    let rejected = Client::connect(addr).roundtrip(&synth_request("victim", third));
    let (code, message) = rejected.error.expect("typed");
    assert_eq!(code, ErrorCode::QueueFull);
    assert!(
        code.is_retryable(),
        "queue_full must advertise retryability"
    );
    assert!(message.contains("retry"));

    hold.store(false, Ordering::Relaxed);
    assert_eq!(held_client.join().expect("held").status, Status::Ok);
    assert_eq!(queued_client.join().expect("queued").status, Status::Ok);

    let shutdown = Request {
        id: "q".into(),
        body: RequestBody::Shutdown(ShutdownMode::Drain),
    };
    let _ = Client::connect(addr).roundtrip_raw(&shutdown.to_bytes());
    let stats = server.wait();
    assert!(stats.pool.rejected_queue_full >= 1);
}

#[test]
fn fake_clock_deadline_sheds_queued_requests() {
    use bddcf_bdd::FakeClock;

    let clock = Arc::new(FakeClock::new());
    let hold = Arc::new(AtomicBool::new(true));
    let server = Server::start(ServerConfig {
        workers: 1,
        clock: clock.clone(),
        hold: Some(Arc::clone(&hold)),
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = server.local_addr();

    // The job is admitted with a 50 ms deadline while the worker is held;
    // the fake clock then jumps past the deadline before release, so the
    // worker's pre-check must shed it — deterministically, no sleeps.
    let request = Request {
        id: "late".into(),
        body: RequestBody::Synth {
            spec: tiny_spec(),
            deadline_ms: Some(50),
            checkpoint: false,
        },
    };
    let waiter = std::thread::spawn(move || Client::connect(addr).roundtrip(&request));
    // The held worker owns the job (deadline already fixed); now expire it.
    wait_for_stat(addr, "inflight", 1);
    clock.advance(Duration::from_millis(100));
    hold.store(false, Ordering::Relaxed);
    let response = waiter.join().expect("reply");
    let (code, message) = response.error.expect("typed");
    assert_eq!(code, ErrorCode::Deadline);
    assert!(message.contains("queued"));

    let shutdown = Request {
        id: "q".into(),
        body: RequestBody::Shutdown(ShutdownMode::Drain),
    };
    let _ = Client::connect(addr).roundtrip_raw(&shutdown.to_bytes());
    assert_eq!(server.wait().pool.shed_deadline, 1);
}

#[test]
fn panic_probe_trips_the_breaker_over_the_wire() {
    let server = Server::start(ServerConfig {
        workers: 1,
        breaker_threshold: 2,
        breaker_cooldown: 50,
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = server.local_addr();
    let probe = || SynthSpec::new(Source::Registry("panic probe".into()));

    bddcf_check::with_quiet_panics(|| {
        for i in 0..2 {
            let response =
                Client::connect(addr).roundtrip(&synth_request(&format!("p{i}"), probe()));
            let (code, _) = response.error.expect("typed");
            assert_eq!(code, ErrorCode::Panicked, "panic is quarantined, not fatal");
        }
    });
    // Threshold reached: the breaker rejects without running anything.
    let response = Client::connect(addr).roundtrip(&synth_request("p2", probe()));
    let (code, _) = response.error.expect("typed");
    assert_eq!(code, ErrorCode::CircuitOpen);
    assert!(!code.is_retryable());

    // The daemon itself is still healthy for other specs.
    let ok = Client::connect(addr).roundtrip(&synth_request("fine", tiny_spec()));
    assert_eq!(ok.status, Status::Ok);

    let shutdown = Request {
        id: "q".into(),
        body: RequestBody::Shutdown(ShutdownMode::Drain),
    };
    let _ = Client::connect(addr).roundtrip_raw(&shutdown.to_bytes());
    let stats = server.wait();
    assert_eq!(stats.pool.panicked, 2);
    assert!(stats.pool.rejected_breaker >= 1);
}

#[test]
fn checkpoint_shutdown_parks_and_a_restart_recovers_byte_identically() {
    let spool = temp_dir("ckpt-recover");
    let hold = Arc::new(AtomicBool::new(true));
    let server = Server::start(ServerConfig {
        workers: 1,
        spool_dir: Some(spool.clone()),
        hold: Some(Arc::clone(&hold)),
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = server.local_addr();

    // Admit a checkpointing job, hold its worker, then shut down in
    // checkpoint mode: the job must park (typed `draining` reply) and
    // leave its acceptance record spooled.
    let request = Request {
        id: "long".into(),
        body: RequestBody::Synth {
            spec: tiny_spec(),
            deadline_ms: None,
            checkpoint: true,
        },
    };
    let waiter = {
        let request = request.clone();
        std::thread::spawn(move || Client::connect(addr).roundtrip(&request))
    };
    wait_for_stat(addr, "inflight", 1);
    let shutdown = Request {
        id: "halt".into(),
        body: RequestBody::Shutdown(ShutdownMode::Checkpoint),
    };
    let _ = Client::connect(addr).roundtrip_raw(&shutdown.to_bytes());
    hold.store(false, Ordering::Relaxed);
    let parked = waiter.join().expect("reply");
    let (code, _) = parked.error.expect("typed");
    assert_eq!(code, ErrorCode::Draining);
    let stats = server.wait();
    assert_eq!(stats.pool.parked, 1);
    let hash_hex = tiny_spec().hash_hex();
    let entry = spool.join(format!("req-{hash_hex}"));
    assert!(
        entry.join("request.json").exists(),
        "acceptance record spooled"
    );
    assert!(
        !entry.join("response.json").exists(),
        "job did not complete"
    );

    // A restarted daemon recovers the entry and completes it...
    let server = Server::start(ServerConfig {
        workers: 1,
        spool_dir: Some(spool.clone()),
        ..ServerConfig::default()
    })
    .expect("restart");
    let addr = server.local_addr();
    // ...after which the same request replays the spooled response.
    let replayed = loop {
        let response = Client::connect(addr).roundtrip(&synth_request("again", tiny_spec()));
        if response.resumed || response.cached {
            break response;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(replayed.status, Status::Ok);

    // Byte-identical to an uninterrupted local run.
    let local = execute(&tiny_spec(), None, None, false).expect("local");
    assert_eq!(replayed.result.expect("payload"), local.result);
    assert!(
        entry.join("response.json").exists(),
        "completion record spooled"
    );

    let shutdown = Request {
        id: "q".into(),
        body: RequestBody::Shutdown(ShutdownMode::Drain),
    };
    let _ = Client::connect(addr).roundtrip_raw(&shutdown.to_bytes());
    let stats = server.wait();
    assert_eq!(stats.recovered, 1, "the spooled entry was resubmitted");
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn full_disk_degrades_serving_instead_of_killing_it() {
    use bddcf_bdd::vfs::{FaultPlan, FaultVfs, WriteFault};

    // Every storage write fails ENOSPC: no acceptance record, no
    // checkpoints, no completion record can land. The daemon must keep
    // serving — correct results, explicitly disclaimed as non-durable.
    let vfs = FaultVfs::with_plan(FaultPlan {
        fail_all_writes: true,
        fault: WriteFault::Enospc,
        ..FaultPlan::default()
    });
    let server = Server::start(ServerConfig {
        workers: 1,
        spool_dir: Some(PathBuf::from("/spool")),
        vfs: Arc::new(vfs.clone()),
        ..ServerConfig::default()
    })
    .expect("a full disk must not prevent startup");
    let addr = server.local_addr();
    let mut client = Client::connect(addr);

    let request = Request {
        id: "e1".into(),
        body: RequestBody::Synth {
            spec: tiny_spec(),
            deadline_ms: None,
            checkpoint: true,
        },
    };
    let reply = client.roundtrip_raw(&request.to_bytes());
    let first = Response::from_bytes(&reply).expect("parseable response");
    assert_eq!(first.status, Status::Ok, "{:?}", first.error);
    assert!(
        first.storage_degraded,
        "the reply must disclaim durability on a full disk"
    );
    assert!(
        String::from_utf8_lossy(&reply).contains("\"storage_degraded\":true"),
        "the disclaimer must be typed per-response metadata on the wire"
    );
    let local = execute(&tiny_spec(), None, None, false).expect("local");
    assert_eq!(
        first.result.expect("payload"),
        local.result,
        "degraded serving still returns the correct artifacts"
    );

    // A degraded result is never cached: the repeat must be recomputed
    // (and disclaimed again), not replayed from cache or spool.
    let second = client.roundtrip(&synth_request("e2", tiny_spec()));
    assert!(
        !second.cached,
        "degraded results must never enter the cache"
    );
    assert!(!second.resumed);
    assert!(second.storage_degraded);

    // The stats op exposes storage-degraded mode and its counters.
    let stats_reply = client.roundtrip_raw(
        &Request {
            id: "s".into(),
            body: RequestBody::Stats,
        }
        .to_bytes(),
    );
    let value = json::parse(&stats_reply).expect("stats json");
    let stats = value.get("stats").expect("stats object");
    assert_eq!(
        stats.get("storage_degraded").and_then(json::Json::as_bool),
        Some(true)
    );
    let counter = |key: &str| {
        stats
            .get(key)
            .and_then(json::Json::as_i64)
            .expect("counter")
    };
    assert!(counter("storage_faults") > 0, "faults must be counted");
    assert!(
        counter("storage_nondurable") >= 2,
        "both replies were accepted non-durably"
    );

    let shutdown = Request {
        id: "q".into(),
        body: RequestBody::Shutdown(ShutdownMode::Drain),
    };
    let _ = client.roundtrip_raw(&shutdown.to_bytes());
    let stats = server.wait();
    assert!(vfs.faults_injected() > 0, "the adversary actually fired");
    assert!(stats.storage_faults > 0);
    assert!(stats.storage_nondurable >= 2);
}

#[test]
fn torn_spool_response_is_quarantined_and_recomputed() {
    let spool = temp_dir("torn-spool");
    let server = Server::start(ServerConfig {
        workers: 1,
        spool_dir: Some(spool.clone()),
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = server.local_addr();
    let first = Client::connect(addr).roundtrip(&synth_request("t1", tiny_spec()));
    assert_eq!(first.status, Status::Ok, "{:?}", first.error);
    let shutdown = Request {
        id: "q".into(),
        body: RequestBody::Shutdown(ShutdownMode::Drain),
    };
    let _ = Client::connect(addr).roundtrip_raw(&shutdown.to_bytes());
    server.wait();

    // Tear the completion record in half, as a crash mid-overwrite on a
    // non-atomic filesystem would. While here: no prefix or single-byte
    // corruption of the record may panic the wire parser.
    let record = spool
        .join(format!("req-{}", tiny_spec().hash_hex()))
        .join("response.json");
    let intact = std::fs::read(&record).expect("read completion record");
    assert!(Response::from_bytes(&intact).is_ok());
    for len in (0..intact.len()).step_by(11) {
        let _ = Response::from_bytes(&intact[..len]);
    }
    for offset in (0..intact.len()).step_by(17) {
        let mut flipped = intact.clone();
        flipped[offset] ^= 0x01;
        let _ = Response::from_bytes(&flipped);
    }
    std::fs::write(&record, &intact[..intact.len() / 2]).expect("tear record");

    // A restarted daemon must quarantine the wreck, re-run the entry from
    // its acceptance record, and serve the byte-identical result.
    let server = Server::start(ServerConfig {
        workers: 1,
        spool_dir: Some(spool.clone()),
        ..ServerConfig::default()
    })
    .expect("restart on the torn spool");
    let addr = server.local_addr();
    let recovered = loop {
        let response = Client::connect(addr).roundtrip(&synth_request("t2", tiny_spec()));
        if response.resumed || response.cached {
            break response;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(recovered.status, Status::Ok);
    let local = execute(&tiny_spec(), None, None, false).expect("local");
    assert_eq!(recovered.result.expect("payload"), local.result);
    let quarantined = record.with_file_name("response.json.corrupt");
    assert!(
        quarantined.exists(),
        "the torn record must be parked under a .corrupt name"
    );
    let rewritten = std::fs::read(&record).expect("rewritten completion record");
    assert!(
        Response::from_bytes(&rewritten).is_ok(),
        "the entry must own a fresh, parseable completion record"
    );

    let _ = Client::connect(addr).roundtrip_raw(&shutdown.to_bytes());
    let stats = server.wait();
    assert!(
        stats.storage_faults >= 1,
        "the torn record must be counted as a storage fault"
    );
    assert_eq!(stats.recovered, 1, "the torn entry was re-executed");
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn a_deadline_request_recovered_after_a_crash_is_not_computed() {
    // A kill between a zero-deadline request's acceptance record and its
    // shed leaves an entry that carries the deadline and no completion.
    let spool = temp_dir("deadline-recovery");
    let entry = spool.join(format!("req-{}", tiny_spec().hash_hex()));
    std::fs::create_dir_all(&entry).expect("spool entry");
    let mut accepted = synth_request("dz", tiny_spec());
    if let RequestBody::Synth { deadline_ms, .. } = &mut accepted.body {
        *deadline_ms = Some(0);
    }
    std::fs::write(entry.join("request.json"), accepted.to_bytes()).expect("acceptance record");

    // The deadline passed during the outage: the restarted daemon records
    // a `deadline` completion instead of running the entry.
    let server = Server::start(ServerConfig {
        workers: 1,
        spool_dir: Some(spool.clone()),
        ..ServerConfig::default()
    })
    .expect("restart on the spool");
    let record = loop {
        if let Ok(bytes) = std::fs::read(entry.join("response.json")) {
            break Response::from_bytes(&bytes).expect("parseable completion record");
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(record.status, Status::Error);
    assert_eq!(
        record.error.map(|(code, _)| code),
        Some(ErrorCode::Deadline)
    );

    // So nothing was cached for the spec, and a later zero-deadline
    // request for it is shed as the contract says.
    let mut late = synth_request("dz2", tiny_spec());
    if let RequestBody::Synth { deadline_ms, .. } = &mut late.body {
        *deadline_ms = Some(0);
    }
    let reply = Client::connect(server.local_addr()).roundtrip(&late);
    assert!(
        !reply.cached,
        "a recovered deadline entry must not fill the cache"
    );
    assert_eq!(
        reply.error.map(|(code, _)| code),
        Some(ErrorCode::Deadline),
        "status {:?}",
        reply.status
    );

    let shutdown = Request {
        id: "q".into(),
        body: RequestBody::Shutdown(ShutdownMode::Drain),
    };
    let _ = Client::connect(server.local_addr()).roundtrip_raw(&shutdown.to_bytes());
    assert_eq!(server.wait().recovered, 0, "nothing was resubmitted");
    let _ = std::fs::remove_dir_all(&spool);
}
