//! `serve`: an in-process `bddcf serve` daemon driven closed loop.
//!
//! The daemon has 2 workers and a validated response cache, started fresh,
//! so every run starts with an empty cache. One client thread sends seeded
//! PLA specs (8 inputs, 4 outputs, 100 rows), one request at a time, each
//! on a fresh connection as `loadtest` sends, until the window ends. A
//! fixed share of requests repeats a spec answered shortly before, so the
//! cache is used; the rest are new specs, which go through the workers.
//!
//! The timed daemon has no spool: the processor time of the spool's
//! fsyncs grew from one run to the next on a shared host (a miss's cost
//! over a hit's rose from 1.6 to 2.3 ms across four identical runs in a
//! row), which no scaling removes. `vfs::write_atomic` is timed in the
//! traced run's direct phase instead.
//!
//! With one request in flight, the process's processor time from send to
//! reply is that request's cost, daemon threads and client together; it
//! is scaled to the reference speed ([`crate::clock`]) with the kernel run
//! every few requests. Wall latency on a shared host measures the
//! neighbours as much as the daemon, so it is a per-layer figure only.
//!
//! Oracle, after the timed window: every repeat must equal the first
//! answer to its spec byte for byte, and a sample of specs is recomputed
//! with a local `bddcf_serve::execute` and byte-compared, as `loadtest`
//! does. Refused requests (`queue_full`/`overloaded`) count as failures,
//! not as samples.
//!
//! The traced run adds a direct phase: `execute`, `ResponseCache::lookup`
//! and `vfs::write_atomic` called on the first specs, one span each.

use crate::clock::{Meter, Sample};
use crate::engine::{figures, push_metrics, EngineFigures};
use crate::trace::Tracer;
use crate::{mix, stats, Outcome, RunConfig};
use bddcf_bdd::snapshot::fnv1a64;
use bddcf_bdd::vfs::{write_atomic, StdVfs};
use bddcf_serve::{
    build_cf, execute, read_frame, write_frame, ErrorCode, Request, RequestBody, Response,
    ResponseCache, Server, ServerConfig, ShutdownMode, Source, Status, SynthSpec,
    DEFAULT_MAX_FRAME,
};
use std::collections::HashMap;
use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Workload size.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Set-ups timed at each end of the run (the median is reported).
    pub setup_reps: usize,
    /// Specs recomputed locally and byte-compared.
    pub compare_specs: usize,
    /// Specs the traced run calls `execute`/`lookup`/`write_atomic` on.
    pub direct_specs: usize,
    /// The first distinct specs, which every run answers: the quality
    /// metrics and the fingerprint cover them (DC=0 and Alg. 3.1
    /// baselines rebuilt locally for the ratios).
    pub quality_specs: usize,
}

impl Scale {
    /// The benchmark's size.
    pub fn full() -> Scale {
        Scale {
            setup_reps: 15,
            compare_specs: 48,
            direct_specs: 48,
            quality_specs: 128,
        }
    }

    /// A miniature for tests.
    pub fn mini() -> Scale {
        Scale {
            setup_reps: 1,
            compare_specs: 8,
            direct_specs: 4,
            quality_specs: 8,
        }
    }
}

/// Requests generated per second of window, more than the loop sends;
/// it stops at the window's end.
const PLAN_RATE: f64 = 250.0;
/// Requests between two runs of the reference kernel.
const CALIBRATE_EVERY: usize = 20;
/// Pause before a kernel run.
const SETTLE: Duration = Duration::from_millis(3);
/// Consecutive requests per block; `cpu_s` is the median block.
const BLOCK: usize = 200;
/// Share of requests that repeat an earlier spec.
const REPEAT_SHARE: f64 = 0.3;
/// Rows per PLA spec (distinct minterms of the inputs).
const ROWS: usize = 100;
const INPUTS: usize = 8;
const OUTPUTS: usize = 4;
/// Repeats pick among the specs introduced between 48 and 8 new specs
/// ago: answered already, and still inside the daemon's 64-entry cache.
const REPEAT_WINDOW: (usize, usize) = (48, 8);

/// The seeded inputs: the distinct specs and, per request, which one it
/// sends.
pub struct Plan {
    specs: Vec<SynthSpec>,
    order: Vec<usize>,
}

/// A seeded PLA over 8 inputs and 4 outputs: `ROWS` distinct minterms
/// with fully specified outputs. Minterms no row covers are don't cares
/// for every output — the all-or-nothing structure of the paper's
/// benchmarks. (Per-output `-` entries occasionally leave an output
/// entangled, and synthesis refuses the spec.)
fn pla_text(seed: u64, spec: u64) -> String {
    let mut minterms: Vec<u64> = (0..1u64 << INPUTS).collect();
    for i in (1..minterms.len()).rev() {
        let j = (mix(seed, 100 + spec, i as u64) % (i as u64 + 1)) as usize;
        minterms.swap(i, j);
    }
    let mut text = format!(".i {INPUTS}\n.o {OUTPUTS}\n");
    for (r, &minterm) in minterms.iter().take(ROWS).enumerate() {
        let outputs = mix(seed ^ 0x5eed, 100 + spec, r as u64);
        for (bits, width) in [(minterm, INPUTS), (outputs, OUTPUTS)] {
            for bit in (0..width).rev() {
                text.push(if bits >> bit & 1 == 1 { '1' } else { '0' });
            }
            text.push(if width == INPUTS { ' ' } else { '\n' });
        }
    }
    text.push_str(".e\n");
    text
}

/// Generates `requests` requests.
pub fn generate(seed: u64, requests: usize) -> Plan {
    let mut specs = Vec::new();
    let mut order = Vec::with_capacity(requests);
    for i in 0..requests {
        let draw = mix(seed, 3, i as u64);
        let k = specs.len();
        let repeat = (draw % 10_000) as f64 / 10_000.0 < REPEAT_SHARE;
        if repeat && k > REPEAT_WINDOW.1 {
            let lo = k.saturating_sub(REPEAT_WINDOW.0);
            let hi = k - REPEAT_WINDOW.1;
            order.push(lo + ((draw >> 32) as usize) % (hi - lo));
        } else {
            specs.push(SynthSpec::new(Source::Pla(pla_text(seed, k as u64))));
            order.push(k);
        }
    }
    Plan { specs, order }
}

fn synth_frame(id: String, spec: &SynthSpec) -> Vec<u8> {
    let payload = Request {
        id,
        body: RequestBody::Synth {
            spec: spec.clone(),
            deadline_ms: None,
            checkpoint: false,
        },
    }
    .to_bytes();
    let mut frame = Vec::with_capacity(payload.len() + 4);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Sends a drain shutdown and waits for the daemon to exit.
fn stop(server: Server) -> Result<(), String> {
    let stream = TcpStream::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let request = Request {
        id: "shutdown".into(),
        body: RequestBody::Shutdown(ShutdownMode::Drain),
    };
    write_frame(&mut writer, &request.to_bytes()).map_err(|e| format!("send: {e}"))?;
    read_frame(&mut BufReader::new(stream), DEFAULT_MAX_FRAME)
        .map_err(|e| format!("read: {e}"))?
        .ok_or("daemon closed before acknowledging shutdown")?;
    server.wait();
    Ok(())
}

fn start() -> Result<Server, String> {
    Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("starting the daemon: {e}"))
}

/// One answered request.
struct Reply {
    /// Send to reply, wall.
    wall: Duration,
    /// Send to reply, the process's processor time.
    cpu: Sample,
    response: Response,
}

/// Sends one frame on a fresh connection and reads the reply.
fn exchange(addr: SocketAddr, frame: &[u8]) -> Result<Vec<u8>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.write_all(frame).map_err(|e| format!("send: {e}"))?;
    read_frame(&mut BufReader::new(stream), DEFAULT_MAX_FRAME)
        .map_err(|e| format!("read: {e}"))?
        .ok_or_else(|| "connection closed before the reply".to_string())
}

/// Drives the closed loop: request `i` is sent when request `i - 1` is
/// answered, until the window ends or the plan runs out. The reference
/// kernel runs every [`CALIBRATE_EVERY`] requests, between two of them.
fn closed_loop(
    addr: SocketAddr,
    plan: &Plan,
    window: Duration,
    meter: &mut Meter,
    tracer: &mut Tracer,
) -> Result<Vec<Reply>, String> {
    let start = Instant::now();
    let mut replies = Vec::new();
    for (i, &s) in plan.order.iter().enumerate() {
        if start.elapsed() >= window && !replies.is_empty() {
            break;
        }
        let frame = synth_frame(format!("r{i}"), &plan.specs[s]);
        tracer.set_group(i as u64);
        let t0 = Instant::now();
        let (payload, cpu) = meter.time(|| exchange(addr, &frame));
        let wall = t0.elapsed();
        let payload = payload.map_err(|e| format!("r{i}: {e}"))?;
        let response =
            Response::from_bytes(&payload).map_err(|e| format!("r{i}: bad reply: {e}"))?;
        if response.id != format!("r{i}") {
            return Err(format!("r{i} answered as {:?}", response.id));
        }
        replies.push(Reply {
            wall,
            cpu,
            response,
        });
        if replies.len() % CALIBRATE_EVERY == 0 {
            tracer.enter("bench.calibrate");
            // Let the daemon's threads finish the reply's aftermath first,
            // so the kernel has the processor's caches to itself.
            std::thread::sleep(SETTLE);
            meter.calibrate();
            tracer.exit();
        }
    }
    meter.calibrate();
    Ok(replies)
}

/// The ratio terms of one spec: (Alg. 3.1 nodes, served width), each
/// normalized to DC=0; the baselines are rebuilt locally from the spec as
/// the daemon builds it.
fn quality_of(spec: &SynthSpec, served_width: usize) -> Option<(f64, f64)> {
    let cf = build_cf(spec).ok()?;
    let dc0 = cf.completion_variant(false);
    let mut alg31 = cf.clone();
    alg31.reduce_alg31();
    Some((
        alg31.node_count() as f64 / dc0.node_count().max(1) as f64,
        served_width as f64 / dc0.max_width().max(1) as f64,
    ))
}

/// The traced run's direct phase: `execute`, `ResponseCache::lookup` and
/// `vfs::write_atomic` on the first specs, one span per call.
fn direct_phase(
    plan: &Plan,
    count: usize,
    spool: &Path,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut cache = ResponseCache::new(count.max(1));
    let (mut exec_ms, mut lookup_ms, mut write_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut engine = EngineFigures::default();
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    tracer.enter("run.direct");
    for (k, spec) in plan.specs.iter().take(count).enumerate() {
        tracer.set_group(k as u64);
        let t0 = Instant::now();
        tracer.enter("serve.execute");
        let outcome = execute(spec, None, None, false);
        tracer.exit();
        exec_ms.push(ms(t0));
        let outcome = outcome.map_err(|e| format!("execute: {e:?}"))?;
        engine.absorb(&figures(&outcome.engine));
        cache.insert(spec, &outcome.result, false);

        let t0 = Instant::now();
        tracer.enter("serve.cache_lookup");
        let hit = cache.lookup(spec);
        tracer.exit();
        lookup_ms.push(ms(t0));
        if hit.is_none() {
            return Err("a fresh cache entry did not validate".into());
        }

        let bytes = Response {
            id: format!("direct-{k}"),
            status: Status::Ok,
            spec_hash: Some(spec.hash_hex()),
            error: None,
            result: Some(outcome.result),
            cached: false,
            resumed: false,
            storage_degraded: false,
        }
        .to_bytes();
        let t0 = Instant::now();
        tracer.enter("bdd.vfs.write_atomic");
        let written = write_atomic(&StdVfs, spool, &format!("direct-{k}.json"), &bytes);
        tracer.exit();
        write_ms.push(ms(t0));
        written.map_err(|e| format!("write_atomic: {e}"))?;
    }
    tracer.exit();
    out.set("serve.execute_ms", stats::median(&exec_ms));
    out.set("serve.cache_lookup_ms", stats::median(&lookup_ms));
    out.set("bdd.vfs.write_atomic_ms", stats::median(&write_ms));
    push_metrics(&engine, 1, out);
    Ok(())
}

/// Runs the workload for the configured window.
pub fn run(cfg: &RunConfig, scale: &Scale) -> Outcome {
    let mut out = Outcome::default();
    let dir = cfg.work_dir.join(format!("serve-{}", std::process::id()));
    if let Err(e) = drive(cfg, scale, &dir, &mut out) {
        eprintln!("serve: {e}");
        out.failed = out.failed.max(1);
        out.attempted = out.attempted.max(1);
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[allow(clippy::too_many_lines)]
fn drive(cfg: &RunConfig, scale: &Scale, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let requests = ((PLAN_RATE * cfg.seconds).round() as usize).max(1);
    let window = Duration::from_secs_f64(cfg.seconds);

    // Set-up: inputs and a started daemon. Timed several
    // times before the loop and as many after it, so the median samples
    // both ends of the run; one daemon serves.
    let mut meter = Meter::new();
    let mut setups = Vec::new();
    let mut set_up = |meter: &mut Meter| {
        let ((plan, server), sample) = meter.time(|| (generate(cfg.seed, requests), start()));
        setups.push(sample);
        Ok::<_, String>((plan, server?))
    };
    for _ in 1..scale.setup_reps {
        stop(set_up(&mut meter)?.1)?;
    }
    let (plan, server) = set_up(&mut meter)?;
    meter.calibrate();

    let mut tracer = Tracer::new(cfg.trace);
    tracer.enter("serve.closed_loop");
    let looped = closed_loop(server.local_addr(), &plan, window, &mut meter, &mut tracer);
    tracer.exit();
    stop(server)?;
    let replies = looped?;
    for _ in 1..scale.setup_reps {
        stop(set_up(&mut meter)?.1)?;
    }
    meter.calibrate();
    let setup_s: Vec<f64> = setups.iter().map(|&s| meter.scaled(s)).collect();
    out.set("setup_s", stats::median(&setup_s));

    // Per-request processor time (scaled) and wall time, split by how the
    // reply was served.
    let (mut cpu_ms, mut hits, mut misses, mut wall_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut rejected = 0u64;
    let mut first_answer: HashMap<usize, Response> = HashMap::new();
    out.attempted = replies.len() as u64;
    for (i, reply) in replies.iter().enumerate() {
        let response = &reply.response;
        if let Some((code, message)) = &response.error {
            if matches!(code, ErrorCode::QueueFull | ErrorCode::Overloaded) {
                rejected += 1;
            }
            eprintln!("serve: r{i} refused: {}: {message}", code.as_str());
            out.failed += 1;
            continue;
        }
        let (Status::Ok, Some(result)) = (response.status, &response.result) else {
            eprintln!(
                "serve: r{i} answered {:?} without a clean result",
                response.status
            );
            out.failed += 1;
            continue;
        };
        let cost = meter.scaled(reply.cpu) * 1e3;
        cpu_ms.push(cost);
        wall_ms.push(reply.wall.as_secs_f64() * 1e3);
        if response.cached {
            hits.push(cost);
        } else {
            misses.push(cost);
        }
        // Every answer to one spec must carry the same artifacts.
        match first_answer.get(&plan.order[i]) {
            None => {
                let mut first = response.clone();
                first.id.clear();
                first_answer.insert(plan.order[i], first);
            }
            Some(first)
                if first.spec_hash != response.spec_hash
                    || first.result.as_ref() != Some(result) =>
            {
                eprintln!("serve: r{i} differs from the first answer to its spec");
                out.failed += 1;
            }
            Some(_) => {}
        }
    }

    // Oracle: recompute a sample of specs locally and byte-compare.
    for (s, spec) in plan.specs.iter().enumerate().take(scale.compare_specs) {
        let Some(got) = first_answer.get(&s) else {
            continue;
        };
        let local = execute(spec, None, None, false)
            .map_err(|e| format!("local execute of spec {s}: {e:?}"))?;
        let want = Response {
            id: String::new(),
            status: Status::Ok,
            spec_hash: Some(spec.hash_hex()),
            error: None,
            result: Some(local.result),
            cached: false,
            resumed: false,
            storage_degraded: false,
        };
        if want.artifact_bytes() != got.artifact_bytes() {
            eprintln!("serve: spec {s} differs from a local execute");
            let sent = &plan.order[..replies.len()];
            out.failed += sent.iter().filter(|&&o| o == s).count() as u64;
        }
    }

    // Quality over the first distinct specs, which every run answers.
    let (mut width_sum, mut cells, mut bits) = (0usize, 0usize, 0u64);
    let (mut node_ratios, mut width_ratios) = (Vec::new(), Vec::new());
    let mut digest = Vec::new();
    for s in 0..scale.quality_specs.min(plan.specs.len()) {
        let Some(result) = first_answer.get(&s).and_then(|r| r.result.as_ref()) else {
            return Err(format!(
                "spec {s} was not answered; the window must cover the first {} specs",
                scale.quality_specs
            ));
        };
        cells += result.stats.cells;
        bits += result.stats.memory_bits;
        width_sum += result.stats.width;
        let (nodes31, width33) = quality_of(&plan.specs[s], result.stats.width)
            .ok_or(format!("spec {s} does not build"))?;
        node_ratios.push(nodes31);
        width_ratios.push(width33);
        let texts = format!("{}\0{}", result.cascade, result.verilog);
        digest.push(format!(
            "spec {s}: {:?} {:016x}",
            result.stats,
            fnv1a64(texts.as_bytes())
        ));
    }

    let spread = |v: &[f64]| {
        let q = |p| stats::quantile(v, p);
        format!(
            "p10 {:.2} p50 {:.2} p90 {:.2} p99 {:.2} max {:.2} ms",
            q(0.1),
            q(0.5),
            q(0.9),
            q(0.99),
            q(1.0)
        )
    };
    eprintln!(
        "serve: {} answered, {} hits; processor time at the reference speed: {}; hits {}; misses {}; wall {}; kernel median {:.2} ms",
        cpu_ms.len(),
        hits.len(),
        spread(&cpu_ms),
        spread(&hits),
        spread(&misses),
        spread(&wall_ms),
        meter.kernel_median_s() * 1e3
    );
    // `cpu_s`: the median block of consecutive requests (one block when
    // the window holds fewer).
    let blocks: Vec<f64> = cpu_ms
        .chunks(BLOCK)
        .filter(|block| block.len() == BLOCK || cpu_ms.len() < BLOCK)
        .map(|block| block.iter().sum::<f64>() / 1e3)
        .collect();
    out.set("cpu_s", stats::median(&blocks));
    out.set("peak_rss_mib", crate::peak_rss_mib());
    out.set("op_p50_ms", stats::quantile(&cpu_ms, 0.5));
    out.set("op_p90_ms", stats::quantile(&cpu_ms, 0.9));
    out.set("op.p99_ms", stats::quantile(&cpu_ms, 0.99));
    out.set("op.samples", cpu_ms.len() as f64);
    out.set("alg33_width_sum", width_sum as f64);
    out.set("alg31_node_ratio", stats::mean(&node_ratios));
    out.set("alg33_width_ratio", stats::mean(&width_ratios));
    out.set("serve.hit_p50_ms", stats::median(&hits));
    out.set("serve.miss_p50_ms", stats::median(&misses));
    out.set("serve.wall_p50_ms", stats::median(&wall_ms));
    out.set(
        "serve.cache_hit_share",
        hits.len() as f64 / cpu_ms.len().max(1) as f64,
    );
    out.set("serve.rejected", rejected as f64);
    out.set("cascade.cells", cells as f64);
    out.set("cascade.memory_bits", bits as f64);
    out.set("bench.kernel_ms", meter.kernel_median_s() * 1e3);

    if cfg.trace {
        let spool = dir.join("direct");
        direct_phase(&plan, scale.direct_specs, &spool, &mut tracer, out)?;
        crate::trace::layer_metrics(&tracer, 1, out);
        crate::write_trace(cfg, "serve", &tracer);
    }
    out.fingerprint = digest;
    out.fingerprint.push(format!(
        "alg33_width_sum {width_sum} alg31_node_ratio {:?} alg33_width_ratio {:?} cells {cells} memory_bits {bits}",
        stats::mean(&node_ratios),
        stats::mean(&width_ratios)
    ));
    Ok(())
}
