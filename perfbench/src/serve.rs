//! The serve cycle: a seeded 6-regular 64-node graph is solved, opened as
//! a session, put through 32 seeded edge toggles and closed. The traced run
//! of each solve workload replays [`CYCLES`] such cycles twice: in-process
//! through `Session` (the `core.session_*` metrics) and through a
//! one-worker `deco-serve` daemon on TCP loopback with one client, timing
//! every request from request-out to terminal-response-in (the `serve.*`
//! metrics).

use crate::gate::Gate;
use crate::layers;
use crate::stats::{median, us, Rng};
use crate::{Metric, Outcome};
use deco::graph::{generators, EdgeUpdate, Graph};
use deco::serve::wire::{RequestFrame, ResponseFrame};
use deco::serve::{
    Client, GraphSource, Request, Response, ServeAddr, ServeConfig, Server, ServerHandle,
};
use deco::Runtime;
use std::io;
use std::time::{Duration, Instant};

const NODES: usize = 64;
const DEGREE: usize = 6;
const TOGGLES: usize = 32;
/// Cycles replayed per traced run.
const CYCLES: u64 = 24;
/// Request/response pairs kept for `serve.codec_us`.
const CODEC_SAMPLES: usize = 128;

/// A one-worker daemon on TCP loopback.
fn start(rt: Runtime) -> io::Result<ServerHandle> {
    Server::start(ServeConfig {
        addr: ServeAddr::Tcp("127.0.0.1:0".to_string()),
        workers: 1,
        runtime: rt,
        progress_interval: Duration::ZERO,
        ..ServeConfig::default()
    })
}

fn io_err(e: io::Error) -> String {
    format!("transport: {e}")
}

/// What the client saw.
#[derive(Default)]
struct Log {
    out: Outcome,
    /// Client latency minus the daemon-reported wall time.
    solve_overhead_us: Vec<f64>,
    update_overhead_us: Vec<f64>,
    frames: Vec<(Request, Response)>,
}

/// One request: latency, and the daemon's own wall time when it reports
/// one. Error frames and transport failures are errors.
fn call(client: &mut Client, req: Request, log: &mut Log) -> Result<(Response, Duration), String> {
    let kept = (log.frames.len() < CODEC_SAMPLES).then(|| req.clone());
    let t = Instant::now();
    let resp = client.request(req).map_err(io_err)?;
    let dt = t.elapsed();
    if let Some(req) = kept {
        log.frames.push((req, resp.clone()));
    }
    if let Response::Error { code, message, .. } = &resp {
        return Err(format!("{}: {message}", code.as_str()));
    }
    Ok((resp, dt))
}

/// The seeded graph of cycle `k`.
fn cycle_graph(seed: u64, k: u64) -> Graph {
    let mut rng = Rng::new(seed ^ k.wrapping_mul(0x9e37_79b9));
    generators::random_regular(NODES, DEGREE, rng.next_u64())
}

/// The cycle's toggles: a seeded pair, removed if present, inserted if
/// absent, tracked against the graph as the updates apply.
fn toggles(g: &Graph, seed: u64) -> Vec<EdgeUpdate> {
    let mut rng = Rng::new(seed);
    let mut adj = vec![false; NODES * NODES];
    for e in g.edges() {
        let [u, v] = g.endpoints(e);
        adj[u.index() * NODES + v.index()] = true;
        adj[v.index() * NODES + u.index()] = true;
    }
    (0..TOGGLES)
        .map(|_| {
            let u = rng.below(NODES);
            let v = (u + 1 + rng.below(NODES - 1)) % NODES;
            let present = adj[u * NODES + v];
            adj[u * NODES + v] = !present;
            adj[v * NODES + u] = !present;
            if present {
                EdgeUpdate::remove(u, v)
            } else {
                EdgeUpdate::insert(u, v)
            }
        })
        .collect()
}

/// `solve` of `src`: gates the report, logs the daemon overhead.
fn solve(
    client: &mut Client,
    src: &GraphSource,
    gate: &mut Gate,
    log: &mut Log,
) -> Result<(), String> {
    let req = Request::Solve {
        graph: src.clone(),
        engine: None,
        progress: false,
    };
    match call(client, req, log)? {
        (Response::Report { line, .. }, dt) => {
            gate.check_line(&line)?;
            log.solve_overhead_us
                .push(us(dt) - line.wall_ns as f64 / 1e3);
            Ok(())
        }
        (other, _) => Err(format!("expected a report, got {other:?}")),
    }
}

/// `open_session` on `src`: the base solve must repeat the gate's
/// fingerprint.
fn open(
    client: &mut Client,
    name: &str,
    src: &GraphSource,
    gate: &mut Gate,
    log: &mut Log,
) -> Result<(), String> {
    let req = Request::OpenSession {
        session: name.to_string(),
        graph: src.clone(),
        engine: None,
    };
    match call(client, req, log)? {
        (Response::SessionOpened { line, .. }, _) => gate.check_line(&line).map(|_| ()),
        (other, _) => Err(format!("expected session_opened, got {other:?}")),
    }
}

/// One `update`: the palette must stay within its `2Δ − 1` bound.
fn update(
    client: &mut Client,
    name: &str,
    update: EdgeUpdate,
    log: &mut Log,
) -> Result<(), String> {
    let req = Request::Update {
        session: name.to_string(),
        update,
    };
    match call(client, req, log)? {
        (Response::Updated { line, .. }, dt) if line.palette_max <= line.palette_bound => {
            log.update_overhead_us
                .push(us(dt) - line.wall_ns as f64 / 1e3);
            Ok(())
        }
        (other, _) => Err(format!(
            "expected updated within the palette bound, got {other:?}"
        )),
    }
}

/// `close_session`: the daemon must have applied `applied` updates.
fn close(client: &mut Client, name: &str, applied: u64, log: &mut Log) -> Result<(), String> {
    let req = Request::CloseSession {
        session: name.to_string(),
    };
    match call(client, req, log)? {
        (Response::SessionClosed { updates, .. }, _) if updates == applied => Ok(()),
        (other, _) => Err(format!(
            "expected session_closed after {applied} updates, got {other:?}"
        )),
    }
}

/// Counts one request's result; `Ok(false)` when it failed, `Err` when the
/// transport broke and the client must stop.
fn settle(log: &mut Log, r: Result<(), String>) -> io::Result<bool> {
    let broken = r.as_ref().is_err_and(|e| e.starts_with("transport:"));
    let ok = log.out.record(r).is_some();
    if broken {
        return Err(io::Error::other("transport failed"));
    }
    Ok(ok)
}

/// One solve / open / toggles / close cycle. A transport failure ends the
/// client (returned as `Err`); every other failure is counted in `log`.
fn cycle(
    client: &mut Client,
    name: &str,
    g: &Graph,
    trace: &[EdgeUpdate],
    log: &mut Log,
) -> io::Result<()> {
    let src = GraphSource::from_graph(g);
    let mut gate = Gate::new(g);
    let r = solve(client, &src, &mut gate, log);
    settle(log, r)?;
    let r = open(client, name, &src, &mut gate, log);
    if !settle(log, r)? {
        return Ok(());
    }
    let mut applied = 0;
    for &u in trace {
        let r = update(client, name, u, log);
        applied += u64::from(settle(log, r)?);
    }
    let r = close(client, name, applied, log);
    settle(log, r)?;
    Ok(())
}

/// Median time of one encode + parse round trip of `frames`' requests and
/// responses, µs.
fn codec_us(frames: &[(Request, Response)]) -> f64 {
    let mut per_pair: Vec<f64> = frames
        .iter()
        .enumerate()
        .map(|(i, (req, resp))| {
            let req = RequestFrame {
                id: format!("c{i}"),
                req: req.clone(),
            };
            let resp = ResponseFrame {
                id: format!("c{i}"),
                resp: resp.clone(),
            };
            let t = Instant::now();
            let ok = RequestFrame::parse(&req.encode()).is_ok_and(|r| r == req)
                && ResponseFrame::parse(&resp.encode()).is_ok();
            let dt = us(t.elapsed());
            if ok {
                dt
            } else {
                f64::NAN
            }
        })
        .collect();
    median(&mut per_pair)
}

/// `serve.*` metrics of a daemon run.
fn serve_metrics(handle: &ServerHandle, log: &mut Log) -> Vec<Metric> {
    let st = handle.status();
    vec![
        (
            "serve.update_overhead_us",
            median(&mut log.update_overhead_us),
            "us",
        ),
        (
            "serve.solve_overhead_us",
            median(&mut log.solve_overhead_us),
            "us",
        ),
        ("serve.codec_us", codec_us(&log.frames), "us"),
        (
            "serve.bytes_per_request",
            (st.bytes_in + st.bytes_out) as f64 / st.served.max(1) as f64,
            "B",
        ),
        ("serve.max_queue_depth", st.max_queue_depth as f64, "count"),
        ("serve.errors", st.errors as f64, "count"),
    ]
}

/// Replays [`CYCLES`] serve cycles of `seed`, in-process and through a
/// daemon; returns the session and serve metrics with the operations
/// counted.
pub fn cycles(seed: u64) -> Outcome {
    let rt = Runtime::serial();
    let ids: Vec<u64> = (1..=NODES as u64).collect();
    let mut out = Outcome::default();
    let mut open_ms = Vec::new();
    let mut replayed = layers::Replay::default();
    for k in 0..CYCLES {
        let g = cycle_graph(seed, k);
        let mut gate = Gate::new(&g);
        if let Some((mut session, dt)) = layers::open_session(&g, &ids, &rt, &mut gate, &mut out) {
            open_ms.push(dt);
            replayed.extend(layers::replay(
                &mut session,
                &g,
                &toggles(&g, seed ^ k),
                &mut out,
            ));
        }
    }

    let mut log = Log::default();
    let Some(handle) = log.out.record(start(rt).map_err(io_err)) else {
        out.absorb(&log.out);
        return out;
    };
    if let Some(mut client) = log.out.record(handle.connect().map_err(io_err)) {
        for k in 0..CYCLES {
            let g = cycle_graph(seed, k);
            let name = format!("cycle-{k}");
            if cycle(&mut client, &name, &g, &toggles(&g, seed ^ k), &mut log).is_err() {
                break;
            }
        }
    }
    let serve = serve_metrics(&handle, &mut log);
    handle.stop();
    out.absorb(&log.out);
    out.metrics = layers::session_metrics(&mut open_ms, &mut replayed);
    out.metrics.extend(serve);
    out
}
