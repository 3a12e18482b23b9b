//! The two OLTP workloads: `oltp_read` (Read-Mostly mix, working set
//! twice the translation cache, no persistence) and `oltp_durable`
//! (LinkBench mix, persistence on, periodic checkpoints, crash and
//! recovery at the end).
//!
//! Both drive the server as an open loop: one sender thread submits the
//! seeded op stream at a fixed offered rate through two sessions (one
//! per serving rank, `RoutePolicy::SessionAffine`), one collector
//! thread waits on the tickets. Latency runs from the moment an op was
//! due, so a sender stall counts against every op it delays.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gda::persist::{CheckpointReport, PersistOptions};
use gda::{GdaDb, GdaRank, MaintenanceReport};
use gdi::{AccessMode, AppVertexId, EdgeOrientation, GdiError, GdiResult, PTypeId, PropertyValue};
use graphgen::{load_into, sized_config, GraphSpec, LpgConfig, LpgMeta};
use rma::{BackendKind, CostModel, Fabric, RankReport};
use server::{
    GdiServer, Op, OpOutcome, OpReply, RecoverySummary, RoutePolicy, ServeSummary, ServerOptions,
    Session, Ticket,
};
use workloads::oltp::Mix;

use crate::gen::{generated_degrees, op_stream, op_vertices, remap_fresh, Planned, StreamSpec};
use crate::serving::{
    counter_metrics, fabric_counters, pin_to_cpu, repeat_setup, serve_ranks, served_ops,
    StopOnUnwind,
};
use crate::trace::{layer_times, take_spans, write_spans, Tracer};
use crate::util::{cpu_time_us, mean, median, out_dir, percentile, ratio, secs, Metrics};
use crate::{Args, Outcome, RANKS};

/// Shape of one OLTP workload.
#[derive(Clone, Copy)]
pub struct OltpShape {
    pub name: &'static str,
    pub scale: u32,
    pub mix: Mix,
    /// Offered rate, ops per second.
    pub rate: f64,
    /// Ops sent before the measured window (caches fill, lazy set-up).
    pub warmup_s: f64,
    /// Persistence on (redo log, checkpoints, crash and recovery).
    pub durable: bool,
    /// The sender runs `GdiServer::checkpoint` in the middle of every
    /// measured sub-window: each sub-window holds one checkpoint stall at
    /// the same place, and the delta-chain length is the same in every
    /// run of a given length.
    pub checkpoints: bool,
    /// The sender runs `GdiServer::maintenance` every this many ops.
    pub maintenance_every: usize,
    /// Translation-cache entries per rank.
    pub cache_capacity: usize,
    /// Ops per direct-replay pass of the traced run.
    pub replay_ops: usize,
}

/// Read-Mostly point traffic on a scale-15 graph: 16 384 vertices per
/// rank against the default 8 192-entry translation cache.
pub const OLTP_READ: OltpShape = OltpShape {
    name: "oltp_read",
    scale: 15,
    mix: Mix::READ_MOSTLY,
    rate: 20_000.0,
    warmup_s: 1.0,
    durable: false,
    checkpoints: false,
    maintenance_every: 0,
    cache_capacity: 8192,
    replay_ops: 20_000,
};

/// LinkBench traffic on a scale-12 graph that fits the cache, with the
/// redo log on and one checkpoint per measured sub-window.
pub const OLTP_DURABLE: OltpShape = OltpShape {
    name: "oltp_durable",
    scale: 12,
    mix: Mix::LINKBENCH,
    rate: 5_000.0,
    warmup_s: 1.0,
    durable: true,
    checkpoints: true,
    // off: maintenance under this traffic trips an engine defect (see
    // README.md, "Known defects"); `--maintenance-every N` turns it on
    maintenance_every: 0,
    cache_capacity: 8192,
    replay_ops: 10_000,
};

/// Sessions the open loop spreads ops over (one per serving rank).
const SESSIONS: usize = 2;
/// Retry budget for an op the engine aborted (no effects; safe to
/// resubmit).
const MAX_RETRIES: usize = 16;
/// A delete removes an insert made at least this many ops earlier.
const DELETE_LAG: usize = 512;
/// The measured window is cut into this many sub-windows; latency and
/// CPU figures are the median over them, so a burst of host noise in
/// a few sub-windows does not move the result.
const WINDOWS: usize = 9;
/// Fresh-id offset between direct-replay passes.
const REPLAY_ID_STRIDE: u64 = 1 << 32;
/// Base vertices sampled by the edge-count check on top of every
/// vertex an acknowledged edge insert touched.
const EDGE_CHECK_SAMPLE: usize = 256;

fn server_options() -> ServerOptions {
    ServerOptions {
        route: RoutePolicy::SessionAffine,
        ..ServerOptions::default()
    }
}

/// A loaded database ready to serve.
struct Loaded {
    db: Arc<GdaDb>,
    fabric: Fabric,
    meta: LpgMeta,
    load_s: f64,
}

/// Generate and bulk-load the graph; with persistence (`dir`), also take
/// the initial full checkpoint.
fn setup(shape: &OltpShape, spec: &GraphSpec, dir: Option<&Path>) -> Loaded {
    let mut cfg = sized_config(spec, RANKS);
    cfg.translation_cache_capacity = shape.cache_capacity;
    if shape.durable {
        // room for the stream's inserts and the version archives of a
        // write-heavy run on top of the sized pool
        cfg.blocks_per_rank *= 2;
        cfg.dht_heap_per_rank *= 2;
    }
    let (db, fabric) = GdaDb::with_fabric_on(
        shape.name,
        cfg,
        RANKS,
        CostModel::default(),
        BackendKind::Sim,
    );
    if let Some(d) = dir {
        db.enable_persistence(PersistOptions::new(d).backend(BackendKind::Sim))
            .expect("fresh persistence directory");
    }
    let out = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let t = Instant::now();
        let (meta, _) = load_into(&eng, spec);
        let load_s = secs(t);
        if dir.is_some() {
            eng.checkpoint().expect("initial checkpoint");
        }
        (meta, load_s)
    });
    let (meta, load_s) = out.into_iter().next().expect("rank 0");
    Loaded {
        db,
        fabric,
        meta,
        load_s,
    }
}

/// One submitted op on its way to the collector.
struct Inflight {
    i: usize,
    due: Instant,
    submitted: Instant,
    ticket: Option<Ticket>,
}

/// What the collector saw for one op.
#[derive(Clone, Copy, Default)]
struct Rec {
    /// Committed (possibly after retries).
    ok: bool,
    /// Due → final ack, µs.
    lat_us: f64,
    /// Submit → ack of the first attempt, µs.
    svc_us: f64,
}

/// A committed property update, for the post-recovery check.
struct UpdateRec {
    key: (u64, PTypeId),
    value: u64,
    submitted: Instant,
    acked: Instant,
}

#[derive(Default)]
struct Collected {
    recs: Vec<Rec>,
    aborted_first: u64,
    retried: u64,
    failed: u64,
    updates: Vec<UpdateRec>,
    created: HashSet<u64>,
    deleted: HashSet<u64>,
    edges_added: HashMap<u64, u32>,
    /// Vertices a commit-uncertain op touched (left unchecked).
    tainted: HashSet<u64>,
    /// Failed ops (first few).
    failures: Vec<String>,
    /// Replies that contradict the generated graph.
    mismatches: Vec<String>,
    cpu_end_us: f64,
}

/// What the sender measured.
#[derive(Default)]
struct Sent {
    late_us: Vec<f64>,
    submit_us: Vec<f64>,
    /// Process CPU time at the start of each measured sub-window.
    cpu_marks: Vec<f64>,
    checkpoints: Vec<(f64, CheckpointReport)>,
    maintenance: Vec<(f64, MaintenanceReport)>,
    errors: Vec<String>,
}

/// The open loop's inputs, shared by the sender and the collector.
struct Plan<'a> {
    shape: &'a OltpShape,
    stream: &'a [Planned],
    base_deg: &'a [u32],
    warmup_ops: usize,
    window_ops: usize,
    /// Per op: acknowledged as committed / finally failed.
    acked: Vec<AtomicBool>,
    failed: Vec<AtomicBool>,
}

/// Lower the calling thread's timer slack so paced sleeps end on time.
fn tight_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
    // changes the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        std::thread::sleep(due - now);
    }
}

fn send(
    plan: &Plan,
    server: &GdiServer,
    sessions: &[Session],
    out: mpsc::Sender<Inflight>,
) -> Sent {
    tight_timer_slack();
    pin_to_cpu(0);
    let shape = plan.shape;
    let mut sent = Sent {
        late_us: Vec::with_capacity(plan.stream.len()),
        submit_us: Vec::with_capacity(plan.stream.len()),
        ..Sent::default()
    };
    let gap = Duration::from_secs_f64(1.0 / shape.rate);
    let t0 = Instant::now() + Duration::from_millis(2);
    for (i, p) in plan.stream.iter().enumerate() {
        let due = t0 + gap * i as u32;
        // position inside the measured sub-window (none during warm-up)
        let in_window = i.checked_sub(plan.warmup_ops).map(|k| k % plan.window_ops);
        if in_window == Some(0) {
            sent.cpu_marks.push(cpu_time_us());
        }
        if shape.checkpoints && in_window == Some(plan.window_ops / 2) {
            let t = Instant::now();
            match server.checkpoint() {
                Ok(r) => sent.checkpoints.push((secs(t), r)),
                Err(e) => sent.errors.push(format!("checkpoint at op {i}: {e}")),
            }
        }
        if shape.maintenance_every > 0 && i > 0 && i.is_multiple_of(shape.maintenance_every) {
            let t = Instant::now();
            match server.maintenance() {
                Ok(r) => sent.maintenance.push((secs(t), r)),
                Err(e) => sent.errors.push(format!("maintenance at op {i}: {e}")),
            }
        }
        wait_until(due);
        if let Some(dep) = p.after {
            // the delete's insert must be acknowledged first (it always
            // is by now at the configured lag, barring a long stall)
            while !plan.acked[dep].load(Ordering::Acquire)
                && !plan.failed[dep].load(Ordering::Acquire)
            {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        sent.late_us.push(due.elapsed().as_secs_f64() * 1e6);
        let s = Instant::now();
        let ticket = sessions[p.session].submit(p.op.clone()).ok();
        sent.submit_us.push(secs(s) * 1e6);
        let inflight = Inflight {
            i,
            due,
            submitted: s,
            ticket,
        };
        if out.send(inflight).is_err() {
            break;
        }
    }
    sent
}

fn collect(plan: &Plan, retry_sessions: &[Session], rx: mpsc::Receiver<Inflight>) -> Collected {
    let mut c = Collected {
        recs: vec![Rec::default(); plan.stream.len()],
        ..Collected::default()
    };
    let us_since =
        |t: Instant, from: Instant| t.saturating_duration_since(from).as_secs_f64() * 1e6;
    for inf in rx {
        let p = &plan.stream[inf.i];
        let mut outcome = inf.ticket.map(|t| t.wait());
        let first_ack = Instant::now();
        if matches!(outcome, Some(OpOutcome::Aborted(_))) {
            c.aborted_first += 1;
        }
        for _ in 0..MAX_RETRIES {
            if !matches!(
                outcome,
                None | Some(OpOutcome::Aborted(_) | OpOutcome::DeadlineExceeded)
            ) {
                break;
            }
            c.retried += 1;
            outcome = retry_sessions[p.session].execute(p.op.clone()).ok();
        }
        let ack = Instant::now();
        c.recs[inf.i] = Rec {
            ok: matches!(outcome, Some(OpOutcome::Committed(_))),
            lat_us: us_since(ack, inf.due),
            svc_us: us_since(first_ack, inf.submitted),
        };
        let Some(OpOutcome::Committed(reply)) = &outcome else {
            if matches!(outcome, Some(OpOutcome::Indeterminate(_))) {
                // commit-uncertain: leave every touched vertex unchecked
                c.tainted.extend(op_vertices(&p.op).into_iter().flatten());
            }
            c.failed += 1;
            plan.failed[inf.i].store(true, Ordering::Release);
            if c.failures.len() < 16 {
                c.failures
                    .push(format!("op {} {:?}: {:?}", inf.i, p.op, outcome));
            }
            continue;
        };
        match (&p.op, reply) {
            // edges are only ever added, so a count never drops below
            // the generated degree
            (Op::CountEdges { v }, OpReply::Count(n))
                if *n < plan.base_deg[v.0 as usize] as usize =>
            {
                c.mismatches.push(format!(
                    "CountEdges({}) = {n}, below the generated degree {}",
                    v.0, plan.base_deg[v.0 as usize]
                ));
            }
            (Op::AddVertex { v, .. }, _) => {
                c.created.insert(v.0);
            }
            (Op::DeleteVertex { v }, _) => {
                c.deleted.insert(v.0);
            }
            (
                Op::UpdateVertexProp {
                    v,
                    ptype,
                    value: PropertyValue::U64(x),
                },
                _,
            ) => c.updates.push(UpdateRec {
                key: (v.0, *ptype),
                value: *x,
                submitted: inf.submitted,
                acked: ack,
            }),
            (Op::AddEdge { from, to, .. }, _) => {
                *c.edges_added.entry(from.0).or_default() += 1;
                *c.edges_added.entry(to.0).or_default() += 1;
            }
            _ => {}
        }
        plan.acked[inf.i].store(true, Ordering::Release);
    }
    c.cpu_end_us = cpu_time_us();
    c
}

/// What a check expects an op to return.
enum Want {
    Reply(OpReply),
    NotFound,
    /// One property value, any of these.
    OneOf(Vec<u64>),
}

/// One read-back check.
struct Check {
    op: Op,
    want: Want,
    what: String,
}

/// Submit `checks` pipelined (chunks spread over the sessions); returns
/// how many ran and pushes a message per failed one.
fn run_checks(sessions: &[Session], checks: &[Check], mismatches: &mut Vec<String>) -> u64 {
    for chunk in checks.chunks(256) {
        let tickets: Vec<_> = chunk
            .iter()
            .enumerate()
            .map(|(k, c)| sessions[k % sessions.len()].submit(c.op.clone()))
            .collect();
        for (c, t) in chunk.iter().zip(tickets) {
            let got = t.map(|t| t.wait());
            let good = match (&got, &c.want) {
                (Ok(OpOutcome::Committed(r)), Want::Reply(w)) => r == w,
                (Ok(OpOutcome::Committed(OpReply::Props(vals))), Want::OneOf(ok)) => {
                    matches!(vals.as_slice(), [PropertyValue::U64(x)] if ok.contains(x))
                }
                (Ok(OpOutcome::Aborted(GdiError::NotFound(_))), Want::NotFound) => true,
                _ => false,
            };
            if !good {
                mismatches.push(format!("{}: got {got:?}", c.what));
            }
        }
    }
    checks.len() as u64
}

/// Edge-count checks: every vertex an acknowledged edge insert touched,
/// plus a seeded sample, counts its generated degree plus those inserts.
fn edge_count_checks(base_deg: &[u32], c: &Collected, seed: u64) -> Vec<Check> {
    let n = base_deg.len() as u64;
    let mut vs: Vec<u64> = c.edges_added.keys().copied().collect();
    let mut x = seed | 1;
    for _ in 0..EDGE_CHECK_SAMPLE {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        vs.push((x >> 17) % n);
    }
    vs.sort_unstable();
    vs.dedup();
    vs.into_iter()
        .filter(|v| !c.tainted.contains(v))
        .map(|v| {
            let want = base_deg[v as usize] + c.edges_added.get(&v).copied().unwrap_or(0);
            Check {
                op: Op::CountEdges { v: AppVertexId(v) },
                want: Want::Reply(OpReply::Count(want as usize)),
                what: format!("edge count of vertex {v} (want {want})"),
            }
        })
        .collect()
}

/// Post-recovery checks: each updated property holds the value of an
/// update that no acknowledged update submitted after its ack
/// superseded; acknowledged inserts are present, acknowledged deletes
/// absent.
fn durable_checks(c: &Collected, meta: &LpgMeta) -> Vec<Check> {
    let mut by_key: HashMap<(u64, PTypeId), Vec<&UpdateRec>> = HashMap::new();
    for u in c.updates.iter().filter(|u| !c.tainted.contains(&u.key.0)) {
        by_key.entry(u.key).or_default().push(u);
    }
    let mut checks: Vec<Check> = by_key
        .iter()
        .map(|(&(v, ptype), ups)| Check {
            op: Op::GetVertexProps {
                v: AppVertexId(v),
                ptype: Some(ptype),
            },
            want: Want::OneOf(
                ups.iter()
                    .filter(|u| !ups.iter().any(|w| w.submitted > u.acked))
                    .map(|u| u.value)
                    .collect(),
            ),
            what: format!("property {ptype:?} of vertex {v}"),
        })
        .collect();
    for &v in c.created.iter().filter(|v| !c.tainted.contains(v)) {
        checks.push(if c.deleted.contains(&v) {
            Check {
                op: Op::GetVertexProps {
                    v: AppVertexId(v),
                    ptype: None,
                },
                want: Want::NotFound,
                what: format!("acknowledged delete of vertex {v}"),
            }
        } else {
            Check {
                op: Op::GetVertexProps {
                    v: AppVertexId(v),
                    ptype: Some(meta.ptype(0)),
                },
                want: Want::Reply(OpReply::Props(vec![PropertyValue::U64(v)])),
                what: format!("acknowledged insert of vertex {v}"),
            }
        });
    }
    checks
}

/// One direct-replay pass.
#[derive(Default)]
struct ReplayPass {
    /// Slowest rank's replay wall time.
    wall_s: f64,
    /// Wall time per read op, µs.
    read_us: Vec<f64>,
    /// Ticket latency minus rank 0's in-job time.
    rendezvous_ms: f64,
}

/// Run one op directly against the engine, with spans around each call.
fn replay_op(eng: &GdaRank, op: &Op, t: Tracer, i: u64) -> GdiResult<()> {
    let ctx = Some(eng.ctx());
    let read = op.is_read();
    let tx = if read {
        t.span("gda.tx.pin", i, ctx, || eng.begin(AccessMode::ReadOnly))
    } else {
        t.span("gda.tx.begin", i, ctx, || eng.begin(AccessMode::ReadWrite))
    };
    let translate =
        |v: AppVertexId| t.span("gda.dht.translate", i, ctx, || tx.translate_vertex_id(v));
    let apply = || -> GdiResult<()> {
        match op {
            Op::GetVertexProps { v, ptype } => {
                let id = translate(*v)?;
                t.span("gda.tx.read", i, ctx, || match ptype {
                    Some(p) => tx.properties(id, *p).map(drop),
                    None => tx.labels(id).map(drop),
                })
            }
            Op::CountEdges { v } => {
                let id = translate(*v)?;
                t.span("gda.tx.read", i, ctx, || {
                    tx.edge_count(id, EdgeOrientation::Any).map(drop)
                })
            }
            Op::GetEdges { v } => {
                let id = translate(*v)?;
                t.span("gda.tx.read", i, ctx, || {
                    tx.edges(id, EdgeOrientation::Any).map(drop)
                })
            }
            Op::AddVertex { v, label, prop } => t.span("gda.tx.write", i, ctx, || {
                let id = tx.create_vertex(*v)?;
                if let Some(l) = label {
                    tx.add_label(id, *l)?;
                }
                if let Some((p, val)) = prop {
                    tx.add_property(id, *p, val)?;
                }
                Ok(())
            }),
            Op::DeleteVertex { v } => {
                let id = translate(*v)?;
                t.span("gda.tx.write", i, ctx, || tx.delete_vertex(id))
            }
            Op::UpdateVertexProp { v, ptype, value } => {
                let id = translate(*v)?;
                t.span("gda.tx.write", i, ctx, || {
                    tx.update_property(id, *ptype, value)
                })
            }
            Op::AddEdge { from, to, label } => {
                let a = translate(*from)?;
                let b = t.span("gda.dht.translate", i, ctx, || {
                    tx.translate_vertex_id_fresh(*to)
                })?;
                t.span("gda.tx.write", i, ctx, || {
                    tx.add_edge(a, b, *label, true).map(drop)
                })
            }
        }
    };
    match apply() {
        Ok(()) if read => t.span("gda.tx.read_commit", i, ctx, || tx.commit()),
        Ok(()) => t.span("gda.tx.commit", i, ctx, || tx.commit()),
        Err(e) => {
            tx.abort();
            Err(e)
        }
    }
}

/// Replay `ops` through `GdaRank` inside one collective job: every rank
/// runs the ops of its session, in stream order.
fn replay_pass(server: &GdiServer, ops: Vec<(u64, Op, usize)>, tracer: Tracer) -> ReplayPass {
    let sink: Arc<Mutex<Vec<(usize, ReplayPass)>>> = Arc::default();
    let out = sink.clone();
    let t = Instant::now();
    server
        .submit_olap(move |eng| {
            let ctx = eng.ctx();
            let (rank, nranks) = (ctx.rank(), ctx.nranks());
            tracer.span("rma.barrier", 0, Some(ctx), || ctx.barrier());
            let t0 = Instant::now();
            let mut r = ReplayPass::default();
            for (i, op, _) in ops.iter().filter(|(_, _, s)| s % nranks == rank) {
                let a = Instant::now();
                // an engine abort (write conflict between the ranks) is
                // part of the replayed work, not a benchmark failure
                let _ = tracer.span("replay.op", *i, Some(ctx), || {
                    replay_op(eng, op, tracer, *i)
                });
                if op.is_read() {
                    r.read_us.push(secs(a) * 1e6);
                }
            }
            r.wall_s = secs(t0);
            tracer.flush();
            out.lock()
                .expect("job output poisoned by a panicking rank")
                .push((rank, r));
            1.0
        })
        .expect("server accepts jobs")
        .wait();
    let ticket_ms = secs(t) * 1e3;
    let ranks = std::mem::take(
        &mut *sink
            .lock()
            .expect("job output poisoned by a panicking rank"),
    );
    let rank0_ms = ranks
        .iter()
        .find(|(r, _)| *r == 0)
        .map_or(0.0, |(_, r)| r.wall_s * 1e3);
    ReplayPass {
        wall_s: ranks.iter().map(|(_, r)| r.wall_s).fold(0.0, f64::max),
        read_us: ranks.into_iter().flat_map(|(_, r)| r.read_us).collect(),
        rendezvous_ms: ticket_ms - rank0_ms,
    }
}

/// The traced direct-replay phase: an untraced pass, a traced pass and
/// another untraced pass over the head of the op stream (fresh ids
/// shifted per pass). Sets the span-derived per-layer metrics and
/// returns the untraced passes' read-op times.
fn replay_phase(
    server: &GdiServer,
    shape: &OltpShape,
    stream: &[Planned],
    base: u64,
    m: &mut Metrics,
) -> Vec<f64> {
    let n = shape.replay_ops.min(stream.len());
    let pass_ops = |pass: u64| -> Vec<(u64, Op, usize)> {
        stream[..n]
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let op = remap_fresh(&p.op, base, REPLAY_ID_STRIDE * (pass + 1));
                (i as u64, op, p.session)
            })
            .collect()
    };
    let _ = take_spans();
    let a = replay_pass(server, pass_ops(0), Tracer { on: false });
    let b = replay_pass(server, pass_ops(1), Tracer { on: true });
    let c = replay_pass(server, pass_ops(2), Tracer { on: false });
    let spans = take_spans();
    let lt = layer_times(&spans);
    for span in [
        "gda.dht.translate",
        "gda.tx.pin",
        "gda.tx.read",
        "gda.tx.commit",
        "rma.barrier",
    ] {
        let t = lt.get(span).cloned().unwrap_or_default();
        m.set(format!("{span}_us"), t.self_wall_us_per_call());
        m.set(format!("{span}_sim_us"), t.self_sim_us_per_call());
    }
    let untraced = (a.wall_s + c.wall_s) / 2.0;
    m.set("trace.overhead_frac", ratio(b.wall_s - untraced, untraced));
    m.set(
        "server.rendezvous_ms",
        median(&[a.rendezvous_ms, c.rendezvous_ms]),
    );
    let path = out_dir().join(format!("trace-{}.jsonl", shape.name));
    if let Err(e) = write_spans(&path, &spans) {
        eprintln!("[{}] could not write {}: {e}", shape.name, path.display());
    }
    a.read_us.into_iter().chain(c.read_us).collect()
}

/// What serving the open loop produced.
struct Served {
    sent: Sent,
    col: Collected,
    summaries: Vec<ServeSummary>,
    /// Fabric counters and served ops at the end of the open loop.
    counters: RankReport,
    ops: u64,
    checks: u64,
    /// Direct-replay read times (traced run of `oltp_read`).
    replay_read_us: Vec<f64>,
}

/// What the crash-and-recover phase produced.
#[derive(Default)]
struct Recovered {
    /// `GdiServer::recover` to the first acknowledged op.
    recovery_s: f64,
    summary: RecoverySummary,
    checks: u64,
    replay_read_us: Vec<f64>,
}

/// Serve the open loop on the loaded database; afterwards, check edge
/// counts (`oltp_read`) and run the traced replay (`oltp_read`, traced).
fn serve_open_loop(
    plan: &Plan,
    db: &Arc<GdaDb>,
    fabric: &Fabric,
    args: &Args,
    m: &mut Metrics,
    mismatches: &mut Vec<String>,
) -> Served {
    let server = GdiServer::new(db.clone(), server_options());
    let sessions: Vec<Session> = (0..SESSIONS).map(|_| server.session()).collect();
    let retry_sessions: Vec<Session> = (0..SESSIONS).map(|_| server.session()).collect();
    let base = plan.base_deg.len() as u64;
    std::thread::scope(|s| {
        let srv = &server;
        let ranks = s.spawn(move || serve_ranks(fabric, srv));
        let _stop = StopOnUnwind(srv);
        let (tx, rx) = mpsc::channel();
        // the generator threads share the ranks' cores: the sender with
        // rank 0, the collector with rank 1
        let collector = s.spawn(move || {
            pin_to_cpu(1);
            collect(plan, &retry_sessions, rx)
        });
        let sent = s.spawn(|| send(plan, srv, &sessions, tx));
        let sent = sent.join().expect("sender panicked");
        let col = collector.join().expect("collector panicked");
        let counters = fabric_counters(srv);
        let ops = served_ops(srv);
        let mut checks = 0;
        let mut replay_read_us = Vec::new();
        if !plan.shape.durable {
            let list = edge_count_checks(plan.base_deg, &col, args.seed);
            checks = run_checks(&sessions, &list, mismatches);
            if args.trace {
                replay_read_us = replay_phase(srv, plan.shape, plan.stream, base, m);
            }
        }
        srv.shutdown();
        Served {
            sent,
            col,
            summaries: ranks.join().expect("serve thread"),
            counters,
            ops,
            checks,
            replay_read_us,
        }
    })
}

/// Boot a server from the persistence directory, time it to the first
/// acknowledged op, check the acknowledged writes, and (traced) run the
/// replay on it.
#[allow(clippy::too_many_arguments)]
fn recover_and_check(
    dir: &Path,
    plan: &Plan,
    col: &Collected,
    meta: &LpgMeta,
    args: &Args,
    m: &mut Metrics,
    mismatches: &mut Vec<String>,
) -> Recovered {
    let t = Instant::now();
    let (server, fabric) = match GdiServer::recover(
        PersistOptions::new(dir).backend(BackendKind::Sim),
        CostModel::default(),
        server_options(),
    ) {
        Ok(booted) => booted,
        Err(e) => {
            mismatches.push(format!("recovery failed: {e}"));
            return Recovered::default();
        }
    };
    let mut out = Recovered::default();
    std::thread::scope(|s| {
        let srv = &server;
        let fab = &fabric;
        let ranks = s.spawn(move || serve_ranks(fab, srv));
        let _stop = StopOnUnwind(srv);
        let sessions: Vec<Session> = (0..SESSIONS).map(|_| srv.session()).collect();
        match sessions[0].execute(Op::CountEdges { v: AppVertexId(0) }) {
            Ok(OpOutcome::Committed(_)) => out.recovery_s = secs(t),
            other => mismatches.push(format!("first op after recovery: {other:?}")),
        }
        let mut list = durable_checks(col, meta);
        list.extend(edge_count_checks(plan.base_deg, col, args.seed));
        out.checks = run_checks(&sessions, &list, mismatches);
        out.summary = srv.metrics().recovery.unwrap_or_default();
        if args.trace {
            let base = plan.base_deg.len() as u64;
            out.replay_read_us = replay_phase(srv, plan.shape, plan.stream, base, m);
        }
        srv.shutdown();
        ranks.join().expect("serve thread");
    });
    out
}

/// Run one OLTP workload.
pub fn run(shape: &OltpShape, args: &Args) -> Outcome {
    let shape = &OltpShape {
        rate: args.rate.unwrap_or(shape.rate),
        maintenance_every: args.maintenance_every.unwrap_or(shape.maintenance_every),
        mix: args.mix.unwrap_or(shape.mix),
        ..*shape
    };
    let spec = GraphSpec {
        scale: shape.scale,
        edge_factor: 16,
        seed: args.seed,
        lpg: LpgConfig::default(),
    };
    let store = |k: usize| -> PathBuf {
        out_dir().join(format!("store-{}-{}-{k}", shape.name, std::process::id()))
    };
    let (setups, loaded) = repeat_setup(|k| {
        if !shape.durable {
            return setup(shape, &spec, None);
        }
        if k > 0 {
            let _ = std::fs::remove_dir_all(store(k - 1));
        }
        setup(shape, &spec, Some(&store(k)))
    });
    let dir = store(setups.len() - 1);

    let base_deg = generated_degrees(&spec);
    let warmup_ops = (shape.rate * shape.warmup_s) as usize;
    let window_ops = ((shape.rate * args.seconds as f64) as usize / WINDOWS).max(1);
    let len = warmup_ops + window_ops * WINDOWS;
    let stream = op_stream(
        &StreamSpec {
            mix: shape.mix,
            base: spec.n_vertices(),
            len,
            seed: args.seed,
            delete_lag: DELETE_LAG,
            sessions: SESSIONS,
        },
        &loaded.meta,
    );
    let plan = Plan {
        shape,
        stream: &stream,
        base_deg: &base_deg,
        warmup_ops,
        window_ops,
        acked: (0..len).map(|_| AtomicBool::new(false)).collect(),
        failed: (0..len).map(|_| AtomicBool::new(false)).collect(),
    };

    let Loaded {
        db,
        fabric,
        meta,
        load_s,
    } = loaded;
    let mut m = Metrics::default();
    let mut mismatches: Vec<String> = Vec::new();
    let served = serve_open_loop(&plan, &db, &fabric, args, &mut m, &mut mismatches);
    // the crash: the database and its fabric go away without a final
    // checkpoint; the redo tail since the last one is all that is left
    drop(fabric);
    drop(db);
    let recovered = if shape.durable {
        let r = recover_and_check(
            &dir,
            &plan,
            &served.col,
            &meta,
            args,
            &mut m,
            &mut mismatches,
        );
        let _ = std::fs::remove_dir_all(&dir);
        r
    } else {
        Recovered::default()
    };
    mismatches.extend(served.sent.errors.iter().cloned());
    mismatches.extend(served.col.mismatches.iter().cloned());

    m.set("setup_s", median(&setups));
    m.set("graphgen.load_s", load_s);
    m.set("peak_rss_mb", crate::util::peak_rss_mb());
    window_metrics(&plan, &served, &mut m);
    layer_metrics(&plan, &served, &recovered, &mut m);

    let col = &served.col;
    eprintln!("[{}] set-up runs (s): {setups:.3?}", shape.name);
    for e in col.failures.iter().chain(&mismatches) {
        eprintln!("[{}] CHECK FAILED: {e}", shape.name);
    }
    let checks = served.checks + recovered.checks;
    eprintln!(
        "[{}] {len} ops ({warmup_ops} warm-up), {checks} checks, {} retried, {} checkpoints, \
         {} maintenance passes, recovery {:.3} s",
        shape.name,
        col.retried,
        served.sent.checkpoints.len(),
        served.sent.maintenance.len(),
        recovered.recovery_s
    );
    Outcome {
        correct: mismatches.is_empty() && col.failed == 0,
        attempted: len as u64 + checks,
        failed: col.failed + mismatches.len() as u64,
        metrics: m,
    }
}

/// The end-to-end latency and CPU figures: per sub-window of the
/// measured ops, then the median over the sub-windows.
fn window_metrics(plan: &Plan, served: &Served, m: &mut Metrics) {
    let measured = &served.col.recs[plan.warmup_ops..];
    let is_read = |i: usize| plan.stream[plan.warmup_ops + i].op.is_read();
    let mut cpu_marks = served.sent.cpu_marks.clone();
    cpu_marks.push(served.col.cpu_end_us);
    let names = [
        "read_p50_us",
        "e2e.read_p90_us",
        "write_p50_us",
        "e2e.write_p90_us",
        "cpu_us_per_op",
    ];
    let mut per_window: [Vec<f64>; 5] = Default::default();
    for (k, recs) in measured.chunks(plan.window_ops).enumerate() {
        let lat = |read: bool| -> Vec<f64> {
            recs.iter()
                .enumerate()
                .filter(|(i, r)| r.ok && is_read(k * plan.window_ops + i) == read)
                .map(|(_, r)| r.lat_us)
                .collect()
        };
        let (reads, writes) = (lat(true), lat(false));
        per_window[0].push(percentile(&reads, 50.0));
        per_window[1].push(percentile(&reads, 90.0));
        per_window[2].push(percentile(&writes, 50.0));
        per_window[3].push(percentile(&writes, 90.0));
        let done = recs.iter().filter(|r| r.ok).count() as f64;
        per_window[4].push(ratio(cpu_marks[k + 1] - cpu_marks[k], done));
    }
    eprintln!(
        "[{}] per sub-window {names:?}: {per_window:.1?}",
        plan.shape.name
    );
    for (name, values) in names.iter().zip(&per_window) {
        m.set(*name, median(values));
    }
    let executed: u64 = served.summaries.iter().map(|s| s.executed).sum();
    let jobs = served.summaries.first().map_or(0, |s| s.olap_jobs);
    let sim_ns: f64 = served.summaries.iter().map(|s| s.sim_serve_ns).sum();
    m.set(
        "sim_us_per_op",
        ratio(sim_ns, (executed + jobs) as f64) / 1e3,
    );
}

/// Per-layer counters and times of the serving, storage and durability
/// layers, plus this workload's figures from the end-to-end list of the
/// design (checkpoint stall, recovery time, bytes per write).
fn layer_metrics(plan: &Plan, served: &Served, recovered: &Recovered, m: &mut Metrics) {
    let (sent, col, rr) = (&served.sent, &served.col, &served.counters);
    let ops = served.ops as f64;
    counter_metrics(m, rr, ops);
    m.set("server.submit_us", mean(&sent.submit_us));
    if !served.replay_read_us.is_empty() || !recovered.replay_read_us.is_empty() {
        let svc_reads: Vec<f64> = col.recs[plan.warmup_ops..]
            .iter()
            .zip(&plan.stream[plan.warmup_ops..])
            .filter(|(r, p)| r.ok && p.op.is_read())
            .map(|(r, _)| r.svc_us)
            .collect();
        let direct: Vec<f64> = served
            .replay_read_us
            .iter()
            .chain(&recovered.replay_read_us)
            .copied()
            .collect();
        m.set("server.handoff_us", median(&svc_reads) - median(&direct));
    }

    let reads = plan.stream.iter().filter(|p| p.op.is_read()).count() as f64;
    let writes = plan.stream.len() as f64 - reads;
    let committed_writes = col
        .recs
        .iter()
        .zip(plan.stream)
        .filter(|(r, p)| r.ok && !p.op.is_read())
        .count() as f64;
    let attempted = col.recs.len() as f64;
    m.set(
        "gda.tx.abort_frac",
        ratio(col.aborted_first as f64, attempted),
    );
    m.set("e2e.failed_frac", ratio(col.failed as f64, attempted));
    m.set(
        "gda.mvcc.snapshot_reads_per_read",
        ratio(rr.snapshot_reads as f64, reads),
    );
    m.set(
        "gda.mvcc.archives_per_write",
        ratio(rr.version_archives as f64, writes),
    );
    m.set(
        "gda.mvcc.truncations_per_kwrite",
        ratio(rr.chain_truncations as f64 * 1e3, writes),
    );

    let ckpt_bytes: Vec<f64> = sent
        .checkpoints
        .iter()
        .map(|(_, r)| r.per_rank_bytes.iter().sum::<u64>() as f64)
        .collect();
    let of =
        |f: fn(&(f64, CheckpointReport)) -> f64| sent.checkpoints.iter().map(f).collect::<Vec<_>>();
    m.set("e2e.checkpoint_ms", median(&of(|(s, _)| s * 1e3)));
    m.set(
        "gda.persist.ckpt_sim_stall_ms",
        median(&of(|(_, r)| r.sim_stall_s * 1e3)),
    );
    m.set("gda.persist.ckpt_bytes", median(&ckpt_bytes));
    let durable_bytes = rr.log_bytes as f64 + ckpt_bytes.iter().sum::<f64>();
    if plan.shape.durable {
        m.set(
            "e2e.durable_bytes_per_write",
            ratio(durable_bytes, committed_writes),
        );
    }
    m.set(
        "gda.persist.log_bytes_per_write",
        ratio(rr.log_bytes as f64, committed_writes),
    );
    m.set(
        "gda.persist.appends_per_kwrite",
        ratio(rr.log_appends as f64 * 1e3, committed_writes),
    );
    let rec = &recovered.summary;
    m.set("e2e.recovery_s", recovered.recovery_s);
    m.set("gda.persist.restore_s", rec.max_wall_restore_s);
    m.set("gda.persist.restore_sim_s", rec.max_sim_restore_s);
    m.set("gda.persist.replay_records", rec.records as f64);
    m.set(
        "gda.persist.restored_bytes",
        (rec.snapshot_bytes + rec.log_bytes) as f64,
    );
    let passes: Vec<f64> = sent.maintenance.iter().map(|(s, _)| s * 1e3).collect();
    m.set("gda.maint.pass_ms", median(&passes));
    m.set(
        "gda.maint.vacuumed_versions",
        sent.maintenance
            .iter()
            .map(|(_, r)| r.vacuumed_versions as f64)
            .sum(),
    );
    m.set("gen.late_p99_us", percentile(&sent.late_us, 99.0));
    m.set(
        "gen.late_max_us",
        sent.late_us.iter().copied().fold(0.0, f64::max),
    );
}
