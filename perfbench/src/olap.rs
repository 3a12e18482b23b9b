//! The `olap_jobs` workload: one analyst submits collective jobs one at
//! a time (a closed loop with one client) against a rich-LPG graph with
//! per-label indexes.
//!
//! Each cycle first inserts and then deletes a fixed set of fresh
//! vertices and edges through a session (the net topology is unchanged,
//! so the query oracle stays valid, but the OLAP mirror must be
//! rebuilt), then runs PageRank (10 iterations), BFS and the five-query
//! suite with planner-picked plans, each as its own job.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gda::{GdaDb, GdaRank};
use gdi::{AccessMode, AppVertexId, EdgeOrientation, PropertyValue};
use graphgen::{sized_config, GraphSpec, LpgConfig, LpgMeta};
use query::{Query, QueryValue};
use rma::{BackendKind, CostModel};
use server::{GdiServer, Op, OpOutcome, OpReply, RoutePolicy, ServerOptions, Session};
use workloads::analytics::{bfs, build_view, pagerank, BfsResult};
use workloads::queries::{load_with_label_indexes, reference_eval, suite, SuiteParams};

use crate::gen::generated_degrees;
use crate::serving::{
    counter_metrics, fabric_counters, pin_to_cpu, repeat_setup, serve_ranks, served_ops,
    StopOnUnwind,
};
use crate::trace::{layer_times, take_spans, write_spans, Span, Tracer};
use crate::util::{cpu_time_us, median, out_dir, percentile, ratio, secs, Metrics};
use crate::{Args, Outcome, RANKS};

/// Kronecker scale of the graph.
const SCALE: u32 = 12;
/// Fresh vertices (each with one edge) inserted and deleted per cycle.
const FRESH: u64 = 128;
/// PageRank iterations and damping (the paper's parameters).
const PR_ITERS: usize = 10;
const PR_DAMPING: f64 = 0.85;
/// Largest accepted difference between a PageRank score and the
/// oracle's (scores are ~1/n; only summation order may differ).
const PR_TOLERANCE: f64 = 1e-9;

/// The generator shape the query suite needs (≥3 labels and ptypes).
fn rich_lpg() -> LpgConfig {
    LpgConfig {
        num_labels: 4,
        num_ptypes: 4,
        labels_per_vertex: 2,
        props_per_vertex: 3,
        edge_label_fraction: 1.0,
        ..LpgConfig::default()
    }
}

/// A seeded vertex of ordinary degree (positive, at most `cap`): the
/// point query's and BFS's root.
fn typical_vertex(deg: &[u32], seed: u64, cap: u32) -> u64 {
    let n = deg.len();
    let start = (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as usize % n;
    (0..n)
        .map(|k| (start + k) % n)
        .find(|&v| deg[v] > 0 && deg[v] <= cap)
        .expect("a vertex of typical degree") as u64
}

/// What one rank reports back from one job.
#[derive(Default)]
struct JobOut {
    /// In-job wall time, ms.
    wall_ms: f64,
    /// In-job modeled time, ms.
    sim_ms: f64,
    /// Largest PageRank deviation from the oracle.
    pr_dev: f64,
    bfs: Option<BfsResult>,
    value: Option<QueryValue>,
    /// PageRank scores by app id (oracle job).
    scores: Vec<(u64, f64)>,
    /// Per-op wall times, µs (direct reads).
    samples_us: Vec<f64>,
}

/// Submit `job`, wait for it, and return its ticket latency (ms) and
/// every rank's output in rank order.
fn run_job(
    server: &GdiServer,
    tracer: Tracer,
    item: u64,
    job: impl for<'r, 'd, 'c, 'f> Fn(&'r GdaRank<'d, 'c, 'f>, &mut JobOut) + Send + Sync + 'static,
) -> (f64, Vec<JobOut>) {
    let sink: Arc<Mutex<Vec<(usize, JobOut)>>> = Arc::default();
    let out = sink.clone();
    let t = Instant::now();
    let done = server
        .submit_olap(move |eng| {
            let ctx = eng.ctx();
            tracer.span("rma.barrier", item, Some(ctx), || ctx.barrier());
            let (w0, s0) = (Instant::now(), ctx.now_ns());
            let mut o = JobOut::default();
            job(eng, &mut o);
            o.wall_ms = secs(w0) * 1e3;
            o.sim_ms = (ctx.now_ns() - s0) / 1e6;
            tracer.flush();
            out.lock()
                .expect("job output poisoned by a panicking rank")
                .push((ctx.rank(), o));
            1.0
        })
        .expect("server accepts jobs")
        .wait();
    let ms = secs(t) * 1e3;
    assert!(done.is_committed(), "job {item} did not complete: {done:?}");
    let mut outs = std::mem::take(
        &mut *sink
            .lock()
            .expect("job output poisoned by a panicking rank"),
    );
    outs.sort_by_key(|(r, _)| *r);
    (ms, outs.into_iter().map(|(_, o)| o).collect())
}

/// The answers every cycle is checked against.
struct Oracle {
    bfs: Option<BfsResult>,
    pagerank: Arc<HashMap<u64, f64>>,
    queries: Arc<Vec<(&'static str, Query)>>,
    answers: Vec<QueryValue>,
}

/// One cycle's measurements.
#[derive(Default)]
struct Cycle {
    traced: bool,
    /// Wall time of the cycle (without the traced run's extra job).
    wall_ms: f64,
    pagerank_ms: f64,
    bfs_ms: f64,
    suite_ms: f64,
    /// Modeled time of the cycle's jobs (rank 0).
    sim_ms: f64,
    /// Ticket latency minus rank 0's in-job time, per job.
    rendezvous_ms: Vec<f64>,
    /// Session op latencies, µs.
    reads_us: Vec<f64>,
    writes_us: Vec<f64>,
    /// Direct engine reads of the same vertices (traced cycles), µs.
    direct_reads_us: Vec<f64>,
    /// Requests (session ops and jobs) and process CPU time per request.
    requests: u64,
    cpu_us_per_op: f64,
}

/// One cycle: insert, read back and delete the fresh vertices through
/// the session, then PageRank, BFS and the query suite as jobs.
#[allow(clippy::too_many_arguments)]
fn run_cycle(
    c: u64,
    tracer: Tracer,
    srv: &GdiServer,
    session: &Session,
    meta: &LpgMeta,
    base: u64,
    root: u64,
    oracle: &Oracle,
    errs: &mut Vec<String>,
) -> Cycle {
    let mut cy = Cycle {
        traced: tracer.on,
        ..Cycle::default()
    };
    let (t_cycle, cpu0) = (Instant::now(), cpu_time_us());
    let fresh: Vec<u64> = (0..FRESH).map(|k| base + c * FRESH + k).collect();
    let mut exec = |op: Op, cy: &mut Cycle| -> Option<OpReply> {
        let t = Instant::now();
        let r = session.execute(op.clone());
        let us = secs(t) * 1e6;
        if op.is_read() {
            cy.reads_us.push(us);
        } else {
            cy.writes_us.push(us);
        }
        match r {
            Ok(OpOutcome::Committed(reply)) => Some(reply),
            other => {
                errs.push(format!("cycle {c}: {op:?} -> {other:?}"));
                None
            }
        }
    };
    for &v in &fresh {
        let prop = Some((meta.ptype(0), PropertyValue::U64(v)));
        let label = Some(meta.label(0));
        exec(
            Op::AddVertex {
                v: AppVertexId(v),
                label,
                prop,
            },
            &mut cy,
        );
    }
    for &v in &fresh {
        let (from, to) = (AppVertexId(v), AppVertexId((v * 7919) % base));
        exec(
            Op::AddEdge {
                from,
                to,
                label: Some(meta.label(1)),
            },
            &mut cy,
        );
    }
    let mut wrong = Vec::new();
    for &v in &fresh {
        let got = exec(Op::CountEdges { v: AppVertexId(v) }, &mut cy);
        if got.as_ref().is_some_and(|r| *r != OpReply::Count(1)) {
            wrong.push(format!("cycle {c}: CountEdges({v}) = {got:?}, want 1"));
        }
    }
    let mut extra_ms = 0.0;
    if tracer.on {
        // the same reads, direct against the engine: the server's share
        // of a read's latency is the difference
        let ids = Arc::new(fresh.clone());
        let t = Instant::now();
        let (_, outs) = run_job(srv, Tracer { on: false }, c, move |eng, o| {
            for v in ids.iter().skip(eng.rank()).step_by(eng.nranks()) {
                let t = Instant::now();
                let tx = eng.begin(AccessMode::ReadOnly);
                let id = tx
                    .translate_vertex_id(AppVertexId(*v))
                    .expect("fresh vertex");
                tx.edge_count(id, EdgeOrientation::Any).expect("edge count");
                tx.commit().expect("read-only commit");
                o.samples_us.push(secs(t) * 1e6);
            }
        });
        cy.direct_reads_us = outs.into_iter().flat_map(|o| o.samples_us).collect();
        extra_ms = secs(t) * 1e3;
    }
    for &v in &fresh {
        exec(Op::DeleteVertex { v: AppVertexId(v) }, &mut cy);
    }
    errs.extend(wrong);

    // PageRank over the (rebuilt) mirror
    let opr = oracle.pagerank.clone();
    let (ms, outs) = run_job(srv, tracer, c, move |eng, o| {
        let ctx = Some(eng.ctx());
        let view = tracer.span("gda.scan.view", c, ctx, || eng.olap_view());
        let pr = tracer.span("analytics.pagerank", c, ctx, || {
            pagerank(eng, &view, PR_ITERS, PR_DAMPING)
        });
        o.pr_dev = view
            .apps
            .iter()
            .zip(&pr)
            .map(|(a, s)| (opr.get(a).copied().unwrap_or(f64::INFINITY) - s).abs())
            .fold(0.0, f64::max);
    });
    cy.pagerank_ms = ms;
    cy.sim_ms += outs[0].sim_ms;
    cy.rendezvous_ms.push(ms - outs[0].wall_ms);
    let dev = outs.iter().map(|o| o.pr_dev).fold(0.0, f64::max);
    if dev.is_nan() || dev > PR_TOLERANCE {
        errs.push(format!(
            "cycle {c}: PageRank deviates from the oracle by {dev}"
        ));
    }

    // BFS
    let (ms, outs) = run_job(srv, tracer, c, move |eng, o| {
        let ctx = Some(eng.ctx());
        let view = tracer.span("gda.scan.view", c, ctx, || eng.olap_view());
        o.bfs = Some(tracer.span("analytics.bfs", c, ctx, || bfs(eng, &view, root)));
    });
    cy.bfs_ms = ms;
    cy.sim_ms += outs[0].sim_ms;
    cy.rendezvous_ms.push(ms - outs[0].wall_ms);
    if outs[0].bfs != oracle.bfs {
        errs.push(format!(
            "cycle {c}: BFS {:?}, oracle {:?}",
            outs[0].bfs, oracle.bfs
        ));
    }

    // the query suite, one job per query
    for (qi, want) in oracle.answers.iter().enumerate() {
        let qs = oracle.queries.clone();
        let (ms, outs) = run_job(srv, tracer, c, move |eng, o| {
            let ctx = Some(eng.ctx());
            let q = &qs[qi].1;
            let plan = tracer.span("query.plan", qi as u64, ctx, || {
                query::plan(&query::Catalog::gather(eng), q)
            });
            let out = tracer.span("query.exec", qi as u64, ctx, || {
                query::execute(eng, q, &plan)
            });
            o.value = Some(out.value);
        });
        cy.suite_ms += ms;
        cy.sim_ms += outs[0].sim_ms;
        cy.rendezvous_ms.push(ms - outs[0].wall_ms);
        if outs[0].value.as_ref() != Some(want) {
            errs.push(format!(
                "cycle {c}: query {} = {:?}, oracle {want:?}",
                oracle.queries[qi].0, outs[0].value
            ));
        }
    }
    cy.wall_ms = secs(t_cycle) * 1e3 - extra_ms;
    // session ops, PageRank, BFS and one job per query
    cy.requests = (cy.reads_us.len() + cy.writes_us.len() + 2 + oracle.answers.len()) as u64;
    cy.cpu_us_per_op = (cpu_time_us() - cpu0) / cy.requests as f64;
    cy
}

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let spec = GraphSpec {
        scale: SCALE,
        edge_factor: 16,
        seed: args.seed,
        lpg: rich_lpg(),
    };
    let base = spec.n_vertices();
    // set-up: generate, create the label indexes, bulk-load
    let (setups, (db, fabric, (meta, load_s))) = repeat_setup(|_| {
        let mut cfg = sized_config(&spec, RANKS);
        cfg.blocks_per_rank *= 2;
        let (db, fabric) = GdaDb::with_fabric_on(
            "olap_jobs",
            cfg,
            RANKS,
            CostModel::default(),
            BackendKind::Sim,
        );
        let out = fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let t = Instant::now();
            let (meta, _) = load_with_label_indexes(&eng, &spec);
            (meta, secs(t))
        });
        (db, fabric, out.into_iter().next().expect("rank 0"))
    });

    // query oracles, from the generator (not part of set-up)
    let root = typical_vertex(&generated_degrees(&spec), args.seed, 4 * spec.edge_factor);
    let params = SuiteParams {
        point_id: root,
        ..SuiteParams::default()
    };
    let queries = Arc::new(suite(&meta, &params));
    let names: Vec<&'static str> = queries.iter().map(|(n, _)| *n).collect();
    let answers = queries
        .iter()
        .map(|(_, q)| reference_eval(&spec, &meta, q))
        .collect();

    let server = GdiServer::new(
        db,
        ServerOptions {
            route: RoutePolicy::SessionAffine,
            ..ServerOptions::default()
        },
    );
    let session = server.session();
    let mut errs = Vec::new();
    let (cycles, counters, ops, spans, summaries) = std::thread::scope(|s| {
        let srv = &server;
        let fab = &fabric;
        let ranks = s.spawn(move || serve_ranks(fab, srv));
        let _stop = StopOnUnwind(srv);

        // PageRank and BFS over the tx-built oracle view
        let (_, outs) = run_job(srv, Tracer { on: false }, u64::MAX, move |eng, o| {
            let apps = spec.vertices_for_rank(eng.rank(), eng.nranks());
            let view = build_view(eng, &apps);
            let pr = pagerank(eng, &view, PR_ITERS, PR_DAMPING);
            o.scores = view.apps.iter().copied().zip(pr).collect();
            o.bfs = Some(bfs(eng, &view, root));
        });
        let oracle = Oracle {
            bfs: outs[0].bfs,
            pagerank: Arc::new(outs.into_iter().flat_map(|o| o.scores).collect()),
            queries,
            answers,
        };

        // closed loop: cycles until the measured time is used up; in the
        // traced run every other cycle is traced. The analyst shares
        // rank 1's core (its session ops are served by rank 0).
        let (session, meta, errs) = (&session, &meta, &mut errs);
        let analyst = s.spawn(move || {
            pin_to_cpu(1);
            let t_run = Instant::now();
            let mut cycles = Vec::new();
            while cycles.is_empty() || secs(t_run) < args.seconds as f64 {
                let c = cycles.len() as u64;
                let tracer = Tracer {
                    on: args.trace && c % 2 == 1,
                };
                cycles.push(run_cycle(
                    c, tracer, srv, session, meta, base, root, &oracle, errs,
                ));
            }
            cycles
        });
        let cycles = analyst.join().expect("analyst panicked");
        let counters = fabric_counters(srv);
        let ops = served_ops(srv);
        let spans = take_spans();
        srv.shutdown();
        let summaries = ranks.join().expect("serve thread");
        (cycles, counters, ops, spans, summaries)
    });

    let mut m = Metrics::default();
    m.set("setup_s", median(&setups));
    m.set("graphgen.load_s", load_s);
    m.set("peak_rss_mb", crate::util::peak_rss_mb());
    // per-cycle figures, median over the cycles (a burst of host noise
    // in a few cycles does not move the result)
    let over = |cs: &[&Cycle], f: &dyn Fn(&Cycle) -> f64| {
        median(&cs.iter().map(|c| f(c)).collect::<Vec<_>>())
    };
    let all: Vec<&Cycle> = cycles.iter().collect();
    let plain: Vec<&Cycle> = cycles.iter().filter(|c| !c.traced).collect();
    let traced: Vec<&Cycle> = cycles.iter().filter(|c| c.traced).collect();
    m.set(
        "read_p50_us",
        over(&all, &|c| percentile(&c.reads_us, 50.0)),
    );
    m.set(
        "e2e.read_p90_us",
        over(&all, &|c| percentile(&c.reads_us, 90.0)),
    );
    m.set(
        "write_p50_us",
        over(&all, &|c| percentile(&c.writes_us, 50.0)),
    );
    m.set(
        "e2e.write_p90_us",
        over(&all, &|c| percentile(&c.writes_us, 90.0)),
    );
    m.set("cpu_us_per_op", over(&all, &|c| c.cpu_us_per_op));
    let executed: u64 = summaries.iter().map(|s| s.executed).sum();
    let jobs = summaries.first().map_or(0, |s| s.olap_jobs);
    let sim_ns: f64 = summaries.iter().map(|s| s.sim_serve_ns).sum();
    m.set(
        "sim_us_per_op",
        ratio(sim_ns, (executed + jobs) as f64) / 1e3,
    );

    // this workload's figures from the end-to-end list of the design
    m.set("e2e.pagerank_ms", over(&plain, &|c| c.pagerank_ms));
    m.set("e2e.bfs_ms", over(&plain, &|c| c.bfs_ms));
    m.set("e2e.query_suite_ms", over(&plain, &|c| c.suite_ms));
    m.set("e2e.sim_cycle_ms", over(&plain, &|c| c.sim_ms));
    let requests: u64 = cycles.iter().map(|c| c.requests).sum();
    m.set("e2e.failed_frac", ratio(errs.len() as f64, requests as f64));

    let rendezvous: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.rendezvous_ms.clone())
        .collect();
    m.set("server.rendezvous_ms", median(&rendezvous));
    let direct: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.direct_reads_us.clone())
        .collect();
    if !direct.is_empty() {
        let reads: Vec<f64> = cycles.iter().flat_map(|c| c.reads_us.clone()).collect();
        m.set("server.handoff_us", median(&reads) - median(&direct));
    }
    counter_metrics(&mut m, &counters, ops as f64);
    let n_cycles = cycles.len() as f64;
    let rr = &counters;
    m.set(
        "rma.collectives_per_cycle",
        ratio(rr.collectives as f64, n_cycles),
    );
    m.set(
        "rma.coll_bytes_per_cycle",
        ratio(rr.coll_bytes as f64, n_cycles),
    );
    let scans = (rr.scan_builds + rr.scan_patches + rr.scan_reuses) as f64;
    m.set(
        "gda.scan.builds_per_cycle",
        ratio(rr.scan_builds as f64, n_cycles * RANKS as f64),
    );
    m.set("gda.scan.reuse_frac", ratio(rr.scan_reuses as f64, scans));
    m.set(
        "gda.scan.bytes_per_build",
        ratio(rr.scan_bytes as f64, rr.scan_builds as f64),
    );
    m.set(
        "query.rows_per_result",
        ratio(rr.query_rows as f64, rr.query_execs as f64),
    );
    if args.trace {
        span_metrics(&spans, traced.len() as f64, &names, &mut m);
        let t_plain = over(&plain, &|c| c.wall_ms);
        let t_traced = over(&traced, &|c| c.wall_ms);
        m.set("trace.overhead_frac", ratio(t_traced - t_plain, t_plain));
        let path = out_dir().join("trace-olap_jobs.jsonl");
        if let Err(e) = write_spans(&path, &spans) {
            eprintln!("[olap_jobs] could not write {}: {e}", path.display());
        }
    }

    eprintln!("[olap_jobs] set-up runs (s): {setups:.3?}");
    for e in &errs {
        eprintln!("[olap_jobs] CHECK FAILED: {e}");
    }
    eprintln!(
        "[olap_jobs] {} cycles ({} traced), {requests} requests, cycle wall median {:.1} ms",
        cycles.len(),
        traced.len(),
        over(&plain, &|c| c.wall_ms),
    );
    Outcome {
        correct: errs.is_empty(),
        attempted: requests,
        failed: errs.len() as u64,
        metrics: m,
    }
}

/// Per-layer times from the traced cycles' spans. Rank 0's spans only:
/// every job's barriers align the ranks, so rank 0 speaks for the job.
fn span_metrics(spans: &[Span], traced_cycles: f64, queries: &[&str], m: &mut Metrics) {
    let rank0: Vec<Span> = spans.iter().filter(|s| s.rank == 0).cloned().collect();
    let lt = layer_times(&rank0);
    let get = |n: &str| lt.get(n).cloned().unwrap_or_default();
    let view = get("gda.scan.view");
    m.set(
        "gda.scan.view_ms",
        ratio(view.self_wall_ns, traced_cycles) / 1e6,
    );
    m.set(
        "gda.scan.view_sim_ms",
        ratio(view.self_sim_ns, traced_cycles) / 1e6,
    );
    for name in ["analytics.pagerank", "analytics.bfs"] {
        let t = get(name);
        m.set(format!("{name}_ms"), t.self_wall_us_per_call() / 1e3);
        m.set(format!("{name}_sim_ms"), t.self_sim_us_per_call() / 1e3);
    }
    let barrier = get("rma.barrier");
    m.set("rma.barrier_us", barrier.self_wall_us_per_call());
    m.set("rma.barrier_sim_us", barrier.self_sim_us_per_call());
    m.set("query.plan_us", get("query.plan").self_wall_us_per_call());
    for (qi, name) in queries.iter().enumerate() {
        let execs: Vec<&Span> = rank0
            .iter()
            .filter(|s| s.name == "query.exec" && s.item == qi as u64)
            .collect();
        let k = execs.len() as f64;
        let wall: f64 = execs.iter().map(|s| s.wall_ns()).sum();
        let sim: f64 = execs.iter().map(|s| s.sim_ns()).sum();
        m.set(format!("query.exec_ms.{name}"), ratio(wall, k) / 1e6);
        m.set(format!("query.exec_sim_ms.{name}"), ratio(sim, k) / 1e6);
    }
}
