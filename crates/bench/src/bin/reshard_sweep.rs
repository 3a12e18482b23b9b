//! Reshard sweep: elastic restore time and post-reshard throughput
//! versus same-topology recovery — the cost curves of scaling a
//! database out (and back in) across a restart.
//!
//! For each `(P, Q)` point the harness runs the kill-and-restart
//! scenario of `workloads::reshard`: tracked session traffic at `P`, a
//! collective checkpoint mid-stream, a kill, a restore onto `Q` ranks
//! (`Q = P` is the same-topology baseline; every point runs the same
//! logical replay and redistribution), read-your-committed-writes
//! verification, and a post-restore traffic phase. Reported per point:
//!
//! * **restore** — slowest rank's simulated restore seconds and the
//!   wall-clock restart time (recover → serving, verified);
//! * **verification** — checks performed and mismatches (must be 0:
//!   zero lost or stale committed writes across the reshard);
//! * **post throughput** — committed tracked ops per wall second
//!   against the restored server on its new topology.
//!
//! `--smoke` runs the 2→4 scale-out point and fails the process on any
//! mismatch (the CI guard for the elastic axis).
//!
//! Environment: `GDI_BENCH_SCALE` (weak-scaling base),
//! `GDI_BENCH_RESHARD_SESSIONS` (default 12),
//! `GDI_BENCH_RESHARD_OPS` (tracked ops per session per phase,
//! default 40).

use gdi_bench::{backend_selection, emit, emit_json_unless_smoke, for_backends, RunParams};
use rma::{BackendKind, CostModel};
use workloads::recovery::RecoveryReport;
use workloads::reshard::{run_reshard, ReshardScenario};

struct PointResult {
    p: usize,
    q: usize,
    report: RecoveryReport,
}

fn run_point(
    backend: BackendKind,
    p: usize,
    q: usize,
    scale: u32,
    sessions: usize,
    ops: usize,
) -> PointResult {
    let dir = workloads::scratch::ScratchDir::new(&format!(
        "reshard-sweep-{}-{p}-to-{q}",
        backend.label()
    ));
    let mut cfg = ReshardScenario::new(dir.path());
    cfg.backend = Some(backend);
    cfg.ranks_before = p;
    cfg.ranks_after = q;
    cfg.scale = scale;
    cfg.sessions = sessions;
    cfg.ops_before = ops;
    cfg.ops_after = ops;
    cfg.ops_post = ops;
    cfg.cost = CostModel::default();
    PointResult {
        p,
        q,
        report: run_reshard(&cfg),
    }
}

fn main() {
    // `--backend sim|wall|both`: wall runs land under `reshard_sweep_wall`
    for_backends(&backend_selection(), run_on);
}

fn run_on(backend: BackendKind) {
    let bench = match backend {
        BackendKind::Sim => "reshard_sweep",
        BackendKind::Wall => "reshard_sweep_wall",
    };
    let smoke = std::env::args().any(|a| a == "--smoke");
    let params = RunParams::from_env();
    let sessions: usize = std::env::var("GDI_BENCH_RESHARD_SESSIONS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(12);
    let ops: usize = std::env::var("GDI_BENCH_RESHARD_OPS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(40);

    // scale-out 2→8, scale-in 8→2, plus the same-topology baselines at
    // both endpoints (what the elastic path is compared against)
    let points: Vec<(usize, usize, u32)> = if smoke {
        vec![(2, 4, 6)]
    } else {
        let s2 = params.weak_scale(2);
        let s8 = params.weak_scale(8);
        vec![
            (2, 2, s2), // baseline: same-topology recovery at 2
            (2, 4, s2),
            (2, 8, s2), // scale-out
            (8, 8, s8), // baseline: same-topology recovery at 8
            (8, 4, s8),
            (8, 2, s8), // scale-in
        ]
    };

    let mut results = Vec::new();
    for &(p, q, scale) in &points {
        eprintln!("  [reshard_sweep] P={p} -> Q={q} s={scale} ...");
        let r = run_point(
            backend,
            p,
            q,
            scale,
            if smoke { 6 } else { sessions },
            if smoke { 25 } else { ops },
        );
        let rec = r.report.recovery.clone().unwrap_or_default();
        eprintln!(
            "  [reshard_sweep] P={p} -> Q={q}: restore {:.3} sim ms / {:.2} s wall, \
             {} objects-equiv records, {} checks, {} mismatches, post {:.0} ops/s",
            rec.max_sim_restore_s * 1e3,
            r.report.restart_wall_s,
            rec.records,
            r.report.checks,
            r.report.mismatches.len(),
            r.report.post_committed as f64 / r.report.post_wall_s.max(1e-9),
        );
        results.push(r);
    }

    let mut out = String::from("### Reshard sweep — elastic restore vs same-topology recovery\n");
    out.push_str(&format!(
        "{:<10} {:>10} {:>14} {:>13} {:>10} {:>8} {:>9} {:>12}\n",
        "P->Q",
        "committed",
        "restore sim ms",
        "restart w s",
        "records",
        "checks",
        "mismatch",
        "post ops/s"
    ));
    for r in &results {
        let rec = r.report.recovery.clone().unwrap_or_default();
        out.push_str(&format!(
            "{:<10} {:>10} {:>14.3} {:>13.2} {:>10} {:>8} {:>9} {:>12.0}\n",
            format!("{}->{}", r.p, r.q),
            r.report.committed_writes,
            rec.max_sim_restore_s * 1e3,
            r.report.restart_wall_s,
            rec.records,
            r.report.checks,
            r.report.mismatches.len(),
            r.report.post_committed as f64 / r.report.post_wall_s.max(1e-9),
        ));
    }

    let mut json = format!(
        "{{\"bench\":\"{bench}\",\"backend\":\"{}\",\"points\":[",
        backend.label()
    );
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let rec = r.report.recovery.clone().unwrap_or_default();
        json.push_str(&format!(
            "{{\"p\":{},\"q\":{},\"committed\":{},\"restore_sim_s\":{:.6},\
             \"restart_wall_s\":{:.3},\"records\":{},\"checks\":{},\"mismatches\":{},\
             \"post_committed\":{},\"post_wall_s\":{:.3}}}",
            r.p,
            r.q,
            r.report.committed_writes,
            rec.max_sim_restore_s,
            r.report.restart_wall_s,
            rec.records,
            r.report.checks,
            r.report.mismatches.len(),
            r.report.post_committed,
            r.report.post_wall_s,
        ));
    }
    json.push_str("]}");
    emit(bench, &out);
    emit_json_unless_smoke(bench, &json, smoke);

    // the CI guard: zero lost/stale committed writes across every
    // reshard, with the resharded server actually serving afterwards
    let failed: Vec<&PointResult> = results.iter().filter(|r| !r.report.passed()).collect();
    for r in &failed {
        eprintln!(
            "MISMATCHES at {}->{}:\n{}",
            r.p,
            r.q,
            r.report.mismatches.join("\n")
        );
    }
    assert!(failed.is_empty(), "reshard verification failed");
    for r in &results {
        let rec = r.report.recovery.clone().unwrap_or_default();
        assert_eq!(rec.errors, 0, "restore errors at {}->{}", r.p, r.q);
        assert!(r.report.committed_writes > 0);
        assert!(
            r.report.post_committed > 0,
            "post-reshard serving stalled at {}->{}",
            r.p,
            r.q
        );
        if r.p != r.q {
            assert_eq!(rec.resharded_from, Some(r.p));
        }
    }
    println!(
        "reshard_sweep: all points verified (zero lost/stale committed writes across reshard)"
    );
}
