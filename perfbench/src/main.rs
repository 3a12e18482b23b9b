//! End-to-end and per-layer benchmark of the GDI server.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload oltp_read|oltp_durable|olap_jobs --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload runs on 2 ranks of the simulated (LogGP) fabric and
//! reports both clocks: wall time measured by the benchmark, modeled
//! time from `RankCtx::now_ns`. With `--trace 0` the last stdout line
//! carries the end-to-end metrics; with `--trace 1` it carries the
//! per-layer metrics. Outputs are checked in both modes; see
//! `perfbench/README.md`.

mod gen;
mod olap;
mod oltp;
mod serving;
mod trace;
mod util;

use std::time::Duration;

use util::{json_str, result_line, Metrics};

/// Fabric ranks of every workload.
pub const RANKS: usize = 2;
/// Set-up runs per invocation; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// A run that takes longer than this is a failed run.
const WALL_TIMEOUT: Duration = Duration::from_secs(170);

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Offered-rate override for the OLTP workloads (ops/s).
    pub rate: Option<f64>,
    /// Maintenance cadence override for `oltp_durable` (ops).
    pub maintenance_every: Option<usize>,
    /// Table-3 mix override for the OLTP workloads.
    pub mix: Option<workloads::oltp::Mix>,
}

/// What a workload run produced.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// End-to-end metrics, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("read_p50_us", "us"),
    ("write_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("sim_us_per_op", "us"),
];

/// Per-layer metrics, reported with `--trace 1`. A workload reports 0
/// for a layer it does not exercise.
pub const PER_LAYER: [(&str, &str); 73] = [
    ("server.submit_us", "us"),
    ("server.handoff_us", "us"),
    ("server.batch_size", "ops"),
    ("server.rendezvous_ms", "ms"),
    ("gda.cache.hit_frac", "fraction"),
    ("gda.cache.invalidations_per_kop", "count"),
    ("gda.dht.translate_us", "us"),
    ("gda.dht.translate_sim_us", "us"),
    ("gda.tx.pin_us", "us"),
    ("gda.tx.pin_sim_us", "us"),
    ("gda.tx.read_us", "us"),
    ("gda.tx.read_sim_us", "us"),
    ("gda.tx.commit_us", "us"),
    ("gda.tx.commit_sim_us", "us"),
    ("gda.tx.abort_frac", "fraction"),
    ("gda.mvcc.snapshot_reads_per_read", "count"),
    ("gda.mvcc.archives_per_write", "count"),
    ("gda.mvcc.truncations_per_kwrite", "count"),
    ("rma.remote_ops_per_op", "count"),
    ("rma.gets_per_op", "count"),
    ("rma.puts_per_op", "count"),
    ("rma.atomics_per_op", "count"),
    ("rma.flushes_per_op", "count"),
    ("rma.bytes_per_op", "B"),
    ("rma.collectives_per_cycle", "count"),
    ("rma.coll_bytes_per_cycle", "B"),
    ("rma.barrier_us", "us"),
    ("rma.barrier_sim_us", "us"),
    ("gda.persist.log_bytes_per_write", "B"),
    ("gda.persist.appends_per_kwrite", "count"),
    ("gda.persist.ckpt_bytes", "B"),
    ("gda.persist.ckpt_sim_stall_ms", "ms"),
    ("gda.persist.restore_s", "s"),
    ("gda.persist.restore_sim_s", "s"),
    ("gda.persist.replay_records", "count"),
    ("gda.persist.restored_bytes", "B"),
    ("gda.maint.pass_ms", "ms"),
    ("gda.maint.vacuumed_versions", "count"),
    ("gda.scan.view_ms", "ms"),
    ("gda.scan.view_sim_ms", "ms"),
    ("gda.scan.builds_per_cycle", "count"),
    ("gda.scan.reuse_frac", "fraction"),
    ("gda.scan.bytes_per_build", "B"),
    ("analytics.pagerank_ms", "ms"),
    ("analytics.pagerank_sim_ms", "ms"),
    ("analytics.bfs_ms", "ms"),
    ("analytics.bfs_sim_ms", "ms"),
    ("query.plan_us", "us"),
    ("query.exec_ms.hop-filter-count", "ms"),
    ("query.exec_ms.two-hop", "ms"),
    ("query.exec_ms.point-neighborhood", "ms"),
    ("query.exec_ms.indexed-sum", "ms"),
    ("query.exec_ms.triangle", "ms"),
    ("query.exec_sim_ms.hop-filter-count", "ms"),
    ("query.exec_sim_ms.two-hop", "ms"),
    ("query.exec_sim_ms.point-neighborhood", "ms"),
    ("query.exec_sim_ms.indexed-sum", "ms"),
    ("query.exec_sim_ms.triangle", "ms"),
    ("query.rows_per_result", "count"),
    ("graphgen.load_s", "s"),
    ("gen.late_p99_us", "us"),
    ("gen.late_max_us", "us"),
    ("trace.overhead_frac", "fraction"),
    ("e2e.read_p90_us", "us"),
    ("e2e.write_p90_us", "us"),
    ("e2e.checkpoint_ms", "ms"),
    ("e2e.recovery_s", "s"),
    ("e2e.durable_bytes_per_write", "B"),
    ("e2e.pagerank_ms", "ms"),
    ("e2e.bfs_ms", "ms"),
    ("e2e.query_suite_ms", "ms"),
    ("e2e.sim_cycle_ms", "ms"),
    ("e2e.failed_frac", "fraction"),
];

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        rate: None,
        maintenance_every: None,
        mix: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|_| "bad --seed")?,
            "--seconds" => a.seconds = val.parse().map_err(|_| "bad --seconds")?,
            "--trace" => a.trace = val == "1",
            "--rate" => a.rate = Some(val.parse().map_err(|_| "bad --rate")?),
            "--maintenance-every" => {
                a.maintenance_every = Some(val.parse().map_err(|_| "bad --maintenance-every")?)
            }
            "--mix" => {
                let mix = workloads::oltp::Mix::table3()
                    .into_iter()
                    .find(|m| m.name.replace(' ', "_").eq_ignore_ascii_case(&val));
                a.mix = Some(mix.ok_or(format!("unknown mix {val}"))?);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run: fn(&Args) -> Outcome = match args.workload.as_str() {
        "oltp_read" => |a| oltp::run(&oltp::OLTP_READ, a),
        "oltp_durable" => |a| oltp::run(&oltp::OLTP_DURABLE, a),
        "olap_jobs" => olap::run,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let threads = if args.workload == "olap_jobs" { 1 } else { 2 };
    // seed and host metadata, one JSON line before the result
    let nproc = util::nproc();
    let busy = RANKS + threads;
    println!(
        "{{\"meta\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"backend\": \"sim\", \"nproc\": {nproc}, \"git_revision\": {}, \"ranks\": {RANKS}, \
         \"generator_threads\": {threads}, \"oversubscribed\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&util::git_revision(&util::repo_root())),
        busy > nproc,
    );
    if busy > nproc {
        eprintln!(
            "perfbench: {RANKS} ranks + {threads} generator threads on {nproc} cores: \
             wall-clock figures are oversubscribed"
        );
    }
    // a hung or wedged run fails instead of blocking its caller
    std::thread::spawn(|| {
        std::thread::sleep(WALL_TIMEOUT);
        eprintln!(
            "perfbench: run exceeded {}s; failing it",
            WALL_TIMEOUT.as_secs()
        );
        std::process::exit(3);
    });
    let out = run(&args);
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{}",
        result_line(
            out.correct,
            out.attempted.max(1),
            out.failed,
            table,
            &out.metrics
        )
    );
}
