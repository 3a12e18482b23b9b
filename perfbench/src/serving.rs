//! Helpers the workloads share for driving a `GdiServer`.

use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rma::{Fabric, RankReport};
use server::{GdiServer, ServeSummary};

use crate::util::{ratio, secs, Metrics};
use crate::SETUP_REPEATS;

/// Pin the calling thread to one CPU (`cpu` modulo the online CPUs).
/// Fixed placement keeps the thread-to-core layout, and with it the
/// wake-up paths, the same from run to run; if the host refuses, the
/// thread stays unpinned.
pub fn pin_to_cpu(cpu: usize) {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let cpu = cpu % crate::util::nproc();
    let mut mask = [0u64; 16];
    mask[(cpu / 64) % 16] |= 1 << (cpu % 64);
    // SAFETY: pid 0 names the calling thread; the mask outlives the call
    // and its size is passed alongside it.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

/// Run every rank's serve loop of `server` on `fabric`, rank `r` pinned
/// to CPU `r`. A panicking rank fails the run at once: clients blocked
/// on its tickets would otherwise wait for the wall timeout.
pub fn serve_ranks(fabric: &Fabric, server: &GdiServer) -> Vec<ServeSummary> {
    let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
        fabric.run(|ctx| {
            pin_to_cpu(ctx.rank());
            server.serve_rank(ctx)
        })
    }));
    run.unwrap_or_else(|_| {
        eprintln!("perfbench: a serving rank panicked; failing the run");
        std::process::exit(1)
    })
}

/// Closes the server if the serving scope unwinds, so the rank threads
/// exit and the scope can join them.
pub struct StopOnUnwind<'a>(pub &'a GdiServer);

impl Drop for StopOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.shutdown();
        }
    }
}

/// Set up `SETUP_REPEATS` times (each run gets its index), keeping the
/// last result; returns the wall seconds of every run with it.
pub fn repeat_setup<T>(mut setup: impl FnMut(usize) -> T) -> (Vec<f64>, T) {
    let mut times = Vec::new();
    let mut kept = None;
    for k in 0..SETUP_REPEATS {
        // free the previous copy first: one database at a time
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup(k));
        times.push(secs(t));
    }
    (times, kept.expect("at least one set-up"))
}

/// Every serving rank's live fabric counters, summed. Taken by a
/// collective job right after the measured phase, so checks and traced
/// passes that run later are not counted.
pub fn fabric_counters(server: &GdiServer) -> RankReport {
    let sink = Arc::new(Mutex::new(RankReport::default()));
    let out = sink.clone();
    server
        .submit_olap(move |eng| {
            out.lock()
                .expect("job output poisoned by a panicking rank")
                .merge(&eng.ctx().stats_snapshot());
            1.0
        })
        .expect("server accepts jobs")
        .wait();
    let total = *sink
        .lock()
        .expect("job output poisoned by a panicking rank");
    total
}

/// Translation-cache and fabric counters per served op.
pub fn counter_metrics(m: &mut Metrics, rr: &RankReport, ops: f64) {
    let probes = (rr.cache_hits + rr.cache_misses) as f64;
    m.set("gda.cache.hit_frac", ratio(rr.cache_hits as f64, probes));
    m.set(
        "gda.cache.invalidations_per_kop",
        ratio(rr.cache_invalidations as f64 * 1e3, ops),
    );
    m.set(
        "server.batch_size",
        ratio(rr.requests_served as f64, rr.batches_drained as f64),
    );
    let remote = (rr.puts + rr.gets + rr.atomics) as f64;
    m.set("rma.remote_ops_per_op", ratio(remote, ops));
    m.set("rma.gets_per_op", ratio(rr.gets as f64, ops));
    m.set("rma.puts_per_op", ratio(rr.puts as f64, ops));
    m.set("rma.atomics_per_op", ratio(rr.atomics as f64, ops));
    m.set("rma.flushes_per_op", ratio(rr.flushes as f64, ops));
    m.set(
        "rma.bytes_per_op",
        ratio((rr.bytes_put + rr.bytes_get) as f64, ops),
    );
}

/// Served ops (committed + aborted) so far, over all ranks.
pub fn served_ops(server: &GdiServer) -> u64 {
    server
        .metrics()
        .per_rank
        .iter()
        .map(|r| r.committed + r.aborted)
        .sum()
}
