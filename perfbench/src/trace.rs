//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer, recorded from the benchmark's own
//! code around the public function it calls: name, wall start/end, the
//! modeled (fabric) start/end where a rank clock exists, the enclosing
//! span and the op or job it belongs to. Spans stay in memory and are
//! written out once, after the run. A layer's self time is its span's
//! duration minus the part covered by its children.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use rma::RankCtx;
use std::sync::Mutex;

use crate::util::{json_num, json_str};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Op or job the span belongs to.
    pub item: u64,
    pub rank: usize,
    /// Wall clock, ns since the trace epoch.
    pub wall: (f64, f64),
    /// Modeled clock (`RankCtx::now_ns`), when the span ran on a rank.
    pub sim: Option<(f64, f64)>,
}

impl Span {
    pub fn wall_ns(&self) -> f64 {
        self.wall.1 - self.wall.0
    }

    pub fn sim_ns(&self) -> f64 {
        self.sim.map(|(a, b)| b - a).unwrap_or(0.0)
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> f64 {
    epoch().elapsed().as_nanos() as f64
}

/// Finished spans of every thread.
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans of this thread (innermost last) and its id counter.
    static OPEN: RefCell<(Vec<Span>, u64)> = const { RefCell::new((Vec::new(), 0)) };
}

// finished spans of this thread, moved to `SPANS` in batches
thread_local! {
    static DONE: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

/// Span recorder handle; a disabled recorder costs one branch per call.
#[derive(Clone, Copy)]
pub struct Tracer {
    pub on: bool,
}

impl Tracer {
    /// Run `f` inside a span named `name` for `item`. `ctx` supplies the
    /// modeled clock when the call runs on a fabric rank.
    pub fn span<R>(
        &self,
        name: &'static str,
        item: u64,
        ctx: Option<&RankCtx>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let rank = ctx.map(|c| c.rank()).unwrap_or(usize::MAX);
        let sim0 = ctx.map(|c| c.now_ns());
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            o.1 += 1;
            // ids are unique per thread; the rank/thread tag disambiguates
            let id = (thread_tag() << 40) | o.1;
            let parent = o.0.last().map(|s| s.id);
            o.0.push(Span {
                id,
                parent,
                name,
                item,
                rank,
                wall: (now_ns(), 0.0),
                sim: None,
            });
        });
        let r = f();
        let wall_end = now_ns();
        let sim1 = ctx.map(|c| c.now_ns());
        let mut span = OPEN.with(|o| o.borrow_mut().0.pop().expect("open span"));
        span.wall.1 = wall_end;
        span.sim = sim0.zip(sim1);
        DONE.with(|d| {
            let mut d = d.borrow_mut();
            d.push(span);
            if d.len() >= 4096 {
                SPANS
                    .lock()
                    .expect("span list poisoned by a panicking thread")
                    .append(&mut d);
            }
        });
        r
    }

    /// Move this thread's finished spans to the global list (call at the
    /// end of every traced thread or job).
    pub fn flush(&self) {
        DONE.with(|d| {
            SPANS
                .lock()
                .expect("span list poisoned by a panicking thread")
                .append(&mut d.borrow_mut())
        });
    }
}

fn thread_tag() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TAG: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TAG.with(|t| *t)
}

/// Take every recorded span.
pub fn take_spans() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span list poisoned by a panicking thread"),
    )
}

/// Per-name totals over a span set.
#[derive(Debug, Default, Clone)]
pub struct LayerTime {
    pub calls: u64,
    /// Total duration.
    pub wall_ns: f64,
    pub sim_ns: f64,
    /// Duration minus the part covered by child spans.
    pub self_wall_ns: f64,
    pub self_sim_ns: f64,
}

impl LayerTime {
    pub fn self_wall_us_per_call(&self) -> f64 {
        crate::util::ratio(self.self_wall_ns, self.calls as f64) / 1e3
    }

    pub fn self_sim_us_per_call(&self) -> f64 {
        crate::util::ratio(self.self_sim_ns, self.calls as f64) / 1e3
    }
}

/// Self and total time per span name. Children of one span never
/// overlap (a thread runs one call at a time), so the covered part is
/// the sum of the children's durations.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_wall: BTreeMap<u64, f64> = BTreeMap::new();
    let mut child_sim: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_wall.entry(p).or_default() += s.wall_ns();
            *child_sim.entry(p).or_default() += s.sim_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.wall_ns += s.wall_ns();
        t.sim_ns += s.sim_ns();
        t.self_wall_ns += s.wall_ns() - child_wall.get(&s.id).copied().unwrap_or(0.0);
        t.self_sim_ns += s.sim_ns() - child_sim.get(&s.id).copied().unwrap_or(0.0);
    }
    out
}

/// Write spans as JSON lines (one span per line) to `path`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut s = String::with_capacity(spans.len() * 160);
    for sp in spans {
        let _ = write!(
            s,
            "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"item\": {}, \"rank\": {}, \
             \"wall_start_ns\": {}, \"wall_end_ns\": {}",
            sp.id,
            sp.parent.map(|p| p.to_string()).unwrap_or("null".into()),
            json_str(sp.name),
            sp.item,
            if sp.rank == usize::MAX {
                "null".to_string()
            } else {
                sp.rank.to_string()
            },
            json_num(sp.wall.0),
            json_num(sp.wall.1),
        );
        if let Some((a, b)) = sp.sim {
            let _ = write!(
                s,
                ", \"sim_start_ns\": {}, \"sim_end_ns\": {}",
                json_num(a),
                json_num(b)
            );
        }
        s.push_str("}\n");
    }
    std::fs::write(path, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer { on: true };
        t.span("outer", 7, None, || {
            std::thread::sleep(std::time::Duration::from_millis(4));
            t.span("inner", 7, None, || {
                std::thread::sleep(std::time::Duration::from_millis(6))
            });
        });
        t.flush();
        let spans: Vec<Span> = take_spans().into_iter().filter(|s| s.item == 7).collect();
        assert_eq!(spans.len(), 2);
        let lt = layer_times(&spans);
        let outer = &lt["outer"];
        let inner = &lt["inner"];
        assert!(inner.wall_ns >= 6e6);
        assert!(outer.wall_ns >= inner.wall_ns + 4e6);
        assert!((outer.self_wall_ns - (outer.wall_ns - inner.wall_ns)).abs() < 1.0);
        assert_eq!(
            spans.iter().find(|s| s.name == "inner").unwrap().parent,
            Some(spans.iter().find(|s| s.name == "outer").unwrap().id)
        );
    }
}
