//! Collective executor: run a [`Plan`] against a [`GdaRank`].
//!
//! Execution is **collective and symmetric**: every rank calls
//! [`execute`] with the *same* query and plan (plan with a
//! [`Catalog`](crate::planner::Catalog) from
//! [`Catalog::gather`](crate::planner::Catalog::gather) — it is
//! collective precisely so all ranks cost identically), and every
//! collective below fires in plan order on all ranks. Two ranks
//! disagreeing on a plan would deadlock the fabric.
//!
//! The executor carries bindings as `(cur, root)` pairs — the newest
//! and the first chain vertex, which is all the supported projections
//! need — and keeps a column only while a later step reads it. `cur`
//! feeds every expansion. `root` stays **live** only while a later step
//! closes a cycle back to it or the projection aggregates over it
//! ([`AggTarget::Root`]); otherwise it is nulled out. After every stage
//! the bindings are sorted by `(cur, root)` and deduplicated, so a dead
//! root collapses them to the distinct frontier.
//!
//! - **driving stage**: point lookup (one DHT translation, owner rank
//!   keeps the binding; a deleted id is an empty result, not an error),
//!   local index-posting scan ([`gda::Transaction::local_index_scan`]),
//!   or full-partition sweep over the collective [`gda::CsrView`];
//! - **expand stages** probe each distinct frontier vertex once: its
//!   adjacency is read a single time for its whole group of roots. A
//!   cycle-closing step tests the group's sorted roots against that
//!   adjacency; an open step records `(neighbor, group)` pairs and then
//!   joins each distinct neighbor with the merged roots of its groups.
//!   The adjacency comes from the transaction — one pipelined
//!   [`gda::Transaction::prefetch_holders`] batch for the frontier's
//!   holders (and one for the candidate targets a filter must read),
//!   then one [`gda::Transaction::neighbors`] call per frontier vertex —
//!   or from Csr routing: bindings travel to the rank owning `cur` via
//!   `alltoallv` (only `cur` when `root` is dead) and probe its cached
//!   view slice, with a broadcast semi-join of qualifying target ids
//!   when the target pattern filters (the view has no vertex
//!   labels/properties);
//! - **aggregate stage**: bindings are projected to the target column
//!   and deduplicated locally, routed to their owner rank for
//!   machine-wide dedup, then combined with `allreduce`/`allgatherv`
//!   (sums are wrapping: generator properties span the full `u64`
//!   range).

use rustc_hash::FxHashSet;

use gda::{DPtr, GdaRank, Transaction};
use gdi::{
    AccessMode, Constraint, EdgeOrientation, GdiError, GdiResult, PropertyValue, Subconstraint,
};

use crate::ast::{AggTarget, Aggregate, NodePattern, Query};
use crate::physical::{AccessPath, ExpandPath, QueryOutput, QueryValue, StageStats};
use crate::planner::Plan;

/// Does `v` satisfy the pattern's label + property predicates (app-id
/// excluded — the driving stages handle it)?
fn node_matches(tx: &Transaction, v: DPtr, p: &NodePattern) -> GdiResult<bool> {
    for l in &p.labels {
        if !tx.has_label(v, *l)? {
            return Ok(false);
        }
    }
    for f in &p.props {
        let Some(val) = tx.property(v, f.ptype)? else {
            return Ok(false);
        };
        if !f.op.eval(val.cmp_total(&f.value)) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The pattern as a storage-side DNF constraint (one conjunctive
/// subconstraint), stamped with the current metadata epoch.
fn pattern_constraint(p: &NodePattern, epoch: u64) -> Constraint {
    let mut sub = Subconstraint::new();
    for l in &p.labels {
        sub = sub.with_label(*l);
    }
    for f in &p.props {
        sub = sub.with_prop(f.ptype, f.op, f.value.clone());
    }
    Constraint::from_sub(sub).at_epoch(epoch)
}

/// A binding keyed by its frontier vertex: `(cur, root)`, with `root`
/// [`DPtr::NULL`] once no later step reads it.
type Binding = (DPtr, DPtr);

/// Is `root` still read after the first `done` expansions: by a later
/// cycle-closing step, or by the projection?
fn root_live(q: &Query, done: usize) -> bool {
    q.returns.target == AggTarget::Root || q.expands[done..].iter().any(|e| e.close_to_root)
}

/// Project and deduplicate: null out a dead `root`, then sort by
/// `(cur, root)` and drop repeats, so each distinct frontier vertex forms
/// one contiguous group of distinct, sorted roots.
fn settle(bind: &mut Vec<Binding>, live: bool) {
    if !live {
        for b in bind.iter_mut() {
            b.1 = DPtr::NULL;
        }
    }
    bind.sort_unstable();
    bind.dedup();
}

/// What probing one expand stage's frontier groups yields.
#[derive(Default)]
struct Probed {
    /// Closing step: the `(cur, root)` bindings whose `root` is a
    /// neighbor of `cur` (`cur` stays the last non-closing variable).
    closed: Vec<Binding>,
    /// Open step: `(neighbor, group index)` for every qualifying
    /// neighbor of the group's `cur`.
    edges: Vec<(DPtr, usize)>,
}

impl Probed {
    /// Probe frontier group `gi` (one `cur`, sorted distinct roots)
    /// against `cur`'s adjacency `nbrs`, read once for the whole group;
    /// an open step keeps the neighbors passing `keep`. Returns the
    /// entries inspected.
    fn group(
        &mut self,
        gi: usize,
        group: &[Binding],
        nbrs: impl Iterator<Item = DPtr>,
        close: bool,
        keep: impl Fn(DPtr) -> bool,
    ) -> u64 {
        let mut inspected = 0u64;
        for t in nbrs {
            inspected += 1;
            if close {
                if group.binary_search_by_key(&t, |b| b.1).is_ok() {
                    self.closed.push((group[0].0, t));
                }
            } else if keep(t) {
                self.edges.push((t, gi));
            }
        }
        inspected
    }

    /// The stage's bindings: the closed ones, or every open edge's
    /// neighbor joined with the roots of its group. The join runs per
    /// distinct neighbor, merging its groups' sorted root lists, so it
    /// emits `(cur, root)` order without sorting the whole output.
    fn into_bindings(mut self, groups: &[&[Binding]]) -> Vec<Binding> {
        if self.edges.is_empty() {
            return self.closed;
        }
        self.edges.sort_unstable();
        self.edges.dedup();
        let mut out = Vec::with_capacity(self.edges.len());
        let mut roots = Vec::new();
        for run in self.edges.chunk_by(|a, b| a.0 == b.0) {
            roots.clear();
            for &(_, gi) in run {
                roots.extend(groups[gi].iter().map(|b| b.1));
            }
            // stable sort: merges the already sorted per-group runs
            roots.sort();
            roots.dedup();
            out.extend(roots.iter().map(|&r| (run[0].0, r)));
        }
        out
    }
}

/// Execute `plan` collectively. Every rank must call this with the same
/// `q`/`plan`; the returned [`QueryValue`] is identical on all ranks,
/// the per-stage counters are this rank's share.
pub fn execute(eng: &GdaRank, q: &Query, plan: &Plan) -> QueryOutput {
    let ctx = eng.ctx();
    ctx.record_query_exec();
    let nranks = eng.nranks();
    let epoch = eng.meta_epoch();
    // the view rendezvous is collective: it must run before the read
    // transaction's own collectives, in plan order
    let view = plan.uses_view.then(|| eng.olap_view());
    let tx = eng.begin_collective(AccessMode::ReadOnly);
    let mut stages: Vec<StageStats> = Vec::new();
    let record = |stages: &mut Vec<StageStats>, si: usize, rows: u64, expanded: u64, bytes: u64| {
        ctx.record_query_stage(rows, expanded, bytes);
        stages.push(StageStats {
            desc: plan
                .stages
                .get(si)
                .map(|s| s.desc.clone())
                .unwrap_or_default(),
            rows,
            expanded,
            comm_bytes: bytes,
        });
    };

    // ---- driving stage ---------------------------------------------------
    let mut bind: Vec<Binding> = match plan.choice.access {
        AccessPath::PointLookup => {
            let app = q.root.app_id.expect("point lookup requires an app-id");
            let mut b = Vec::new();
            match tx.translate_vertex_id(app) {
                // only the owner rank retains the binding, so dedup and
                // routing behave exactly like the scan paths
                Ok(v) if v.rank() == eng.rank() => {
                    if node_matches(&tx, v, &q.root).expect("root filter") {
                        b.push((v, v));
                    }
                }
                Ok(_) => {}
                // deleted or never-created id: an empty result (churn
                // safety — concurrent deletes must not panic readers)
                Err(GdiError::NotFound(_)) => {}
                Err(e) => panic!("point lookup failed: {e:?}"),
            }
            b
        }
        AccessPath::IndexScan(ix) => {
            let c = pattern_constraint(&q.root, epoch);
            tx.local_index_scan(ix, &c)
                .expect("index scan")
                .into_iter()
                .filter(|p| q.root.app_id.map(|a| a == p.app_id).unwrap_or(true))
                .map(|p| (p.vertex, p.vertex))
                .collect()
        }
        AccessPath::Sweep => {
            let view = view.as_ref().expect("sweep plans carry a view");
            let mut b = Vec::new();
            for i in 0..view.len() {
                if let Some(a) = q.root.app_id {
                    if view.apps[i] != a.0 {
                        continue;
                    }
                }
                let v = view.vids[i];
                if node_matches(&tx, v, &q.root).expect("root filter") {
                    b.push((v, v));
                }
            }
            b
        }
    };
    settle(&mut bind, root_live(q, 0));
    record(&mut stages, 0, bind.len() as u64, 0, 0);

    // ---- expand stages ---------------------------------------------------
    for (si, e) in q.expands.iter().enumerate() {
        let live = root_live(q, si);
        let mut expanded = 0u64;
        let mut bytes = 0u64;
        bind = match plan.choice.expand {
            ExpandPath::Tx => {
                // one pipelined batch fetches every frontier holder, and
                // one more every candidate target a filter must read;
                // the per-group probes below then hit the tx cache
                let groups: Vec<&[Binding]> = bind.chunk_by(|a, b| a.0 == b.0).collect();
                let curs: Vec<DPtr> = groups.iter().map(|g| g[0].0).collect();
                tx.prefetch_holders(&curs).expect("frontier holders");
                let adj: Vec<Vec<DPtr>> = curs
                    .iter()
                    .map(|&cur| tx.neighbors(cur, e.orient, e.edge_label))
                    .collect::<GdiResult<_>>()
                    .expect("expand neighbors");
                let filter = !(e.close_to_root || e.target.is_trivial());
                if filter {
                    tx.prefetch_holders(&adj.concat()).expect("target holders");
                }
                let keep = |t| !filter || node_matches(&tx, t, &e.target).expect("target filter");
                let mut probed = Probed::default();
                for (gi, nbrs) in adj.into_iter().enumerate() {
                    expanded +=
                        probed.group(gi, groups[gi], nbrs.into_iter(), e.close_to_root, keep);
                }
                probed.into_bindings(&groups)
            }
            ExpandPath::Csr => {
                let view = view.as_ref().expect("csr plans carry a view");
                // semi-join: every rank qualifies its local partition
                // against the target pattern and broadcasts the ids (the
                // view has no vertex attributes). Collective — gated on
                // query shape only, identical on all ranks.
                let qual: Option<FxHashSet<u64>> = if e.close_to_root || e.target.is_trivial() {
                    None
                } else {
                    let mut mine = Vec::new();
                    for i in 0..view.len() {
                        let v = view.vids[i];
                        if node_matches(&tx, v, &e.target).expect("target filter") {
                            mine.push(v.raw());
                        }
                    }
                    bytes += mine.len() as u64 * 8;
                    Some(ctx.allgatherv(mine).into_iter().flatten().collect())
                };
                // route each binding to the rank owning `cur`, whose
                // view holds its adjacency; a dead root is not sent.
                // Liveness is a function of the query shape, so every
                // rank issues the same collective.
                let mut routed: Vec<Binding> = if live {
                    let mut outbox: Vec<Vec<Binding>> = vec![Vec::new(); nranks];
                    for &b in &bind {
                        outbox[b.0.rank()].push(b);
                    }
                    bytes += bind.len() as u64 * 16;
                    ctx.alltoallv(outbox).into_iter().flatten().collect()
                } else {
                    let mut outbox: Vec<Vec<DPtr>> = vec![Vec::new(); nranks];
                    for &(cur, _) in &bind {
                        outbox[cur.rank()].push(cur);
                    }
                    bytes += bind.len() as u64 * 8;
                    ctx.alltoallv(outbox)
                        .into_iter()
                        .flatten()
                        .map(|cur| (cur, DPtr::NULL))
                        .collect()
                };
                // several senders may hold the same binding; each
                // sender's share arrives sorted, so the stable sort
                // merges `nranks` runs
                routed.sort();
                routed.dedup();
                let groups: Vec<&[Binding]> = routed.chunk_by(|a, b| a.0 == b.0).collect();
                let mut probed = Probed::default();
                for (gi, group) in groups.iter().enumerate() {
                    let Some(&row) = view.index_of.get(&group[0].0.raw()) else {
                        continue;
                    };
                    let (tgts, lbls) = match e.orient {
                        EdgeOrientation::Outgoing => (view.out(row), view.out_labels(row)),
                        EdgeOrientation::Any => (view.any(row), view.any_labels(row)),
                        EdgeOrientation::Incoming | EdgeOrientation::Undirected => {
                            unreachable!("the planner never assigns csr to in/undirected expands")
                        }
                    };
                    let nbrs = tgts
                        .iter()
                        .zip(lbls)
                        .filter(|(_, l)| e.edge_label.map(|el| **l == el.0).unwrap_or(true))
                        .map(|(t, _)| *t);
                    expanded += probed.group(gi, group, nbrs, e.close_to_root, |t| {
                        qual.as_ref().map(|s| s.contains(&t.raw())).unwrap_or(true)
                    });
                }
                probed.into_bindings(&groups)
            }
        };
        settle(&mut bind, root_live(q, si + 1));
        record(&mut stages, si + 1, bind.len() as u64, expanded, bytes);
    }

    // ---- aggregate stage -------------------------------------------------
    // project to the target column and dedup locally, then route each
    // target to its owner rank and dedup there: distinct-target
    // semantics without a global set
    let mut targets: Vec<DPtr> = bind
        .iter()
        .map(|&(cur, root)| match q.returns.target {
            AggTarget::Root => root,
            AggTarget::Last => cur,
        })
        .collect();
    targets.sort_unstable();
    targets.dedup();
    let mut outbox: Vec<Vec<u64>> = vec![Vec::new(); nranks];
    for v in targets {
        outbox[v.rank()].push(v.raw());
    }
    let routed: u64 = outbox.iter().map(|o| o.len() as u64 * 8).sum();
    let mine: FxHashSet<u64> = ctx.alltoallv(outbox).into_iter().flatten().collect();
    let value = match &q.returns.agg {
        Aggregate::Count => QueryValue::Count(ctx.allreduce_sum_u64(mine.len() as u64)),
        Aggregate::Sum(pt) => {
            let mut s = 0u64;
            for &raw in &mine {
                if let Some(PropertyValue::U64(x)) =
                    tx.property(DPtr::from_raw(raw), *pt).expect("sum property")
                {
                    s = s.wrapping_add(x);
                }
            }
            let total = ctx
                .allgatherv(vec![s])
                .into_iter()
                .flatten()
                .fold(0u64, |a, b| a.wrapping_add(b));
            QueryValue::Sum(total)
        }
        Aggregate::CollectIds => {
            let mut ids: Vec<u64> = mine
                .iter()
                .map(|&raw| {
                    tx.vertex_app_id(DPtr::from_raw(raw))
                        .expect("collect app id")
                        .0
                })
                .collect();
            ids.sort_unstable();
            let mut all: Vec<u64> = ctx.allgatherv(ids).into_iter().flatten().collect();
            all.sort_unstable();
            QueryValue::Ids(all)
        }
    };
    record(
        &mut stages,
        1 + q.expands.len(),
        mine.len() as u64,
        0,
        routed,
    );
    tx.commit().expect("collective read-only commit");
    QueryOutput { value, stages }
}

/// Convenience: collectively gather a catalog, plan and execute in one
/// call, returning the plan alongside the output.
pub fn run(eng: &GdaRank, q: &Query) -> (Plan, QueryOutput) {
    let cat = crate::planner::Catalog::gather(eng);
    let plan = crate::planner::plan(&cat, q);
    let out = execute(eng, q, &plan);
    (plan, out)
}
