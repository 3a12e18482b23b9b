//! Differential tests for the declarative query layer (`crates/query`).
//!
//! * a property-based sweep: for randomized graphs and randomized query
//!   shapes, the planner-picked plan AND every viable forced path must
//!   return exactly the sequential generator-space oracle
//!   (`workloads::queries::reference_eval`), on 1-, 2- and 4-rank
//!   fabrics;
//! * the durable axis: the same differential contract holds against a
//!   database that was checkpointed, killed and recovered from its
//!   snapshot (index postings included);
//! * a golden test pinning the stable [`query::Plan::explain`] format.

use proptest::prelude::*;

use gda::persist::{recover, PersistOptions};
use gda::{GdaDb, IndexDef, IndexId};
use gdi::{AppVertexId, CmpOp, EdgeOrientation, LabelId, PTypeId};
use graphgen::{sized_config, GraphSpec, LpgMeta};
use query::{executor, planner, AggTarget, Query, QueryBuilder, QueryValue};
use rma::CostModel;
use workloads::queries::{load_with_label_indexes, reference_eval, suite, SuiteParams};
use workloads::scratch::ScratchDir;

fn rich_spec(scale: u32, edge_factor: u32, seed: u64) -> GraphSpec {
    GraphSpec {
        scale,
        edge_factor,
        seed,
        lpg: graphgen::LpgConfig {
            num_labels: 4,
            num_ptypes: 4,
            labels_per_vertex: 2,
            props_per_vertex: 3,
            edge_label_fraction: 1.0,
            ..Default::default()
        },
    }
}

// ---------------------------------------------------------------------
// Randomized query shapes (generator index space; resolved to ids once
// the metadata is installed)
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct ExpandSketch {
    orient: EdgeOrientation,
    edge_label: Option<usize>,
    target_label: Option<usize>,
    target_prop: Option<(usize, u64)>,
}

#[derive(Debug, Clone)]
struct QuerySketch {
    root_label: Option<usize>,
    root_prop: Option<(usize, CmpOp, u64)>,
    app_id: Option<u64>,
    expands: Vec<ExpandSketch>,
    close: bool,
    agg: u8, // 0 count, 1 sum, 2 collect
    sum_prop: usize,
    target_last: bool,
}

fn arb_orient() -> impl Strategy<Value = EdgeOrientation> {
    prop_oneof![
        Just(EdgeOrientation::Outgoing),
        Just(EdgeOrientation::Outgoing),
        Just(EdgeOrientation::Any),
        Just(EdgeOrientation::Incoming),
    ]
}

fn arb_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Gt),
        Just(CmpOp::Le),
        Just(CmpOp::Ne),
        Just(CmpOp::Ge),
    ]
}

fn arb_expand() -> impl Strategy<Value = ExpandSketch> {
    (
        arb_orient(),
        prop::option::of(0usize..4),
        prop::option::of(0usize..4),
        prop::option::of((0usize..4, any::<u64>())),
    )
        .prop_map(
            |(orient, edge_label, target_label, target_prop)| ExpandSketch {
                orient,
                edge_label,
                target_label,
                target_prop,
            },
        )
}

fn arb_query() -> impl Strategy<Value = QuerySketch> {
    (
        prop::option::of(0usize..4),
        prop::option::of((0usize..4, arb_op(), any::<u64>())),
        prop::option::of(0u64..96),
        prop::collection::vec(arb_expand(), 0..4),
        any::<bool>(),
        0u8..3,
        0usize..4,
        any::<bool>(),
    )
        .prop_map(
            |(root_label, root_prop, app_id, expands, close, agg, sum_prop, target_last)| {
                QuerySketch {
                    root_label,
                    root_prop,
                    app_id,
                    expands,
                    close,
                    agg,
                    sum_prop,
                    target_last,
                }
            },
        )
}

fn build_query(meta: &LpgMeta, s: &QuerySketch) -> Query {
    let mut b = QueryBuilder::node("a");
    if let Some(l) = s.root_label {
        b = b.label(meta.label(l));
    }
    if let Some((p, op, v)) = s.root_prop {
        b = b.prop(meta.ptype(p), op, gdi::PropertyValue::U64(v));
    }
    if let Some(a) = s.app_id {
        b = b.with_app_id(AppVertexId(a));
    }
    let n = s.expands.len();
    for (i, e) in s.expands.iter().enumerate() {
        b = b.expand(e.orient, e.edge_label.map(|l| meta.label(l)));
        if s.close && i == n - 1 {
            b = b.close_cycle();
            continue;
        }
        b = b.to(&format!("v{}", i + 1));
        if let Some(l) = e.target_label {
            b = b.label(meta.label(l));
        }
        if let Some((p, v)) = e.target_prop {
            b = b.prop_gt(meta.ptype(p), v);
        }
    }
    let target = if s.target_last {
        AggTarget::Last
    } else {
        AggTarget::Root
    };
    match s.agg {
        0 => b.count(target),
        1 => b.sum(target, meta.ptype(s.sum_prop)),
        _ => b.collect_ids(target),
    }
}

/// Run every query `build` makes from the installed metadata through
/// the planner-picked plan and every viable forced choice on a fresh
/// `nranks`-rank database; every result must equal the sequential
/// oracle.
fn assert_all_paths_match<F>(nranks: usize, spec: &GraphSpec, build: F)
where
    F: Fn(&LpgMeta) -> Vec<Query> + Sync,
{
    let cfg = sized_config(spec, nranks);
    let (db, fabric) = GdaDb::with_fabric("qdiff", cfg, nranks, CostModel::zero());
    let spec = *spec;
    let outcomes = fabric.run(move |ctx| {
        let eng = db.attach(ctx);
        eng.init_collective();
        let (meta, _) = load_with_label_indexes(&eng, &spec);
        let _ = eng.olap_view();
        let cat = planner::Catalog::gather(&eng);
        let mut failures: Vec<String> = Vec::new();
        for (qi, q) in build(&meta).into_iter().enumerate() {
            let want = reference_eval(&spec, &meta, &q);
            let picked = planner::plan(&cat, &q);
            let got = executor::execute(&eng, &q, &picked);
            if got.value != want {
                failures.push(format!(
                    "query {qi} [{}] planner pick {}: got {:?}, oracle {:?}",
                    q.display(),
                    picked.choice,
                    got.value,
                    want
                ));
            }
            for choice in planner::viable_choices(&cat, &q) {
                let Some(plan) = planner::plan_choice(&cat, &q, choice) else {
                    continue;
                };
                let got = executor::execute(&eng, &q, &plan);
                if got.value != want {
                    failures.push(format!(
                        "query {qi} [{}] forced {}: got {:?}, oracle {:?}",
                        q.display(),
                        choice,
                        got.value,
                        want
                    ));
                }
            }
        }
        failures
    });
    if let Some(f) = outcomes.into_iter().flatten().next() {
        panic!("{f}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// planner pick ≡ every forced path ≡ sequential oracle, for
    /// arbitrary query shapes on arbitrary small graphs, P ∈ {1, 2, 4}.
    #[test]
    fn randomized_queries_match_oracle_on_all_paths(
        scale in 5u32..=6,
        edge_factor in 2u32..=6,
        seed in 0u64..1000,
        pidx in 0usize..3,
        sketches in prop::collection::vec(arb_query(), 3..4),
    ) {
        let nranks = [1usize, 2, 4][pidx];
        let spec = rich_spec(scale, edge_factor, seed);
        assert_all_paths_match(nranks, &spec, move |meta| {
            sketches.iter().map(|s| build_query(meta, s)).collect()
        });
    }
}

// ---------------------------------------------------------------------
// Deterministic shapes for the executor's column liveness and grouped
// frontier probes
// ---------------------------------------------------------------------

/// Shapes where the `root` column stays live past open hops, cycles
/// close under `Any` orientation or an edge label, and `sum`/`collect`
/// run on both targets.
fn liveness_shapes(meta: &LpgMeta) -> Vec<Query> {
    let (l0, l1, l2) = (meta.label(0), meta.label(1), meta.label(2));
    let (p0, p1, p2) = (meta.ptype(0), meta.ptype(1), meta.ptype(2));
    let two_open_hops = || {
        QueryBuilder::node("a")
            .prop_gt(p0, u64::MAX / 2)
            .expand_out(None)
            .to("b")
            .expand_out(None)
            .to("c")
            .prop_gt(p1, u64::MAX / 4)
    };
    let any_close = || {
        QueryBuilder::node("a")
            .label(l0)
            .expand_any(None)
            .to("b")
            .expand_any(None)
            .to("c")
            .expand_any(None)
            .close_cycle()
    };
    let labeled_close = || {
        QueryBuilder::node("a")
            .expand_out(Some(l1))
            .to("b")
            .label(l2)
            .expand_out(None)
            .to("c")
            .expand_out(Some(l1))
            .close_cycle()
    };
    let self_close = || QueryBuilder::node("a").expand_out(None).close_cycle();
    vec![
        // root stays live after two open hops
        two_open_hops().count(AggTarget::Root),
        two_open_hops().sum(AggTarget::Root, p2),
        two_open_hops().collect_ids(AggTarget::Root),
        two_open_hops().sum(AggTarget::Last, p2),
        two_open_hops().collect_ids(AggTarget::Last),
        // cycles closed under `Any` orientation
        any_close().count(AggTarget::Root),
        any_close().sum(AggTarget::Last, p0),
        any_close().collect_ids(AggTarget::Last),
        // cycles closed with an edge label
        labeled_close().count(AggTarget::Root),
        labeled_close().collect_ids(AggTarget::Root),
        labeled_close().sum(AggTarget::Last, p1),
        labeled_close().count(AggTarget::Last),
        // a one-step cycle: the self-loops
        self_close().collect_ids(AggTarget::Root),
        self_close().sum(AggTarget::Last, p2),
        // a closing step in the middle of the chain: `root` dies after it
        QueryBuilder::node("a")
            .label(l1)
            .expand_any(Some(l0))
            .to("b")
            .expand_any(None)
            .close_cycle()
            .expand_out(None)
            .to("c")
            .collect_ids(AggTarget::Last),
    ]
}

#[test]
fn liveness_shapes_match_oracle_on_all_paths() {
    for nranks in [1usize, 2, 4] {
        assert_all_paths_match(nranks, &rich_spec(6, 6, 31), liveness_shapes);
    }
}

/// A dense 16-vertex Kronecker graph is full of self-loops and parallel
/// edges: every frontier group meets repeated adjacency entries.
#[test]
fn self_loops_and_multi_edges_match_oracle_on_all_paths() {
    let spec = rich_spec(4, 16, 5);
    let edges = spec.edges_for_rank(0, 1);
    assert!(edges.iter().any(|(u, v)| u == v), "no self-loop");
    let mut distinct = edges.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert!(distinct.len() < edges.len(), "no multi-edge");
    for nranks in [1usize, 2, 4] {
        assert_all_paths_match(nranks, &spec, liveness_shapes);
    }
}

// ---------------------------------------------------------------------
// Durable axis: differential contract after checkpoint + crash + recover
// ---------------------------------------------------------------------

/// Reconstruct the generator's metadata handles from a recovered
/// catalog by the names `install_metadata` gave them.
fn remeta(eng: &gda::GdaRank, spec: &GraphSpec) -> LpgMeta {
    let snap = eng.meta();
    LpgMeta {
        labels: (0..spec.lpg.num_labels)
            .map(|i| snap.label_from_name(&format!("L{i}")).expect("label"))
            .collect(),
        ptypes: (0..spec.lpg.num_ptypes)
            .map(|i| snap.ptype_from_name(&format!("P{i}")).expect("ptype"))
            .collect(),
        all_index: eng
            .all_indexes()
            .into_iter()
            .find(|d| d.name == "__all")
            .map(|d| d.id),
    }
}

#[test]
fn suite_matches_oracle_after_recovery() {
    let spec = rich_spec(6, 8, 17);
    let params = SuiteParams::default();
    let nranks = 3;
    let td = ScratchDir::new("query-recover");
    {
        let cfg = sized_config(&spec, nranks);
        let (db, fabric) = GdaDb::with_fabric("qdur", cfg, nranks, CostModel::zero());
        db.enable_persistence(PersistOptions::new(td.path()))
            .unwrap();
        fabric.run(|ctx| {
            let eng = db.attach(ctx);
            eng.init_collective();
            let _ = load_with_label_indexes(&eng, &spec);
            eng.checkpoint().unwrap();
        });
        // drop: the crash — everything in memory is lost
    }
    let (db, fabric, plan) = recover(PersistOptions::new(td.path()), CostModel::zero()).unwrap();
    let outcomes = fabric.run(|ctx| {
        let eng = db.attach(ctx);
        let rec = plan.restore_rank(&eng).unwrap();
        assert_eq!(rec.errors, 0, "replay errors: {rec:?}");
        ctx.barrier();
        let meta = remeta(&eng, &spec);
        let _ = eng.olap_view();
        let cat = planner::Catalog::gather(&eng);
        // the recovered database must still carry the per-label postings
        assert!(
            cat.indexes
                .iter()
                .any(|ix| ix.def.name == "lab1" && ix.entries > 0),
            "per-label index postings lost in recovery: {:?}",
            cat.indexes
        );
        let mut results = Vec::new();
        for (name, q) in suite(&meta, &params) {
            let want = reference_eval(&spec, &meta, &q);
            let picked = planner::plan(&cat, &q);
            let got = executor::execute(&eng, &q, &picked);
            assert_eq!(
                got.value, want,
                "{name} (picked {}) diverged",
                picked.choice
            );
            for choice in planner::viable_choices(&cat, &q) {
                let Some(p) = planner::plan_choice(&cat, &q, choice) else {
                    continue;
                };
                let got = executor::execute(&eng, &q, &p);
                assert_eq!(got.value, want, "{name} (forced {choice}) diverged");
            }
            results.push((name, got.value));
        }
        results
    });
    // every rank agrees with rank 0
    let first = outcomes[0].clone();
    for o in &outcomes[1..] {
        assert_eq!(o, &first);
    }
    // sanity: the suite is not trivially empty on this graph
    assert!(first
        .iter()
        .any(|(_, v)| !matches!(v, QueryValue::Count(0) | QueryValue::Sum(0))));
}

// ---------------------------------------------------------------------
// Golden explain format
// ---------------------------------------------------------------------

fn golden_catalog() -> planner::Catalog {
    planner::Catalog {
        nranks: 4,
        n_vertices: 4096,
        n_labels: 4,
        indexes: vec![
            planner::IndexStat {
                def: IndexDef {
                    id: IndexId(1),
                    name: "__all".to_string(),
                    labels: vec![],
                    ptypes: vec![],
                },
                entries: 4096,
            },
            planner::IndexStat {
                def: IndexDef {
                    id: IndexId(2),
                    name: "lab1".to_string(),
                    labels: vec![LabelId(1)],
                    ptypes: vec![],
                },
                entries: 2048,
            },
        ],
        deg_out: 8.0,
        deg_any: 16.0,
        view_cached: true,
        cost: CostModel::default(),
        meta_epoch: 1,
    }
}

/// `Plan::explain` is a stable text format: tools (and humans) parse it,
/// so any change must be deliberate — update the golden string when it
/// is.
#[test]
fn explain_format_is_stable() {
    let cat = golden_catalog();
    let q = QueryBuilder::node("p")
        .label(LabelId(1))
        .prop_gt(PTypeId(10), 100)
        .expand_out(Some(LabelId(2)))
        .to("c")
        .label(LabelId(3))
        .prop_gt(PTypeId(11), 200)
        .count(AggTarget::Root);
    let plan = planner::plan(&cat, &q);
    let golden = "\
query: MATCH (p:#1)-[:#2]->(c:#3) RETURN count(DISTINCT p)
choice: index-scan(ix2)+csr est=0.152ms rows~227.6 [view]
  stage 1: index-scan[lab1] (p labels=1 props=1) rows~682.7 est=0.041ms
  stage 2: expand-csr out[lbl] to (c labels=1 props=1) rows~227.6 est=0.104ms
  stage 3: count(distinct p) rows~227.6 est=0.006ms
alternatives:
  index-scan(ix2)+csr      0.152ms
  sweep+csr                0.192ms
  index-scan(ix2)+tx       0.881ms
  sweep+tx                 0.932ms
";
    assert_eq!(
        plan.explain(),
        golden,
        "explain drifted:\n---- got ----\n{}\n---- want ----\n{golden}",
        plan.explain()
    );
}
