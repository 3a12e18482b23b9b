//! Seeded op streams for the OLTP workloads.
//!
//! The stream is a pure function of the seed and the workload shape:
//! the program receives only these generated ops. Reads, updates and
//! edge inserts target the bulk-loaded base vertices (which are never
//! deleted); inserts create fresh ids above the base graph, and each
//! delete removes one of the stream's own earlier inserts, so no op of
//! a healthy run fails.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use gdi::{AppVertexId, PropertyValue};
use graphgen::{GraphSpec, LpgMeta};
use server::Op;
use workloads::oltp::{Mix, OpKind};

/// Update values carry this tag plus the op's stream index, so a value
/// read back names the update that wrote it.
pub const UPDATE_TAG: u64 = 1 << 40;

/// One op of the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    pub op: Op,
    /// Which of the two client sessions submits it.
    pub session: usize,
    /// For a delete: stream index of the insert it removes.
    pub after: Option<usize>,
}

/// Shape of a stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    pub mix: Mix,
    /// Base-graph vertices `[0, base)`.
    pub base: u64,
    /// Ops in the stream.
    pub len: usize,
    pub seed: u64,
    /// A delete removes an insert made at least this many ops earlier.
    pub delete_lag: usize,
    /// Sessions ops are spread over.
    pub sessions: usize,
}

/// Generate the stream.
pub fn op_stream(s: &StreamSpec, meta: &LpgMeta) -> Vec<Planned> {
    let mut rng = SmallRng::seed_from_u64(s.seed ^ 0x5EED_0F0B_57A3);
    let pick_ptype = |rng: &mut SmallRng| meta.ptype(rng.gen_range(0..meta.ptypes.len()));
    let mut inserts: std::collections::VecDeque<(usize, u64, usize)> = Default::default();
    let mut next_fresh = s.base;
    let mut out = Vec::with_capacity(s.len);
    for i in 0..s.len {
        let session = i % s.sessions;
        let base_v = |rng: &mut SmallRng| AppVertexId(rng.gen_range(0..s.base));
        let planned = match s.mix.sample(&mut rng) {
            OpKind::GetVertexProps => Planned {
                op: Op::GetVertexProps {
                    v: base_v(&mut rng),
                    ptype: Some(pick_ptype(&mut rng)),
                },
                session,
                after: None,
            },
            OpKind::CountEdges => Planned {
                op: Op::CountEdges {
                    v: base_v(&mut rng),
                },
                session,
                after: None,
            },
            OpKind::AddVertex => {
                let v = next_fresh;
                next_fresh += 1;
                inserts.push_back((i, v, session));
                Planned {
                    op: Op::AddVertex {
                        v: AppVertexId(v),
                        label: Some(meta.label(v as usize % meta.labels.len())),
                        prop: Some((meta.ptype(0), PropertyValue::U64(v))),
                    },
                    session,
                    after: None,
                }
            }
            OpKind::DeleteVertex if inserts.front().is_some_and(|f| f.0 + s.delete_lag <= i) => {
                let (at, v, sess) = inserts.pop_front().expect("checked");
                // same session as the insert: a per-rank replay keeps
                // the insert before its delete
                Planned {
                    op: Op::DeleteVertex { v: AppVertexId(v) },
                    session: sess,
                    after: Some(at),
                }
            }
            OpKind::UpdateVertexProp => Planned {
                op: Op::UpdateVertexProp {
                    v: base_v(&mut rng),
                    ptype: pick_ptype(&mut rng),
                    value: PropertyValue::U64(UPDATE_TAG | i as u64),
                },
                session,
                after: None,
            },
            OpKind::AddEdge => {
                let from = rng.gen_range(0..s.base);
                let to = (from + rng.gen_range(1..s.base)) % s.base;
                Planned {
                    op: Op::AddEdge {
                        from: AppVertexId(from),
                        to: AppVertexId(to),
                        label: Some(meta.label(rng.gen_range(0..meta.labels.len()))),
                    },
                    session,
                    after: None,
                }
            }
            // edge listing, and a delete with no old-enough insert
            OpKind::GetEdges | OpKind::DeleteVertex => Planned {
                op: Op::GetEdges {
                    v: base_v(&mut rng),
                },
                session,
                after: None,
            },
        };
        out.push(planned);
    }
    out
}

/// Any-orientation edge count of every generated vertex (a self-loop
/// counts at both ends, as the engine counts it).
pub fn generated_degrees(spec: &GraphSpec) -> Vec<u32> {
    let mut deg = vec![0u32; spec.n_vertices() as usize];
    for (u, v) in spec.edges_for_rank(0, 1) {
        deg[u as usize] += 1;
        deg[v as usize] += 1;
    }
    deg
}

/// The vertex ids an op touches.
pub fn op_vertices(op: &Op) -> [Option<u64>; 2] {
    match op {
        Op::AddEdge { from, to, .. } => [Some(from.0), Some(to.0)],
        other => [Some(other.routing_vertex().0), None],
    }
}

/// Shift an op's fresh (non-base) vertex ids by `offset`: lets the
/// direct-replay passes re-run a stream's inserts and deletes without
/// colliding with the served run's ids.
pub fn remap_fresh(op: &Op, base: u64, offset: u64) -> Op {
    let shift = |v: AppVertexId| {
        if v.0 >= base {
            AppVertexId(v.0 + offset)
        } else {
            v
        }
    };
    match op.clone() {
        Op::AddVertex { v, label, prop } => Op::AddVertex {
            v: shift(v),
            label,
            prop,
        },
        Op::DeleteVertex { v } => Op::DeleteVertex { v: shift(v) },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> LpgMeta {
        LpgMeta {
            labels: vec![gdi::LabelId(1), gdi::LabelId(2)],
            ptypes: vec![gdi::PTypeId(3), gdi::PTypeId(4)],
            all_index: None,
        }
    }

    fn spec(seed: u64) -> StreamSpec {
        StreamSpec {
            mix: Mix::LINKBENCH,
            base: 1 << 10,
            len: 5000,
            seed,
            delete_lag: 50,
            sessions: 2,
        }
    }

    #[test]
    fn one_seed_gives_one_stream() {
        let a = op_stream(&spec(7), &meta());
        let b = op_stream(&spec(7), &meta());
        assert_eq!(a, b);
        let c = op_stream(&spec(8), &meta());
        assert_ne!(a, c);
    }

    #[test]
    fn deletes_follow_their_inserts() {
        let s = op_stream(&spec(3), &meta());
        let mut deletes = 0;
        for (i, p) in s.iter().enumerate() {
            if let Op::DeleteVertex { v } = p.op {
                deletes += 1;
                let at = p.after.expect("delete names its insert");
                assert!(at + 50 <= i);
                assert_eq!(s[at].session, p.session);
                assert!(matches!(s[at].op, Op::AddVertex { v: w, .. } if w == v));
            }
            if let Op::AddEdge { from, to, .. } = p.op {
                assert_ne!(from, to);
                assert!(from.0 < 1 << 10 && to.0 < 1 << 10);
            }
        }
        assert!(deletes > 0);
    }
}
