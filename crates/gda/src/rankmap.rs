//! The canonical home of **rank-ownership math** — and the
//! snapshot-rank → live-rank map behind elastic resharding.
//!
//! Ownership used to be baked into every layer as ad-hoc modulo
//! arithmetic: vertex owners in `dptr`, DHT key placement in `dht`,
//! request routing in the server. That was harmless while a database
//! only ever ran on the topology it was created with — but restoring a
//! `P`-rank snapshot onto `Q ≠ P` ranks means *every one* of those
//! formulas changes meaning, and any copy that silently keeps using the
//! old rank count corrupts data. This module therefore owns the
//! formulas ([`vertex_owner`], [`dht_rank`], [`dht_bucket`]) — the
//! other layers delegate — and packages the two topologies of a
//! resharded recovery into a [`RankMap`]:
//!
//! * **snapshot ranks** (`P`): the topology that wrote the snapshot and
//!   the redo logs being restored;
//! * **live ranks** (`Q`): the topology of the fabric being booted;
//! * a deterministic assignment of snapshot shards to live readers
//!   ([`RankMap::shard_reader`]), so the `P` snapshot files and logs
//!   are consumed exactly once with no coordination.
//!
//! The map is intentionally *pure data* (two integers): live migration
//! can later extend it with an explicit old-rank → new-rank relocation
//! table without touching the call sites.

use gdi::AppVertexId;

use crate::dht::hash64;

/// Round-robin owner rank of an application vertex id (§5.4: "use
/// round-robin distribution"). The single authoritative copy — every
/// layer that places or routes by vertex id must call this (or
/// [`crate::dptr::owner_rank`], which delegates here).
#[inline]
pub fn vertex_owner(app: AppVertexId, nranks: usize) -> usize {
    (app.0 % nranks as u64) as usize
}

/// Rank whose index window holds a DHT key's chain (placement half of
/// the paper's `h(k) mod P` scheme).
#[inline]
pub fn dht_rank(key: u64, nranks: usize) -> usize {
    (hash64(key) % nranks as u64) as usize
}

/// Bucket index of a DHT key on its placement rank (`(h(k)/P) mod B` —
/// dividing by `P` decorrelates the bucket choice from the rank choice).
#[inline]
pub fn dht_bucket(key: u64, nranks: usize, nbuckets: usize) -> usize {
    ((hash64(key) / nranks as u64) % nbuckets as u64) as usize
}

/// The snapshot-rank → live-rank → key-ownership map of one recovery.
///
/// For a same-topology recovery this is the identity; for a resharded
/// recovery it relates the `P` on-disk shards to the `Q` live ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankMap {
    snapshot_ranks: usize,
    live_ranks: usize,
}

impl RankMap {
    /// The identity map of an `n`-rank topology (normal operation and
    /// same-topology recovery).
    pub fn identity(n: usize) -> Self {
        Self::resharded(n, n)
    }

    /// A map restoring `snapshot_ranks` on-disk shards onto
    /// `live_ranks` live ranks.
    pub fn resharded(snapshot_ranks: usize, live_ranks: usize) -> Self {
        assert!(snapshot_ranks >= 1, "need at least one snapshot rank");
        assert!(live_ranks >= 1, "need at least one live rank");
        Self {
            snapshot_ranks,
            live_ranks,
        }
    }

    /// Number of ranks the snapshot was written by (`P`).
    #[inline]
    pub fn snapshot_ranks(&self) -> usize {
        self.snapshot_ranks
    }

    /// Number of ranks being booted (`Q`).
    #[inline]
    pub fn live_ranks(&self) -> usize {
        self.live_ranks
    }

    /// Is this a same-topology map?
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.snapshot_ranks == self.live_ranks
    }

    /// Owner rank of a vertex under the **live** topology.
    #[inline]
    pub fn vertex_owner(&self, app: AppVertexId) -> usize {
        vertex_owner(app, self.live_ranks)
    }

    /// DHT placement rank of a key under the **live** topology.
    #[inline]
    pub fn dht_rank(&self, key: u64) -> usize {
        dht_rank(key, self.live_ranks)
    }

    /// The live rank responsible for reading snapshot shard `s` (its
    /// snapshot file and redo segment) during a restore.
    /// Round-robin over the live ranks: every shard has exactly one
    /// reader, and shards spread evenly over readers for `Q < P`.
    #[inline]
    pub fn shard_reader(&self, snapshot_rank: usize) -> usize {
        debug_assert!(snapshot_rank < self.snapshot_ranks);
        snapshot_rank % self.live_ranks
    }

    /// The snapshot shards a live rank reads (inverse of
    /// [`RankMap::shard_reader`]).
    pub fn shards_for(&self, live_rank: usize) -> Vec<usize> {
        (0..self.snapshot_ranks)
            .filter(|s| self.shard_reader(*s) == live_rank)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The formulas here are the on-disk/placement contract: `dptr` and
    /// `dht` delegate to them, and this test pins the exact values so a
    /// refactor cannot silently change where existing data lives.
    #[test]
    fn ownership_formulas_are_pinned() {
        assert_eq!(vertex_owner(AppVertexId(0), 4), 0);
        assert_eq!(vertex_owner(AppVertexId(5), 4), 1);
        assert_eq!(vertex_owner(AppVertexId(7), 1), 0);
        for key in [0u64, 1, 17, 1_000_003] {
            for p in [1usize, 2, 5, 8] {
                assert_eq!(dht_rank(key, p), (hash64(key) % p as u64) as usize);
                assert_eq!(
                    dht_bucket(key, p, 64),
                    ((hash64(key) / p as u64) % 64) as usize
                );
            }
        }
    }

    #[test]
    fn identity_map_round_trips() {
        let m = RankMap::identity(4);
        assert!(m.is_identity());
        assert_eq!(m.snapshot_ranks(), 4);
        assert_eq!(m.live_ranks(), 4);
        for app in 0..16u64 {
            assert_eq!(
                m.vertex_owner(AppVertexId(app)),
                vertex_owner(AppVertexId(app), 4)
            );
        }
    }

    #[test]
    fn shard_assignment_covers_every_shard_exactly_once() {
        for (p, q) in [(2usize, 8usize), (8, 2), (4, 5), (5, 4), (3, 1), (1, 3)] {
            let m = RankMap::resharded(p, q);
            assert!(!m.is_identity() || p == q);
            let mut seen = vec![0usize; p];
            for live in 0..q {
                for s in m.shards_for(live) {
                    assert_eq!(m.shard_reader(s), live);
                    seen[s] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "P={p} Q={q}: {seen:?}");
            // readers are balanced within one shard
            let loads: Vec<usize> = (0..q).map(|l| m.shards_for(l).len()).collect();
            let (min, max) = (loads.iter().min().unwrap(), loads.iter().max().unwrap());
            assert!(max - min <= 1, "unbalanced shard readers: {loads:?}");
        }
    }

    #[test]
    fn reshard_changes_vertex_owner_consistently() {
        let m = RankMap::resharded(2, 5);
        for app in 0..20u64 {
            assert_eq!(m.vertex_owner(AppVertexId(app)), (app % 5) as usize);
            assert_eq!(m.dht_rank(app), dht_rank(app, 5));
        }
    }
}
