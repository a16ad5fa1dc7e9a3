//! Degree-rank vertex relabeling.
//!
//! Orientation relabels vertices into **rank space**: vertex ids become
//! positions in the degree-based total order `≺` (Definition III.2), so
//! `u ≺ v ⟺ rank(u) < rank(v)`. In rank space every oriented
//! out-neighbour of `v` is numerically greater than `v`, which is what
//! lets the MGT inner loop intersect only the admissible suffix of
//! `N(u)` and prune whole out-lists against a chunk's resident window.
//! The map is `Θ(|V|)` memory — the same `|V| < PM` assumption the paper
//! already makes to hold the degree array in memory during orientation.
//!
//! [`RankMap`] carries both directions (`rank → original id` and
//! `original id → rank`) while orientation relabels the edges. Once
//! that is done only the forward table is kept ([`RankMap::into_ids`]):
//! it round-trips through a flat `u32` file (`base.map`, rank order,
//! read back by [`read_ids`]) so a replicated oriented graph ships its
//! mapping alongside `.deg`/`.adj`.

use std::path::Path;
use std::sync::Arc;

use pdtl_io::{IoStats, U32Reader, U32Writer};

use crate::error::Result;

/// A bijection between original vertex ids and degree-order ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankMap {
    /// `rank_to_id[r]` = original id of the vertex at rank `r`.
    rank_to_id: Vec<u32>,
    /// `id_to_rank[v]` = rank of original vertex `v`.
    id_to_rank: Vec<u32>,
}

impl RankMap {
    /// Build the rank map of the degree order `≺`: sort vertices by
    /// `(degree, id)` ascending, so `rank(u) < rank(v) ⟺ u ≺ v`.
    ///
    /// Implemented as a counting sort over the degree histogram —
    /// `O(|V| + d_max)` instead of `O(|V| log |V|)`, and ~5× faster in
    /// practice (degrees are small dense integers; `d_max < |V|`).
    /// Scattering ids in ascending order within each degree bucket
    /// reproduces the comparison sort's `(degree, id)` tie-break
    /// exactly.
    pub fn by_degree(degrees: &[u32]) -> Self {
        let n = degrees.len();
        let d_max = degrees.iter().copied().max().unwrap_or(0) as usize;
        // bucket[d + 1] counts vertices of degree d; prefix-summing
        // turns it into each bucket's first rank.
        let mut bucket = vec![0u32; d_max + 2];
        for &d in degrees {
            bucket[d as usize + 1] += 1;
        }
        for i in 1..bucket.len() {
            bucket[i] += bucket[i - 1];
        }
        let mut rank_to_id = vec![0u32; n];
        let mut id_to_rank = vec![0u32; n];
        for (id, &d) in degrees.iter().enumerate() {
            let r = bucket[d as usize];
            rank_to_id[r as usize] = id as u32;
            id_to_rank[id] = r;
            bucket[d as usize] += 1;
        }
        Self {
            rank_to_id,
            id_to_rank,
        }
    }

    /// The rank → id table alone ([`ids`](Self::ids)), for a holder
    /// that translates ranks to ids and never the other way: the id →
    /// rank half is freed.
    pub fn into_ids(self) -> Vec<u32> {
        self.rank_to_id
    }

    /// Original id of the vertex at `rank`.
    #[inline]
    pub fn to_id(&self, rank: u32) -> u32 {
        self.rank_to_id[rank as usize]
    }

    /// The full `rank → id` table (what the sink boundary indexes per
    /// emitted triangle).
    #[inline]
    pub fn ids(&self) -> &[u32] {
        &self.rank_to_id
    }

    /// The full `id → rank` table.
    #[inline]
    pub fn ranks(&self) -> &[u32] {
        &self.id_to_rank
    }

    /// Write the forward table to `path` as flat little-endian `u32`s.
    pub fn write(&self, path: impl AsRef<Path>, stats: &Arc<IoStats>) -> Result<()> {
        let mut w = U32Writer::create(path, stats.clone())?;
        w.write_all(&self.rank_to_id)?;
        w.finish()?;
        Ok(())
    }
}

/// Read the rank → id table a [`RankMap::write`] stored, validating
/// that the file holds a permutation of `0..n` (a truncated or corrupt
/// replica fails with a malformed-file error instead of panicking later
/// at the sink boundary). No id → rank table is built.
pub fn read_ids(path: impl AsRef<Path>, stats: &Arc<IoStats>) -> Result<Vec<u32>> {
    let path = path.as_ref();
    let mut r = U32Reader::open(path, stats.clone())?;
    let ids = r.read_all()?;
    let n = ids.len();
    let mut seen = vec![false; n];
    for &v in &ids {
        if (v as usize) >= n || seen[v as usize] {
            return Err(pdtl_io::IoError::malformed(
                path,
                format!("rank map is not a permutation of 0..{n} (entry {v})"),
            )
            .into());
        }
        seen[v as usize] = true;
    }
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_degree_orders_by_degree_then_id() {
        // degrees: v0=3, v1=1, v2=1, v3=2
        let m = RankMap::by_degree(&[3, 1, 1, 2]);
        assert_eq!(m.ids(), &[1, 2, 3, 0]);
        assert_eq!(m.ranks(), &[3, 0, 1, 2]);
        assert_eq!(m.to_id(1), 2);
    }

    #[test]
    fn rank_comparison_is_the_degree_order() {
        let degrees = [5u32, 1, 1, 3, 5, 0];
        let m = RankMap::by_degree(&degrees);
        let precedes = |u: u32, v: u32| {
            let (du, dv) = (degrees[u as usize], degrees[v as usize]);
            du < dv || (du == dv && u < v)
        };
        for u in 0..degrees.len() as u32 {
            for v in 0..degrees.len() as u32 {
                if u != v {
                    let (ru, rv) = (m.ranks()[u as usize], m.ranks()[v as usize]);
                    assert_eq!(ru < rv, precedes(u, v), "{u} vs {v}");
                }
            }
        }
    }

    #[test]
    fn is_a_bijection() {
        let m = RankMap::by_degree(&[4, 4, 0, 2, 2, 7]);
        assert_eq!((m.ids().len(), m.ranks().len()), (6, 6));
        for v in 0..6 {
            assert_eq!(m.to_id(m.ranks()[v as usize]), v);
            assert_eq!(m.ranks()[m.to_id(v) as usize], v);
        }
    }

    #[test]
    fn read_rejects_corrupt_maps() {
        let dir = std::env::temp_dir().join("pdtl-rank-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let stats = IoStats::new();
        // out-of-range entry
        let p = dir.join(format!("bad-range-{}", std::process::id()));
        let mut w = U32Writer::create(&p, stats.clone()).unwrap();
        w.write_all(&[0, 1, 7]).unwrap();
        w.finish().unwrap();
        let err = read_ids(&p, &stats).unwrap_err();
        assert!(err.to_string().contains("permutation"), "{err}");
        // duplicate entry (a truncated copy re-padded with zeros)
        let p = dir.join(format!("bad-dup-{}", std::process::id()));
        let mut w = U32Writer::create(&p, stats.clone()).unwrap();
        w.write_all(&[0, 1, 0]).unwrap();
        w.finish().unwrap();
        assert!(read_ids(&p, &stats).is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("pdtl-rank-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("map-{}", std::process::id()));
        let stats = IoStats::new();
        let m = RankMap::by_degree(&[9, 0, 4, 4, 1]);
        m.write(&path, &stats).unwrap();
        let back = read_ids(&path, &stats).unwrap();
        assert_eq!(back, m.ids());
        assert_eq!(stats.bytes_written(), 5 * 4);
    }
}
