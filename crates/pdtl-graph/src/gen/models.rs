//! An additional random-graph model: Barabási–Albert preferential
//! attachment, which produces power-law graphs by growth, a useful
//! contrast to Chung–Lu's static weights.

use crate::csr::Graph;
use crate::error::Result;
use crate::gen::rng::SplitMix64;

/// Barabási–Albert preferential attachment: start from a small clique,
/// then each new vertex attaches to `m_attach` existing vertices with
/// probability proportional to degree.
pub fn barabasi_albert(n: u32, m_attach: u32, seed: u64) -> Result<Graph> {
    assert!(m_attach >= 1);
    assert!(n > m_attach, "need n > m_attach");
    let mut rng = SplitMix64::new(seed);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    // endpoint multiset: sampling uniformly from it = degree-proportional
    let mut endpoints: Vec<u32> = Vec::new();
    let seed_size = m_attach + 1;
    for u in 0..seed_size {
        for v in (u + 1)..seed_size {
            edges.push((u, v));
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for u in seed_size..n {
        let mut chosen: Vec<u32> = Vec::with_capacity(m_attach as usize);
        let mut guard = 0;
        while (chosen.len() as u32) < m_attach && guard < 64 {
            let v = endpoints[rng.next_bounded(endpoints.len() as u64) as usize];
            if v != u && !chosen.contains(&v) {
                chosen.push(v);
            }
            guard += 1;
        }
        for &v in &chosen {
            edges.push((u, v));
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    Graph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ba_grows_power_law_hubs() {
        let g = barabasi_albert(2000, 3, 5).unwrap();
        assert_eq!(g.num_vertices(), 2000);
        let avg = 2.0 * g.num_edges() as f64 / 2000.0;
        assert!(
            g.max_degree() as f64 > 8.0 * avg,
            "preferential attachment grows hubs: max {} avg {avg}",
            g.max_degree()
        );
        g.validate().unwrap();
    }

    #[test]
    fn ba_edge_count_near_nm() {
        let g = barabasi_albert(500, 2, 7).unwrap();
        let m = g.num_edges();
        // seed clique C(3,2)=3 + ~2 per subsequent vertex
        assert!(m > 900 && m <= 1003, "m = {m}");
    }
}
