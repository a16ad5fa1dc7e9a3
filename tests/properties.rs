//! Property-based tests (proptest) of the workspace's core invariants,
//! run over arbitrary random graphs, budgets and splits.

use proptest::prelude::*;

use pdtl::core::intersect::intersect_visit;
use pdtl::core::mgt::mgt_in_memory;
use pdtl::core::orient::orient_csr;
use pdtl::core::sink::{CollectSink, CountSink};
use pdtl::core::{split_ranges, BalanceStrategy, DegreeOrder};
use pdtl::graph::verify::{triangle_count, triangle_list};
use pdtl::graph::Graph;
use pdtl::io::MemoryBudget;

/// Strategy: an arbitrary simple graph with up to `n` vertices and `m`
/// raw edge pairs (duplicates/self-loops cleaned by the builder).
fn arb_graph(n: u32, m: usize) -> impl Strategy<Value = Graph> {
    prop::collection::vec((0..n, 0..n), 0..m)
        .prop_map(move |edges| Graph::from_edges(n, &edges).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn orientation_preserves_edges_and_is_acyclic(g in arb_graph(40, 200)) {
        let o = orient_csr(&g);
        prop_assert_eq!(o.m_star(), g.num_edges());
        let ord = DegreeOrder::new(&o.orig_degrees);
        for u in 0..o.num_vertices() {
            let out = o.out(u);
            // lists stay sorted by id
            prop_assert!(out.windows(2).all(|w| w[0] < w[1]));
            // every arc respects the strict order => DAG
            for &v in out {
                prop_assert!(ord.precedes(u, v));
            }
            // d = d* + in
        }
        let ins = o.in_degrees();
        for v in 0..o.num_vertices() {
            prop_assert_eq!(
                o.orig_degrees[v as usize],
                o.d_star(v) + ins[v as usize]
            );
        }
    }

    #[test]
    fn mgt_matches_oracle_for_any_budget(
        g in arb_graph(32, 160),
        budget in 1usize..4096,
    ) {
        let o = orient_csr(&g);
        let (t, _) = mgt_in_memory(&o, MemoryBudget::edges(budget), &mut CountSink);
        prop_assert_eq!(t, triangle_count(&g));
    }

    #[test]
    fn mgt_lists_each_triangle_exactly_once(
        g in arb_graph(24, 120),
        budget in 1usize..512,
    ) {
        let o = orient_csr(&g);
        let mut sink = CollectSink::default();
        let (t, _) = mgt_in_memory(&o, MemoryBudget::edges(budget), &mut sink);
        prop_assert_eq!(t as usize, sink.triangles.len());
        let mut got: Vec<_> = sink
            .triangles
            .iter()
            .map(|&(a, b, c)| {
                let mut x = [a, b, c];
                x.sort_unstable();
                (x[0], x[1], x[2])
            })
            .collect();
        got.sort_unstable();
        let mut expected = triangle_list(&g);
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn mgt_lists_in_sorted_merge_order(
        g in arb_graph(40, 300),
        budget in 1usize..160,
    ) {
        // The engine marks and probes; the triples it emits, and their
        // order (so a `FileSink`'s bytes), are those of the sorted
        // merge it replaced: per chunk, per u, per resident v ∈ N(u),
        // N(u)'s suffix after v merged with v's resident segment.
        let o = orient_csr(&g);
        let ids = &o.ids;
        let budget = MemoryBudget::edges(budget);
        let chunk = budget.chunk_edges() as u64;
        let mut expected = Vec::new();
        let mut pos = 0u64;
        while pos < o.m_star() {
            let end = (pos + chunk).min(o.m_star());
            for u in 0..o.num_vertices() {
                let nm = o.out(u);
                for (idx, &v) in nm.iter().enumerate() {
                    let lo = o.offsets[v as usize].max(pos);
                    let hi = o.offsets[v as usize + 1].min(end);
                    if lo < hi {
                        intersect_visit(&nm[idx + 1..], &o.adj[lo as usize..hi as usize], |w| {
                            expected.push((ids[u as usize], ids[v as usize], ids[w as usize]));
                        });
                    }
                }
            }
            pos = end;
        }
        let mut sink = CollectSink::default();
        mgt_in_memory(&o, budget, &mut sink);
        prop_assert_eq!(sink.triangles, expected);
    }

    #[test]
    fn ranges_partition_positions(
        g in arb_graph(48, 300),
        parts in 1usize..12,
        balanced in any::<bool>(),
    ) {
        let o = orient_csr(&g);
        let ins = o.in_degrees();
        let strategy = if balanced {
            BalanceStrategy::InDegree
        } else {
            BalanceStrategy::EqualEdges
        };
        let (ranges, _) = split_ranges(&o.offsets, &ins, parts, strategy);
        prop_assert_eq!(ranges.len(), parts);
        prop_assert_eq!(ranges[0].start, 0);
        prop_assert_eq!(ranges[parts - 1].end, o.m_star());
        for w in ranges.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn triangle_count_bounded_by_arboricity(g in arb_graph(40, 300)) {
        // T <= (1/3) Σ_e min(d(u), d(v))  (Theorem III.4 discussion)
        prop_assert!(3 * triangle_count(&g) <= g.min_degree_sum());
    }

    #[test]
    fn per_worker_counts_sum_to_total(
        g in arb_graph(32, 200),
        parts in 1usize..6,
    ) {
        let o = orient_csr(&g);
        let ins = o.in_degrees();
        // The id → rank table, which the oriented graph does not keep.
        let mut rank = vec![0u32; o.ids.len()];
        for (r, &id) in o.ids.iter().enumerate() {
            rank[id as usize] = r as u32;
        }
        let (ranges, _) = split_ranges(&o.offsets, &ins, parts, BalanceStrategy::InDegree);
        // emulate per-range MGT by filtering the full listing on pivot
        // position ownership: sum of parts == whole
        let mut total = 0u64;
        for range in ranges {
            let mut sink = CollectSink::default();
            let o2 = orient_csr(&g);
            // in-memory engine over a sub-range: reuse disk engine logic
            // by restricting chunks: simplest correct emulation is to
            // count triangles whose pivot position falls in the range.
            let (_, _) = mgt_in_memory(&o2, MemoryBudget::edges(1 << 20), &mut sink);
            let count = sink
                .triangles
                .iter()
                .filter(|&&(_, v, w)| {
                    // emitted triples are original ids; pivot positions
                    // live in rank space
                    let (rv, rw) = (rank[v as usize], rank[w as usize]);
                    let vi = o.offsets[rv as usize];
                    let idx = o.out(rv).binary_search(&rw).unwrap() as u64 + vi;
                    idx >= range.start && idx < range.end
                })
                .count() as u64;
            total += count;
        }
        prop_assert_eq!(total, triangle_count(&g));
    }

    #[test]
    fn clustering_coefficients_in_unit_interval(g in arb_graph(30, 150)) {
        let list = triangle_list(&g);
        let local = pdtl::analytics::clustering::clustering_coefficients(&g, &list);
        for c in local {
            prop_assert!((0.0..=1.0).contains(&c));
        }
        let t = pdtl::analytics::clustering::transitivity(&g, list.len() as u64);
        prop_assert!((0.0..=1.0).contains(&t));
    }

    #[test]
    fn ktruss_edges_nested(g in arb_graph(20, 80)) {
        let list = triangle_list(&g);
        let d = pdtl::analytics::ktruss::truss_decomposition(&g, &list);
        // (k+1)-truss ⊆ k-truss
        for k in 2..=d.max_k() {
            let outer: std::collections::HashSet<_> =
                d.truss_edges(k).into_iter().collect();
            for e in d.truss_edges(k + 1) {
                prop_assert!(outer.contains(&e));
            }
        }
    }
}
