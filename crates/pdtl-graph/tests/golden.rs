//! Golden digests of the generators' output. Every input the workspace
//! builds goes through a sampler and `Graph::from_edges`, and recorded
//! triangle counts, cached datasets and `pdtl gen` files all assume the
//! same seed gives the same graph. Each digest is `(adj_len,
//! crc32c(offsets ‖ adj))`, both arrays little-endian, and was taken
//! from the serial, global-sort implementation these now replace: a
//! change to sampling, splitting or simplification that moves one entry
//! fails here.

use pdtl_graph::datasets::Dataset;
use pdtl_graph::gen::chunglu::power_law_graph;
use pdtl_graph::gen::rmat::rmat;
use pdtl_graph::Graph;
use pdtl_io::Crc32c;

fn digest(g: &Graph) -> (u64, u32) {
    let mut crc = Crc32c::new();
    for o in g.offsets() {
        crc.update(&o.to_le_bytes());
    }
    for a in g.adjacency() {
        crc.update(&a.to_le_bytes());
    }
    (g.adj_len(), crc.finalize())
}

#[test]
fn rmat_graphs_match_their_digests() {
    let golden = [
        (8, 1, (4_294, 0xb484_7b0e)),
        (8, 11, (4_178, 0x0992_a099)),
        (12, 1, (96_702, 0x6ece_fca5)),
        (12, 11, (96_960, 0x58fe_ec7b)),
        (15, 1, (883_242, 0x96ed_a562)),
        (15, 11, (884_586, 0xb8af_64a8)),
    ];
    for (k, seed, want) in golden {
        assert_eq!(digest(&rmat(k, seed).unwrap()), want, "rmat({k}, {seed})");
    }
}

#[test]
fn chung_lu_graphs_match_their_digests() {
    let lj = Dataset::LiveJournal.build_scaled(1.0 / 64.0).unwrap();
    assert_eq!(digest(&lj), (5_584, 0x703d_6f3c), "LiveJournal / 64");
    // 225 000 samples: sampled and simplified on up to four threads.
    let g = power_law_graph(20_000, 200_000, 2.1, 2.0, 800.0, 7).unwrap();
    assert_eq!(digest(&g), (426_124, 0x7ab7_e06f), "power_law_graph");
}
