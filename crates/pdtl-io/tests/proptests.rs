//! Property tests of the I/O substrate: external sort, u32 streams,
//! budgets.

use proptest::prelude::*;

use pdtl_io::{external_sort_u64, extsort, IoStats, MemoryBudget, U32Reader, U32Source, U32Writer};

fn tmp(name: &str, case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pdtl-io-proptests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}-{case}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn external_sort_sorts_any_input(
        mut vals in prop::collection::vec(any::<u64>(), 0..2000),
        mem in 1usize..300,
        case in any::<u64>(),
    ) {
        let stats = IoStats::new();
        let inp = tmp("sort-in", case);
        let out = tmp("sort-out", case);
        extsort::write_u64_records(&inp, &vals, &stats).unwrap();
        let n = external_sort_u64(&inp, &out, mem, &stats).unwrap();
        prop_assert_eq!(n, vals.len() as u64);
        let got = extsort::read_u64_records(&out, &stats).unwrap();
        vals.sort_unstable();
        prop_assert_eq!(got, vals);
        let _ = std::fs::remove_file(inp);
        let _ = std::fs::remove_file(out);
    }

    #[test]
    fn u32_stream_round_trips(
        vals in prop::collection::vec(any::<u32>(), 0..5000),
        buf in 1usize..64,
        case in any::<u64>(),
    ) {
        let stats = IoStats::new();
        let p = tmp("stream", case);
        let mut w = U32Writer::with_buffer(&p, stats.clone(), buf).unwrap();
        w.write_all(&vals).unwrap();
        prop_assert_eq!(w.finish().unwrap(), vals.len() as u64);
        let mut r = U32Reader::with_buffer(&p, stats.clone(), buf).unwrap();
        prop_assert_eq!(r.len_u32(), vals.len() as u64);
        let len = vals.len() as u64;
        prop_assert_eq!(r.read_all().unwrap(), vals);
        // accounting: bytes written == bytes read == 4 * len
        prop_assert_eq!(stats.bytes_written(), 4 * len);
        prop_assert_eq!(stats.bytes_read(), 4 * len);
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn u32_seek_reads_the_right_value(
        vals in prop::collection::vec(any::<u32>(), 1..2000),
        case in any::<u64>(),
        pick in any::<prop::sample::Index>(),
    ) {
        let stats = IoStats::new();
        let p = tmp("seek", case);
        let mut w = U32Writer::create(&p, stats.clone()).unwrap();
        w.write_all(&vals).unwrap();
        w.finish().unwrap();
        let idx = pick.index(vals.len());
        let mut r = U32Reader::open(&p, stats).unwrap();
        r.seek_to(idx as u64).unwrap();
        prop_assert_eq!(r.next().unwrap(), Some(vals[idx]));
        let _ = std::fs::remove_file(p);
    }

    #[test]
    fn budget_iterations_cover_everything(
        edges in 0u64..1_000_000,
        budget in 1usize..100_000,
    ) {
        let b = MemoryBudget::edges(budget);
        let iters = b.iterations_for(edges);
        let chunk = b.chunk_edges() as u64;
        // enough iterations to cover, never one more than needed
        prop_assert!(iters * chunk >= edges);
        prop_assert!(iters == 0 || (iters - 1) * chunk < edges);
    }
}
