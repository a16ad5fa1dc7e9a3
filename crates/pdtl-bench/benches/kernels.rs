//! Micro-benchmarks of PDTL's hot kernels: sorted-array intersection,
//! the in-memory MGT chunk loop, orientation, and load-balance
//! computation.
//!
//! The workload (sizes, seeds, budgets, names) is defined once in
//! [`pdtl_bench::kernelbench::workload`] and shared with the `exp
//! kernels --json` snapshot runner, so the criterion numbers and
//! `BENCH_kernels.json` always measure the same thing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use pdtl_bench::kernelbench::workload;
use pdtl_core::intersect::{
    intersect_gallop_visit, intersect_visit, intersect_visit_counted_with, SimdLevel,
};
use pdtl_core::mgt::{mgt_count_range_opt, mgt_in_memory, MgtOptions};
use pdtl_core::orient::{orient_csr, orient_csr_threads, orient_to_disk_with};
use pdtl_core::sink::CountSink;
use pdtl_core::{split_ranges, BalanceStrategy, EdgeRange};
use pdtl_graph::gen::rmat::rmat;
use pdtl_graph::DiskGraph;
use pdtl_io::{Codec, IoBackend, IoStats, MemoryBudget, U32Writer};

fn bench_intersection(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersect");
    for &(a_len, b_len) in &workload::INTERSECT_PAIRS {
        let (a, b) = workload::intersect_inputs(a_len, b_len);
        group.bench_with_input(
            BenchmarkId::new("linear", format!("{a_len}x{b_len}")),
            &(&a, &b),
            |bencher, (a, b)| bencher.iter(|| intersect_visit(black_box(a), black_box(b), |_| {})),
        );
        group.bench_with_input(
            BenchmarkId::new("gallop", format!("{a_len}x{b_len}")),
            &(&a, &b),
            |bencher, (a, b)| {
                bencher.iter(|| intersect_gallop_visit(black_box(a), black_box(b), |_| {}))
            },
        );
        // Forced-scalar ablation row, mirrored in the JSON snapshot
        // runner: the vectorization speedup on the same shape.
        group.bench_with_input(
            BenchmarkId::new("linear_scalar", format!("{a_len}x{b_len}")),
            &(&a, &b),
            |bencher, (a, b)| {
                bencher.iter(|| {
                    intersect_visit_counted_with(SimdLevel::Off, black_box(a), black_box(b), |_| {})
                        .0
                })
            },
        );
    }
    group.finish();
}

fn bench_mgt_chunks(c: &mut Criterion) {
    let g = rmat(workload::MGT_RMAT.0, workload::MGT_RMAT.1).unwrap();
    let o = orient_csr(&g);
    let mut group = c.benchmark_group("mgt_in_memory");
    for &budget in &workload::MGT_BUDGETS {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("budget_{budget}")),
            &budget,
            |bencher, &budget| {
                bencher.iter(|| {
                    let (t, _) =
                        mgt_in_memory(black_box(&o), MemoryBudget::edges(budget), &mut CountSink);
                    t
                })
            },
        );
    }
    group.finish();
}

fn bench_orientation(c: &mut Criterion) {
    let g = rmat(workload::ORIENT_RMAT.0, workload::ORIENT_RMAT.1).unwrap();
    c.bench_function("orient_csr_rmat10", |b| {
        b.iter(|| orient_csr(black_box(&g)))
    });
    for &cores in &workload::ORIENT_CORES {
        c.bench_function(&format!("orient_csr_rmat10/cores_{cores}"), |b| {
            b.iter(|| orient_csr_threads(black_box(&g), cores))
        });
    }
}

fn bench_balance(c: &mut Criterion) {
    let g = rmat(workload::BALANCE_RMAT.0, workload::BALANCE_RMAT.1).unwrap();
    let o = orient_csr(&g);
    let ins = o.in_degrees();
    let mut group = c.benchmark_group("split_ranges");
    for strategy in [BalanceStrategy::EqualEdges, BalanceStrategy::InDegree] {
        group.bench_function(format!("{strategy:?}_x64"), |b| {
            b.iter(|| split_ranges(black_box(&o.offsets), black_box(&ins), 64, strategy))
        });
    }
    group.finish();
}

fn bench_generators(c: &mut Criterion) {
    c.bench_function("rmat_k8", |b| {
        b.iter(|| rmat(workload::GEN_RMAT.0, black_box(workload::GEN_RMAT.1)).unwrap())
    });
}

fn bench_mgt_disk_backends(c: &mut Criterion) {
    let g = rmat(workload::DISK_RMAT.0, workload::DISK_RMAT.1).unwrap();
    let dir = std::env::temp_dir().join(format!("pdtl-kernels-backends-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let stats = IoStats::new();
    let input = DiskGraph::write(&g, dir.join("g"), &stats).unwrap();
    // Backend rows are pinned to the raw codec so numbers stay
    // comparable whatever PDTL_CODEC the run inherits; the codec rows
    // in `bench_mgt_disk_codecs` measure the encoding choice.
    let (og, _) = orient_to_disk_with(&input, dir.join("oriented"), 2, Codec::Raw, &stats).unwrap();
    let full = EdgeRange {
        start: 0,
        end: og.m_star(),
    };
    let budget = MemoryBudget::edges(workload::DISK_BUDGET);
    for (latency_us, tag) in [
        (0, "mgt_disk"),
        (workload::DISK_SIM_LATENCY_US, "mgt_disk_simlat50us"),
    ] {
        let mut group = c.benchmark_group(tag);
        for backend in IoBackend::ALL {
            let opts = MgtOptions {
                backend,
                io_latency: std::time::Duration::from_micros(latency_us),
                ..MgtOptions::default()
            };
            group.bench_function(format!("backend_{backend}"), |b| {
                b.iter(|| {
                    mgt_count_range_opt(
                        black_box(&og),
                        full,
                        budget,
                        &mut CountSink,
                        IoStats::new(),
                        opts,
                    )
                    .unwrap()
                    .triangles
                })
            });
        }
        group.finish();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_mgt_disk_codecs(c: &mut Criterion) {
    let g = rmat(workload::DISK_RMAT.0, workload::DISK_RMAT.1).unwrap();
    let dir = std::env::temp_dir().join(format!("pdtl-kernels-codecs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let stats = IoStats::new();
    let input = DiskGraph::write(&g, dir.join("g"), &stats).unwrap();
    let budget = MemoryBudget::edges(workload::DISK_BUDGET);
    let mut group = c.benchmark_group("mgt_disk");
    for codec in Codec::ALL {
        let (og, _) = orient_to_disk_with(
            &input,
            dir.join(format!("oriented-{codec}")),
            2,
            codec,
            &stats,
        )
        .unwrap();
        let full = EdgeRange {
            start: 0,
            end: og.m_star(),
        };
        group.bench_function(format!("codec_{codec}"), |b| {
            b.iter(|| {
                mgt_count_range_opt(
                    black_box(&og),
                    full,
                    budget,
                    &mut CountSink,
                    IoStats::new(),
                    MgtOptions::default(),
                )
                .unwrap()
                .triangles
            })
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_varint_decode(c: &mut Criterion) {
    let bytes = workload::varint_decode_input();
    let mut group = c.benchmark_group("varint_decode");
    let mut vals = Vec::with_capacity(workload::VARINT_DECODE_N);
    group.bench_function("1m", |b| {
        b.iter(|| {
            vals.clear();
            pdtl_io::codec::decode_run(black_box(&bytes), workload::VARINT_DECODE_N, &mut vals)
                .unwrap();
            vals.last().copied()
        })
    });
    group.finish();
}

fn bench_writer(c: &mut Criterion) {
    let vals: Vec<u32> = (0..workload::WRITER_N as u32).collect();
    let dir = std::env::temp_dir().join(format!("pdtl-kernels-writer-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("writer-throughput");
    let mut group = c.benchmark_group("u32_writer");
    group.bench_function("write_all_1m", |b| {
        b.iter(|| {
            let mut w = U32Writer::create(&path, IoStats::new()).unwrap();
            w.write_all(black_box(&vals)).unwrap();
            w.finish().unwrap()
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_intersection,
    bench_mgt_chunks,
    bench_orientation,
    bench_balance,
    bench_generators,
    bench_mgt_disk_backends,
    bench_mgt_disk_codecs,
    bench_varint_decode,
    bench_writer
);
criterion_main!(benches);
