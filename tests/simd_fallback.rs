//! Process-level `PDTL_SIMD=off` kill-switch coverage.
//!
//! This binary runs in its own process with the SIMD kill-switch set
//! *before any kernel runs*, which is the same code path a non-x86_64
//! host takes: the cached [`simd_level`] must resolve to `Off`, every
//! plain kernel entry point must run the scalar tier, and a full MGT
//! count over the scalar kernels must still match the oracle with the
//! same `cpu_ops` a vectorized run reports (the accounting contract).

use pdtl::core::intersect::{
    intersect_adaptive_visit_counted_with, intersect_count, intersect_visit,
    intersect_visit_counted_with, simd_level, SimdLevel, SIMD_ENV,
};
use pdtl::core::mgt::mgt_in_memory;
use pdtl::core::orient::orient_csr;
use pdtl::core::sink::CountSink;
use pdtl::graph::gen::rmat::rmat;
use pdtl::graph::verify::triangle_count;
use pdtl::io::MemoryBudget;

fn force_off() {
    std::env::set_var(SIMD_ENV, "off");
}

#[test]
fn kill_switch_pins_the_process_to_scalar() {
    force_off();
    assert_eq!(simd_level(), SimdLevel::Off, "env override wins");

    // The plain entry points now ARE the scalar kernels: identical
    // counts and visit sequences to an explicit SimdLevel::Off call on
    // shapes that would otherwise take every vector tier.
    let shapes: [(usize, usize); 3] = [(1000, 1000), (100, 1000), (10, 10_000)];
    for (la, lb) in shapes {
        let a: Vec<u32> = (0..la as u32).map(|x| x * 3).collect();
        let b: Vec<u32> = (0..lb as u32).map(|x| x * 2).collect();
        let mut plain_order = Vec::new();
        let plain = intersect_visit(&a, &b, |v| plain_order.push(v));
        let mut off_order = Vec::new();
        let off = intersect_visit_counted_with(SimdLevel::Off, &a, &b, |v| off_order.push(v));
        assert_eq!(plain, off.0, "{la}x{lb}");
        assert_eq!(plain_order, off_order, "{la}x{lb}");
        assert_eq!(
            intersect_count(&a, &b),
            intersect_adaptive_visit_counted_with(SimdLevel::Off, &a, &b, |_| {}).0,
            "{la}x{lb} adaptive"
        );
    }
}

#[test]
fn scalar_engine_matches_oracle_and_vector_accounting() {
    force_off();
    let g = rmat(9, 33).unwrap();
    let expected = triangle_count(&g);
    let o = orient_csr(&g);
    let (t, engine_cpu_ops) = mgt_in_memory(&o, MemoryBudget::edges(2048), &mut CountSink);
    assert_eq!(t, expected, "scalar tier counts exactly");

    // The accounting contract, engine-level: cpu_ops under the forced
    // scalar tier equal cpu_ops at the host's best level, recomputed
    // here kernel-by-kernel (the engine consumed the cached Off level,
    // so the explicit-level API is the only vectorized path in this
    // process).
    let mut scalar_ops = 0u64;
    let mut best_ops = 0u64;
    for u in 0..o.num_vertices() {
        let out = o.out(u);
        for (idx, &v) in out.iter().enumerate() {
            let suffix = &out[idx + 1..];
            scalar_ops +=
                intersect_adaptive_visit_counted_with(SimdLevel::Off, suffix, o.out(v), |_| {}).1;
            best_ops += intersect_adaptive_visit_counted_with(
                SimdLevel::detect(),
                suffix,
                o.out(v),
                |_| {},
            )
            .1;
        }
    }
    assert_eq!(scalar_ops, best_ops, "cpu_ops are level-invariant");
    assert!(engine_cpu_ops > 0, "engine reported intersection work");
}
