//! Bench behind Fig. 10: the operator-optimisation ladder.
//!
//! Uses a reduced batch (N,H,W = 4,16,16) so the naive baseline stays
//! benchable; `cargo run --release -p tensorkmc-bench --bin fig10_stages`
//! prints the full-shape table.

use std::hint::black_box;
use tensorkmc_bench::runner::Criterion;
use tensorkmc_bench::{paper_stack, random_batch};
use tensorkmc_compat::pool;
use tensorkmc_operators::stages::{
    rows_to_nchw, stage1_naive_conv, stage2_matmul, stage3_simd, stage4_fused, stage5_bigfusion,
    stage5_bigfusion_workers, BatchShape,
};

fn bench_stages(c: &mut Criterion) {
    let shape = BatchShape { n: 4, h: 16, w: 16 };
    let stack = paper_stack(3);
    let rows = random_batch(shape.m(), 64, 4);
    let nchw = rows_to_nchw(&rows, shape, 64);

    let mut g = c.benchmark_group("fig10_operators");
    g.sample_size(10);
    g.bench_function("stage1_naive_conv", |b| {
        b.iter(|| black_box(stage1_naive_conv(&stack, &nchw, shape).unwrap()))
    });
    g.bench_function("stage2_matmul", |b| {
        b.iter(|| black_box(stage2_matmul(&stack, &rows, shape).unwrap()))
    });
    g.bench_function("stage3_simd", |b| {
        b.iter(|| black_box(stage3_simd(&stack, &rows, shape).unwrap()))
    });
    g.bench_function("stage4_fused", |b| {
        b.iter(|| black_box(stage4_fused(&stack, &rows, shape).unwrap()))
    });
    g.bench_function("stage5_bigfusion", |b| {
        b.iter(|| black_box(stage5_bigfusion(&stack, &rows, shape).unwrap()))
    });
    g.finish();
}

/// The measurement behind `BIGFUSION_PAR_MIN_FLOPS`: what one fan-out of
/// two scoped workers costs with nothing to do (`spawn_join_w2`), and
/// rung 5 on the paper stack (98 432 FLOPs a row) with one worker against
/// two, from a few rows to a few thousand. Below the gate both columns run
/// the inline arm, so `w1` there gives the inline FLOP rate; the break-even
/// of two workers is `2 · spawn_join · rate`.
fn bench_gate(c: &mut Criterion) {
    let stack = paper_stack(3);
    let mut g = c.benchmark_group("bigfusion_gate");
    g.sample_size(20);
    g.bench_function("spawn_join_w2", |b| {
        let mut cells = [0u8; 2];
        b.iter(|| pool::par_chunks_mut_threads(2, &mut cells, 1, |i, c| c[0] = black_box(i as u8)))
    });
    for m in [8usize, 32, 128, 512, 2048] {
        let shape = BatchShape { n: m, h: 1, w: 1 };
        let rows = random_batch(m, 64, 4);
        for workers in [1usize, 2] {
            g.bench_function(format!("m{m}_w{workers}"), |b| {
                b.iter(|| {
                    black_box(stage5_bigfusion_workers(&stack, &rows, shape, workers).unwrap())
                })
            });
        }
    }
    g.finish();
}

tensorkmc_bench::bench_main!(bench_stages, bench_gate);
