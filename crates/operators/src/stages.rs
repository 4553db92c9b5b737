//! The optimisation ladder of the energy kernel (paper Fig. 10).
//!
//! Five functionally-identical implementations of the NNP convolution stack,
//! each adding one of the paper's optimisations:
//!
//! 1. [`stage1_naive_conv`] — Conv2D with 1×1 filters in NCHW layout,
//!    channel-strided inner loop, separate bias and ReLU sweeps: the
//!    unoptimised baseline (1.0×).
//! 2. [`stage2_matmul`] — the convolution converted to a matrix
//!    multiplication over `(M, C)` rows (paper Fig. 6a); still scalar and
//!    still sweeping bias/ReLU separately (paper: 1.23×).
//! 3. [`stage3_simd`] — the multiplication rewritten in a contiguous
//!    vectorisable form (the compiler's auto-SIMD stands in for the CPE
//!    512-bit SIMD assembly; paper: 16–22×).
//! 4. [`stage4_fused`] — matmul, bias and ReLU fused into one kernel, no
//!    intermediate sweeps (paper Fig. 6b; 33–41×).
//! 5. [`stage5_bigfusion`] — all layers merged: row tiles stay cache-resident
//!    while the whole stack flows over them, parallel across the CPE pool
//!    (paper Fig. 6c–f; 131–161×).
//!
//! Absolute ratios on a host CPU differ from the MPE/CPE ratios the paper
//! measures, but the ordering and the memory-traffic mechanism are the same;
//! the Fig. 10 harness reports both measured wall-clock and the simulator's
//! roofline times.

use crate::error::OperatorError;
use crate::weights::{Bf16Stack, F32Stack};
use tensorkmc_compat::{bf16, pool};

/// Shape of a batched energy evaluation: `M = n·h·w` rows (paper Alg. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchShape {
    /// Number of states in the batch.
    pub n: usize,
    /// Tile height.
    pub h: usize,
    /// Tile width.
    pub w: usize,
}

impl BatchShape {
    /// Total rows.
    #[inline]
    pub fn m(&self) -> usize {
        self.n * self.h * self.w
    }
}

/// Converts a row-major `(M, C)` activation block to NCHW layout.
pub fn rows_to_nchw(rows: &[f32], shape: BatchShape, c: usize) -> Vec<f32> {
    let (n, h, w) = (shape.n, shape.h, shape.w);
    assert_eq!(rows.len(), n * h * w * c);
    let mut out = vec![0f32; rows.len()];
    for i in 0..n {
        for y in 0..h {
            for x in 0..w {
                let row = (i * h + y) * w + x;
                for ch in 0..c {
                    out[((i * c + ch) * h + y) * w + x] = rows[row * c + ch];
                }
            }
        }
    }
    out
}

/// Converts an NCHW block back to row-major `(M, C)`.
pub fn nchw_to_rows(nchw: &[f32], shape: BatchShape, c: usize) -> Vec<f32> {
    let (n, h, w) = (shape.n, shape.h, shape.w);
    assert_eq!(nchw.len(), n * h * w * c);
    let mut out = vec![0f32; nchw.len()];
    for i in 0..n {
        for y in 0..h {
            for x in 0..w {
                let row = (i * h + y) * w + x;
                for ch in 0..c {
                    out[row * c + ch] = nchw[((i * c + ch) * h + y) * w + x];
                }
            }
        }
    }
    out
}

fn check_batch(len: usize, expected: usize) -> Result<(), OperatorError> {
    if len != expected {
        Err(OperatorError::BatchShape { expected, got: len })
    } else {
        Ok(())
    }
}

/// Stage 1: naive Conv2D (1×1 kernel, stride 1) in NCHW layout with separate
/// bias and ReLU sweeps per layer. Input must be NCHW with `c_in` channels.
pub fn stage1_naive_conv(
    stack: &F32Stack,
    input_nchw: &[f32],
    shape: BatchShape,
) -> Result<Vec<f32>, OperatorError> {
    let (n, h, w) = (shape.n, shape.h, shape.w);
    check_batch(input_nchw.len(), shape.m() * stack.c_in())?;
    let hw = h * w;
    let mut x = input_nchw.to_vec();
    for l in &stack.layers {
        // Convolution sweep: channel-strided accesses, exactly the access
        // pattern a framework executes before the im2col conversion.
        let mut y = vec![0f32; n * l.c_out * hw];
        for i in 0..n {
            for co in 0..l.c_out {
                for yy in 0..h {
                    for xx in 0..w {
                        let mut acc = 0f32;
                        for ci in 0..l.c_in {
                            acc +=
                                l.w[ci * l.c_out + co] * x[((i * l.c_in + ci) * h + yy) * w + xx];
                        }
                        y[((i * l.c_out + co) * h + yy) * w + xx] = acc;
                    }
                }
            }
        }
        // Separate bias sweep.
        for i in 0..n {
            for co in 0..l.c_out {
                let base = (i * l.c_out + co) * hw;
                for p in 0..hw {
                    y[base + p] += l.b[co];
                }
            }
        }
        // Separate ReLU sweep.
        if l.relu {
            for v in &mut y {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
        }
        x = y;
    }
    // Final layer has c_out = 1: NCHW with one channel is already row order.
    Ok(x)
}

/// Stage 2: the convolution converted to a matrix multiplication over
/// row-major `(M, C)` blocks, still scalar (dot-product inner loop over the
/// strided weight column), still separate bias/ReLU sweeps.
pub fn stage2_matmul(
    stack: &F32Stack,
    input_rows: &[f32],
    shape: BatchShape,
) -> Result<Vec<f32>, OperatorError> {
    let m = shape.m();
    check_batch(input_rows.len(), m * stack.c_in())?;
    let mut x = input_rows.to_vec();
    for l in &stack.layers {
        let mut y = vec![0f32; m * l.c_out];
        for r in 0..m {
            let xrow = &x[r * l.c_in..(r + 1) * l.c_in];
            for j in 0..l.c_out {
                let mut acc = 0f32;
                for (k, &xv) in xrow.iter().enumerate() {
                    acc += xv * l.w[k * l.c_out + j];
                }
                y[r * l.c_out + j] = acc;
            }
        }
        for r in 0..m {
            for j in 0..l.c_out {
                y[r * l.c_out + j] += l.b[j];
            }
        }
        if l.relu {
            for v in &mut y {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
        }
        x = y;
    }
    Ok(x)
}

/// Contiguous, auto-vectorisable matmul kernel: for each input element,
/// stream the matching weight row into the output row (unit stride on both).
#[inline]
fn matmul_rows_simd(x: &[f32], w: &[f32], m: usize, c_in: usize, c_out: usize) -> Vec<f32> {
    let mut y = vec![0f32; m * c_out];
    for r in 0..m {
        let xrow = &x[r * c_in..(r + 1) * c_in];
        let yrow = &mut y[r * c_out..(r + 1) * c_out];
        for (k, &xv) in xrow.iter().enumerate() {
            if xv == 0.0 {
                continue; // ReLU sparsity
            }
            let wrow = &w[k * c_out..(k + 1) * c_out];
            for (o, &wv) in yrow.iter_mut().zip(wrow) {
                *o += xv * wv;
            }
        }
    }
    y
}

/// Stage 3: SIMD-friendly matmul (contiguous inner loops the compiler
/// vectorises), bias and ReLU still separate sweeps.
pub fn stage3_simd(
    stack: &F32Stack,
    input_rows: &[f32],
    shape: BatchShape,
) -> Result<Vec<f32>, OperatorError> {
    let m = shape.m();
    check_batch(input_rows.len(), m * stack.c_in())?;
    let mut x = input_rows.to_vec();
    for l in &stack.layers {
        let mut y = matmul_rows_simd(&x, &l.w, m, l.c_in, l.c_out);
        for r in 0..m {
            let yrow = &mut y[r * l.c_out..(r + 1) * l.c_out];
            for (o, &b) in yrow.iter_mut().zip(&l.b) {
                *o += b;
            }
        }
        if l.relu {
            for v in &mut y {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
        }
        x = y;
    }
    Ok(x)
}

/// One fused layer: matmul seeded with the bias, ReLU applied before the
/// store (paper Fig. 6b). Writes into `y`, which must be `m × c_out`.
#[inline]
fn fused_layer(x: &[f32], l: &crate::weights::F32Layer, m: usize, y: &mut [f32]) {
    debug_assert_eq!(y.len(), m * l.c_out);
    for r in 0..m {
        let xrow = &x[r * l.c_in..(r + 1) * l.c_in];
        let yrow = &mut y[r * l.c_out..(r + 1) * l.c_out];
        yrow.copy_from_slice(&l.b);
        for (k, &xv) in xrow.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            let wrow = &l.w[k * l.c_out..(k + 1) * l.c_out];
            for (o, &wv) in yrow.iter_mut().zip(wrow) {
                *o += xv * wv;
            }
        }
        if l.relu {
            for o in yrow.iter_mut() {
                if *o < 0.0 {
                    *o = 0.0;
                }
            }
        }
    }
}

/// Stage 4: (Conv2D, Bias, ReLU) fused into one kernel per layer — one pass
/// over the data instead of three, but layers still round-trip through main
/// memory.
pub fn stage4_fused(
    stack: &F32Stack,
    input_rows: &[f32],
    shape: BatchShape,
) -> Result<Vec<f32>, OperatorError> {
    let m = shape.m();
    check_batch(input_rows.len(), m * stack.c_in())?;
    let mut x = input_rows.to_vec();
    for l in &stack.layers {
        let mut y = vec![0f32; m * l.c_out];
        fused_layer(&x, l, m, &mut y);
        x = y;
    }
    Ok(x)
}

/// One bf16 row through one layer, accumulating in f32: the accumulator for
/// output `j` is seeded with the widened bias, then contributions are added
/// in ascending input order with the per-element zero skip — the exact
/// float-op sequence of the f32 kernels, only on widened bf16 operands. The
/// inner loop is register-blocked 4 outputs wide like [`fused_layer_ldm`'s]
/// (bit-neutral), and `yrow` receives the full-precision f32 results; the
/// caller decides whether to store them as f32 (final layer) or re-narrow
/// to bf16 (intermediate activations).
///
/// Both the host ladder ([`stage4_fused_bf16`]) and the core-group kernel
/// (`bigfusion_on_cg_bf16`) run their rows through this one function, so
/// the two backends agree bit for bit by construction.
///
/// [`fused_layer_ldm`'s]: crate::bigfusion
#[inline]
pub(crate) fn bf16_row_into_f32(
    xrow: &[u16],
    w: &[u16],
    b: &[u16],
    relu: bool,
    c_out: usize,
    yrow: &mut [f32],
) {
    let mut j = 0;
    while j + 4 <= c_out {
        let mut a0 = bf16::widen(b[j]);
        let mut a1 = bf16::widen(b[j + 1]);
        let mut a2 = bf16::widen(b[j + 2]);
        let mut a3 = bf16::widen(b[j + 3]);
        for (k, &xq) in xrow.iter().enumerate() {
            let xv = bf16::widen(xq);
            if xv == 0.0 {
                continue; // ReLU sparsity, same skip as the f32 kernel
            }
            let wk = &w[k * c_out + j..k * c_out + j + 4];
            a0 += xv * bf16::widen(wk[0]);
            a1 += xv * bf16::widen(wk[1]);
            a2 += xv * bf16::widen(wk[2]);
            a3 += xv * bf16::widen(wk[3]);
        }
        if relu {
            a0 = a0.max(0.0);
            a1 = a1.max(0.0);
            a2 = a2.max(0.0);
            a3 = a3.max(0.0);
        }
        yrow[j] = a0;
        yrow[j + 1] = a1;
        yrow[j + 2] = a2;
        yrow[j + 3] = a3;
        j += 4;
    }
    while j < c_out {
        let mut acc = bf16::widen(b[j]);
        for (k, &xq) in xrow.iter().enumerate() {
            let xv = bf16::widen(xq);
            if xv == 0.0 {
                continue;
            }
            acc += xv * bf16::widen(w[k * c_out + j]);
        }
        if relu && acc < 0.0 {
            acc = 0.0;
        }
        yrow[j] = acc;
        j += 1;
    }
}

/// An intermediate bf16 layer over `rows` rows: f32 accumulation via
/// [`bf16_row_into_f32`] into `scratch` (≥ `c_out` long), activations
/// re-narrowed to bf16 on store — the halved-footprint LDM representation.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn fused_rows_bf16_to_bf16(
    x: &[u16],
    w: &[u16],
    b: &[u16],
    relu: bool,
    rows: usize,
    c_in: usize,
    c_out: usize,
    y: &mut [u16],
    scratch: &mut [f32],
) {
    for r in 0..rows {
        let xrow = &x[r * c_in..(r + 1) * c_in];
        bf16_row_into_f32(xrow, w, b, relu, c_out, &mut scratch[..c_out]);
        for (o, &v) in y[r * c_out..(r + 1) * c_out]
            .iter_mut()
            .zip(&scratch[..c_out])
        {
            *o = bf16::truncate(v);
        }
    }
}

/// The final bf16 layer over `rows` rows: results stay f32 (the per-site
/// energies keep full accumulator precision; only intermediates are
/// narrowed).
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn fused_rows_bf16_to_f32(
    x: &[u16],
    w: &[u16],
    b: &[u16],
    relu: bool,
    rows: usize,
    c_in: usize,
    c_out: usize,
    y: &mut [f32],
) {
    for r in 0..rows {
        let xrow = &x[r * c_in..(r + 1) * c_in];
        bf16_row_into_f32(xrow, w, b, relu, c_out, &mut y[r * c_out..(r + 1) * c_out]);
    }
}

/// Stage 4 of the ladder in the bf16 backend: feature rows quantized to
/// bf16 at kernel entry, each layer fused (matmul+bias+ReLU) with f32
/// accumulation, intermediate activations stored bf16, final energies f32.
///
/// The host-side reference for `bigfusion_on_cg_bf16` — the two agree bit
/// for bit because they share [`bf16_row_into_f32`].
pub fn stage4_fused_bf16(
    stack: &Bf16Stack,
    input_rows: &[f32],
    shape: BatchShape,
) -> Result<Vec<f32>, OperatorError> {
    let m = shape.m();
    check_batch(input_rows.len(), m * stack.c_in())?;
    let n_layers = stack.layers.len();
    let mut x: Vec<u16> = input_rows.iter().map(|&v| bf16::truncate(v)).collect();
    let mut scratch = vec![0f32; stack.max_width()];
    for l in &stack.layers[..n_layers - 1] {
        let mut y = vec![0u16; m * l.c_out];
        fused_rows_bf16_to_bf16(&x, &l.w, &l.b, l.relu, m, l.c_in, l.c_out, &mut y, &mut scratch);
        x = y;
    }
    let last = &stack.layers[n_layers - 1];
    let mut out = vec![0f32; m * last.c_out];
    fused_rows_bf16_to_f32(&x, &last.w, &last.b, last.relu, m, last.c_in, last.c_out, &mut out);
    Ok(out)
}

/// Rows per big-fusion tile: small enough that `tile × max_width` activations
/// stay L1/LDM-resident while the whole stack flows over them.
pub const BIGFUSION_TILE: usize = 64;

/// Work of one [`stage5_bigfusion`] call, in FLOPs (`m · Σ 2·c_in·c_out`),
/// from which its tiles are spread over the worker pool; below it they run
/// inline on the calling thread. Measured with `cargo bench -p
/// tensorkmc-bench --bench fig10_operators -- bigfusion_gate` on the 2-core
/// reference host (EXPERIMENTS.md, "Evaluator miss path"): a two-worker
/// spawn and join costs ~86 µs and the inline arm runs the paper stack at
/// ~18 GFLOP/s, so two workers break even at ~3 MFLOP (32 paper rows,
/// 172 µs either way). The constant sits 5× above that, where the fan-out
/// wins back about a third of the call (12.6 MFLOP: 843 µs → 508 µs).
pub const BIGFUSION_PAR_MIN_FLOPS: u64 = 16_000_000;

/// One tile of the big-fusion operator: the whole stack over `in_tile`'s
/// rows, ping-ponging between the two tile activation buffers `a` and `b`
/// (the two LDM buffers of Fig. 6e, each ≥ `rows × max_width`), final layer
/// into `out_tile`.
#[inline]
fn bigfusion_tile(
    stack: &F32Stack,
    in_tile: &[f32],
    a: &mut [f32],
    b: &mut [f32],
    out_tile: &mut [f32],
) {
    let rows = in_tile.len() / stack.c_in();
    a[..in_tile.len()].copy_from_slice(in_tile);
    let (mut src, mut dst) = (a, b);
    for l in &stack.layers {
        fused_layer(&src[..rows * l.c_in], l, rows, &mut dst[..rows * l.c_out]);
        std::mem::swap(&mut src, &mut dst);
    }
    out_tile.copy_from_slice(&src[..out_tile.len()]);
}

/// Stage 5: the big-fusion operator — all layers merged into a single kernel
/// over cache-resident row tiles. Only the stack input and the final
/// energies touch main memory.
///
/// The *input* picks the execution: a call below
/// [`BIGFUSION_PAR_MIN_FLOPS`] walks its tiles inline on the calling thread
/// with one pair of tile buffers; a call at or above it distributes the
/// tiles across the worker pool (the CPE mesh on the real machine), each
/// tile with its own pair. Activations are tile-sized in both arms, never
/// proportional to `m`. Rows are independent and every row goes through
/// the same fused-layer loop, so both arms — and [`stage4_fused`] — return
/// the same bits.
pub fn stage5_bigfusion(
    stack: &F32Stack,
    input_rows: &[f32],
    shape: BatchShape,
) -> Result<Vec<f32>, OperatorError> {
    // The pool is asked for its size only by a call that will use it: the
    // answer costs ~15 µs (`available_parallelism` reads cgroup files),
    // as much as a whole small-model kernel call.
    let workers = if fans_out(stack, shape.m()) {
        pool::max_threads()
    } else {
        1
    };
    stage5_bigfusion_workers(stack, input_rows, shape, workers)
}

/// Whether `m` rows through `stack` are enough work to spread over workers.
#[inline]
fn fans_out(stack: &F32Stack, m: usize) -> bool {
    m as u64 * stack.flops_per_row() >= BIGFUSION_PAR_MIN_FLOPS
}

/// [`stage5_bigfusion`] with an explicit worker cap instead of the
/// process-wide [`pool::max_threads`] — for tests and benches that compare
/// worker counts without touching the process environment.
pub fn stage5_bigfusion_workers(
    stack: &F32Stack,
    input_rows: &[f32],
    shape: BatchShape,
    workers: usize,
) -> Result<Vec<f32>, OperatorError> {
    let m = shape.m();
    check_batch(input_rows.len(), m * stack.c_in())?;
    let c_in = stack.c_in();
    let c_out = stack.c_out();
    let width = stack.max_width();
    let mut out = vec![0f32; m * c_out];
    if workers <= 1 || !fans_out(stack, m) {
        let tile_rows = m.min(BIGFUSION_TILE);
        let mut a = vec![0f32; tile_rows * width];
        let mut b = vec![0f32; tile_rows * width];
        for (in_tile, out_tile) in input_rows
            .chunks(BIGFUSION_TILE * c_in)
            .zip(out.chunks_mut(BIGFUSION_TILE * c_out))
        {
            bigfusion_tile(stack, in_tile, &mut a, &mut b, out_tile);
        }
    } else {
        pool::par_chunks_mut_threads(
            workers,
            &mut out,
            BIGFUSION_TILE * c_out,
            |tile, out_tile| {
                let rows = out_tile.len() / c_out;
                let in_tile = &input_rows[tile * BIGFUSION_TILE * c_in..][..rows * c_in];
                let mut a = vec![0f32; rows * width];
                let mut b = vec![0f32; rows * width];
                bigfusion_tile(stack, in_tile, &mut a, &mut b, out_tile);
            },
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorkmc_compat::rng::Rng;
    use tensorkmc_compat::rng::StdRng;
    use tensorkmc_nnp::{ModelConfig, NnpModel};
    use tensorkmc_potential::FeatureSet;

    fn stack_and_input(seed: u64) -> (F32Stack, Vec<f32>, BatchShape) {
        let fs = FeatureSet::small(4); // 8 features
        let cfg = ModelConfig {
            channels: vec![8, 16, 8, 1],
            rcut: 6.5,
        };
        let model = NnpModel::new(fs, &cfg, &mut StdRng::seed_from_u64(seed));
        let stack = F32Stack::from_model(&model);
        let shape = BatchShape { n: 3, h: 4, w: 4 };
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let input: Vec<f32> = (0..shape.m() * 8)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        (stack, input, shape)
    }

    #[test]
    fn nchw_round_trip() {
        let shape = BatchShape { n: 2, h: 3, w: 2 };
        let c = 5;
        let rows: Vec<f32> = (0..shape.m() * c).map(|i| i as f32).collect();
        let nchw = rows_to_nchw(&rows, shape, c);
        assert_eq!(nchw_to_rows(&nchw, shape, c), rows);
        assert_ne!(nchw, rows, "layouts genuinely differ");
    }

    #[test]
    fn all_stages_agree() {
        let (stack, input, shape) = stack_and_input(5);
        let nchw = rows_to_nchw(&input, shape, stack.c_in());
        let s1 = stage1_naive_conv(&stack, &nchw, shape).unwrap();
        let s2 = stage2_matmul(&stack, &input, shape).unwrap();
        let s3 = stage3_simd(&stack, &input, shape).unwrap();
        let s4 = stage4_fused(&stack, &input, shape).unwrap();
        let s5 = stage5_bigfusion(&stack, &input, shape).unwrap();
        for r in 0..shape.m() {
            let tol = 1e-4 * (1.0 + s1[r].abs());
            assert!((s1[r] - s2[r]).abs() < tol, "s2 row {r}");
            assert!((s1[r] - s3[r]).abs() < tol, "s3 row {r}");
            assert!((s1[r] - s4[r]).abs() < tol, "s4 row {r}");
            assert!((s1[r] - s5[r]).abs() < tol, "s5 row {r}");
        }
    }

    #[test]
    fn bigfusion_handles_partial_tiles_and_large_batches() {
        let (stack, _, _) = stack_and_input(7);
        // m not a multiple of the tile size, larger than one tile.
        let shape = BatchShape { n: 9, h: 5, w: 3 }; // m = 135
        let mut rng = StdRng::seed_from_u64(9);
        let input: Vec<f32> = (0..shape.m() * stack.c_in())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let want = stage4_fused(&stack, &input, shape).unwrap();
        let got = stage5_bigfusion(&stack, &input, shape).unwrap();
        for (a, b) in want.iter().zip(&got) {
            assert!((a - b).abs() < 1e-4 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn shape_errors_are_reported() {
        let (stack, input, shape) = stack_and_input(11);
        let short = &input[..input.len() - 8];
        assert!(matches!(
            stage2_matmul(&stack, short, shape),
            Err(OperatorError::BatchShape { .. })
        ));
        assert!(matches!(
            stage5_bigfusion(&stack, short, shape),
            Err(OperatorError::BatchShape { .. })
        ));
    }

    #[test]
    fn deterministic_across_runs() {
        let (stack, input, shape) = stack_and_input(13);
        let a = stage5_bigfusion(&stack, &input, shape).unwrap();
        let b = stage5_bigfusion(&stack, &input, shape).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bf16_stage_tracks_f32_within_quantization_tolerance() {
        let (stack, input, shape) = stack_and_input(19);
        let q = Bf16Stack::from_f32(&stack);
        let f = stage4_fused(&stack, &input, shape).unwrap();
        let b = stage4_fused_bf16(&q, &input, shape).unwrap();
        assert_eq!(f.len(), b.len());
        for (r, (a, c)) in f.iter().zip(&b).enumerate() {
            // bf16 carries ~2^-8 relative error per operand; a few layers
            // of accumulation stay well inside a percent on these scales.
            assert!((a - c).abs() < 1e-2 * (1.0 + a.abs()), "row {r}: {a} vs {c}");
        }
    }

    #[test]
    fn bf16_stage_is_deterministic_and_shape_checked() {
        let (stack, input, shape) = stack_and_input(23);
        let q = Bf16Stack::from_f32(&stack);
        let a = stage4_fused_bf16(&q, &input, shape).unwrap();
        let b = stage4_fused_bf16(&q, &input, shape).unwrap();
        assert_eq!(a, b);
        assert!(matches!(
            stage4_fused_bf16(&q, &input[..input.len() - 8], shape),
            Err(OperatorError::BatchShape { .. })
        ));
    }

    #[test]
    fn paper_shape_runs_through_the_ladder() {
        // The Fig. 9/10 workload: N,H,W = 32,16,16, channels
        // (64,128,128,128,64,1) — just verify the fast stages handle it.
        let fs = FeatureSet::paper_32();
        let cfg = ModelConfig::paper(&fs);
        let model = NnpModel::new(fs, &cfg, &mut StdRng::seed_from_u64(17));
        let stack = F32Stack::from_model(&model);
        let shape = BatchShape {
            n: 32,
            h: 16,
            w: 16,
        };
        let mut rng = StdRng::seed_from_u64(18);
        let input: Vec<f32> = (0..shape.m() * 64)
            .map(|_| rng.gen_range(0.0..1.0))
            .collect();
        let s4 = stage4_fused(&stack, &input, shape).unwrap();
        let s5 = stage5_bigfusion(&stack, &input, shape).unwrap();
        assert_eq!(s4.len(), shape.m());
        for (a, b) in s4.iter().zip(&s5) {
            assert!((a - b).abs() < 2e-3 * (1.0 + a.abs()));
        }
    }
}
