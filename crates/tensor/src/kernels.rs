//! Explicit-width, autovectorization-friendly slice kernels, plus the
//! retained scalar references they are property-tested against.
//!
//! Every inner loop of the workspace used to be a straight scalar `f32`
//! walk; a per-kernel timing breakdown showed the three matmul flavours
//! and the feature row gather dominating host compute, so this module
//! rewrites them as chunked kernels shaped for the compiler's
//! vectorizer (fixed-width lane arrays, no cross-lane dependencies, no
//! per-element branches). Design choices are profile-guided; a kernel
//! change is judged by the bit-exact property tests against [`reference`]
//! and by orchbench's `tensor.<kernel>_s` metrics (`orchbench trace`):
//!
//! - **Dot products** (`matmul_a_bt`): a single-accumulator reduction is a
//!   loop-carried dependency the vectorizer must preserve (float addition
//!   is not associative), so the scalar loop runs at 1 element/cycle. Eight
//!   independent lane accumulators break the chain.
//! - **Axpy-style rows** (`matmul`, `matmul_at_b`): the outer `k` loop is
//!   unrolled by 4: one pass over the output row fuses four row updates,
//!   quartering the out-row load/store traffic. The inner loop zips the
//!   output row with the four `b` rows: the same per-element sum as
//!   indexing `b0[j]…b3[j]`, bit for bit, 1.3–1.6x faster at the bottom
//!   layer's `1176×64 · 64×32` (six alternating pairs on a shared 2-vCPU
//!   x86-64 box: 0.37–0.70 → 0.26–0.50 ms; `matmul_at_b` 0.32–0.62 →
//!   0.23–0.43 ms).
//! - **Mean aggregations** (GCN's self-plus-neighbour mean, SAGE's
//!   neighbour mean, and their backward scatters): row adds and axpys
//!   over a [`RowView`] and a block's per-destination offsets and local
//!   indices, prefetching the rows the next-but-one destination reads.
//! - **ReLU**: written as a select (`if x < 0.0 { 0.0 } else { x }`), which
//!   compiles to packed compares and blends; the branch form compiled to a
//!   scalar store per lane. Same bits for `-0.0` and NaN.
//! - **Row gather**: `Matrix::zeros` + per-row copy touches every output
//!   byte twice (zero fill, then copy). Appending into reserved capacity
//!   touches it once.
//! - **Scatter-add**: the element-wise `zip` add *already* vectorizes;
//!   a hand-chunked rewrite was no faster, so the "chunked" path keeps
//!   the zip loop and only hoists the per-row slicing.
//! - **`a_val == 0.0` skip branches** (previously in `matmul` and
//!   `matmul_at_b`): measured a *loss* on both dense feature rows (extra
//!   compare per element) and ReLU-sparse activations (~50% zeros: branch
//!   mispredicts outweigh the skipped axpys at GNN hidden widths). Removed
//!   everywhere.
//!
//! Dispatch: each hot kernel has one portable body (`mod portable`,
//! `#[inline(always)]`) compiled twice, for the baseline x86-64 target
//! (4-wide SSE2) and as an AVX2 build (`#[target_feature(enable =
//! "avx2")]`, 8-wide). Every call picks the AVX2 build when
//! `is_x86_feature_detected!("avx2")` holds; std caches the CPUID probe, so
//! the check is one relaxed load. Other architectures run the portable
//! body. On a 2-vCPU AVX2 x86-64 box, one traced `train_bound` epoch's
//! `tensor.matmul_s` fell 0.071 → 0.027 s, `tensor.matmul_at_b_s` 0.046 →
//! 0.015 s and `tensor.aggregate_s` 0.083 → 0.053 s (one run each, seed 1).
//! A scratch AVX-512 build read within noise of AVX2 there, so there are
//! exactly two builds.
//!
//! Precision: both builds run the same IEEE operations in the same order on
//! every element; the wider one only packs more lanes into an instruction.
//! No FMA target feature is enabled and Rust never contracts `a * b + c`
//! into one rounding, so every float is the same on either path, on any
//! x86-64 CPU (`dispatched_builds_are_bit_identical` pins it); only a NaN
//! result's sign and payload, which Rust leaves unspecified, may differ.
//! Against the `reference` kernels, the k-unroll and the lane accumulators
//! change summation *order*, so matmul results may differ from those by a
//! few ULP (bounded by the usual `O(k·eps)` dot-product error either way).
//! Gather, scatter-add and copy kernels reorder nothing and stay bit-exact.
//! Determinism is unaffected: for a given shape the order is fixed, so
//! sequential-vs-pipelined bit-identity holds — both executors share these
//! kernels.

use crate::RowView;

/// Lane width of the dot-product accumulator block: one AVX vector, or two
/// SSE2 ones, enough independent chains to hide the multiply-then-add
/// latency. Each lane is a separate sum, so the lane count, not the vector
/// width, fixes the summation order: both dispatched builds add the same
/// products in the same order (and neither fuses a multiply into an add).
pub const DOT_LANES: usize = 8;

/// Outer-loop unroll factor of the axpy-style matmul kernels.
pub const K_UNROLL: usize = 4;

/// How many destinations ahead of the one being summed the mean
/// aggregations prefetch input rows: far enough for the loads to land
/// before the sum reads them, near enough that the rows are still cached.
/// 1, 2 and 4 read within noise of each other on a 2-vCPU x86_64 box.
const PREFETCH_AHEAD: usize = 2;

/// Declares each listed kernel as a function that runs its
/// [`portable`] body, or that body's AVX2 build (`mod avx2`) when the CPU
/// has AVX2: the one place a kernel picks its instruction set.
macro_rules! dispatch {
    ($($(#[$doc:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?);)*) => {
        /// The AVX2 builds of the [`portable`] bodies: the same code,
        /// compiled with 256-bit vectors and no FMA.
        #[cfg(target_arch = "x86_64")]
        mod avx2 {
            use super::*;
            $(
                #[target_feature(enable = "avx2")]
                pub(super) fn $name($($arg: $ty),*) {
                    portable::$name($($arg),*)
                }
            )*
        }

        $(
            $(#[$doc])*
            $vis fn $name($($arg: $ty),*) {
                #[cfg(target_arch = "x86_64")]
                if std::is_x86_feature_detected!("avx2") {
                    // SAFETY: the one requirement of calling a
                    // `#[target_feature(enable = "avx2")]` function is a CPU
                    // with AVX2, which the runtime check just confirmed.
                    return unsafe { avx2::$name($($arg),*) };
                }
                portable::$name($($arg),*)
            }
        )*
    };
}

dispatch! {
    /// `C += A · B` for row-major `C: m x n`, `A: m x k`, `B: k x n`. The body
    /// of [`crate::ops::matmul`]: k-unrolled axpy accumulation, no zero-skip
    /// branch (see module docs).
    pub(crate) fn matmul_rows(c: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize);

    /// `C = A · Bᵀ` for row-major `C: m x n`, `A: m x k`, `B: n x k`. The body
    /// of [`crate::ops::matmul_a_bt`]: one chunked [`DOT_LANES`]-accumulator
    /// dot product per output element.
    pub(crate) fn matmul_a_bt_rows(c: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize);

    /// `C += Aᵀ · B` where `A: k x m`, `B: k x n`, `C: m x n` (all row-major).
    /// Processes [`K_UNROLL`] outer products per pass over `C`, fusing four
    /// row updates into one load/store of each `C` row.
    pub(crate) fn matmul_at_b_acc(c: &mut [f32], a: &[f32], b: &[f32], k: usize, m: usize, n: usize);

    /// `out[i] += x[i]`.
    pub(crate) fn add_assign(out: &mut [f32], x: &[f32]);

    /// Adds `bias` to every `bias.len()`-wide row of `a`.
    pub(crate) fn add_bias_rows(a: &mut [f32], bias: &[f32]);

    /// Adds every `out.len()`-wide row of `a` into `out`, in row order.
    pub(crate) fn sum_rows_into(out: &mut [f32], a: &[f32]);

    /// ReLU in place: negatives become `+0.0`; `-0.0` and NaN pass through.
    pub(crate) fn relu(v: &mut [f32]);

    /// ReLU's backward in place: `grad[i] = 0.0` where `z[i] <= 0.0`.
    pub(crate) fn relu_backward(grad: &mut [f32], z: &[f32]);

    /// GCN's mean over each destination's own row and its sampled
    /// neighbours' rows: row `i` of `out` (`offsets.len() - 1` rows,
    /// `input.cols()` wide) becomes `(input[i] + Σ input[indices[j]]) /
    /// (deg + 1)` for `j` in `offsets[i]..offsets[i + 1]`. Destination `i` is
    /// source `i` by the block's prefix convention.
    pub fn mean_with_self(out: &mut [f32], input: RowView<'_>, offsets: &[u32], indices: &[u32]);

    /// The backward scatter of [`mean_with_self`]: adds row `i` of `d_agg`,
    /// scaled by `1 / (deg + 1)`, into `d_in`'s row `i` and each of its
    /// neighbours' rows (all `cols` wide).
    pub fn mean_with_self_backward(
        d_in: &mut [f32],
        d_agg: &[f32],
        cols: usize,
        offsets: &[u32],
        indices: &[u32],
    );

    /// SAGE's neighbour mean, self excluded: adds `input[indices[j]] / deg`
    /// into row `i` of `out` for each sampled neighbour `j` of destination
    /// `i`; a destination with no neighbours keeps its row.
    pub fn mean_of_neighbors(out: &mut [f32], input: RowView<'_>, offsets: &[u32], indices: &[u32]);

    /// The backward scatter of SAGE's two inputs: adds row `i` of `d_self`
    /// into `d_in`'s row `i`, and row `i` of `d_neigh`, scaled by `1 / deg`,
    /// into each neighbour's row (all `cols` wide).
    pub fn mean_of_neighbors_backward(
        d_in: &mut [f32],
        d_self: &[f32],
        d_neigh: &[f32],
        cols: usize,
        offsets: &[u32],
        indices: &[u32],
    );
}

/// The portable body of every dispatched kernel, and the helpers they
/// share. All `#[inline(always)]`, so each body is compiled whole into its
/// AVX2 build: a helper left out of line would run at baseline width.
mod portable {
    use super::{DOT_LANES, K_UNROLL, PREFETCH_AHEAD};
    use crate::RowView;

    /// Chunked dot product: `Σ a[i]·b[i]` with [`DOT_LANES`] independent
    /// accumulators. Excess of `a` beyond `b.len()` is ignored, matching
    /// `zip` semantics.
    #[inline(always)]
    pub(super) fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let whole = a.len() / DOT_LANES * DOT_LANES;
        let (a_head, a_tail) = a.split_at(whole);
        let (b_head, b_tail) = b.split_at(whole);
        let mut lanes = [0.0f32; DOT_LANES];
        for (ca, cb) in a_head
            .chunks_exact(DOT_LANES)
            .zip(b_head.chunks_exact(DOT_LANES))
        {
            for (lane, (&x, &y)) in lanes.iter_mut().zip(ca.iter().zip(cb)) {
                *lane += x * y;
            }
        }
        // Pairwise lane fold: fixed order, independent of input length.
        let mut acc = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
            + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
        for (&x, &y) in a_tail.iter().zip(b_tail) {
            acc += x * y;
        }
        acc
    }

    /// `out[i] += x[i]`. A plain zip: measured as fast as (dim 602) or
    /// faster than (dim 64) hand-chunked variants, because the vectorizer
    /// already handles non-reducing element-wise loops.
    #[inline(always)]
    pub(super) fn add_assign(out: &mut [f32], x: &[f32]) {
        debug_assert_eq!(out.len(), x.len());
        for (o, &v) in out.iter_mut().zip(x) {
            *o += v;
        }
    }

    /// `out[i] += alpha * x[i]`.
    #[inline(always)]
    pub(super) fn axpy(out: &mut [f32], alpha: f32, x: &[f32]) {
        debug_assert_eq!(out.len(), x.len());
        for (o, &v) in out.iter_mut().zip(x) {
            *o += alpha * v;
        }
    }

    /// Row `r` of a row-major table `cols` wide.
    #[inline(always)]
    fn row_mut(m: &mut [f32], cols: usize, r: usize) -> &mut [f32] {
        &mut m[r * cols..(r + 1) * cols]
    }

    #[inline(always)]
    pub(super) fn matmul_rows(c: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
        if n == 0 {
            return;
        }
        let k_whole = k / K_UNROLL * K_UNROLL;
        for (r, out_row) in c.chunks_exact_mut(n).enumerate() {
            let a_row = &a[r * k..(r + 1) * k];
            let mut kk = 0;
            while kk < k_whole {
                let (a0, a1, a2, a3) = (a_row[kk], a_row[kk + 1], a_row[kk + 2], a_row[kk + 3]);
                let (b0, rest) = b[kk * n..].split_at(n);
                let (b1, rest) = rest.split_at(n);
                let (b2, rest) = rest.split_at(n);
                let b3 = &rest[..n];
                let b = b0.iter().zip(b1).zip(b2).zip(b3);
                for (o, (((&x0, &x1), &x2), &x3)) in out_row.iter_mut().zip(b) {
                    *o += (a0 * x0 + a1 * x1) + (a2 * x2 + a3 * x3);
                }
                kk += K_UNROLL;
            }
            while kk < k {
                axpy(out_row, a_row[kk], &b[kk * n..(kk + 1) * n]);
                kk += 1;
            }
        }
    }

    #[inline(always)]
    pub(super) fn matmul_a_bt_rows(c: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
        if n == 0 {
            return;
        }
        for (r, out_row) in c.chunks_exact_mut(n).enumerate() {
            let a_row = &a[r * k..(r + 1) * k];
            for (j, o) in out_row.iter_mut().enumerate() {
                *o = dot(a_row, &b[j * k..(j + 1) * k]);
            }
        }
    }

    #[inline(always)]
    pub(super) fn matmul_at_b_acc(
        c: &mut [f32],
        a: &[f32],
        b: &[f32],
        k: usize,
        m: usize,
        n: usize,
    ) {
        if m == 0 || n == 0 {
            return;
        }
        let k_whole = k / K_UNROLL * K_UNROLL;
        let mut kk = 0;
        while kk < k_whole {
            let (a0, a_rest) = a[kk * m..].split_at(m);
            let (a1, a_rest) = a_rest.split_at(m);
            let (a2, a_rest) = a_rest.split_at(m);
            let a3 = &a_rest[..m];
            let (b0, b_rest) = b[kk * n..].split_at(n);
            let (b1, b_rest) = b_rest.split_at(n);
            let (b2, b_rest) = b_rest.split_at(n);
            let b3 = &b_rest[..n];
            for (i, c_row) in c.chunks_exact_mut(n).enumerate() {
                let (v0, v1, v2, v3) = (a0[i], a1[i], a2[i], a3[i]);
                let b = b0.iter().zip(b1).zip(b2).zip(b3);
                for (o, (((&x0, &x1), &x2), &x3)) in c_row.iter_mut().zip(b) {
                    *o += (v0 * x0 + v1 * x1) + (v2 * x2 + v3 * x3);
                }
            }
            kk += K_UNROLL;
        }
        while kk < k {
            let a_row = &a[kk * m..(kk + 1) * m];
            let b_row = &b[kk * n..(kk + 1) * n];
            for (i, c_row) in c.chunks_exact_mut(n).enumerate() {
                axpy(c_row, a_row[i], b_row);
            }
            kk += 1;
        }
    }

    #[inline(always)]
    pub(super) fn add_bias_rows(a: &mut [f32], bias: &[f32]) {
        if bias.is_empty() {
            return;
        }
        for row in a.chunks_exact_mut(bias.len()) {
            add_assign(row, bias);
        }
    }

    #[inline(always)]
    pub(super) fn sum_rows_into(out: &mut [f32], a: &[f32]) {
        if out.is_empty() {
            return;
        }
        for row in a.chunks_exact(out.len()) {
            add_assign(out, row);
        }
    }

    #[inline(always)]
    pub(super) fn relu(v: &mut [f32]) {
        for x in v {
            *x = if *x < 0.0 { 0.0 } else { *x };
        }
    }

    #[inline(always)]
    pub(super) fn relu_backward(grad: &mut [f32], z: &[f32]) {
        debug_assert_eq!(grad.len(), z.len());
        for (g, &zv) in grad.iter_mut().zip(z) {
            *g = if zv <= 0.0 { 0.0 } else { *g };
        }
    }

    /// Before a mean aggregation sums destination `i`, asks for the input
    /// rows destination `i + PREFETCH_AHEAD` will read: its sampled
    /// neighbours, and its own row when `with_self` (GCN sums it, SAGE
    /// reads it elsewhere). The rows of a cached or gathered view are
    /// scattered over tables too large for cache, so each read otherwise
    /// waits on memory.
    #[inline(always)]
    fn prefetch_ahead(
        input: RowView<'_>,
        offsets: &[u32],
        indices: &[u32],
        i: usize,
        with_self: bool,
    ) {
        let dst = i + PREFETCH_AHEAD;
        let (Some(&start), Some(&end)) = (offsets.get(dst), offsets.get(dst + 1)) else {
            return;
        };
        if with_self {
            input.prefetch(dst);
        }
        for &li in &indices[start as usize..end as usize] {
            input.prefetch(li as usize);
        }
    }

    #[inline(always)]
    pub(super) fn mean_with_self(
        out: &mut [f32],
        input: RowView<'_>,
        offsets: &[u32],
        indices: &[u32],
    ) {
        let cols = input.cols();
        for (i, span) in offsets.windows(2).enumerate() {
            prefetch_ahead(input, offsets, indices, i, true);
            let row = row_mut(out, cols, i);
            row.copy_from_slice(input.row(i));
            let neighbors = &indices[span[0] as usize..span[1] as usize];
            for &li in neighbors {
                add_assign(row, input.row(li as usize));
            }
            let norm = 1.0 / (neighbors.len() + 1) as f32;
            for v in row {
                *v *= norm;
            }
        }
    }

    #[inline(always)]
    pub(super) fn mean_with_self_backward(
        d_in: &mut [f32],
        d_agg: &[f32],
        cols: usize,
        offsets: &[u32],
        indices: &[u32],
    ) {
        for (i, span) in offsets.windows(2).enumerate() {
            let neighbors = &indices[span[0] as usize..span[1] as usize];
            let norm = 1.0 / (neighbors.len() + 1) as f32;
            let g = &d_agg[i * cols..(i + 1) * cols];
            axpy(row_mut(d_in, cols, i), norm, g);
            for &li in neighbors {
                axpy(row_mut(d_in, cols, li as usize), norm, g);
            }
        }
    }

    #[inline(always)]
    pub(super) fn mean_of_neighbors(
        out: &mut [f32],
        input: RowView<'_>,
        offsets: &[u32],
        indices: &[u32],
    ) {
        let cols = input.cols();
        for (i, span) in offsets.windows(2).enumerate() {
            prefetch_ahead(input, offsets, indices, i, false);
            let neighbors = &indices[span[0] as usize..span[1] as usize];
            if neighbors.is_empty() {
                continue;
            }
            let norm = 1.0 / neighbors.len() as f32;
            let row = row_mut(out, cols, i);
            for &li in neighbors {
                axpy(row, norm, input.row(li as usize));
            }
        }
    }

    #[inline(always)]
    pub(super) fn mean_of_neighbors_backward(
        d_in: &mut [f32],
        d_self: &[f32],
        d_neigh: &[f32],
        cols: usize,
        offsets: &[u32],
        indices: &[u32],
    ) {
        for (i, span) in offsets.windows(2).enumerate() {
            add_assign(row_mut(d_in, cols, i), &d_self[i * cols..(i + 1) * cols]);
            let neighbors = &indices[span[0] as usize..span[1] as usize];
            if neighbors.is_empty() {
                continue;
            }
            let norm = 1.0 / neighbors.len() as f32;
            let g = &d_neigh[i * cols..(i + 1) * cols];
            for &li in neighbors {
                axpy(row_mut(d_in, cols, li as usize), norm, g);
            }
        }
    }
}

/// Row gather into reserved capacity: appends `rows[i] = src[indices[i]]`
/// to `out` without zero-filling first. `src` is row-major with `dim`
/// columns; every index must be `< src.len() / dim`.
#[inline]
pub fn gather_rows_into(out: &mut Vec<f32>, src: &[f32], dim: usize, indices: &[usize]) {
    out.reserve(indices.len() * dim);
    for &i in indices {
        out.extend_from_slice(&src[i * dim..(i + 1) * dim]);
    }
}

/// [`gather_rows_into`] over `u32` vertex ids — the id width the sampling
/// layer produces, so callers no longer widen every index into a fresh
/// `Vec<usize>` before gathering.
#[inline]
pub fn gather_rows_u32_into(out: &mut Vec<f32>, src: &[f32], dim: usize, indices: &[u32]) {
    out.reserve(indices.len() * dim);
    for &i in indices {
        let i = i as usize;
        out.extend_from_slice(&src[i * dim..(i + 1) * dim]);
    }
}

/// Scatter-add of `src`'s rows into rows `indices[i]` of `out` (row-major,
/// `dim` columns each). Duplicate destinations accumulate in `indices`
/// order, exactly like the scalar reference.
#[inline]
pub fn scatter_add_rows(out: &mut [f32], dim: usize, indices: &[usize], src: &[f32]) {
    debug_assert_eq!(src.len(), indices.len() * dim);
    if dim == 0 {
        return;
    }
    for (row, &d) in src.chunks_exact(dim).zip(indices) {
        portable::add_assign(&mut out[d * dim..(d + 1) * dim], row);
    }
}

/// The retained scalar reference kernels. These are the pre-optimisation
/// implementations, kept verbatim so the chunked kernels can be
/// property-tested against them forever. Do not "fix" or
/// speed these up: their value is being obviously correct and slow.
pub mod reference {
    /// Naive triple-loop `C = A·B` (`A: m x k`, `B: k x n`).
    pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    /// Sequential outer-product `C = Aᵀ·B` (`A: k x m`, `B: k x n`) — the
    /// pre-optimisation `matmul_at_b` loop, minus the measured-off
    /// zero-skip branch.
    pub fn matmul_at_b(a: &[f32], b: &[f32], k: usize, m: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for kk in 0..k {
            let a_row = &a[kk * m..(kk + 1) * m];
            let b_row = &b[kk * n..(kk + 1) * n];
            for (i, &av) in a_row.iter().enumerate() {
                for (cv, &bv) in c[i * n..(i + 1) * n].iter_mut().zip(b_row) {
                    *cv += av * bv;
                }
            }
        }
        c
    }

    /// Single-accumulator `C = A·Bᵀ` (`A: m x k`, `B: n x k`) — the
    /// latency-bound loop `matmul_a_bt_rows`' chunked dot product replaces.
    pub fn matmul_a_bt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for (&x, &y) in a[i * k..(i + 1) * k].iter().zip(&b[j * k..(j + 1) * k]) {
                    acc += x * y;
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    /// Zero-fill-then-copy row gather.
    pub fn gather_rows(src: &[f32], dim: usize, indices: &[usize]) -> Vec<f32> {
        let mut out = vec![0.0f32; indices.len() * dim];
        for (r, &i) in indices.iter().enumerate() {
            out[r * dim..(r + 1) * dim].copy_from_slice(&src[i * dim..(i + 1) * dim]);
        }
        out
    }

    /// Per-element scatter-add.
    pub fn scatter_add_rows(out: &mut [f32], dim: usize, indices: &[usize], src: &[f32]) {
        for (r, &d) in indices.iter().enumerate() {
            for c in 0..dim {
                out[d * dim + c] += src[r * dim + c];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn seq(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.37).sin()).collect()
    }

    #[test]
    fn dot_matches_reference_within_ulp_slack() {
        for len in [0, 1, 7, 8, 9, 16, 23, 64, 101] {
            let a = seq(len);
            let b: Vec<f32> = seq(len).iter().map(|v| v * 1.3 - 0.2).collect();
            let want: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let got = portable::dot(&a, &b);
            assert!(
                (want - got).abs() <= 1e-5 * (1.0 + want.abs()),
                "len {len}: {want} vs {got}"
            );
        }
    }

    #[test]
    fn gather_is_bit_exact_and_skips_zero_fill() {
        let src = seq(7 * 3);
        let idx = [6usize, 0, 3, 3];
        let want = reference::gather_rows(&src, 3, &idx);
        let mut got = Vec::new();
        gather_rows_into(&mut got, &src, 3, &idx);
        assert_eq!(want, got);
    }

    #[test]
    fn u32_gather_matches_the_widened_index_path() {
        let src = seq(9 * 4);
        let ids: Vec<u32> = vec![8, 2, 5, 0, 5];
        let widened: Vec<usize> = ids.iter().map(|&v| v as usize).collect();
        let want = reference::gather_rows(&src, 4, &widened);
        let mut got = vec![7.0f32]; // the gather appends after existing content
        gather_rows_u32_into(&mut got, &src, 4, &ids);
        assert_eq!(got[0], 7.0);
        assert_eq!(&got[1..], &want[..]);

        let mut empty = Vec::new();
        gather_rows_u32_into(&mut empty, &[], 0, &[0, 3]);
        assert!(empty.is_empty());
    }

    #[test]
    fn scatter_add_is_bit_exact_with_duplicates() {
        let src = seq(4 * 5);
        let idx = [2usize, 0, 2, 1];
        let mut want = seq(3 * 5);
        let mut got = want.clone();
        reference::scatter_add_rows(&mut want, 5, &idx, &src);
        scatter_add_rows(&mut got, 5, &idx, &src);
        assert_eq!(want, got);
    }

    #[test]
    fn zero_dim_rows_are_noops() {
        let mut out: Vec<f32> = Vec::new();
        scatter_add_rows(&mut out, 0, &[0, 1, 2], &[]);
        let mut gathered = Vec::new();
        gather_rows_into(&mut gathered, &[], 0, &[0, 5, 9]);
        assert!(out.is_empty() && gathered.is_empty());
    }

    /// The indexed bodies the zip kernels replaced, kept to pin them bit
    /// for bit: same per-element sum, same order.
    fn indexed_matmul_rows(c: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
        if n == 0 {
            return;
        }
        let k_whole = k / K_UNROLL * K_UNROLL;
        for (r, out_row) in c.chunks_exact_mut(n).enumerate() {
            let a_row = &a[r * k..(r + 1) * k];
            let mut kk = 0;
            while kk < k_whole {
                let (a0, a1, a2, a3) = (a_row[kk], a_row[kk + 1], a_row[kk + 2], a_row[kk + 3]);
                let (b0, rest) = b[kk * n..].split_at(n);
                let (b1, rest) = rest.split_at(n);
                let (b2, rest) = rest.split_at(n);
                let b3 = &rest[..n];
                for (j, o) in out_row.iter_mut().enumerate() {
                    *o += (a0 * b0[j] + a1 * b1[j]) + (a2 * b2[j] + a3 * b3[j]);
                }
                kk += K_UNROLL;
            }
            while kk < k {
                portable::axpy(out_row, a_row[kk], &b[kk * n..(kk + 1) * n]);
                kk += 1;
            }
        }
    }

    fn indexed_matmul_at_b_acc(c: &mut [f32], a: &[f32], b: &[f32], k: usize, m: usize, n: usize) {
        if m == 0 || n == 0 {
            return;
        }
        let k_whole = k / K_UNROLL * K_UNROLL;
        let mut kk = 0;
        while kk < k_whole {
            let (a0, a_rest) = a[kk * m..].split_at(m);
            let (a1, a_rest) = a_rest.split_at(m);
            let (a2, a_rest) = a_rest.split_at(m);
            let a3 = &a_rest[..m];
            let (b0, b_rest) = b[kk * n..].split_at(n);
            let (b1, b_rest) = b_rest.split_at(n);
            let (b2, b_rest) = b_rest.split_at(n);
            let b3 = &b_rest[..n];
            for (i, c_row) in c.chunks_exact_mut(n).enumerate() {
                let (v0, v1, v2, v3) = (a0[i], a1[i], a2[i], a3[i]);
                for (j, o) in c_row.iter_mut().enumerate() {
                    *o += (v0 * b0[j] + v1 * b1[j]) + (v2 * b2[j] + v3 * b3[j]);
                }
            }
            kk += K_UNROLL;
        }
        while kk < k {
            let a_row = &a[kk * m..(kk + 1) * m];
            let b_row = &b[kk * n..(kk + 1) * n];
            for (i, c_row) in c.chunks_exact_mut(n).enumerate() {
                portable::axpy(c_row, a_row[i], b_row);
            }
            kk += 1;
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn zip_kernels_equal_the_indexed_bodies_bit_for_bit() {
        for m in [0usize, 1, 3, 17] {
            for k in [1usize, 3, 4, 5, 7, 8, 13, 64] {
                for n in [0usize, 1, 8, 32, 602] {
                    let a = seq(m * k);
                    let b: Vec<f32> = seq(k * n).iter().map(|v| v * 0.7 - 0.1).collect();
                    // Accumulating kernels: start from a nonzero C.
                    let c0: Vec<f32> = seq(m * n).iter().map(|v| v * 0.5).collect();
                    let (mut want, mut got) = (c0.clone(), c0.clone());
                    indexed_matmul_rows(&mut want, &a, &b, k, n);
                    matmul_rows(&mut got, &a, &b, k, n);
                    assert_eq!(bits(&got), bits(&want), "matmul m={m} k={k} n={n}");

                    let at: Vec<f32> = seq(k * m).iter().map(|v| v * 1.3).collect();
                    let (mut want, mut got) = (c0.clone(), c0);
                    indexed_matmul_at_b_acc(&mut want, &at, &b, k, m, n);
                    matmul_at_b_acc(&mut got, &at, &b, k, m, n);
                    assert_eq!(bits(&got), bits(&want), "at_b m={m} k={k} n={n}");
                }
            }
        }
    }

    #[test]
    fn matmul_rows_covers_unroll_boundaries() {
        for k in [1usize, 3, 4, 5, 8, 11] {
            let (m, n) = (3usize, 5usize);
            let a = seq(m * k);
            let b = seq(k * n);
            let want = reference::matmul(&a, &b, m, k, n);
            let mut got = vec![0.0f32; m * n];
            matmul_rows(&mut got, &a, &b, k, n);
            for (w, g) in want.iter().zip(&got) {
                assert!((w - g).abs() <= 1e-5 * (1.0 + w.abs()), "k={k}");
            }
        }
    }

    #[test]
    fn at_b_acc_covers_unroll_boundaries() {
        for k in [1usize, 2, 4, 6, 8, 9] {
            let (m, n) = (4usize, 3usize);
            let a = seq(k * m);
            let b = seq(k * n);
            let want = reference::matmul_at_b(&a, &b, k, m, n);
            let mut got = vec![0.0f32; m * n];
            matmul_at_b_acc(&mut got, &a, &b, k, m, n);
            for (w, g) in want.iter().zip(&got) {
                assert!((w - g).abs() <= 1e-5 * (1.0 + w.abs()), "k={k}");
            }
        }
    }

    #[test]
    fn a_bt_rows_matches_reference() {
        let (m, k, n) = (3usize, 19usize, 4usize);
        let a = seq(m * k);
        let b = seq(n * k);
        let want = reference::matmul_a_bt(&a, &b, m, k, n);
        let mut got = vec![0.0f32; m * n];
        matmul_a_bt_rows(&mut got, &a, &b, k, n);
        for (w, g) in want.iter().zip(&got) {
            assert!((w - g).abs() <= 1e-5 * (1.0 + w.abs()));
        }
    }
    /// The branch-form ReLU and its backward, as written before the select
    /// form: the reference both builds must match.
    fn relu_branch_reference(v: &mut [f32]) {
        for x in v {
            if *x < 0.0 {
                *x = 0.0;
            }
        }
    }

    fn relu_backward_branch_reference(grad: &mut [f32], z: &[f32]) {
        for (g, &zv) in grad.iter_mut().zip(z) {
            if zv <= 0.0 {
                *g = 0.0;
            }
        }
    }

    /// `len` values, mostly ordinary floats of mixed sign and magnitude
    /// (some small enough that products go subnormal), with ±0, NaN, ±inf
    /// and subnormals mixed in.
    fn spiky(len: usize, salt: u32) -> Vec<f32> {
        const SPECIAL: [f32; 8] = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e-40,
            -3e-42,
            f32::MIN_POSITIVE,
        ];
        (0..len as u32)
            .map(|i| {
                let h = (i ^ salt.rotate_left(7)).wrapping_mul(0x9e37_79b9) >> 7;
                match h % 23 {
                    0 => SPECIAL[(h / 23) as usize % SPECIAL.len()],
                    1 | 2 => (h % 1000) as f32 * 1e-22 - 5e-20,
                    _ => ((h % 2003) as f32 * 0.37).sin() * 1.7,
                }
            })
            .collect()
    }

    /// Runs one kernel on a copy of `init` through `portable` (its portable
    /// body) and `dispatched` (its dispatcher, which on an AVX2 CPU is the
    /// AVX2 build), and asserts the outputs equal bit for bit, every NaN
    /// read as one pattern. Rust leaves the sign and payload of a NaN result
    /// unspecified: where two NaNs meet (or inf - inf makes x86's negative
    /// default NaN), which one survives depends on the operand order the
    /// code generator picks for a commutative op, and the two builds pick
    /// differently. Whether a result is NaN does not depend on it.
    fn same_bits(
        what: &str,
        init: &[f32],
        portable: impl Fn(&mut [f32]),
        dispatched: impl Fn(&mut [f32]),
    ) {
        let (mut want, mut got) = (init.to_vec(), init.to_vec());
        portable(&mut want);
        dispatched(&mut got);
        let canonical = |xs: &[f32]| -> Vec<u32> {
            xs.iter()
                .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
                .collect()
        };
        assert_eq!(canonical(&got), canonical(&want), "{what}");
    }

    /// A block-shaped adjacency over `num_src` sources: destination `i` has
    /// `i * 5 % 7` neighbours (some none), repeats included.
    fn adjacency(num_dst: usize, num_src: usize) -> (Vec<u32>, Vec<u32>) {
        let mut offsets = vec![0u32];
        let mut indices = Vec::new();
        for i in 0..num_dst {
            for j in 0..i * 5 % 7 {
                indices.push(((i * 31 + j * 17) % num_src.max(1)) as u32);
            }
            offsets.push(indices.len() as u32);
        }
        (offsets, indices)
    }

    #[test]
    fn dispatched_builds_are_bit_identical() {
        if !avx2_present() {
            eprintln!("this CPU has no AVX2: only the portable build runs, nothing to compare");
            return;
        }
        for m in [0usize, 1, 3] {
            for k in [1usize, 3, 4, 5, 7, 13] {
                for n in [0usize, 1, 7, 8, 9, 16, 17, 32, 602] {
                    let shape = format!("m={m} k={k} n={n}");
                    let a = spiky(m * k, 1);
                    let b = spiky(k * n, 2);
                    let c0 = spiky(m * n, 3);
                    same_bits(
                        &format!("matmul_rows {shape}"),
                        &c0,
                        |c| portable::matmul_rows(c, &a, &b, k, n),
                        |c| matmul_rows(c, &a, &b, k, n),
                    );
                    let at = spiky(k * m, 4);
                    same_bits(
                        &format!("matmul_at_b_acc {shape}"),
                        &c0,
                        |c| portable::matmul_at_b_acc(c, &at, &b, k, m, n),
                        |c| matmul_at_b_acc(c, &at, &b, k, m, n),
                    );
                    let bt = spiky(n * k, 5);
                    same_bits(
                        &format!("matmul_a_bt_rows {shape}"),
                        &c0,
                        |c| portable::matmul_a_bt_rows(c, &a, &bt, k, n),
                        |c| matmul_a_bt_rows(c, &a, &bt, k, n),
                    );
                }
            }
        }
        for n in [0usize, 1, 7, 8, 9, 16, 17, 32, 602] {
            let rows = 5;
            let (x, y) = (spiky(rows * n, 6), spiky(rows * n, 7));
            let bias = spiky(n, 8);
            let head = spiky(n, 9);
            same_bits(
                &format!("add_assign n={n}"),
                &x,
                |o| portable::add_assign(o, &y),
                |o| add_assign(o, &y),
            );
            same_bits(
                &format!("add_bias_rows n={n}"),
                &x,
                |o| portable::add_bias_rows(o, &bias),
                |o| add_bias_rows(o, &bias),
            );
            same_bits(
                &format!("sum_rows_into n={n}"),
                &head,
                |o| portable::sum_rows_into(o, &x),
                |o| sum_rows_into(o, &x),
            );
            let mut want = x.clone();
            relu_branch_reference(&mut want);
            same_bits(&format!("relu n={n}"), &x, portable::relu, relu);
            same_bits(&format!("relu reference n={n}"), &x, portable::relu, |v| {
                v.copy_from_slice(&want)
            });
            let mut want = x.clone();
            relu_backward_branch_reference(&mut want, &y);
            same_bits(
                &format!("relu_backward n={n}"),
                &x,
                |g| portable::relu_backward(g, &y),
                |g| relu_backward(g, &y),
            );
            same_bits(
                &format!("relu_backward reference n={n}"),
                &x,
                |g| portable::relu_backward(g, &y),
                |g| g.copy_from_slice(&want),
            );

            // The mean aggregations over a block-shaped adjacency, reading
            // the input through a split view (misses and cached hits).
            let (num_dst, num_src) = (9, 23);
            let (offsets, indices) = adjacency(num_dst, num_src);
            let misses = Matrix::from_vec(num_src, n, spiky(num_src * n, 10));
            let hits = spiky(4 * n, 11);
            let index: Vec<u32> = (0..num_src as u32)
                .map(|p| {
                    if p % 3 == 1 {
                        RowView::SECONDARY | (p % 4)
                    } else {
                        p
                    }
                })
                .collect();
            let input = RowView::split(&misses, &hits, &index);
            let out0 = spiky(num_dst * n, 12);
            same_bits(
                &format!("mean_with_self n={n}"),
                &out0,
                |o| portable::mean_with_self(o, input, &offsets, &indices),
                |o| mean_with_self(o, input, &offsets, &indices),
            );
            same_bits(
                &format!("mean_of_neighbors n={n}"),
                &out0,
                |o| portable::mean_of_neighbors(o, input, &offsets, &indices),
                |o| mean_of_neighbors(o, input, &offsets, &indices),
            );
            let d_in0 = spiky(num_src * n, 13);
            let (d_self, d_neigh) = (spiky(num_dst * n, 14), spiky(num_dst * n, 15));
            same_bits(
                &format!("mean_with_self_backward n={n}"),
                &d_in0,
                |d| portable::mean_with_self_backward(d, &d_neigh, n, &offsets, &indices),
                |d| mean_with_self_backward(d, &d_neigh, n, &offsets, &indices),
            );
            same_bits(
                &format!("mean_of_neighbors_backward n={n}"),
                &d_in0,
                |d| {
                    portable::mean_of_neighbors_backward(
                        d, &d_self, &d_neigh, n, &offsets, &indices,
                    )
                },
                |d| mean_of_neighbors_backward(d, &d_self, &d_neigh, n, &offsets, &indices),
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    fn avx2_present() -> bool {
        std::is_x86_feature_detected!("avx2")
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn avx2_present() -> bool {
        false
    }
}
