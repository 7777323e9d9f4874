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
//! Precision: the k-unroll and the lane accumulators change summation
//! *order*, so matmul results may differ from the references by a few ULP
//! (bounded by the usual `O(k·eps)` dot-product error either way). Gather,
//! scatter-add and copy kernels reorder nothing and stay bit-exact.
//! Determinism is unaffected: for a given shape the order is fixed, so
//! sequential-vs-pipelined bit-identity holds — both executors share these
//! kernels.

/// Lane width of the dot-product accumulator block. Eight f32 lanes = two
/// SSE2 vectors (or one AVX vector), enough independent chains to hide the
/// multiply-then-add latency (the baseline target has no FMA, and bit-identity
/// across machines depends on none being emitted).
pub const DOT_LANES: usize = 8;

/// Outer-loop unroll factor of the axpy-style matmul kernels.
pub const K_UNROLL: usize = 4;

/// Chunked dot product: `Σ a[i]·b[i]` with [`DOT_LANES`] independent
/// accumulators. Panics if lengths differ (debug); excess of `a` beyond
/// `b.len()` is ignored in release, matching `zip` semantics.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
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

/// `out[i] += x[i]` — the element-wise accumulate shared by scatter-add and
/// the GNN aggregation paths. A plain zip: measured as fast as (dim 602) or
/// faster than (dim 64) hand-chunked variants, because the vectorizer
/// already handles non-reducing element-wise loops.
#[inline]
pub fn add_assign_slice(out: &mut [f32], x: &[f32]) {
    debug_assert_eq!(out.len(), x.len());
    for (o, &v) in out.iter_mut().zip(x) {
        *o += v;
    }
}

/// `out[i] += alpha * x[i]` (axpy over slices).
#[inline]
pub fn axpy(out: &mut [f32], alpha: f32, x: &[f32]) {
    debug_assert_eq!(out.len(), x.len());
    for (o, &v) in out.iter_mut().zip(x) {
        *o += alpha * v;
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
        add_assign_slice(&mut out[d * dim..(d + 1) * dim], row);
    }
}

/// `C += A · B` for row-major `C: m x n`, `A: m x k`, `B: k x n`. The body
/// of [`crate::ops::matmul`]: k-unrolled axpy accumulation, no zero-skip
/// branch (see module docs).
pub fn matmul_rows(c: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
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

/// `C = A · Bᵀ` for row-major `C: m x n`, `A: m x k`, `B: n x k`. The body
/// of [`crate::ops::matmul_a_bt`]: one chunked [`dot`] per output element.
pub fn matmul_a_bt_rows(c: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
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

/// `C += Aᵀ · B` where `A: k x m`, `B: k x n`, `C: m x n` (all row-major).
/// Processes [`K_UNROLL`] outer products per pass over `C`, fusing four
/// row updates into one load/store of each `C` row.
pub fn matmul_at_b_acc(c: &mut [f32], a: &[f32], b: &[f32], k: usize, m: usize, n: usize) {
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
    /// latency-bound loop the chunked [`super::dot`] replaces.
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

    fn seq(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.37).sin()).collect()
    }

    #[test]
    fn dot_matches_reference_within_ulp_slack() {
        for len in [0, 1, 7, 8, 9, 16, 23, 64, 101] {
            let a = seq(len);
            let b: Vec<f32> = seq(len).iter().map(|v| v * 1.3 - 0.2).collect();
            let want: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let got = dot(&a, &b);
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
                axpy(out_row, a_row[kk], &b[kk * n..(kk + 1) * n]);
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
                axpy(c_row, a_row[i], b_row);
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
}
