//! Real-parallel implementations of the key algorithms, for wall-clock
//! benchmarking on actual hardware (experiment W1).
//!
//! Every kernel here expresses its parallelism as binary fork-join through
//! [`pjoin`], which makes the functions **backend-generic**:
//!
//! * called from inside a native pool worker (see
//!   [`hbp_sched::native::NativePool`], selected by `HBP_BACKEND=native`
//!   at the executor layer), joins fork onto the worker's deque and are
//!   stolen by the pool's randomized work stealing — the practical
//!   analogue of the paper's RWS baseline executing the same fork-join
//!   structure the trace algorithms record;
//! * called anywhere else, joins go to `rayon::join` (the vendored shim
//!   runs both closures on scoped threads up to a depth budget).

use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicBool, AtomicU64};

use hbp_model::Cx;

use crate::layout::morton;

/// Sequential cutoff below which recursion stops forking.
const SEQ_CUTOFF: usize = 1 << 10;

/// Backend-dispatching join: the native pool's stealing deques when the
/// calling thread is a pool worker, rayon otherwise.
pub fn pjoin<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if hbp_sched::native::in_pool() {
        hbp_sched::native::join(a, b)
    } else {
        rayon::join(a, b)
    }
}

/// Parallel sum (M-Sum).
pub fn par_sum(a: &[u64]) -> u64 {
    if a.len() <= SEQ_CUTOFF {
        return a.iter().copied().fold(0u64, u64::wrapping_add);
    }
    let (l, r) = a.split_at(a.len() / 2);
    let (x, y) = pjoin(|| par_sum(l), || par_sum(r));
    x.wrapping_add(y)
}

/// Parallel inclusive prefix sums (two-pass, PS).
pub fn par_prefix(a: &[u64]) -> Vec<u64> {
    let n = a.len();
    if n == 0 {
        return Vec::new();
    }
    // Pass 1: per-chunk sums, computed by forked subtrees.
    fn chunk_sums(a: &[u64], chunk: usize, out: &mut [u64]) {
        if out.len() == 1 {
            out[0] = a.iter().copied().fold(0u64, u64::wrapping_add);
            return;
        }
        let mid = out.len() / 2;
        let (ol, or) = out.split_at_mut(mid);
        let (al, ar) = a.split_at(mid * chunk);
        pjoin(|| chunk_sums(al, chunk, ol), || chunk_sums(ar, chunk, or));
    }
    // Pass 2: rescan each chunk with its exclusive offset.
    fn down_sweep(a: &[u64], out: &mut [u64], chunk: usize, offsets: &[u64]) {
        if offsets.len() == 1 {
            let mut acc = offsets[0];
            for (d, &x) in out.iter_mut().zip(a) {
                acc = acc.wrapping_add(x);
                *d = acc;
            }
            return;
        }
        let mid = offsets.len() / 2;
        let (fl, fr) = offsets.split_at(mid);
        let (ol, or) = out.split_at_mut(mid * chunk);
        let (al, ar) = a.split_at(mid * chunk);
        pjoin(
            || down_sweep(al, ol, chunk, fl),
            || down_sweep(ar, or, chunk, fr),
        );
    }
    let chunk = SEQ_CUTOFF.min(n.div_ceil(64)).max(1);
    let k = n.div_ceil(chunk);
    let mut sums = vec![0u64; k];
    chunk_sums(a, chunk, &mut sums);
    let mut offsets = vec![0u64; k];
    let mut acc = 0u64;
    for (o, s) in offsets.iter_mut().zip(&sums) {
        *o = acc;
        acc = acc.wrapping_add(*s);
    }
    let mut out = vec![0u64; n];
    down_sweep(a, &mut out, chunk, &offsets);
    out
}

/// In-place transpose of an `n×n` matrix in BI layout (MT), with joins
/// mirroring the BP recursion.
pub fn par_transpose_bi(a: &mut [f64], n: usize) {
    assert!(n.is_power_of_two() && a.len() == n * n);
    fn diag(a: &mut [f64], k: usize) {
        if k == 1 {
            return;
        }
        let h = k / 2;
        let q = h * h;
        if k * k <= SEQ_CUTOFF {
            let (tl, rest) = a.split_at_mut(q);
            let (tr, rest2) = rest.split_at_mut(q);
            let (bl, br) = rest2.split_at_mut(q);
            diag(tl, h);
            diag(br, h);
            swap_t(tr, bl, h);
            return;
        }
        let (tl, rest) = a.split_at_mut(q);
        let (tr, rest2) = rest.split_at_mut(q);
        let (bl, br) = rest2.split_at_mut(q);
        pjoin(
            || pjoin(|| diag(tl, h), || diag(br, h)),
            || swap_t(tr, bl, h),
        );
    }
    fn swap_t(x: &mut [f64], y: &mut [f64], k: usize) {
        if k == 1 {
            std::mem::swap(&mut x[0], &mut y[0]);
            return;
        }
        let h = k / 2;
        let q = h * h;
        let (x0, xr) = x.split_at_mut(q);
        let (x1, xr2) = xr.split_at_mut(q);
        let (x2, x3) = xr2.split_at_mut(q);
        let (y0, yr) = y.split_at_mut(q);
        let (y1, yr2) = yr.split_at_mut(q);
        let (y2, y3) = yr2.split_at_mut(q);
        if k * k * 2 <= SEQ_CUTOFF {
            swap_t(x0, y0, h);
            swap_t(x1, y2, h);
            swap_t(x2, y1, h);
            swap_t(x3, y3, h);
            return;
        }
        pjoin(
            || pjoin(|| swap_t(x0, y0, h), || swap_t(x1, y2, h)),
            || pjoin(|| swap_t(x2, y1, h), || swap_t(x3, y3, h)),
        );
    }
    diag(a, n);
}

/// Side of the Strassen recursion's leaves: a `k×k` product with
/// `k ≤ STRASSEN_LEAF` is multiplied directly.
const STRASSEN_LEAF: usize = 32;

/// Direct product of two `k×k` BI blocks (`k ≤ STRASSEN_LEAF`).
///
/// Both blocks are gathered into stack-local row-major arrays through a
/// table of `spread(i)` (`morton(i, j) = spread(i) << 1 | spread(j)`),
/// multiplied by an i-l-j loop over contiguous rows, and C is scattered
/// back into BI order. Every `c[i][j]` sums `a[i][l]·b[l][j]` over
/// `l = 0, 1, …` in the same order as a morton-indexed triple loop, so the
/// result is bit-identical to it.
fn strassen_leaf(a: &[f64], b: &[f64], k: usize) -> Vec<f64> {
    assert!(k <= STRASSEN_LEAF);
    let mut spread = [0usize; STRASSEN_LEAF];
    for (j, s) in spread[..k].iter_mut().enumerate() {
        *s = morton(0, j as u64) as usize;
    }
    let spread = &spread[..k];
    let at = |i: usize, j: usize| spread[i] << 1 | spread[j];
    let mut ar = [0.0; STRASSEN_LEAF * STRASSEN_LEAF];
    let mut br = [0.0; STRASSEN_LEAF * STRASSEN_LEAF];
    let mut cr = [0.0; STRASSEN_LEAF * STRASSEN_LEAF];
    for i in 0..k {
        for j in 0..k {
            ar[i * k + j] = a[at(i, j)];
            br[i * k + j] = b[at(i, j)];
        }
    }
    let (ar, br) = (&ar[..k * k], &br[..k * k]);
    for (ci, ai) in cr[..k * k].chunks_exact_mut(k).zip(ar.chunks_exact(k)) {
        for (&x, bl) in ai.iter().zip(br.chunks_exact(k)) {
            for (c, &y) in ci.iter_mut().zip(bl) {
                *c += x * y;
            }
        }
    }
    let mut c = vec![0.0; k * k];
    for i in 0..k {
        for j in 0..k {
            c[at(i, j)] = cr[i * k + j];
        }
    }
    c
}

/// Strassen multiplication of two `n×n` BI matrices.
///
/// The seven half-size products fork through [`pjoin`] and are summed
/// into C's quadrants, which BI order keeps contiguous. The recursion
/// stops at blocks of side 32 or less, which are gathered into
/// stack-local row-major arrays, multiplied over contiguous rows and
/// scattered back into BI order; the result is bit-identical to a
/// morton-indexed triple loop at the leaves.
pub fn par_strassen_bi(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    assert!(n.is_power_of_two() && a.len() == n * n && b.len() == n * n);
    fn add(x: &[f64], y: &[f64], coeff: f64) -> Vec<f64> {
        x.iter().zip(y).map(|(a, b)| a + coeff * b).collect()
    }
    fn rec(a: &[f64], b: &[f64], k: usize) -> Vec<f64> {
        if k <= STRASSEN_LEAF {
            return strassen_leaf(a, b, k);
        }
        let h = k / 2;
        let q = h * h;
        let (a11, a12, a21, a22) = (&a[..q], &a[q..2 * q], &a[2 * q..3 * q], &a[3 * q..]);
        let (b11, b12, b21, b22) = (&b[..q], &b[q..2 * q], &b[2 * q..3 * q], &b[3 * q..]);
        let ((m1, m2), ((m3, m4), (m5, (m6, m7)))) = pjoin(
            || {
                pjoin(
                    || rec(&add(a11, a22, 1.0), &add(b11, b22, 1.0), h),
                    || rec(&add(a21, a22, 1.0), b11, h),
                )
            },
            || {
                pjoin(
                    || {
                        pjoin(
                            || rec(a11, &add(b12, b22, -1.0), h),
                            || rec(a22, &add(b21, b11, -1.0), h),
                        )
                    },
                    || {
                        pjoin(
                            || rec(&add(a11, a12, 1.0), b22, h),
                            || {
                                pjoin(
                                    || rec(&add(a21, a11, -1.0), &add(b11, b12, 1.0), h),
                                    || rec(&add(a12, a22, -1.0), &add(b21, b22, 1.0), h),
                                )
                            },
                        )
                    },
                )
            },
        );
        let mut c = vec![0.0; k * k];
        let (c11, rest) = c.split_at_mut(q);
        let (c12, rest2) = rest.split_at_mut(q);
        let (c21, c22) = rest2.split_at_mut(q);
        for i in 0..q {
            c11[i] = m1[i] + m4[i] - m5[i] + m7[i];
            c12[i] = m3[i] + m5[i];
            c21[i] = m2[i] + m4[i];
            c22[i] = m1[i] - m2[i] + m3[i] + m6[i];
        }
        c
    }
    rec(a, b, n)
}

/// Sub-FFTs of at most this many points run as an in-place iterative
/// radix-2 transform instead of another six-step level.
const FFT_LEAF: usize = 64;

/// Side of the square tiles the FFT's transposes move (16×16 `Cx` is
/// 4 KiB a side).
const FFT_TILE: usize = 16;

/// `w[k] = ω_n^k = e^{-2πik/n}` for `k < n`, filled in parallel. Only
/// the first quarter calls `cis`; the other three are it rotated by
/// `-i`, `-1` and `i`, which is exact.
fn fft_table(n: usize) -> Vec<Cx> {
    fn fill(q: [&mut [Cx]; 4], k0: usize, n: usize) {
        let len = q[0].len();
        if len > SEQ_CUTOFF {
            let [a, b, c, d] = q.map(|s| s.split_at_mut(len / 2));
            pjoin(
                || fill([a.0, b.0, c.0, d.0], k0, n),
                || fill([a.1, b.1, c.1, d.1], k0 + len / 2, n),
            );
            return;
        }
        let [a, b, c, d] = q;
        for (k, (((a, b), c), d)) in a.iter_mut().zip(b).zip(c).zip(d).enumerate() {
            let v = Cx::cis(-std::f64::consts::TAU * (k0 + k) as f64 / n as f64);
            (*a, *b, *c, *d) = (
                v,
                Cx::new(v.im, -v.re),
                Cx::new(-v.re, -v.im),
                Cx::new(-v.im, v.re),
            );
        }
    }
    if n < 4 {
        return [Cx::new(1.0, 0.0), Cx::new(-1.0, 0.0)][..n].to_vec();
    }
    let mut w = vec![Cx::default(); n];
    let (a, rest) = w.split_at_mut(n / 4);
    let (b, rest) = rest.split_at_mut(n / 4);
    let (c, d) = rest.split_at_mut(n / 4);
    fill([a, b, c, d], 0, n);
    w
}

/// In-place iterative radix-2 FFT of `x`, reading `ω_m^k` (`m =
/// x.len()`) as `w[k · stride]`.
fn fft_leaf(x: &mut [Cx], w: &[Cx], stride: usize) {
    let n = x.len();
    if n < 2 {
        return;
    }
    let shift = usize::BITS - n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> shift;
        if i < j {
            x.swap(i, j);
        }
    }
    let mut half = 1;
    while half < n {
        let step = stride * (n / (2 * half));
        for blk in x.chunks_exact_mut(2 * half) {
            let (lo, hi) = blk.split_at_mut(half);
            for (k, (u, v)) in lo.iter_mut().zip(hi).enumerate() {
                let t = *v * w[k * step];
                (*u, *v) = (*u + t, *u - t);
            }
        }
        half *= 2;
    }
}

/// Apply `f` to each pair of matching `row`-long rows of `a` and `b`,
/// forking over rows while there are more than the cutoff's worth.
fn par_rows<F>(a: &mut [Cx], b: &mut [Cx], row: usize, f: &F)
where
    F: Fn(&mut [Cx], &mut [Cx]) + Sync,
{
    let rows = a.len() / row;
    if a.len() > SEQ_CUTOFF && rows > 1 {
        let mid = rows / 2 * row;
        let (a0, a1) = a.split_at_mut(mid);
        let (b0, b1) = b.split_at_mut(mid);
        pjoin(|| par_rows(a0, b0, row, f), || par_rows(a1, b1, row, f));
        return;
    }
    for (ra, rb) in a.chunks_exact_mut(row).zip(b.chunks_exact_mut(row)) {
        f(ra, rb);
    }
}

/// `dst[c][r] = f(r, c, src[r][c])` for the row-major `rows×cols` `src`
/// and the `cols×rows` `dst`, moved in `FFT_TILE`-sided tiles and forked
/// over destination rows above the cutoff.
fn transpose<F>(src: &[Cx], dst: &mut [Cx], rows: usize, f: &F)
where
    F: Fn(usize, usize, Cx) -> Cx + Sync,
{
    /// `dst` holds destination rows `c0..`, i.e. source columns `c0..`.
    fn rec<F>(src: &[Cx], dst: &mut [Cx], rows: usize, c0: usize, f: &F)
    where
        F: Fn(usize, usize, Cx) -> Cx + Sync,
    {
        let dst_rows = dst.len() / rows;
        if dst.len() > SEQ_CUTOFF && dst_rows > 1 {
            let h = dst_rows / 2;
            let (d0, d1) = dst.split_at_mut(h * rows);
            pjoin(
                || rec(src, d0, rows, c0, f),
                || rec(src, d1, rows, c0 + h, f),
            );
            return;
        }
        let cols = src.len() / rows;
        for cb in (0..dst_rows).step_by(FFT_TILE) {
            for rb in (0..rows).step_by(FFT_TILE) {
                let re = (rb + FFT_TILE).min(rows);
                for c in cb..(cb + FFT_TILE).min(dst_rows) {
                    let col = c0 + c;
                    for (r, d) in (rb..re).zip(&mut dst[c * rows + rb..c * rows + re]) {
                        *d = f(r, col, src[r * cols + col]);
                    }
                }
            }
        }
    }
    rec(src, dst, rows, 0, f);
}

/// One level of [`par_fft`]'s six-step recursion: writes the DFT of `x`
/// into `s` and leaves `x` clobbered. `ω_m^k` (`m = x.len()`) is
/// `w[k · stride]`.
fn fft_into(x: &mut [Cx], s: &mut [Cx], w: &[Cx], stride: usize) {
    let n = x.len();
    if n <= FFT_LEAF {
        s.copy_from_slice(x);
        fft_leaf(s, w, stride);
        return;
    }
    let k1 = 1usize << n.trailing_zeros().div_ceil(2);
    let k2 = n / k1;
    // 1. x (k1×k2) -> s (k2×k1)
    transpose(x, s, k1, &|_, _, v| v);
    // 2. length-k1 FFTs of the rows of s, into the matching rows of x
    par_rows(s, x, k1, &|s, x| fft_into(s, x, w, stride * k2));
    // 3+4. x (k2×k1) -> s (k1×k2), twiddled by ω_n^{j2·f1}
    transpose(x, s, k2, &|j2, f1, v| v * w[j2 * f1 * stride]);
    // 5. length-k2 FFTs of the rows of s, into the matching rows of x
    par_rows(s, x, k2, &|s, x| fft_into(s, x, w, stride * k1));
    // 6. x (k1×k2) -> s (k2×k1)
    transpose(x, s, k1, &|_, _, v| v);
}

/// Six-step FFT (any power-of-two length) with forked row FFTs.
///
/// One table of `ω_n^k` (`k < n`) is built per call, in parallel, and a
/// size-`m` sub-FFT reads it with stride `n/m`, so no twiddle is computed
/// inside the recursion. One scratch buffer of `n` serves the whole
/// recursion: each level alternates between its window of the input and
/// the matching window of the scratch (transpose into the scratch, row
/// FFTs back into the input's rows, twiddled transpose into the scratch,
/// row FFTs back, final transpose into the scratch), and the top level
/// copies the result back. The twiddle multiply rides on the middle
/// transpose, and every transpose is tiled and forked over destination
/// rows above the cutoff. Sub-FFTs of at most `FFT_LEAF` points are
/// iterative radix-2 transforms in place. A call makes two large
/// allocations, the table and the scratch, whatever `n` is.
pub fn par_fft(x: &mut [Cx]) {
    let n = x.len();
    assert!(n.is_power_of_two());
    let w = fft_table(n);
    let mut s = vec![Cx::default(); n];
    fft_into(x, &mut s, &w, 1);
    par_rows(&mut s, x, SEQ_CUTOFF.min(n), &|s, x| x.copy_from_slice(s));
}

/// Parallel mergesort over `(key, payload)` pairs.
pub fn par_mergesort(data: &mut [(u64, u64)]) {
    if data.len() <= SEQ_CUTOFF {
        data.sort_by_key(|p| p.0);
        return;
    }
    let mid = data.len() / 2;
    let mut right: Vec<(u64, u64)> = data[mid..].to_vec();
    {
        let (l, _) = data.split_at_mut(mid);
        pjoin(|| par_mergesort(l), || par_mergesort(&mut right));
    }
    // merge l (in place prefix) and right into data
    let left: Vec<(u64, u64)> = data[..mid].to_vec();
    let (mut i, mut j, mut k) = (0, 0, 0);
    while i < left.len() && j < right.len() {
        if left[i].0 <= right[j].0 {
            data[k] = left[i];
            i += 1;
        } else {
            data[k] = right[j];
            j += 1;
        }
        k += 1;
    }
    while i < left.len() {
        data[k] = left[i];
        i += 1;
        k += 1;
    }
    while j < right.len() {
        data[k] = right[j];
        j += 1;
        k += 1;
    }
}

/// Elements of a 64-byte cache line for `(u64, u64)` pairs — the native
/// analogue of the recorded SPMS's block-aligned output gaps.
const LINE_PAIRS: usize = 4;

/// Consecutive takes from one side before [`merge2`] switches from the
/// select loop to a binary-search bulk copy.
const GALLOP: usize = 32;

/// Sorted-run width the sequential sort builds by insertion before its
/// merge rounds.
const SEQ_RUN: usize = 32;

/// Round `s` up to a whole number of cache lines of pairs.
const fn line_up(s: usize) -> usize {
    s.div_ceil(LINE_PAIRS) * LINE_PAIRS
}

/// Stable 2-way merge of the sorted runs `l` then `r` into `out`
/// (`l` wins key ties, so run order is input order).
///
/// The inner loop is branch-free on the comparison: the winning side is
/// picked by a boolean select the compiler lowers to conditional moves,
/// so random keys cost no branch mispredictions. Streak detection is
/// block-granular to keep that loop free of bookkeeping: after every
/// [`GALLOP`] plain selections the indices say whether one side won the
/// whole block (the other side's cursor did not move), and if so the
/// merge gallops — a binary search plus a bulk `copy_from_slice` — so
/// pre-sorted, skewed, and duplicate-heavy inputs degrade toward memcpy
/// instead of paying the element-at-a-time loop. Deliberately
/// unsafe-free: the bounds checks fold into the loop conditions, and
/// the `#[cfg(test)]` equivalence suite below pins this shape against a
/// naive reference merge.
fn merge2(l: &[(u64, u64)], r: &[(u64, u64)], out: &mut [(u64, u64)]) {
    debug_assert_eq!(l.len() + r.len(), out.len());
    let (mut i, mut j, mut w) = (0usize, 0usize, 0usize);
    while i < l.len() && j < r.len() {
        let (i0, j0) = (i, j);
        let mut steps = GALLOP;
        while steps > 0 && i < l.len() && j < r.len() {
            let take_l = l[i].0 <= r[j].0;
            out[w] = if take_l { l[i] } else { r[j] };
            i += take_l as usize;
            j += usize::from(!take_l);
            w += 1;
            steps -= 1;
        }
        if i < l.len() && j < r.len() {
            if j == j0 && i - i0 == GALLOP {
                // Left swept the whole block: everything still ≤ the
                // right head goes in one copy (ties stay left).
                let take = l[i..].partition_point(|p| p.0 <= r[j].0);
                out[w..w + take].copy_from_slice(&l[i..i + take]);
                i += take;
                w += take;
            } else if i == i0 && j - j0 == GALLOP {
                // Right sweep: strictly below the left head (ties left).
                let take = r[j..].partition_point(|p| p.0 < l[i].0);
                out[w..w + take].copy_from_slice(&r[j..j + take]);
                j += take;
                w += take;
            }
        }
    }
    out[w..w + (l.len() - i)].copy_from_slice(&l[i..]);
    out[w + (l.len() - i)..].copy_from_slice(&r[j..]);
}

/// Sequential stable sort by key using caller-provided scratch (no
/// allocation — the SPMS arena funds it): insertion-sorted base runs of
/// [`SEQ_RUN`], then bottom-up [`merge2`] rounds ping-ponging between
/// `data` and `scratch`, with a final copy-back only on odd round
/// parity.
fn seq_sort(data: &mut [(u64, u64)], scratch: &mut [(u64, u64)]) {
    let n = data.len();
    debug_assert!(scratch.len() >= n);
    for start in (0..n).step_by(SEQ_RUN) {
        let end = (start + SEQ_RUN).min(n);
        for i in start + 1..end {
            let v = data[i];
            let mut k = i;
            while k > start && data[k - 1].0 > v.0 {
                data[k] = data[k - 1];
                k -= 1;
            }
            data[k] = v;
        }
    }
    fn merge_round(src: &[(u64, u64)], dst: &mut [(u64, u64)], width: usize) {
        let n = src.len();
        let mut start = 0;
        while start < n {
            let mid = (start + width).min(n);
            let end = (start + 2 * width).min(n);
            merge2(&src[start..mid], &src[mid..end], &mut dst[start..end]);
            start = end;
        }
    }
    let scratch = &mut scratch[..n];
    let mut width = SEQ_RUN;
    let mut in_data = true;
    while width < n {
        if in_data {
            merge_round(data, scratch, width);
        } else {
            merge_round(scratch, data, width);
        }
        in_data = !in_data;
        width *= 2;
    }
    if !in_data {
        data.copy_from_slice(scratch);
    }
}

/// Scratch (in pairs) that [`spms_rec`] needs for a slice of `n`
/// elements: two line-gapped bucket arenas for the merge phases, or the
/// sum of the chunk sorts' needs — whichever is larger, since the two
/// phases never overlap in time. Sub-cutoff slices need `n` for
/// [`seq_sort`]'s ping-pong half.
fn arena_len(n: usize) -> usize {
    if n <= SEQ_CUTOFF {
        return n;
    }
    let chunks = (n as f64).sqrt().ceil() as usize;
    let q = n.div_ceil(chunks);
    let chunks = n.div_ceil(q);
    // ≤ one line of gap rounding per bucket, buckets ≤ chunks.
    let merge = 2 * (line_up(n) + chunks * LINE_PAIRS);
    let sort = chunks * arena_len(q);
    merge.max(sort)
}

/// Read-only geometry of one SPMS level, shared by the phase recursions.
struct SpmsCx<'a> {
    /// Chunk width of the level.
    q: usize,
    /// Row stride of `cuts` (`nbuckets + 1`).
    stride: usize,
    /// Row stride of the run-bounds arenas (max runs per bucket + 1).
    bstride: usize,
    /// Flattened per-chunk bucket borders, `stride`-strided by chunk.
    cuts: &'a [usize],
    /// Total size of each bucket.
    sizes: &'a [usize],
}

/// Merge phase A of one level: for the buckets `[blo, bhi)`, pairwise-
/// merge each bucket's sorted chunk-runs **straight out of `data`** into
/// the bucket's region of arena half `a` — the old concat-then-merge
/// first round and the per-bucket staging buffers, fused into one pass.
/// Run boundaries land in `bnd` (one `bstride` row per bucket) and the
/// surviving run count in `nrs`. Buckets split `a`/`bnd`/`nrs` along
/// line-gapped borders, so no two bucket writers share a cache-line
/// interior.
fn spms_phase_a(
    data: &[(u64, u64)],
    blo: usize,
    bhi: usize,
    a: &mut [(u64, u64)],
    bnd: &mut [usize],
    nrs: &mut [usize],
    cx: &SpmsCx<'_>,
) {
    if bhi - blo > 1 {
        let mid = blo + (bhi - blo) / 2;
        let cut: usize = cx.sizes[blo..mid].iter().map(|&s| line_up(s)).sum();
        let (al, ar) = a.split_at_mut(cut);
        let (bl, br) = bnd.split_at_mut((mid - blo) * cx.bstride);
        let (nl, nr) = nrs.split_at_mut(mid - blo);
        pjoin(
            || spms_phase_a(data, blo, mid, al, bl, nl, cx),
            || spms_phase_a(data, mid, bhi, ar, br, nr, cx),
        );
        return;
    }
    let j = blo;
    let nchunks = data.len().div_ceil(cx.q);
    let mut w = 0usize;
    let mut runs = 0usize;
    bnd[0] = 0;
    let mut pending: Option<&[(u64, u64)]> = None;
    for c in 0..nchunks {
        let base = c * cx.q;
        let (lo, hi) = (cx.cuts[c * cx.stride + j], cx.cuts[c * cx.stride + j + 1]);
        if hi <= lo {
            continue;
        }
        let run = &data[base + lo..base + hi];
        match pending.take() {
            None => pending = Some(run),
            Some(first) => {
                let len = first.len() + run.len();
                merge2(first, run, &mut a[w..w + len]);
                w += len;
                runs += 1;
                bnd[runs] = w;
            }
        }
    }
    if let Some(first) = pending {
        // Odd run out: lands in the arena verbatim this round.
        a[w..w + first.len()].copy_from_slice(first);
        w += first.len();
        runs += 1;
        bnd[runs] = w;
    }
    debug_assert_eq!(w, cx.sizes[j]);
    nrs[0] = runs;
}

/// Merge phase B of one level: ping-pong each bucket's surviving runs
/// between its regions of arena halves `a` and `b`, with the **final**
/// round writing directly into the bucket's destination window of
/// `data` — the fused compaction. A bucket already down to one run just
/// copies out (its only remaining pass *is* the compaction).
fn spms_phase_b(
    dest: &mut [(u64, u64)],
    blo: usize,
    bhi: usize,
    a: &mut [(u64, u64)],
    b: &mut [(u64, u64)],
    bnd_a: &mut [usize],
    bnd_b: &mut [usize],
    nrs: &[usize],
    cx: &SpmsCx<'_>,
) {
    if bhi - blo > 1 {
        let mid = blo + (bhi - blo) / 2;
        let gap_cut: usize = cx.sizes[blo..mid].iter().map(|&s| line_up(s)).sum();
        let dest_cut: usize = cx.sizes[blo..mid].iter().sum();
        let (dl, dr) = dest.split_at_mut(dest_cut);
        let (al, ar) = a.split_at_mut(gap_cut);
        let (bl, br) = b.split_at_mut(gap_cut);
        let (xal, xar) = bnd_a.split_at_mut((mid - blo) * cx.bstride);
        let (xbl, xbr) = bnd_b.split_at_mut((mid - blo) * cx.bstride);
        let (nl, nr) = nrs.split_at(mid - blo);
        pjoin(
            || spms_phase_b(dl, blo, mid, al, bl, xal, xbl, nl, cx),
            || spms_phase_b(dr, mid, bhi, ar, br, xar, xbr, nr, cx),
        );
        return;
    }
    let m = cx.sizes[blo];
    let dest = &mut dest[..m];
    let mut nr = nrs[0];
    let (mut src, mut dst) = (&mut a[..m], &mut b[..m]);
    let (mut bs, mut bd) = (&mut bnd_a[..], &mut bnd_b[..]);
    if nr <= 1 {
        dest.copy_from_slice(&src[..m]);
        return;
    }
    while nr > 2 {
        let mut w = 0usize;
        let mut out_runs = 0usize;
        bd[0] = 0;
        let mut t = 0usize;
        while t + 2 <= nr {
            let (l0, l1, l2) = (bs[t], bs[t + 1], bs[t + 2]);
            merge2(&src[l0..l1], &src[l1..l2], &mut dst[w..w + (l2 - l0)]);
            w += l2 - l0;
            out_runs += 1;
            bd[out_runs] = w;
            t += 2;
        }
        if t < nr {
            let (l0, l1) = (bs[t], bs[t + 1]);
            dst[w..w + (l1 - l0)].copy_from_slice(&src[l0..l1]);
            w += l1 - l0;
            out_runs += 1;
            bd[out_runs] = w;
        }
        nr = out_runs;
        std::mem::swap(&mut src, &mut dst);
        std::mem::swap(&mut bs, &mut bd);
    }
    // Exactly two runs left: this merge is the compaction.
    merge2(&src[bs[0]..bs[1]], &src[bs[1]..bs[2]], dest);
}

/// Recursive chunk-sort pass: apply [`spms_rec`] to each `q`-wide window
/// of `data`, carving each window's scratch out of the shared arena at a
/// uniform `per`-pair stride (the windows run concurrently, so their
/// scratch must be disjoint).
fn spms_sort_chunks(data: &mut [(u64, u64)], q: usize, arena: &mut [(u64, u64)], per: usize) {
    if data.len() <= q {
        if !data.is_empty() {
            spms_rec(data, arena);
        }
        return;
    }
    let chunks = data.len().div_ceil(q);
    let mid = chunks / 2;
    let (dl, dr) = data.split_at_mut(mid * q);
    let (al, ar) = arena.split_at_mut(mid * per);
    pjoin(
        || spms_sort_chunks(dl, q, al, per),
        || spms_sort_chunks(dr, q, ar, per),
    );
}

/// Parallel SPMS (Sample, Partition and Merge Sort) over `(key, payload)`
/// pairs — the native counterpart of [`crate::spms`], stable on keys.
///
/// 1. ≈ `√n` chunks are sorted recursively in parallel;
/// 2. a deterministic regular sample of each sorted chunk yields the
///    splitters (PSRS-style — no randomness, so a fixed input gives a
///    fixed partition on every run);
/// 3. every chunk is cut at the splitters with an upper-bound search, so
///    equal keys land in one bucket (stability);
/// 4. each size-balanced bucket's runs are pairwise-merged straight out
///    of `data` into a line-gapped ping-pong arena (phase A — the old
///    concatenate-then-merge staging pass, fused away), then ping-ponged
///    down to one run whose **final merge writes the bucket's window of
///    `data` directly** (phase B — the old separate compaction pass,
///    fused into the last round). Bucket origins are cache-line aligned
///    in both arena halves, so no two bucket writers share a line
///    interior — the false-sharing story of the paper, for real.
///
/// One arena allocation funds every merge round, the sequential leaf
/// sorts, and the whole recursion (`arena_len`) — the hot path
/// allocates O(1) buffers per super-cutoff level instead of O(√n) per
/// bucket, which `tests/alloc_accounting.rs` pins.
///
/// Degenerate samples (duplicate-heavy inputs) fall back to a stable
/// sequential sort of the whole slice — rare, deterministic, correct.
pub fn par_spms(data: &mut [(u64, u64)]) {
    if data.len() <= 1 {
        return;
    }
    let mut arena = vec![(0u64, 0u64); arena_len(data.len())];
    let m = hbp_metrics::global();
    if m.on() {
        // High-water mark of scratch reserved by any SPMS launch (one
        // check per sort call, far off the hot path).
        m.arena_bytes
            .raise_to((arena.len() * std::mem::size_of::<(u64, u64)>()) as i64);
    }
    spms_rec(data, &mut arena);
}

/// One SPMS level over `data`, with scratch (≥ [`arena_len`] of
/// `data.len()`) provided by the caller.
fn spms_rec(data: &mut [(u64, u64)], arena: &mut [(u64, u64)]) {
    let n = data.len();
    if n <= SEQ_CUTOFF {
        if n > 1 {
            seq_sort(data, &mut arena[..n]);
        }
        return;
    }
    // 1. chunk sort (concurrent sub-sorts carve the shared arena).
    let chunks = (n as f64).sqrt().ceil() as usize;
    let q = n.div_ceil(chunks);
    let nchunks = n.div_ceil(q);
    spms_sort_chunks(data, q, arena, arena_len(q));

    // 2. deterministic regular sample → splitters. Sampling every
    // element (spp = nb) gives the classic ≤ 2q bucket bound but costs
    // an O(n log n) sample sort — as much as the sort itself. A quarter
    // of that density keeps the bound at O(q) (≤ ~5q: between two
    // adjacent samples of one chunk sit ≤ len/(spp+1) elements, so a
    // bucket collects ≤ n/spp + its fair share) and makes the sample
    // sort noise instead of a phase.
    let nb = chunks;
    let mut sample: Vec<u64> = Vec::with_capacity(nchunks * nb);
    for chunk in data.chunks(q) {
        let len = chunk.len();
        let spp = len.min((nb / 4).max(32));
        for t in 1..=spp {
            sample.push(chunk[(t * len / (spp + 1)).min(len - 1)].0);
        }
    }
    sample.sort_unstable();
    let mut splitters: Vec<u64> = (1..nb).map(|j| sample[j * sample.len() / nb]).collect();
    splitters.dedup();

    // 3. partition every chunk at the splitters (upper bound: equal keys
    // never straddle a bucket). Row c of the flattened `cuts` holds
    // chunk c's bucket borders.
    let nbuckets = splitters.len() + 1;
    let stride = nbuckets + 1;
    let mut cuts = vec![0usize; nchunks * stride];
    for (c, chunk) in data.chunks(q).enumerate() {
        let row = &mut cuts[c * stride..(c + 1) * stride];
        // Splitters ascend and there are about as many as the chunk has
        // elements, so successive borders advance by ~1: one linear walk
        // over the chunk places every border in O(len + nbuckets) —
        // cheaper than nbuckets independent binary searches.
        let mut lo = 0usize;
        for (si, &s) in splitters.iter().enumerate() {
            while lo < chunk.len() && chunk[lo].0 <= s {
                lo += 1;
            }
            row[si + 1] = lo;
        }
        row[stride - 1] = chunk.len();
    }
    // Bucket sizes, accumulated row-major (the cuts layout) instead of
    // striding a column per bucket.
    let mut sizes = vec![0usize; nbuckets];
    for c in 0..nchunks {
        let row = &cuts[c * stride..(c + 1) * stride];
        for j in 0..nbuckets {
            sizes[j] += row[j + 1] - row[j];
        }
    }
    if sizes.contains(&n) {
        // Degenerate splitters (e.g. almost-constant keys): fall back to
        // one stable sequential sort out of the same arena.
        seq_sort(data, &mut arena[..n]);
        return;
    }

    // 4. the fused merge phases (see the function docs above): phase A
    // reads `data` into arena half A, the barrier between the two pjoin
    // trees retires `data` as a source, phase B ping-pongs A↔B and
    // lands the final round of every bucket in its `data` window.
    let cap: usize = sizes.iter().map(|&s| line_up(s)).sum();
    // Phase A halves runs once, so a bucket holds ≤ ⌈nchunks/2⌉ runs.
    let bstride = nchunks / 2 + 2;
    let mut bnd = vec![0usize; 2 * nbuckets * bstride];
    let mut nrs = vec![0usize; nbuckets];
    let cx = SpmsCx {
        q,
        stride,
        bstride,
        cuts: &cuts,
        sizes: &sizes,
    };
    let (half_a, rest) = arena.split_at_mut(cap);
    let half_b = &mut rest[..cap];
    let (bnd_a, bnd_b) = bnd.split_at_mut(nbuckets * bstride);
    spms_phase_a(data, 0, nbuckets, half_a, bnd_a, &mut nrs, &cx);
    spms_phase_b(data, 0, nbuckets, half_a, half_b, bnd_a, bnd_b, &nrs, &cx);
}

/// Every `RULER_STRIDE`-th node index is a list-ranking ruler, so a
/// walk covers about this many nodes on a random list. A power of two.
const RULER_STRIDE: usize = 64;

/// Walks one fan-out leaf advances in lockstep: their successor loads
/// are independent, so the cache misses of the walks overlap.
const WALK_LANES: usize = 8;

/// Rulers per walk leaf.
const WALK_LEAF_RULERS: usize = 32;

/// Nodes per leaf of the streaming list-ranking passes.
const SCAN_GRAIN: usize = 8 * SEQ_CUTOFF;

/// A `tag` word is `flag | ruler << 32 | distance`. A ruler's walk tags
/// its nodes `AFTER` the ruler, so `rank = rank(ruler) − distance`; a
/// head's walk tags its nodes `BEFORE` the ruler its walk runs into, so
/// `rank = rank(ruler) + distance`. `link` words pack `next << 32 |
/// length` the same way.
const AFTER: u64 = 1 << 63;
const BEFORE: u64 = 1 << 62;
const WALKED: u64 = AFTER | BEFORE;
const RULER_BITS: u64 = (1 << 30) - 1;
const LOW: u64 = u32::MAX as u64;

/// The `tag` of a node no walk reached whose predecessor no walk
/// reached either; an unreached node still tagged 0 is a head.
const HAS_PRED: u64 = 1;

/// The `next` field of a ruler whose walk ends at a tail.
const NO_NEXT: u64 = LOW;

/// Ruler-rank states while the ruler chains are ranked: not reached by
/// any ruler's walk, reached by one, and on the chain being ranked.
const UNSEEN: u64 = u64::MAX;
const REACHED: u64 = u64::MAX - 1;
const ON_PATH: u64 = u64::MAX - 2;

/// Sum `f(lo, hi)` over `grain`-wide windows of `lo..hi`, forked in
/// parallel.
fn par_fold<F>(lo: usize, hi: usize, grain: usize, f: &F) -> u64
where
    F: Fn(usize, usize) -> u64 + Sync,
{
    if hi - lo <= grain {
        return f(lo, hi);
    }
    let mid = lo + (hi - lo).div_ceil(2 * grain) * grain;
    let (a, b) = pjoin(
        || par_fold(lo, mid, grain, f),
        || par_fold(mid, hi, grain, f),
    );
    a + b
}

/// One ruler's walk: the ruler, the node the walk stands on, and that
/// node's distance from the ruler.
#[derive(Clone, Copy, Default)]
struct Walk {
    ruler: u64,
    node: usize,
    dist: u64,
}

/// One ruler's record.
struct Ruler {
    /// `(next ruler or NO_NEXT) << 32 | nodes the ruler's walk tagged`.
    link: AtomicU64,
    /// A head's walk ran into the ruler.
    entered: AtomicBool,
    /// The ruler's rank once the ruler chains are ranked; `UNSEEN`,
    /// `REACHED` or `ON_PATH` while they are.
    rank: AtomicU64,
}

/// What the list-ranking passes share.
struct RankCx<'a> {
    succ: &'a [usize],
    /// Per node: its `AFTER`/`BEFORE` word once a walk reached it.
    tag: &'a [AtomicU64],
    rulers: &'a [Ruler],
}

impl RankCx<'_> {
    /// The successor of `v`, checked; a walk past `n` steps is on a cycle.
    fn succ_of(&self, v: usize, dist: u64) -> usize {
        let n = self.succ.len();
        let s = self.succ[v];
        assert!(
            s < n,
            "par_list_rank: succ[{v}] = {s} is out of range for n = {n}"
        );
        assert!(
            dist < n as u64,
            "par_list_rank: malformed list: a walk ran past n = {n} steps \
             without reaching a tail (a cycle reachable from a chain)"
        );
        s
    }

    /// Walk the sublists of rulers `r0..r1`, `WALK_LANES` at a time, and
    /// return how many nodes they tagged.
    fn walk_rulers(&self, r0: usize, r1: usize) -> u64 {
        let mut rulers = (r0..r1).map(|r| Walk {
            ruler: r as u64,
            node: r * RULER_STRIDE,
            dist: 0,
        });
        let mut lanes = [Walk::default(); WALK_LANES];
        let mut live = 0;
        for (lane, w) in lanes.iter_mut().zip(rulers.by_ref()) {
            *lane = w;
            live += 1;
        }
        let mut tagged = 0;
        while live > 0 {
            let mut k = 0;
            while k < live {
                let w = &mut lanes[k];
                let v = w.node;
                self.tag[v].store(AFTER | w.ruler << 32 | w.dist, Relaxed);
                let s = self.succ_of(v, w.dist);
                let next = if s == v {
                    NO_NEXT
                } else if s.is_multiple_of(RULER_STRIDE) {
                    (s / RULER_STRIDE) as u64
                } else {
                    w.node = s;
                    w.dist += 1;
                    k += 1;
                    continue;
                };
                self.rulers[w.ruler as usize]
                    .link
                    .store(next << 32 | (w.dist + 1), Relaxed);
                tagged += w.dist + 1;
                match rulers.next() {
                    Some(fresh) => {
                        lanes[k] = fresh;
                        k += 1;
                    }
                    None => {
                        live -= 1;
                        lanes[k] = lanes[live];
                    }
                }
            }
        }
        tagged
    }

    /// Walk from head `h` to the ruler it runs into (or to its tail,
    /// the pseudo-ruler `tail_ruler` of rank 0), tag the nodes `BEFORE`
    /// it, and return how many nodes that tagged.
    fn walk_head(&self, h: usize, tail_ruler: u64) -> u64 {
        let (mut v, mut len) = (h, 0u64);
        let (ruler, dist) = loop {
            let s = self.succ_of(v, len);
            len += 1;
            if s == v {
                break (tail_ruler, len - 1);
            }
            if s.is_multiple_of(RULER_STRIDE) {
                let r = s / RULER_STRIDE;
                assert!(
                    !self.rulers[r].entered.swap(true, Relaxed),
                    "par_list_rank: malformed list: two chains join \
                     (a node with two predecessors)"
                );
                break (r as u64, len);
            }
            v = s;
        };
        v = h;
        for i in 0..len {
            self.tag[v].store(BEFORE | ruler << 32 | (dist - i), Relaxed);
            v = self.succ[v];
        }
        len
    }
}

/// Rank the ruler chain that starts at ruler `start`: each ruler's
/// `rank` becomes its distance to the tail. Returns the chain's length
/// in rulers.
fn rank_ruler_chain(start: usize, rulers: &[Ruler]) -> usize {
    let unpack = |r: usize| {
        let l = rulers[r].link.load(Relaxed);
        (l >> 32, l & LOW)
    };
    let (mut r, mut total, mut len) = (start, 0u64, 0usize);
    loop {
        match rulers[r].rank.swap(ON_PATH, Relaxed) {
            UNSEEN | REACHED => {}
            ON_PATH => panic!("par_list_rank: malformed list: a chain returns to itself (a cycle)"),
            _ => panic!(
                "par_list_rank: malformed list: two chains join (a node with two predecessors)"
            ),
        }
        let (next, sub) = unpack(r);
        total += sub;
        len += 1;
        if next == NO_NEXT {
            break;
        }
        r = next as usize;
    }
    r = start;
    loop {
        let (next, sub) = unpack(r);
        rulers[r].rank.store(total - 1, Relaxed);
        total -= sub;
        if next == NO_NEXT {
            return len;
        }
        r = next as usize;
    }
}

/// Parallel list ranking with O(n) work: `rank[v]` is the number of
/// links from `v` to the tail of its chain (`succ[t] == t` marks a
/// tail). `succ` may hold several chains; a cycle, or a node with two
/// predecessors, panics with a message that names the defect.
///
/// This is the sublist ("ruler") ranker of Helman & JáJá, the native
/// counterpart of the simulated `listrank` that the paper makes
/// work-efficient by sampling (§3.2):
///
/// 1. every `RULER_STRIDE`-th index is a ruler; a `pjoin` fan-out walks
///    each ruler's sublist up to the next ruler or a tail, `WALK_LANES`
///    walks per leaf in lockstep so their cache misses overlap, and
///    tags each node with its ruler and distance;
/// 2. the chain heads are walked too: a head has no predecessor, so no
///    ruler's walk reaches it, and without its own walk the start of its
///    chain would go unranked. A head's walk tags its nodes by their
///    distance to the ruler it runs into. Heads are the nodes step 1 left
///    untagged that no other untagged node points to, found by one
///    parallel marking pass over just those nodes — about
///    `RULER_STRIDE` per chain. Marking from every node before the walks
///    would scatter `n` more writes across the workers' caches;
/// 3. the ruler chains, about `n / RULER_STRIDE` rulers, are ranked
///    sequentially;
/// 4. one streaming pass ranks every node from its ruler's rank.
///
/// Every pass touches each node a constant number of times, so the work
/// is O(n), and the large buffers are two whatever `n` is: the node tags,
/// which become the ranks in place, and the ruler records. The walks'
/// `tag` writes land at scattered nodes, so two workers' walks write
/// into the same cache blocks: that block sharing is what the
/// benchmark's `lr.inflation` metric measures.
///
/// All atomics are `Relaxed`: a pass reads another pass's writes only
/// after the `pjoin` that ends it has joined, and within a pass no
/// atomic publishes other data.
pub fn par_list_rank(succ: &[usize]) -> Vec<u64> {
    let n = succ.len();
    // Distances then fit the low 32 bits, and ruler ids the 30 above.
    assert!(
        u32::try_from(n).is_ok(),
        "par_list_rank: n = {n} does not fit the packed tag words"
    );
    let nr = n.div_ceil(RULER_STRIDE);
    let tag: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let rulers: Vec<Ruler> = (0..=nr)
        .map(|r| Ruler {
            link: AtomicU64::new(0),
            entered: AtomicBool::new(false),
            // The last record is the tails' pseudo-ruler, of rank 0.
            rank: AtomicU64::new(if r < nr { UNSEEN } else { 0 }),
        })
        .collect();
    let cx = RankCx {
        succ,
        tag: &tag,
        rulers: &rulers,
    };
    // 1. walk the rulers' sublists.
    let mut tagged = par_fold(0, nr, WALK_LEAF_RULERS, &|r0, r1| cx.walk_rulers(r0, r1));
    // 2. mark the untagged nodes that have an untagged predecessor, then
    // walk from the rest: the heads.
    par_fold(0, n, SCAN_GRAIN, &|lo, hi| {
        for v in lo..hi {
            if tag[v].load(Relaxed) & WALKED == 0 {
                let s = cx.succ_of(v, 0);
                if s != v && !s.is_multiple_of(RULER_STRIDE) {
                    tag[s].store(HAS_PRED, Relaxed);
                }
            }
        }
        0
    });
    tagged += par_fold(0, n, SCAN_GRAIN, &|lo, hi| {
        (lo..hi)
            .filter(|&v| tag[v].load(Relaxed) == 0)
            .map(|h| cx.walk_head(h, nr as u64))
            .sum()
    });
    // 3. rank the ruler chains from the rulers no ruler's walk reaches.
    let mut joined = false;
    for r in &rulers[..nr] {
        let next = r.link.load(Relaxed) >> 32;
        if next != NO_NEXT {
            let to = &rulers[next as usize];
            to.rank.store(REACHED, Relaxed);
            joined |= to.entered.load(Relaxed);
        }
    }
    let mut ranked = 0;
    for r in 0..nr {
        if rulers[r].rank.load(Relaxed) == UNSEEN {
            ranked += rank_ruler_chain(r, &rulers);
        }
    }
    assert!(
        ranked == nr,
        "par_list_rank: malformed list: {} rulers lie on a cycle no chain reaches",
        nr - ranked
    );
    assert!(
        !joined && tagged <= n as u64,
        "par_list_rank: malformed list: two chains join (a node with two predecessors)"
    );
    // 4. rank every node from its ruler, in place.
    par_fold(0, n, SCAN_GRAIN, &|lo, hi| {
        for (v, t) in (lo..hi).zip(&tag[lo..hi]) {
            let w = t.load(Relaxed);
            let base = rulers[(w >> 32 & RULER_BITS) as usize].rank.load(Relaxed);
            let dist = w & LOW;
            let rank = match w & WALKED {
                AFTER => base - dist,
                BEFORE => base + dist,
                _ => panic!(
                    "par_list_rank: malformed list: node {v} lies on a cycle no chain reaches"
                ),
            };
            t.store(rank, Relaxed);
        }
        0
    });
    // Collects in place: the ranks leave in `tag`'s own allocation.
    tag.into_iter().map(AtomicU64::into_inner).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::oracle;
    use hbp_sched::Policy;

    #[test]
    fn par_sum_and_prefix() {
        let a = gen::random_u64s(10_000, 1000, 1);
        assert_eq!(par_sum(&a), oracle::sum(&a));
        assert_eq!(par_prefix(&a), oracle::prefix_sums(&a));
    }

    #[test]
    fn par_prefix_odd_sizes_and_edges() {
        for n in [0usize, 1, 2, 63, 64, 65, 1023, 1025, 4097] {
            let a = gen::random_u64s(n, 1 << 40, n as u64 + 2);
            assert_eq!(par_prefix(&a), oracle::prefix_sums(&a), "n={n}");
        }
    }

    #[test]
    fn par_kernels_match_inside_native_pool() {
        // The same entry points must stay correct when their joins are
        // routed through the native work-stealing pool.
        let a = gen::random_u64s(20_000, 1000, 5);
        let cfg = hbp_sched::native::NativeConfig {
            workers: 3,
            seed: 11,
            ..Default::default()
        };
        let want_sum = oracle::sum(&a);
        let want_prefix = oracle::prefix_sums(&a);
        let ((got_sum, got_prefix), report) =
            hbp_sched::native::NativePool::run(cfg, || (par_sum(&a), par_prefix(&a)));
        assert_eq!(got_sum, want_sum);
        assert_eq!(got_prefix, want_prefix);
        assert!(report.work > 1, "kernels forked tasks on the pool");
    }

    #[test]
    fn par_transpose_matches() {
        let n = 64;
        let rm = gen::random_matrix(n, 2);
        let mut bi = vec![0.0; n * n];
        for r in 0..n {
            for c in 0..n {
                bi[morton(r as u64, c as u64) as usize] = rm[r * n + c];
            }
        }
        par_transpose_bi(&mut bi, n);
        let want = oracle::transpose_rm(&rm, n);
        for r in 0..n {
            for c in 0..n {
                assert_eq!(bi[morton(r as u64, c as u64) as usize], want[r * n + c]);
            }
        }
    }

    fn to_bi(rm: &[f64], n: usize) -> Vec<f64> {
        let mut bi = vec![0.0; n * n];
        for r in 0..n {
            for c in 0..n {
                bi[morton(r as u64, c as u64) as usize] = rm[r * n + c];
            }
        }
        bi
    }

    /// Every pool shape the kernels are checked in: 2 and 3 workers,
    /// under PWS and RWS.
    fn pool_configs() -> Vec<hbp_sched::native::NativeConfig> {
        let mut cfgs = Vec::new();
        for policy in [Policy::Pws, Policy::Rws { seed: 5 }] {
            for workers in [2, 3] {
                cfgs.push(hbp_sched::native::NativeConfig {
                    workers,
                    seed: 17,
                    policy,
                    ..Default::default()
                });
            }
        }
        cfgs
    }

    /// The leaf the row-major gather replaced: a triple loop indexing
    /// the BI blocks through `morton` on every multiply-add.
    fn naive_bi(a: &[f64], b: &[f64], k: usize) -> Vec<f64> {
        let mut c = vec![0.0; k * k];
        for i in 0..k {
            for l in 0..k {
                let x = a[morton(i as u64, l as u64) as usize];
                for j in 0..k {
                    c[morton(i as u64, j as u64) as usize] +=
                        x * b[morton(l as u64, j as u64) as usize];
                }
            }
        }
        c
    }

    #[test]
    fn strassen_leaf_is_bit_identical_to_the_morton_triple_loop() {
        let n = STRASSEN_LEAF;
        let a = to_bi(&gen::random_matrix(n, 7), n);
        let b = to_bi(&gen::random_matrix(n, 8), n);
        let want: Vec<u64> = naive_bi(&a, &b, n).iter().map(|v| v.to_bits()).collect();
        let got: Vec<u64> = par_strassen_bi(&a, &b, n)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn par_strassen_matches() {
        // n > STRASSEN_LEAF reaches the seven products and the quadrant sums.
        for n in [1usize, 2, 8, 32, 64, 128, 256] {
            let a = gen::random_matrix(n, 30 + n as u64);
            let b = gen::random_matrix(n, 31 + n as u64);
            let want = oracle::matmul_rm(&a, &b, n);
            let (abi, bbi) = (to_bi(&a, n), to_bi(&b, n));
            let check = |cbi: &[f64], how: &str| {
                for r in 0..n {
                    for c in 0..n {
                        let g = cbi[morton(r as u64, c as u64) as usize];
                        assert!(
                            (g - want[r * n + c]).abs() <= 1e-12 * n as f64,
                            "n={n} ({r},{c}) {how}: {g} vs {}",
                            want[r * n + c]
                        );
                    }
                }
            };
            check(&par_strassen_bi(&abi, &bbi, n), "outside a pool");
            for cfg in pool_configs() {
                let how = format!("{:?} workers={}", cfg.policy, cfg.workers);
                let (got, _) =
                    hbp_sched::native::NativePool::run(cfg, || par_strassen_bi(&abi, &bbi, n));
                check(&got, &how);
            }
        }
    }

    #[test]
    fn par_fft_matches_dft() {
        for n in [4usize, 8, 64, 128] {
            let x: Vec<Cx> = (0..n)
                .map(|i| Cx::new((i as f64).sin(), (i as f64 * 0.3).cos()))
                .collect();
            let mut y = x.clone();
            par_fft(&mut y);
            let want = oracle::dft(&x);
            for i in 0..n {
                assert!(
                    (y[i].re - want[i].re).abs() < 1e-6 * n as f64
                        && (y[i].im - want[i].im).abs() < 1e-6 * n as f64,
                    "n={n} i={i}"
                );
            }
        }
    }

    #[test]
    fn par_fft_matches_dft_above_cutoff() {
        let n = 4096; // exercises the for_each_chunk_par row path
        let x: Vec<Cx> = (0..n)
            .map(|i| Cx::new((i as f64).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let mut y = x.clone();
        par_fft(&mut y);
        let want = oracle::dft(&x);
        for i in 0..n {
            assert!(
                (y[i].re - want[i].re).abs() < 1e-5 * n as f64
                    && (y[i].im - want[i].im).abs() < 1e-5 * n as f64,
                "i={i}"
            );
        }
    }

    #[test]
    fn par_fft_is_the_identity_at_one_point_and_a_butterfly_at_two() {
        let mut one = [Cx::new(0.5, -2.0)];
        par_fft(&mut one);
        assert_eq!(one, [Cx::new(0.5, -2.0)]);
        let mut two = [Cx::new(1.0, 2.0), Cx::new(3.0, -1.0)];
        par_fft(&mut two);
        assert_eq!(two, [Cx::new(4.0, 1.0), Cx::new(-2.0, 3.0)]);
    }

    /// `X[k]` by direct summation, reducing `j·k` mod `n` first so the
    /// angle stays exact.
    fn dft_bin(x: &[Cx], k: usize) -> Cx {
        let n = x.len();
        x.iter().enumerate().fold(Cx::default(), |acc, (j, &v)| {
            let theta = -std::f64::consts::TAU * ((j * k) % n) as f64 / n as f64;
            acc + v * Cx::cis(theta)
        })
    }

    #[test]
    fn par_fft_matches_sampled_bins_at_benchmark_scale_inside_native_pool() {
        // 2^14 and 2^16 recurse through two six-step levels, so the
        // sub-levels read the table with strides above one.
        for n in [1usize << 14, 1 << 16] {
            let x: Vec<Cx> = gen::random_u64s(2 * n, 1 << 20, n as u64)
                .chunks(2)
                .map(|w| Cx::new(w[0] as f64 / 1e6, w[1] as f64 / 1e6))
                .collect();
            let tol = 1e-9 * x.iter().map(|v| v.abs()).sum::<f64>();
            let bins: Vec<(usize, Cx)> = [0, 1, 2, 3, n / 4, n / 2 - 1, n / 2, n - 1]
                .into_iter()
                .chain((0..8u64).map(|i| gen::random_u64s(1, n as u64, i)[0] as usize))
                .map(|k| (k, dft_bin(&x, k)))
                .collect();
            for cfg in pool_configs() {
                let how = format!("n={n} {:?} workers={}", cfg.policy, cfg.workers);
                let mut y = x.clone();
                let (y, report) = hbp_sched::native::NativePool::run(cfg, move || {
                    par_fft(&mut y);
                    y
                });
                assert!(report.work > 1, "{how}: the FFT forked tasks on the pool");
                for &(k, want) in &bins {
                    assert!(
                        (y[k] - want).abs() <= tol,
                        "{how} bin {k}: {:?} vs {want:?}",
                        y[k]
                    );
                }
            }
        }
    }

    #[test]
    fn par_sort_matches() {
        let keys = gen::random_u64s(5000, 10_000, 9);
        let mut data: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k * 2)).collect();
        let want = oracle::sort_pairs(&data);
        par_mergesort(&mut data);
        assert_eq!(
            data.iter().map(|p| p.0).collect::<Vec<_>>(),
            want.iter().map(|p| p.0).collect::<Vec<_>>()
        );
    }

    /// Pointer jumping: the reference for forests of chains, which the
    /// oracle (one chain) does not rank.
    fn pointer_jumping(succ: &[usize]) -> Vec<u64> {
        let n = succ.len();
        let mut s = succ.to_vec();
        let mut d: Vec<u64> = (0..n).map(|i| u64::from(succ[i] != i)).collect();
        for _ in 0..64 - (n.max(2) as u64 - 1).leading_zeros() {
            let nd: Vec<u64> = (0..n).map(|i| d[i] + d[s[i]]).collect();
            s = (0..n).map(|i| s[s[i]]).collect();
            d = nd;
        }
        d
    }

    /// The successor array of chains visiting `order` front to back,
    /// cut after every position `i` where `cut(i)` holds.
    fn chains(order: &[usize], cut: impl Fn(usize) -> bool) -> Vec<usize> {
        let mut succ = vec![0; order.len()];
        for (i, w) in order.windows(2).enumerate() {
            succ[w[0]] = if cut(i) { w[0] } else { w[1] };
        }
        if let Some(&t) = order.last() {
            succ[t] = t;
        }
        succ
    }

    fn shuffled(n: usize, seed: u64) -> Vec<usize> {
        let mut state = seed | 1;
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, (xs(&mut state) % (i as u64 + 1)) as usize);
        }
        order
    }

    /// List-ranking cases with their expected ranks: single chains in
    /// random, identity and reversed order (checked against the oracle),
    /// and forests of random chains and of singletons (checked against
    /// pointer jumping).
    fn list_rank_cases() -> Vec<(String, Vec<usize>, Vec<u64>)> {
        let sizes = [
            0,
            1,
            2,
            3,
            RULER_STRIDE - 1,
            RULER_STRIDE + 1,
            SEQ_CUTOFF - 1,
            SEQ_CUTOFF + 1,
            5000,
            1 << 16,
        ];
        let mut cases = Vec::new();
        for n in sizes {
            let random = shuffled(n, n as u64);
            let identity: Vec<usize> = (0..n).collect();
            let reversed: Vec<usize> = (0..n).rev().collect();
            for (order, kind) in [
                (random, "random"),
                (identity, "identity"),
                (reversed, "reversed"),
            ] {
                let succ = chains(&order, |_| false);
                let want = if n == 0 {
                    Vec::new()
                } else {
                    oracle::list_rank(&succ)
                };
                cases.push((format!("n={n} {kind}"), succ, want));
            }
            let mut state = n as u64 + 7;
            let cuts: Vec<bool> = (0..n).map(|_| xs(&mut state).is_multiple_of(8)).collect();
            let forest = chains(&shuffled(n, n as u64 + 3), |i| cuts[i]);
            let singletons: Vec<usize> = (0..n).collect();
            for (succ, kind) in [(forest, "forest"), (singletons, "singletons")] {
                let want = pointer_jumping(&succ);
                cases.push((format!("n={n} {kind}"), succ, want));
            }
        }
        cases
    }

    #[test]
    fn pointer_jumping_reference_matches_the_oracle() {
        let succ = gen::random_list(1000, 8);
        assert_eq!(pointer_jumping(&succ), oracle::list_rank(&succ));
    }

    #[test]
    fn par_list_rank_matches_oracle_and_pointer_jumping() {
        for (name, succ, want) in list_rank_cases() {
            assert_eq!(par_list_rank(&succ), want, "{name}");
        }
    }

    #[test]
    fn par_list_rank_matches_inside_native_pool() {
        let cases = list_rank_cases();
        for cfg in pool_configs() {
            let how = format!("{:?} workers={}", cfg.policy, cfg.workers);
            let (got, report) = hbp_sched::native::NativePool::run(cfg, || {
                cases
                    .iter()
                    .map(|(_, succ, _)| par_list_rank(succ))
                    .collect::<Vec<_>>()
            });
            for ((name, _, want), got) in cases.iter().zip(got) {
                assert_eq!(got, *want, "{name} {how}");
            }
            assert!(report.work > 1, "list ranking forked tasks on the pool");
        }
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn par_list_rank_rejects_a_pure_cycle() {
        let n = 5000;
        let ring: Vec<usize> = (0..n).map(|i| (i + 1) % n).collect();
        par_list_rank(&ring);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn par_list_rank_rejects_a_ruler_free_cycle_beside_a_chain() {
        // 0 → 4 → 5 → … → 99 is a chain; 1 → 2 → 3 → 1 has no ruler.
        let mut succ: Vec<usize> = (0..100).map(|i| (i + 1).min(99)).collect();
        succ[0] = 4;
        succ[3] = 1;
        par_list_rank(&succ);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn par_list_rank_rejects_a_cycle_reachable_from_a_chain() {
        // 0 → 1 → … → 4999 → 10: the cycle holds stride rulers.
        let n = 5000;
        let mut succ: Vec<usize> = (1..=n).collect();
        succ[n - 1] = 10;
        par_list_rank(&succ);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn par_list_rank_bounds_a_walk_into_a_ruler_free_cycle() {
        // 0 → 1 → … → 49 → 10: only node 0 is a ruler, so the walk from
        // it would circle forever without the n-step bound.
        let n = RULER_STRIDE - 14;
        let mut succ: Vec<usize> = (1..=n).collect();
        succ[n - 1] = 10;
        par_list_rank(&succ);
    }

    #[test]
    #[should_panic(expected = "two predecessors")]
    fn par_list_rank_rejects_a_node_with_two_predecessors() {
        par_list_rank(&[2, 2, 2]);
    }

    #[test]
    #[should_panic(expected = "two predecessors")]
    fn par_list_rank_rejects_two_chains_joining_at_a_ruler() {
        // 1 → 64 and 2 → 64 → 65 (tail); everything else a singleton.
        let mut succ: Vec<usize> = (0..2 * RULER_STRIDE).collect();
        succ[1] = RULER_STRIDE;
        succ[2] = RULER_STRIDE;
        succ[RULER_STRIDE] = RULER_STRIDE + 1;
        par_list_rank(&succ);
    }

    #[test]
    #[should_panic(expected = "two predecessors")]
    fn par_list_rank_rejects_a_head_joining_a_rulers_walk() {
        // Ruler 0 → 64 and head 1 → 64 → 65 (tail); the rest singletons.
        let mut succ: Vec<usize> = (0..2 * RULER_STRIDE).collect();
        succ[0] = RULER_STRIDE;
        succ[1] = RULER_STRIDE;
        succ[RULER_STRIDE] = RULER_STRIDE + 1;
        par_list_rank(&succ);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn par_list_rank_rejects_an_out_of_range_successor() {
        par_list_rank(&[1, 5, 2]);
    }

    #[test]
    fn par_spms_sorts_stably_above_and_below_cutoff() {
        for n in [0usize, 1, 5, 100, 1025, 5000, 20_000] {
            let keys = gen::random_u64s(n, (n as u64 / 4).max(3), n as u64 + 1);
            let mut data: Vec<(u64, u64)> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| (k, i as u64))
                .collect();
            let want = oracle::sort_pairs(&data);
            par_spms(&mut data);
            assert_eq!(data, want, "n={n} (payload equality = stability)");
        }
    }

    #[test]
    fn par_spms_duplicate_heavy_and_adversarial() {
        for n in [2048usize, 4099] {
            let all_equal: Vec<(u64, u64)> = (0..n as u64).map(|i| (7, i)).collect();
            let two_keys: Vec<(u64, u64)> = (0..n as u64).map(|i| (i % 2, i)).collect();
            let skew: Vec<(u64, u64)> = (0..n as u64)
                .map(|i| (if i == 0 { 0 } else { 9 }, i))
                .collect();
            let desc: Vec<(u64, u64)> = (0..n as u64).map(|i| (n as u64 - i, i)).collect();
            for base in [all_equal, two_keys, skew, desc] {
                let mut data = base.clone();
                let want = oracle::sort_pairs(&base);
                par_spms(&mut data);
                assert_eq!(data, want);
            }
        }
    }

    /// xorshift64* stream for the merge-equivalence fuzz below.
    fn xs(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The obviously-correct reference [`merge2`] is pinned against.
    fn naive_merge(l: &[(u64, u64)], r: &[(u64, u64)], out: &mut [(u64, u64)]) {
        let (mut i, mut j) = (0, 0);
        for slot in out.iter_mut() {
            *slot = if i < l.len() && (j >= r.len() || l[i].0 <= r[j].0) {
                i += 1;
                l[i - 1]
            } else {
                j += 1;
                r[j - 1]
            };
        }
    }

    #[test]
    fn merge2_matches_naive_merge_across_shapes_and_tie_storms() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for case in 0..200 {
            let ll = (xs(&mut state) % 200) as usize;
            let rl = (xs(&mut state) % 200) as usize;
            // Narrow key ranges force ties; wide ones force streaks the
            // galloping path must get right.
            let range = [1u64, 3, 8, 1 << 60][case % 4];
            let mk = |len: usize, state: &mut u64, tag: u64| {
                let mut v: Vec<(u64, u64)> = (0..len as u64)
                    .map(|i| (xs(state) % range, (tag << 32) | i))
                    .collect();
                v.sort_by_key(|p| p.0); // stable: payloads stay ordered
                v
            };
            let l = mk(ll, &mut state, 0);
            let r = mk(rl, &mut state, 1);
            let mut want = vec![(0, 0); ll + rl];
            let mut got = vec![(0, 0); ll + rl];
            naive_merge(&l, &r, &mut want);
            merge2(&l, &r, &mut got);
            assert_eq!(got, want, "case {case} (payload equality = stability)");
        }
    }

    #[test]
    fn merge2_gallops_through_disjoint_and_presorted_sides() {
        // Fully disjoint sides: both directions, both orders — the
        // gallop bulk-copy must fire and stay exact.
        let low: Vec<(u64, u64)> = (0..500u64).map(|i| (i, i)).collect();
        let high: Vec<(u64, u64)> = (0..500u64).map(|i| (1000 + i, i)).collect();
        for (l, r) in [(&low, &high), (&high, &low)] {
            let mut want = vec![(0, 0); 1000];
            let mut got = vec![(0, 0); 1000];
            naive_merge(l, r, &mut want);
            merge2(l, r, &mut got);
            assert_eq!(got, want);
        }
        // One long tie plateau against a point: ties must all stay left.
        let ties: Vec<(u64, u64)> = (0..100u64).map(|i| (5, i)).collect();
        let point = vec![(5u64, 999u64)];
        let mut got = vec![(0, 0); 101];
        merge2(&ties, &point, &mut got);
        assert_eq!(got[100], (5, 999), "left side wins every tie");
    }

    #[test]
    fn seq_sort_matches_std_stable_sort() {
        let mut state = 7u64;
        for n in [0usize, 1, 2, 31, 32, 33, 100, 1024, 1025, 4000] {
            let mut data: Vec<(u64, u64)> = (0..n as u64)
                .map(|i| (xs(&mut state) % (n as u64 / 2 + 3), i))
                .collect();
            let mut want = data.clone();
            want.sort_by_key(|p| p.0);
            let mut scratch = vec![(0, 0); n];
            seq_sort(&mut data, &mut scratch);
            assert_eq!(data, want, "n={n} (payload equality = stability)");
        }
    }

    #[test]
    fn arena_len_covers_the_recursion() {
        // The invariant spms_rec relies on: the arena funds both the
        // concurrent chunk sorts and the two gapped merge halves.
        for n in [1usize, 100, 1 << 11, 1 << 14, 100_000, 1 << 20] {
            let len = arena_len(n);
            if n <= SEQ_CUTOFF {
                assert_eq!(len, n);
                continue;
            }
            let chunks = (n as f64).sqrt().ceil() as usize;
            let q = n.div_ceil(chunks);
            let nchunks = n.div_ceil(q);
            assert!(len >= 2 * line_up(n), "two halves of every element");
            assert!(len >= nchunks * arena_len(q), "chunk sorts fit");
        }
    }

    #[test]
    fn par_spms_matches_inside_native_pool() {
        let keys = gen::random_u64s(30_000, 500, 13);
        let mut data: Vec<(u64, u64)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u64))
            .collect();
        let want = oracle::sort_pairs(&data);
        let cfg = hbp_sched::native::NativeConfig {
            workers: 3,
            seed: 21,
            ..Default::default()
        };
        let (_, report) = hbp_sched::native::NativePool::run(cfg, || par_spms(&mut data));
        assert_eq!(data, want);
        assert!(report.work > 1, "SPMS forked tasks on the pool");
    }
}
