//! Dot-similarity assignment: for every point, the first centroid with the
//! highest [`crate::dot`] — the assignment step of dot-similarity k-means
//! (paper §III-A-1).
//!
//! The kernel scores a point against [`LANES`] centroids at once, one lane
//! per centroid. Once per call, the centroids are transposed into tiles of
//! `d` lane vectors (`tile[i][l]` is element `i` of centroid
//! `16·t + l`; lanes past the last centroid are zero and never read
//! back). Every lane then repeats [`crate::dot`]'s summation order
//! exactly:
//!
//! * each 8-element chunk gets its own partial sum, started at `+0.0`,
//!   into which the chunk's products are added in ascending index;
//! * each partial is added to an accumulator started at `+0.0`;
//! * the tail elements' products are added to the accumulator one at a
//!   time;
//! * every product is a separate multiply and add: Rust never fuses or
//!   reassociates float arithmetic.
//!
//! So each lane's score is bit-identical to `dot(point, centroid)`, up to
//! the payload of a NaN score, which Rust leaves unspecified in `dot` as
//! much as here. The argmax then scans lanes in centroid order starting
//! from centroid 0 and moves only on a strictly greater score, which keeps
//! the lowest index on ties and never moves onto or off a NaN by
//! comparison — exactly the serial loop
//! `best = 0; for c in 1..k { if dot(p, c) > dot(p, best) { best = c } }`.
//!
//! Several points are swept together so the add chains of independent
//! points overlap; that changes no lane's arithmetic. The kernel is plain
//! safe Rust, published through [`crate::kernel`] compiled three ways:
//! portable (the scalar backend's entry), and with AVX2 or AVX-512F
//! enabled, where a tile's 16 lanes fill two or one registers.

use crate::kernel::{self, Backend};
use crate::Matrix;

/// Centroids per tile (one 512-bit register of `f32`).
const LANES: usize = 16;

/// Elements per partial sum — [`crate::dot`]'s chunk width.
const CHUNK: usize = 8;

/// Writes, for every row of `points`, the index of the first row of
/// `centroids` with the highest [`crate::dot`] into `out`.
///
/// Bit-identical to scoring every pair with `dot` and scanning the
/// centroids in order with a strict `>` from centroid 0 (lowest index on
/// ties; a NaN score never wins a comparison). Every kernel backend gives
/// the same assignments.
///
/// # Panics
///
/// Panics if `centroids` has no rows, if the column counts differ, or if
/// `out.len() != points.rows()`.
pub fn argmax_dot_rows(points: &Matrix, centroids: &Matrix, out: &mut [usize]) {
    argmax_dot_rows_with(kernel::active(), points, centroids, out);
}

/// [`argmax_dot_rows`] with an explicit kernel backend — the testing hook;
/// every backend gives the same assignments.
///
/// # Panics
///
/// Panics if the backend is unavailable on this host, and under the
/// conditions of [`argmax_dot_rows`].
pub fn argmax_dot_rows_with(
    backend: Backend,
    points: &Matrix,
    centroids: &Matrix,
    out: &mut [usize],
) {
    assert!(backend.is_available(), "backend {backend} not available on this host");
    assert!(centroids.rows() > 0, "argmax_dot_rows: no centroids");
    assert_eq!(points.cols(), centroids.cols(), "argmax_dot_rows: dimension mismatch");
    assert_eq!(out.len(), points.rows(), "argmax_dot_rows: output length mismatch");
    if points.cols() == 0 {
        // Every score is `dot(&[], &[]) = +0.0`: all ties.
        out.fill(0);
        return;
    }
    (kernel::table_for(backend).argmax_dot_rows)(points, centroids, out);
}

/// The kernel, sweeping `R` points together; callers have checked the
/// shapes and that `d > 0`.
#[inline(always)]
fn assign<const R: usize>(points: &Matrix, centroids: &Matrix, out: &mut [usize]) {
    let (k, d) = centroids.shape();
    let mut tiles = vec![[0.0f32; LANES]; k.div_ceil(LANES) * d];
    for (c, row) in centroids.iter_rows().enumerate() {
        let tile = &mut tiles[c / LANES * d..][..d];
        for (lanes, &v) in tile.iter_mut().zip(row) {
            lanes[c % LANES] = v;
        }
    }
    let mut groups = points.as_slice().chunks_exact(R * d);
    let mut outs = out.chunks_exact_mut(R);
    for (group, o) in (&mut groups).zip(&mut outs) {
        o.copy_from_slice(&best::<R>(&tiles, k, group));
    }
    for (row, o) in groups.remainder().chunks_exact(d).zip(outs.into_remainder()) {
        [*o] = best::<1>(&tiles, k, row);
    }
}

/// The winning centroid of each of the `R` points in `rows` (`R·d`
/// values), scanning tiles and lanes in centroid order.
#[inline(always)]
fn best<const R: usize>(tiles: &[[f32; LANES]], k: usize, rows: &[f32]) -> [usize; R] {
    let d = rows.len() / R;
    let rows: [&[f32]; R] = std::array::from_fn(|r| &rows[r * d..(r + 1) * d]);
    let mut best = [0usize; R];
    let mut best_score = [0.0f32; R];
    for (t, tile) in tiles.chunks_exact(d).enumerate() {
        let scores = tile_scores::<R>(tile, rows);
        let lo = t * LANES;
        for (l, c) in (lo..k.min(lo + LANES)).enumerate() {
            for r in 0..R {
                let s = scores[r][l];
                if c == 0 || s > best_score[r] {
                    best_score[r] = s;
                    best[r] = c;
                }
            }
        }
    }
    best
}

/// `dot(row, centroid)` of each of `R` rows against a tile's 16 centroids,
/// in `dot`'s exact order.
#[inline(always)]
fn tile_scores<const R: usize>(tile: &[[f32; LANES]], rows: [&[f32]; R]) -> [[f32; LANES]; R] {
    let body = tile.len() / CHUNK * CHUNK;
    let mut acc = [[0.0f32; LANES]; R];
    for (c, chunk) in tile[..body].chunks_exact(CHUNK).enumerate() {
        let mut partial = [[0.0f32; LANES]; R];
        for (i, w) in chunk.iter().enumerate() {
            for (p, row) in partial.iter_mut().zip(rows) {
                let x = row[c * CHUNK + i];
                for (p, &w) in p.iter_mut().zip(w) {
                    *p += x * w;
                }
            }
        }
        for (a, p) in acc.iter_mut().zip(&partial) {
            for (a, &p) in a.iter_mut().zip(p) {
                *a += p;
            }
        }
    }
    for (i, w) in tile[body..].iter().enumerate() {
        for (a, row) in acc.iter_mut().zip(rows) {
            let x = row[body + i];
            for (a, &w) in a.iter_mut().zip(w) {
                *a += x * w;
            }
        }
    }
    acc
}

/// Portable entry: two points per sweep keep their partial sums in the
/// sixteen 128-bit registers of the x86-64 baseline.
pub(crate) fn scalar_argmax_dot_rows(points: &Matrix, centroids: &Matrix, out: &mut [usize]) {
    assign::<2>(points, centroids, out);
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use super::{assign, Matrix};

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn assign_avx2(points: &Matrix, centroids: &Matrix, out: &mut [usize]) {
        assign::<4>(points, centroids, out);
    }

    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn assign_avx512(points: &Matrix, centroids: &Matrix, out: &mut [usize]) {
        assign::<4>(points, centroids, out);
    }

    pub(crate) fn avx2_argmax_dot_rows(points: &Matrix, centroids: &Matrix, out: &mut [usize]) {
        // SAFETY: table selected only after avx2 detection.
        unsafe { assign_avx2(points, centroids, out) }
    }

    pub(crate) fn avx512_argmax_dot_rows(points: &Matrix, centroids: &Matrix, out: &mut [usize]) {
        // SAFETY: table selected only after avx512f+vpopcntdq detection.
        unsafe { assign_avx512(points, centroids, out) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(points: &Matrix, centroids: &Matrix) -> Vec<usize> {
        points
            .iter_rows()
            .map(|p| {
                let mut best = 0;
                for c in 1..centroids.rows() {
                    if crate::dot(p, centroids.row(c)) > crate::dot(p, centroids.row(best)) {
                        best = c;
                    }
                }
                best
            })
            .collect()
    }

    #[test]
    fn picks_highest_dot_with_low_index_ties() {
        let centroids =
            Matrix::from_rows(&[&[1.0f32, 0.0][..], &[0.0, 1.0][..], &[0.0, 1.0][..]]).unwrap();
        let points =
            Matrix::from_rows(&[&[2.0f32, 1.0][..], &[1.0, 3.0][..], &[0.0, 0.0][..]]).unwrap();
        let mut out = [9usize; 3];
        argmax_dot_rows(&points, &centroids, &mut out);
        assert_eq!(out, [0, 1, 0]);
    }

    #[test]
    fn nan_centroid_zero_keeps_every_point() {
        // `s > NaN` is false, so a NaN score at centroid 0 is never beaten.
        let centroids = Matrix::from_rows(&[&[f32::NAN][..], &[5.0][..]]).unwrap();
        let points = Matrix::from_rows(&[&[1.0f32][..], &[-1.0][..]]).unwrap();
        let mut out = [9usize; 2];
        argmax_dot_rows(&points, &centroids, &mut out);
        assert_eq!(out, [0, 0]);
    }

    #[test]
    fn matches_naive_across_tiles_chunks_and_groups() {
        let mut rng = crate::rng::seeded(3);
        let normal = crate::rng::Normal::new(0.0, 1.0);
        for (n, k, d) in [(1, 1, 1), (5, 17, 9), (7, 33, 20), (3, 16, 8)] {
            let mut pts = vec![0.0f32; n * d];
            let mut cts = vec![0.0f32; k * d];
            normal.fill(&mut rng, &mut pts);
            normal.fill(&mut rng, &mut cts);
            let points = Matrix::from_vec(n, d, pts).unwrap();
            let centroids = Matrix::from_vec(k, d, cts).unwrap();
            for backend in Backend::available() {
                let mut out = vec![0usize; n];
                argmax_dot_rows_with(backend, &points, &centroids, &mut out);
                assert_eq!(out, naive(&points, &centroids), "{backend} n{n} k{k} d{d}");
            }
        }
    }

    #[test]
    fn zero_width_rows_all_tie_at_centroid_zero() {
        let mut out = [9usize; 3];
        argmax_dot_rows(&Matrix::zeros(3, 0), &Matrix::zeros(4, 0), &mut out);
        assert_eq!(out, [0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "no centroids")]
    fn no_centroids_panics() {
        argmax_dot_rows(&Matrix::zeros(1, 2), &Matrix::zeros(0, 2), &mut [0]);
    }
}
