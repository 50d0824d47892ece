//! Binary-weight projection: `Y = X · B` for real-valued rows `X` and a
//! binary matrix `B` — the MVM of random-projection encoding (`H = Mᵀ F`,
//! paper Eq. 1).
//!
//! The kernel is tiled over the outputs. A tile holds [`LANES`] outputs;
//! for each tile, every feature's 16 weight bits are expanded once per
//! call into all-ones/all-zero `u32` lane masks, and then every input row
//! of the call is swept against them. Each output adds
//! `f32::from_bits(x.to_bits() & mask)` feature by feature, in ascending
//! feature order, into one accumulator that starts at `+0.0`.
//!
//! That is bit-identical to the naive walk over the set bits of each
//! output (add the selected features in ascending order, skip the rest):
//!
//! * a masked-out feature adds `+0.0`, which is the identity for every
//!   accumulator value except `-0.0`, and an accumulator that starts at
//!   `+0.0` never becomes `-0.0` under round-to-nearest addition;
//! * masking is a bitwise AND, not a multiply, so a masked-out `NaN` or
//!   `±inf` feature still adds `+0.0` (`NaN·0` and `inf·0` are NaN);
//! * the adds of one output are never reassociated, split or fused.
//!
//! The one exception is the payload of a NaN output that two NaNs fed:
//! which operand's payload an add returns is unspecified in Rust (the
//! compiler may commute the operands), in the naive walk as much as
//! here, and the portable and AVX2 builds do differ on it.
//!
//! Several rows are swept together so the add chains of independent
//! outputs overlap; that changes no output's arithmetic.
//!
//! The kernel is plain safe Rust. The dispatch table
//! ([`crate::kernel`]) publishes it compiled three ways: portable (the
//! scalar backend's entry), and with AVX2 or AVX-512F enabled, where the
//! compiler vectorizes a tile into one or two registers. Enabling a
//! target feature changes instruction selection, never the arithmetic:
//! Rust does not contract or reassociate float adds.

use crate::bits::BitMatrix;
use crate::kernel::{self, Backend};

/// Outputs per tile (one 512-bit register of `f32`).
const LANES: usize = 16;

const WORD_BITS: usize = 64;

/// Lane masks of one nibble of weight bits: lane `l` of entry `n` is all
/// ones iff bit `l` of `n` is set.
const NIBBLE_MASKS: [[u32; 4]; 16] = {
    let mut table = [[0u32; 4]; 16];
    let mut n = 0;
    while n < 16 {
        let mut l = 0;
        while l < 4 {
            table[n][l] = 0u32.wrapping_sub((n as u32 >> l) & 1);
            l += 1;
        }
        n += 1;
    }
    table
};

impl BitMatrix {
    /// Projects row-major real-valued rows through this matrix, held
    /// **feature-major**: row `i` has bit `j` set iff feature `i` feeds
    /// output `j`. With `f = rows()` and `D = cols()`, `inputs` holds
    /// `n = inputs.len() / f` rows of `f` features and `out` receives
    /// their `n` rows of `D` outputs:
    ///
    /// `out[r·D + j] = Σ { inputs[r·f + i] : bit (i, j) set }`,
    ///
    /// summed one feature at a time in ascending `i`, bit-identical to
    /// walking each output's set bits. The kernel adds masked-out features
    /// as `+0.0` (a bitwise AND of the feature's bits, so `NaN` and `±inf`
    /// mask to `+0.0` too), which leaves an accumulator started at `+0.0`
    /// unchanged, and it never reassociates, splits or fuses one output's
    /// adds. Every kernel backend gives the same bits, except the payload
    /// of a NaN output that two NaNs fed, which Rust leaves unspecified.
    ///
    /// # Panics
    ///
    /// Panics if `rows() == 0`, if `inputs.len()` is not a multiple of
    /// `rows()`, or if `out.len() != n · cols()`.
    pub fn project_rows(&self, inputs: &[f32], out: &mut [f32]) {
        self.project_rows_with(kernel::active(), inputs, out);
    }

    /// [`BitMatrix::project_rows`] with an explicit kernel backend — the
    /// testing hook; every backend gives the same bits (NaN payloads
    /// aside, as above).
    ///
    /// # Panics
    ///
    /// Panics if the backend is unavailable on this host, and under the
    /// conditions of [`BitMatrix::project_rows`].
    pub fn project_rows_with(&self, backend: Backend, inputs: &[f32], out: &mut [f32]) {
        assert!(backend.is_available(), "backend {backend} not available on this host");
        let (f, d) = self.shape();
        assert!(f > 0, "project_rows: matrix has no feature rows");
        assert_eq!(inputs.len() % f, 0, "project_rows: input is not a whole number of rows");
        assert_eq!(out.len(), inputs.len() / f * d, "project_rows: output length mismatch");
        (kernel::table_for(backend).project_rows)(self, inputs, out);
    }

    /// The transpose: bit `(c, r)` of the result is bit `(r, c)` of `self`.
    pub fn transpose(&self) -> BitMatrix {
        let (rows, cols) = self.shape();
        let mut t = BitMatrix::zeros(cols, rows);
        for r in 0..rows {
            for c in self.row(r).iter_ones() {
                t.set(c, r, true);
            }
        }
        t
    }
}

/// The kernel, sweeping `R` rows together; callers have checked the
/// shapes.
#[inline(always)]
fn project<const R: usize>(m: &BitMatrix, inputs: &[f32], out: &mut [f32]) {
    let (f, d) = m.shape();
    let wpr = m.words_per_row_pub();
    let data = m.data_words_pub();
    let mut masks = vec![[0u32; LANES]; f];
    for lo in (0..d).step_by(LANES) {
        let lanes = LANES.min(d - lo);
        // LANES divides WORD_BITS, so a tile never straddles two words.
        let (word, shift) = (lo / WORD_BITS, lo % WORD_BITS);
        for (i, mask) in masks.iter_mut().enumerate() {
            let bits = data[i * wpr + word] >> shift;
            for (q, lanes) in mask.chunks_exact_mut(4).enumerate() {
                lanes.copy_from_slice(&NIBBLE_MASKS[(bits >> (4 * q)) as usize & 0xf]);
            }
        }
        let mut groups = inputs.chunks_exact(R * f);
        let mut outs = out.chunks_exact_mut(d);
        for group in &mut groups {
            for (acc, o) in sweep::<R>(&masks, group).iter().zip(&mut outs) {
                o[lo..lo + lanes].copy_from_slice(&acc[..lanes]);
            }
        }
        for (row, o) in groups.remainder().chunks_exact(f).zip(outs) {
            let [acc] = sweep::<1>(&masks, row);
            o[lo..lo + lanes].copy_from_slice(&acc[..lanes]);
        }
    }
}

/// Portable entry: two rows per sweep keep a tile's accumulators in the
/// sixteen 128-bit registers of the x86-64 baseline.
pub(crate) fn scalar_project_rows(m: &BitMatrix, inputs: &[f32], out: &mut [f32]) {
    project::<2>(m, inputs, out);
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use super::{project, BitMatrix};

    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn project_avx2(m: &BitMatrix, inputs: &[f32], out: &mut [f32]) {
        project::<4>(m, inputs, out);
    }

    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn project_avx512(m: &BitMatrix, inputs: &[f32], out: &mut [f32]) {
        project::<4>(m, inputs, out);
    }

    pub(crate) fn avx2_project_rows(m: &BitMatrix, inputs: &[f32], out: &mut [f32]) {
        // SAFETY: table selected only after avx2 detection.
        unsafe { project_avx2(m, inputs, out) }
    }

    pub(crate) fn avx512_project_rows(m: &BitMatrix, inputs: &[f32], out: &mut [f32]) {
        // SAFETY: table selected only after avx512f+vpopcntdq detection.
        unsafe { project_avx512(m, inputs, out) }
    }
}

/// One tile's outputs for `R` consecutive rows of `rows` (`R·f` values).
#[inline(always)]
fn sweep<const R: usize>(masks: &[[u32; LANES]], rows: &[f32]) -> [[f32; LANES]; R] {
    let f = masks.len();
    let rows: [&[f32]; R] = std::array::from_fn(|r| &rows[r * f..(r + 1) * f]);
    let mut acc = [[0.0f32; LANES]; R];
    for (i, mask) in masks.iter().enumerate() {
        for (acc, row) in acc.iter_mut().zip(rows) {
            let x = row[i].to_bits();
            for (a, &m) in acc.iter_mut().zip(mask) {
                *a += f32::from_bits(x & m);
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitVector;

    #[test]
    fn project_rows_matches_dense() {
        // Feature-major: feature i feeds output j iff bit (i, j) is set.
        let rows = vec![
            BitVector::from_bools(&[true, false]),
            BitVector::from_bools(&[false, false]),
            BitVector::from_bools(&[true, false]),
            BitVector::from_bools(&[true, true]),
        ];
        let m = BitMatrix::from_rows(&rows).unwrap();
        let x = [0.5f32, 1.5, 2.5, 3.5, 1.0, 1.0, 1.0, 1.0];
        let mut out = [0.0f32; 4];
        m.project_rows(&x, &mut out);
        assert_eq!(out, [6.5, 3.5, 3.0, 1.0]);
    }

    #[test]
    fn masked_out_nan_and_inf_add_nothing() {
        let m = BitMatrix::from_rows(&[
            BitVector::from_bools(&[true, false]),
            BitVector::from_bools(&[false, true]),
        ])
        .unwrap();
        let mut out = [0.0f32; 2];
        m.project_rows(&[f32::NAN, 2.0], &mut out);
        assert!(out[0].is_nan());
        assert_eq!(out[1], 2.0);
        m.project_rows(&[-0.0, f32::INFINITY], &mut out);
        assert_eq!(out[0].to_bits(), 0.0f32.to_bits(), "+0.0 + -0.0 is +0.0");
        assert_eq!(out[1], f32::INFINITY);
    }

    #[test]
    fn transpose_swaps_indices() {
        let mut m = BitMatrix::zeros(3, 70);
        m.set(0, 69, true);
        m.set(2, 5, true);
        let t = m.transpose();
        assert_eq!(t.shape(), (70, 3));
        assert!(t.get(69, 0) && t.get(5, 2));
        assert_eq!(t.count_ones(), 2);
        assert_eq!(t.transpose(), m);
    }
}
