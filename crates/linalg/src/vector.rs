//! Free functions on `f32` slices.
//!
//! These are the scalar kernels shared by [`crate::Matrix`] and the HDC
//! layers: dot products, AXPY updates, norms, and simple statistics.

/// Dot product of two equal-length slices.
///
/// The summation order is a contract, not an implementation detail:
/// each 8-element chunk is summed into its own partial started at
/// `+0.0`, products `a[i] * b[i]` added in ascending `i`; each partial
/// is added, in chunk order, to an accumulator started at `+0.0`; the
/// tail's products are then added to the accumulator one at a time.
/// Every product is a separate multiply and add (Rust never fuses or
/// reassociates them). [`crate::argmax_dot_rows`] repeats this order lane
/// by lane, and seeded training digests depend on it; changing it
/// changes trained models.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch ({} vs {})", a.len(), b.len());
    let mut acc = 0.0f32;
    let mut chunks_a = a.chunks_exact(8);
    let mut chunks_b = b.chunks_exact(8);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        let mut partial = 0.0f32;
        for i in 0..8 {
            partial += ca[i] * cb[i];
        }
        acc += partial;
    }
    for (x, y) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        acc += x * y;
    }
    acc
}

/// In-place AXPY: `y ← y + alpha·x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch ({} vs {})", x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Euclidean (L2) norm.
#[inline]
pub fn l2_norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Scales a slice in place by `factor`.
#[inline]
pub fn scale_in_place(a: &mut [f32], factor: f32) {
    for v in a {
        *v *= factor;
    }
}

/// Normalizes a slice to unit L2 norm in place.
///
/// A zero vector is left unchanged (there is no direction to normalize to).
pub fn normalize_l2(a: &mut [f32]) {
    let n = l2_norm(a);
    if n > 0.0 {
        scale_in_place(a, 1.0 / n);
    }
}

/// Arithmetic mean. Returns `0.0` for an empty slice.
#[inline]
pub fn mean(a: &[f32]) -> f32 {
    if a.is_empty() {
        return 0.0;
    }
    a.iter().sum::<f32>() / a.len() as f32
}

/// Population variance. Returns `0.0` for an empty slice.
pub fn variance(a: &[f32]) -> f32 {
    if a.is_empty() {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|v| (v - m) * (v - m)).sum::<f32>() / a.len() as f32
}

/// Index of the maximum element, breaking ties toward the lower index.
///
/// Returns `None` for an empty slice. NaN entries never win.
pub fn argmax(a: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &v) in a.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f32> = (0..37).map(|i| i as f32 * 0.5).collect();
        let b: Vec<f32> = (0..37).map(|i| (36 - i) as f32).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-2);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_updates() {
        let mut y = vec![1.0f32, 2.0];
        axpy(3.0, &[1.0, -1.0], &mut y);
        assert_eq!(y, vec![4.0, -1.0]);
    }

    #[test]
    fn l2_norm_pythagorean() {
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_l2_unit() {
        let mut v = vec![3.0f32, 4.0];
        normalize_l2(&mut v);
        assert!((l2_norm(&v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_zero_vector_noop() {
        let mut v = vec![0.0f32; 4];
        normalize_l2(&mut v);
        assert_eq!(v, vec![0.0; 4]);
    }

    #[test]
    fn mean_variance_known() {
        let a = [1.0f32, 2.0, 3.0, 4.0];
        assert!((mean(&a) - 2.5).abs() < 1e-6);
        assert!((variance(&a) - 1.25).abs() < 1e-6);
    }

    #[test]
    fn mean_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
    }

    #[test]
    fn argmax_prefers_first_on_tie() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), Some(1));
    }

    #[test]
    fn argmax_empty_none() {
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn argmax_skips_nan() {
        assert_eq!(argmax(&[f32::NAN, 1.0, 0.5]), Some(1));
    }

    #[test]
    fn scale_in_place_basic() {
        let mut v = vec![1.0f32, -2.0];
        scale_in_place(&mut v, -2.0);
        assert_eq!(v, vec![-2.0, 4.0]);
    }
}
