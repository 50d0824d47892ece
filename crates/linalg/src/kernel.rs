//! Runtime-dispatched SIMD popcount backends.
//!
//! Every similarity in the workspace bottoms out in one of two word-level
//! primitives — `popcount(a AND b)` (dot) and `popcount(a XOR b)`
//! (Hamming) — plus the blocked sweeps over a [`BlockedBitMatrix`]. This
//! module selects, **once per process**, the fastest implementation the
//! host CPU offers and publishes it as a dispatch table
//! (`KernelTable`) that the batched entry points
//! ([`crate::BitMatrix::dot_batch`], [`crate::BitMatrix::winners_batch`],
//! [`crate::BitVector::dot_many`], …) route through:
//!
//! * [`Backend::Avx512`] — AVX-512 `VPOPCNTDQ`: one `vpopcntq` per eight
//!   packed words, with vectorized winner tracking.
//! * [`Backend::Avx2`] — nibble-LUT popcount (`pshufb` table lookups
//!   reduced with `psadbw`), with byte-level accumulation across word
//!   runs so the horizontal reduction amortizes.
//! * [`Backend::Neon`] — `vcnt` + widening pairwise adds on aarch64.
//! * [`Backend::Scalar`] — portable `u64::count_ones` loops; always
//!   available and the reference all other backends are tested against.
//!
//! Selection order is `HD_LINALG_BACKEND` (values `scalar`, `avx2`,
//! `avx512`, `neon`; unknown or unavailable values fall back to
//! auto-detection), then the `force-scalar` cargo feature, then
//! `is_x86_feature_detected!` / `is_aarch64_feature_detected!`. All
//! backends are bit-identical — ties, tail words, and padding included —
//! which the `simd_equivalence` proptest suite pins for every backend
//! reachable on the host.

use crate::blocked::BlockedBitMatrix;
use crate::{BitMatrix, Matrix, QueryBatch};
use std::sync::OnceLock;

/// A popcount kernel implementation selectable at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Portable `u64::count_ones` loops (always available).
    Scalar,
    /// AVX2 nibble-LUT popcount (x86-64).
    Avx2,
    /// AVX-512 with the `VPOPCNTDQ` extension (x86-64).
    Avx512,
    /// NEON `vcnt` popcount (aarch64).
    Neon,
}

impl Backend {
    /// Short stable name (accepted by the `HD_LINALG_BACKEND` env var).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
            Backend::Neon => "neon",
        }
    }

    /// Parses a backend name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Backend> {
        match name.to_ascii_lowercase().as_str() {
            "scalar" => Some(Backend::Scalar),
            "avx2" => Some(Backend::Avx2),
            "avx512" | "avx512-vpopcntdq" => Some(Backend::Avx512),
            "neon" => Some(Backend::Neon),
            _ => None,
        }
    }

    /// Whether this backend can run on the current host.
    pub fn is_available(&self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
            }
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
            _ => false,
            #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
            _ => false,
        }
    }

    /// All backends usable on this host, best first (always ends with
    /// [`Backend::Scalar`]). This is the set the equivalence test suites
    /// iterate over.
    pub fn available() -> Vec<Backend> {
        [Backend::Avx512, Backend::Avx2, Backend::Neon, Backend::Scalar]
            .into_iter()
            .filter(Backend::is_available)
            .collect()
    }

    /// The best backend the host supports (detection only; no env
    /// override).
    pub fn detect() -> Backend {
        if cfg!(feature = "force-scalar") {
            return Backend::Scalar;
        }
        Backend::available()[0]
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The process-wide active backend: `HD_LINALG_BACKEND` if set to a
/// recognized **and** available backend, else [`Backend::detect`].
/// Resolved once and cached for the lifetime of the process.
///
/// The `force-scalar` cargo feature is a true kill switch: it wins over
/// the environment, so a binary built with it never runs SIMD kernels no
/// matter what `HD_LINALG_BACKEND` says.
pub fn active() -> Backend {
    static ACTIVE: OnceLock<Backend> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        if cfg!(feature = "force-scalar") {
            return Backend::Scalar;
        }
        match std::env::var("HD_LINALG_BACKEND") {
            Ok(name) => match Backend::from_name(&name) {
                Some(b) if b.is_available() => b,
                Some(b) => {
                    eprintln!(
                        "hd_linalg: HD_LINALG_BACKEND={b} requested but unavailable on this \
                         host; auto-detecting"
                    );
                    Backend::detect()
                }
                // Empty means "explicitly unset" (how CI clears a
                // job-level override); anything else is a typo worth
                // flagging once.
                None if name.is_empty() => Backend::detect(),
                None => {
                    eprintln!(
                        "hd_linalg: unrecognized HD_LINALG_BACKEND={name:?} (expected \
                         scalar|avx2|avx512|neon); auto-detecting"
                    );
                    Backend::detect()
                }
            },
            Err(_) => Backend::detect(),
        }
    })
}

/// Popcount dot product with an explicit backend — the testing/tuning
/// hook behind [`crate::BitVector::dot`].
///
/// # Panics
///
/// Panics if the backend is unavailable on this host or the slices have
/// different lengths.
pub fn dot_words_with(backend: Backend, a: &[u64], b: &[u64]) -> u32 {
    assert!(backend.is_available(), "backend {backend} not available on this host");
    assert_eq!(a.len(), b.len(), "dot_words: length mismatch");
    (table_for(backend).dot_words)(a, b)
}

/// Multi-row popcount dot with an explicit backend: adds row `i`'s dot
/// with `qs` into `out[i]`. The multi-row form is what the cascade
/// continuations run — one pass per shortlist instead of one kernel
/// call per row, so query loads and call overhead amortize across the
/// shortlist. Bit-identical to `rows.len()` separate
/// [`dot_words_with`] calls.
///
/// # Panics
///
/// Panics if the backend is unavailable on this host, `rows` and `out`
/// have different lengths, or any row's length differs from `qs`.
pub fn multi_dot_words_with(backend: Backend, qs: &[u64], rows: &[&[u64]], out: &mut [u32]) {
    assert!(backend.is_available(), "backend {backend} not available on this host");
    assert_eq!(rows.len(), out.len(), "multi_dot_words: rows/out length mismatch");
    for r in rows {
        assert_eq!(r.len(), qs.len(), "multi_dot_words: length mismatch");
    }
    (table_for(backend).multi_dot_words)(qs, rows, out)
}

/// Popcount XOR (Hamming) with an explicit backend.
///
/// # Panics
///
/// Panics if the backend is unavailable on this host or the slices have
/// different lengths.
pub fn hamming_words_with(backend: Backend, a: &[u64], b: &[u64]) -> u32 {
    assert!(backend.is_available(), "backend {backend} not available on this host");
    assert_eq!(a.len(), b.len(), "hamming_words: length mismatch");
    (table_for(backend).hamming_words)(a, b)
}

/// Dispatch table of one backend's kernel entry points. Built once per
/// backend; the active table is what every batched search routes through.
pub(crate) struct KernelTable {
    /// `popcount(a & b)` over equal-length word slices.
    pub(crate) dot_words: fn(&[u64], &[u64]) -> u32,
    /// Adds each row's `popcount(row & qs)` into the matching `out`
    /// slot — the cascade-shortlist form that amortizes query loads and
    /// call overhead across rows. Callers guarantee `rows.len() ==
    /// out.len()` and every row's length equals `qs.len()`.
    pub(crate) multi_dot_words: fn(&[u64], &[&[u64]], &mut [u32]),
    /// `popcount(a ^ b)` over equal-length word slices.
    pub(crate) hamming_words: fn(&[u64], &[u64]) -> u32,
    /// Scores `q_count` queries starting at `q_offset` against every row
    /// of the blocked memory, row-major into `out` (`q_count × rows`).
    pub(crate) blocked_dot_range: fn(&BlockedBitMatrix, &QueryBatch, usize, usize, &mut [u32]),
    /// Winning `(row, score)` per query (low-row tie-break), no score
    /// materialization.
    pub(crate) blocked_winners_range:
        fn(&BlockedBitMatrix, &QueryBatch, usize, &mut [(usize, u32)]),
    /// k-best `(row, score)` per query (score desc, row asc), `k` slots
    /// per query in `out`, no score materialization. `k` is pre-clamped
    /// to the row count by the caller.
    #[allow(clippy::type_complexity)]
    pub(crate) blocked_topk_range:
        fn(&BlockedBitMatrix, &QueryBatch, usize, usize, &mut [(usize, u32)]),
    /// Binary-weight projection of real rows through a feature-major
    /// matrix (see [`BitMatrix::project_rows`]); shapes pre-checked.
    pub(crate) project_rows: fn(&BitMatrix, &[f32], &mut [f32]),
    /// First centroid with the highest `dot` per point (see
    /// [`crate::argmax_dot_rows`]); shapes pre-checked, `d > 0`.
    pub(crate) argmax_dot_rows: fn(&Matrix, &Matrix, &mut [usize]),
}

static SCALAR_TABLE: KernelTable = KernelTable {
    dot_words: scalar::dot_words,
    multi_dot_words: scalar::multi_dot_words,
    hamming_words: scalar::hamming_words,
    blocked_dot_range: crate::blocked::scalar_dot_range,
    blocked_winners_range: crate::blocked::scalar_winners_range,
    blocked_topk_range: crate::blocked::scalar_topk_range,
    project_rows: crate::project::scalar_project_rows,
    argmax_dot_rows: crate::assign::scalar_argmax_dot_rows,
};

#[cfg(target_arch = "x86_64")]
static AVX2_TABLE: KernelTable = KernelTable {
    dot_words: x86::dot_words_avx2,
    multi_dot_words: x86::multi_dot_words_avx2,
    hamming_words: x86::hamming_words_avx2,
    blocked_dot_range: crate::blocked::avx2_dot_range,
    blocked_winners_range: crate::blocked::avx2_winners_range,
    blocked_topk_range: crate::blocked::avx2_topk_range,
    project_rows: crate::project::x86::avx2_project_rows,
    argmax_dot_rows: crate::assign::x86::avx2_argmax_dot_rows,
};

#[cfg(target_arch = "x86_64")]
static AVX512_TABLE: KernelTable = KernelTable {
    dot_words: x86::dot_words_avx512,
    multi_dot_words: x86::multi_dot_words_avx512,
    hamming_words: x86::hamming_words_avx512,
    blocked_dot_range: crate::blocked::avx512_dot_range,
    blocked_winners_range: crate::blocked::avx512_winners_range,
    blocked_topk_range: crate::blocked::avx512_topk_range,
    project_rows: crate::project::x86::avx512_project_rows,
    argmax_dot_rows: crate::assign::x86::avx512_argmax_dot_rows,
};

#[cfg(target_arch = "aarch64")]
static NEON_TABLE: KernelTable = KernelTable {
    dot_words: aarch64::dot_words_neon,
    multi_dot_words: aarch64::multi_dot_words_neon,
    hamming_words: aarch64::hamming_words_neon,
    blocked_dot_range: crate::blocked::neon_dot_range,
    blocked_winners_range: crate::blocked::neon_winners_range,
    blocked_topk_range: crate::blocked::neon_topk_range,
    project_rows: crate::project::scalar_project_rows,
    argmax_dot_rows: crate::assign::scalar_argmax_dot_rows,
};

/// The dispatch table of an explicit backend (assumed available).
pub(crate) fn table_for(backend: Backend) -> &'static KernelTable {
    match backend {
        Backend::Scalar => &SCALAR_TABLE,
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => &AVX2_TABLE,
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => &AVX512_TABLE,
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => &NEON_TABLE,
        #[allow(unreachable_patterns)]
        _ => &SCALAR_TABLE,
    }
}

/// The dispatch table of the active backend.
pub(crate) fn active_table() -> &'static KernelTable {
    static TABLE: OnceLock<&'static KernelTable> = OnceLock::new();
    TABLE.get_or_init(|| table_for(active()))
}

/// Portable reference kernels — the fallback backend and the oracle the
/// SIMD backends are verified against.
pub(crate) mod scalar {
    /// `Σ popcount(a_i & b_i)`.
    #[inline]
    pub(crate) fn dot_words(a: &[u64], b: &[u64]) -> u32 {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| (x & y).count_ones()).sum()
    }

    /// `Σ popcount(a_i ^ b_i)`.
    #[inline]
    pub(crate) fn hamming_words(a: &[u64], b: &[u64]) -> u32 {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
    }

    /// Adds each row's dot with `qs` into the matching `out` slot.
    pub(crate) fn multi_dot_words(qs: &[u64], rows: &[&[u64]], out: &mut [u32]) {
        debug_assert_eq!(rows.len(), out.len());
        for (row, slot) in rows.iter().zip(out) {
            *slot += dot_words(qs, row);
        }
    }
}

/// AVX2 / AVX-512 flat-slice kernels.
///
/// The wrappers are safe because the table they are published in is only
/// selected after `is_x86_feature_detected!` confirms the features.
#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use std::arch::x86_64::*;

    pub(super) fn dot_words_avx2(a: &[u64], b: &[u64]) -> u32 {
        // SAFETY: published only behind an avx2 detection check; every
        // caller enforces a.len() == b.len() before the call.
        unsafe { combine_words_avx2::<false>(a, b) }
    }

    pub(super) fn hamming_words_avx2(a: &[u64], b: &[u64]) -> u32 {
        // SAFETY: published only behind an avx2 detection check; every
        // caller enforces a.len() == b.len() before the call.
        unsafe { combine_words_avx2::<true>(a, b) }
    }

    pub(super) fn dot_words_avx512(a: &[u64], b: &[u64]) -> u32 {
        // SAFETY: published only behind an avx512f+vpopcntdq check; every
        // caller enforces a.len() == b.len() before the call.
        unsafe { combine_words_avx512::<false>(a, b) }
    }

    pub(super) fn hamming_words_avx512(a: &[u64], b: &[u64]) -> u32 {
        // SAFETY: published only behind an avx512f+vpopcntdq check; every
        // caller enforces a.len() == b.len() before the call.
        unsafe { combine_words_avx512::<true>(a, b) }
    }

    /// Per-byte popcount of a 256-bit vector via the classic nibble LUT.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn popcnt_bytes_avx2(v: __m256i) -> __m256i {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
        _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi))
    }

    /// Sums the four 64-bit lanes of an accumulator of `psadbw` partials.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn hsum_epi64_avx2(v: __m256i) -> u64 {
        let hi = _mm256_extracti128_si256(v, 1);
        let lo = _mm256_castsi256_si128(v);
        let s = _mm_add_epi64(lo, hi);
        let s = _mm_add_epi64(s, _mm_unpackhi_epi64(s, s));
        _mm_cvtsi128_si64(s) as u64
    }

    /// `popcount(a OP b)` over word slices, OP = XOR when `XOR` else AND.
    /// Processes 4 words per vector with byte-level accumulation over runs
    /// of ≤ 31 vectors (max byte count 8·31 = 248 < 256) so the `psadbw`
    /// horizontal step runs once per run, not once per vector.
    #[target_feature(enable = "avx2")]
    unsafe fn combine_words_avx2<const XOR: bool>(a: &[u64], b: &[u64]) -> u32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let mut acc = _mm256_setzero_si256();
        let mut i = 0usize;
        while i + 4 <= n {
            let run = ((n - i) / 4).min(31);
            let mut bytes = _mm256_setzero_si256();
            for r in 0..run {
                let pa = _mm256_loadu_si256(a.as_ptr().add(i + 4 * r) as *const __m256i);
                let pb = _mm256_loadu_si256(b.as_ptr().add(i + 4 * r) as *const __m256i);
                let v = if XOR { _mm256_xor_si256(pa, pb) } else { _mm256_and_si256(pa, pb) };
                bytes = _mm256_add_epi8(bytes, popcnt_bytes_avx2(v));
            }
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(bytes, _mm256_setzero_si256()));
            i += 4 * run;
        }
        let mut total = hsum_epi64_avx2(acc) as u32;
        while i < n {
            let v = if XOR { a[i] ^ b[i] } else { a[i] & b[i] };
            total += v.count_ones();
            i += 1;
        }
        total
    }

    /// Multi-row dot via per-row AVX2 sweeps: the nibble-LUT popcount
    /// dominates each row's cost, so sharing query loads buys little —
    /// the win over separate `dot_words` calls is the amortized dispatch.
    pub(super) fn multi_dot_words_avx2(qs: &[u64], rows: &[&[u64]], out: &mut [u32]) {
        debug_assert_eq!(rows.len(), out.len());
        for (row, slot) in rows.iter().zip(out) {
            *slot += dot_words_avx2(qs, row);
        }
    }

    /// Multi-row dot with shared query loads: rows are processed in
    /// register-width groups (up to 8 at a time, with a const-generic
    /// remainder pass), each 512-bit query load feeding one
    /// AND+VPOPCNTDQ accumulator per row — the cascade-shortlist shape
    /// where per-call overhead and query streaming would otherwise
    /// dominate. A top-5 shortlist is a single pass over the staged
    /// query segment.
    pub(super) fn multi_dot_words_avx512(qs: &[u64], rows: &[&[u64]], out: &mut [u32]) {
        assert_eq!(rows.len(), out.len(), "multi_dot_words: rows/out length mismatch");
        for r in rows {
            assert_eq!(r.len(), qs.len(), "multi_dot_words: length mismatch");
        }
        // SAFETY (all calls below): published only behind an
        // avx512f+vpopcntdq detection check; slice lengths are enforced
        // above and each group slice is in bounds by construction.
        unsafe {
            let mut r = 0usize;
            while rows.len() - r >= 8 {
                multi_group_avx512::<8>(qs, &rows[r..r + 8], &mut out[r..r + 8]);
                r += 8;
            }
            match rows.len() - r {
                0 => {}
                1 => multi_group_avx512::<1>(qs, &rows[r..], &mut out[r..]),
                2 => multi_group_avx512::<2>(qs, &rows[r..], &mut out[r..]),
                3 => multi_group_avx512::<3>(qs, &rows[r..], &mut out[r..]),
                4 => multi_group_avx512::<4>(qs, &rows[r..], &mut out[r..]),
                5 => multi_group_avx512::<5>(qs, &rows[r..], &mut out[r..]),
                6 => multi_group_avx512::<6>(qs, &rows[r..], &mut out[r..]),
                _ => multi_group_avx512::<7>(qs, &rows[r..], &mut out[r..]),
            }
        }
    }

    /// One group of `W` rows against the shared query segment: `W`
    /// accumulators (`W` ≤ 8 keeps them all in zmm registers alongside
    /// the query), one query load per 8 words.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn multi_group_avx512<const W: usize>(qs: &[u64], rows: &[&[u64]], out: &mut [u32]) {
        debug_assert_eq!(rows.len(), W);
        let n = qs.len();
        let mut ptrs = [std::ptr::null::<u64>(); W];
        for j in 0..W {
            ptrs[j] = rows[j].as_ptr();
        }
        let mut acc = [_mm512_setzero_si512(); W];
        let mut i = 0usize;
        while i + 8 <= n {
            let q = _mm512_loadu_si512(qs.as_ptr().add(i) as *const _);
            for j in 0..W {
                let w = _mm512_loadu_si512(ptrs[j].add(i) as *const _);
                acc[j] = _mm512_add_epi64(acc[j], _mm512_popcnt_epi64(_mm512_and_si512(q, w)));
            }
            i += 8;
        }
        let mut tot = [0u32; W];
        for j in 0..W {
            tot[j] = _mm512_reduce_add_epi64(acc[j]) as u32;
        }
        while i < n {
            let q = qs[i];
            for j in 0..W {
                tot[j] += (q & *ptrs[j].add(i)).count_ones();
            }
            i += 1;
        }
        for j in 0..W {
            out[j] += tot[j];
        }
    }

    /// `popcount(a OP b)` with native 64-bit lane popcounts (VPOPCNTDQ),
    /// 8 words per vector.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn combine_words_avx512<const XOR: bool>(a: &[u64], b: &[u64]) -> u32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let mut acc = _mm512_setzero_si512();
        let mut i = 0usize;
        while i + 8 <= n {
            let pa = _mm512_loadu_si512(a.as_ptr().add(i) as *const _);
            let pb = _mm512_loadu_si512(b.as_ptr().add(i) as *const _);
            let v = if XOR { _mm512_xor_si512(pa, pb) } else { _mm512_and_si512(pa, pb) };
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
            i += 8;
        }
        let mut total = _mm512_reduce_add_epi64(acc) as u32;
        while i < n {
            let v = if XOR { a[i] ^ b[i] } else { a[i] & b[i] };
            total += v.count_ones();
            i += 1;
        }
        total
    }
}

/// NEON flat-slice kernels (aarch64; NEON is baseline there, but the
/// backend still goes through the same detection-gated table).
#[cfg(target_arch = "aarch64")]
mod aarch64 {
    use std::arch::aarch64::*;

    pub(super) fn dot_words_neon(a: &[u64], b: &[u64]) -> u32 {
        // SAFETY: published only behind a neon detection check; every
        // caller enforces a.len() == b.len() before the call.
        unsafe { combine_words_neon::<false>(a, b) }
    }

    pub(super) fn hamming_words_neon(a: &[u64], b: &[u64]) -> u32 {
        // SAFETY: published only behind a neon detection check; every
        // caller enforces a.len() == b.len() before the call.
        unsafe { combine_words_neon::<true>(a, b) }
    }

    /// Multi-row dot via per-row NEON sweeps; the win over separate
    /// `dot_words` calls is the amortized dispatch.
    pub(super) fn multi_dot_words_neon(qs: &[u64], rows: &[&[u64]], out: &mut [u32]) {
        debug_assert_eq!(rows.len(), out.len());
        for (row, slot) in rows.iter().zip(out) {
            *slot += dot_words_neon(qs, row);
        }
    }

    /// `popcount(a OP b)` via `vcnt` with byte accumulation over runs of
    /// ≤ 31 vectors, widened once per run.
    #[target_feature(enable = "neon")]
    unsafe fn combine_words_neon<const XOR: bool>(a: &[u64], b: &[u64]) -> u32 {
        debug_assert_eq!(a.len(), b.len());
        let n = a.len();
        let mut acc = vdupq_n_u64(0);
        let mut i = 0usize;
        while i + 2 <= n {
            let run = ((n - i) / 2).min(31);
            let mut bytes = vdupq_n_u8(0);
            for r in 0..run {
                let pa = vld1q_u64(a.as_ptr().add(i + 2 * r));
                let pb = vld1q_u64(b.as_ptr().add(i + 2 * r));
                let v = if XOR { veorq_u64(pa, pb) } else { vandq_u64(pa, pb) };
                bytes = vaddq_u8(bytes, vcntq_u8(vreinterpretq_u8_u64(v)));
            }
            acc = vaddq_u64(acc, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(bytes))));
            i += 2 * run;
        }
        let mut total = (vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1)) as u32;
        while i < n {
            let v = if XOR { a[i] ^ b[i] } else { a[i] & b[i] };
            total += v.count_ones();
            i += 1;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_always_available() {
        assert!(Backend::Scalar.is_available());
        let avail = Backend::available();
        assert_eq!(*avail.last().unwrap(), Backend::Scalar);
        assert!(avail.contains(&active()));
    }

    /// The compile-time kill switch must win even against a hostile
    /// `HD_LINALG_BACKEND` (CI runs this feature with the env cleared,
    /// but the guarantee is unconditional).
    #[cfg(feature = "force-scalar")]
    #[test]
    fn force_scalar_beats_env() {
        assert_eq!(active(), Backend::Scalar);
    }

    #[test]
    fn backend_names_roundtrip() {
        for b in [Backend::Scalar, Backend::Avx2, Backend::Avx512, Backend::Neon] {
            assert_eq!(Backend::from_name(b.name()), Some(b));
        }
        assert_eq!(Backend::from_name("AVX512"), Some(Backend::Avx512));
        assert_eq!(Backend::from_name("mmx"), None);
    }

    #[test]
    fn flat_kernels_match_scalar_on_all_backends() {
        // Deterministic pseudo-random words, lengths spanning every tail
        // case of the vector loops.
        let words: Vec<u64> = (0..67u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left((i % 61) as u32))
            .collect();
        let other: Vec<u64> =
            words.iter().map(|w| w.wrapping_mul(0xc2b2_ae3d_27d4_eb4f) ^ !w).collect();
        for backend in Backend::available() {
            for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 67] {
                let a = &words[..len];
                let b = &other[..len];
                assert_eq!(
                    dot_words_with(backend, a, b),
                    scalar::dot_words(a, b),
                    "{backend} dot len {len}"
                );
                assert_eq!(
                    hamming_words_with(backend, a, b),
                    scalar::hamming_words(a, b),
                    "{backend} hamming len {len}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_words_with_checks_lengths() {
        dot_words_with(Backend::Scalar, &[0], &[0, 0]);
    }
}
