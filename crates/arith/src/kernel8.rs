//! The paper-shaped `b = 8` micro-kernels of the packed fast path.
//!
//! `chain8` runs one output tile's whole exponent-alignment chain: for
//! every `bk` it forms the exact 8×8 int8 tile product `X(bi,bk)·Y(bk,bj)`
//! and merges it into the running accumulator with the truncating
//! alignment shift of [`crate::quant::BfpMatrix::try_matmul`]. The loop,
//! the product and the merge stay inside one `#[target_feature]` function,
//! so the accumulator never leaves registers until the chain ends.
//! `select_tile8` returns the tile product alone, for the checksum
//! kernel in [`crate::abft`], whose verify chain keeps i64 accumulators.
//!
//! Both are compiled once per [`ChainIsa`] variant and dispatched at
//! runtime (`is_x86_feature_detected!`), widest first. Every variant
//! computes the same exact integer sums, so the choice never changes a
//! bit.
//!
//! **Why i32 accumulators are exact.** Mantissas lie in `[-128, 127]`,
//! so a tile product element is bounded by `|prod| ≤ 8·128² = 2¹⁷`. An
//! arithmetic right shift never grows a magnitude, so after `kb` merges
//! `|acc| ≤ kb·2¹⁷`, which is below `2³¹` for `kb < 2¹⁴`
//! (`CHAIN8_MAX_KB`). For `|v| < 2³¹`, the i32 shift `v >> min(s, 31)`
//! equals the reference's i64 `shift_right_trunc(v, s)` for every `s`
//! (`vpsravd` fills with the sign bit for counts ≥ 32, which is the
//! `min`). Callers send longer chains to the generic i64 kernel.

/// Chains of at least this many `bk` steps can overflow an i32
/// accumulator and must take the generic i64 kernel.
pub(crate) const CHAIN8_MAX_KB: usize = 1 << 14;

/// Starting exponent of an empty chain, below every product exponent
/// (two i8 exponents sum to at least −256): the first merge shifts the
/// zero accumulator away and keeps the product unshifted.
const EMPTY_EXP: i32 = i32::MIN / 2;

/// The instruction-set variants the `b = 8` kernels are compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainIsa {
    /// AVX-512 F/BW with VNNI: `vpdpbusd` tile products in four zmm
    /// accumulators.
    Avx512Vnni,
    /// AVX2: `vpmaddwd` + `vphaddd` tile products in eight ymm
    /// accumulators.
    Avx2,
    /// The baseline target (SSE2 on x86-64).
    Portable,
}

impl ChainIsa {
    /// Widest first: the runtime dispatch order.
    const ALL: [ChainIsa; 3] = [ChainIsa::Avx512Vnni, ChainIsa::Avx2, ChainIsa::Portable];

    /// Whether this host can run the variant.
    pub(crate) fn available(self) -> bool {
        match self {
            ChainIsa::Portable => true,
            #[cfg(target_arch = "x86_64")]
            ChainIsa::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            ChainIsa::Avx512Vnni => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512bw")
                    && is_x86_feature_detected!("avx512vnni")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The variant the packed GEMM dispatches to on this host.
    pub fn best() -> ChainIsa {
        Self::ALL
            .into_iter()
            .find(|isa| isa.available())
            .unwrap_or(ChainIsa::Portable)
    }

    /// Every variant this host supports, widest first.
    #[cfg(test)]
    pub(crate) fn supported() -> Vec<ChainIsa> {
        Self::ALL
            .into_iter()
            .filter(|isa| isa.available())
            .collect()
    }

    /// Short name, as recorded in benchmark host facts.
    pub fn name(self) -> &'static str {
        match self {
            ChainIsa::Avx512Vnni => "avx512_vnni",
            ChainIsa::Avx2 => "avx2",
            ChainIsa::Portable => "portable",
        }
    }
}

/// One alignment step: the merged exponent and the right-shift counts of
/// the running accumulator and of the incoming product (one is 0).
#[inline(always)]
fn align(acc_exp: i32, pexp: i32) -> (i32, u32, u32) {
    let e = acc_exp.max(pexp);
    (e, (e - acc_exp) as u32, (e - pexp) as u32)
}

/// Run the alignment chain of output tile `(bi, bj)` into `acc`
/// (row-major, `acc[i·8+j]`) and return its shared exponent, or `None`
/// for `K = 0` (then `acc` is untouched).
///
/// `x`/`xe` are the `kb` mantissa tiles and exponents of LHS block-row
/// `bi`; `y`/`ye` are the whole RHS planes, tile `(bk, bj)` at
/// `(bk·nb + bj)·64` (block-transposed, see [`crate::packed`]).
///
/// # Panics
/// Panics if `kb ≥ CHAIN8_MAX_KB`, if a plane is too short, or if the
/// host lacks `isa`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn chain8(
    isa: ChainIsa,
    x: &[i8],
    xe: &[i8],
    y: &[i8],
    ye: &[i8],
    bj: usize,
    nb: usize,
    acc: &mut [i32; 64],
) -> Option<i32> {
    let kb = xe.len();
    if kb == 0 {
        return None;
    }
    assert!(kb < CHAIN8_MAX_KB, "chain of {kb} tiles can overflow i32");
    let last = (kb - 1) * nb + bj;
    assert!(
        bj < nb && x.len() >= kb * 64 && ye.len() > last && y.len() >= (last + 1) * 64,
        "chain operands out of range"
    );
    assert!(
        isa.available(),
        "{isa:?} GEMM kernels need CPU support this host lacks"
    );
    let y = &y[bj * 64..];
    let ye = &ye[bj..];
    Some(match isa {
        // SAFETY: `available()` verified the target features; the
        // asserts above keep every tile read inside `x` and `y`.
        #[cfg(target_arch = "x86_64")]
        ChainIsa::Avx512Vnni => unsafe { x86::chain_avx512(x, xe, y, ye, nb, acc) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        ChainIsa::Avx2 => unsafe { x86::chain_avx2(x, xe, y, ye, nb, acc) },
        _ => chain_portable(x, xe, y, ye, nb, acc),
    })
}

fn chain_portable(x: &[i8], xe: &[i8], y: &[i8], ye: &[i8], nb: usize, out: &mut [i32; 64]) -> i32 {
    let mut acc = [0i32; 64];
    let mut prod = [0i32; 64];
    let mut acc_exp = EMPTY_EXP;
    for (bk, &e) in xe.iter().enumerate() {
        let xt = x[bk * 64..][..64].try_into().expect("64-byte tile");
        let yt = y[bk * nb * 64..][..64].try_into().expect("64-byte tile");
        tile8_product(xt, yt, &mut prod);
        let (e, sa, sp) = align(acc_exp, e as i32 + ye[bk * nb] as i32);
        acc_exp = e;
        let (sa, sp) = (sa.min(31), sp.min(31));
        for t in 0..64 {
            acc[t] = (acc[t] >> sa) + (prod[t] >> sp);
        }
    }
    *out = acc;
    acc_exp
}

/// 8×8 tile-product micro-kernel signature: `out[i·8+j] = Σₖ x[i·8+k]·y[j·8+k]`
/// (both operands unit-stride in `k` thanks to the block-transposed RHS).
pub(crate) type Tile8Fn = fn(&[i8; 64], &[i8; 64], &mut [i32; 64]);

/// Portable micro-kernel body. Widening to `i16` first keeps the inner
/// products in the shape SIMD integer-MAC instructions (`pmaddwd` and
/// friends) digest, so the auto-vectoriser can use them when the target
/// features allow.
#[inline(always)]
fn tile8_product(x: &[i8; 64], y: &[i8; 64], out: &mut [i32; 64]) {
    let mut yw = [0i16; 64];
    for (w, &v) in yw.iter_mut().zip(y.iter()) {
        *w = v as i16;
    }
    for i in 0..8 {
        let mut xr = [0i16; 8];
        for (w, &v) in xr.iter_mut().zip(&x[i * 8..i * 8 + 8]) {
            *w = v as i16;
        }
        for j in 0..8 {
            let yr = &yw[j * 8..j * 8 + 8];
            let mut s = 0i32;
            for k in 0..8 {
                s += xr[k] as i32 * yr[k] as i32;
            }
            out[i * 8 + j] = s;
        }
    }
}

/// Pick the fastest tile-product micro-kernel the host supports, in the
/// [`ChainIsa`] dispatch order. Every variant computes the same exact
/// integer products, so the choice never changes output bits.
pub(crate) fn select_tile8() -> Tile8Fn {
    tile8_for(ChainIsa::best())
}

/// The `isa` variant of the tile-product micro-kernel.
///
/// # Panics
/// Panics if the host lacks `isa`.
fn tile8_for(isa: ChainIsa) -> Tile8Fn {
    assert!(
        isa.available(),
        "{isa:?} GEMM kernels need CPU support this host lacks"
    );
    match isa {
        // SAFETY: the host supports `isa` (asserted above).
        #[cfg(target_arch = "x86_64")]
        ChainIsa::Avx512Vnni => |x, y, out| unsafe { x86::tile8_avx512(x, y, out) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        ChainIsa::Avx2 => |x, y, out| unsafe { x86::tile8_avx2(x, y, out) },
        _ => tile8_product,
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{align, EMPTY_EXP};
    use std::arch::x86_64::*;

    /// Lane `l` of the VNNI RHS operand for k-quad `r`: dword `(j, r)`
    /// of the RHS tile (run `j`, bytes `4r..4r+4`), `j = l % 8`.
    const fn idx_y(r: i32) -> [i32; 16] {
        let mut v = [0; 16];
        let mut l = 0;
        while l < 16 {
            v[l] = (l as i32 % 8) * 2 + r;
            l += 1;
        }
        v
    }

    /// Lane `l` of the VNNI LHS operand for k-quad `r` and output rows
    /// `2q, 2q+1`: dword `(2q + l / 8, r)` of the LHS tile.
    const fn idx_x(r: i32, q: i32) -> [i32; 16] {
        let mut v = [0; 16];
        let mut l = 0;
        while l < 16 {
            v[l] = (2 * q + l as i32 / 8) * 2 + r;
            l += 1;
        }
        v
    }

    static IDX_Y: [[i32; 16]; 2] = [idx_y(0), idx_y(1)];
    static IDX_X: [[[i32; 16]; 4]; 2] = [
        [idx_x(0, 0), idx_x(0, 1), idx_x(0, 2), idx_x(0, 3)],
        [idx_x(1, 0), idx_x(1, 1), idx_x(1, 2), idx_x(1, 3)],
    ];

    /// `vpdpbusd acc, u, s`: per dword lane, `acc += Σ u8 × i8` over its
    /// four byte pairs, non-saturating. Inline asm pins the single
    /// instruction: LLVM may otherwise split it for generic x86-64 tuning.
    macro_rules! dpbusd {
        ($acc:expr, $u:expr, $s:expr) => {
            std::arch::asm!(
                "vpdpbusd {acc}, {u}, {s}",
                acc = inout(zmm_reg) $acc,
                u = in(zmm_reg) $u,
                s = in(zmm_reg) $s,
                options(pure, nomem, nostack),
            )
        };
    }

    /// The 8×8 tile product at `x`, `y` (64 bytes each) in four zmm
    /// registers, natural order: register `q` holds output rows `2q` and
    /// `2q+1`. Each dword of a tile is one k-quad of a row (LHS) or run
    /// (RHS). `vpdpbusd` multiplies unsigned by signed bytes, so the LHS
    /// is offset to `x + 128` (a sign-bit flip) and the products start
    /// from `-128·Σₖ y[j][k]`, formed by the same instruction:
    /// `Σ (x + 128)·y − 128·Σ y = Σ x·y`. Per k-quad, one `vpermd`
    /// spreads the RHS quads over the eight columns and one per register
    /// gathers the matching LHS quads. Every sum is exact in i32
    /// (partial sums stay below `8·255·128 < 2²¹`).
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    unsafe fn product_avx512(x: *const i8, y: *const i8) -> [__m512i; 4] {
        // SAFETY: the caller guarantees 64 readable bytes at `x` and `y`;
        // the index tables are 16 dwords each.
        unsafe {
            let sign = _mm512_set1_epi8(i8::MIN);
            let xu = _mm512_xor_si512(_mm512_loadu_si512(x as *const __m512i), sign);
            let yv = _mm512_loadu_si512(y as *const __m512i);
            let ys: [__m512i; 2] = std::array::from_fn(|r| {
                _mm512_permutexvar_epi32(
                    _mm512_loadu_si512(IDX_Y[r].as_ptr() as *const __m512i),
                    yv,
                )
            });
            let mut bias = _mm512_setzero_si512();
            for y in ys {
                dpbusd!(bias, sign, y);
            }
            let start = _mm512_sub_epi32(_mm512_setzero_si512(), bias);
            std::array::from_fn(|q| {
                let mut acc = start;
                for (r, y) in ys.into_iter().enumerate() {
                    let ix = _mm512_loadu_si512(IDX_X[r][q].as_ptr() as *const __m512i);
                    dpbusd!(acc, _mm512_permutexvar_epi32(ix, xu), y);
                }
                acc
            })
        }
    }

    /// AVX-512 VNNI chain: four zmm accumulators, one `vpsravd` per
    /// register and side per step.
    ///
    /// # Safety
    /// The host must support AVX-512 F/BW/VNNI; `x` must hold `xe.len()`
    /// tiles and `y` tile `bk` at `bk·nb·64`, exponent at `ye[bk·nb]`.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub(super) unsafe fn chain_avx512(
        x: &[i8],
        xe: &[i8],
        y: &[i8],
        ye: &[i8],
        nb: usize,
        out: &mut [i32; 64],
    ) -> i32 {
        // SAFETY: tile reads stay inside the planes (caller contract);
        // stores write the 64-dword `out`.
        unsafe {
            let mut acc = [_mm512_setzero_si512(); 4];
            let mut acc_exp = EMPTY_EXP;
            for (bk, &e) in xe.iter().enumerate() {
                let prod = product_avx512(x.as_ptr().add(bk * 64), y.as_ptr().add(bk * nb * 64));
                let (e, sa, sp) = align(acc_exp, e as i32 + ye[bk * nb] as i32);
                acc_exp = e;
                let sa = _mm512_set1_epi32(sa as i32);
                let sp = _mm512_set1_epi32(sp as i32);
                for (a, mut p) in acc.iter_mut().zip(prod) {
                    // Variable shifts are one uop; LLVM would turn these
                    // splat counts into the two-uop `vpsrad zmm, xmm`.
                    std::arch::asm!(
                        "vpsravd {a}, {a}, {sa}",
                        "vpsravd {p}, {p}, {sp}",
                        a = inout(zmm_reg) *a,
                        p = inout(zmm_reg) p,
                        sa = in(zmm_reg) sa,
                        sp = in(zmm_reg) sp,
                        options(pure, nomem, nostack),
                    );
                    *a = _mm512_add_epi32(*a, p);
                }
            }
            for (q, a) in acc.into_iter().enumerate() {
                _mm512_storeu_si512(out.as_mut_ptr().add(q * 16) as *mut __m512i, a);
            }
            acc_exp
        }
    }

    /// # Safety
    /// The host must support AVX-512 F/BW/VNNI.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub(super) unsafe fn tile8_avx512(x: &[i8; 64], y: &[i8; 64], out: &mut [i32; 64]) {
        // SAFETY: fixed 64-element operands and output.
        unsafe {
            let prod = product_avx512(x.as_ptr(), y.as_ptr());
            for (q, p) in prod.into_iter().enumerate() {
                _mm512_storeu_si512(out.as_mut_ptr().add(q * 16) as *mut __m512i, p);
            }
        }
    }

    /// The 8×8 tile product at `x`, `y` in eight ymm registers, one per
    /// output row, in `vphaddd` order `[d0 d2 d4 d6 | d1 d3 d5 d7]`
    /// ([`UNSHUFFLE`] restores natural order): the eight RHS runs widen to
    /// i16 once, then per LHS row one `vpmaddwd` against each run pair and
    /// a three-level `vphaddd` reduction tree. Every sum is an exact i32
    /// addition of the same i16×i16 products the portable body computes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn product_avx2(x: *const i8, y: *const i8) -> [__m256i; 8] {
        // SAFETY: the caller guarantees 64 readable bytes at `x` and `y`.
        unsafe {
            // y runs 2a (lower 128-bit lane) and 2a+1 (upper lane) as i16.
            let y01 = _mm256_cvtepi8_epi16(_mm_loadu_si128(y as *const __m128i));
            let y23 = _mm256_cvtepi8_epi16(_mm_loadu_si128(y.add(16) as *const __m128i));
            let y45 = _mm256_cvtepi8_epi16(_mm_loadu_si128(y.add(32) as *const __m128i));
            let y67 = _mm256_cvtepi8_epi16(_mm_loadu_si128(y.add(48) as *const __m128i));
            std::array::from_fn(|i| {
                let xr = _mm_cvtepi8_epi16(_mm_loadl_epi64(x.add(i * 8) as *const __m128i));
                let xx = _mm256_set_m128i(xr, xr);
                // Lane half k of t_ab: pairwise i32 sums of x·y_{a or b}.
                let h1 = _mm256_hadd_epi32(_mm256_madd_epi16(xx, y01), _mm256_madd_epi16(xx, y23));
                let h2 = _mm256_hadd_epi32(_mm256_madd_epi16(xx, y45), _mm256_madd_epi16(xx, y67));
                _mm256_hadd_epi32(h1, h2)
            })
        }
    }

    /// `vpermd` indices from `vphaddd` order back to natural `j` order.
    const UNSHUFFLE: [i32; 8] = [0, 4, 1, 5, 2, 6, 3, 7];

    /// AVX2 chain: eight ymm accumulators kept in `vphaddd` order (the
    /// merge is lane-wise), unshuffled once when the chain ends.
    ///
    /// # Safety
    /// The host must support AVX2; operand contract as
    /// [`chain_avx512`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn chain_avx2(
        x: &[i8],
        xe: &[i8],
        y: &[i8],
        ye: &[i8],
        nb: usize,
        out: &mut [i32; 64],
    ) -> i32 {
        // SAFETY: tile reads stay inside the planes (caller contract);
        // stores write the 64-dword `out`.
        unsafe {
            let mut acc = [_mm256_setzero_si256(); 8];
            let mut acc_exp = EMPTY_EXP;
            for (bk, &e) in xe.iter().enumerate() {
                let prod = product_avx2(x.as_ptr().add(bk * 64), y.as_ptr().add(bk * nb * 64));
                let (e, sa, sp) = align(acc_exp, e as i32 + ye[bk * nb] as i32);
                acc_exp = e;
                let sa = _mm256_set1_epi32(sa as i32);
                let sp = _mm256_set1_epi32(sp as i32);
                for (a, p) in acc.iter_mut().zip(prod) {
                    *a = _mm256_add_epi32(_mm256_srav_epi32(*a, sa), _mm256_srav_epi32(p, sp));
                }
            }
            let unshuffle = _mm256_loadu_si256(UNSHUFFLE.as_ptr() as *const __m256i);
            for (i, a) in acc.into_iter().enumerate() {
                let row = _mm256_permutevar8x32_epi32(a, unshuffle);
                _mm256_storeu_si256(out.as_mut_ptr().add(i * 8) as *mut __m256i, row);
            }
            acc_exp
        }
    }

    /// # Safety
    /// The host must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn tile8_avx2(x: &[i8; 64], y: &[i8; 64], out: &mut [i32; 64]) {
        // SAFETY: fixed 64-element operands and output.
        unsafe {
            let unshuffle = _mm256_loadu_si256(UNSHUFFLE.as_ptr() as *const __m256i);
            for (i, r) in product_avx2(x.as_ptr(), y.as_ptr()).into_iter().enumerate() {
                let row = _mm256_permutevar8x32_epi32(r, unshuffle);
                _mm256_storeu_si256(out.as_mut_ptr().add(i * 8) as *mut __m256i, row);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfp::shift_right_trunc;

    /// The reference chain, restated: i64 accumulators, scalar dot
    /// products, the branchy shift/truncate merge of
    /// `BfpMatrix::try_matmul`.
    fn chain_i64(
        x: &[i8],
        xe: &[i8],
        y: &[i8],
        ye: &[i8],
        bj: usize,
        nb: usize,
    ) -> Option<([i64; 64], i32)> {
        let mut acc = [0i64; 64];
        let mut acc_exp = None;
        for bk in 0..xe.len() {
            let xt = &x[bk * 64..][..64];
            let yt = &y[(bk * nb + bj) * 64..][..64];
            let pexp = xe[bk] as i32 + ye[bk * nb + bj] as i32;
            let mut prod = [0i64; 64];
            for i in 0..8 {
                for j in 0..8 {
                    prod[i * 8 + j] = (0..8)
                        .map(|k| xt[i * 8 + k] as i64 * yt[j * 8 + k] as i64)
                        .sum();
                }
            }
            acc_exp = Some(match acc_exp {
                None => {
                    acc = prod;
                    pexp
                }
                Some(e) if pexp >= e => {
                    for t in 0..64 {
                        acc[t] = shift_right_trunc(acc[t], (pexp - e) as u32) + prod[t];
                    }
                    pexp
                }
                Some(e) => {
                    for t in 0..64 {
                        acc[t] += shift_right_trunc(prod[t], (e - pexp) as u32);
                    }
                    e
                }
            });
        }
        acc_exp.map(|e| (acc, e))
    }

    /// Deterministic mantissa stream (xorshift), full i8 range.
    fn mantissas(n: usize, seed: u64) -> Vec<i8> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 56) as u8 as i8
            })
            .collect()
    }

    fn assert_chain_matches(
        isa: ChainIsa,
        x: &[i8],
        xe: &[i8],
        y: &[i8],
        ye: &[i8],
        nb: usize,
        what: &str,
    ) {
        for bj in 0..nb {
            let mut acc = [0i32; 64];
            let got = chain8(isa, x, xe, y, ye, bj, nb, &mut acc);
            let want = chain_i64(x, xe, y, ye, bj, nb);
            match (got, want) {
                (None, None) => {}
                (Some(e), Some((w, we))) => {
                    assert_eq!(e, we, "{isa:?} {what} bj={bj}: exponent");
                    for t in 0..64 {
                        assert_eq!(acc[t] as i64, w[t], "{isa:?} {what} bj={bj} t={t}");
                    }
                }
                (g, w) => panic!("{isa:?} {what}: {g:?} vs {:?}", w.map(|(_, e)| e)),
            }
        }
    }

    #[test]
    fn every_variant_matches_the_i64_chain_across_exponent_gaps() {
        let nb = 3;
        for isa in ChainIsa::supported() {
            for gap in [0i32, 1, 2, 30, 31, 32, 33, 62, 63, 64, 101, 200, 254] {
                // Product exponents alternate between `lo` and `hi`, so
                // the merges alternate direction (accumulator shifted,
                // then product shifted); both starting points.
                let (lo, hi) = (-127i32, gap - 127);
                for kb in [1usize, 2, 3, 6] {
                    let x = mantissas(kb * 64, gap as u64 * 7 + kb as u64);
                    let y = mantissas(kb * nb * 64, gap as u64 * 11 + kb as u64);
                    let ye = vec![0i8; kb * nb];
                    for (first, second) in [(lo, hi), (hi, lo)] {
                        let xe: Vec<i8> = (0..kb)
                            .map(|bk| if bk % 2 == 0 { first } else { second } as i8)
                            .collect();
                        assert_chain_matches(
                            isa,
                            &x,
                            &xe,
                            &y,
                            &ye,
                            nb,
                            &format!("gap {gap} kb {kb} from {first}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn negative_accumulators_round_toward_minus_infinity() {
        // Every product element is odd and negative, so each truncating
        // shift rounds down, not toward zero.
        let kb = 5;
        let x = vec![-1i8; kb * 64];
        let y: Vec<i8> = (0..kb * 64)
            .map(|t| if t % 8 == 0 { 3 } else { 2 })
            .collect();
        let xe: Vec<i8> = vec![0, 1, 3, 2, 7];
        let ye = vec![0i8; kb];
        for isa in ChainIsa::supported() {
            assert_chain_matches(isa, &x, &xe, &y, &ye, 1, "negative");
            let mut acc = [0i32; 64];
            chain8(isa, &x, &xe, &y, &ye, 0, 1, &mut acc).unwrap();
            assert!(acc.iter().all(|&a| a < 0), "{isa:?}: {acc:?}");
        }
    }

    #[test]
    fn longest_i32_chain_holds_the_worst_case_magnitudes() {
        // kb = 2^14 - 1 steps of the largest product magnitudes: with
        // equal exponents |acc| reaches (2^14 - 1)·8·128² = 2^31 - 2^17.
        // A last step `gap` above shifts that near-2^31 accumulator by
        // 31 and more, where i32 and i64 shifts could part ways.
        let kb = CHAIN8_MAX_KB - 1;
        let ye = vec![0i8; kb];
        for (xv, yv) in [(127i8, 127i8), (127, -127), (-128, -128)] {
            let x = vec![xv; kb * 64];
            let y = vec![yv; kb * 64];
            let prod = 8 * xv as i64 * yv as i64;
            for gap in [0u32, 31, 32] {
                let mut xe = vec![0i8; kb];
                xe[kb - 1] = gap as i8;
                let want = shift_right_trunc((kb as i64 - 1) * prod, gap) + prod;
                for isa in ChainIsa::supported() {
                    let mut acc = [0i32; 64];
                    assert_eq!(
                        chain8(isa, &x, &xe, &y, &ye, 0, 1, &mut acc),
                        Some(gap as i32)
                    );
                    assert!(
                        acc.iter().all(|&a| a as i64 == want),
                        "{isa:?} {xv}x{yv} gap {gap}: {} vs {want}",
                        acc[0]
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "can overflow i32")]
    fn a_chain_of_two_to_the_fourteen_tiles_is_refused() {
        let xe = vec![0i8; CHAIN8_MAX_KB];
        chain8(ChainIsa::Portable, &[], &xe, &[], &[], 0, 1, &mut [0; 64]);
    }

    #[test]
    fn an_empty_chain_leaves_the_accumulator_alone() {
        for isa in ChainIsa::supported() {
            let mut acc = [7i32; 64];
            assert_eq!(chain8(isa, &[], &[], &[], &[], 0, 1, &mut acc), None);
            assert_eq!(acc, [7; 64]);
        }
    }

    #[test]
    fn every_tile_product_variant_is_exact() {
        for seed in 0..64u64 {
            let x: [i8; 64] = mantissas(64, seed).try_into().unwrap();
            let y: [i8; 64] = mantissas(64, seed + 1000).try_into().unwrap();
            let mut want = [0i32; 64];
            tile8_product(&x, &y, &mut want);
            for i in 0..8 {
                for j in 0..8 {
                    let dot: i32 = (0..8)
                        .map(|k| x[i * 8 + k] as i32 * y[j * 8 + k] as i32)
                        .sum();
                    assert_eq!(want[i * 8 + j], dot);
                }
            }
            for isa in ChainIsa::supported() {
                let mut got = [0i32; 64];
                tile8_for(isa)(&x, &y, &mut got);
                assert_eq!(got, want, "{isa:?} seed {seed}");
            }
        }
    }

    #[test]
    fn dispatch_order_is_widest_first() {
        let supported = ChainIsa::supported();
        assert_eq!(supported.first(), Some(&ChainIsa::best()));
        assert_eq!(supported.last(), Some(&ChainIsa::Portable));
    }
}
