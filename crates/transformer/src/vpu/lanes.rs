//! Lane-parallel evaluation of the exact VPU kernels.
//!
//! [`Block`] is a second implementation of [`Datapath`]: 16 lanes of
//! fp32 values held as raw `u32` bit patterns, on which the paper's
//! multiplier (LSP-dropped, truncating) and adder (48-bit aligned,
//! truncating) are re-derived as branch-free integer arithmetic with
//! 64-bit mantissa products, and FTZ, overflow, signed zeros and the
//! control-logic early-outs are per-lane selects. The exact kernels are
//! not restated here — `exp`, `tanh`, GELU, softmax and LayerNorm are the
//! generic formulas in the parent module — so a block runs the very same
//! program as the scalar [`Vpu`], one lane per element (GELU) or per row
//! (softmax, LayerNorm; the transposed block keeps every row reduction in
//! its serial order inside its own lane).
//!
//! Bit identity with the scalar datapath holds on finite values: host
//! division and square root are native IEEE ops in both, and the integer
//! mantissa datapath is exact. The special-value control logic (NaN and
//! infinity propagation) is not modelled in lanes: a block whose live
//! lanes hold or reach a non-finite value is *poisoned* and rerun through
//! the scalar kernels, so its outputs and counts are the oracle's by
//! construction. Counts are billed once per live lane, and a lane leaves
//! the live set inside an early-out region (`Datapath::unless`) exactly
//! where its scalar run would return, so a clean block's [`OpCount`] is
//! the sum of its lanes' scalar counts.
//!
//! The block code is plain Rust over `[u32; 16]` arrays. Each entry point
//! is compiled three times — for AVX-512, for AVX2 and for the baseline
//! target — and [`Isa::best`] picks the widest variant the host supports
//! at runtime (`is_x86_feature_detected!`). Every variant computes the
//! same integer and IEEE operations, so the choice never changes a bit.

use super::{gelu, layernorm_row, softmax_row, Datapath, OpCount, Vpu};
use crate::engine::DivisionPolicy;

/// Lanes per block.
const LANES: usize = 16;

const SIGN: u32 = 0x8000_0000;
const EXP: u32 = 0x7f80_0000;
const FRAC: u32 = 0x007f_ffff;
const HIDDEN: u32 = 0x0080_0000;

/// 16 fp32 bit patterns, or 16 all-ones/all-zeros predicates.
#[derive(Clone, Copy)]
struct Lanes([u32; LANES]);

#[inline(always)]
fn map(a: Lanes, f: impl Fn(u32) -> u32) -> Lanes {
    let mut r = [0u32; LANES];
    for i in 0..LANES {
        r[i] = f(a.0[i]);
    }
    Lanes(r)
}

#[inline(always)]
fn zip(a: Lanes, b: Lanes, f: impl Fn(u32, u32) -> u32) -> Lanes {
    let mut r = [0u32; LANES];
    for i in 0..LANES {
        r[i] = f(a.0[i], b.0[i]);
    }
    Lanes(r)
}

#[inline(always)]
fn mask(p: bool) -> u32 {
    (p as u32).wrapping_neg()
}

#[inline(always)]
fn as_f32(b: u32) -> f32 {
    f32::from_bits(b)
}

/// Repack a sign, unclamped biased exponent and 24-bit mantissa, with the
/// datapath's clamps: overflow saturates to ±inf, underflow flushes to ±0
/// (`SoftFp32::pack`).
#[inline(always)]
fn pack(sign: u32, exp: i32, man: u32) -> u32 {
    let normal = sign | ((exp as u32) << 23) | (man & FRAC);
    if exp >= 255 {
        sign | EXP
    } else if exp <= 0 {
        sign
    } else {
        normal
    }
}

/// `HwFp32Mul::mul` with `MulVariant::DropLsp` and truncation, for finite
/// operands: the full 48-bit mantissa product minus the omitted
/// `man_x(0)·man_y(0)` partial product, renormalised by truncation.
#[inline(always)]
fn mul_bits(a: u32, b: u32) -> u32 {
    let sign = (a ^ b) & SIGN;
    let (ea, eb) = ((a >> 23) & 0xff, (b >> 23) & 0xff);
    let (ma, mb) = ((a & FRAC) | HIDDEN, (b & FRAC) | HIDDEN);
    let full = ma as u64 * mb as u64 - ((ma & 0xff) * (mb & 0xff)) as u64;
    // full ∈ [2^46, 2^48): `top` is its bit 47.
    let r23 = (full >> 23) as u32;
    let top = r23 >> 24;
    let man = r23 >> top;
    let exp = (ea + eb + top) as i32 - 127;
    // Zero and subnormal operands flush to a signed zero.
    if ea == 0 || eb == 0 {
        sign
    } else {
        pack(sign, exp, man)
    }
}

/// `HwFp32Add::add` with `AddVariant::Exact48` and truncation, for finite
/// operands: align the smaller magnitude inside the 48-bit window, add
/// signed magnitudes, renormalise with one truncation.
#[inline(always)]
fn add_bits(a: u32, b: u32) -> u32 {
    let (ea, eb) = ((a >> 23) & 0xff, (b >> 23) & 0xff);
    // The exponent unit routes the larger magnitude to x; on a tie, a.
    let swap = (b & !SIGN) > (a & !SIGN);
    let (x, y) = if swap { (b, a) } else { (a, b) };
    let (ex, ey) = ((x >> 23) & 0xff, (y >> 23) & 0xff);
    let shift = ex.wrapping_sub(ey);
    let mx = (((x & FRAC) | HIDDEN) as u64) << 24;
    let my_full = (((y & FRAC) | HIDDEN) as u64) << 24;
    let my = if shift >= 48 {
        0
    } else {
        my_full >> (shift & 63)
    };
    let same = (x ^ y) & SIGN == 0;
    let mag = if same { mx + my } else { mx - my };
    // Index of the top set bit (−1 for a zero sum), then normalise it to
    // mantissa bit 23.
    let h = 63 - mag.leading_zeros() as i32;
    let right = mag >> ((h - 23).max(0) as u32);
    let left = mag << ((23 - h).clamp(0, 63) as u32);
    let man = if h >= 23 { right } else { left } as u32;
    let sum = pack(x & SIGN, ex as i32 + h - 47, man);
    // Total cancellation gives +0.
    let sum = if mag == 0 { 0 } else { sum };
    // Zero (and FTZ'd subnormal) operands pass the other through; two
    // zeros keep a negative sign only if both are negative.
    if ea == 0 && eb == 0 {
        a & b & SIGN
    } else if ea == 0 {
        b
    } else if eb == 0 {
        a
    } else {
        sum
    }
}

/// `Vpu::scale_exp2`: the exponent unit's `x · 2^k`, FTZ on underflow
/// (to +0), saturating on overflow.
#[inline(always)]
fn scale_exp2_bits(x: u32, k: i32) -> u32 {
    let e = (((x >> 23) & 0xff) as i32).wrapping_add(k);
    let scaled = (x & !EXP) | ((e as u32 & 0xff) << 23);
    let r = if e <= 0 {
        0
    } else if e >= 255 {
        (x & SIGN) | EXP
    } else {
        scaled
    };
    if x & !SIGN == 0 {
        x
    } else {
        r
    }
}

/// A block of 16 lanes running one VPU program: the live-lane set of the
/// current early-out region, the sticky poison flags, and the ops billed.
struct Block {
    /// All-ones on lanes still executing the current region.
    active: Lanes,
    /// Population of `active`: what each op bills.
    live: u64,
    /// All-ones on lanes that held or produced a non-finite value while
    /// live.
    poison: Lanes,
    /// Ops billed to the live lanes.
    count: OpCount,
}

impl Block {
    /// A block whose first `n` lanes are live.
    #[inline(always)]
    fn new(n: usize) -> Self {
        let mut active = [0u32; LANES];
        for (i, a) in active.iter_mut().enumerate() {
            *a = mask(i < n);
        }
        Block {
            active: Lanes(active),
            live: n.min(LANES) as u64,
            poison: Lanes([0; LANES]),
            count: OpCount::default(),
        }
    }

    /// Poison every live lane of `v` that is infinite or NaN.
    #[inline(always)]
    fn flag(&mut self, v: Lanes) {
        for i in 0..LANES {
            self.poison.0[i] |= self.active.0[i] & mask(v.0[i] & EXP == EXP);
        }
    }

    /// Whether the block left the finite datapath and must be rerun on
    /// the scalar kernels.
    #[inline(always)]
    fn poisoned(&self) -> bool {
        self.poison.0.iter().fold(0, |acc, &p| acc | p) != 0
    }

    /// Load up to 16 values (missing lanes read +0), poisoning non-finite
    /// live inputs.
    #[inline(always)]
    fn load(&mut self, src: &[f32]) -> Lanes {
        let mut v = [0u32; LANES];
        for (d, s) in v.iter_mut().zip(src) {
            *d = s.to_bits();
        }
        let v = Lanes(v);
        self.flag(v);
        v
    }

    #[inline(always)]
    fn op(&mut self, r: Lanes) -> Lanes {
        self.flag(r);
        r
    }
}

impl Datapath for Block {
    type V = Lanes;
    type M = Lanes;

    #[inline(always)]
    fn splat(c: f32) -> Lanes {
        Lanes([c.to_bits(); LANES])
    }
    #[inline(always)]
    fn mul(&mut self, a: Lanes, b: Lanes) -> Lanes {
        self.count.fp_mul += self.live;
        self.op(zip(a, b, mul_bits))
    }
    #[inline(always)]
    fn add(&mut self, a: Lanes, b: Lanes) -> Lanes {
        self.count.fp_add += self.live;
        self.op(zip(a, b, add_bits))
    }
    #[inline(always)]
    fn sub(&mut self, a: Lanes, b: Lanes) -> Lanes {
        // Sign flip through the XOR gate, then add.
        self.count.fp_add += self.live;
        self.op(zip(a, b, |a, b| add_bits(a, b ^ SIGN)))
    }
    #[inline(always)]
    fn div_host(&mut self, a: Lanes, b: Lanes) -> Lanes {
        self.count.host_div += self.live;
        self.op(zip(a, b, |a, b| (as_f32(a) / as_f32(b)).to_bits()))
    }
    #[inline(always)]
    fn sqrt_host(&mut self, a: Lanes) -> Lanes {
        self.count.host_sqrt += self.live;
        self.op(map(a, |a| as_f32(a).sqrt().to_bits()))
    }
    #[inline(always)]
    fn scale_exp2(&mut self, x: Lanes, kf: Lanes) -> Lanes {
        self.count.exp_adjust += self.live;
        self.op(zip(x, kf, |x, kf| scale_exp2_bits(x, as_f32(kf) as i32)))
    }
    #[inline(always)]
    fn recip_seed(&mut self, x: Lanes) -> Lanes {
        self.count.exp_adjust += self.live;
        // Live lanes are non-zero, so `x < 0` is the sign bit.
        self.op(map(x, |x| {
            0x7EEF_311Du32.wrapping_sub(x & !SIGN) ^ (x & SIGN)
        }))
    }
    #[inline(always)]
    fn rsqrt_seed(&mut self, x: Lanes) -> Lanes {
        self.count.exp_adjust += self.live;
        self.op(map(x, |x| 0x5f37_59dfu32.wrapping_sub(x >> 1)))
    }
    #[inline(always)]
    fn cmp_max(&mut self, v: Lanes, max: Lanes) -> Lanes {
        self.count.cmp += self.live;
        zip(v, max, |v, m| if as_f32(v) > as_f32(m) { v } else { m })
    }
    #[inline(always)]
    fn check_nonneg(&mut self, x: Lanes) {
        // The scalar kernel panics here; poisoning reruns it so it does.
        for i in 0..LANES {
            let v = as_f32(x.0[i]);
            self.poison.0[i] |= self.active.0[i] & mask(v < 0.0 || v.is_nan());
        }
    }
    #[inline(always)]
    fn gt(a: Lanes, c: f32) -> Lanes {
        map(a, |a| mask(as_f32(a) > c))
    }
    #[inline(always)]
    fn lt(a: Lanes, c: f32) -> Lanes {
        map(a, |a| mask(as_f32(a) < c))
    }
    #[inline(always)]
    fn is_zero(a: Lanes) -> Lanes {
        map(a, |a| mask(a & !SIGN == 0))
    }
    #[inline(always)]
    fn or(a: Lanes, b: Lanes) -> Lanes {
        zip(a, b, |a, b| a | b)
    }
    #[inline(always)]
    fn select(m: Lanes, a: Lanes, b: Lanes) -> Lanes {
        let mut r = [0u32; LANES];
        for i in 0..LANES {
            r[i] = (m.0[i] & a.0[i]) | (!m.0[i] & b.0[i]);
        }
        Lanes(r)
    }
    #[inline(always)]
    fn copysign(c: f32, x: Lanes) -> Lanes {
        map(x, |x| (c.to_bits() & !SIGN) | (x & SIGN))
    }
    #[inline(always)]
    fn unless(&mut self, out: Lanes, val: Lanes, body: impl FnOnce(&mut Self) -> Lanes) -> Lanes {
        let outer = (self.active, self.live);
        let inner = zip(self.active, out, |a, o| a & !o);
        let live = inner.0.iter().filter(|&&m| m != 0).count() as u64;
        let r = if live == 0 {
            val
        } else {
            self.active = inner;
            self.live = live;
            let r = body(self);
            (self.active, self.live) = outer;
            Self::select(out, val, r)
        };
        self.op(r)
    }
}

/// The instruction-set variants a lane kernel is compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// The baseline target (SSE2 on x86-64).
    Portable,
    /// AVX2 with BMI2/LZCNT.
    Avx2,
    /// AVX-512 F/BW/CD/DQ/VL.
    Avx512,
}

impl Isa {
    /// Widest first.
    const ALL: [Isa; 3] = [Isa::Avx512, Isa::Avx2, Isa::Portable];

    /// Whether this host can run the variant.
    pub(crate) fn available(self) -> bool {
        match self {
            Isa::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => {
                is_x86_feature_detected!("avx2")
                    && is_x86_feature_detected!("bmi2")
                    && is_x86_feature_detected!("lzcnt")
            }
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512bw")
                    && is_x86_feature_detected!("avx512cd")
                    && is_x86_feature_detected!("avx512dq")
                    && is_x86_feature_detected!("avx512vl")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest variant the host supports.
    pub(crate) fn best() -> Isa {
        Self::ALL
            .into_iter()
            .find(|isa| isa.available())
            .unwrap_or(Isa::Portable)
    }

    /// Every variant the host supports, widest first.
    #[cfg(test)]
    pub(crate) fn supported() -> Vec<Isa> {
        Self::ALL
            .into_iter()
            .filter(|isa| isa.available())
            .collect()
    }
}

/// Defines `pub(crate) fn $name(isa, args..)`: `$body` compiled once per
/// [`Isa`] variant (the `#[inline(always)]` block code inlines into each
/// `#[target_feature]` wrapper and is vectorised for it), dispatched on
/// `isa`. An unavailable variant panics rather than executing.
macro_rules! isa_variants {
    ($(#[$doc:meta])* $name:ident => $body:ident($($arg:ident: $ty:ty),* $(,)?)) => {
        $(#[$doc])*
        #[allow(clippy::too_many_arguments)]
        pub(crate) fn $name(isa: Isa, $($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f,avx512bw,avx512cd,avx512dq,avx512vl,bmi2,lzcnt")]
            #[allow(clippy::too_many_arguments)]
            fn avx512($($arg: $ty),*) {
                $body($($arg),*)
            }
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2,bmi2,lzcnt")]
            #[allow(clippy::too_many_arguments)]
            fn avx2($($arg: $ty),*) {
                $body($($arg),*)
            }
            assert!(isa.available(), "{isa:?} lane kernels need CPU support this host lacks");
            match isa {
                // SAFETY: `available()` verified the target features above.
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512 => unsafe { avx512($($arg),*) },
                // SAFETY: as above.
                #[cfg(target_arch = "x86_64")]
                Isa::Avx2 => unsafe { avx2($($arg),*) },
                _ => $body($($arg),*),
            }
        }
    };
}

isa_variants! {
    /// Exact GELU over `data`, 16 elements per block; poisoned blocks
    /// rerun on the scalar kernel. Ops are billed to `vpu`.
    gelu_slice => gelu_blocks(vpu: &mut Vpu, data: &mut [f32], division: DivisionPolicy)
}

isa_variants! {
    /// Exact softmax over the `cols`-wide rows of `data`, 16 rows per
    /// block.
    softmax_rows => softmax_blocks(vpu: &mut Vpu, data: &mut [f32], cols: usize, division: DivisionPolicy)
}

isa_variants! {
    /// Exact LayerNorm over the `cols`-wide rows of `data`, 16 rows per
    /// block.
    layernorm_rows => layernorm_blocks(
        vpu: &mut Vpu,
        data: &mut [f32],
        cols: usize,
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
        division: DivisionPolicy,
    )
}

#[inline(always)]
fn gelu_blocks(vpu: &mut Vpu, data: &mut [f32], division: DivisionPolicy) {
    for chunk in data.chunks_mut(LANES) {
        let mut blk = Block::new(chunk.len());
        let x = blk.load(chunk);
        let y = gelu(&mut blk, x, division);
        if blk.poisoned() {
            for v in chunk.iter_mut() {
                *v = gelu(vpu, *v, division);
            }
        } else {
            for (d, s) in chunk.iter_mut().zip(y.0) {
                *d = f32::from_bits(s);
            }
            vpu.count.merge(&blk.count);
        }
    }
}

/// Run a row kernel over 16-row blocks of `data`: each block is
/// transposed so column `j` of all its rows is one [`Lanes`] value, the
/// kernel runs once per block with lane `i` carrying row `i` (so every
/// row reduction keeps its serial order), and the result is transposed
/// back. Poisoned blocks rerun row by row on `scalar`.
#[inline(always)]
fn row_blocks(
    vpu: &mut Vpu,
    data: &mut [f32],
    cols: usize,
    lanes: impl Fn(&mut Block, &mut [Lanes]),
    scalar: impl Fn(&mut Vpu, &mut [f32]),
) {
    let mut cols_t = vec![Lanes([0; LANES]); cols];
    for rows in data.chunks_mut(LANES * cols) {
        let n = rows.len() / cols;
        let mut blk = Block::new(n);
        for c in cols_t.iter_mut() {
            *c = Lanes([0; LANES]);
        }
        for (i, row) in rows.chunks_exact(cols).enumerate() {
            for (c, v) in cols_t.iter_mut().zip(row) {
                c.0[i] = v.to_bits();
            }
        }
        for &c in cols_t.iter() {
            blk.flag(c);
        }
        lanes(&mut blk, &mut cols_t);
        if blk.poisoned() {
            for row in rows.chunks_exact_mut(cols) {
                scalar(vpu, row);
            }
        } else {
            for (i, row) in rows.chunks_exact_mut(cols).enumerate() {
                for (v, c) in row.iter_mut().zip(cols_t.iter()) {
                    *v = f32::from_bits(c.0[i]);
                }
            }
            vpu.count.merge(&blk.count);
        }
    }
}

#[inline(always)]
fn softmax_blocks(vpu: &mut Vpu, data: &mut [f32], cols: usize, division: DivisionPolicy) {
    row_blocks(
        vpu,
        data,
        cols,
        #[inline(always)]
        |blk, row| softmax_row(blk, row, division),
        |vpu, row| softmax_row(vpu, row, division),
    );
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn layernorm_blocks(
    vpu: &mut Vpu,
    data: &mut [f32],
    cols: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    division: DivisionPolicy,
) {
    let scalar =
        |vpu: &mut Vpu, row: &mut [f32]| layernorm_row(vpu, row, gamma, beta, eps, division);
    // The affine constants enter as splats the block never checks; a
    // non-finite one keeps the whole batch on the scalar kernel.
    let finite = |v: &f32| v.is_finite();
    if !(eps.is_finite() && gamma.iter().all(finite) && beta.iter().all(finite)) {
        for row in data.chunks_exact_mut(cols) {
            scalar(vpu, row);
        }
        return;
    }
    row_blocks(
        vpu,
        data,
        cols,
        #[inline(always)]
        |blk, row| layernorm_row(blk, row, gamma, beta, eps, division),
        scalar,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfp_arith::fpadd::{AddVariant, HwFp32Add};
    use bfp_arith::fpmul::{HwFp32Mul, MulVariant};
    use proptest::prelude::*;

    /// Clear one exponent bit of an infinity/NaN pattern: the lane
    /// datapath's contract covers finite operands.
    fn finite(b: u32) -> u32 {
        if b & EXP == EXP {
            b & !0x4000_0000
        } else {
            b
        }
    }

    fn with_exp(b: u32, e: u32) -> u32 {
        (b & !EXP) | ((e & 0xff) << 23)
    }

    /// An operand pair of one stress class, from raw bits.
    fn pair(a: u32, b: u32, class: u32) -> (u32, u32) {
        let (a, b) = (finite(a), finite(b));
        let ea = (a >> 23) & 0xff;
        match class % 7 {
            // Alignment shift of 46..=80: the 48-bit window edge and past it.
            0 => (
                with_exp(a, ea.max(100)),
                with_exp(b, ea.max(100) - 46 - (b >> 27) % 35),
            ),
            // Total or near-total cancellation.
            1 => (a, finite((a ^ SIGN).wrapping_add(b % 3).wrapping_sub(1))),
            // Exponent overflow of the product or sum.
            2 => (
                with_exp(a, 200 + ea % 55),
                with_exp(b, 200 + (b >> 23) % 55),
            ),
            // Exponent underflow of the product.
            3 => (with_exp(a, 1 + ea % 60), with_exp(b, 1 + (b >> 23) % 70)),
            // Zero and subnormal operands.
            4 => (a & (SIGN | FRAC), b),
            5 => (a, b & (SIGN | FRAC) & if b % 2 == 0 { SIGN } else { !0 }),
            _ => (a, b),
        }
    }

    fn lanes_of(xs: &[u32]) -> Lanes {
        Lanes(std::array::from_fn(|i| xs[i]))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn lane_mul_add_match_the_scalar_datapath(
            a in proptest::array::uniform16(any::<u32>()),
            b in proptest::array::uniform16(any::<u32>()),
            class in 0u32..7,
        ) {
            let mul = HwFp32Mul::new(MulVariant::DropLsp);
            let add = HwFp32Add::new(AddVariant::Exact48);
            let (xs, ys): (Vec<u32>, Vec<u32>) =
                (0..LANES).map(|i| pair(a[i], b[i], class + i as u32)).unzip();
            let (x, y) = (lanes_of(&xs), lanes_of(&ys));
            let mut blk = Block::new(LANES);
            let (p, s, d) = (blk.mul(x, y), blk.add(x, y), blk.sub(x, y));
            for i in 0..LANES {
                let (xf, yf) = (as_f32(xs[i]), as_f32(ys[i]));
                prop_assert_eq!(p.0[i], mul.mul(xf, yf).to_bits(), "{:#x} * {:#x}", xs[i], ys[i]);
                prop_assert_eq!(s.0[i], add.add(xf, yf).to_bits(), "{:#x} + {:#x}", xs[i], ys[i]);
                prop_assert_eq!(d.0[i], add.sub(xf, yf).to_bits(), "{:#x} - {:#x}", xs[i], ys[i]);
            }
            prop_assert_eq!(blk.count.fp_mul, LANES as u64);
            prop_assert_eq!(blk.count.fp_add, 2 * LANES as u64);
        }
    }

    #[test]
    fn lane_datapath_edge_cases_match_the_scalar_datapath() {
        let mul = HwFp32Mul::new(MulVariant::DropLsp);
        let add = HwFp32Add::new(AddVariant::Exact48);
        let vals = [
            0.0f32,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1.0,
            -1.0,
            1.5,
            1.0 + f32::EPSILON,
            3.0e-39 * 1.0e10,
            2.0f32.powi(48),
            2.0f32.powi(-48),
            1.0e30,
            -1.0e-30,
            f32::MAX,
            f32::MIN,
            12_582_912.0,
        ];
        for &x in &vals {
            for &y in &vals {
                assert_eq!(
                    mul_bits(x.to_bits(), y.to_bits()),
                    mul.mul(x, y).to_bits(),
                    "{x:e} * {y:e}"
                );
                assert_eq!(
                    add_bits(x.to_bits(), y.to_bits()),
                    add.add(x, y).to_bits(),
                    "{x:e} + {y:e}"
                );
                for k in [-300i32, -127, -1, 0, 1, 127, 300] {
                    let want = Vpu::new().scale_exp2(x, k).to_bits();
                    assert_eq!(scale_exp2_bits(x.to_bits(), k), want, "{x:e} * 2^{k}");
                }
            }
        }
    }

    /// GELU inputs hitting every lane-side path: clean values, the tanh
    /// saturation edge (|u| = 15 near |x| ≈ 5.3), products that overflow,
    /// subnormals, signed zeros, NaN and infinities, in a length that
    /// ends on a partial block.
    fn gelu_inputs() -> Vec<f32> {
        let mut xs: Vec<f32> = (0..600).map(|i| (i as f32 - 300.0) * 0.035).collect();
        for b in (5.2f32.to_bits()..5.5f32.to_bits()).step_by(4099) {
            xs.push(f32::from_bits(b));
            xs.push(-f32::from_bits(b));
        }
        xs.extend([
            0.0,
            -0.0,
            f32::from_bits(3),
            -f32::from_bits(0x0040_0000),
            1.0e19,
            -2.0e25,
        ]);
        xs.extend((0..40).map(|i| (i as f32 * 0.77).sin() * 4.0));
        xs.extend([f32::NAN, 0.5, f32::INFINITY, -1.0, f32::NEG_INFINITY]);
        xs.extend((0..37).map(|i| (i as f32 * 0.31).cos()));
        xs
    }

    fn assert_bits(got: &[f32], want: &[f32], what: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: element {i}: {g:e} vs {w:e}"
            );
        }
    }

    const DIVISIONS: [DivisionPolicy; 2] = [DivisionPolicy::Host, DivisionPolicy::OnChip];

    #[test]
    fn every_isa_variant_matches_the_scalar_gelu() {
        let xs = gelu_inputs();
        for division in DIVISIONS {
            let mut oracle = Vpu::new();
            let want: Vec<f32> = xs.iter().map(|&x| gelu(&mut oracle, x, division)).collect();
            for isa in Isa::supported() {
                for tile in [xs.len(), 64, 16, 5] {
                    let mut vpu = Vpu::new();
                    let mut got = xs.clone();
                    for chunk in got.chunks_mut(tile) {
                        gelu_slice(isa, &mut vpu, chunk, division);
                    }
                    assert_bits(
                        &got,
                        &want,
                        &format!("gelu {isa:?} {division:?} tile {tile}"),
                    );
                    assert_eq!(
                        vpu.count, oracle.count,
                        "gelu {isa:?} {division:?} tile {tile}"
                    );
                }
            }
        }
    }

    /// Softmax rows: temperatures wide enough that `exp` clamps at −87,
    /// constant rows, and one block holding a NaN and an infinity.
    fn softmax_inputs(cols: usize, rows: usize) -> Vec<f32> {
        let mut v: Vec<f32> = (0..rows * cols)
            .map(|k| {
                let (r, j) = (k / cols, k % cols);
                let scale = [0.5f32, 6.0, 150.0, 0.0][r % 4];
                (j as f32 * 0.61 + r as f32).sin() * scale
            })
            .collect();
        if rows > 20 {
            v[18 * cols] = f32::NAN;
            v[19 * cols + cols / 2] = f32::INFINITY;
        }
        v
    }

    #[test]
    fn every_isa_variant_matches_the_scalar_softmax() {
        for (cols, rows) in [(1, 3), (3, 17), (17, 5), (197, 37), (64, 16)] {
            let data = softmax_inputs(cols, rows);
            for division in DIVISIONS {
                let mut oracle = Vpu::new();
                let mut want = data.clone();
                for row in want.chunks_exact_mut(cols) {
                    softmax_row(&mut oracle, row, division);
                }
                for isa in Isa::supported() {
                    let mut vpu = Vpu::new();
                    let mut got = data.clone();
                    softmax_rows(isa, &mut vpu, &mut got, cols, division);
                    let what = format!("softmax {isa:?} {division:?} {rows}x{cols}");
                    assert_bits(&got, &want, &what);
                    assert_eq!(vpu.count, oracle.count, "{what}");
                }
            }
        }
    }

    #[test]
    fn every_isa_variant_matches_the_scalar_layernorm() {
        for (cols, rows, eps) in [(1, 3, 1e-6f32), (8, 21, 1e-6), (384, 19, 1e-5), (8, 5, 0.0)] {
            let clean: Vec<f32> = (0..rows * cols)
                .map(|k| {
                    let (r, j) = (k / cols, k % cols);
                    let scale = [1.0f32, 40.0, 0.0, 1.0e19][r % 4];
                    (j as f32 * 0.37 + r as f32).sin() * scale + 0.5
                })
                .collect();
            let mut gamma: Vec<f32> = (0..cols).map(|j| 1.0 + j as f32 * 0.01).collect();
            let beta: Vec<f32> = (0..cols).map(|j| (j as f32 * 0.3).cos() * 0.1).collect();
            if eps == 0.0 {
                // A non-finite affine constant keeps the batch scalar.
                gamma[cols / 2] = f32::INFINITY;
            }
            for division in DIVISIONS {
                // The on-chip rsqrt panics on a NaN variance by contract.
                let mut data = clean.clone();
                if division == DivisionPolicy::Host && rows > 17 {
                    data[17 * cols] = f32::NAN;
                }
                let mut oracle = Vpu::new();
                let mut want = data.clone();
                for row in want.chunks_exact_mut(cols) {
                    layernorm_row(&mut oracle, row, &gamma, &beta, eps, division);
                }
                for isa in Isa::supported() {
                    let mut vpu = Vpu::new();
                    let mut got = data.clone();
                    layernorm_rows(isa, &mut vpu, &mut got, cols, &gamma, &beta, eps, division);
                    let what = format!("layernorm {isa:?} {division:?} {rows}x{cols} eps {eps}");
                    assert_bits(&got, &want, &what);
                    assert_eq!(vpu.count, oracle.count, "{what}");
                }
            }
        }
    }

    #[test]
    fn clean_blocks_stay_on_lanes_and_early_outs_bill_only_live_lanes() {
        // Half the lanes saturate tanh: they skip exp, the host division
        // and the subtract, and the block stays unpoisoned.
        let xs: Vec<f32> = (0..LANES)
            .map(|i| if i % 2 == 0 { 9.0 } else { 0.25 * i as f32 })
            .collect();
        let mut blk = Block::new(LANES);
        let x = blk.load(&xs);
        let _ = gelu(&mut blk, x, DivisionPolicy::Host);
        assert!(!blk.poisoned());
        let mut oracle = Vpu::new();
        for &v in &xs {
            let _ = gelu(&mut oracle, v, DivisionPolicy::Host);
        }
        assert_eq!(blk.count, oracle.count);
        assert_eq!(blk.count.host_div, LANES as u64 / 2);
        // A lane that overflows poisons the block.
        let mut blk = Block::new(LANES);
        let x = blk.load(&[1.0e30; LANES]);
        let _ = gelu(&mut blk, x, DivisionPolicy::Host);
        assert!(blk.poisoned());
        // Dead lanes never poison.
        let mut blk = Block::new(3);
        let x = blk.load(&[0.5, 0.5, 0.5, f32::NAN]);
        let _ = gelu(&mut blk, x, DivisionPolicy::Host);
        assert!(!blk.poisoned());
    }

    #[test]
    fn best_isa_is_supported() {
        assert!(Isa::best().available());
        assert!(Isa::supported().contains(&Isa::Portable));
        assert_eq!(Isa::supported()[0], Isa::best());
    }
}
