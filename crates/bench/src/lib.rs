//! Shared workload generators for the reproduction binaries and benches:
//! deterministic (seedable, dependency-free) matrix and stream generators
//! so every table regenerates identically across runs and machines.

use bfp_arith::matrix::MatF32;

/// A tiny deterministic LCG (numerical-recipes constants), good enough for
/// workload shaping and fully reproducible.
#[derive(Debug, Clone)]
pub struct Lcg {
    state: u32,
}

impl Lcg {
    /// Seeded generator.
    pub fn new(seed: u32) -> Self {
        Lcg { state: seed.max(1) }
    }

    /// Next raw 32 bits.
    pub fn next_u32(&mut self) -> u32 {
        self.state = self.state.wrapping_mul(1664525).wrapping_add(1013904223);
        self.state
    }

    /// Uniform in `[-1, 1)`.
    pub fn next_unit(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 / (1 << 24) as f32 * 2.0 - 1.0
    }

    /// A normal-range f32 with the given binade spread (for datapath
    /// fidelity sweeps).
    pub fn next_normal_range(&mut self, binades: u32) -> f32 {
        let u = self.next_u32();
        let e = 0x3f00_0000u32.wrapping_add((u % binades.max(1)) << 23);
        let v = f32::from_bits(e | ((u >> 9) & 0x7f_ffff));
        if u & 1 == 0 {
            v
        } else {
            -v
        }
    }
}

/// Widest x86 SIMD level the CPU reports at run time (`avx512` meaning
/// AVX-512 F), recorded with benchmark results.
pub fn simd_level() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return "avx512";
        }
        if is_x86_feature_detected!("avx2") {
            return "avx2";
        }
        "sse2"
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "none"
    }
}

/// A smooth activation-like matrix (bounded, no outliers).
pub fn smooth_matrix(rows: usize, cols: usize, seed: u32) -> MatF32 {
    let s = seed as f32;
    MatF32::from_fn(rows, cols, |i, j| {
        ((i as f32 * 0.31 + j as f32 * 0.17 + s * 0.01).sin()) * 1.5
    })
}

/// A Transformer-activation-like matrix: smooth base with hot outlier
/// channels every `hot_every` columns, `hot_scale`× larger.
pub fn outlier_matrix(rows: usize, cols: usize, hot_every: usize, hot_scale: f32) -> MatF32 {
    MatF32::from_fn(rows, cols, |i, j| {
        let base = ((i as f32 * 0.29 + j as f32 * 0.13).sin()) * 0.5;
        if hot_every > 0 && j % hot_every == hot_every / 2 {
            base * hot_scale
        } else {
            base
        }
    })
}

/// Pairs of operands covering `binades` binades for fp32 datapath sweeps.
pub fn operand_pairs(n: usize, binades: u32, seed: u32) -> Vec<(f32, f32)> {
    let mut rng = Lcg::new(seed);
    (0..n)
        .map(|_| {
            (
                rng.next_normal_range(binades),
                rng.next_normal_range(binades),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_is_deterministic() {
        let a: Vec<u32> = {
            let mut r = Lcg::new(42);
            (0..8).map(|_| r.next_u32()).collect()
        };
        let b: Vec<u32> = {
            let mut r = Lcg::new(42);
            (0..8).map(|_| r.next_u32()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u32> = {
            let mut r = Lcg::new(43);
            (0..8).map(|_| r.next_u32()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn unit_values_are_in_range() {
        let mut r = Lcg::new(7);
        for _ in 0..1000 {
            let v = r.next_unit();
            assert!((-1.0..1.0).contains(&v));
        }
    }

    #[test]
    fn normal_range_values_are_finite_nonzero() {
        let mut r = Lcg::new(9);
        for _ in 0..1000 {
            let v = r.next_normal_range(8);
            assert!(v.is_finite() && v != 0.0);
        }
    }

    #[test]
    fn outlier_matrix_has_hot_channels() {
        let m = outlier_matrix(16, 96, 32, 50.0);
        // Column 16 is hot, column 0 is not.
        let hot: f32 = (0..16).map(|i| m.get(i, 16).abs()).fold(0.0, f32::max);
        let cold: f32 = (0..16).map(|i| m.get(i, 0).abs()).fold(0.0, f32::max);
        assert!(hot > 10.0 * cold, "hot {hot} vs cold {cold}");
    }

    #[test]
    fn operand_pairs_deterministic_and_sized() {
        let a = operand_pairs(64, 6, 1);
        let b = operand_pairs(64, 6, 1);
        assert_eq!(a.len(), 64);
        assert_eq!(a, b);
    }
}
