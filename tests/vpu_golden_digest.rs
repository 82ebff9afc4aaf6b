//! Golden digests of the exact VPU kernels.
//!
//! Every exact-mode kernel (`NonlinearMode::Exact`) is a bit-level model
//! of the paper's fp32 vector programs, and the e2e bit-identity gate only
//! checks it at model level. This suite pins each kernel's output bits
//! and `OpCount`s over a fixed sweep — strided bit patterns across every
//! exponent in both signs, subnormals, ±0, the clamp and saturation edges
//! (exp at 88 / −87, tanh at |u| = 15), non-finite inputs, and DeiT-like
//! rows of width 197 and 384 — as one FNV-1a digest per (kernel, sweep)
//! pair. The digests were captured from the per-element scalar kernels
//! before the lane-parallel batch kernels existed; both the scalar
//! kernels and the batched entry points must reproduce them.

use bfp_transformer::engine::DivisionPolicy;
use bfp_transformer::{NonlinearMode, OpCount, Vpu};

/// FNV-1a over output bit patterns, then the op counts.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn values(mut self, out: &[f32], c: &OpCount) -> u64 {
        for v in out {
            self.word(v.to_bits() as u64);
        }
        for w in [
            c.fp_mul,
            c.fp_add,
            c.exp_adjust,
            c.cmp,
            c.lut,
            c.host_div,
            c.host_sqrt,
        ] {
            self.word(w);
        }
        self.0
    }
}

fn digest(out: &[f32], c: &OpCount) -> u64 {
    Digest::new().values(out, c)
}

/// Strided bit patterns: ~64K values, at least 128 per exponent, both
/// signs, including the infinity/NaN exponent.
fn strided() -> Vec<f32> {
    let mut xs = Vec::new();
    for sign in [0u32, 0x8000_0000] {
        let mut b = 0u32;
        while b < 0x8000_0000 {
            xs.push(f32::from_bits(sign | b));
            b += 65_537;
        }
    }
    xs
}

/// Subnormals, zeros, non-finite values and every clamp/saturation edge
/// the exact kernels branch on, with their neighbours.
fn edges() -> Vec<f32> {
    let mut xs = vec![
        0.0,
        -0.0,
        f32::from_bits(1),
        f32::from_bits(0x8000_0001),
        f32::from_bits(0x007f_ffff),
        f32::from_bits(0x807f_ffff),
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        1.0e9,
        -1.0e9,
        1.0e20,
        -1.0e20,
        1.0e-20,
        -1.0e-20,
    ];
    // exp clamps at 88 / -87 and tanh saturation at |u| = 15, each
    // with 8 neighbouring bit patterns on both sides.
    for c in [88.0f32, -87.0, 15.0, -15.0, 44.0, -43.5, 7.5, -7.5] {
        let b = c.to_bits();
        for d in 0..=8u32 {
            xs.push(f32::from_bits(b + d));
            xs.push(f32::from_bits(b - d));
        }
    }
    // GELU reaches the tanh saturation edge near |x| ≈ 5.3: a dense
    // bit-pattern walk across it in both signs.
    let (lo, hi) = (5.0f32.to_bits(), 5.6f32.to_bits());
    let mut b = lo;
    while b < hi {
        xs.push(f32::from_bits(b));
        xs.push(-f32::from_bits(b));
        b += 997;
    }
    xs
}

/// Deterministic LCG in [-1, 1).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> f32 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
    }
}

/// DeiT-like rows: attention scores at several temperatures (softmax)
/// and residual-stream activations with outliers (LayerNorm). `rows`
/// is not a multiple of 16, so row blocks end ragged.
fn deit_rows(cols: usize, rows: usize, seed: u64) -> Vec<f32> {
    let mut g = Lcg(seed);
    let mut v = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        let scale = [0.5f32, 2.0, 8.0, 40.0][r % 4];
        for j in 0..cols {
            let mut x = g.next() * scale;
            if j % 61 == 7 {
                x *= 9.0; // outlier channels
            }
            v.push(x);
        }
    }
    v
}

/// Rows that drive the kernels off the finite datapath: a `special`
/// element (non-finite, or `f32::MAX`), overflowing squares, all-equal
/// and subnormal rows.
fn wild_rows(cols: usize, special: f32) -> Vec<f32> {
    let mut v = Vec::new();
    for r in 0..5 {
        for j in 0..cols {
            v.push(match r {
                0 => 1.0e19 * if j % 2 == 0 { 1.0 } else { -3.0 },
                1 => 0.25,
                2 => -(j as f32) * 1.0e-3,
                3 if j == cols / 2 => special,
                3 => j as f32,
                _ => f32::from_bits(1 + j as u32), // subnormal row
            });
        }
    }
    v
}

fn gamma_beta(cols: usize) -> (Vec<f32>, Vec<f32>) {
    let mut g = Lcg(0x5eed);
    let gamma = (0..cols).map(|_| 1.0 + 0.2 * g.next()).collect();
    let beta = (0..cols).map(|_| 0.1 * g.next()).collect();
    (gamma, beta)
}

type Scalar = fn(&mut Vpu, f32) -> f32;

fn scalar_digest(xs: &[f32], f: Scalar) -> u64 {
    let mut vpu = Vpu::new();
    let out: Vec<f32> = xs.iter().map(|&x| f(&mut vpu, x)).collect();
    digest(&out, &vpu.count)
}

fn gelu_batched_digest(xs: &[f32], division: DivisionPolicy) -> u64 {
    let mut vpu = Vpu::new();
    let mut out = xs.to_vec();
    vpu.gelu_slice(&mut out, division, NonlinearMode::Exact);
    digest(&out, &vpu.count)
}

fn softmax_digest(data: &[f32], cols: usize, division: DivisionPolicy, batched: bool) -> u64 {
    let mut vpu = Vpu::new();
    let mut out = data.to_vec();
    if batched {
        vpu.softmax_rows_batch(&mut out, cols, division, NonlinearMode::Exact);
    } else {
        for row in out.chunks_exact_mut(cols) {
            match division {
                DivisionPolicy::Host => vpu.softmax_row(row),
                DivisionPolicy::OnChip => vpu.softmax_row_onchip(row),
            }
        }
    }
    digest(&out, &vpu.count)
}

fn layernorm_digest(data: &[f32], cols: usize, division: DivisionPolicy, batched: bool) -> u64 {
    let (gamma, beta) = gamma_beta(cols);
    let eps = 1.0e-6;
    let mut vpu = Vpu::new();
    let mut out = data.to_vec();
    if batched {
        vpu.layernorm_rows_batch(
            &mut out,
            cols,
            &gamma,
            &beta,
            eps,
            division,
            NonlinearMode::Exact,
        );
    } else {
        for row in out.chunks_exact_mut(cols) {
            match division {
                DivisionPolicy::Host => vpu.layernorm_row(row, &gamma, &beta, eps),
                DivisionPolicy::OnChip => vpu.layernorm_row_onchip(row, &gamma, &beta, eps),
            }
        }
    }
    digest(&out, &vpu.count)
}

/// Pinned digests, captured from the per-element scalar kernels.
const GOLDEN: &[(&str, u64)] = &[
    ("gelu/strided", 0xf7a5d94f7a98f4b7),
    ("gelu/edges", 0x52124ed221c1c526),
    ("gelu_onchip/strided", 0x39b7f9a46be14595),
    ("gelu_onchip/edges", 0x7a0a940acefc3a69),
    ("exp/strided", 0x3546d10b584733ab),
    ("exp/edges", 0x77729e8c2cc9eaa5),
    ("tanh/strided", 0x7a80d30b192ba7fa),
    ("tanh/edges", 0x1ef7e60fd03cc672),
    ("softmax_row/deit197", 0xa092f988a13f599f),
    ("softmax_row/deit384", 0xd6254a3cef6918d3),
    ("softmax_row/wild17", 0x3fb07cf3055744ff),
    ("softmax_row_onchip/deit197", 0x1e3162e2587d838d),
    ("softmax_row_onchip/deit384", 0x967954f8306aaeee),
    ("softmax_row_onchip/wild17", 0xc1b1ab9d575992d9),
    ("layernorm_row/deit197", 0xa88d58749505a4aa),
    ("layernorm_row/deit384", 0xc0b094fc79e787b5),
    ("layernorm_row/wild17", 0xf6992f5d231de382),
    ("layernorm_row_onchip/deit197", 0x5c4f748722d546cc),
    ("layernorm_row_onchip/deit384", 0xceffa99fb3c4c1b8),
    ("layernorm_row_onchip/wild17", 0xcada4cb38b2999ec),
];

/// Every (name, scalar digest, batched digest) the suite checks;
/// `None` where the kernel has no batched entry point.
fn measure() -> Vec<(String, u64, Option<u64>)> {
    let sweeps = [("strided", strided()), ("edges", edges())];
    let mut got = Vec::new();
    for (name, xs) in &sweeps {
        got.push((
            format!("gelu/{name}"),
            scalar_digest(xs, Vpu::gelu),
            Some(gelu_batched_digest(xs, DivisionPolicy::Host)),
        ));
        got.push((
            format!("gelu_onchip/{name}"),
            scalar_digest(xs, Vpu::gelu_onchip),
            Some(gelu_batched_digest(xs, DivisionPolicy::OnChip)),
        ));
    }
    for (name, xs) in &sweeps {
        got.push((format!("exp/{name}"), scalar_digest(xs, Vpu::exp), None));
        got.push((format!("tanh/{name}"), scalar_digest(xs, Vpu::tanh), None));
    }
    let rows = [
        (
            "deit197",
            197,
            deit_rows(197, 37, 11),
            deit_rows(197, 37, 12),
        ),
        (
            "deit384",
            384,
            deit_rows(384, 21, 13),
            deit_rows(384, 21, 14),
        ),
        (
            "wild17",
            17,
            wild_rows(17, f32::NAN),
            wild_rows(17, f32::INFINITY),
        ),
    ];
    for (division, sm, ln) in [
        (DivisionPolicy::Host, "softmax_row", "layernorm_row"),
        (
            DivisionPolicy::OnChip,
            "softmax_row_onchip",
            "layernorm_row_onchip",
        ),
    ] {
        for (name, cols, scores, acts) in &rows {
            got.push((
                format!("{sm}/{name}"),
                softmax_digest(scores, *cols, division, false),
                Some(softmax_digest(scores, *cols, division, true)),
            ));
            // The on-chip rsqrt rejects NaN variances by contract, so its
            // wild rows stay finite.
            let finite;
            let acts = if *name == "wild17" && division == DivisionPolicy::OnChip {
                finite = wild_rows(17, f32::MAX);
                &finite
            } else {
                acts
            };
            got.push((
                format!("{ln}/{name}"),
                layernorm_digest(acts, *cols, division, false),
                Some(layernorm_digest(acts, *cols, division, true)),
            ));
        }
    }
    got
}

#[test]
fn exact_kernels_reproduce_their_golden_digests() {
    let got = measure();
    let mut bad = Vec::new();
    for (name, scalar, batched) in &got {
        let want = GOLDEN
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, d)| d)
            .unwrap_or_else(|| panic!("no golden digest for {name}"));
        if *scalar != want {
            bad.push(format!(
                "{name}: scalar {scalar:#018x} != golden {want:#018x}"
            ));
        }
        if let Some(b) = batched {
            if *b != want {
                bad.push(format!("{name}: batched {b:#018x} != golden {want:#018x}"));
            }
        }
    }
    assert_eq!(got.len(), GOLDEN.len(), "every golden digest is checked");
    if !bad.is_empty() {
        let table: Vec<String> = got
            .iter()
            .map(|(n, s, _)| format!("    (\"{n}\", {s:#018x}),"))
            .collect();
        panic!(
            "{} digest mismatches:\n{}\nscalar digests:\n{}",
            bad.len(),
            bad.join("\n"),
            table.join("\n")
        );
    }
}
