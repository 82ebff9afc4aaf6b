//! `bench` — the repo's perf-trajectory data point generator.
//!
//! Times the three bfp8 GEMM execution paths (naive reference kernel,
//! packed serial kernel, block-row-parallel kernel) at DeiT layer shapes,
//! plus cached vs uncached mixed-precision inference, and emits the
//! results as `BENCH_GEMM.json` so successive PRs have comparable
//! numbers. A `host` block records the core count, the SIMD level and
//! the `b = 8` chain-kernel variant the packed GEMM dispatched to.
//!
//! ```sh
//! cargo run --release -p bfp-bench --bin bench            # full run
//! cargo run --release -p bfp-bench --bin bench -- --quick # CI smoke
//! cargo run --release -p bfp-bench --bin bench -- --out /tmp/b.json
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use bfp_arith::kernel8::ChainIsa;
use bfp_arith::packed::PackedBfp;
use bfp_arith::quant::Quantizer;
use bfp_bench::{simd_level, smooth_matrix};
use bfp_core::{packed_matmul, ParallelPolicy, Table};
use bfp_transformer::{DeitConfig, DeitModel, Image, MixedEngine, VitConfig};

/// GEMM shapes benchmarked: the DeiT-Small projection shape is the
/// acceptance anchor; fc1 stresses the N dimension, scores the skinny-K
/// attention shape.
const SHAPES: [(&str, usize, usize, usize); 3] = [
    ("deit_small_proj_197x384x384", 197, 384, 384),
    ("deit_small_fc1_197x384x1536", 197, 384, 1536),
    ("attn_scores_197x64x197", 197, 64, 197),
];

/// Thread counts every parallel GEMM is actually measured at (satisfying
/// the sweep the JSON records; on a host with fewer cores the extra rows
/// are honest oversubscription numbers, not copies of the 1-thread row).
const THREAD_SWEEP: [usize; 3] = [1, 2, 4];

struct GemmRow {
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
    naive_ms: f64,
    packed_ms: f64,
    /// `(threads, best-of-reps ms)` for each entry of [`THREAD_SWEEP`].
    parallel_sweep: Vec<(usize, f64)>,
    parallel_ms: f64,
    quantize_pack_ms: f64,
    quantize_pack_fused_ms: f64,
    speedup_packed: f64,
    speedup_parallel: f64,
    packed_gops: f64,
}

/// Sampling window per measurement: a sub-millisecond kernel gets as
/// many repetitions as fit, so one descheduling does not decide its
/// best-of time.
const MIN_SAMPLE_MS: f64 = 25.0;

/// Best wall time in milliseconds over at least `reps` runs and at least
/// [`MIN_SAMPLE_MS`] of sampling.
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    let mut runs = 0;
    while runs < reps.max(1) || total < MIN_SAMPLE_MS {
        let t0 = Instant::now();
        let out = f();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        best = best.min(ms);
        total += ms;
        runs += 1;
        std::hint::black_box(out);
    }
    best
}

fn bench_gemms(reps: usize) -> Vec<GemmRow> {
    let q = Quantizer::paper();
    SHAPES
        .iter()
        .map(|&(name, m, k, n)| {
            let a = smooth_matrix(m, k, 1);
            let b = smooth_matrix(k, n, 2);
            let (qa, qb) = (q.quantize(&a).unwrap(), q.quantize(&b).unwrap());
            let (pa, pb) = (PackedBfp::pack_lhs(&qa), PackedBfp::pack_rhs(&qb));

            let naive_ms = time_ms(reps, || qa.try_matmul(&qb).unwrap());
            let packed_ms = time_ms(reps, || pa.matmul(&pb).unwrap());
            // Satellite of the parallel path: every sweep entry forces the
            // sharded kernel through `Threads(t)`, so the multi-thread
            // rows genuinely exercise the fork/join machinery.
            let parallel_sweep: Vec<(usize, f64)> = THREAD_SWEEP
                .iter()
                .map(|&t| {
                    let ms = time_ms(reps, || {
                        packed_matmul(&pa, &pb, ParallelPolicy::Threads(t)).unwrap()
                    });
                    (t, ms)
                })
                .collect();
            let parallel_ms = parallel_sweep
                .iter()
                .map(|&(_, ms)| ms)
                .fold(f64::INFINITY, f64::min);
            let quantize_pack_ms = time_ms(reps, || {
                (
                    PackedBfp::quantize_lhs(&q, &a).unwrap(),
                    PackedBfp::quantize_rhs(&q, &b).unwrap(),
                )
            });
            let quantize_pack_fused_ms = time_ms(reps, || {
                (
                    PackedBfp::quantize_pack_lhs(&q, &a).unwrap(),
                    PackedBfp::quantize_pack_rhs(&q, &b).unwrap(),
                )
            });
            // Sanity: every path must agree bit-for-bit before any number
            // is reported.
            let want = qa.try_matmul(&qb).unwrap();
            let mut checks = vec![pa.matmul(&pb).unwrap()];
            for &t in &THREAD_SWEEP {
                checks.push(packed_matmul(&pa, &pb, ParallelPolicy::Threads(t)).unwrap());
            }
            checks.push(
                PackedBfp::quantize_pack_lhs(&q, &a)
                    .unwrap()
                    .matmul(&PackedBfp::quantize_pack_rhs(&q, &b).unwrap())
                    .unwrap(),
            );
            for got in checks {
                assert!(
                    got.data()
                        .iter()
                        .zip(want.data())
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{name}: fast path diverged from the reference kernel"
                );
            }

            let gop = 2.0 * (m * k * n) as f64 / 1e9;
            GemmRow {
                name,
                m,
                k,
                n,
                naive_ms,
                packed_ms,
                parallel_sweep,
                parallel_ms,
                quantize_pack_ms,
                quantize_pack_fused_ms,
                speedup_packed: naive_ms / packed_ms,
                speedup_parallel: naive_ms / parallel_ms,
                packed_gops: gop / (packed_ms.min(parallel_ms) / 1e3),
            }
        })
        .collect()
}

/// Gate each shape's thread sweep monotone-within-noise: granting more
/// threads must never slow the kernel below `tol` × the best smaller
/// budget (the PR-8 regression was exactly this — a 2-thread row slower
/// than 1-thread on a core-starved host until `effective_threads`
/// learned to clamp).
fn assert_sweep_monotone(rows: &[GemmRow], tol: f64) {
    for r in rows {
        let mut best = f64::INFINITY;
        for &(t, ms) in &r.parallel_sweep {
            assert!(
                ms * tol <= best,
                "{}: {t}-thread kernel at {ms:.3} ms regressed vs best {best:.3} ms (tolerance {tol})",
                r.name
            );
            best = best.min(ms);
        }
    }
}

struct InferRow {
    images: usize,
    uncached_ips: f64,
    cached_ips: f64,
    speedup: f64,
    cache_hits: u64,
    cache_misses: u64,
}

fn bench_inference(images: usize) -> InferRow {
    let cfg = DeitConfig {
        vit: VitConfig {
            dim: 128,
            depth: 4,
            heads: 4,
            mlp_ratio: 4,
            seq: 17,
        },
        patch: 16,
        channels: 3,
        img: 64,
        classes: 10,
    };
    cfg.validate().unwrap();
    let model = DeitModel::new_random(cfg, 3);
    let imgs: Vec<Image> = (0..images)
        .map(|s| Image::synthetic(3, cfg.img, cfg.img, s as u64))
        .collect();

    let run = |engine: &mut MixedEngine| {
        let t0 = Instant::now();
        for img in &imgs {
            std::hint::black_box(model.predict(engine, img));
        }
        imgs.len() as f64 / t0.elapsed().as_secs_f64()
    };

    let mut uncached = MixedEngine::without_weight_cache();
    let uncached_ips = run(&mut uncached);
    let mut cached = MixedEngine::new();
    // Warm the plan cache with one image, then measure steady state —
    // that is what a serving deployment sees from the second image on.
    std::hint::black_box(model.predict(&mut cached, &imgs[0]));
    let cached_ips = run(&mut cached);
    let stats = cached.plan_cache_stats();
    InferRow {
        images,
        uncached_ips,
        cached_ips,
        speedup: cached_ips / uncached_ips,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
    }
}

fn to_json(rows: &[GemmRow], infer: &InferRow, threads: usize, quick: bool) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"bench_gemm/v3\",");
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"threads\": {threads},");
    let _ = writeln!(
        s,
        "  \"host\": {{ \"nproc\": {threads}, \"simd\": \"{}\", \"gemm_chain\": \"{}\" }},",
        simd_level(),
        ChainIsa::best().name()
    );
    s.push_str("  \"gemm\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(s, "      \"m\": {}, \"k\": {}, \"n\": {},", r.m, r.k, r.n);
        let _ = writeln!(s, "      \"naive_ms\": {:.4},", r.naive_ms);
        let _ = writeln!(s, "      \"packed_ms\": {:.4},", r.packed_ms);
        s.push_str("      \"parallel\": [\n");
        for (j, &(t, ms)) in r.parallel_sweep.iter().enumerate() {
            let _ = write!(
                s,
                "        {{ \"threads\": {t}, \"ms\": {ms:.4} }}{}",
                if j + 1 < r.parallel_sweep.len() {
                    ",\n"
                } else {
                    "\n"
                }
            );
        }
        s.push_str("      ],\n");
        let _ = writeln!(s, "      \"parallel_ms\": {:.4},", r.parallel_ms);
        let _ = writeln!(s, "      \"quantize_pack_ms\": {:.4},", r.quantize_pack_ms);
        let _ = writeln!(
            s,
            "      \"quantize_pack_fused_ms\": {:.4},",
            r.quantize_pack_fused_ms
        );
        let _ = writeln!(s, "      \"speedup_packed\": {:.2},", r.speedup_packed);
        let _ = writeln!(s, "      \"speedup_parallel\": {:.2},", r.speedup_parallel);
        let _ = writeln!(s, "      \"packed_gflop_equiv_per_s\": {:.2}", r.packed_gops);
        let _ = write!(s, "    }}{}", if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"inference\": {\n");
    let _ = writeln!(s, "    \"images\": {},", infer.images);
    let _ = writeln!(s, "    \"uncached_images_per_s\": {:.3},", infer.uncached_ips);
    let _ = writeln!(s, "    \"cached_images_per_s\": {:.3},", infer.cached_ips);
    let _ = writeln!(s, "    \"weight_cache_speedup\": {:.2},", infer.speedup);
    let _ = writeln!(s, "    \"cache_hits\": {},", infer.cache_hits);
    let _ = writeln!(s, "    \"cache_misses\": {}", infer.cache_misses);
    s.push_str("  }\n}\n");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_GEMM.json".to_string());

    let reps = if quick { 2 } else { 5 };
    let images = if quick { 3 } else { 8 };
    let threads = ParallelPolicy::Auto.threads();

    println!(
        "bfp8 GEMM execution paths (best of >= {} reps and {MIN_SAMPLE_MS} ms; {} host threads, {}, {} chain kernel; sweep {:?})\n",
        reps,
        threads,
        simd_level(),
        ChainIsa::best().name(),
        THREAD_SWEEP
    );
    let rows = bench_gemms(reps);
    // Quick mode shares loaded CI runners; the full run publishes from a
    // quieter host and holds the tighter bar.
    assert_sweep_monotone(&rows, if quick { 0.65 } else { 0.80 });
    let mut t = Table::new(
        "GEMM kernel wall-clock (pre-quantized operands)",
        &[
            "shape",
            "naive ms",
            "packed ms",
            "parallel ms",
            "speedup",
            "GFLOP-eq/s",
        ],
    );
    for r in &rows {
        t.row(&[
            r.name.to_string(),
            format!("{:.2}", r.naive_ms),
            format!("{:.2}", r.packed_ms),
            format!("{:.2}", r.parallel_ms),
            format!("{:.1}x", r.speedup_packed.max(r.speedup_parallel)),
            format!("{:.2}", r.packed_gops),
        ]);
    }
    print!("{}", t.render());

    println!("\nmixed-precision inference, weight-plan cache on vs off...");
    let infer = bench_inference(images);
    println!(
        "  uncached: {:.2} images/s   cached: {:.2} images/s   speedup {:.2}x (hits {}, misses {})",
        infer.uncached_ips, infer.cached_ips, infer.speedup, infer.cache_hits, infer.cache_misses
    );

    let json = to_json(&rows, &infer, threads, quick);
    std::fs::write(&out_path, &json).expect("write BENCH_GEMM.json");
    println!("\nwrote {out_path}");

    let anchor = &rows[0];
    let best = anchor.speedup_packed.max(anchor.speedup_parallel);
    println!(
        "acceptance anchor {}: {:.1}x over the naive kernel",
        anchor.name, best
    );
}
