//! `deit_s_exact` and `deit_s_fastnl`: closed-loop DeiT-S inference.
//!
//! One caller sends 224² images one at a time through
//! `DeitModel::forward` on a `MixedEngine` carrying the compiled fusion
//! plan, with engine threads = the host's available parallelism. The two
//! workloads differ only in the engine's `NonlinearMode`.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

use bfp_arith::matrix::MatF32;
use bfp_arith::ulp::{EnvelopeStats, UlpEnvelope};
use bfp_core::prelude::System;
use bfp_core::{
    attribute_plan_drift, canonical_node_key, lower_vit, plan_fusion, FusePlan, LatencyModel,
};
use bfp_transformer::{
    analytical_census_mode, Block, CompiledVitPlan, DeitConfig, DeitModel, Engine, Image,
    MixedEngine, NodeTime, NonlinearMode,
};

use crate::host;
use crate::report::{Check, Metric, Outcome};
use crate::spans::{self_time_ns, SpanId, SpanRecorder};
use crate::stats::{median, sqnr_db, SplitMix64};

/// The modelled accelerator clock (U280 kernel clock, Table IV).
const CLOCK_HZ: f64 = 300e6;
/// Times the set-up is repeated in a timed run; `setup_s` is the median.
const SETUPS: usize = 3;
/// Fewest timed images a run makes, however short `--seconds` is.
const MIN_IMAGES: usize = 3;
/// On a shared host the hypervisor can take a vCPU away for minutes; the
/// engine forks and joins threads per GEMM, so an image then takes up to
/// twice as long (measured: 700 → 1500 ms per `deit_s_fastnl` image).
/// Such an image measures the neighbours, not the program: images during
/// which more than [`host::STEAL_LIMIT`] of the host's CPU time was stolen
/// are left out of the timed metrics, as long as this many remain.
const MIN_QUIET: usize = 5;
/// Timed images re-run through a plan-less engine in the same
/// `NonlinearMode` and required bit-identical: the repository's contract
/// that the fused plan and the composed route agree bit for bit.
const BIT_CHECK_IMAGES: usize = 1;
/// Timed images of `deit_s_fastnl` re-run in `Exact` mode for the logit
/// envelope and SQNR.
const ENVELOPE_IMAGES: usize = 3;

fn other(mode: NonlinearMode) -> NonlinearMode {
    match mode {
        NonlinearMode::Exact => NonlinearMode::Fast,
        NonlinearMode::Fast => NonlinearMode::Exact,
    }
}

/// Image `i` of the run drawn from `seed` (distinct for every `i`, so
/// no activation ever repeats and hits the engine's plan cache).
fn image(cfg: &DeitConfig, seed: u64, i: u64) -> Image {
    let mut mix = SplitMix64::new(seed ^ i.wrapping_mul(0xA24B_AED4_963E_E407));
    Image::synthetic(cfg.channels, cfg.img, cfg.img, mix.next_u64())
}

/// The warm-up image of set-up `k` (never one of the timed images).
fn warmup_image(cfg: &DeitConfig, seed: u64, k: u64) -> Image {
    image(cfg, seed, u64::MAX - k)
}

/// The built system: model, compiled plan and a warm engine.
struct Deployed {
    model: DeitModel,
    fuse_plan: FusePlan,
    compiled: CompiledVitPlan,
    engine: MixedEngine,
    plan_s: f64,
    setup_s: f64,
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Build the model from `seed`, compile the fusion plan, and run the
/// first forward (which fills the weight-plan cache).
fn deploy(cfg: DeitConfig, seed: u64, mode: NonlinearMode, k: u64) -> Deployed {
    let warm = warmup_image(&cfg, seed, k);
    let t0 = Instant::now();
    let model = DeitModel::new_random(cfg, seed);
    let tp = Instant::now();
    let graph = lower_vit(&cfg.vit);
    let sys = System::paper();
    let fuse_plan = plan_fusion(&graph, &sys);
    let compiled = fuse_plan.compiled_vit_plan(&graph, &sys);
    let plan_s = tp.elapsed().as_secs_f64();
    let mut engine = MixedEngine::new()
        .with_nonlinear(mode)
        .with_threads(threads())
        .with_vit_plan(compiled);
    black_box(model.forward(&mut engine, black_box(&warm)));
    let setup_s = t0.elapsed().as_secs_f64();
    Deployed {
        model,
        fuse_plan,
        compiled,
        engine,
        plan_s,
        setup_s,
    }
}

/// Set up `n` times (dropping each system before the next, so peak
/// memory is one system's), keeping the last; returns it with every
/// set-up time.
fn deploy_repeatedly(
    cfg: DeitConfig,
    seed: u64,
    mode: NonlinearMode,
    n: usize,
) -> (Deployed, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for k in 0..n {
        drop(last.take());
        let d = deploy(cfg, seed, mode, k as u64);
        times.push(d.setup_s);
        last = Some(d);
    }
    (last.expect("at least one set-up"), times)
}

/// One timed forward: its wall time, and the share of the host's CPU
/// time the hypervisor stole while it ran.
#[derive(Debug, Clone, Copy)]
struct Timed {
    wall_s: f64,
    stolen_share: f64,
}

/// Forward images `0..` until `seconds` have passed (and at least
/// [`MIN_IMAGES`] ran), timing each forward alone. Returns the timings
/// and the logits of the first `keep` images.
fn timed_loop(
    model: &DeitModel,
    engine: &mut MixedEngine,
    seed: u64,
    seconds: f64,
    keep: usize,
) -> (Vec<Timed>, Vec<(u64, Vec<f32>)>) {
    let cfg = model.cfg;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut timed = Vec::new();
    let mut kept = Vec::new();
    let mut i = 0;
    while timed.len() < MIN_IMAGES || Instant::now() < deadline {
        let img = image(&cfg, seed, i);
        let stolen0 = host::stolen_s();
        let t = Instant::now();
        let logits = model.forward(engine, black_box(&img));
        let wall_s = t.elapsed().as_secs_f64();
        let stolen = host::stolen_s().zip(stolen0).map_or(0.0, |(b, a)| b - a);
        timed.push(Timed {
            wall_s,
            stolen_share: stolen / (wall_s * host::nproc() as f64),
        });
        black_box(&logits);
        if kept.len() < keep {
            kept.push((i, logits));
        }
        i += 1;
    }
    (timed, kept)
}

/// The wall times to report: those of images measured on a quiet host
/// (the hypervisor stole at most [`host::STEAL_LIMIT`] of its CPU time), when
/// at least [`MIN_QUIET`] were; otherwise all of them.
fn quiet_walls(timed: &[Timed]) -> Vec<f64> {
    let quiet: Vec<f64> = timed
        .iter()
        .filter(|t| t.stolen_share <= host::STEAL_LIMIT)
        .map(|t| t.wall_s)
        .collect();
    if quiet.len() >= MIN_QUIET {
        quiet
    } else {
        timed.iter().map(|t| t.wall_s).collect()
    }
}

fn bit_identical(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Fast logits against Exact logits of the same images: every logit
/// within 2^23 ulp or 0.15 absolute of its Exact logit, and the pooled
/// SQNR above 30 dB.
///
/// The `e2e` bench gates its 4-block, 10-class encoder at 0.05 absolute,
/// set as 2.4x its measured worst (2.1e-2). That floor does not carry over
/// to DeiT-S: quantization noise compounds per block (`tests/fidelity.rs`),
/// and over 12 blocks and 1000 logits the worst logit of an image lands at
/// 0.039-0.073 (36 images, seeds 1000-1009 and 350150210; per-image SQNR
/// 30.7-33.4 dB), so 0.05 fails about half of all images whatever the
/// program does. 0.15 is the same method on DeiT-S: 2x the measured worst.
const LOGIT_ENVELOPE: UlpEnvelope = UlpEnvelope::new(1 << 23, 0.15);
const ENVELOPE_MIN_SQNR_DB: f64 = 30.0;

/// The pooled envelope statistics over `(image, fast, exact)` triples,
/// and the images that hold a logit outside the envelope.
fn envelope(pairs: &[(u64, Vec<f32>, Vec<f32>)]) -> (EnvelopeStats, Vec<u64>) {
    let mut stats = EnvelopeStats::new();
    let mut outside = Vec::new();
    for (i, fast, exact) in pairs {
        let mut admitted = true;
        for (&f, &e) in fast.iter().zip(exact) {
            admitted &= stats.record(f, e, &LOGIT_ENVELOPE);
        }
        if !admitted {
            outside.push(*i);
        }
    }
    (stats, outside)
}

/// Timed run: end-to-end metrics with tracing off.
pub fn run_timed(mode: NonlinearMode, seed: u64, seconds: f64) -> Outcome {
    let cfg = DeitConfig::deit_small();
    let (mut d, setups) = deploy_repeatedly(cfg, seed, mode, SETUPS);
    let keep = match mode {
        NonlinearMode::Exact => BIT_CHECK_IMAGES,
        NonlinearMode::Fast => BIT_CHECK_IMAGES.max(ENVELOPE_IMAGES),
    };
    let (timed, kept) = timed_loop(&d.model, &mut d.engine, seed, seconds, keep);
    let mut out = Outcome::new(timed.len() as u64);
    // Peak memory of the deployed system, before the checks build their
    // oracle engines.
    out.metric(Metric::single("peak_rss_mb", host::peak_rss_mb(), 1));
    // Timed images that failed any check, each counted once.
    let mut failed_images = BTreeSet::new();

    // The compiled plan must not move a logit bit against the plan-less
    // hand-wired path of the same mode.
    let mut oracle = MixedEngine::new()
        .with_nonlinear(mode)
        .with_threads(threads());
    let checked = &kept[..BIT_CHECK_IMAGES.min(kept.len())];
    for (i, logits) in checked {
        let want = d.model.forward(&mut oracle, &image(&cfg, seed, *i));
        if !bit_identical(logits, &want) {
            failed_images.insert(*i);
        }
    }
    out.checks.push(Check::new(
        "logits_bit_identical_to_planless",
        failed_images.is_empty(),
        format!(
            "{} of {} checked images differ from a plan-less {} engine",
            failed_images.len(),
            checked.len(),
            mode.as_str()
        ),
    ));

    if mode == NonlinearMode::Fast {
        let mut exact = MixedEngine::new()
            .with_threads(threads())
            .with_vit_plan(d.compiled);
        let pairs: Vec<_> = kept[..ENVELOPE_IMAGES.min(kept.len())]
            .iter()
            .map(|(i, f)| {
                (
                    *i,
                    f.clone(),
                    d.model.forward(&mut exact, &image(&cfg, seed, *i)),
                )
            })
            .collect();
        let (env, outside) = envelope(&pairs);
        let sqnr_ok = env.sqnr_db() > ENVELOPE_MIN_SQNR_DB;
        if sqnr_ok {
            failed_images.extend(&outside);
        } else {
            failed_images.extend(pairs.iter().map(|(i, _, _)| *i));
        }
        out.checks.push(Check::new(
            "fast_logits_within_envelope",
            outside.is_empty(),
            format!(
                "{} of {} images hold a logit outside 2^23 ulp and {} abs of Exact; \
                 max_abs {:.3e}, max_ulp {}",
                outside.len(),
                pairs.len(),
                LOGIT_ENVELOPE.abs_floor,
                env.max_abs,
                env.max_ulp
            ),
        ));
        out.checks.push(Check::new(
            "fast_logit_sqnr_above_30_db",
            sqnr_ok,
            format!(
                "pooled SQNR {:.2} dB over {} images",
                env.sqnr_db(),
                pairs.len()
            ),
        ));
    }
    out.failed = failed_images.len() as u64;

    let walls = quiet_walls(&timed);
    let ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
    out.metric(Metric::median_of("setup_s", &setups));
    out.metric(Metric::median_of("latency_ms", &ms));
    out.metric(Metric::single(
        "throughput_per_s",
        walls.len() as f64 / walls.iter().sum::<f64>(),
        walls.len(),
    ));
    let stolen: Vec<f64> = timed.iter().map(|t| t.stolen_share).collect();
    out.info
        .push(("images_timed".into(), walls.len().to_string()));
    out.info
        .push(("stolen_share_p50".into(), format!("{:.4}", median(&stolen))));
    out
}

/// The bench-side engine wrapper of the traced run: forwards every call
/// to the `MixedEngine` and records a span around it.
struct TracedEngine<'r> {
    inner: MixedEngine,
    rec: &'r SpanRecorder,
    parent: Option<SpanId>,
    request: u64,
}

impl TracedEngine<'_> {
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut MixedEngine) -> T) -> T {
        let id = self.rec.open(name, self.parent, self.request);
        let out = f(&mut self.inner);
        self.rec.close(id);
        out
    }
}

impl Engine for TracedEngine<'_> {
    fn matmul(&mut self, a: &MatF32, b: &MatF32) -> MatF32 {
        self.span("transformer.matmul", |e| e.matmul(a, b))
    }

    fn softmax_rows(&mut self, m: &mut MatF32) {
        self.span("transformer.softmax_rows", |e| e.softmax_rows(m))
    }

    fn gelu(&mut self, m: &mut MatF32) {
        self.span("transformer.gelu", |e| e.gelu(m))
    }

    fn layernorm(&mut self, m: &mut MatF32, gamma: &[f32], beta: &[f32], eps: f32) {
        self.span("transformer.layernorm", |e| {
            e.layernorm(m, gamma, beta, eps)
        })
    }

    fn forward_block_planned(&mut self, block: &Block, x: &MatF32) -> Option<MatF32> {
        self.span("transformer.block", |e| e.forward_block_planned(block, x))
    }
}

/// The node kinds of the per-node ledger, in block order.
pub const NODE_KINDS: [&str; 8] = [
    "ln", "qkv", "scores", "softmax", "ctx", "wo", "fc1_gelu", "fc2",
];

/// Ledger kind of a canonical plan-node key (`h3.scores` → `scores`).
fn node_kind(key: &str) -> &'static str {
    let local = key.rsplit('.').next().unwrap_or(key);
    match local {
        "ln1" | "ln2" => "ln",
        "wq" | "wk" | "wv" => "qkv",
        "scores" => "scores",
        "softmax" => "softmax",
        "ctx" => "ctx",
        "wo" | "res1" => "wo",
        "fc1+gelu" | "fc1" | "gelu" => "fc1_gelu",
        "fc2" | "res2" => "fc2",
        _ => "other",
    }
}

/// One ledger row: a node kind's modelled 300 MHz price, its measured
/// host time per image, and its share of the measured node total.
#[derive(Debug, Clone)]
pub struct LedgerRow {
    pub mode: NonlinearMode,
    pub kind: &'static str,
    pub modelled_ms: f64,
    pub measured_ms: f64,
    pub share: f64,
}

/// Join the plan's cycle prices with measured node times (summed over
/// `images` images) into per-kind rows, per image.
fn ledger(
    mode: NonlinearMode,
    plan: &FusePlan,
    measured: &HashMap<String, NodeTime>,
    images: usize,
) -> Vec<LedgerRow> {
    let mut modelled: BTreeMap<&'static str, f64> = BTreeMap::new();
    for n in &plan.nodes {
        *modelled
            .entry(node_kind(&canonical_node_key(n)))
            .or_default() += n.cycles + n.pack_cycles;
    }
    let mut ms: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (name, t) in measured {
        *ms.entry(node_kind(name)).or_default() += t.seconds * 1e3 / images.max(1) as f64;
    }
    let total: f64 = ms.values().sum();
    let mut kinds: Vec<&'static str> = NODE_KINDS.to_vec();
    if modelled.contains_key("other") || ms.contains_key("other") {
        kinds.push("other");
    }
    kinds
        .into_iter()
        .map(|kind| {
            let measured_ms = ms.get(kind).copied().unwrap_or(0.0);
            LedgerRow {
                mode,
                kind,
                modelled_ms: modelled.get(kind).copied().unwrap_or(0.0) / CLOCK_HZ * 1e3,
                measured_ms,
                share: if total > 0.0 {
                    measured_ms / total
                } else {
                    0.0
                },
            }
        })
        .collect()
}

fn add_node_times(acc: &mut HashMap<String, NodeTime>, more: HashMap<String, NodeTime>) {
    for (k, v) in more {
        let e = acc.entry(k).or_default();
        e.seconds += v.seconds;
        e.samples += v.samples;
    }
}

/// GEMM shapes `(m, k, n)` of one DeiT-S image: patch embedding, every
/// encoder block, and the head.
fn gemm_shapes(cfg: &DeitConfig) -> Vec<(usize, usize, usize)> {
    let v = &cfg.vit;
    let (s, d, hd) = (v.seq, v.dim, v.dim / v.heads);
    let patches = (cfg.img / cfg.patch).pow(2);
    let mut shapes = vec![(patches, cfg.channels * cfg.patch * cfg.patch, d)];
    for _ in 0..v.depth {
        shapes.extend([(s, d, d); 3]);
        for _ in 0..v.heads {
            shapes.push((s, hd, s));
            shapes.push((s, s, hd));
        }
        shapes.push((s, d, d));
        shapes.push((s, d, v.hidden()));
        shapes.push((s, v.hidden(), d));
    }
    shapes.push((1, d, cfg.classes));
    shapes
}

/// Bytes of one operand packed as bfp8: an i8 mantissa per element of
/// the 8×8-padded matrix plus one shared exponent byte per tile.
fn packed_bytes(rows: usize, cols: usize) -> usize {
    let tiles = rows.div_ceil(8) * cols.div_ceil(8);
    tiles * 64 + tiles
}

/// Traced run: per-layer metrics, the per-node ledger in both modes, and
/// the tracing overhead against an untraced stretch of the same run.
pub fn run_traced(mode: NonlinearMode, seed: u64, seconds: f64, rec: &SpanRecorder) -> Outcome {
    let cfg = DeitConfig::deit_small();
    let d = deploy(cfg, seed, mode, 0);
    let (model, fuse_plan, compiled) = (d.model, d.fuse_plan, d.compiled);
    let mut engine = d.engine;

    // Untraced stretch first: the base of the tracing overhead.
    let (plain, _) = timed_loop(&model, &mut engine, seed, seconds * 0.3, 0);
    let first_traced = plain.len() as u64;

    engine.enable_node_timing();
    let _ = engine.take_node_times();
    let _ = engine.take_phase_times();
    let _ = engine.take_census();
    let (fh0, fm0) = engine.fusion_stats();
    let pc0 = engine.plan_cache_stats();
    let mut traced = TracedEngine {
        inner: engine,
        rec,
        parent: None,
        request: 0,
    };

    // Per-image exports, read right after each forward.
    let mut node_acc: HashMap<String, NodeTime> = HashMap::new();
    let mut node_per_image: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut phases = Vec::new();
    let mut censuses = Vec::new();
    let mut image_spans = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.6);
    let mut lat = Vec::new();
    let mut i = first_traced;
    let mut last_logits = (0u64, Vec::new());
    while lat.len() < MIN_IMAGES || Instant::now() < deadline {
        let img = image(&cfg, seed, i);
        let root = rec.open("transformer.image", None, i);
        traced.parent = Some(root);
        traced.request = i;
        let t = Instant::now();
        let logits = model.forward(&mut traced, black_box(&img));
        let dt = t.elapsed().as_secs_f64();
        rec.close(root);
        image_spans.push(root);
        lat.push(dt);
        let nodes = traced.inner.take_node_times();
        let mut per: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (k, v) in &nodes {
            *per.entry(node_kind(k)).or_default() += v.seconds * 1e3;
        }
        node_per_image.push(per);
        add_node_times(&mut node_acc, nodes);
        phases.push((traced.inner.take_phase_times(), dt));
        censuses.push(traced.inner.take_census());
        last_logits = (i, logits);
        i += 1;
    }
    let engine = traced.inner;
    let (fh1, fm1) = engine.fusion_stats();
    let pc1 = engine.plan_cache_stats();
    let n = lat.len();
    let mut out = Outcome::new(n as u64);

    // Spans → transformer layer metrics.
    let spans = rec.spans();
    let mut block_ms = Vec::new();
    let (mut embed_ms, mut head_ms, mut glue_ms) = (Vec::new(), Vec::new(), Vec::new());
    for &root in &image_spans {
        let r = &spans[root];
        let blocks: Vec<_> = spans
            .iter()
            .filter(|s| s.parent == Some(root) && s.name == "transformer.block")
            .collect();
        block_ms.extend(blocks.iter().map(|b| b.duration_ns() as f64 / 1e6));
        if let (Some(first), Some(last)) = (blocks.first(), blocks.last()) {
            embed_ms.push(first.start_ns.saturating_sub(r.start_ns) as f64 / 1e6);
            head_ms.push(r.end_ns.saturating_sub(last.end_ns) as f64 / 1e6);
        }
        glue_ms.push(self_time_ns(&spans, root) as f64 / 1e6);
    }
    out.metric(Metric::median_of("transformer.block_ms_p50", &block_ms));
    out.metric(Metric::median_of("transformer.embed_ms", &embed_ms));
    out.metric(Metric::median_of("transformer.head_ms", &head_ms));
    out.metric(Metric::median_of("transformer.glue_ms", &glue_ms));
    let (fh, fm) = (fh1 - fh0, fm1 - fm0);
    out.metric(Metric::single(
        "transformer.fusion_hit_ratio",
        fh as f64 / (fh + fm).max(1) as f64,
        n,
    ));
    let (ph, pm) = (pc1.hits - pc0.hits, pc1.misses - pc0.misses);
    out.metric(Metric::single(
        "transformer.plan_cache_hit_ratio",
        ph as f64 / (ph + pm).max(1) as f64,
        n,
    ));
    out.metric(Metric::single(
        "transformer.plan_cache_mb",
        pc1.bytes as f64 / 1e6,
        1,
    ));
    let per_img = |f: &dyn Fn(&bfp_transformer::OpCensus) -> u64| -> Vec<f64> {
        censuses.iter().map(|c| f(c) as f64).collect()
    };
    out.metric(Metric::median_of(
        "transformer.vpu_fp_ops",
        &per_img(&|c| c.fp32_flops()),
    ));
    out.metric(Metric::median_of(
        "transformer.vpu_lut_ops",
        &per_img(&|c| c.softmax.lut + c.gelu.lut + c.layernorm.lut),
    ));
    out.metric(Metric::median_of(
        "transformer.vpu_host_ops",
        &per_img(&|c| c.host_ops()),
    ));

    // Node exports → node metrics (per image, summed over blocks/heads).
    for kind in NODE_KINDS {
        let v: Vec<f64> = node_per_image
            .iter()
            .map(|p| p.get(kind).copied().unwrap_or(0.0))
            .collect();
        out.metric(Metric::median_of(&format!("node.{kind}_ms"), &v));
    }
    let sums: Vec<f64> = node_per_image.iter().map(|p| p.values().sum()).collect();
    for kind in NODE_KINDS {
        let v: Vec<f64> = node_per_image
            .iter()
            .zip(&sums)
            .map(|(p, s)| p.get(kind).copied().unwrap_or(0.0) / s.max(f64::MIN_POSITIVE))
            .collect();
        out.metric(Metric::median_of(&format!("node.{kind}_share"), &v));
    }
    let coverage: Vec<f64> = sums.iter().zip(&lat).map(|(s, l)| s / (l * 1e3)).collect();
    out.metric(Metric::median_of("node.coverage", &coverage));

    // Phase export.
    let ph_ms = |f: &dyn Fn(&bfp_transformer::PhaseTimes) -> Duration| -> Vec<f64> {
        phases
            .iter()
            .map(|(p, _)| f(p).as_secs_f64() * 1e3)
            .collect()
    };
    out.metric(Metric::median_of(
        "phase.quantize_pack_ms",
        &ph_ms(&|p| p.quantize_pack),
    ));
    out.metric(Metric::median_of("phase.gemm_ms", &ph_ms(&|p| p.gemm)));
    out.metric(Metric::median_of(
        "phase.softmax_ms",
        &ph_ms(&|p| p.softmax),
    ));
    out.metric(Metric::median_of("phase.gelu_ms", &ph_ms(&|p| p.gelu)));
    out.metric(Metric::median_of(
        "phase.layernorm_ms",
        &ph_ms(&|p| p.layernorm),
    ));
    let unaccounted: Vec<f64> = phases
        .iter()
        .map(|(p, dt)| (dt - p.accounted().as_secs_f64()).max(0.0) * 1e3)
        .collect();
    out.metric(Metric::median_of("phase.unaccounted_ms", &unaccounted));

    // Core: planning cost, the modelled clock, Table IV, drift.
    out.metric(Metric::single("core.plan_ms", d.plan_s * 1e3, 1));
    out.metric(Metric::single(
        "core.modelled_ms",
        fuse_plan.timing.double_buffered_cycles / CLOCK_HZ * 1e3,
        1,
    ));
    let census = analytical_census_mode(&cfg.vit, mode);
    out.metric(Metric::single(
        "core.table4_ms",
        LatencyModel::paper().breakdown(&census).total_latency_s() * 1e3,
        1,
    ));
    let drift = attribute_plan_drift(&fuse_plan, &node_acc);
    out.metric(Metric::single(
        "core.drift_worst_ratio",
        drift.max_abs_log2_drift().exp2(),
        n,
    ));
    out.metric(Metric::single(
        "core.drift_mean_abs_log2",
        drift.weighted_mean_abs_log2_drift(),
        n,
    ));
    out.checks.push(Check::new(
        "plan_nodes_all_measured",
        drift.unmeasured.is_empty() && drift.unpriced.is_empty(),
        format!(
            "unmeasured {:?}, unpriced {:?}",
            drift.unmeasured, drift.unpriced
        ),
    ));

    // Arith: computed from tensor shapes, cross-checked with the census.
    let shapes = gemm_shapes(&cfg);
    let macs: u64 = shapes.iter().map(|&(m, k, n)| (m * k * n) as u64).sum();
    let bytes: usize = shapes
        .iter()
        .map(|&(m, k, n)| packed_bytes(m, k) + packed_bytes(k, n))
        .sum();
    out.metric(Metric::single("arith.gemm_macs_per_image", macs as f64, 1));
    out.metric(Metric::single(
        "arith.packed_operand_mb_per_image",
        bytes as f64 / 1e6,
        1,
    ));
    let bad_census = censuses.iter().filter(|c| c.matmul_macs != macs).count();
    out.checks.push(Check::new(
        "computed_macs_match_engine_census",
        bad_census == 0,
        format!("{bad_census} images whose census MACs differ from the computed {macs}"),
    ));

    // The ledger in the other mode, at the same thread count: a fresh
    // engine, one warm-up image, one measured image.
    let mut oe = MixedEngine::new()
        .with_nonlinear(other(mode))
        .with_threads(threads())
        .with_vit_plan(compiled);
    black_box(model.forward(&mut oe, &warmup_image(&cfg, seed, 1)));
    oe.enable_node_timing();
    let _ = oe.take_node_times();
    let other_logits = model.forward(&mut oe, &image(&cfg, seed, last_logits.0));
    let other_nodes = oe.take_node_times();
    let mut rows = ledger(mode, &fuse_plan, &node_acc, n);
    rows.extend(ledger(other(mode), &fuse_plan, &other_nodes, 1));
    out.ledger = rows;

    // Fast-vs-Exact logit quality on the shared image.
    let (fast, exact) = match mode {
        NonlinearMode::Fast => (&last_logits.1, &other_logits),
        NonlinearMode::Exact => (&other_logits, &last_logits.1),
    };
    out.metric(Metric::single(
        "quality.logit_sqnr_db",
        sqnr_db(fast, exact),
        1,
    ));

    let plain_ms: Vec<f64> = plain.iter().map(|t| t.wall_s * 1e3).collect();
    let traced_ms: Vec<f64> = lat.iter().map(|s| s * 1e3).collect();
    out.metric(Metric::single(
        "trace.overhead_frac",
        median(&traced_ms) / median(&plain_ms) - 1.0,
        n,
    ));
    out.info
        .push(("nonlinear_mode".into(), mode.as_str().into()));
    out.info
        .push(("images_untraced".into(), plain.len().to_string()));
    out
}
