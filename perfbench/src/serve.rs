//! `serve_deit_layers`: open-loop DeiT-S layer serving.
//!
//! One generator thread sends requests on a seeded bounded-Pareto
//! schedule at a fixed rate below capacity into `Server::simulated`
//! (arrays ≤ available parallelism). The traffic is one encoder block's
//! GEMMs, repeated: a Critical tenant sends the 12 per-head attention
//! GEMMs and a Standard tenant the 6 linear layers (q/k/v/o, fc1 with its
//! fused GELU, fc2). Every request is timed from when it was due.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bfp_arith::matrix::MatF32;
use bfp_serve::{
    reference_bits, ArrayFaultPlan, BrownoutPolicy, NonlinearMode, ObservatoryConfig, Priority,
    ServeConfig, ServeError, ServeOp, ServeRequest, Server, TenantId, Ticket,
};

use crate::host::{self, StealLog};
use crate::report::{Check, Metric, Outcome};
use crate::spans::SpanRecorder;
use crate::stats::{
    blocked_tail, latency_from_due_s, lateness_s, median, quantile, supported_tail,
    ArrivalSchedule, SplitMix64,
};

/// Offered load, requests per second: one DeiT-S block's 18 GEMMs
/// [`BLOCKS_PER_S`] times a second.
const BLOCKS_PER_S: f64 = 3.0;
const RATE_RPS: f64 = BLOCKS_PER_S * PATTERN.len() as f64;
/// Latency limits of the goodput count, from the due time.
const CRITICAL_LIMIT_MS: f64 = 100.0;
const STANDARD_LIMIT_MS: f64 = 500.0;
/// Generator lateness (p99) above which the run is invalid: the
/// schedule was not offered as written.
const GENERATOR_LAG_BOUND_MS: f64 = 25.0;
/// Set-ups per timed run; `setup_s` is their median. One set-up is only
/// about 0.2 s, so it takes several for a steady median.
const SETUPS: usize = 7;
/// Requests per block of the headline latency: about 4.6 s of schedule,
/// enough for ten beyond each block's p95.
const LATENCY_BLOCK: usize = 250;
/// Distinct operand pairs per request kind.
const POOL: usize = 3;
/// Completed responses per kind re-checked against `reference_bits`.
const SAMPLE_PER_KIND: usize = 2;
/// The traced run offers this many `--seconds` of schedule, so that the
/// Critical tenant alone completes ≥ 1000 requests for its p99.
const TRACED_SCHEDULE: f64 = 1.25;
/// Arrival-rate multiples of the traced run's capacity ladder.
const LADDER: [f64; 4] = [1.5, 2.0, 2.5, 3.0];

/// The DeiT-S layer GEMMs served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Per-head scores, 197×64 · 64×197.
    Scores,
    /// Per-head context, 197×197 · 197×64.
    Ctx,
    /// q/k/v/o projection, 197×384 · 384×384.
    Qkv,
    /// MLP expansion with fused GELU, 197×384 · 384×1536.
    Fc1,
    /// MLP contraction, 197×1536 · 1536×384.
    Fc2,
}

const KINDS: [Kind; 5] = [Kind::Scores, Kind::Ctx, Kind::Qkv, Kind::Fc1, Kind::Fc2];

/// One encoder block's requests, in arrival order.
const PATTERN: [Kind; 18] = {
    use Kind::*;
    [
        Qkv, Qkv, Qkv, Scores, Ctx, Scores, Ctx, Scores, Ctx, Scores, Ctx, Scores, Ctx, Scores,
        Ctx, Qkv, Fc1, Fc2,
    ]
};

impl Kind {
    fn shape(self) -> (usize, usize, usize) {
        match self {
            Kind::Scores => (197, 64, 197),
            Kind::Ctx => (197, 197, 64),
            Kind::Qkv => (197, 384, 384),
            Kind::Fc1 => (197, 384, 1536),
            Kind::Fc2 => (197, 1536, 384),
        }
    }

    fn op(self) -> ServeOp {
        match self {
            Kind::Fc1 => ServeOp::GemmGelu,
            _ => ServeOp::Gemm,
        }
    }

    fn critical(self) -> bool {
        matches!(self, Kind::Scores | Kind::Ctx)
    }

    fn limit_s(self) -> f64 {
        if self.critical() {
            CRITICAL_LIMIT_MS / 1e3
        } else {
            STANDARD_LIMIT_MS / 1e3
        }
    }

    fn label(self) -> &'static str {
        match self {
            Kind::Scores | Kind::Ctx => "attn",
            Kind::Qkv => "qkv",
            Kind::Fc1 => "fc1",
            Kind::Fc2 => "fc2",
        }
    }

    fn index(self) -> usize {
        KINDS.iter().position(|&k| k == self).expect("kind listed")
    }
}

/// Seeded operand pairs per kind: activations of unit scale, weights
/// (and attention probabilities) small, as in a trained DeiT.
struct Operands(Vec<Vec<(MatF32, MatF32)>>);

impl Operands {
    fn generate(seed: u64) -> Operands {
        let mut rng = SplitMix64::new(seed ^ 0x5E55_10AD);
        let mut mat = |r: usize, c: usize, scale: f64| {
            MatF32::from_fn(r, c, |_, _| ((rng.uniform() * 2.0 - 1.0) * scale) as f32)
        };
        Operands(
            KINDS
                .iter()
                .map(|&k| {
                    let (m, kk, n) = k.shape();
                    (0..POOL)
                        .map(|_| match k {
                            Kind::Scores => (mat(m, kk, 1.0), mat(kk, n, 1.0)),
                            Kind::Ctx => (mat(m, kk, 2.0 / m as f64), mat(kk, n, 1.0)),
                            _ => (mat(m, kk, 1.0), mat(kk, n, 0.05)),
                        })
                        .collect()
                })
                .collect(),
        )
    }

    fn pair(&self, kind: Kind, i: usize) -> &(MatF32, MatF32) {
        &self.0[kind.index()][i % POOL]
    }

    fn request(&self, kind: Kind, i: usize) -> ServeRequest {
        let (a, b) = self.pair(kind, i);
        let req = ServeRequest::new(a.clone(), b.clone()).with_op(kind.op());
        if kind.critical() {
            req.for_tenant(TenantId(1))
                .with_priority(Priority::Critical)
        } else {
            req.for_tenant(TenantId(2))
                .with_priority(Priority::Standard)
        }
    }
}

fn arrays() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

fn config() -> ServeConfig {
    ServeConfig {
        arrays: arrays(),
        // Below capacity nothing should be refused; a queue this deep
        // never fills at the offered rate.
        queue_capacity: 4096,
        // The brownout ladder is for overload, which this workload does
        // not offer: a 1 s queue-wait target keeps it at tier 0, so every
        // request runs the exact datapath.
        brownout: BrownoutPolicy {
            latency_target: Duration::from_secs(1),
            ..BrownoutPolicy::default()
        },
        observatory: ObservatoryConfig {
            shadow_every: 16,
            ..ObservatoryConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// Start a server, and warm it with one request of every kind.
fn start(ops: &Operands) -> Server {
    let server = Server::simulated(config(), vec![ArrayFaultPlan::None; arrays()]);
    let tickets: Vec<Ticket> = KINDS
        .iter()
        .map(|&k| server.submit(ops.request(k, 0)).expect("warm-up admitted"))
        .collect();
    for t in tickets {
        t.wait().expect("warm-up served");
    }
    server
}

/// What became of one offered request.
struct Record {
    kind: Kind,
    pool: usize,
    due_s: f64,
    submit_s: f64,
    result: Result<Served, ServeError>,
}

struct Served {
    wall_s: f64,
    queue_wait_s: f64,
    mode: NonlinearMode,
    attempts: u32,
    /// Kept for the first responses of each kind, for the bit check.
    out: Option<MatF32>,
}

struct Sent {
    kind: Kind,
    pool: usize,
    due_s: f64,
    submit_s: f64,
    ticket: Result<Ticket, ServeError>,
    span: Option<usize>,
}

/// Offer `seconds` of the schedule drawn from `seed` at `rate` to
/// `server`, then drain it, logging the hypervisor's steal meanwhile.
/// Spans go to `rec` when tracing.
fn offer(
    server: &Server,
    ops: &Operands,
    seed: u64,
    rate: f64,
    seconds: f64,
    rec: Option<&SpanRecorder>,
) -> (Vec<Record>, StealLog) {
    let (tx, rx) = mpsc::channel::<Sent>();
    let start = Instant::now();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let steal = s.spawn(|| StealLog::record(start, &done));
        let collector = s.spawn(move || {
            let mut kept = [0usize; KINDS.len()];
            let mut records = Vec::new();
            for sent in rx {
                let result = sent.ticket.and_then(|t| {
                    let w = rec.map(|r| r.open("serve.ticket_wait", sent.span, t.id()));
                    let resp = t.wait();
                    if let (Some(r), Some(w)) = (rec, w) {
                        r.close(w);
                    }
                    resp
                });
                let result = result.map(|resp| {
                    let keep = kept[sent.kind.index()] < SAMPLE_PER_KIND;
                    if keep {
                        kept[sent.kind.index()] += 1;
                    }
                    Served {
                        wall_s: resp.wall_s,
                        queue_wait_s: resp.timeline.queue_wait_s,
                        mode: resp.mode,
                        attempts: resp.attempts,
                        out: keep.then_some(resp.out),
                    }
                });
                records.push(Record {
                    kind: sent.kind,
                    pool: sent.pool,
                    due_s: sent.due_s,
                    submit_s: sent.submit_s,
                    result,
                });
            }
            records
        });
        let mut schedule = ArrivalSchedule::new(seed, rate);
        for idx in 0usize.. {
            let due_s = schedule.next_due_s();
            if due_s > seconds {
                break;
            }
            let kind = PATTERN[idx % PATTERN.len()];
            let pool = idx / PATTERN.len();
            let req = ops.request(kind, pool);
            let due = start + Duration::from_secs_f64(due_s);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let t0 = Instant::now();
            let ticket = server.submit(req);
            let t1 = Instant::now();
            let span = rec.map(|r| {
                let id = ticket.as_ref().map_or(u64::MAX, |t| t.id());
                r.record("serve.submit", t0, t1, None, id)
            });
            let sent = Sent {
                kind,
                pool,
                due_s,
                submit_s: t0.duration_since(start).as_secs_f64(),
                ticket,
                span,
            };
            tx.send(sent)
                .expect("collector alive until the schedule ends");
        }
        drop(tx);
        server.drain();
        let records = collector.join().expect("collector thread panicked");
        done.store(true, Ordering::Release);
        (records, steal.join().expect("steal sampler panicked"))
    })
}

/// Latency from the due time, or `None` for a refused or failed request.
fn latency_s(r: &Record) -> Option<f64> {
    r.result
        .as_ref()
        .ok()
        .map(|s| latency_from_due_s(r.due_s, r.submit_s, s.wall_s))
}

fn within_limit(r: &Record) -> bool {
    latency_s(r).is_some_and(|l| l <= r.kind.limit_s())
}

fn ms(xs: impl Iterator<Item = f64>) -> Vec<f64> {
    xs.map(|s| s * 1e3).collect()
}

/// p99 (or the highest percentile the sample supports) of `xs`.
fn tail(xs: &[f64]) -> f64 {
    supported_tail(xs).map_or(f64::NAN, |(_, v)| v)
}

/// Timed run: end-to-end metrics with tracing off.
pub fn run_timed(seed: u64, seconds: f64) -> Outcome {
    let mut setups = Vec::new();
    let mut server = None;
    let mut ops = None;
    for _ in 0..SETUPS {
        drop(server.take());
        drop(ops.take());
        let t0 = Instant::now();
        let o = Operands::generate(seed);
        let s = start(&o);
        setups.push(t0.elapsed().as_secs_f64());
        server = Some(s);
        ops = Some(o);
    }
    let (server, ops) = (server.expect("set up"), ops.expect("set up"));
    let (records, steal) = offer(&server, &ops, seed, RATE_RPS, seconds, None);
    let mut out = evaluate(&server, &ops, &records, &steal, seconds);
    out.info.push((
        "queue_high_water".into(),
        server.stats().queue_depth_high_water.to_string(),
    ));
    out.metric(Metric::median_of("setup_s", &setups));
    out
}

/// Correctness checks and the metrics both runs share.
fn evaluate(
    server: &Server,
    ops: &Operands,
    records: &[Record],
    steal: &StealLog,
    seconds: f64,
) -> Outcome {
    let mut out = Outcome::new(records.len() as u64);
    let refused_or_failed = records.iter().filter(|r| r.result.is_err()).count() as u64;

    // Sampled responses must be bit-exact for the mode they ran in.
    let mut bad_bits = 0u64;
    let mut checked = 0;
    for r in records {
        if let Ok(Served {
            out: Some(got),
            mode,
            ..
        }) = &r.result
        {
            let (a, b) = ops.pair(r.kind, r.pool);
            let want = reference_bits(a, b, r.kind.op(), *mode);
            checked += 1;
            if got
                .data()
                .iter()
                .zip(want.data())
                .any(|(x, y)| x.to_bits() != y.to_bits())
            {
                bad_bits += 1;
            }
        }
    }
    out.failed = refused_or_failed + bad_bits;
    out.checks.push(Check::new(
        "sampled_responses_bit_exact",
        bad_bits == 0 && checked == SAMPLE_PER_KIND * KINDS.len(),
        format!("{bad_bits} of {checked} sampled responses differ from reference_bits"),
    ));
    out.checks.push(Check::new(
        "no_request_refused_or_failed",
        refused_or_failed == 0,
        format!(
            "{refused_or_failed} of {} requests refused or failed",
            records.len()
        ),
    ));
    let stats = server.stats();
    let violations = server.observatory().envelope_violations();
    out.checks.push(Check::new(
        "zero_envelope_violations",
        violations == 0,
        format!("{violations} shadow-lane envelope violations"),
    ));
    let identity = stats.admitted
        == stats.completed + stats.failed + stats.queued as u64 + stats.in_flight as u64;
    out.checks.push(Check::new(
        "accounting_identity_after_drain",
        identity,
        format!(
            "admitted {} = completed {} + failed {} + queued {} + in_flight {}",
            stats.admitted, stats.completed, stats.failed, stats.queued, stats.in_flight
        ),
    ));
    let lag = ms(records.iter().map(|r| lateness_s(r.due_s, r.submit_s)));
    let lag_p99 = quantile(&lag, 0.99);
    out.checks.push(Check::new(
        "generator_on_schedule",
        lag_p99 <= GENERATOR_LAG_BOUND_MS,
        format!("generator lateness p99 {lag_p99:.3} ms (bound {GENERATOR_LAG_BOUND_MS} ms)"),
    ));

    // The headline latency is a tail, not the median: the median sits
    // where the cheap attention GEMMs and the queued linear layers meet,
    // and swings with every burst. It is read per block of consecutive
    // requests (p95 at the offered rate) and the median over the blocks
    // is reported; the whole-run p99 is the traced run's
    // `serve.latency_ms_p99`. Requests that lived through a second in
    // which the hypervisor held a vCPU are left out, as long as 1000
    // remain (see `host::STEAL_LIMIT`).
    let quiet = ms(records.iter().filter_map(|r| {
        latency_s(r).filter(|l| steal.max_share(r.due_s, r.due_s + l) <= host::STEAL_LIMIT)
    }));
    let lat = if quiet.len() >= 1000 {
        quiet
    } else {
        ms(records.iter().filter_map(latency_s))
    };
    let (pct, tails) = blocked_tail(&lat, LATENCY_BLOCK).unwrap_or((f64::NAN, vec![]));
    out.metric(Metric::median_of("latency_ms", &tails));
    out.info
        .push(("requests_timed".into(), lat.len().to_string()));
    out.info.push((
        "latency".into(),
        format!("median over {} blocks of each block's p{pct}", tails.len()),
    ));
    let (whole_pct, whole_tail) = supported_tail(&lat).unwrap_or((f64::NAN, f64::NAN));
    out.info.push((
        "latency_ms_whole_run".into(),
        format!(
            "p50 {:.3}, p{whole_pct} {whole_tail:.3} over {} requests",
            median(&lat),
            lat.len()
        ),
    ));
    // Goodput: requests served within their limit per second of
    // schedule (refused and failed requests count as misses).
    let good = records.iter().filter(|r| within_limit(r)).count();
    let goodput = good as f64 / seconds;
    out.metric(Metric::single("throughput_per_s", goodput, records.len()));
    out.info.push(("offered_rps".into(), format!("{RATE_RPS}")));
    out.info.push(("arrays".into(), arrays().to_string()));
    out.info.push((
        "latency_limits_ms".into(),
        format!("critical {CRITICAL_LIMIT_MS}, standard {STANDARD_LIMIT_MS}"),
    ));
    out.info.push((
        "completed".into(),
        records
            .iter()
            .filter(|r| r.result.is_ok())
            .count()
            .to_string(),
    ));
    out.info.push(("within_limit".into(), good.to_string()));
    out.info.push((
        "critical_ms_p99".into(),
        format!("{:.3}", tail(&critical_ms(records))),
    ));
    out.info
        .push(("generator_lag_ms_p99".into(), format!("{lag_p99:.3}")));
    out
}

fn critical_ms(records: &[Record]) -> Vec<f64> {
    ms(records
        .iter()
        .filter(|r| r.kind.critical())
        .filter_map(latency_s))
}

/// The ladder step passes when ≥ 99% of requests met their limit and no
/// backlog was left when the schedule ended.
fn ladder_step_passes(records: &[Record], backlog: usize) -> bool {
    let good = records.iter().filter(|r| within_limit(r)).count();
    good as f64 >= 0.99 * records.len() as f64 && backlog <= arrays()
}

/// Traced run: per-layer serve metrics from spans around `submit` and
/// `Ticket::wait` plus the server's own exports; an untraced stretch for
/// the tracing overhead; and a short rate ladder for the highest rate
/// that still meets the limits.
pub fn run_traced(seed: u64, seconds: f64, rec: &SpanRecorder) -> Outcome {
    let t0 = Instant::now();
    let ops = Operands::generate(seed);
    let base = start(&ops);
    let (plain, _) = offer(&base, &ops, seed ^ 1, RATE_RPS, seconds * 0.2, None);
    drop(base);

    let schedule_s = seconds * TRACED_SCHEDULE;
    let server = start(&ops);
    let (records, steal) = offer(&server, &ops, seed, RATE_RPS, schedule_s, Some(rec));
    let mut out = evaluate(&server, &ops, &records, &steal, schedule_s);
    let stats = server.stats();
    let violations = server.observatory().envelope_violations();
    drop(server);

    let lat = ms(records.iter().filter_map(latency_s));
    out.metric(Metric::median_of("serve.latency_ms_p50", &lat));
    out.metric(Metric::single(
        "serve.latency_ms_p99",
        tail(&lat),
        lat.len(),
    ));
    let crit = critical_ms(&records);
    out.metric(Metric::single(
        "serve.critical_ms_p99",
        tail(&crit),
        crit.len(),
    ));

    let spans = rec.spans();
    let submit_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "serve.submit")
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    out.metric(Metric::single(
        "serve.submit_us_p50",
        median(&submit_us),
        submit_us.len(),
    ));
    out.metric(Metric::single(
        "serve.submit_us_p99",
        tail(&submit_us),
        submit_us.len(),
    ));

    let served: Vec<(&Record, &Served)> = records
        .iter()
        .filter_map(|r| r.result.as_ref().ok().map(|s| (r, s)))
        .collect();
    let wait = ms(served.iter().map(|(_, s)| s.queue_wait_s));
    out.metric(Metric::single(
        "serve.queue_wait_ms_p50",
        median(&wait),
        wait.len(),
    ));
    out.metric(Metric::single(
        "serve.queue_wait_ms_p99",
        tail(&wait),
        wait.len(),
    ));
    for label in ["attn", "qkv", "fc1", "fc2"] {
        let svc = ms(served
            .iter()
            .filter(|(r, _)| r.kind.label() == label)
            .map(|(_, s)| s.wall_s - s.queue_wait_s));
        out.metric(Metric::median_of(
            &format!("serve.service_ms_p50.{label}"),
            &svc,
        ));
    }
    let busy: f64 = served.iter().map(|(_, s)| s.wall_s - s.queue_wait_s).sum();
    out.metric(Metric::single(
        "serve.array_busy_frac",
        busy / (arrays() as f64 * schedule_s),
        served.len(),
    ));
    let attempts: u32 = served.iter().map(|(_, s)| s.attempts).sum();
    out.metric(Metric::single(
        "serve.retries_per_request",
        (attempts as f64 - served.len() as f64) / served.len().max(1) as f64,
        served.len(),
    ));
    out.metric(Metric::single("serve.rejected", stats.rejected as f64, 1));
    out.metric(Metric::single("serve.shed", stats.shed as f64, 1));
    out.metric(Metric::single(
        "serve.deadline_missed",
        stats.deadline_missed as f64,
        1,
    ));
    let fast = served
        .iter()
        .filter(|(_, s)| s.mode == NonlinearMode::Fast)
        .count();
    out.metric(Metric::single(
        "serve.fast_share",
        fast as f64 / served.len().max(1) as f64,
        served.len(),
    ));
    out.metric(Metric::single(
        "serve.brownout_transitions",
        stats.brownout.transitions as f64,
        1,
    ));
    out.metric(Metric::single(
        "serve.queue_high_water",
        stats.queue_depth_high_water as f64,
        1,
    ));
    let lag = ms(records.iter().map(|r| lateness_s(r.due_s, r.submit_s)));
    out.metric(Metric::single(
        "serve.generator_lag_ms_p99",
        quantile(&lag, 0.99),
        lag.len(),
    ));
    out.metric(Metric::single(
        "serve.envelope_violations",
        violations as f64,
        1,
    ));

    let plain_lat = ms(plain.iter().filter_map(latency_s));
    out.metric(Metric::single(
        "trace.overhead_frac",
        median(&lat) / median(&plain_lat) - 1.0,
        lat.len(),
    ));

    // Capacity ladder: fresh server per step, short steps.
    let mut best = 0.0;
    let step_s = (seconds / 10.0).max(1.0);
    for (i, mult) in std::iter::once(1.0).chain(LADDER).enumerate() {
        let rate = RATE_RPS * mult;
        let server = start(&ops);
        let (recs, backlog) =
            offer_with_backlog(&server, &ops, seed ^ (i as u64 + 2), rate, step_s);
        if !ladder_step_passes(&recs, backlog) {
            break;
        }
        best = rate;
    }
    out.metric(Metric::single(
        "serve.max_rps_within_slo",
        best,
        LADDER.len() + 1,
    ));
    out.info.push((
        "traced_run_s".into(),
        format!("{:.3}", t0.elapsed().as_secs_f64()),
    ));
    out
}

/// [`offer`], plus the backlog (queued + in flight) when the schedule
/// ended.
fn offer_with_backlog(
    server: &Server,
    ops: &Operands,
    seed: u64,
    rate: f64,
    seconds: f64,
) -> (Vec<Record>, usize) {
    std::thread::scope(|s| {
        let probe = s.spawn(|| {
            std::thread::sleep(Duration::from_secs_f64(seconds));
            let st = server.stats();
            st.queued + st.in_flight
        });
        let (records, _) = offer(server, ops, seed, rate, seconds, None);
        (records, probe.join().expect("backlog probe panicked"))
    })
}
