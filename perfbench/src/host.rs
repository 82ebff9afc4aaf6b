//! Facts about the host and the build, recorded with every result.

/// Threads the host offers the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Widest x86 SIMD level the CPU reports at run time.
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

/// The commit of the checkout the benchmark runs in, read from `.git`
/// in the working directory; `unknown` outside a git checkout.
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| format!("unknown ({r})"), |c| c.trim().to_string()),
        None => head,
    }
}

/// Peak resident set size of this process in MB (10^6 bytes, from
/// `VmHWM`), or `NaN`
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}

/// `(key, value)` host and build facts for the report line.
pub fn facts() -> Vec<(String, String)> {
    vec![
        ("nproc".into(), nproc().to_string()),
        ("simd".into(), simd_level().into()),
        ("rustc".into(), env!("PERFBENCH_RUSTC").into()),
        ("profile".into(), env!("PERFBENCH_PROFILE").into()),
        ("commit".into(), commit()),
    ]
}

/// Seconds of CPU time the hypervisor has stolen from this machine's
/// vCPUs since boot: the `steal` column of `/proc/stat`, in USER_HZ
/// (100 Hz) ticks. `None` where the kernel does not report it.
pub fn stolen_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    let steal: u64 = cpu.split_whitespace().nth(7)?.parse().ok()?;
    Some(steal as f64 / 100.0)
}

/// Largest share of the host's CPU time the hypervisor may steal while a
/// measurement runs before the measurement is taken to describe the
/// neighbours rather than the program.
pub const STEAL_LIMIT: f64 = 0.05;

/// Cumulative stolen seconds sampled about once a second over a run, so
/// that measurements taken while the hypervisor held a vCPU can be told
/// from those taken on a quiet host.
#[derive(Debug, Default)]
pub struct StealLog {
    /// `(seconds since the run started, cumulative stolen seconds)`.
    samples: Vec<(f64, f64)>,
}

impl StealLog {
    /// Sample until `done` is set, then once more; run on its own thread.
    pub fn record(start: std::time::Instant, done: &std::sync::atomic::AtomicBool) -> StealLog {
        use std::sync::atomic::Ordering;
        let mut log = StealLog::default();
        let sample = |log: &mut StealLog| {
            if let Some(s) = stolen_s() {
                log.samples.push((start.elapsed().as_secs_f64(), s));
            }
        };
        sample(&mut log);
        let mut last = start.elapsed().as_secs_f64();
        while !done.load(Ordering::Acquire) {
            std::thread::sleep(std::time::Duration::from_millis(50));
            if start.elapsed().as_secs_f64() - last >= 1.0 {
                sample(&mut log);
                last = start.elapsed().as_secs_f64();
            }
        }
        sample(&mut log);
        log
    }

    /// The largest stolen share of the host's CPU time over the sampled
    /// windows that overlap `[from_s, to_s]` (0 without samples).
    pub fn max_share(&self, from_s: f64, to_s: f64) -> f64 {
        self.samples
            .windows(2)
            .filter(|w| w[1].0 > from_s && w[0].0 < to_s)
            .map(|w| (w[1].1 - w[0].1) / ((w[1].0 - w[0].0) * nproc() as f64))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_windows_cover_the_interval() {
        let n = nproc() as f64;
        let log = StealLog {
            samples: vec![
                (0.0, 10.0),
                (1.0, 10.0),
                (2.0, 10.0 + 0.5 * n),
                (3.0, 10.0 + 0.5 * n),
            ],
        };
        assert_eq!(log.max_share(0.1, 0.9), 0.0);
        assert!((log.max_share(0.5, 1.5) - 0.5).abs() < 1e-12);
        assert!((log.max_share(2.5, 9.0)).abs() < 1e-12);
        assert_eq!(StealLog::default().max_share(0.0, 1.0), 0.0);
    }
}
