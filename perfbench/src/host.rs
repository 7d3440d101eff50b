//! What a result is measured on: the pinned program, the host and the
//! process's memory.

use std::path::Path;
use std::time::Instant;

/// Environment knobs that change what the measured program does.  The
/// benchmark refuses to run while any is set, so it always measures the
/// shipped defaults.
const KNOBS: [&str; 7] = [
    "CC_SWEEP_THREADS",
    "CC_CHECK_THREADS",
    "CC_GRAPH_CACHE",
    "CC_VERDICT_MEMO",
    "CC_TIGHTEN_PRUNE",
    "CC_SWEEP_INCREMENTAL",
    "CC_WAVE_SIZE",
];

/// Knob families matched by prefix.
const KNOB_PREFIXES: [&str; 2] = ["CC_SERVE_", "CC_FAULT_"];

/// The knob variables set in this process's environment.
pub fn set_knobs() -> Vec<String> {
    let mut set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| KNOBS.contains(&k.as_str()) || KNOB_PREFIXES.iter().any(|p| k.starts_with(p)))
        .collect();
    set.sort();
    set
}

/// Logical CPUs the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn spin(iterations: u64) -> u64 {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x)
}

/// Effective parallelism: how many times more spin-loop work two threads
/// finish than one in the same time (2.0 on two free cores, about 1.0
/// when the two threads share one).
pub fn effective_parallelism() -> f64 {
    const ITERS: u64 = 40_000_000;
    let started = Instant::now();
    spin(ITERS);
    let one = started.elapsed().as_secs_f64();
    let started = Instant::now();
    std::thread::scope(|s| {
        let a = s.spawn(|| spin(ITERS));
        let b = s.spawn(|| spin(ITERS));
        a.join().expect("spin thread");
        b.join().expect("spin thread");
    });
    let two = started.elapsed().as_secs_f64();
    2.0 * one / two
}

/// `rustc --version` of the toolchain on the path.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// The measured commit: `git rev-parse HEAD` inside a git checkout,
/// otherwise an FNV-64 digest of the workspace sources (`Cargo.toml`,
/// `Cargo.lock` and every file under `crates/`).
pub fn commit() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success());
    if let Some(o) = git {
        return String::from_utf8_lossy(&o.stdout).trim().to_string();
    }
    let mut files = vec![
        Path::new("Cargo.toml").to_path_buf(),
        Path::new("Cargo.lock").to_path_buf(),
    ];
    let mut dirs = vec![Path::new("crates").to_path_buf()];
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                dirs.push(p);
            } else {
                files.push(p);
            }
        }
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for &b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("sources-fnv64:{h:016x}")
}

/// Cumulative CPU time of the host as (stolen, total) jiffies, from the
/// `cpu` line of `/proc/stat`.
pub fn cpu_steal() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets `VmHWM` to the current resident set, so the next workload of
/// one process reports its own peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
static START_TAKEN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Records the process start; `main` calls it before anything else.
pub fn mark_process_start() {
    START.get_or_init(Instant::now);
}

/// The recorded process start the first time it is asked for, `None`
/// afterwards: only the first workload of a process pays process start-up
/// in its set-up time.
pub fn take_process_start() -> Option<Instant> {
    if START_TAKEN.swap(true, std::sync::atomic::Ordering::Relaxed) {
        None
    } else {
        START.get().copied()
    }
}
