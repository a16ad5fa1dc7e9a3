//! The host the numbers came from, and the two conditions under which
//! the bench refuses to run: a `PDTL_*` override in the environment
//! (rows must measure the shipped defaults) or too little free space
//! for the scratch files.

use std::path::{Path, PathBuf};
use std::process::Command;

use pdtl_core::intersect::{simd_level, SimdLevel};
use pdtl_core::mgt::MgtOptions;
use pdtl_io::{mmap_supported, uring_supported};

use crate::ops::Res;

/// Free space the scratch files need with room to spare.
const MIN_FREE_BYTES: u64 = 2 << 30;

/// `<target>/pdtl-bench/`: scratch, traces and result documents. The
/// bench binary lives in `<target>/<profile>/`, so everything it writes
/// stays inside the checkout that built it.
pub fn bench_dir() -> Res<PathBuf> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    exe.parent()
        .and_then(Path::parent)
        .map(|target| target.join("pdtl-bench"))
        .ok_or_else(|| format!("{} has no target directory above it", exe.display()))
}

/// Free bytes on the filesystem holding `dir`, from `df -Pk`; `None`
/// when `df` is unavailable or unparseable.
fn free_bytes(dir: &Path) -> Option<u64> {
    let out = Command::new("df").arg("-Pk").arg(dir).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let kib: u64 = text
        .lines()
        .nth(1)?
        .split_whitespace()
        .nth(3)?
        .parse()
        .ok()?;
    Some(kib * 1024)
}

/// Refuse to measure anything but the shipped defaults, or without
/// room for the scratch files.
pub fn refuse_unless_clean() -> Res<()> {
    let overrides: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PDTL_"))
        .collect();
    if !overrides.is_empty() {
        return Err(format!(
            "refusing to run with {} set: the bench measures the shipped defaults",
            overrides.join(", ")
        ));
    }
    let dir = bench_dir()?;
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    match free_bytes(&dir) {
        Some(free) if free < MIN_FREE_BYTES => Err(format!(
            "refusing to run with {} MiB free under {} (need {} MiB)",
            free >> 20,
            dir.display(),
            MIN_FREE_BYTES >> 20
        )),
        _ => Ok(()),
    }
}

fn first_line_after(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn cache_sizes() -> String {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            break;
        };
        out.push(format!("L{} {} {}", level.trim(), kind.trim(), size.trim()));
    }
    if out.is_empty() {
        "unknown".into()
    } else {
        out.join(", ")
    }
}

/// The checked-out commit, when the working directory is a git
/// checkout; asked only then, so `git` never searches above it.
fn git_commit() -> String {
    let unknown = || "unknown (not a git checkout)".to_string();
    if !Path::new(".git").exists() {
        return unknown();
    }
    match Command::new("git").args(["rev-parse", "HEAD"]).output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().into(),
        _ => unknown(),
    }
}

/// The `env` block: everything needed to compare two snapshots from
/// different hosts as ratios. `calib_ns` is `intersect.calib_scalar_ns`.
pub fn describe(seed: u64, calib_ns: f64) -> Vec<(&'static str, String)> {
    let defaults = MgtOptions::default();
    vec![
        ("git_commit", git_commit()),
        ("seed", seed.to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "cpu_model",
            first_line_after("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
        ),
        ("cpu_caches", cache_sizes()),
        ("simd_level", simd_level().name().to_string()),
        ("simd_detected", SimdLevel::detect().name().to_string()),
        ("uring_supported", uring_supported().to_string()),
        ("mmap_supported", mmap_supported().to_string()),
        ("default_backend", defaults.backend.name().to_string()),
        (
            "default_backend_resolved",
            defaults.backend.resolve().name().to_string(),
        ),
        ("default_codec", defaults.codec.name().to_string()),
        ("intersect.calib_scalar_ns", format!("{calib_ns}")),
    ]
}

/// `VmHWM` of this process in MiB, from `/proc/self/status`.
pub fn peak_rss_mib() -> Res<f64> {
    let kib = first_line_after("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}
