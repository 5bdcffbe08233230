//! Host plumbing: CPU pinning, `/proc` status fields, the repo root,
//! the `repro` build, and the facts recorded in every artifact header.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::SystemTime;

/// `cpu_set_t` as glibc lays it out: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on, ascending.
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a valid, writable 128-byte buffer and the size
    // passed is exactly its size; pid 0 means the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok((0..1024)
        .filter(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)
        .collect())
}

/// Restricts the calling thread — and every thread or process it spawns
/// afterwards — to `cpus`.
#[cfg(target_os = "linux")]
pub fn set_affinity(cpus: &[usize]) -> Result<(), String> {
    let mut mask: CpuSet = [0; 16];
    for &c in cpus {
        *mask
            .get_mut(c / 64)
            .ok_or(format!("CPU {c} is beyond the 1024 a cpu_set_t holds"))? |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a valid 128-byte cpu_set_t and the size passed is
    // exactly its size; pid 0 means the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity({cpus:?}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    Err("CPU pinning is only implemented for Linux".to_string())
}

#[cfg(not(target_os = "linux"))]
pub fn set_affinity(_cpus: &[usize]) -> Result<(), String> {
    Err("CPU pinning is only implemented for Linux".to_string())
}

/// Pins the calling thread — and every thread it spawns afterwards — to
/// the highest-numbered CPU its affinity mask allows, and returns that
/// CPU. Thread-per-cell makes unpinned wall time scheduler noise (see
/// README), so simulator workloads refuse to report comparable numbers
/// when this fails.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let cpu = *allowed_cpus()?.last().ok_or("empty CPU affinity mask")?;
    set_affinity(&[cpu])?;
    Ok(cpu)
}

/// A numeric field of `/proc/<pid>/status` (`VmHWM` in kB, `Threads`).
pub fn proc_status(pid: u32, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_status(&text, key)
}

fn parse_status(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_ascii_whitespace().next()?.parse().ok())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The repo root: the working directory when it holds the benchmark (the
/// acceptance driver and the documented commands both run from there),
/// else the checkout this binary was built in.
pub fn repo_root() -> Result<PathBuf, String> {
    let looks_like_root =
        |p: &Path| p.join("perf/Cargo.toml").is_file() && p.join("crates").is_dir();
    let cwd =
        std::env::current_dir().map_err(|e| format!("cannot read the working directory: {e}"))?;
    if looks_like_root(&cwd) {
        return Ok(cwd);
    }
    let built_in = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if looks_like_root(&built_in) {
        return built_in
            .canonicalize()
            .map_err(|e| format!("{}: {e}", built_in.display()));
    }
    Err(format!(
        "{} is not the repo root (no perf/Cargo.toml + crates/); run apperf from the repo root",
        cwd.display()
    ))
}

/// Scratch space for one apperf process, removed on drop.
pub struct TmpDir(PathBuf);

impl TmpDir {
    pub fn create(root: &Path) -> Result<TmpDir, String> {
        let dir = root.join(format!("perf/tmp/{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(TmpDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Take `perf/tmp` with it when this was its last tenant.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn target_dir(root: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) if !dir.is_empty() => root.join(dir), // join keeps an absolute path as is
        _ => root.join("target"),
    }
}

pub fn repro_path(root: &Path) -> PathBuf {
    target_dir(root).join("release/repro")
}

/// Folds the build inputs under `path` (a file, or a directory walked
/// recursively) into `newest`, the most recently modified one so far.
fn newest_source(path: &Path, newest: &mut Option<(SystemTime, PathBuf)>) {
    let Ok(meta) = std::fs::metadata(path) else {
        return;
    };
    if meta.is_dir() {
        for entry in std::fs::read_dir(path).into_iter().flatten().flatten() {
            newest_source(&entry.path(), newest);
        }
    } else if path
        .extension()
        .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
    {
        if let Ok(t) = meta.modified() {
            if newest.as_ref().is_none_or(|(best, _)| t > *best) {
                *newest = Some((t, path.to_path_buf()));
            }
        }
    }
}

/// Fails when `repro` is older than a source it is built from. A bare
/// root `cargo build --release` does not rebuild the `repro` binary, so
/// a stale one is an easy mistake, and a benchmark of a stale server
/// measures the wrong code.
fn check_repro_fresh(root: &Path) -> Result<(), String> {
    let bin = repro_path(root);
    let built = std::fs::metadata(&bin)
        .and_then(|m| m.modified())
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let mut newest = None;
    for input in ["crates", "shims", "Cargo.toml", "Cargo.lock"] {
        newest_source(&root.join(input), &mut newest);
    }
    match newest {
        Some((t, path)) if t > built => Err(format!(
            "{} is older than {}; rebuild with `cargo build --release -p apbench --bins`",
            bin.display(),
            path.display()
        )),
        _ => Ok(()),
    }
}

/// `cargo build --release -p apbench --bins` at the repo root (a no-op
/// check when nothing changed), then the staleness check.
pub fn ensure_repro_built(root: &Path) -> Result<(), String> {
    let out = Command::new("cargo")
        .args(["build", "--release", "--quiet", "-p", "apbench", "--bins"])
        .current_dir(root)
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "cargo build --release -p apbench --bins failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    check_repro_fresh(root)
}

fn command_line(root: &Path, program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(root)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Short git revision of the checkout, or `"unknown"` outside a git
/// repository (the acceptance driver's checkout is not one).
pub fn git_rev(root: &Path) -> String {
    command_line(root, "git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

pub fn rustc_version(root: &Path) -> String {
    command_line(root, "rustc", &["--version"]).unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let text = "Name:\tapperf\nVmHWM:\t  123456 kB\nThreads:\t1025\n";
        assert_eq!(parse_status(text, "VmHWM"), Some(123_456));
        assert_eq!(parse_status(text, "Threads"), Some(1025));
        assert_eq!(parse_status(text, "VmRSS"), None);
        // A key that is a prefix of another field must not match it.
        assert_eq!(parse_status("VmHWMx:\t1 kB\n", "VmHWM"), None);
    }

    #[test]
    fn own_status_is_readable() {
        let me = std::process::id();
        assert!(proc_status(me, "Threads").is_some_and(|t| t >= 1));
        assert!(proc_status(me, "VmHWM").is_some_and(|kb| kb > 0));
    }
}
