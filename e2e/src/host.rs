//! What the benchmark reads from the host: `/proc` counters, the
//! tmpfs scratch root, and the build/host identity recorded beside
//! results.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The benchmark's own directory (`e2e/`), fixed when it was built.
pub fn crate_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `e2e/out/`: span dumps and saved result sets (ignored by git).
pub fn out_dir() -> PathBuf {
    let dir = crate_dir().join("out");
    fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    dir
}

fn proc_field(path: &str, field: &str) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// `write`-family system calls issued by this process so far.
pub fn write_syscalls() -> u64 {
    proc_field("/proc/self/io", "syscw:").unwrap_or(0)
}

/// Bytes this process has passed to `write`-family calls so far.
pub fn written_bytes() -> u64 {
    proc_field("/proc/self/io", "wchar:").unwrap_or(0)
}

/// Thread ids of this process.
pub fn thread_ids() -> Vec<u64> {
    let Ok(entries) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut ids: Vec<u64> = entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse().ok())
        .collect();
    ids.sort_unstable();
    ids
}

/// Nanoseconds thread `tid` has spent on a CPU (first field of its
/// `schedstat`).
pub fn thread_cpu_ns(tid: u64) -> u64 {
    fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Regular files under `dir` (recursively) and their total size.
pub fn dir_usage(dir: &Path) -> (u64, u64) {
    let (mut files, mut bytes) = (0, 0);
    let Ok(entries) = fs::read_dir(dir) else {
        return (0, 0);
    };
    for entry in entries.flatten() {
        let Ok(meta) = entry.metadata() else { continue };
        if meta.is_dir() {
            let (f, b) = dir_usage(&entry.path());
            files += f;
            bytes += b;
        } else {
            files += 1;
            bytes += meta.len();
        }
    }
    (files, bytes)
}

/// A directory for segment files that is removed on drop. Segment
/// roots go on tmpfs (`/dev/shm`) so that no block device is in the
/// timings; without one they fall back to `e2e/out/`, and the output
/// says which was used.
pub struct ScratchRoot {
    path: PathBuf,
    pub tmpfs: bool,
}

impl ScratchRoot {
    pub fn new(tag: &str) -> Self {
        let name = format!("uc-e2e-{tag}-{}", std::process::id());
        let shm = Path::new("/dev/shm").join(&name);
        let _ = fs::remove_dir_all(&shm);
        if fs::create_dir_all(&shm).is_ok() {
            return ScratchRoot {
                path: shm,
                tmpfs: true,
            };
        }
        let path = out_dir().join(name);
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).unwrap_or_else(|e| panic!("creating {}: {e}", path.display()));
        ScratchRoot { path, tmpfs: false }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchRoot {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `nproc`, rustc and commit, for result headers.
pub fn identity() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "rustc unknown".into());
    let dir = crate_dir().to_string_lossy().to_string();
    let commit = command_line("git", &["-C", &dir, "rev-parse", "--short", "HEAD"])
        .unwrap_or_else(|| "not a git checkout".into());
    format!("nproc {nproc}; {rustc}; commit {commit}")
}
