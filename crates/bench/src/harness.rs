//! What the hand-rolled benches (`batching`, `concurrent`, `snapshot`)
//! share: the smoke flag, the median, the host line and the one way a
//! result leaves the process.

use std::process::Command;

/// `UC_BENCH_SMOKE=1` asks for a CI-sized run, which writes no
/// baseline.
pub fn smoke() -> bool {
    std::env::var("UC_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

/// The median of `samples` (the upper middle one of an even count).
pub fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `nproc`, rustc and commit, as the end-to-end benchmark's result
/// headers carry them; the commit reads `-dirty` when the working tree
/// differs from it.
pub fn host() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "rustc unknown".into());
    let dir = env!("CARGO_MANIFEST_DIR");
    let commit = command_line("git", &["-C", dir, "describe", "--always", "--dirty"])
        .unwrap_or_else(|| "not a git checkout".into());
    format!("nproc {nproc}; {rustc}; commit {commit}")
}

/// A JSON array of `items` (each already JSON), one per line.
pub fn array(items: &[String]) -> String {
    format!("[\n    {}\n  ]", items.join(",\n    "))
}

/// The bench's result: `members` (name, JSON value) after the bench's
/// name, the host line and the smoke flag, as one object. Printed as
/// one `BENCH_JSON {...}` line, and on a full run written to
/// `BENCH_<name>.json` at the workspace root.
pub fn emit(name: &str, members: &[(&str, String)]) {
    let head = [
        ("bench", format!("\"{name}\"")),
        ("host", format!("\"{}\"", host())),
        ("smoke", smoke().to_string()),
    ];
    let lines: Vec<String> = head
        .iter()
        .chain(members)
        .map(|(key, value)| format!("  \"{key}\": {value}"))
        .collect();
    let json = format!("{{\n{}\n}}\n", lines.join(",\n"));
    println!(
        "\nBENCH_JSON {}",
        json.split_whitespace().collect::<Vec<_>>().join(" ")
    );
    if !smoke() {
        let out = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&out, json).expect("write baseline json");
        println!("wrote {out}");
    }
}
