//! Commands over several runs: `run` (all workloads, one process
//! each), `compare` (two saved result sets) and `repeat` (two
//! interleaved sets of the same code, which must agree).

use crate::metrics::{end_to_end_on, MetricDef, Outcome, METRICS, WORKLOADS};
use crate::stats::quartiles;
use crate::{host, Args};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};

/// `command` of `BENCHMARK.json`; the driver appends `--workload`,
/// `--seed`, `--seconds` and `--trace`.
pub const DRIVER_COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "e2e/Cargo.toml",
    "--",
    "one",
];

const RESULT_TAG: &str = "RESULT ";

/// One run as a line of `key=value` words: what `run --save` keeps
/// and `compare` reads.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let mut line = format!(
        "{RESULT_TAG}workload={} seed={} traced={} correct={} attempted={} failed={}",
        outcome.workload,
        outcome.seed,
        traced as u8,
        outcome.correct,
        outcome.attempted,
        outcome.failed
    );
    for (name, value) in &outcome.values {
        line.push_str(&format!(" {name}={value}"));
    }
    line
}

/// A parsed result line.
struct Run {
    workload: String,
    traced: bool,
    correct: bool,
    failed: u64,
    values: BTreeMap<String, f64>,
}

fn parse_result(line: &str) -> Option<Run> {
    let words = line.strip_prefix(RESULT_TAG)?;
    let mut run = Run {
        workload: String::new(),
        traced: false,
        correct: false,
        failed: 0,
        values: BTreeMap::new(),
    };
    for word in words.split_whitespace() {
        let (key, value) = word.split_once('=')?;
        match key {
            "workload" => run.workload = value.to_string(),
            "traced" => run.traced = value == "1",
            "correct" => run.correct = value == "true",
            "failed" => run.failed = value.parse().ok()?,
            "seed" | "attempted" => {}
            metric => {
                run.values.insert(metric.to_string(), value.parse().ok()?);
            }
        }
    }
    Some(run)
}

/// Run `e2e one` for `workload` in a child process, echoing its
/// report; returns its result line.
fn spawn_one(workload: &str, seed: u64, args: &Args, traced: bool, echo: bool) -> Option<String> {
    let exe = std::env::current_exe().expect("path of this program");
    let mut cmd = Command::new(exe);
    cmd.arg("one")
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd
        .stdout(Stdio::piped())
        .spawn()
        .expect("starting a workload process");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut result = None;
    for line in BufReader::new(stdout).lines().map_while(Result::ok) {
        if line.starts_with(RESULT_TAG) {
            result = Some(line);
        } else if echo && !line.starts_with('{') {
            println!("{line}");
        }
    }
    let status = child.wait().expect("waiting for the workload process");
    if !status.success() {
        eprintln!("{workload}: the workload process failed ({status})");
        return None;
    }
    result
}

pub fn run(args: &Args) -> ExitCode {
    println!("{}", host::identity());
    let mut lines = Vec::new();
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        for traced in [false, true] {
            if traced && !args.traced {
                continue;
            }
            match spawn_one(workload, args.seed, args, traced, true) {
                Some(line) => lines.push(line),
                None => ok = false,
            }
        }
    }
    if let Some(path) = &args.save {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .unwrap_or_else(|e| panic!("opening {path}: {e}"));
        for line in &lines {
            writeln!(file, "{line}").unwrap_or_else(|e| panic!("writing {path}: {e}"));
        }
        println!("{} result lines appended to {path}", lines.len());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Untraced runs of a result set: workload → metric → values.
type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn collect(lines: impl IntoIterator<Item = String>) -> ResultSet {
    let mut set = ResultSet::new();
    for run in lines.into_iter().filter_map(|l| parse_result(&l)) {
        if run.traced {
            continue;
        }
        let by_metric = set.entry(run.workload).or_default();
        for (metric, value) in run.values {
            by_metric.entry(metric).or_default().push(value);
        }
    }
    set
}

fn read_set(path: &str) -> ResultSet {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    collect(text.lines().map(str::to_string))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// Quartile range as a share of the median.
fn spread((q1, med, q3): (f64, f64, f64)) -> f64 {
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med
    }
}

/// By how much of `a`'s median `b`'s median is worse.
fn worsening(m: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if m.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

fn judge(m: &MetricDef, a: (f64, f64, f64), b: (f64, f64, f64)) -> Verdict {
    let bound = m.bound.expect("only bounded metrics are judged");
    let wide = spread(a) > bound || spread(b) > bound;
    let overlap = a.0 <= b.2 && b.0 <= a.2;
    if wide && overlap {
        Verdict::Unresolved
    } else if worsening(m, a.1, b.1) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Print the workload × metric table of `a` against `b`; returns how
/// many pairs were judged and the verdicts that are not `Ok`.
fn compare_sets(a: &ResultSet, b: &ResultSet) -> (usize, Vec<(String, &'static str, Verdict)>) {
    let mut flagged = Vec::new();
    let mut judged = 0;
    println!(
        "| workload | metric | unit | A median (q1..q3) | B median (q1..q3) | B worse by | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for (workload, _) in WORKLOADS {
        let (Some(va), Some(vb)) = (a.get(workload), b.get(workload)) else {
            continue;
        };
        for m in METRICS.iter().filter(|m| end_to_end_on(m, workload)) {
            let (Some(xa), Some(xb)) = (va.get(m.name), vb.get(m.name)) else {
                continue;
            };
            let (qa, qb) = (quartiles(xa), quartiles(xb));
            let verdict = judge(m, qa, qb);
            judged += 1;
            println!(
                "| {workload} | {} | {} | {:.4} ({:.4}..{:.4}) | {:.4} ({:.4}..{:.4}) | {:+.2}% | {:.0}% | {} |",
                m.name,
                m.unit,
                qa.1,
                qa.0,
                qa.2,
                qb.1,
                qb.0,
                qb.2,
                100.0 * worsening(m, qa.1, qb.1),
                100.0 * m.bound.expect("bounded"),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
            if verdict != Verdict::Ok {
                flagged.push((workload.to_string(), m.name, verdict));
            }
        }
    }
    (judged, flagged)
}

pub fn compare(args: &Args) -> ExitCode {
    let [a, b] = args.files.as_slice() else {
        eprintln!("compare: two result files (written by `e2e run --save`) are required");
        return ExitCode::from(2);
    };
    println!("A = {a}, B = {b}; a run set is judged by its median, its spread is q1..q3\n");
    let (judged, flagged) = compare_sets(&read_set(a), &read_set(b));
    let regressed = flagged
        .iter()
        .filter(|(_, _, v)| *v == Verdict::Regressed)
        .count();
    println!(
        "\n{judged} workload × metric pairs judged: {regressed} regressed, {} unresolved",
        flagged.len() - regressed
    );
    if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Two interleaved sets of runs of this same build. They must agree:
/// a benchmark whose medians move by more than its own bounds between
/// two sets of the same code cannot judge a change.
pub fn repeat(args: &Args) -> ExitCode {
    println!("# Repeatability of the end-to-end benchmark\n");
    println!(
        "`e2e repeat --sets 2 --runs {} --seconds {}`: every workload, two interleaved sets of runs of the same build, every run with a seed of its own.\n",
        args.runs, args.seconds
    );
    let tmpfs = host::ScratchRoot::new("probe").tmpfs;
    println!(
        "Host: {}; segment files on {}.\n",
        host::identity(),
        if tmpfs {
            "tmpfs (/dev/shm)"
        } else {
            "e2e/out (no tmpfs)"
        }
    );
    let mut sets: Vec<Vec<String>> = vec![Vec::new(); 2];
    let mut failures = 0;
    for run in 0..args.runs {
        for (s, set) in sets.iter_mut().enumerate() {
            for (workload, _) in WORKLOADS {
                let seed = (s * args.runs + run + 1) as u64;
                match spawn_one(workload, seed, args, false, false) {
                    Some(line) => {
                        if !parse_result(&line).is_some_and(|r| r.correct && r.failed == 0) {
                            failures += 1;
                        }
                        set.push(line);
                    }
                    None => failures += 1,
                }
            }
        }
    }
    let [a, b] = [collect(sets[0].clone()), collect(sets[1].clone())];
    let (judged, flagged) = compare_sets(&a, &b);
    println!();
    // The same judgement the other way round: neither set may be
    // worse than the other by more than the bound.
    let mut disagree = 0;
    for (workload, _) in WORKLOADS {
        for m in METRICS.iter().filter(|m| end_to_end_on(m, workload)) {
            let (Some(xa), Some(xb)) = (
                a.get(workload).and_then(|v| v.get(m.name)),
                b.get(workload).and_then(|v| v.get(m.name)),
            ) else {
                continue;
            };
            let (ma, mb) = (quartiles(xa).1, quartiles(xb).1);
            let gap = worsening(m, ma, mb).abs().max(worsening(m, mb, ma).abs());
            if gap > m.bound.expect("bounded") {
                println!(
                    "- **disagree**: {workload} {}: medians {ma:.4} and {mb:.4} differ by {:.1}%",
                    m.name,
                    gap * 100.0
                );
                disagree += 1;
            }
        }
    }
    println!(
        "{judged} workload × metric pairs judged; {disagree} medians differ between the sets by more than their bound; {} flagged by `compare`; {failures} runs failed or were incorrect.",
        flagged.len()
    );
    if disagree == 0 && failures == 0 {
        println!("\nVerdict: **repeatable** within the benchmark's own bounds.");
        ExitCode::SUCCESS
    } else {
        println!("\nVerdict: **not repeatable**.");
        ExitCode::FAILURE
    }
}
