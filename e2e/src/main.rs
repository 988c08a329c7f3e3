//! `e2e` — the repository's end-to-end benchmark.
//!
//! ```text
//! e2e run     [--seed S] [--seconds N] [--trace 0|1] [--smoke] [--save FILE]
//! e2e one     --workload W [--seed S] [--seconds N] [--trace 0|1] [--smoke]
//! e2e compare A B
//! e2e repeat  [--sets 2] [--runs 5] [--seconds N]
//! e2e manifest
//! ```
//!
//! `one` measures one workload in this process and prints every metric
//! by name and unit, then the result line the driver reads; `run` does
//! that for all four, each in a process of its own so that
//! `peak_rss_mb` is one workload's. See `README.md` for the design.

mod cluster;
mod host;
mod input;
mod layers;
mod metrics;
mod oracle;
mod partition;
mod pool;
mod replicate;
mod runtime;
mod stats;
mod suite;
mod wrap;

use metrics::{Kind, Outcome, METRICS, WORKLOADS};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 24;
/// Epochs per second asked for, by workload: an epoch is 25-45 ms of
/// identical work, and these make a whole run (set-up repetitions and
/// oracle included) take about `--seconds` plus three when no
/// neighbour is busy. Work per run is fixed by the epoch count, not by
/// the clock, so that counts repeat exactly.
fn epochs_per_second(workload: &str) -> u64 {
    match workload {
        "replicate-mem" => 32,
        "replicate-seg" => 34,
        "pool-mixed" => 144,
        _ => 25,
    }
}

/// Set-up repetitions per run; `setup_s` is their minimum.
const SETUP_REPS: usize = 5;

/// What one measurement is asked to do.
pub struct Plan {
    pub workload: &'static str,
    pub seed: u64,
    pub epochs: usize,
    pub smoke: bool,
    pub traced: bool,
    /// Past this, measurement loops stop early and say so.
    pub deadline: Instant,
    /// What each set-up repetition reported so far, by metric.
    probes: RefCell<BTreeMap<&'static str, Vec<f64>>>,
}

impl Plan {
    /// Called before each epoch of an untraced run. The host's slow
    /// phases last longer than five set-ups in a row, so the
    /// repetitions are spread over the run: every fifth of it, one
    /// child process builds the workload's cluster from nothing,
    /// preloads it, and reports how long that took (this thread waits
    /// meanwhile, so still one thread runs).
    pub fn before_epoch(&self, epoch: usize) {
        let reps = if self.smoke { 2 } else { SETUP_REPS };
        let every = (self.epochs / reps).max(1);
        if self.traced || !epoch.is_multiple_of(every) || epoch / every >= reps {
            return;
        }
        let exe = std::env::current_exe().expect("path of this program");
        let out = Command::new(exe)
            .args(["setup", "--workload", self.workload])
            .args(["--seed", &self.seed.to_string()])
            .output()
            .expect("starting a set-up process");
        assert!(out.status.success(), "the set-up process failed");
        let text = String::from_utf8_lossy(&out.stdout);
        for word in text.split_whitespace() {
            let (name, seconds) = word.split_once('=').expect("name=seconds");
            let seconds: f64 = seconds.parse().expect("seconds");
            self.probes
                .borrow_mut()
                .entry(metrics::def(name).name)
                .or_default()
                .push(seconds);
        }
    }

    /// Add a repetition measured in this process.
    pub fn probe(&self, name: &'static str, seconds: f64) {
        self.probes
            .borrow_mut()
            .entry(name)
            .or_default()
            .push(seconds);
    }

    /// The single-shot durations: each the minimum of its repetitions.
    fn report_probes(&self, out: &mut Outcome) {
        for (name, times) in self.probes.borrow().iter() {
            let (q1, med, q3) = stats::quartiles(times);
            out.notes.push(format!(
                "{name}: min of {} repetitions spread over the run; median {med:.4}, quartiles {q1:.4}..{q3:.4}",
                times.len()
            ));
            out.set(name, times.iter().copied().fold(f64::INFINITY, f64::min));
        }
    }
}

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub smoke: bool,
    pub save: Option<String>,
    pub runs: usize,
    pub files: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        traced: false,
        smoke: false,
        save: None,
        runs: 5,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let number = |name: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{name} takes a whole number, got {v}"))
        };
        match arg.as_str() {
            "--workload" => out.workload = Some(value("--workload")?),
            "--seed" => out.seed = number("--seed", value("--seed")?)?,
            "--seconds" => out.seconds = number("--seconds", value("--seconds")?)?.clamp(1, 60),
            "--trace" => out.traced = number("--trace", value("--trace")?)? != 0,
            "--sets" => {
                if number("--sets", value("--sets")?)? != 2 {
                    return Err("repeat compares two sets".into());
                }
            }
            "--runs" => out.runs = number("--runs", value("--runs")?)?.max(1) as usize,
            "--save" => out.save = Some(value("--save")?),
            "--smoke" => out.smoke = true,
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            file => out.files.push(file.to_string()),
        }
    }
    Ok(out)
}

fn print_outcome(outcome: &Outcome, plan: &Plan) {
    println!(
        "workload {} seed {}: {}",
        outcome.workload,
        outcome.seed,
        if plan.traced {
            format!(
                "per-layer metrics from {0} epochs untraced, then {0} traced",
                plan.epochs / 4
            )
        } else {
            format!("end-to-end metrics from {} epochs, untraced", plan.epochs)
        }
    );
    for m in METRICS {
        let Some(value) = outcome.values.get(m.name) else {
            continue;
        };
        let bound = m.bound.map_or(String::new(), |b| {
            format!("  [may worsen {:.0}%]", b * 100.0)
        });
        println!("  {:<36} {:>16.4} {:<6}{bound}", m.name, value, m.unit);
    }
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    println!(
        "  correct {}  attempted {}  failed {}",
        outcome.correct, outcome.attempted, outcome.failed
    );
}

fn one(args: &Args) -> ExitCode {
    let Some(name) = args.workload.as_deref() else {
        eprintln!("one: --workload is required ({})", workload_names());
        return ExitCode::from(2);
    };
    let Some(workload) = WORKLOADS.iter().map(|w| w.0).find(|w| *w == name) else {
        eprintln!("unknown workload {name} ({})", workload_names());
        return ExitCode::from(2);
    };
    let plan = Plan {
        workload,
        seed: args.seed,
        // `--smoke`: half a second's worth, the oracle still on.
        epochs: if args.smoke {
            epochs_per_second(workload) as usize / 2
        } else {
            (args.seconds * epochs_per_second(workload)) as usize
        },
        smoke: args.smoke,
        traced: args.traced,
        // The driver's time for all its runs leaves a run about a
        // third more than `--seconds`.
        deadline: Instant::now() + Duration::from_secs((args.seconds * 5 / 4).max(10)),
        probes: RefCell::new(BTreeMap::new()),
    };
    let mut outcome = match workload {
        "replicate-mem" => replicate::run_mem(&plan),
        "replicate-seg" => replicate::run_seg(&plan),
        "pool-mixed" => pool::run(&plan),
        _ => partition::run(&plan),
    };
    plan.report_probes(&mut outcome);
    expect_complete(&outcome, plan.traced);
    print_outcome(&outcome, &plan);
    println!("{}", suite::result_line(&outcome, plan.traced));
    println!("{}", metrics::contract_line(&outcome, plan.traced));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One set-up repetition in a process of its own: build the
/// workload's cluster from nothing, preload it, and print what that
/// took as `name=seconds` words.
fn setup(args: &Args) -> ExitCode {
    let probes = match args.workload.as_deref() {
        Some("replicate-mem") => replicate::setup_mem(args.seed),
        Some("replicate-seg") => replicate::setup_seg(args.seed),
        Some("pool-mixed") => pool::setup(args.seed),
        Some("partition-heal") => partition::setup(args.seed),
        _ => return ExitCode::from(2),
    };
    for (name, seconds) in probes {
        print!("{name}={seconds} ");
    }
    println!();
    ExitCode::SUCCESS
}

/// `[("setup_s", seconds build took)]`, dropping what it built.
pub fn timed_setup<T>(build: impl FnOnce() -> T) -> Vec<(&'static str, f64)> {
    let t0 = Instant::now();
    let built = build();
    let seconds = t0.elapsed().as_secs_f64();
    drop(built);
    vec![("setup_s", seconds)]
}

fn workload_names() -> String {
    WORKLOADS.map(|(name, _)| name).join(", ")
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: e2e run|one|compare|repeat|manifest (see e2e/README.md)");
        return ExitCode::from(2);
    };
    let args = match parse(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e {command}: {e}");
            return ExitCode::from(2);
        }
    };
    match command.as_str() {
        "one" => one(&args),
        "setup" => setup(&args),
        "run" => suite::run(&args),
        "compare" => suite::compare(&args),
        "repeat" => suite::repeat(&args),
        "manifest" => {
            print!("{}", metrics::manifest(&suite::DRIVER_COMMAND, RUN_SECONDS));
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command {other}");
            ExitCode::from(2)
        }
    }
}

/// Metrics `one` must have set: all of a kind, for the pass it ran.
pub fn expect_complete(outcome: &Outcome, traced: bool) {
    for m in METRICS {
        let wanted = match m.kind {
            Kind::EndToEnd => !traced,
            Kind::Workload(w) => w == outcome.workload,
            Kind::Layer => false,
        };
        assert!(
            !wanted || outcome.values.contains_key(m.name),
            "{} did not report {}",
            outcome.workload,
            m.name
        );
    }
}
