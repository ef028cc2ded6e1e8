//! Host-speed benchmark of the trtsim workspace.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload engine_build --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `engine_build`, `numeric_infer`, `fleet_serve` (see their
//! modules for what each op does and why). With `--trace 0` the run
//! reports every end-to-end metric; with `--trace 1` it reports the
//! per-layer ledger of all three workloads, each layer timed from outside
//! through the library's public functions. Every metric scored here is
//! host speed; simulated outcomes are checked and printed, never scored.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it are
//! the human-readable report and run facts.

mod engine_build;
mod fleet_serve;
mod harness;
mod numeric_infer;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use harness::{Ledger, Outcome};
use stats::{hex, median, nearest_rank, quartiles, ratio, sorted, tail_percentile, windowed_tail};

/// Seed of the inputs whose simulated outputs are pinned in `digests.txt`.
pub const REFERENCE_SEED: u64 = 0;

/// Pinned reference digests: `<workload> <16 hex digits>` per line.
const PINNED: &str = include_str!("../digests.txt");

/// The pinned reference digest of `workload`, if it has one.
pub fn pinned(workload: &str) -> Option<u64> {
    PINNED.lines().find_map(|line| {
        let (name, value) = line.split_once(' ')?;
        (name == workload).then(|| u64::from_str_radix(value.trim(), 16).ok())?
    })
}

/// One workload: its entry points and the run facts the report prints.
struct Workload {
    name: &'static str,
    why: &'static str,
    exercises: &'static str,
    skips: &'static str,
    /// What one op counts as engines, images and requests.
    units: &'static str,
    run: fn(u64, f64) -> Outcome,
    ledger: fn(u64, f64) -> Ledger,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "engine_build",
        why: engine_build::WHY,
        exercises: engine_build::EXERCISES,
        skips: engine_build::SKIPS,
        units: "per op: 52 engine builds; each built engine is deserialized and its simulated \
                single-image latency evaluated once (counted as one image and one request)",
        run: engine_build::run,
        ledger: engine_build::ledger,
    },
    Workload {
        name: "numeric_infer",
        why: numeric_infer::WHY,
        exercises: numeric_infer::EXERCISES,
        skips: numeric_infer::SKIPS,
        units: "per op: 15 inference calls, each one engine run on one image as one \
                request; engines are built in set-up, so engines_per_s counts engine runs",
        run: numeric_infer::run,
        ledger: numeric_infer::ledger,
    },
    Workload {
        name: "fleet_serve",
        why: fleet_serve::WHY,
        exercises: fleet_serve::EXERCISES,
        skips: fleet_serve::SKIPS,
        units: "per op: one trace segment of simulated requests (each one camera frame); \
                engines are built in set-up, so engines_per_s is the set-up build rate",
        run: fleet_serve::run,
        ledger: fleet_serve::ledger,
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| w.name == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

/// The host as the run found it: CPUs available before pinning, and the
/// CPU the process pinned itself to.
struct Host {
    nproc: usize,
    cpu: Option<usize>,
}

impl std::fmt::Display for Host {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.cpu {
            Some(cpu) => write!(f, "nproc={}, pinned to CPU {cpu}", self.nproc),
            None => write!(f, "nproc={}, not pinned (the kernel refused)", self.nproc),
        }
    }
}

/// One reported metric: its value, unit, sample count and quartiles of the
/// samples it summarises, and a note on how it was taken.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
    q1: f64,
    q3: f64,
    note: String,
}

impl Metric {
    fn of(
        name: &str,
        unit: &'static str,
        samples: &[f64],
        value: f64,
        note: impl Into<String>,
    ) -> Self {
        let (q1, q3) = quartiles(samples);
        Self {
            name: name.to_string(),
            value,
            unit,
            samples: samples.len(),
            q1,
            q3,
            note: note.into(),
        }
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN or infinity; no metric should produce one.
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        attempted.max(1),
        body.join(", ")
    )
}

/// Percentile at which every scored op time is read. On a shared host
/// the clock swings between a base speed and bursts up to 1.8x faster,
/// and the share of ops a burst speeds up, or a hypervisor pause slows
/// down, differs from run to run. The median moves with the burst share
/// and the top decile with the pauses; the upper quartile moved least
/// between runs under either condition.
const SCORED_PCT: f64 = 75.0;

/// The [`SCORED_PCT`] percentile of `samples`; 0 for no samples.
fn scored(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        nearest_rank(&sorted(samples), SCORED_PCT)
    }
}

/// The end-to-end metrics of an untraced run, and whether it timed enough
/// ops for a tail.
fn end_to_end(o: &Outcome) -> (Vec<Metric>, bool) {
    let wall_ms: Vec<f64> = o.ops.iter().map(|c| c.wall_s * 1e3).collect();
    let op_ms = scored(&wall_ms);
    let rate = |per_op: f64| -> Vec<f64> { wall_ms.iter().map(|w| per_op * 1e3 / w).collect() };
    // The tail is read from the op's CPU time: on a shared host the
    // wall-clock tail is set by the time ops spend descheduled (wall minus
    // CPU), which the host decides, not the program. A window's tail is its
    // p90, blind to a cost that hits fewer than 1 op in 10; the whole run's
    // tail, which sees it, and the wall-clock tail, which sees blocking,
    // are printed beside it. Both moved by a fifth between identical runs.
    let cpu_ms: Vec<f64> = o.ops.iter().map(|c| c.cpu_s * 1e3).collect();
    let tail = windowed_tail(&cpu_ms);
    let tail_note = tail.map_or("too few ops for a tail".into(), |(p, _, windows)| {
        let wall = windowed_tail(&wall_ms).map_or(0.0, |t| t.1);
        let (wp, whole) = tail_percentile(&sorted(&cpu_ms)).unwrap_or((0.0, 0.0));
        format!(
            "op CPU time p{p} per {}-op window ({} ops beyond), median of {windows} \
             windows; whole run p{wp} {whole:.4} ms; wall-clock {wall:.4} ms",
            stats::TAIL_WINDOW,
            stats::TAIL_BEYOND
        )
    });
    let engines = if o.per_op.engines > 0.0 {
        Metric::of(
            "engines_per_s",
            "1/s",
            &rate(o.per_op.engines),
            ratio(o.per_op.engines * 1e3, op_ms),
            "op engines / p75 op",
        )
    } else {
        let r: Vec<f64> = o
            .setup
            .build_s
            .iter()
            .map(|b| ratio(o.setup_engines, *b))
            .collect();
        Metric::of(
            "engines_per_s",
            "1/s",
            &r,
            ratio(o.setup_engines, scored(&o.setup.build_s)),
            "set-up engines / p75 set-up build time",
        )
    };
    let cpu: Vec<f64> = o
        .ops
        .iter()
        .map(|c| ratio(c.cpu_s * 1e6, o.per_op.requests))
        .collect();
    let rss = stats::peak_rss_mb();
    let metrics = vec![
        Metric::of(
            "setup_s",
            "s",
            &o.setup.total_s,
            median(&o.setup.total_s),
            "median over set-up slices",
        ),
        Metric::of("peak_rss_mb", "MiB", &[rss], rss, "VmHWM of this process"),
        Metric::of(
            "op_p75_ms",
            "ms",
            &wall_ms,
            op_ms,
            format!("p75 op wall time; median {:.4} ms", median(&wall_ms)),
        ),
        Metric::of(
            "op_tail_ms",
            "ms",
            &cpu_ms,
            tail.map_or(0.0, |t| t.1),
            tail_note,
        ),
        engines,
        Metric::of(
            "images_per_s",
            "1/s",
            &rate(o.per_op.images),
            ratio(o.per_op.images * 1e3, op_ms),
            "op images / p75 op",
        ),
        Metric::of(
            "sim_requests_per_s",
            "1/s",
            &rate(o.per_op.requests),
            ratio(o.per_op.requests * 1e3, op_ms),
            "op requests / p75 op",
        ),
        Metric::of(
            "cpu_us_per_request",
            "us",
            &cpu,
            scored(&cpu),
            "p75 process CPU (all threads) per request",
        ),
    ];
    (metrics, tail.is_some())
}

fn run_untraced(args: &Args, host: &Host) -> String {
    let w = args.workload;
    let o = (w.run)(args.seed, args.seconds);
    let (mut attempted, mut failed) = (o.attempted, o.failed);
    println!(
        "perfbench {} seed={} seconds={} trace=0",
        w.name, args.seed, args.seconds
    );
    println!(
        "  {host}; host threads: 1 load thread (main) + {} serving-core threads",
        o.extra_threads
    );
    println!(
        "  set-up: {} repeats in {} slices; ops timed={} attempted={} failed={}",
        o.setup.repeats,
        o.setup.total_s.len(),
        o.ops.len(),
        o.attempted,
        o.failed
    );
    println!("  why: {}", w.why);
    println!("  exercises: {}", w.exercises);
    println!("  skips: {}", w.skips);
    println!("  units: {}", w.units);
    let (metrics, has_tail) = end_to_end(&o);
    // Too few ops for a tail is a failed run, not a perfect tail of 0.
    attempted += 1;
    failed += u64::from(!has_tail);
    println!(
        "  {:<20} {:>14} {:<5} {:>6} {:>14} {:>14}  note",
        "metric", "value", "unit", "n", "q1", "q3"
    );
    for m in &metrics {
        println!(
            "  {:<20} {:>14.4} {:<5} {:>6} {:>14.4} {:>14.4}  {}",
            m.name, m.value, m.unit, m.samples, m.q1, m.q3, m.note
        );
    }
    let determinism = if o.digest_deterministic {
        "deterministic: depends only on code and seed"
    } else {
        "non-deterministic while the serving core's threads race the simulated clock"
    };
    println!("  digest {} ({determinism})", hex(o.digest));
    if let Some(pin) = pinned(w.name) {
        let ok = o.reference == Some(pin);
        let got = o.reference.map_or("none".into(), hex);
        println!(
            "  reference digest {got} pinned {} {}",
            hex(pin),
            if ok { "ok" } else { "MISMATCH" }
        );
        attempted += 1;
        failed += u64::from(!ok);
    }
    for (name, value, unit) in &o.simulated {
        println!("  simulated, not scored: {name} = {value:.4} {unit}");
    }
    let flat: Vec<(String, f64, &str)> = metrics
        .iter()
        .map(|m| (m.name.clone(), m.value, m.unit))
        .collect();
    result_line(attempted, failed, &flat)
}

fn run_traced(args: &Args, host: &Host) -> String {
    let first = args.workload;
    println!(
        "perfbench ledger seed={} seconds={} trace=1 (all workloads, {} first)",
        args.seed, args.seconds, first.name
    );
    println!("  {host}; host threads: 1 load thread (main) + the serving core's own");
    let order = std::iter::once(first).chain(WORKLOADS.iter().filter(|w| w.name != first.name));
    let share = args.seconds / WORKLOADS.len() as f64;
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for w in order {
        let l = (w.ledger)(args.seed, share);
        attempted += l.attempted;
        failed += l.failed;
        let overhead = ratio(l.traced_p50_ms - l.untraced_p50_ms, l.untraced_p50_ms) * 100.0;
        println!(
            "  {}: op p50 untraced {:.4} ms, traced {:.4} ms, tracing overhead {overhead:.2}% \
             (attempted {}, failed {})",
            w.name, l.untraced_p50_ms, l.traced_p50_ms, l.attempted, l.failed
        );
        println!(
            "    {:<28} {:>8} {:>14} {:>14}",
            "span", "calls", "total ms", "self ms"
        );
        for (name, calls, total, own) in &l.self_times {
            println!(
                "    {name:<28} {calls:>8} {:>14.3} {:>14.3}",
                total / 1e3,
                own / 1e3
            );
        }
        for layer in &l.layers {
            println!(
                "    {:<40} {:>16.4} {}",
                layer.name, layer.value, layer.unit
            );
            metrics.push((layer.name.clone(), layer.value, layer.unit));
        }
        metrics.push((format!("trace.overhead_pct.{}", w.name), overhead, "%"));
    }
    result_line(attempted, failed, &metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Every workload's timed work runs on the main thread, and the serving
    // core's own threads (fleet_serve) time-share its CPU. Given the other
    // CPU of a 2-core host, their cross-CPU wake-ups nearly doubled
    // fleet_serve's CPU per request and its p75 op swung from 18 to 31 ms
    // over five runs; on one CPU it held within 3%.
    let host = Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu: stats::pin_to_current_cpu(),
    };
    let line = if args.trace {
        run_traced(&args, &host)
    } else {
        run_untraced(&args, &host)
    };
    println!("{line}");
    ExitCode::SUCCESS
}
