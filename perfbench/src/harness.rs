//! What every workload shares: timing an op, repeating set-up, the run's
//! outcome, and the per-layer ledger rows of a traced run.

use std::time::Instant;

use crate::stats::{median, process_cpu_s};

/// Set-up is timed in up to this many slices, all before the first op, so
/// no op runs straight after a set-up has churned the heap and caches, and
/// peak RSS never holds two set-ups at once.
const SETUP_SLICES: usize = 16;
/// Slicing stops early once the slices have taken this long...
const SETUP_BUDGET_S: f64 = 6.0;
/// ...but not before this many slices have run.
const MIN_SETUP_SLICES: usize = 3;
/// Each slice repeats the set-up until it has taken this long.
const SLICE_BUDGET_S: f64 = 0.1;
/// Upper bound on the repeats of one slice.
const MAX_SLICE_REPEATS: usize = 250;

/// Wall and process-CPU time of one timed region.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Runs `f`, returning its result with its wall and process-CPU cost.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    let cpu0 = process_cpu_s();
    let t = Instant::now();
    let r = f();
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    (r, Cost { wall_s, cpu_s })
}

/// Set-up timings of one run, one entry per slice: the median of the
/// slice's repeats.
#[derive(Debug, Default)]
pub struct SetupTimes {
    /// Wall seconds of one complete set-up.
    pub total_s: Vec<f64>,
    /// Wall seconds one set-up spent building engines.
    pub build_s: Vec<f64>,
    /// Set-ups run over all slices.
    pub repeats: usize,
}

impl SetupTimes {
    /// Times `setup` (which returns its result and the seconds it spent
    /// building engines) in slices until [`SETUP_SLICES`] have run or
    /// [`SETUP_BUDGET_S`] has passed, and returns the timings with the last
    /// result. Each result is dropped before the next set-up starts.
    pub fn run<S>(mut setup: impl FnMut() -> (S, f64)) -> (Self, S) {
        let mut times = Self::default();
        let started = Instant::now();
        loop {
            let kept = times.slice(&mut setup);
            let slices = times.total_s.len();
            if slices >= SETUP_SLICES
                || (slices >= MIN_SETUP_SLICES && started.elapsed().as_secs_f64() >= SETUP_BUDGET_S)
            {
                return (times, kept);
            }
        }
    }

    /// Runs one slice: repeats `setup` until [`SLICE_BUDGET_S`] has passed,
    /// at least once, and returns the last result.
    fn slice<S>(&mut self, setup: &mut impl FnMut() -> (S, f64)) -> S {
        let started = Instant::now();
        let (mut total, mut build) = (Vec::new(), Vec::new());
        loop {
            let ((kept, built), cost) = timed(&mut *setup);
            total.push(cost.wall_s);
            build.push(built);
            if started.elapsed().as_secs_f64() >= SLICE_BUDGET_S || total.len() >= MAX_SLICE_REPEATS
            {
                self.total_s.push(median(&total));
                self.build_s.push(median(&build));
                self.repeats += total.len();
                return kept;
            }
        }
    }
}

/// Untimed ops run this long before timing starts, so caches fill and the
/// heap reaches its steady size first.
const WARMUP_S: f64 = 1.0;

/// Timed ops of a run, with the count of ops run and failed, warm-up
/// included.
pub struct Measured {
    pub costs: Vec<Cost>,
    pub attempted: u64,
    pub failed: u64,
}

/// Runs `op` for [`WARMUP_S`] untimed, then back to back until `seconds`
/// have passed (at least once). `op` takes the op index and returns its
/// timed cost and whether its output checks passed.
pub fn measure(seconds: f64, mut op: impl FnMut(usize) -> (Cost, bool)) -> Measured {
    let mut i = 0;
    let mut failed = 0;
    let mut run_op = |i: &mut usize| {
        let (cost, ok) = op(*i);
        failed += u64::from(!ok);
        *i += 1;
        cost
    };
    let started = Instant::now();
    while i == 0 || started.elapsed().as_secs_f64() < WARMUP_S {
        run_op(&mut i);
    }
    let mut costs = Vec::new();
    let started = Instant::now();
    while costs.is_empty() || started.elapsed().as_secs_f64() < seconds {
        costs.push(run_op(&mut i));
    }
    Measured {
        costs,
        attempted: i as u64,
        failed,
    }
}

/// Units of work one op completes.
#[derive(Debug, Clone, Copy)]
pub struct Units {
    pub engines: f64,
    pub images: f64,
    pub requests: f64,
}

/// Everything an untraced run measured and checked.
pub struct Outcome {
    pub setup: SetupTimes,
    /// Engines each set-up builds.
    pub setup_engines: f64,
    pub ops: Vec<Cost>,
    pub per_op: Units,
    pub attempted: u64,
    pub failed: u64,
    /// Hash of the run's ordered simulated outputs.
    pub digest: u64,
    /// Whether `digest` depends only on (code, seed).
    pub digest_deterministic: bool,
    /// Digest of the seed-independent reference inputs, for workloads whose
    /// simulated outputs are pinned.
    pub reference: Option<u64>,
    /// Simulated outcomes, printed and never scored: (name, value, unit).
    pub simulated: Vec<(&'static str, f64, &'static str)>,
    /// Host threads the run started besides the main thread.
    pub extra_threads: usize,
}

impl Outcome {
    /// A run whose set-up failed: one failed op, nothing measured.
    pub fn failed_setup(setup: SetupTimes) -> Self {
        Self {
            setup,
            setup_engines: 0.0,
            ops: Vec::new(),
            per_op: Units {
                engines: 0.0,
                images: 0.0,
                requests: 0.0,
            },
            attempted: 1,
            failed: 1,
            digest: 0,
            digest_deterministic: true,
            reference: None,
            simulated: Vec::new(),
            extra_threads: 0,
        }
    }
}

/// One per-layer metric of a traced run.
#[derive(Debug, Clone)]
pub struct Layer {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Layer {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A traced run of one workload: its ledger rows, checks, and the tracing
/// overhead on its op's median.
pub struct Ledger {
    pub layers: Vec<Layer>,
    pub attempted: u64,
    pub failed: u64,
    pub untraced_p50_ms: f64,
    pub traced_p50_ms: f64,
    pub self_times: Vec<(&'static str, usize, f64, f64)>,
}

impl Ledger {
    /// A traced run whose set-up failed: one failed op, no ledger rows.
    pub fn failed(self_times: Vec<(&'static str, usize, f64, f64)>) -> Self {
        Self {
            layers: Vec::new(),
            attempted: 1,
            failed: 1,
            untraced_p50_ms: 0.0,
            traced_p50_ms: 0.0,
            self_times,
        }
    }
}

/// Alternates untraced and traced ops for `seconds`, so both medians see
/// the same host conditions. `op` takes (op index, traced?).
pub fn alternate(
    seconds: f64,
    mut op: impl FnMut(usize, bool) -> (Cost, bool),
) -> (Vec<f64>, Vec<f64>, u64, u64) {
    let started = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut failed = 0;
    let mut i = 0;
    while i < 2 || started.elapsed().as_secs_f64() < seconds {
        let on = i % 2 == 1;
        let (cost, ok) = op(i, on);
        if on {
            traced.push(cost.wall_s * 1e3);
        } else {
            plain.push(cost.wall_s * 1e3);
        }
        failed += u64::from(!ok);
        i += 1;
    }
    (plain, traced, i as u64, failed)
}
