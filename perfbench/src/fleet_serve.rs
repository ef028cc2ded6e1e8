//! `fleet_serve`: max-clock NX and AGX boards, each hosting GoogLeNet and
//! Tiny-YOLOv3 replicas, behind the predictive fleet router.
//!
//! One op is one trace segment simulated end to end: `FleetBuilder::start`,
//! `Fleet::submit` of a diurnal arrival trace in arrival order, then
//! `Fleet::drain`. The trace has bench_serving's diurnal shape, scaled to
//! this fleet's capacity. The load is open-loop on the simulated clock and
//! not paced against it on the host: the submitting thread only yields its
//! CPU to the serving threads every few requests. There is no deadline
//! admission, no batch wait, and every queue holds a whole segment, so
//! nothing is refused and every op offers the same simulated work. The
//! serving core's worker threads are the only threads besides the main
//! one; their scheduling moves the simulated outcomes, which are therefore
//! printed and never scored.

use trtsim_core::fleet::{FleetBuilder, FleetConfig, FleetStats};
use trtsim_core::predict::{EngineFeatures, LatencyModel, QueueSignals};
use trtsim_core::reqtrace::{FlightRecorder, RequestTrace, TraceOptions};
use trtsim_core::runtime::{ExecutionContext, TimingOptions};
use trtsim_core::serving::{ServerConfig, ServingError};
use trtsim_core::{Builder, BuilderConfig, Engine, EngineError};
use trtsim_data::traffic::ArrivalTrace;
use trtsim_gpu::device::{DeviceSpec, Platform};
use trtsim_gpu::timeline::GpuTimeline;
use trtsim_metrics::{log_buckets, render_prometheus, Registry};
use trtsim_models::ModelId;
use trtsim_util::derive_seed;
use trtsim_util::rng::Pcg32;

use crate::harness::{self, timed, Layer, Ledger, Outcome, SetupTimes, Units};
use crate::stats::{median, nearest_rank, ratio, sorted, tail_percentile, Digest};
use crate::trace::Tracer;

pub const WHY: &str = "router, batcher, predictor, flight recorder, timeline enqueue and \
     telemetry under load with no numerics and no autotune";
pub const EXERCISES: &str = "core::{fleet, serving, predict, reqtrace, runtime}, \
     trtsim-gpu::timeline, metrics::telemetry; engine builds in set-up";
pub const SKIPS: &str = "trtsim-kernels, core::{fastpath, compress, calibrate, plan}, trtsim-data \
     images, autotune in the timed op";

/// Requests in one trace segment.
pub const REQUESTS: usize = 2_000;
/// Segments the ops cycle through.
const SEGMENTS: usize = 4;
/// Worker streams per replica: one, as on bench_serving's smallest board,
/// so the serving core runs one thread per replica.
const WORKERS: usize = 1;
/// Largest batch the replicas' batchers form, as in bench_serving.
const MAX_BATCH: usize = 4;
/// The submitting thread hands its CPU to the serving threads after this
/// many requests, about one full batch per replica, so completions, and
/// with them the shared latency model's training, interleave with routing.
/// Without the handoff the whole segment is routed before the first
/// completion and the router never leaves its cold-model heuristic.
const HANDOFF_EVERY: usize = MAX_BATCH * DEVICES.len() * MODELS.len();
/// bench_serving's diurnal trace: trough gap, crest gap and cycle, µs. Its
/// mean rate is about 0.7x its fleet's batch-4 drain capacity, with crests
/// above it. The segments keep this shape, time-scaled so their mean rate
/// is [`LOAD`] times this fleet's capacity.
const SERVING_DIURNAL_US: [f64; 3] = [10_000.0, 150.0, 50_000.0];
/// Mean offered load as a share of the fleet's batch-4 drain capacity.
const LOAD: f64 = 0.7;
/// Fixed build seed: the engines never depend on the workload seed.
const ENGINE_SEED: u64 = 0xf1ee7;

const DEVICES: [(&str, Platform); 2] = [("nx", Platform::Nx), ("agx", Platform::Agx)];
const MODELS: [ModelId; 2] = [ModelId::Googlenet, ModelId::TinyYolov3];

fn server_config(model: ModelId) -> ServerConfig {
    ServerConfig::default()
        .with_workers(WORKERS)
        .with_queue_capacity(REQUESTS)
        .with_max_batch_size(MAX_BATCH)
        .with_batch_timeout_us(0.0)
        .with_timing(timing(model))
}

fn timing(model: ModelId) -> TimingOptions {
    TimingOptions::default()
        .without_engine_upload()
        .with_host_glue_us(model.info().host_glue_us)
        .with_run_jitter_sd(0.0)
}

/// Set-up: one engine per (device, model), and the trace segments.
pub struct Setup {
    /// (device index, model index, engine), device-major.
    engines: Vec<(usize, usize, Engine)>,
    /// Per segment: (model index, arrival µs) in arrival order.
    segments: Vec<Vec<(usize, f64)>>,
    /// The fleet's batch-[`MAX_BATCH`] drain capacity, requests/s.
    capacity_per_s: f64,
}

/// The fleet's batch-[`MAX_BATCH`] drain capacity, requests per simulated
/// second: per device, one batch's frames over its simulated service time,
/// averaged over the even model mix, summed over devices.
fn capacity_per_s(engines: &[(usize, usize, Engine)]) -> f64 {
    let mut us_per_frame = [0.0; DEVICES.len()];
    for (d, m, engine) in engines {
        let spec = DeviceSpec::max_clock(DEVICES[*d].1);
        let mut timeline = GpuTimeline::new(spec.clone());
        let stream = timeline.create_stream();
        let batch_us = ExecutionContext::new(engine, spec).enqueue_batched_inference(
            &mut timeline,
            stream,
            &timing(MODELS[*m]),
            MAX_BATCH,
        );
        us_per_frame[*d] += batch_us / (MAX_BATCH * MODELS.len()) as f64;
    }
    us_per_frame.iter().map(|us| 1e6 / us).sum()
}

fn setup(seed: u64) -> Result<(Setup, f64), EngineError> {
    let (engines, build) = timed(|| -> Result<Vec<_>, EngineError> {
        let mut out = Vec::new();
        for (d, &(_, platform)) in DEVICES.iter().enumerate() {
            for (m, model) in MODELS.iter().enumerate() {
                let config = BuilderConfig::default()
                    .with_build_seed(derive_seed(ENGINE_SEED, "fleet", (d * 2 + m) as u64))
                    .with_build_threads(1);
                let engine = Builder::new(DeviceSpec::max_clock(platform), config)
                    .build(&model.descriptor())?;
                out.push((d, m, engine));
            }
        }
        Ok(out)
    });
    let engines = engines?;
    let capacity_per_s = capacity_per_s(&engines);
    let [base, peak, cycle] = SERVING_DIURNAL_US;
    let mean_per_us = (1.0 / base + 1.0 / peak) / 2.0;
    let scale = mean_per_us * 1e6 / (LOAD * capacity_per_s);
    let segments = (0..SEGMENTS as u64)
        .map(|k| {
            let s = derive_seed(seed, "fleet_serve", k);
            let trace =
                ArrivalTrace::diurnal(base * scale, peak * scale, cycle * scale, REQUESTS, s);
            let mut rng = Pcg32::seed_from_u64(derive_seed(s, "models", 0));
            trace
                .arrivals_us
                .iter()
                .map(|&t| (rng.range_usize(MODELS.len()), t))
                .collect()
        })
        .collect();
    let setup = Setup {
        engines,
        segments,
        capacity_per_s,
    };
    Ok((setup, build.wall_s))
}

/// What one segment left behind.
struct SegmentRun {
    stats: FleetStats,
    refused: u64,
    recorded: u64,
    retained: u64,
    traces: Vec<RequestTrace>,
}

/// The fleet topology: both devices, every engine placed on its device.
fn fleet_builder(setup: &Setup) -> Result<FleetBuilder, ServingError> {
    let mut builder = FleetBuilder::new();
    for &(name, platform) in &DEVICES {
        builder = builder.device(name, DeviceSpec::max_clock(platform));
    }
    for (d, m, engine) in &setup.engines {
        builder = builder.replica(DEVICES[*d].0, engine, server_config(MODELS[*m]))?;
    }
    Ok(builder)
}

fn fleet_config() -> FleetConfig {
    FleetConfig::default().with_predictive(true)
}

/// Threads a started fleet runs besides the main thread.
fn serving_threads(setup: &Setup) -> usize {
    let Ok(fleet) = fleet_builder(setup).and_then(|b| b.start(fleet_config())) else {
        return 0;
    };
    let threads = crate::stats::threads().saturating_sub(1);
    fleet.drain();
    threads
}

/// The timed op: start a fleet, submit one segment unpaced, drain.
fn op(
    setup: &Setup,
    segment: &[(usize, f64)],
    tr: &mut Tracer,
) -> Result<SegmentRun, ServingError> {
    let builder = fleet_builder(setup)?;
    let fleet = tr.span("fleet.start", 0, |_| builder.start(fleet_config()))?;
    let recorder = fleet.flight_recorder();
    let names: Vec<&str> = setup.engines[..MODELS.len()]
        .iter()
        .map(|(_, _, e)| e.name())
        .collect();
    let mut refused = 0;
    for (i, &(m, arrival_us)) in segment.iter().enumerate() {
        let sent = tr.span("fleet.submit", m as u32, |_| {
            fleet.submit(names[m], i as u64, arrival_us)
        });
        refused += u64::from(sent.is_err());
        if (i + 1) % HANDOFF_EVERY == 0 {
            std::thread::yield_now();
        }
    }
    let stats = tr.span("fleet.drain", 0, |_| fleet.drain());
    Ok(SegmentRun {
        stats,
        refused,
        recorded: recorder.recorded(),
        retained: recorder.retained(),
        traces: recorder.traces(),
    })
}

/// Request conservation of one segment: every submitted request is
/// accepted or rejected, every accepted one completed or dropped, the
/// flight recorder saw each one once, and nothing was refused.
pub fn conserved(stats: &FleetStats, submitted: u64, recorded: u64) -> Result<(), String> {
    let checks = [
        (
            stats.submitted == submitted,
            "router count != requests sent",
        ),
        (
            stats.submitted == stats.accepted + stats.rejected,
            "submitted != accepted + rejected",
        ),
        (
            stats.accepted == stats.completed + stats.dropped,
            "accepted != completed + dropped",
        ),
        (
            recorded == stats.submitted,
            "flight recorder count != submitted",
        ),
        (
            stats.rejected == 0 && stats.deadline_rejected == 0,
            "requests were refused",
        ),
    ];
    match checks.iter().find(|(ok, _)| !ok) {
        Some((_, why)) => Err((*why).to_string()),
        None => Ok(()),
    }
}

fn segment_ok(run: &Result<SegmentRun, ServingError>) -> bool {
    match run {
        Ok(r) => r.refused == 0 && conserved(&r.stats, REQUESTS as u64, r.recorded).is_ok(),
        Err(_) => false,
    }
}

/// Digest of a segment's completion log: every replica's completions in
/// order. Thread scheduling moves it, so it is printed, never checked.
fn completion_digest(stats: &FleetStats) -> u64 {
    let mut d = Digest::default();
    for r in &stats.replicas {
        d.str(&r.device);
        d.str(&r.model);
        for c in &r.stats.completions {
            d.u64(c.frame);
            d.f64(c.arrival_us);
            d.f64(c.done_us);
        }
    }
    d.value()
}

/// Mean simulated arrival rate over the segments, requests/s.
fn offered_per_s(setup: &Setup) -> f64 {
    let rates: Vec<f64> = setup
        .segments
        .iter()
        .map(|seg| ratio(seg.len() as f64 * 1e6, seg.last().map_or(0.0, |a| a.1)))
        .collect();
    median(&rates)
}

/// Simulated outcomes of one segment: latency p50 and p99 (ms) and mean
/// GR3D utilization weighted by completions.
fn outcomes(stats: &FleetStats) -> [f64; 3] {
    let busy: f64 = stats
        .replicas
        .iter()
        .map(|r| r.stats.gr3d_percent * r.stats.completed as f64)
        .sum();
    [
        stats.latency.p50_us / 1e3,
        stats.latency.p99_us / 1e3,
        ratio(busy, stats.completed as f64),
    ]
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut errors = 0u64;
    let (times, setup) = SetupTimes::run(|| match setup(seed) {
        Ok((s, build_s)) => (Some(s), build_s),
        Err(_) => {
            errors += 1;
            (None, 0.0)
        }
    });
    let Some(setup) = setup else {
        return Outcome::failed_setup(times);
    };
    let mut sim: Vec<[f64; 3]> = Vec::new();
    let mut digest = None;
    let measured = harness::measure(seconds, |i| {
        let (run, cost) = timed(|| op(&setup, &setup.segments[i % SEGMENTS], &mut Tracer::off()));
        let ok = segment_ok(&run);
        if let Ok(r) = &run {
            sim.push(outcomes(&r.stats));
            digest.get_or_insert_with(|| completion_digest(&r.stats));
        }
        (cost, ok)
    });
    let column = |k: usize| median(&sim.iter().map(|s| s[k]).collect::<Vec<_>>());
    let requests = REQUESTS as f64;
    Outcome {
        setup_engines: setup.engines.len() as f64,
        attempted: measured.attempted + errors,
        failed: measured.failed + errors,
        ops: measured.costs,
        per_op: Units {
            engines: 0.0,
            images: requests,
            requests,
        },
        digest: digest.unwrap_or(0),
        digest_deterministic: false,
        reference: None,
        simulated: vec![
            ("sim.capacity_per_s", setup.capacity_per_s, "1/s"),
            ("sim.offered_per_s", offered_per_s(&setup), "1/s"),
            ("sim.latency_p50_ms", column(0), "ms"),
            ("sim.latency_p99_ms", column(1), "ms"),
            ("sim.gr3d_percent", column(2), "%"),
        ],
        extra_threads: serving_threads(&setup),
        setup: times,
    }
}

/// Mean cost of one call of `f`, ns, over blocks of `per_block` calls
/// (median block), with `reset` run untimed between blocks.
fn per_call_ns(
    blocks: usize,
    per_block: usize,
    mut f: impl FnMut(usize),
    mut reset: impl FnMut(),
) -> f64 {
    let mut block_ns = Vec::with_capacity(blocks);
    for _ in 0..blocks {
        reset();
        let ((), cost) = timed(|| (0..per_block).for_each(&mut f));
        block_ns.push(cost.wall_s * 1e9 / per_block as f64);
    }
    median(&block_ns)
}

/// The traced run: traced segments alternating with untraced ones, then
/// the layers that run inside the serving threads replayed in isolation on
/// the same engines, completions and traces.
pub fn ledger(seed: u64, seconds: f64) -> Ledger {
    let Ok((setup, _)) = setup(seed) else {
        return Ledger::failed(Vec::new());
    };
    let mut tr = Tracer::on();
    let mut runs: Vec<SegmentRun> = Vec::new();
    let (plain, traced, attempted, failed) = harness::alternate(seconds * 0.8, |i, on| {
        let segment = &setup.segments[(i / 2) % SEGMENTS];
        let (run, cost) = if on {
            timed(|| op(&setup, segment, &mut tr))
        } else {
            timed(|| op(&setup, segment, &mut Tracer::off()))
        };
        let ok = segment_ok(&run);
        if let (true, Ok(r)) = (on, run) {
            runs.push(r);
        }
        (cost, ok)
    });
    let sum = |f: &dyn Fn(&SegmentRun) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let submit_us = sorted(&tr.all_us("fleet.submit"));
    let (_, submit_tail) = tail_percentile(&submit_us).unwrap_or((0.0, 0.0));
    let mut layers = vec![
        Layer::new(
            "fleet.start_ms",
            median(&tr.all_us("fleet.start")) / 1e3,
            "ms",
        ),
        Layer::new(
            "fleet.submit_us_p50",
            if submit_us.is_empty() {
                0.0
            } else {
                nearest_rank(&submit_us, 50.0)
            },
            "us",
        ),
        Layer::new("fleet.submit_us_tail", submit_tail, "us"),
        Layer::new(
            "fleet.drain_ms",
            median(&tr.all_us("fleet.drain")) / 1e3,
            "ms",
        ),
        Layer::new(
            "fleet.predicted_dispatch_ratio",
            ratio(
                sum(&|r| r.stats.predicted_dispatches),
                sum(&|r| r.stats.predicted_dispatches + r.stats.heuristic_dispatches),
            ),
            "ratio",
        ),
        Layer::new(
            "fleet.affinity_hit_ratio",
            ratio(sum(&|r| r.stats.affinity_hits), sum(&|r| r.stats.accepted)),
            "ratio",
        ),
        Layer::new(
            "serving.mean_batch_size",
            ratio(
                sum(&|r| r.stats.completed),
                sum(&|r| r.stats.replicas.iter().map(|x| x.stats.batches).sum()),
            ),
            "frames",
        ),
        Layer::new(
            "serving.queue_high_water",
            median(
                &runs
                    .iter()
                    .map(|r| {
                        r.stats
                            .replicas
                            .iter()
                            .map(|x| x.stats.queue_high_water)
                            .max()
                            .unwrap_or(0) as f64
                    })
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
    ];

    // Timeline enqueue of the GoogLeNet replica on NX, batch 1 and 4.
    let (_, m, engine) = &setup.engines[0];
    let spec = DeviceSpec::max_clock(DEVICES[0].1);
    let opts = timing(MODELS[*m]);
    let ctx = ExecutionContext::new(engine, spec.clone());
    for batch in [1usize, 4] {
        let mut timeline = GpuTimeline::new(spec.clone());
        let stream = timeline.create_stream();
        let ns = std::cell::RefCell::new((timeline, stream));
        let per = per_call_ns(
            32,
            64,
            |_| {
                let (tl, s) = &mut *ns.borrow_mut();
                std::hint::black_box(ctx.enqueue_batched_inference(tl, *s, &opts, batch));
            },
            || ns.borrow_mut().0.reset(),
        );
        layers.push(Layer::new(
            format!("runtime.enqueue_batched_us.b{batch}"),
            per / 1e3,
            "us",
        ));
    }

    // Predictor update and query over the segments' observed latencies.
    let features = EngineFeatures::measure(engine, &spec, opts.host_glue_us);
    let observed: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.stats.replicas.iter())
        .flat_map(|x| x.stats.completions.iter().map(|c| c.done_us - c.arrival_us))
        .collect();
    let signals = QueueSignals::new(1.0, 0.5);
    let model = LatencyModel::new(ENGINE_SEED);
    let n_obs = observed.len().clamp(1, 4_096);
    let observe_ns = per_call_ns(
        8,
        n_obs,
        |i| {
            model.observe(
                &features,
                1,
                &signals,
                observed.get(i).copied().unwrap_or(1.0),
            )
        },
        || {},
    );
    let predict_ns = per_call_ns(
        8,
        n_obs,
        |i| {
            std::hint::black_box(model.predict(&features, 1 + i % MAX_BATCH, &signals));
        },
        || {},
    );
    layers.push(Layer::new("predict.observe_ns", observe_ns, "ns"));
    layers.push(Layer::new("predict.predict_ns", predict_ns, "ns"));

    // Flight-recorder retention over the traces the segments retained.
    let traces: Vec<RequestTrace> = runs.iter().flat_map(|r| r.traces.iter().cloned()).collect();
    let record_ns = if traces.is_empty() {
        0.0
    } else {
        let per_block = traces.len().min(1_024);
        let blocks: Vec<f64> = (0..8)
            .map(|_| {
                let batch: Vec<RequestTrace> =
                    traces.iter().cycle().take(per_block).cloned().collect();
                let recorder = FlightRecorder::new(TraceOptions::default());
                let ((), cost) = timed(|| {
                    for t in batch {
                        recorder.record(t);
                    }
                });
                cost.wall_s * 1e9 / per_block as f64
            })
            .collect();
        median(&blocks)
    };
    layers.push(Layer::new("reqtrace.record_ns", record_ns, "ns"));
    layers.push(Layer::new(
        "reqtrace.retained_ratio",
        ratio(sum(&|r| r.retained), sum(&|r| r.recorded)),
        "ratio",
    ));

    // Telemetry primitives on a private registry, and one render of the
    // process-wide registry the fleet runs published into.
    let registry = Registry::new();
    let counter = registry.counter(
        "perfbench_probe_total",
        "Benchmark probe",
        &[("layer", "metrics")],
    );
    let histogram = registry.histogram(
        "perfbench_probe_seconds",
        "Benchmark probe",
        &[("layer", "metrics")],
        &log_buckets(1e-6, 2.0, 24),
    );
    let inc_ns = per_call_ns(8, 100_000, |_| counter.inc(), || {});
    let observe_metric_ns = per_call_ns(8, 100_000, |i| histogram.observe(i as f64 * 1e-7), || {});
    let render_ms = per_call_ns(
        8,
        1,
        |_| {
            std::hint::black_box(render_prometheus(Registry::global()));
        },
        || {},
    ) / 1e6;
    layers.push(Layer::new("metrics.counter_inc_ns", inc_ns, "ns"));
    layers.push(Layer::new(
        "metrics.histogram_observe_ns",
        observe_metric_ns,
        "ns",
    ));
    layers.push(Layer::new("metrics.render_prometheus_ms", render_ms, "ms"));

    let sim: Vec<[f64; 3]> = runs.iter().map(|r| outcomes(&r.stats)).collect();
    for (k, (name, unit)) in [
        ("sim.latency_p50_ms", "ms"),
        ("sim.latency_p99_ms", "ms"),
        ("sim.gr3d_percent", "%"),
    ]
    .into_iter()
    .enumerate()
    {
        layers.push(Layer::new(
            name,
            median(&sim.iter().map(|s| s[k]).collect::<Vec<_>>()),
            unit,
        ));
    }
    Ledger {
        layers,
        attempted,
        failed,
        untraced_p50_ms: median(&plain),
        traced_p50_ms: median(&traced),
        self_times: tr.self_times(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trtsim_metrics::LatencyPercentiles;

    fn stats(
        submitted: u64,
        accepted: u64,
        rejected: u64,
        completed: u64,
        dropped: u64,
    ) -> FleetStats {
        FleetStats {
            replicas: Vec::new(),
            submitted,
            accepted,
            rejected,
            completed,
            dropped,
            latency: LatencyPercentiles::default(),
            simulated_seconds: 0.0,
            aggregate_fps: 0.0,
            predicted_dispatches: 0,
            heuristic_dispatches: 0,
            affinity_hits: 0,
            deadline_missed: 0,
            deadline_rejected: 0,
        }
    }

    #[test]
    fn conservation_checker_rejects_inconsistent_stats() {
        assert!(conserved(&stats(10, 10, 0, 10, 0), 10, 10).is_ok());
        // One accepted request neither completed nor dropped.
        assert!(conserved(&stats(10, 10, 0, 9, 0), 10, 10).is_err());
        // Accepted + rejected exceeds what was submitted.
        assert!(conserved(&stats(10, 10, 1, 10, 0), 10, 10).is_err());
        // A refusal is a failure even when the books balance.
        assert!(conserved(&stats(10, 9, 1, 9, 0), 10, 10).is_err());
        // The flight recorder missed a request.
        assert!(conserved(&stats(10, 10, 0, 10, 0), 10, 9).is_err());
        // The router saw fewer requests than were sent.
        assert!(conserved(&stats(9, 9, 0, 9, 0), 10, 9).is_err());
    }
}
