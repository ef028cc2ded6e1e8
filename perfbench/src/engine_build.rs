//! `engine_build`: descriptor-scale builds of the whole 13-model zoo on
//! pinned-clock NX and AGX, one build thread, no numerics.
//!
//! One op is one zoo round: 26 builds into an empty timing cache (cache
//! writes), then the same 26 builds at the next build index on the now warm
//! cache (cache reads). Every engine goes through plan serialize and
//! deserialize, and the loaded engine's simulated single-image latency is
//! evaluated, as a user loading a plan would. Single builds take well under
//! a millisecond, too short to time on their own, so the op is the round.

use std::sync::Arc;

use trtsim_core::autotune::{self, AutotuneOptions};
use trtsim_core::calibrate::CalibrationTable;
use trtsim_core::passes::{dead_layer, horizontal_merge, vertical_fusion};
use trtsim_core::{plan, Builder, BuilderConfig, Engine, ExecutionContext, TimingCache};
use trtsim_core::{EngineError, TimingOptions};
use trtsim_gpu::device::{DeviceSpec, Platform};
use trtsim_gpu::timing::kernel_time_us;
use trtsim_ir::Graph;
use trtsim_kernels::catalog::PrecisionPolicy;
use trtsim_models::ModelId;
use trtsim_util::derive_seed;

use crate::harness::{self, timed, Cost, Layer, Ledger, Outcome, SetupTimes, Units};
use crate::stats::{median, ratio, Digest};
use crate::trace::Tracer;

pub const WHY: &str = "passes, autotune, timing cache, GPU cost model and plan I/O under load \
     with no numerics and no threads; cold and warm cache halves use the cache differently";
pub const EXERCISES: &str = "trtsim-models, core::{passes, autotune, timing_cache, builder, \
     plan, runtime}, trtsim-gpu::timing";
pub const SKIPS: &str = "trtsim-data, core::{compress, calibrate, fastpath, serving, fleet, \
     predict, reqtrace}, trtsim-kernels numerics, gpu::timeline batching, metrics::telemetry";

/// One (model, platform) build request of a round.
struct Request {
    model: usize,
    device: DeviceSpec,
    /// Build seeds of the cold and the warm half.
    seeds: [u64; 2],
}

/// The workload's inputs: zoo descriptors and per-request build seeds.
pub struct Setup {
    graphs: Vec<Graph>,
    requests: Vec<Request>,
}

/// Builds the descriptors of every zoo model and derives the build seeds
/// of every (model, platform) request from the workload seed.
pub fn setup(seed: u64, tr: &mut Tracer) -> Setup {
    let models = ModelId::all();
    let graphs = models
        .iter()
        .enumerate()
        .map(|(i, m)| tr.span("models.descriptor", i as u32, |_| m.descriptor()))
        .collect();
    let mut requests = Vec::new();
    for model in 0..models.len() {
        for platform in Platform::all() {
            let index = requests.len() as u64;
            requests.push(Request {
                model,
                device: DeviceSpec::pinned_clock(platform),
                seeds: [0, 1].map(|half| derive_seed(seed, "engine_build", index << 1 | half)),
            });
        }
    }
    Setup { graphs, requests }
}

/// The simulated single-image latency of `engine` on `device`, µs.
fn simulated_us(engine: &Engine, device: &DeviceSpec) -> f64 {
    let opts = TimingOptions::default().with_run_jitter_sd(0.0);
    ExecutionContext::new(engine, device.clone()).measure_latency(&opts, 1, 0)[0]
}

/// One built engine with its plan round trip.
struct Built {
    engine: Engine,
    loaded: Result<Engine, EngineError>,
    loaded_us: f64,
    plan_bytes: usize,
}

/// A round's outputs and cache statistics.
struct Round {
    built: Vec<Built>,
    cold_misses: u64,
    warm_hits: u64,
    warm_misses: u64,
}

fn builder(req: &Request, half: usize, cache: &Arc<TimingCache>) -> Builder {
    Builder::new(
        req.device.clone(),
        BuilderConfig::default()
            .with_build_seed(req.seeds[half])
            .with_build_threads(1)
            .with_timing_cache(Arc::clone(cache)),
    )
}

/// The timed op: one cold and one warm half over every request.
fn round(setup: &Setup, tr: &mut Tracer) -> Result<Round, EngineError> {
    let cache = Arc::new(TimingCache::new());
    let mut built = Vec::with_capacity(2 * setup.requests.len());
    let mut cold = Default::default();
    for half in 0..2 {
        for (r, req) in setup.requests.iter().enumerate() {
            let tag = (r << 1 | half) as u32;
            let graph = &setup.graphs[req.model];
            let builder = builder(req, half, &cache);
            let engine = tr.span("builder.build", tag, |_| builder.build(graph))?;
            let blob = tr.span("plan.serialize", tag, |_| plan::serialize(&engine));
            let loaded = tr.span("plan.deserialize", tag, |_| plan::deserialize(&blob));
            let loaded_us = match &loaded {
                Ok(e) => tr.span("runtime.simulate", tag, |_| simulated_us(e, &req.device)),
                Err(_) => f64::NAN,
            };
            built.push(Built {
                engine,
                loaded,
                loaded_us,
                plan_bytes: blob.len(),
            });
        }
        if half == 0 {
            cold = cache.stats();
        }
    }
    let warm = cache.stats().since(cold);
    Ok(Round {
        built,
        cold_misses: cold.misses,
        warm_hits: warm.hits,
        warm_misses: warm.misses,
    })
}

/// Checks a round's plan round trips and returns the digest of its
/// simulated outputs (kernel choices and simulated µs per engine), or
/// `None` when a round trip lost something.
fn check(setup: &Setup, round: &Round) -> Option<u64> {
    let mut d = Digest::default();
    let n = setup.requests.len();
    for (i, b) in round.built.iter().enumerate() {
        let loaded = b.loaded.as_ref().ok()?;
        let names = b.engine.kernel_names();
        let sim_us = simulated_us(&b.engine, &setup.requests[i % n].device);
        if loaded.kernel_names() != names
            || loaded.launch_count() != b.engine.launch_count()
            || b.loaded_us.to_bits() != sim_us.to_bits()
        {
            return None;
        }
        for name in &names {
            d.str(name);
        }
        d.f64(sim_us);
    }
    Some(d.value())
}

/// Runs one op and checks it against the first round's digest (a
/// same-seed rebuild must be identical). Returns (cost, ok, round).
fn checked_op(
    setup: &Setup,
    tr: &mut Tracer,
    first: &mut Option<u64>,
) -> (Cost, bool, Option<Round>) {
    let (round, cost) = timed(|| round(setup, tr));
    let Ok(round) = round else {
        return (cost, false, None);
    };
    let ok = check(setup, &round).is_some_and(|d| *first.get_or_insert(d) == d);
    (cost, ok, Some(round))
}

/// Digest of the seed-independent reference round, checked against the
/// pinned value so a change that alters a simulated result fails.
pub fn reference_digest() -> Option<u64> {
    let setup = setup(crate::REFERENCE_SEED, &mut Tracer::off());
    let round = round(&setup, &mut Tracer::off()).ok()?;
    check(&setup, &round)
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let (times, setup) = SetupTimes::run(|| (setup(seed, &mut Tracer::off()), 0.0));
    let mut first = None;
    let measured = harness::measure(seconds, |_| {
        let (cost, ok, _) = checked_op(&setup, &mut Tracer::off(), &mut first);
        (cost, ok)
    });
    let engines = 2.0 * setup.requests.len() as f64;
    Outcome {
        setup: times,
        setup_engines: 0.0,
        attempted: measured.attempted,
        failed: measured.failed,
        ops: measured.costs,
        per_op: Units {
            engines,
            images: engines,
            requests: engines,
        },
        digest: first.unwrap_or(0),
        digest_deterministic: true,
        reference: reference_digest(),
        simulated: Vec::new(),
        extra_threads: 0,
    }
}

/// The traced run: traced rounds alternating with untraced ones, then the
/// builder's stages replayed in isolation on the same graphs and seeds.
pub fn ledger(seed: u64, seconds: f64) -> Ledger {
    let mut tr = Tracer::on();
    let setup = setup(seed, &mut tr);
    let n = setup.requests.len();
    let mut first = None;
    let mut rounds: Vec<Round> = Vec::new();
    let (plain, traced, attempted, failed) = harness::alternate(seconds * 0.7, |_, on| {
        let (cost, ok, round) = if on {
            checked_op(&setup, &mut tr, &mut first)
        } else {
            checked_op(&setup, &mut Tracer::off(), &mut first)
        };
        if let (true, Some(r)) = (on, round) {
            // Keep the cache counts and one round's engines; drop the rest.
            let keep_engines = rounds.is_empty();
            rounds.push(Round {
                built: if keep_engines { r.built } else { Vec::new() },
                ..r
            });
        }
        (cost, ok)
    });

    // Replays of the builder's stages on the same graphs, devices and seeds,
    // in round order on one cache per round, as the cold half fills it: a
    // request's cold select hits what the requests before it cached.
    let policy = PrecisionPolicy::fp16();
    let calibration = CalibrationTable::new();
    let defaults = BuilderConfig::default();
    let started = std::time::Instant::now();
    let mut candidates = Vec::new();
    let mut replay_failed = 0;
    let mut cache = TimingCache::new();
    while candidates.len() < n || started.elapsed().as_secs_f64() < seconds * 0.2 {
        let r = candidates.len() % n;
        if r == 0 {
            cache = TimingCache::new();
        }
        let req = &setup.requests[r];
        let graph = &setup.graphs[req.model];
        let tag = r as u32;
        let model = ModelId::all()[req.model];
        drop(tr.span("models.descriptor", tag, |_| model.descriptor()));
        let passed = tr
            .span("passes.dead_layer", tag, |_| dead_layer::run(graph))
            .and_then(|(g, _)| tr.span("passes.vertical_fusion", tag, |_| vertical_fusion::run(&g)))
            .and_then(|(g, _)| {
                tr.span("passes.horizontal_merge", tag, |_| {
                    horizontal_merge::run(&g)
                })
            });
        let Ok((g3, _)) = passed else {
            replay_failed = 1;
            break;
        };
        let opts = AutotuneOptions::default()
            .with_noise_sd(defaults.timing_noise_sd)
            .with_samples(defaults.timing_samples)
            .with_threads(1)
            .with_cache(&cache);
        // The warm half's select finds every kernel of its request cached.
        let select = |tr: &mut Tracer, name, half: usize| {
            tr.span(name, tag, |_| {
                autotune::select(
                    &g3,
                    policy,
                    &calibration,
                    &req.device,
                    req.seeds[half],
                    &opts,
                )
            })
        };
        let Ok(choices) = select(&mut tr, "autotune.select_cold", 0) else {
            replay_failed = 1;
            break;
        };
        let _ = select(&mut tr, "autotune.select_warm", 1);
        candidates.push(
            choices
                .iter()
                .flatten()
                .map(|c| c.candidates as f64)
                .sum::<f64>(),
        );
    }
    let per_req = |name: &str, r: usize| median(&tr.durations_us(name, |t| t as usize == r));
    let build_half = |r: usize, half: usize| {
        median(&tr.durations_us("builder.build", |t| t as usize == (r << 1 | half)))
    };
    let residual_us: Vec<f64> = (0..n)
        .map(|r| {
            build_half(r, 0)
                - per_req("passes.dead_layer", r)
                - per_req("passes.vertical_fusion", r)
                - per_req("passes.horizontal_merge", r)
                - per_req("autotune.select_cold", r)
        })
        .collect();

    // Timing-cache hit versus the analytic cost model it memoizes, over
    // every candidate kernel of the zoo on its own device.
    let mut kernels = Vec::new();
    for req in &setup.requests {
        if let Ok(ks) = autotune::candidate_kernels(&setup.graphs[req.model], policy) {
            kernels.push((req.device.clone(), ks));
        }
    }
    let queries: usize = kernels.iter().map(|(_, ks)| ks.len()).sum();
    let warm = TimingCache::new();
    for (device, ks) in &kernels {
        let session = warm.session(device);
        for k in ks {
            session.time_us(k);
        }
    }
    let passes = 20;
    let (hit_sum, hit_cost) = timed(|| {
        let mut sum = 0.0;
        for _ in 0..passes {
            for (device, ks) in &kernels {
                let session = warm.session(device);
                for k in ks {
                    sum += session.time_us(std::hint::black_box(k));
                }
            }
        }
        sum
    });
    let (model_sum, model_cost) = timed(|| {
        let mut sum = 0.0;
        for _ in 0..passes {
            for (device, ks) in &kernels {
                for k in ks {
                    sum += kernel_time_us(std::hint::black_box(k), device);
                }
            }
        }
        sum
    });
    let hit_miss = u64::from(hit_sum != model_sum);
    let per_query_ns = |c: Cost| c.wall_s * 1e9 / (passes * queries.max(1)) as f64;

    let cold_misses: Vec<f64> = rounds.iter().map(|r| r.cold_misses as f64).collect();
    let warm_ratio: Vec<f64> = rounds
        .iter()
        .map(|r| ratio(r.warm_hits as f64, (r.warm_hits + r.warm_misses) as f64))
        .collect();
    let plan_bytes: Vec<f64> = rounds
        .first()
        .map(|r| r.built.iter().map(|b| b.plan_bytes as f64).collect())
        .unwrap_or_default();
    let half_us =
        |half: usize| median(&tr.durations_us("builder.build", |t| t as usize & 1 == half));
    let layers = vec![
        Layer::new(
            "models.descriptor_us",
            median(&tr.all_us("models.descriptor")),
            "us",
        ),
        Layer::new(
            "passes.dead_layer_us",
            median(&tr.all_us("passes.dead_layer")),
            "us",
        ),
        Layer::new(
            "passes.vertical_fusion_us",
            median(&tr.all_us("passes.vertical_fusion")),
            "us",
        ),
        Layer::new(
            "passes.horizontal_merge_us",
            median(&tr.all_us("passes.horizontal_merge")),
            "us",
        ),
        Layer::new(
            "autotune.select_cold_us",
            median(&tr.all_us("autotune.select_cold")),
            "us",
        ),
        Layer::new(
            "autotune.select_warm_us",
            median(&tr.all_us("autotune.select_warm")),
            "us",
        ),
        Layer::new("builder.build_cold_us", half_us(0), "us"),
        Layer::new("builder.build_warm_us", half_us(1), "us"),
        Layer::new("builder.residual_us", median(&residual_us), "us"),
        Layer::new(
            "autotune.candidates_per_engine",
            crate::stats::ratio(candidates.iter().sum(), candidates.len() as f64),
            "count",
        ),
        Layer::new("timing_cache.misses_cold", median(&cold_misses), "count"),
        Layer::new("timing_cache.hit_ratio_warm", median(&warm_ratio), "ratio"),
        Layer::new("timing_cache.hit_ns", per_query_ns(hit_cost), "ns"),
        Layer::new(
            "gpu.cost_model_ns_per_query",
            per_query_ns(model_cost),
            "ns",
        ),
        Layer::new(
            "plan.serialize_us",
            median(&tr.all_us("plan.serialize")),
            "us",
        ),
        Layer::new(
            "plan.deserialize_us",
            median(&tr.all_us("plan.deserialize")),
            "us",
        ),
        Layer::new(
            "plan.bytes_per_engine",
            ratio(plan_bytes.iter().sum(), plan_bytes.len() as f64),
            "bytes",
        ),
    ];
    Ledger {
        layers,
        attempted: attempted + 2,
        failed: failed + hit_miss + replay_failed,
        untraced_p50_ms: median(&plain),
        traced_p50_ms: median(&traced),
        self_times: tr.self_times(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_across_repetitions_and_matches_the_pin() {
        let first = reference_digest();
        assert!(first.is_some(), "reference round failed its checks");
        assert_eq!(first, reference_digest());
        assert_eq!(first, crate::pinned("engine_build"));
    }
}
