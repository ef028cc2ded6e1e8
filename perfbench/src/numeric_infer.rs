//! `numeric_infer`: the five numeric classifiers × three engines on NX
//! (FP32-only, default FP16, INT8-calibrated), fifteen engines in all.
//!
//! One op is one generated image classified by all fifteen engines through
//! `ExecutionContext::infer`, called in turn by the main thread. Networks,
//! engine builds (compression and calibration included), images and plan
//! compilation are set-up; the cost model and serving are never touched.

use trtsim_core::calibrate;
use trtsim_core::compress::compress_graph;
use trtsim_core::passes::{dead_layer, horizontal_merge, vertical_fusion};
use trtsim_core::{Builder, BuilderConfig, Engine, EngineError, ExecutionContext, InferencePlan};
use trtsim_data::imagenet::SyntheticImageNet;
use trtsim_gpu::device::{DeviceSpec, Platform};
use trtsim_ir::{Graph, Tensor};
use trtsim_kernels::catalog::PrecisionPolicy;
use trtsim_models::numeric::{build_classifier, NUMERIC_INPUT};
use trtsim_models::ModelId;
use trtsim_util::derive_seed;
use trtsim_util::rng::Pcg32;

use crate::harness::{self, timed, Layer, Ledger, Outcome, SetupTimes, Units};
use crate::stats::{median, ratio, Digest};
use crate::trace::Tracer;

pub const WHY: &str = "kernels, the plan fast path, the activation arena and layout converts \
     under load; builds and calibration land in set-up";
pub const EXERCISES: &str = "trtsim-models, trtsim-data, core::{passes, compress, calibrate, \
     autotune, builder, fastpath, runtime}, trtsim-kernels, trtsim-ir arena";
pub const SKIPS: &str = "gpu::{timing, timeline} at inference, core::{plan, serving, fleet, \
     predict, reqtrace}, metrics::telemetry";

/// Engine configurations, in op order within each model.
pub const CONFIGS: [&str; 3] = ["fp32", "fp16", "int8"];
/// Short model names, in `ModelId::classification_models()` order.
pub const MODELS: [&str; 5] = ["alexnet", "resnet18", "vgg16", "inceptionv4", "googlenet"];

/// Classes of the synthetic dataset every classifier is fit to.
const CLASSES: usize = 5;
/// Images the op cycles through; all are classified before timing starts.
const POOL: usize = 8;
/// Reference images checked against the pinned digest.
const REFERENCE_IMAGES: usize = 2;
/// Calibration batch of the INT8 engines.
const CALIBRATION_IMAGES: usize = 4;
/// Magnitude-pruning threshold, as in the accuracy campaign.
const PRUNE_THRESHOLD: f32 = 0.55;
/// Fixed seed of the dataset and networks: set-up never depends on the
/// workload seed, only the classified images do.
const NETWORK_SEED: u64 = 0x7ab1e3;

/// Networks, calibration batch, and the dataset images come from.
struct Networks {
    dataset: SyntheticImageNet,
    graphs: Vec<Graph>,
    calibration: Vec<Tensor>,
}

fn networks(tr: &mut Tracer) -> Networks {
    let dataset = SyntheticImageNet::new(CLASSES, NUMERIC_INPUT, NETWORK_SEED).with_snr(1.0, 1.0);
    let prototypes: Vec<Tensor> = (0..CLASSES).map(|c| dataset.prototype(c)).collect();
    let graphs = ModelId::classification_models()
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            tr.span("models.classifier", i as u32, |_| {
                build_classifier(
                    m,
                    &prototypes,
                    0.25,
                    derive_seed(NETWORK_SEED, "overfit", i as u64),
                )
            })
        })
        .collect();
    let calibration = dataset.calibration_batch(CALIBRATION_IMAGES);
    Networks {
        dataset,
        graphs,
        calibration,
    }
}

fn config(c: usize, calibration: &[Tensor]) -> BuilderConfig {
    let mut config = BuilderConfig::default()
        .with_build_seed(derive_seed(NETWORK_SEED, "engine", c as u64))
        .with_build_threads(1)
        .with_pruning(true);
    config.prune_threshold = PRUNE_THRESHOLD;
    match c {
        0 => config.with_policy(PrecisionPolicy::fp32_only()),
        1 => config,
        _ => config
            .with_policy(PrecisionPolicy::all())
            .with_calibration(calibration.to_vec()),
    }
}

/// Builds the fifteen engines, model-major, configuration-minor.
fn engines(nets: &Networks, tr: &mut Tracer) -> Result<Vec<Engine>, EngineError> {
    let device = DeviceSpec::pinned_clock(Platform::Nx);
    let mut out = Vec::with_capacity(nets.graphs.len() * CONFIGS.len());
    for (m, graph) in nets.graphs.iter().enumerate() {
        for c in 0..CONFIGS.len() {
            let builder = Builder::new(device.clone(), config(c, &nets.calibration));
            let tag = (m * CONFIGS.len() + c) as u32;
            out.push(tr.span("builder.build", tag, |_| builder.build(graph))?);
        }
    }
    Ok(out)
}

/// `n` images drawn by the workload seed: a class and sample index each.
fn images(nets: &Networks, seed: u64, n: usize, tr: &mut Tracer) -> Vec<(Tensor, usize)> {
    tr.span("data.images", 0, |_| {
        let mut rng = Pcg32::seed_from_u64(derive_seed(seed, "numeric_infer", 0));
        (0..n)
            .map(|_| {
                let class = rng.range_usize(CLASSES);
                let index = rng.range_usize(1 << 20);
                let img = nets.dataset.sample(class, index);
                (img.image, img.label)
            })
            .collect()
    })
}

/// Everything set-up produces.
struct Setup {
    engines: Vec<Engine>,
    images: Vec<(Tensor, usize)>,
    nets: Networks,
}

/// One complete set-up.
fn setup(seed: u64, tr: &mut Tracer) -> Result<Setup, EngineError> {
    let nets = networks(tr);
    let engines = engines(&nets, tr)?;
    let images = images(&nets, seed, POOL, tr);
    Ok(Setup {
        engines,
        images,
        nets,
    })
}

/// Contexts with compiled plans, one per engine.
fn contexts<'e>(
    engines: &'e [Engine],
    tr: &mut Tracer,
) -> Result<Vec<ExecutionContext<'e>>, EngineError> {
    let device = DeviceSpec::pinned_clock(Platform::Nx);
    engines
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let ctx = ExecutionContext::new(e, device.clone());
            tr.span("fastpath.compile", i as u32, |_| ctx.plan().map(|_| ()))?;
            Ok(ctx)
        })
        .collect()
}

/// The timed op: one image through every engine.
fn op(
    ctxs: &[ExecutionContext<'_>],
    image: &Tensor,
    tr: &mut Tracer,
) -> Result<Vec<Vec<Tensor>>, EngineError> {
    ctxs.iter()
        .enumerate()
        .map(|(i, ctx)| tr.span("runtime.infer", i as u32, |_| ctx.infer(image)))
        .collect()
}

fn label(outputs: &[Tensor]) -> usize {
    outputs[0].argmax().unwrap_or(0)
}

/// Digest of one image's outputs: every engine's label and output bits.
fn digest(outputs: &[Vec<Tensor>]) -> u64 {
    let mut d = Digest::default();
    for out in outputs {
        d.u64(label(out) as u64);
        for t in out {
            for v in t.as_slice() {
                d.u64(u64::from(v.to_bits()));
            }
        }
    }
    d.value()
}

/// Per-image output digests; an op passes when its image's outputs match
/// the first time that image was classified.
struct Checker {
    seen: Vec<Option<u64>>,
}

impl Checker {
    fn check(&mut self, image: usize, outputs: &Result<Vec<Vec<Tensor>>, EngineError>) -> bool {
        let Ok(outputs) = outputs else {
            return false;
        };
        let d = digest(outputs);
        *self.seen[image].get_or_insert(d) == d
    }

    /// The run digest: every pool image's digest, in pool order.
    fn value(&self) -> u64 {
        let mut d = Digest::default();
        for s in &self.seen {
            d.u64(s.unwrap_or(0));
        }
        d.value()
    }
}

/// The fixed sample: pool image 0 through every engine must match the
/// reference interpreter bit for bit, and so must its labels.
fn matches_interpreter(ctxs: &[ExecutionContext<'_>], image: &Tensor) -> bool {
    ctxs.iter()
        .all(|ctx| match (ctx.infer(image), ctx.infer_unplanned(image)) {
            (Ok(planned), Ok(reference)) => {
                label(&planned) == label(&reference)
                    && planned.len() == reference.len()
                    && planned.iter().zip(&reference).all(|(a, b)| {
                        a.shape() == b.shape()
                            && a.as_slice()
                                .iter()
                                .zip(b.as_slice())
                                .all(|(x, y)| x.to_bits() == y.to_bits())
                    })
            }
            _ => false,
        })
}

/// Digest of the seed-independent reference images through every engine,
/// folded with each engine's kernel choices.
fn reference(engines: &[Engine], ctxs: &[ExecutionContext<'_>], nets: &Networks) -> Option<u64> {
    let images = images(
        nets,
        crate::REFERENCE_SEED,
        REFERENCE_IMAGES,
        &mut Tracer::off(),
    );
    let mut d = Digest::default();
    for e in engines {
        for name in e.kernel_names() {
            d.str(&name);
        }
    }
    for (image, _) in &images {
        d.u64(digest(&op(ctxs, image, &mut Tracer::off()).ok()?));
    }
    Some(d.value())
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut errors = 0u64;
    let (times, setup) = SetupTimes::run(|| match setup(seed, &mut Tracer::off()) {
        Ok(s) => {
            // Plan compilation belongs to set-up; these plans are dropped
            // with the contexts and the kept set-up compiles its own below.
            errors += u64::from(contexts(&s.engines, &mut Tracer::off()).is_err());
            (Some(s), 0.0)
        }
        Err(_) => {
            errors += 1;
            (None, 0.0)
        }
    });
    let Some(setup) = setup else {
        return Outcome::failed_setup(times);
    };
    let Ok(ctxs) = contexts(&setup.engines, &mut Tracer::off()) else {
        return Outcome::failed_setup(times);
    };
    let mut checker = Checker {
        seen: vec![None; POOL],
    };
    // Classify the whole pool once, untimed: warms the plans' arenas and
    // fixes the per-image digests the timed ops are checked against.
    let mut failed = 0;
    for (i, (image, _)) in setup.images.iter().enumerate() {
        failed += u64::from(!checker.check(i, &op(&ctxs, image, &mut Tracer::off())));
    }
    failed += u64::from(!matches_interpreter(&ctxs, &setup.images[0].0));
    let reference = reference(&setup.engines, &ctxs, &setup.nets);
    let measured = harness::measure(seconds, |i| {
        let k = i % POOL;
        let (outputs, cost) = timed(|| op(&ctxs, &setup.images[k].0, &mut Tracer::off()));
        (cost, checker.check(k, &outputs))
    });
    let n = ctxs.len() as f64;
    Outcome {
        setup_engines: n,
        attempted: measured.attempted + POOL as u64 + 1 + errors,
        failed: failed + measured.failed + errors,
        ops: measured.costs,
        per_op: Units {
            engines: n,
            images: n,
            requests: n,
        },
        digest: checker.value(),
        digest_deterministic: true,
        reference,
        simulated: Vec::new(),
        extra_threads: 0,
        setup: times,
    }
}

/// Counter totals the kernels and the fast path keep process-wide.
fn counters() -> [u64; 4] {
    [
        trtsim_kernels::lanes::vector_lane_events(),
        trtsim_kernels::lanes::scalar_fallback_events(),
        trtsim_kernels::numeric::fp16_redo_events(),
        trtsim_ir::layout::layout_convert_events(),
    ]
}

/// The traced run: a traced set-up, traced ops alternating with untraced
/// ones, and compression and calibration replayed on the builder's graphs.
pub fn ledger(seed: u64, seconds: f64) -> Ledger {
    let mut tr = Tracer::on();
    let Ok(setup) = setup(seed, &mut tr) else {
        return Ledger::failed(Vec::new());
    };
    let Ok(ctxs) = contexts(&setup.engines, &mut tr) else {
        return Ledger::failed(tr.self_times());
    };
    let mut checker = Checker {
        seen: vec![None; POOL],
    };
    let mut setup_failed = 0;
    for (i, (image, _)) in setup.images.iter().enumerate() {
        setup_failed += u64::from(!checker.check(i, &op(&ctxs, image, &mut Tracer::off())));
    }
    let mut traced_ops = 0u64;
    let mut delta = [0u64; 4];
    let (plain, traced, attempted, failed) = harness::alternate(seconds * 0.8, |i, on| {
        let k = (i / 2) % POOL;
        let image = &setup.images[k].0;
        let before = counters();
        let (outputs, cost) = if on {
            timed(|| op(&ctxs, image, &mut tr))
        } else {
            timed(|| op(&ctxs, image, &mut Tracer::off()))
        };
        if on {
            traced_ops += 1;
            for (d, (a, b)) in delta.iter_mut().zip(counters().iter().zip(before)) {
                *d += a - b;
            }
        }
        (cost, checker.check(k, &outputs))
    });

    // Replays of the builder's compression and calibration steps on the
    // graphs it hands them (after the three graph passes).
    for (m, graph) in setup.nets.graphs.iter().enumerate() {
        let Ok(passed) = dead_layer::run(graph)
            .and_then(|(g, _)| vertical_fusion::run(&g))
            .and_then(|(g, _)| horizontal_merge::run(&g))
        else {
            setup_failed += 1;
            continue;
        };
        let (compressed, _) = tr.span("compress.compress", m as u32, |_| {
            compress_graph(&passed.0, None, Some(PRUNE_THRESHOLD))
        });
        let table = tr.span("calibrate.calibrate", m as u32, |_| {
            calibrate::calibrate(&compressed, &setup.nets.calibration)
        });
        setup_failed += u64::from(table.is_err());
    }

    let ms = |v: Vec<f64>| median(&v) / 1e3;
    let infer_us =
        |keep: &dyn Fn(usize) -> bool| tr.durations_us("runtime.infer", |t| keep(t as usize));
    let mut layers = vec![
        Layer::new(
            "models.classifier_ms",
            ms(tr.all_us("models.classifier")),
            "ms",
        ),
        Layer::new("data.images_ms", ms(tr.all_us("data.images")), "ms"),
        Layer::new(
            "compress.compress_ms",
            ms(tr.all_us("compress.compress")),
            "ms",
        ),
        Layer::new(
            "calibrate.calibrate_ms",
            ms(tr.all_us("calibrate.calibrate")),
            "ms",
        ),
        Layer::new(
            "fastpath.compile_ms",
            ms(tr.all_us("fastpath.compile")),
            "ms",
        ),
    ];
    for (c, name) in CONFIGS.iter().enumerate() {
        let us = infer_us(&|t| t % CONFIGS.len() == c);
        layers.push(Layer::new(
            format!("runtime.infer_ms.{name}"),
            median(&us) / 1e3,
            "ms",
        ));
    }
    for (m, name) in MODELS.iter().enumerate() {
        let us = infer_us(&|t| t / CONFIGS.len() == m);
        layers.push(Layer::new(
            format!("runtime.infer_ms.{name}"),
            median(&us) / 1e3,
            "ms",
        ));
    }
    for (c, name) in CONFIGS.iter().enumerate() {
        // Computed MACs over measured medians, summed across the models.
        let (mut macs, mut secs) = (0.0, 0.0);
        for (i, e) in setup
            .engines
            .iter()
            .enumerate()
            .filter(|(i, _)| i % CONFIGS.len() == c)
        {
            macs += trtsim_ir::flops::total_macs(e.graph()).unwrap_or(0) as f64;
            secs += median(&infer_us(&|t| t == i)) / 1e6;
        }
        layers.push(Layer::new(
            format!("kernels.gmacs_per_s.{name}"),
            ratio(macs, secs) / 1e9,
            "GMAC/s",
        ));
    }
    let per_image = |i: usize| ratio(delta[i] as f64, traced_ops as f64);
    layers.push(Layer::new(
        "kernels.vector_lanes_per_image",
        per_image(0),
        "count",
    ));
    layers.push(Layer::new(
        "kernels.scalar_fallback_per_image",
        per_image(1),
        "count",
    ));
    layers.push(Layer::new(
        "kernels.fp16_redos_per_image",
        per_image(2),
        "count",
    ));
    layers.push(Layer::new(
        "fastpath.layout_converts_per_image",
        per_image(3),
        "count",
    ));
    let plans: Vec<&InferencePlan<'_>> = ctxs.iter().filter_map(|c| c.plan().ok()).collect();
    let utilization: Vec<f64> = plans
        .iter()
        .map(|p| p.arena_stats().utilization())
        .collect();
    let peak_live: u64 = plans.iter().map(|p| p.arena_stats().peak_live_bytes).sum();
    layers.push(Layer::new(
        "fastpath.arena_utilization",
        ratio(utilization.iter().sum(), utilization.len() as f64),
        "ratio",
    ));
    layers.push(Layer::new(
        "fastpath.arena_peak_live_kb",
        peak_live as f64 / 1024.0,
        "KiB",
    ));
    Ledger {
        layers,
        attempted: attempted + POOL as u64 + setup.nets.graphs.len() as u64,
        failed: failed + setup_failed,
        untraced_p50_ms: median(&plain),
        traced_p50_ms: median(&traced),
        self_times: tr.self_times(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_reference() -> Option<u64> {
        let setup = setup(crate::REFERENCE_SEED, &mut Tracer::off()).ok()?;
        let ctxs = contexts(&setup.engines, &mut Tracer::off()).ok()?;
        assert!(matches_interpreter(&ctxs, &setup.images[0].0));
        reference(&setup.engines, &ctxs, &setup.nets)
    }

    #[test]
    fn digest_is_stable_across_repetitions_and_matches_the_pin() {
        let first = fresh_reference();
        assert!(first.is_some(), "reference set-up failed");
        assert_eq!(first, fresh_reference());
        assert_eq!(first, crate::pinned("numeric_infer"));
    }
}
