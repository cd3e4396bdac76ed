//! The run loop shared by the workloads: repeated set-up, the timed
//! closed loop, the reference kernel before every set-up and step, and
//! the traced variant with its output checks.

use crate::refkernel::{nominal, RefKernel};
use crate::report::{percentile, Digest, EndToEndSamples};
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Steps every run makes, however short `--seconds` is: the p90 needs at
/// least 100 samples.
pub const MIN_STEPS: usize = 100;

/// The check prefix: output digests and per-layer counts cover exactly
/// the first this-many steps, so they repeat for a given seed whatever
/// the host's speed.
pub const PREFIX_STEPS: usize = 24;

/// Mixes a seed with a salt or index into an independent stream seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// What a step produced, reduced to what the benchmark checks and reports.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// Digest of every deterministic output of the step.
    pub digest: u64,
    /// Fixes produced.
    pub fixes: u64,
    /// Fix attempts (sweeps, plus blasts on a fleet).
    pub attempts: u64,
    /// Error samples, meters.
    pub errors_m: Vec<f64>,
    /// Whether every output number was finite.
    pub finite: bool,
}

/// A workload's built state.
pub trait Rig {
    /// Layer counters a traced run accumulates over the check prefix.
    type Counts: Default;

    /// Whether the traced run pairs every traced step with an untraced run
    /// of the same step on the same rig (steps are independent), rather
    /// than checking against an untraced replica (steps carry state).
    const PAIRED: bool;

    /// Steps whose outputs give the quality metrics (`fix_ratio`,
    /// `err_m_*`): the first this-many, so those metrics depend on the
    /// seed alone, not on how many steps the host managed.
    fn quality_steps(&self) -> usize;

    /// One untraced step, and the raw host seconds of its program calls.
    fn step(&mut self, i: usize) -> (StepOutcome, f64);

    /// One traced step: spans for each layer call, with a top-level
    /// `step` span around the program calls. Counts layer work into
    /// `counts` while `i < PREFIX_STEPS`.
    fn step_traced(
        &mut self,
        i: usize,
        tracer: &mut Tracer,
        counts: &mut Self::Counts,
    ) -> StepOutcome;

    /// Per-layer values: span self times per step (`scale[step]` takes a
    /// step's raw seconds to nominal seconds) and the prefix's counts.
    fn layer_values(
        counts: &Self::Counts,
        tracer: &Tracer,
        scale: &[f64],
    ) -> Vec<(&'static str, f64)>;
}

/// A run's settings, from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed.
    pub seed: u64,
    /// Measured wall time.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct RunResult {
    /// End-to-end raw material.
    pub samples: EndToEndSamples,
    /// Steps run (the result line's `attempted`).
    pub steps: u64,
    /// Steps whose output failed a check (non-finite output, or a traced
    /// step whose digest differs from its untraced run).
    pub failed: u64,
    /// Digest of the check prefix.
    pub digest: u64,
    /// Per-layer values (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
    /// The trace (traced runs only).
    pub tracer: Option<Tracer>,
}

/// Runs a workload: `SETUP_REPS` timed builds (the last one kept), then
/// closed-loop steps until `seconds` have passed and at least `MIN_STEPS`
/// and the quality steps ran. A timed reference pass precedes every build
/// and every step, and one follows the last step: each build and step is
/// normalized by the mean of the passes around it.
///
/// The traced run traces every step and checks its output digest against
/// an untraced run of the same step: paired on the same rig, or from an
/// untraced replica (the first build) over the check prefix. The untraced
/// timings give the tracing overhead.
pub fn run<R: Rig>(cfg: &RunConfig, build: impl Fn(u64) -> R) -> RunResult {
    let mut kernel = RefKernel::new();
    let mut s = EndToEndSamples::default();
    // Untraced reference of a traced run, per step: the digest, and the
    // step's seconds — nominal for a replica step, raw (normalized once
    // the passes around it are known) for a paired one.
    let mut reference: Vec<(u64, f64)> = Vec::new();
    // Every timed pass, in order: one before each build, one before each
    // step, one after the last step.
    let mut passes: Vec<f64> = Vec::new();
    let mut rig = None;
    for rep in 0..SETUP_REPS {
        passes.push(kernel.timed_pass());
        drop(rig.take());
        let t0 = Instant::now();
        let mut built = build(cfg.seed);
        s.setup_s.push(t0.elapsed().as_secs_f64());
        if rep == 0 && cfg.traced && !R::PAIRED {
            for i in 0..PREFIX_STEPS {
                let before = kernel.timed_pass();
                let (out, dt) = built.step(i);
                let level = 0.5 * (before + kernel.timed_pass());
                reference.push((out.digest, nominal(dt, level)));
            }
        }
        rig = Some(built);
    }
    let mut rig = rig.expect("at least one set-up");
    let quality = rig.quality_steps();
    let min_steps = MIN_STEPS.max(quality);

    let mut tracer = Tracer::new();
    let mut counts = R::Counts::default();
    let mut digest = Digest::default();
    let mut failed = 0;
    let limit = Duration::from_secs_f64(cfg.seconds);
    let started = Instant::now();
    let mut i = 0;
    while i < min_steps || started.elapsed() < limit {
        passes.push(kernel.timed_pass());
        let out = if !cfg.traced {
            let (out, dt) = rig.step(i);
            s.step_s.push(dt);
            out
        } else if R::PAIRED {
            tracer.set_step(i as u32);
            // Alternate which side runs first, so neither always inherits
            // the other's warm caches.
            let ((untraced, dt), traced) = if i % 2 == 0 {
                let u = rig.step(i);
                (u, rig.step_traced(i, &mut tracer, &mut counts))
            } else {
                let t = rig.step_traced(i, &mut tracer, &mut counts);
                (rig.step(i), t)
            };
            reference.push((untraced.digest, dt));
            traced
        } else {
            tracer.set_step(i as u32);
            rig.step_traced(i, &mut tracer, &mut counts)
        };
        if let Some(&(want, _)) = reference.get(i) {
            failed += (want != out.digest) as u64;
        }
        if i < PREFIX_STEPS {
            digest.put(out.digest);
        }
        failed += !out.finite as u64;
        s.fixes += out.fixes;
        if i < quality {
            s.quality_fixes += out.fixes;
            s.quality_attempts += out.attempts;
            s.errors_m.extend(out.errors_m);
        }
        i += 1;
    }
    passes.push(kernel.timed_pass());
    let level = |k: usize| 0.5 * (passes[k] + passes[k + 1]);
    s.setup_ref_s = (0..SETUP_REPS).map(level).collect();
    s.step_ref_s = (SETUP_REPS..SETUP_REPS + i).map(level).collect();

    let mut layers = Vec::new();
    if cfg.traced {
        let scale: Vec<f64> = s.step_ref_s.iter().map(|r| nominal(1.0, *r)).collect();
        let traced_s: Vec<f64> = tracer
            .step_durations_ns("step")
            .iter()
            .map(|ns| *ns as f64 * 1e-9)
            .collect();
        // Overhead over the steps both sides ran, each normalized.
        let both = reference.len().min(traced_s.len());
        let untraced: Vec<f64> = (0..both)
            .map(|k| reference[k].1 * if R::PAIRED { scale[k] } else { 1.0 })
            .collect();
        let traced: Vec<f64> = (0..both).map(|k| traced_s[k] * scale[k]).collect();
        let untraced_p50 = percentile(&untraced, 50.0);
        s.step_s = traced_s;
        layers = R::layer_values(&counts, &tracer, &scale);
        layers.extend([
            ("trace.steps", i as f64),
            (
                "trace.step_ms_p50",
                percentile(&s.nominal_steps(), 50.0) * 1e3,
            ),
            ("trace.untraced_ms_p50", untraced_p50 * 1e3),
            (
                "trace.overhead",
                percentile(&traced, 50.0) / untraced_p50 - 1.0,
            ),
        ]);
    }
    RunResult {
        samples: s,
        steps: i as u64,
        failed,
        digest: digest.value(),
        layers,
        tracer: cfg.traced.then_some(tracer),
    }
}

/// The check prefix of one seed, outside any timed run.
#[derive(Debug, Clone, PartialEq)]
pub struct Prefix {
    /// Digest of the traced steps' outputs.
    pub traced_digest: u64,
    /// Digest of the same steps run untraced.
    pub untraced_digest: u64,
    /// The per-layer counts (every per-layer value that is not a time).
    pub counts: Vec<(&'static str, f64)>,
}

/// Runs the first `PREFIX_STEPS` steps of a seed traced and untraced —
/// on the same rig when steps are independent, on a second build when
/// they carry state — and returns both digests and the layer counts.
pub fn run_prefix<R: Rig>(seed: u64, build: impl Fn(u64) -> R) -> Prefix {
    let mut traced_rig = build(seed);
    let mut untraced_rig = (!R::PAIRED).then(|| build(seed));
    let mut tracer = Tracer::new();
    let mut counts = R::Counts::default();
    let (mut traced, mut untraced) = (Digest::default(), Digest::default());
    for i in 0..PREFIX_STEPS {
        tracer.set_step(i as u32);
        traced.put(traced_rig.step_traced(i, &mut tracer, &mut counts).digest);
        let rig = untraced_rig.as_mut().unwrap_or(&mut traced_rig);
        untraced.put(rig.step(i).0.digest);
    }
    let times: Vec<&str> = crate::report::PER_LAYER
        .iter()
        .filter(|(_, unit)| *unit == "ms")
        .map(|(name, _)| *name)
        .collect();
    Prefix {
        traced_digest: traced.value(),
        untraced_digest: untraced.value(),
        counts: R::layer_values(&counts, &tracer, &[1.0; PREFIX_STEPS])
            .into_iter()
            .filter(|(name, _)| !times.contains(name))
            .collect(),
    }
}
