//! Scenario builders and Monte-Carlo runners for the paper's evaluation.
//!
//! Every experiment behind a §12 figure is one function here; the
//! figures of [`crate::figures`] read their samples, and
//! `run_all <figure>` regenerates them (the README's "Paper Map"
//! indexes them).
//! Every runner is a pure function of its seed and sizes:
//! [`run_accuracy`] spreads its placements over a
//! [`WorkerRuntime`], and each trial's seed depends on its placement
//! alone, so the trials are the same at any thread count.

use chronos_core::config::ChronosConfig;
use chronos_core::delay::arrival_delay_ns;
use chronos_core::session::ChronosSession;
use chronos_core::tof::genie_product;
use chronos_core::{PlanCache, SweepPipeline, TofEstimator, WorkerRuntime};
use chronos_link::sweep::{run_sweep, SweepConfig};
use chronos_link::time::Instant;
use chronos_link::traffic::{Outage, TcpModel, TcpSample, VideoModel, VideoSample};
use chronos_math::stats;
use chronos_rf::csi::MeasurementContext;
use chronos_rf::environment::Environment;
use chronos_rf::geometry::Point;
use chronos_rf::hardware::{AntennaArray, DeviceModel, Intel5300};
use chronos_rf::testbed::Testbed;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// One link-level trial outcome (a device pair at a testbed placement).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkTrial {
    /// Ground-truth distance between device origins, meters.
    pub true_distance_m: f64,
    /// Whether the link is line-of-sight.
    pub los: bool,
    /// Per-antenna absolute ToF errors, ns.
    pub tof_errors_ns: Vec<f64>,
    /// Per-antenna absolute distance errors, m.
    pub distance_errors_m: Vec<f64>,
    /// Localization error (position vs truth in receiver frame), m.
    pub localization_error_m: Option<f64>,
    /// Dominant-peak counts of the primary profiles (sparsity statistic).
    pub peak_counts: Vec<usize>,
    /// Measured per-packet detection delays, ns (slope method, §5).
    pub detection_delays_ns: Vec<f64>,
    /// True per-packet propagation delay, ns.
    pub true_tof_ns: f64,
}

/// Parameters of the testbed accuracy experiments (Figs. 7 and 8).
#[derive(Debug, Clone)]
pub struct AccuracyConfig {
    /// Master seed.
    pub seed: u64,
    /// Maximum number of placements to evaluate (subsampled determin-
    /// istically from the testbed's pair list; `usize::MAX` takes the
    /// whole floor).
    pub max_pairs: usize,
    /// Receiver antenna array (laptop = Fig. 8b, access point = Fig. 8c).
    pub array: AntennaArray,
    /// Estimator configuration.
    pub chronos: ChronosConfig,
    /// Worker threads. The trials do not depend on it.
    pub threads: usize,
}

impl Default for AccuracyConfig {
    fn default() -> Self {
        AccuracyConfig {
            seed: 42,
            max_pairs: 80,
            array: AntennaArray::laptop(),
            chronos: ChronosConfig::default(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }
}

/// Builds a calibrated session for a device pair, then re-targets it at the
/// testbed placement. Calibration happens once per pair at a known 2 m
/// line-of-sight geometry (paper §7 obs. 2), *before* the pair ever sees
/// the testbed — nothing about the evaluation placement leaks into it.
/// The session reads its plans from `plans`, which every pair of an
/// experiment shares (estimates are the same as on a private cache).
fn calibrated_session(
    rng: &mut StdRng,
    cfg: &AccuracyConfig,
    plans: &Arc<PlanCache>,
) -> ChronosSession {
    let initiator: DeviceModel = Intel5300::mobile(rng);
    let responder: DeviceModel = Intel5300::device(rng, cfg.array.clone());
    let mut ctx = MeasurementContext::new(
        Environment::free_space(),
        initiator,
        Point::new(0.0, 0.0),
        responder,
        Point::new(2.0, 0.0),
    );
    // Realistic Wi-Fi link budget: ~-30 dBm RSSI at 1 m over a -95 dBm
    // noise floor puts the 1 m SNR well above 50 dB; we use 50 dB so links
    // at 15 m (and through walls) retain workable CSI SNR, as the paper's
    // testbed did.
    ctx.snr.snr_at_1m_db = 50.0;
    let mut session = ChronosSession::with_cache(ctx, cfg.chronos.clone(), Arc::clone(plans));
    session.calibrate(rng, 2);
    session
}

/// Runs one placement trial, sweeping on `pipeline` (bitwise the same
/// as a fresh one) with plans from `plans`.
fn run_link_trial(
    seed: u64,
    testbed: &Testbed,
    pair: &chronos_rf::testbed::TestbedPair,
    cfg: &AccuracyConfig,
    plans: &Arc<PlanCache>,
    pipeline: &mut SweepPipeline,
) -> LinkTrial {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut session = calibrated_session(&mut rng, cfg, plans);

    // Move the pair into the testbed.
    session.ctx.environment = testbed.environment.clone();
    session.ctx.initiator_pos = pair.a;
    session.ctx.responder_pos = pair.b;

    let out = session.sweep_with_pipeline(&session.sweep_cfg, &mut rng, Instant::ZERO, pipeline);

    let ant_world = session.ctx.responder.antennas.world_positions(pair.b);
    let mut tof_errors_ns = Vec::new();
    let mut distance_errors_m = Vec::new();
    let mut peak_counts = Vec::new();
    for (i, tof) in out.tofs.iter().enumerate() {
        if let Ok(t) = tof {
            let true_d = ant_world[i].dist(pair.a);
            let true_tof = chronos_math::constants::m_to_ns(true_d);
            tof_errors_ns.push((t.tof_ns - true_tof).abs());
            distance_errors_m.push((t.distance_m - true_d).abs());
            if let Some(g) = t.groups.first() {
                peak_counts.push(g.profile.peak_count(0.15));
            }
        }
    }

    let truth_rel = pair.a.sub(pair.b);
    let localization_error_m = out.position.as_ref().ok().map(|p| p.point.dist(truth_rel));

    // Detection delays measured per packet via the §5 slope method, on a
    // handful of fresh captures at this placement.
    let mut detection_delays_ns = Vec::new();
    let band = chronos_rf::bands::band_by_channel(100).expect("band");
    let layout = chronos_rf::ofdm::SubcarrierLayout::intel5300();
    let hw = session.ctx.initiator.hw_delay_ns + session.ctx.responder.hw_delay_ns;
    for k in 0..6 {
        let m = session
            .ctx
            .measure_pair(&mut rng, &band, &layout, 0, 0, 1.0 + k as f64 * 1e-3);
        if let Ok(arrival) = arrival_delay_ns(&m.forward) {
            detection_delays_ns.push(arrival - m.truth_tof_ns - hw);
        }
    }

    LinkTrial {
        true_distance_m: pair.distance_m,
        los: pair.los,
        tof_errors_ns,
        distance_errors_m,
        localization_error_m,
        peak_counts,
        detection_delays_ns,
        true_tof_ns: chronos_math::constants::m_to_ns(pair.distance_m),
    }
}

/// Runs the full testbed accuracy experiment (shared by Figs. 7a, 7b, 7c,
/// 8a, 8b, 8c). Placement `i` is trial `i`, seeded `seed·1 000 003 + i`
/// whichever lane runs it, so the trials depend on the config but not
/// on `threads`.
pub fn run_accuracy(cfg: &AccuracyConfig) -> Vec<LinkTrial> {
    let testbed = Testbed::office(cfg.seed);
    let mut pairs = testbed.pairs_within(15.0);
    // Deterministic subsample: spread over the list.
    if pairs.len() > cfg.max_pairs {
        let stride = pairs.len() as f64 / cfg.max_pairs as f64;
        pairs = (0..cfg.max_pairs)
            .map(|i| pairs[(i as f64 * stride) as usize])
            .collect();
    }

    let lanes = cfg.threads.max(1);
    let mut pipelines: Vec<SweepPipeline> = (0..lanes).map(|_| SweepPipeline::new()).collect();
    let base = cfg.seed.wrapping_mul(1_000_003);
    let plans = Arc::new(PlanCache::new());
    WorkerRuntime::new(lanes - 1).run(
        pairs.iter().enumerate(),
        &mut pipelines,
        |pipeline, (i, pair)| {
            let seed = base.wrapping_add(i as u64);
            run_link_trial(seed, &testbed, pair, cfg, &plans, pipeline)
        },
    )
}

/// Splits trials into (LOS, NLOS) flattened error vectors by a selector.
pub fn split_errors(
    trials: &[LinkTrial],
    select: impl Fn(&LinkTrial) -> Vec<f64>,
) -> (Vec<f64>, Vec<f64>) {
    let mut los = Vec::new();
    let mut nlos = Vec::new();
    for t in trials {
        let vals = select(t);
        if t.los {
            los.extend(vals);
        } else {
            nlos.extend(vals);
        }
    }
    (los, nlos)
}

/// Fig. 9(a): distribution of full-sweep (hop) times, milliseconds.
pub fn run_hop_times(seed: u64, n: usize) -> Vec<f64> {
    let cfg = SweepConfig::standard();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let mut guard = 0;
    while out.len() < n && guard < n * 4 {
        guard += 1;
        let r = run_sweep(&cfg, Instant::ZERO, &mut rng);
        if r.complete {
            out.push(r.duration().as_millis_f64());
        }
    }
    out
}

/// Runs one protocol sweep and converts it into a single traffic outage
/// window starting at `at_ms` (the paper triggers localization at t = 6 s).
pub fn sweep_outage(seed: u64, at_ms: u64) -> Outage {
    let cfg = SweepConfig::standard();
    let mut rng = StdRng::seed_from_u64(seed);
    let r = run_sweep(&cfg, Instant::from_millis(at_ms), &mut rng);
    Outage {
        start: r.started,
        end: r.finished,
    }
}

/// Fig. 9(b): the video trace around a localization request at t = 6 s.
pub fn run_video_trace(seed: u64) -> Vec<VideoSample> {
    let outage = sweep_outage(seed, 6_000);
    VideoModel::default().run(
        chronos_link::time::Duration::from_millis(10_000),
        chronos_link::time::Duration::from_millis(20),
        &[outage],
    )
}

/// Fig. 9(c): the TCP throughput trace around the same request.
pub fn run_tcp_trace(seed: u64) -> Vec<TcpSample> {
    let outage = sweep_outage(seed, 6_000);
    TcpModel::default().run(
        chronos_link::time::Duration::from_millis(15_000),
        chronos_link::time::Duration::from_millis(1_000),
        &[outage],
    )
}

/// Fig. 10: the drone follow experiment. Returns per-tick records.
pub fn run_drone(seed: u64, ticks: usize) -> Vec<chronos_drone::FollowRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = chronos_drone::FollowConfig {
        ticks,
        ..Default::default()
    };
    let mut sim = chronos_drone::FollowSim::new(&mut rng, cfg, seed);
    sim.run(&mut rng)
}

/// Fig. 4: the three-path multipath profile recovered from an ideal
/// full-plan sweep on raw (unsquared) channels. Returns `(delay_ns,
/// magnitude)` rows of the recovered profile plus the estimated ToF.
pub fn run_fig4_profile() -> (Vec<(f64, f64)>, f64) {
    let paths = [(5.2, 1.0), (10.0, 0.65), (16.0, 0.4)];
    let products: Vec<_> = chronos_rf::bands::band_plan()
        .iter()
        .map(|b| genie_product(b.center_hz, &paths, 1.0))
        .collect();
    let mut cfg = ChronosConfig::ideal();
    cfg.grid_span_ns = 50.0;
    cfg.grid_step_ns = 0.1;
    let est = TofEstimator::new(cfg);
    let r = SweepPipeline::new()
        .estimate_from_products(&est, &products)
        .expect("fig4 estimate");
    let prof = &r.groups[0].profile;
    let rows: Vec<(f64, f64)> = prof
        .magnitudes
        .iter()
        .enumerate()
        .map(|(i, m)| (prof.start_ns + i as f64 * prof.step_ns, *m))
        .collect();
    (rows, r.tof_ns)
}

/// Summary statistics the headline table quotes.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Mean.
    pub mean: f64,
    /// Standard deviation.
    pub std: f64,
    /// Sample count.
    pub n: usize,
}

/// Reduces a sample vector to its summary.
pub fn summarize(xs: &[f64]) -> Summary {
    Summary {
        median: stats::median(xs),
        p95: stats::percentile(xs, 95.0),
        mean: stats::mean(xs),
        std: stats::std_dev(xs),
        n: xs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_chronos() -> ChronosConfig {
        ChronosConfig {
            max_iters: 120,
            grid_step_ns: 0.5,
            ..Default::default()
        }
    }

    #[test]
    fn accuracy_runner_produces_trials() {
        let cfg = AccuracyConfig {
            seed: 1,
            max_pairs: 6,
            array: AntennaArray::laptop(),
            chronos: quick_chronos(),
            threads: 2,
        };
        let trials = run_accuracy(&cfg);
        assert_eq!(trials.len(), 6);
        // The quick config (coarse grid, few iterations) is deliberately
        // degraded; far NLOS placements may fail, as in the full runs.
        let with_tof = trials
            .iter()
            .filter(|t| !t.tof_errors_ns.is_empty())
            .count();
        assert!(with_tof >= 3, "only {with_tof} trials produced estimates");
        for t in &trials {
            for e in &t.tof_errors_ns {
                assert!(e.is_finite() && *e >= 0.0);
            }
        }
    }

    #[test]
    fn accuracy_trials_identical_at_any_thread_count() {
        let run = |threads| {
            run_accuracy(&AccuracyConfig {
                seed: 9,
                max_pairs: 6,
                array: AntennaArray::laptop(),
                chronos: quick_chronos(),
                threads,
            })
        };
        let one = run(1);
        assert_eq!(one.len(), 6);
        for threads in [2, 5] {
            assert_eq!(run(threads), one, "{threads} threads");
        }
    }

    #[test]
    fn split_errors_partitions() {
        let t1 = LinkTrial {
            true_distance_m: 1.0,
            los: true,
            tof_errors_ns: vec![0.1, 0.2],
            distance_errors_m: vec![],
            localization_error_m: None,
            peak_counts: vec![],
            detection_delays_ns: vec![],
            true_tof_ns: 3.3,
        };
        let mut t2 = t1.clone();
        t2.los = false;
        t2.tof_errors_ns = vec![0.9];
        let (los, nlos) = split_errors(&[t1, t2], |t| t.tof_errors_ns.clone());
        assert_eq!(los, vec![0.1, 0.2]);
        assert_eq!(nlos, vec![0.9]);
    }

    #[test]
    fn hop_times_sane() {
        let times = run_hop_times(3, 10);
        assert_eq!(times.len(), 10);
        let med = stats::median(&times);
        assert!((70.0..100.0).contains(&med), "median {med}");
    }

    #[test]
    fn traces_generated() {
        let v = run_video_trace(4);
        assert!(!v.is_empty());
        assert!(!chronos_link::traffic::VideoModel::has_stall(&v));
        let t = run_tcp_trace(4);
        assert!(t.len() >= 14);
    }

    #[test]
    fn fig4_profile_has_three_peaks() {
        let (rows, tof) = run_fig4_profile();
        assert!((tof - 5.2).abs() < 0.2, "tof {tof}");
        let mags: Vec<f64> = rows.iter().map(|r| r.1).collect();
        let peaks = chronos_math::peaks::find_peaks(
            &mags,
            0.0,
            0.1,
            &chronos_math::peaks::PeakConfig {
                dominance: 0.2,
                min_separation: 5,
            },
        );
        assert!(peaks.len() >= 3, "{} peaks", peaks.len());
    }

    #[test]
    fn summary_reduction() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 100.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.median, 3.0);
        assert!(s.p95 > 4.0);
    }
}
