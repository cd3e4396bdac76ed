//! Adversarial-ranging scenarios: honest clients sharing a service with
//! one attacker, at graded attack strengths.
//!
//! These runners back `tests/adversarial.rs`, the `BENCH_adversarial.json`
//! detection-latency baseline (`scripts/check-bench-regression.sh` — CI
//! fails when any cell differs from the baseline) and the numbers quoted
//! in `docs/ADVERSARIAL.md`. Everything is deterministic given a seed.
//!
//! Every scenario warms up **clean** before the attacker switches on at
//! the `onset` epoch: a constant spoof present from a client's very first
//! sweep is self-consistent (the filter seeds on it) and therefore
//! undetectable by innovation statistics — it is the *onset* of an attack
//! that trips the gate. See the threat-model notes in
//! `docs/ADVERSARIAL.md`.

use crate::report::Table;
use chronos_core::config::ChronosConfig;
use chronos_core::engine::{ServiceEngine, WindowReport};
use chronos_core::service::{QuarantineConfig, ServiceConfig};
use chronos_core::tracker::TrackerConfig;
use chronos_rf::bands::band_plan_5ghz;
use chronos_rf::csi::MeasurementContext;
use chronos_rf::environment::{Attacker, Environment};
use chronos_rf::geometry::Point;
use chronos_rf::hardware::{ideal_device, AntennaArray};
use chronos_rf::propagation::{Path, PathSet};

/// Sentinel detection latency for scenarios where the attacker is never
/// quarantined within the run (weak attacks staying under the gate are
/// undetected *by design* — the bench table shows the gradient).
pub const DETECT_SENTINEL: f64 = 999.0;

/// Attack strength grades used by [`scenario_matrix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strength {
    /// Below the innovation gate / barely above the noise floor —
    /// expected to go undetected.
    Weak,
    /// Clearly above the gate; detection within a few sweeps.
    Mid,
    /// Blatant; detection on the first attacked sweep (or a short miss
    /// run for jamming).
    Strong,
}

impl Strength {
    fn tag(self) -> &'static str {
        match self {
            Strength::Weak => "weak",
            Strength::Mid => "mid",
            Strength::Strong => "strong",
        }
    }
}

/// Builds the replay attacker at a given strength: a constant extra
/// delay spliced into every path (meters of spoofed range ≈ 0.3 ×
/// `extra_delay_ns`).
pub fn replay_attacker(s: Strength) -> Attacker {
    let extra_delay_ns = match s {
        Strength::Weak => 0.5,
        Strength::Mid => 5.0,
        Strength::Strong => 20.0,
    };
    Attacker::ReplayOffset { extra_delay_ns }
}

/// Builds the CSI-injection attacker: a phantom path *earlier* than the
/// true direct path (5 ns ≈ 1.5 m), at a strength-graded amplitude. The
/// estimator's first-dominant-peak rule ignores the weak phantom but
/// locks onto the strong one.
pub fn inject_attacker(s: Strength) -> Attacker {
    let amplitude = match s {
        Strength::Weak => 0.02,
        Strength::Mid => 0.6,
        Strength::Strong => 3.0,
    };
    Attacker::CsiInject {
        forged_profile: PathSet::new(vec![Path::new(5.0, amplitude)]),
    }
}

/// Builds the band-jamming attacker over the whole 5 GHz plan (the bands
/// TRACK subsets are drawn from), at a strength-graded SNR floor: 20 dB
/// adds CSI noise only, 5 dB costs ~50% of frames per jammed band,
/// −5 dB is a near-total blackout.
pub fn jam_attacker(s: Strength) -> Attacker {
    let snr_floor_db = match s {
        Strength::Weak => 20.0,
        Strength::Mid => 5.0,
        Strength::Strong => -5.0,
    };
    Attacker::BandJam {
        bands: band_plan_5ghz().iter().map(|b| b.channel).collect(),
        snr_floor_db,
    }
}

/// Parameters of one adversarial run.
#[derive(Debug, Clone)]
pub struct AdversarialScenarioConfig {
    /// Scenario name (the regression baseline's row key).
    pub name: String,
    /// Master seed.
    pub seed: u64,
    /// Total epochs (one sweep per client per epoch).
    pub epochs: usize,
    /// Epoch at which the attacker switches on (`None` attacker runs are
    /// the attack-free baseline). Sweeps before the onset are clean for
    /// every client.
    pub onset: usize,
    /// The attack, or `None` for the attack-free control run.
    pub attacker: Option<Attacker>,
    /// Worker-thread count (0 = one per core). Results are independent
    /// of this by the engine's seeding contract; `tests/adversarial.rs`
    /// asserts it stays true under attack.
    pub threads: usize,
}

impl AdversarialScenarioConfig {
    /// The attack-free control: same clients, same seeds, no attacker.
    pub fn attack_free(seed: u64, epochs: usize, onset: usize) -> Self {
        AdversarialScenarioConfig {
            name: "attack_free".to_string(),
            seed,
            epochs,
            onset,
            attacker: None,
            threads: 0,
        }
    }
}

/// A strength-graded attacker constructor ([`replay_attacker`] and kin).
pub type AttackerBuilder = fn(Strength) -> Attacker;

/// The replay/inject/jam × weak/mid/strong grid, prefixed by the
/// attack-free control run.
pub fn scenario_matrix(seed: u64, epochs: usize, onset: usize) -> Vec<AdversarialScenarioConfig> {
    let mut m = vec![AdversarialScenarioConfig::attack_free(seed, epochs, onset)];
    let builders: [(&str, AttackerBuilder); 3] = [
        ("replay", replay_attacker),
        ("inject", inject_attacker),
        ("jam", jam_attacker),
    ];
    for (kind, build) in builders {
        for s in [Strength::Weak, Strength::Mid, Strength::Strong] {
            m.push(AdversarialScenarioConfig {
                name: format!("{kind}_{}", s.tag()),
                attacker: Some(build(s)),
                ..AdversarialScenarioConfig::attack_free(seed, epochs, onset)
            });
        }
    }
    m
}

/// Index of the attacker client in every adversarial run. It joins
/// *last* so the honest clients' admission order, slot indices and RNG
/// streams are identical to the attack-free control.
pub const ATTACKER: usize = 2;

/// Ground-truth client positions (AP array at the origin): two honest
/// clients plus the attacker.
pub const CLIENT_POSITIONS: [Point; 3] = [
    Point::new(1.5, 3.0),
    Point::new(-2.0, 2.5),
    Point::new(2.5, 2.0),
];

/// One adversarial run's outcome.
#[derive(Debug, Clone)]
pub struct AdversarialRun {
    /// Per-epoch service reports, in order (3 clients each).
    pub reports: Vec<WindowReport>,
    /// The onset epoch the run was configured with.
    pub onset: usize,
}

impl AdversarialRun {
    /// Epochs the honest-error metric skips while the position filters
    /// converge from their zero-velocity seed.
    pub const WARMUP_EPOCHS: usize = 3;

    /// Mean tracked-position error of the *honest* clients over the
    /// post-warmup epochs, meters — the collateral-damage observable: an
    /// attack on one client must not degrade its neighbors.
    pub fn honest_err_m(&self) -> f64 {
        let errs: Vec<f64> = self
            .reports
            .iter()
            .skip(Self::WARMUP_EPOCHS)
            .flat_map(|r| {
                r.outcomes
                    .iter()
                    .filter(|o| o.client != ATTACKER)
                    .filter_map(|o| o.tracked_pos_error_m)
            })
            .collect();
        if errs.is_empty() {
            f64::NAN
        } else {
            errs.iter().sum::<f64>() / errs.len() as f64
        }
    }

    /// Sweeps from the attack onset to the attacker's first quarantined
    /// outcome (1 = flagged on the very first attacked sweep), or
    /// [`DETECT_SENTINEL`] if it is never flagged within the run.
    pub fn detect_latency_sweeps(&self) -> f64 {
        for (e, r) in self.reports.iter().enumerate().skip(self.onset) {
            let flagged = r
                .outcomes
                .iter()
                .any(|o| o.client == ATTACKER && o.quarantined);
            if flagged {
                return (e - self.onset + 1) as f64;
            }
        }
        DETECT_SENTINEL
    }

    /// Fraction of the attacker's post-onset outcomes reported under
    /// QUARANTINE — how persistently the service distrusts it once the
    /// attack is on.
    pub fn quarantined_rate(&self) -> f64 {
        let post: Vec<bool> = self
            .reports
            .iter()
            .skip(self.onset)
            .flat_map(|r| {
                r.outcomes
                    .iter()
                    .filter(|o| o.client == ATTACKER)
                    .map(|o| o.quarantined)
            })
            .collect();
        if post.is_empty() {
            0.0
        } else {
            post.iter().filter(|q| **q).count() as f64 / post.len() as f64
        }
    }
}

/// The estimator settings adversarial runs use: the coarse-but-honest
/// grid also used by `tests/engine.rs`, so the debug-mode test tier
/// stays fast while release benches measure the same pipeline.
pub fn adversarial_chronos() -> ChronosConfig {
    ChronosConfig {
        max_iters: 120,
        grid_step_ns: 0.5,
        ..ChronosConfig::ideal()
    }
}

/// The tracker tuning adversarial runs use (the LOS position-bench
/// tuning: generous maneuvering allowance, cm-level measurement noise).
pub fn adversarial_tracker() -> TrackerConfig {
    TrackerConfig {
        process_noise_mps2: 4.0,
        measurement_noise_m: 0.08,
        ..TrackerConfig::default()
    }
}

/// Builds the adversarial service: three static clients at
/// [`CLIENT_POSITIONS`] (the attacker last) ranged in position mode by a
/// 3-antenna AP array at the origin, adaptive scheduling, quarantine
/// policy on, all clients still honest. Shared by [`run_adversarial`]
/// and the window-mode determinism tests.
pub fn adversarial_service(threads: usize) -> ServiceEngine {
    let mut svc = ServiceEngine::new(ServiceConfig {
        threads,
        quarantine: Some(QuarantineConfig::default()),
        ..ServiceConfig::position(adversarial_tracker())
    });
    for p in CLIENT_POSITIONS {
        let mut ctx = MeasurementContext::new(
            Environment::free_space(),
            ideal_device(AntennaArray::single()),
            p,
            ideal_device(AntennaArray::access_point()),
            Point::new(0.0, 0.0),
        );
        ctx.snr.snr_at_1m_db = 36.0;
        let id = svc.join(ctx, adversarial_chronos());
        svc.session_mut(id).sweep_cfg.medium.loss_prob = 0.0;
    }
    svc
}

/// Runs one adversarial scenario through lock-step epochs. The run
/// starts clean; at the onset epoch the attacker's measurement context
/// is corrupted mid-run, exactly as a compromised client would start
/// lying between two sweeps.
pub fn run_adversarial(cfg: &AdversarialScenarioConfig) -> AdversarialRun {
    let mut svc = adversarial_service(cfg.threads);
    let mut reports = Vec::with_capacity(cfg.epochs);
    for e in 0..cfg.epochs {
        if e == cfg.onset {
            svc.session_mut(ATTACKER).ctx.attacker = cfg.attacker.clone();
        }
        reports.push(svc.run_epoch(cfg.seed.wrapping_mul(1000).wrapping_add(e as u64)));
    }
    AdversarialRun {
        reports,
        onset: cfg.onset,
    }
}

/// Headers of the `BENCH_adversarial` table, in column order. The gate
/// ([`crate::cli::check_exact`]) holds every column to the baseline
/// exactly.
pub const ADVERSARIAL_HEADERS: [&str; 6] = [
    "scenario",
    "epochs",
    "onset",
    "honest_err_m",
    "detect_latency_sweeps",
    "quarantined_rate",
];

/// Runs the full scenario matrix and tabulates the detection-latency
/// regression metrics (the `BENCH_adversarial.json` payload).
pub fn adversarial_table(seed: u64, epochs: usize, onset: usize) -> Table {
    let mut table = Table::new("BENCH_adversarial", &ADVERSARIAL_HEADERS);
    for cfg in scenario_matrix(seed, epochs, onset) {
        let run = run_adversarial(&cfg);
        table.row(&[
            cfg.name.clone(),
            format!("{}", cfg.epochs),
            format!("{}", cfg.onset),
            format!("{:.3}", run.honest_err_m()),
            format!("{:.0}", run.detect_latency_sweeps()),
            format!("{:.3}", run.quarantined_rate()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_attack_and_strength() {
        let m = scenario_matrix(1, 10, 4);
        assert_eq!(m.len(), 10);
        assert_eq!(m[0].name, "attack_free");
        for kind in ["replay", "inject", "jam"] {
            for s in ["weak", "mid", "strong"] {
                assert!(
                    m.iter().any(|c| c.name == format!("{kind}_{s}")),
                    "missing {kind}_{s}"
                );
            }
        }
    }

    #[test]
    fn strengths_are_graded() {
        // Replay delays grow with strength.
        let delay = |s| match replay_attacker(s) {
            Attacker::ReplayOffset { extra_delay_ns } => extra_delay_ns,
            _ => unreachable!(),
        };
        assert!(delay(Strength::Weak) < delay(Strength::Mid));
        assert!(delay(Strength::Mid) < delay(Strength::Strong));
        // Jam floors drop (more noise, more loss) with strength.
        let floor = |s| match jam_attacker(s) {
            Attacker::BandJam { snr_floor_db, .. } => snr_floor_db,
            _ => unreachable!(),
        };
        assert!(floor(Strength::Weak) > floor(Strength::Mid));
        assert!(floor(Strength::Mid) > floor(Strength::Strong));
        // The jammer targets the whole 5 GHz plan (TRACK subsets).
        match jam_attacker(Strength::Strong) {
            Attacker::BandJam { bands, .. } => assert_eq!(bands.len(), 24),
            _ => unreachable!(),
        }
    }

    #[test]
    fn detection_metrics_on_synthetic_reports() {
        // An empty run reports the sentinel and a zero rate, not NaN.
        let run = AdversarialRun {
            reports: Vec::new(),
            onset: 0,
        };
        assert_eq!(run.detect_latency_sweeps(), DETECT_SENTINEL);
        assert_eq!(run.quarantined_rate(), 0.0);
    }
}
