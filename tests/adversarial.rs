//! The adversarial-ranging test tier: attacker models composed into the
//! multi-client service, per-client anomaly scoring and the quarantine
//! policy (see `docs/ADVERSARIAL.md`).
//!
//! Contracts pinned here:
//!
//! * **Collateral damage**: for every attacker variant at every
//!   strength, the *honest* clients' tracked-position MAE stays within
//!   10% of the attack-free control run — one compromised client must
//!   not poison its neighbors' fixes.
//! * **Bounded detection**: at the strongest strength every variant is
//!   quarantined within 20 sweeps of the attack onset.
//! * **Withheld estimates**: quarantined outcomes carry link, truth and
//!   anomaly evidence but no distance/position estimates.
//! * **Determinism under attack**: window reports are bitwise identical
//!   across worker-thread counts {1, 2, 8} — the seeding contract of
//!   `chronos_core::engine` survives attacker-induced plan and timing
//!   changes.
//!
//! Runs use the coarse estimator grid (`adversarial_chronos`) so the
//! tier stays affordable in debug builds.

use chronos_bench::adversarial::{
    adversarial_service, inject_attacker, jam_attacker, replay_attacker, run_adversarial,
    AdversarialRun, AdversarialScenarioConfig, Strength, ATTACKER, CLIENT_POSITIONS,
    DETECT_SENTINEL,
};
use chronos_suite::link::time::Duration;
use chronos_suite::rf::environment::Attacker;
use std::sync::OnceLock;

const SEED: u64 = 73;
const EPOCHS: usize = 14;
// Past the quarantine policy's `min_sweeps` warm-up guard: an attack
// whose only gate violation lands *inside* the guard window re-seeds
// the filter at the spoofed fix and is consistent ever after — the
// one-shot-onset caveat documented in `docs/ADVERSARIAL.md`.
const ONSET: usize = 6;

/// The attack-free control run, computed once and shared by the
/// per-variant tests (same seed, same clients, attacker never enabled).
fn baseline() -> &'static AdversarialRun {
    static BASELINE: OnceLock<AdversarialRun> = OnceLock::new();
    BASELINE.get_or_init(|| {
        run_adversarial(&AdversarialScenarioConfig::attack_free(SEED, EPOCHS, ONSET))
    })
}

/// Runs one attack variant at all three strengths and asserts the tier's
/// contracts against the attack-free control.
fn assert_variant(kind: &str, build: fn(Strength) -> Attacker) {
    let base = baseline();
    let base_err = base.honest_err_m();
    assert!(
        base_err.is_finite(),
        "control run must produce honest fixes"
    );
    assert_eq!(
        base.detect_latency_sweeps(),
        DETECT_SENTINEL,
        "control run must never quarantine anyone"
    );
    for s in [Strength::Weak, Strength::Mid, Strength::Strong] {
        let cfg = AdversarialScenarioConfig {
            name: format!("{kind}_{s:?}"),
            attacker: Some(build(s)),
            ..AdversarialScenarioConfig::attack_free(SEED, EPOCHS, ONSET)
        };
        let run = run_adversarial(&cfg);
        let err = run.honest_err_m();
        assert!(
            err <= base_err * 1.10,
            "{kind}/{s:?}: honest MAE {err:.4} m exceeds 110% of attack-free {base_err:.4} m"
        );
        // Pre-onset sweeps are clean for everyone: nobody may be
        // quarantined before the attack exists.
        for r in run.reports.iter().take(ONSET) {
            assert!(
                r.outcomes.iter().all(|o| !o.quarantined),
                "{kind}/{s:?}: quarantine before the attack onset"
            );
        }
        // Honest clients are never quarantined, at any strength.
        for r in &run.reports {
            for o in r.outcomes.iter().filter(|o| o.client != ATTACKER) {
                assert!(
                    !o.quarantined,
                    "{kind}/{s:?}: honest client {} quarantined",
                    o.client
                );
            }
        }
        if s == Strength::Strong {
            let latency = run.detect_latency_sweeps();
            assert!(
                latency <= 20.0,
                "{kind}/strong: attacker not quarantined within 20 sweeps \
                 (latency {latency})"
            );
            // Quarantined outcomes withhold every estimate but keep the
            // evidence trail.
            let q = run
                .reports
                .iter()
                .flat_map(|r| r.outcomes.iter())
                .find(|o| o.client == ATTACKER && o.quarantined)
                .expect("a quarantined attacker outcome");
            assert!(q.distance_m.is_none());
            assert!(q.tracked_m.is_none());
            assert!(q.position.is_none());
            assert!(q.tracked_pos.is_none());
            assert!(q.pos_error_m.is_none());
            assert!(q.tracked_pos_error_m.is_none());
            assert!(q.anomaly_score.is_some(), "evidence must stay reported");
            assert!(
                q.truth_pos.dist(CLIENT_POSITIONS[ATTACKER]) < 1e-12,
                "ground truth stays reported under quarantine"
            );
            assert!(q.truth_m > 0.0);
        }
    }
}

#[test]
fn replay_attacks_spare_honest_clients_and_strongest_is_flagged() {
    assert_variant("replay", replay_attacker);
}

#[test]
fn inject_attacks_spare_honest_clients_and_strongest_is_flagged() {
    assert_variant("inject", inject_attacker);
}

#[test]
fn jam_attacks_spare_honest_clients_and_strongest_is_flagged() {
    assert_variant("jam", jam_attacker);
}

#[test]
fn window_reports_bitwise_identical_across_thread_counts_under_attack() {
    // The seeding contract must hold while an attacker reshapes sweep
    // plans (jam → band_loss), trips gates and flips quarantine state:
    // none of that may depend on the worker-thread schedule.
    let fingerprint = |threads: usize| {
        let mut svc = adversarial_service(threads);
        let mut fps = Vec::new();
        for w in 0..6u64 {
            if w == 2 {
                svc.session_mut(ATTACKER).ctx.attacker = Some(replay_attacker(Strength::Strong));
            }
            let r = svc.run_until(SEED, svc.clock() + Duration::from_millis(250));
            for o in &r.outcomes {
                fps.push((
                    o.client,
                    o.sweep,
                    o.quarantined,
                    o.anomaly_score.map(f64::to_bits),
                    o.distance_m.map(f64::to_bits),
                    o.tracked_pos.map(|p| (p.x.to_bits(), p.y.to_bits())),
                    o.pos_error_m.map(f64::to_bits),
                ));
            }
        }
        fps
    };
    let one = fingerprint(1);
    assert!(
        one.iter().any(|f| f.2),
        "the attacker must be quarantined inside the fingerprinted span"
    );
    assert_eq!(one, fingerprint(2), "1 vs 2 worker threads");
    assert_eq!(one, fingerprint(8), "1 vs 8 worker threads");
}
