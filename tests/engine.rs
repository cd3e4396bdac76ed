//! Integration tests for the event-driven continuous sweep engine:
//! `run_epoch` rounds must reproduce the pre-engine epoch-barrier
//! outcomes, `WindowReport`s must be bitwise identical
//! across worker-thread counts, client churn must never corrupt the
//! arbiter's single-charge airtime accounting, the engine must beat
//! the epoch barrier's throughput on a mixed ACQUIRE/TRACK population,
//! and with the ingestion front-end shedding at 3x overload, admitted
//! service must stay fair across clients and window reports bitwise
//! identical across worker-thread counts.

use chronos_bench::tracking::mixed_comparison;
use chronos_suite::core::config::ChronosConfig;
use chronos_suite::core::engine::{ServiceEngine, WindowReport};
use chronos_suite::core::service::ServiceConfig;
use chronos_suite::core::tracker::{TrackMode, TrackerConfig};
use chronos_suite::link::time::{Duration, Instant};
use chronos_suite::rf::csi::MeasurementContext;
use chronos_suite::rf::environment::Environment;
use chronos_suite::rf::geometry::Point;
use chronos_suite::rf::hardware::{ideal_device, AntennaArray};

fn ideal_ctx(d: f64) -> MeasurementContext {
    let mut ctx = MeasurementContext::new(
        Environment::free_space(),
        ideal_device(AntennaArray::single()),
        Point::new(0.0, 0.0),
        ideal_device(AntennaArray::laptop()),
        Point::new(d, 0.0),
    );
    ctx.snr.snr_at_1m_db = 60.0;
    ctx
}

/// A deliberately coarse estimator for the scheduling-behavior tests:
/// they assert determinism, accounting and cadence — not accuracy — so
/// a cheap inversion keeps the suite fast. The golden-equivalence test
/// keeps the full `ChronosConfig::ideal()` its capture was made with.
fn quick_chronos() -> ChronosConfig {
    ChronosConfig {
        max_iters: 120,
        grid_step_ns: 0.5,
        ..ChronosConfig::ideal()
    }
}

fn adaptive_service_with(
    distances: &[f64],
    threads: usize,
    chronos: ChronosConfig,
) -> ServiceEngine {
    let cfg = ServiceConfig {
        threads,
        ..ServiceConfig::adaptive(TrackerConfig::default())
    };
    let mut svc = ServiceEngine::new(cfg);
    for &d in distances {
        let id = svc.join(ideal_ctx(d), chronos.clone());
        svc.session_mut(id).sweep_cfg.medium.loss_prob = 0.0;
    }
    svc
}

fn adaptive_service(distances: &[f64], threads: usize) -> ServiceEngine {
    adaptive_service_with(distances, threads, quick_chronos())
}

/// Pre-refactor `run_epoch` outcomes, captured from the epoch-barrier
/// implementation (commit `edf396d`) on a seeded N=8 adaptive scenario:
/// clients at 2.0 + 0.75·i meters, lossless, seeds 9000+e for four
/// epochs. Tuples: (epoch, client, mode, bands, start_ns, finish_ns,
/// distance_bits, tracked_bits). Timing and scheduling are integer
/// arithmetic over the seeded RNG stream and must match exactly;
/// estimates go through transcendental math, so they are compared as
/// f64s within 1e-9 of the captured values.
type GoldenRow = (u64, usize, char, usize, u64, u64, u64, u64);
const GOLDEN_OUTCOMES: [GoldenRow; 32] = [
    (
        0,
        0,
        'A',
        35,
        0,
        83430574,
        4611698167882507643,
        4611698167882507643,
    ),
    (
        0,
        1,
        'A',
        35,
        3000000,
        95824574,
        4613270463158442975,
        4613270463158442975,
    ),
    (
        0,
        2,
        'A',
        35,
        6000000,
        96428574,
        4614919979402991581,
        4614919979402991581,
    ),
    (
        0,
        3,
        'A',
        35,
        9000000,
        100826574,
        4616398783832167892,
        4616398783832167892,
    ),
    (
        0,
        4,
        'A',
        35,
        93324711,
        185551285,
        4617242983739583829,
        4617242983739583829,
    ),
    (
        0,
        5,
        'A',
        35,
        96324711,
        189751285,
        4618086888215502367,
        4618086888215502367,
    ),
    (
        0,
        6,
        'A',
        35,
        99324711,
        189753285,
        4618931182644417621,
        4618931182644417621,
    ),
    (
        0,
        7,
        'A',
        35,
        102324711,
        190555285,
        4619775514158874109,
        4619775514158874109,
    ),
    (
        1,
        0,
        'A',
        35,
        195555285,
        278985859,
        4611698152128924424,
        4611698153906268691,
    ),
    (
        1,
        1,
        'A',
        35,
        198555285,
        281985859,
        4613270425633943191,
        4613270429867516826,
    ),
    (
        1,
        2,
        'A',
        35,
        201555285,
        292181859,
        4614919953913158487,
        4614919956788961921,
    ),
    (
        1,
        3,
        'A',
        35,
        204555285,
        297581859,
        4616398806313334313,
        4616398803776973429,
    ),
    (
        1,
        4,
        'A',
        35,
        288879996,
        383106570,
        4617242875762918107,
        4617242887945016944,
    ),
    (
        1,
        5,
        'A',
        35,
        291879996,
        383706570,
        4618086902109627323,
        4618086900542070089,
    ),
    (
        1,
        6,
        'A',
        35,
        294879996,
        389106570,
        4618931144409667980,
        4618931148723373131,
    ),
    (
        1,
        7,
        'A',
        35,
        297879996,
        390106570,
        4619775531771915593,
        4619775529784784293,
    ),
    (
        2,
        0,
        'T',
        12,
        395106570,
        423114872,
        4611696727235413193,
        4611696995904952099,
    ),
    (
        2,
        1,
        'T',
        12,
        398106570,
        426114872,
        4613382915820784453,
        4613361538628014004,
    ),
    (
        2,
        2,
        'T',
        12,
        401106570,
        429914872,
        4615069637333026113,
        4615041195264717968,
    ),
    (
        2,
        3,
        'T',
        12,
        404106570,
        435314872,
        4616473698952979108,
        4616459472825990377,
    ),
    (
        2,
        4,
        'T',
        12,
        427103614,
        458509916,
        4617317733216584927,
        4617298171053369718,
    ),
    (
        2,
        5,
        'T',
        12,
        430103614,
        459711916,
        4618161834665593869,
        4618142266883255091,
    ),
    (
        2,
        6,
        'T',
        12,
        433103614,
        461911916,
        4619006055513179388,
        4618986487347333561,
    ),
    (
        2,
        7,
        'T',
        12,
        436103614,
        466111916,
        4619850215980920724,
        4619830713483894346,
    ),
    (
        3,
        0,
        'T',
        12,
        471111916,
        499120218,
        4611696855121975407,
        4611696796148556129,
    ),
    (
        3,
        1,
        'T',
        12,
        474111916,
        502520218,
        4613382737403475484,
        4613382893874504853,
    ),
    (
        3,
        2,
        'T',
        12,
        477111916,
        505520218,
        4615069927700722903,
        4615069908715492855,
    ),
    (
        3,
        3,
        'T',
        12,
        480111916,
        509720218,
        4616473769503235623,
        4616473797287106960,
    ),
    (
        3,
        4,
        'T',
        12,
        503108960,
        532717262,
        4617317988989709353,
        4617315891625026047,
    ),
    (
        3,
        5,
        'T',
        12,
        506108960,
        540113262,
        4618161866216627749,
        4618159884100018769,
    ),
    (
        3,
        6,
        'T',
        12,
        509108960,
        538717262,
        4619005960860077749,
        4619004027631402663,
    ),
    (
        3,
        7,
        'T',
        12,
        512108960,
        543515262,
        4619850281285313619,
        4619848291279052277,
    ),
];

/// Per-epoch (airtime_span_ns, bands_planned, bands_full_sweep) from the
/// same pre-refactor capture.
const GOLDEN_EPOCHS: [(u64, usize, usize); 4] = [
    (190555285, 280, 280),
    (194551285, 280, 280),
    (71005346, 96, 280),
    (72403346, 96, 280),
];

#[test]
fn run_epoch_wrapper_reproduces_pre_refactor_outcomes() {
    let distances: Vec<f64> = (0..8).map(|i| 2.0 + 0.75 * i as f64).collect();
    let mut svc = adaptive_service_with(&distances, 0, ChronosConfig::ideal());
    for e in 0..4u64 {
        let r = svc.run_epoch(9000 + e);
        let (span, planned, full) = GOLDEN_EPOCHS[e as usize];
        assert_eq!(r.span().as_nanos(), span, "epoch {e} span");
        assert_eq!(r.bands_planned, planned, "epoch {e} bands planned");
        assert_eq!(r.bands_full_sweep, full, "epoch {e} bands full");
        assert_eq!(r.outcomes.len(), 8, "epoch {e} must report every client");
        for o in &r.outcomes {
            let (_, _, mode, bands, start, finish, d_bits, t_bits) = GOLDEN_OUTCOMES
                .iter()
                .find(|g| g.0 == e && g.1 == o.client)
                .expect("golden row");
            let want_mode = if *mode == 'A' {
                TrackMode::Acquire
            } else {
                TrackMode::Track
            };
            assert_eq!(o.mode, want_mode, "epoch {e} client {} mode", o.client);
            assert_eq!(o.bands_planned, *bands, "epoch {e} client {}", o.client);
            assert_eq!(
                o.started.as_nanos(),
                *start,
                "epoch {e} client {} start",
                o.client
            );
            assert_eq!(
                o.finished.as_nanos(),
                *finish,
                "epoch {e} client {} finish",
                o.client
            );
            let d = o.distance_m.expect("estimate");
            let want_d = f64::from_bits(*d_bits);
            assert!(
                (d - want_d).abs() < 1e-9,
                "epoch {e} client {}: distance {d} vs pre-refactor {want_d}",
                o.client
            );
            let t = o.tracked_m.expect("tracked");
            let want_t = f64::from_bits(*t_bits);
            assert!(
                (t - want_t).abs() < 1e-9,
                "epoch {e} client {}: tracked {t} vs pre-refactor {want_t}",
                o.client
            );
        }
    }
}

/// The golden capture above pins the engine's *outcomes*; this pins the
/// mechanism that produces them: a **warm, reused** scratch pipeline
/// (the engine's per-worker arena) must emit sweeps bitwise identical to
/// a fresh throwaway pipeline per sweep — no state may leak between
/// sweeps through the arena, across clients, modes or sweep ordinals.
#[test]
fn warm_pipeline_sweeps_match_fresh_scratch_bitwise() {
    use chronos_suite::core::SweepPipeline;
    use chronos_suite::link::time::Instant;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let svc = adaptive_service_with(&[2.0, 4.5], 0, ChronosConfig::ideal());
    let mut warm = SweepPipeline::new();
    for sweep in 0..3u64 {
        for client in 0..2usize {
            let session = svc.session(client);
            let t = Instant::from_millis(100 * sweep + client as u64);
            let fresh_out = {
                let mut rng = StdRng::seed_from_u64(1000 + 10 * sweep + client as u64);
                session.sweep(&mut rng, t)
            };
            let warm_out = {
                let mut rng = StdRng::seed_from_u64(1000 + 10 * sweep + client as u64);
                session.sweep_with_pipeline(&session.sweep_cfg, &mut rng, t, &mut warm)
            };
            assert_eq!(fresh_out.tofs.len(), warm_out.tofs.len());
            for (a, b) in fresh_out.tofs.iter().zip(warm_out.tofs.iter()) {
                match (a, b) {
                    (Ok(ta), Ok(tb)) => {
                        assert_eq!(ta.tof_ns.to_bits(), tb.tof_ns.to_bits());
                        assert_eq!(ta.distance_m.to_bits(), tb.distance_m.to_bits());
                    }
                    (Err(ea), Err(eb)) => assert_eq!(format!("{ea}"), format!("{eb}")),
                    other => panic!("fresh/warm disagreement: {other:?}"),
                }
            }
            assert_eq!(
                fresh_out.position_candidates.len(),
                warm_out.position_candidates.len()
            );
            for (a, b) in fresh_out
                .position_candidates
                .iter()
                .zip(warm_out.position_candidates.iter())
            {
                assert_eq!(a.point.x.to_bits(), b.point.x.to_bits());
                assert_eq!(a.point.y.to_bits(), b.point.y.to_bits());
                assert_eq!(a.residual_m.to_bits(), b.residual_m.to_bits());
            }
        }
    }

    // And the engine's own execution (one shared worker pipeline) still
    // reproduces per-session sweeps: covered by the golden capture test
    // above, whose distances come through the warm engine pipelines.
}

#[test]
fn window_reports_bitwise_identical_across_thread_counts() {
    let fingerprint = |threads: usize| {
        let mut svc = adaptive_service(&[2.0, 3.5, 5.0, 6.5], threads);
        let mut fp = Vec::new();
        let mut cache = Vec::new();
        // Two windows so in-flight sweeps cross a window boundary.
        for deadline in [400u64, 900] {
            let w = svc.run_until(1234, Instant::from_millis(deadline));
            // Every estimate looks its plans up in the shared cache, so
            // its counters are a function of the sweeps alone.
            cache.push((w.cache.hits, w.cache.misses));
            for o in &w.outcomes {
                fp.push((
                    o.client,
                    o.sweep,
                    o.mode,
                    o.started.as_nanos(),
                    o.finished.as_nanos(),
                    o.distance_m.map(f64::to_bits),
                    o.tracked_m.map(f64::to_bits),
                ));
            }
        }
        (fp, cache)
    };
    let one = fingerprint(1);
    assert!(
        one.0.len() > 12,
        "expected a busy window, got {}",
        one.0.len()
    );
    assert_eq!(one, fingerprint(2), "threads=2 diverged");
    assert_eq!(one, fingerprint(8), "threads=8 diverged");
}

/// The engine builds its `WorkerRuntime` exactly once: across
/// consecutive windows the same instance keeps spreading multi-sweep
/// batches (same width, lifetime batch counter growing) over the
/// engine's own pipelines. Each such batch starts its scoped threads
/// afresh; single-sweep batches run inline and start none.
#[test]
fn worker_runtime_persists_across_windows() {
    use std::sync::Arc;
    let mut svc = adaptive_service(&[2.0, 3.5, 5.0, 6.5], 4);
    svc.run_until(4321, Instant::from_millis(400));
    let (first_ptr, batches_after_first) = {
        let rt = svc
            .runtime()
            .expect("a multi-threaded engine builds its pool on the first multi-sweep batch");
        assert_eq!(
            rt.workers(),
            3,
            "4 threads = 3 pool workers + helping submitter"
        );
        assert!(rt.batches_run() > 0, "no batch reached the pool");
        (Arc::as_ptr(rt), rt.batches_run())
    };
    // Steady-state TRACK batches are usually single sweeps and run
    // inline; joining clients all fall due at once, forcing the second
    // window to batch through the pool again.
    for d in [3.0, 4.5, 5.5, 7.0] {
        let id = svc.join(ideal_ctx(d), quick_chronos());
        svc.session_mut(id).sweep_cfg.medium.loss_prob = 0.0;
    }
    svc.run_until(4321, Instant::from_millis(900));
    let rt = svc.runtime().expect("the pool outlives its window");
    assert_eq!(
        Arc::as_ptr(rt),
        first_ptr,
        "the engine must reuse its pool, never respawn it"
    );
    assert_eq!(rt.workers(), 3, "worker count must stay fixed for life");
    assert!(
        rt.batches_run() > batches_after_first,
        "the second window must batch through the same pool"
    );
}

/// Clients joining and leaving mid-run must never corrupt the arbiter's
/// airtime accounting: every sweep is charged exactly one window, and
/// once the engine goes quiescent the tracked airtime equals the sum of
/// the reported sweep durations — no dangling projections, no double
/// charges.
#[test]
fn churn_keeps_airtime_accounting_single_charge() {
    let mut svc = adaptive_service(&[2.5, 4.0, 6.0], 0);
    let w = svc.run_until(77, Instant::from_millis(2000));
    assert!(w.completed() > 10, "window too quiet: {}", w.completed());
    // Now remove everyone and drain: the engine must go quiescent.
    for idx in 0..svc.n_slots() {
        svc.leave(idx);
    }
    let w2 = svc.run_until(77, Instant::from_millis(4000));
    assert_eq!(svc.n_active(), 0);
    assert_eq!(svc.pending_events(), 0, "engine not quiescent");
    // Single-charge invariant over the final window: tracked airtime ==
    // sum of reported sweep durations (completion replaced projection;
    // nothing dangles after the leaves).
    let reported: Duration = w2.outcomes.iter().fold(Duration::ZERO, |acc, o| {
        acc + o.finished.saturating_since(o.started)
    });
    assert_eq!(
        svc.arbiter().total_tracked_airtime(),
        reported,
        "arbiter charge diverged from reported sweeps"
    );

    // Join after churn: fresh slots, scheduling resumes, accounting
    // stays single-charge.
    let id = svc.join(ideal_ctx(3.0), ChronosConfig::ideal());
    svc.session_mut(id).sweep_cfg.medium.loss_prob = 0.0;
    assert_eq!(id, 3, "slot indices are never reused");
    let w3 = svc.run_until(78, Instant::from_millis(4600));
    assert!(w3.outcomes.iter().all(|o| o.client == id));
    assert!(w3.completed() >= 2, "joiner swept {} times", w3.completed());
    let reported: Duration = w3.outcomes.iter().fold(Duration::ZERO, |acc, o| {
        acc + o.finished.saturating_since(o.started)
    });
    // The joiner may still have one sweep in flight at the deadline; its
    // window is charged but not yet reported, so tracked >= reported and
    // the difference is at most one projected sweep.
    let tracked = svc.arbiter().total_tracked_airtime();
    assert!(tracked >= reported, "{tracked} < {reported}");
    assert!(
        tracked - reported <= Duration::from_millis(120),
        "more than one sweep's airtime dangling: {tracked} vs {reported}"
    );
}

/// Churn under attack: a quarantined client that leaves and rejoins
/// gets a fresh slot with a zeroed anomaly score (identity is the slot,
/// not the radio — a re-associating device starts from scratch), the old
/// slot keeps its verdict, and the arbiter's single-charge airtime
/// accounting survives the whole episode.
#[test]
fn quarantined_client_rejoins_with_fresh_slot_and_clean_score() {
    use chronos_bench::adversarial::{
        adversarial_chronos, adversarial_service, replay_attacker, Strength, ATTACKER,
        CLIENT_POSITIONS,
    };

    let mut svc = adversarial_service(0);
    let charge = |r: &WindowReport| {
        r.outcomes.iter().fold(Duration::ZERO, |acc, o| {
            acc + o.finished.saturating_since(o.started)
        })
    };
    // The single-charge invariant, checked after every round: the epoch
    // driver drops the previous rounds' arbiter windows at each round
    // start, so what the arbiter tracks afterwards must equal exactly
    // this round's reported sweep durations — every sweep charged one
    // window, completion replacing projection, attacker included.
    let assert_single_charge = |svc: &ServiceEngine, r: &WindowReport| {
        assert_eq!(
            svc.arbiter().total_tracked_airtime(),
            charge(r),
            "round at {}: arbiter charge diverged from reported sweeps",
            r.started
        );
    };
    // Clean warm-up, then a blatant replay attack.
    for e in 0..7u64 {
        let r = svc.run_epoch(500 + e);
        assert_single_charge(&svc, &r);
    }
    svc.session_mut(ATTACKER).ctx.attacker = Some(replay_attacker(Strength::Strong));
    let mut detected = false;
    for e in 7..10u64 {
        let r = svc.run_epoch(500 + e);
        detected |= r
            .outcomes
            .iter()
            .any(|o| o.client == ATTACKER && o.quarantined);
        assert_single_charge(&svc, &r);
    }
    assert!(detected, "strong replay must be quarantined");
    assert!(svc.is_quarantined(ATTACKER));
    assert!(svc.anomaly_score(ATTACKER).expect("adaptive client") > 0.0);

    // The attacker leaves; its slot keeps the verdict but is never
    // scheduled again.
    assert!(svc.leave(ATTACKER));
    let r = svc.run_epoch(600);
    assert!(r.outcomes.iter().all(|o| o.client != ATTACKER));
    assert!(svc.is_quarantined(ATTACKER), "verdict outlives the leave");
    assert_single_charge(&svc, &r);

    // It rejoins (now honest): a fresh slot, a fresh tracker, a zeroed
    // anomaly score — and no inherited quarantine.
    let mut ctx = MeasurementContext::new(
        Environment::free_space(),
        ideal_device(AntennaArray::single()),
        CLIENT_POSITIONS[ATTACKER],
        ideal_device(AntennaArray::access_point()),
        Point::new(0.0, 0.0),
    );
    ctx.snr.snr_at_1m_db = 36.0;
    let id = svc.join(ctx, adversarial_chronos());
    svc.session_mut(id).sweep_cfg.medium.loss_prob = 0.0;
    assert_eq!(id, 3, "slot indices are never reused");
    assert!(!svc.is_quarantined(id));
    assert_eq!(svc.anomaly_score(id), Some(0.0), "score starts clean");

    for e in 0..3u64 {
        let r = svc.run_epoch(700 + e);
        for o in r.outcomes.iter().filter(|o| o.client == id) {
            assert!(!o.quarantined, "fresh slot must not inherit quarantine");
            assert!(o.tracked_pos.is_some(), "estimates served again");
        }
        assert_single_charge(&svc, &r);
    }
}

/// A removed client stops being scheduled across window boundaries.
#[test]
fn removed_client_not_rescheduled_across_windows() {
    let mut svc = adaptive_service(&[2.5, 4.0], 0);
    let w1 = svc.run_until(5, Instant::from_millis(300));
    assert!(w1.outcomes.iter().any(|o| o.client == 1));
    svc.leave(1);
    let w2 = svc.run_until(5, Instant::from_millis(900));
    // At most one in-flight sweep of client 1 may still land; afterwards
    // only client 0 is scheduled.
    let late_c1 = w2
        .outcomes
        .iter()
        .filter(|o| o.client == 1 && o.started > Instant::from_millis(310))
        .count();
    assert_eq!(late_c1, 0, "removed client kept being scheduled");
    assert!(w2.outcomes.iter().filter(|o| o.client == 0).count() >= 5);
}

/// The acceptance bar of the engine refactor: at N=8 with a mixed
/// ACQUIRE/TRACK population the continuous engine must deliver at least
/// 1.3x the epoch barrier's sweeps/s, at no cost in TRACK accuracy.
#[test]
fn event_engine_outpaces_epoch_barrier_at_n8_mixed() {
    let cmp = mixed_comparison(8, 42, 3, Duration::from_millis(500));
    assert!(
        cmp.gain() >= 1.3,
        "event {:.1} sweeps/s vs epoch {:.1} ({}x)",
        cmp.event_sweeps_per_sec,
        cmp.epoch_sweeps_per_sec,
        cmp.gain()
    );
    assert!(
        cmp.event_utilization >= cmp.epoch_utilization - 0.05,
        "event utilization {} vs epoch {}",
        cmp.event_utilization,
        cmp.epoch_utilization
    );
    // TRACK-mode accuracy must not degrade: same estimator, same subset
    // plans — only the cadence changed. The margin covers per-sweep RNG
    // noise only (measured: 0.0022 m event vs 0.0020 m epoch), not a
    // systematic regression.
    assert!(
        cmp.event_track_mae_m <= 1.25 * cmp.epoch_track_mae_m + 2e-3,
        "TRACK MAE {} vs epoch {}",
        cmp.event_track_mae_m,
        cmp.epoch_track_mae_m
    );
}

/// Epoch rounds and continuous windows compose on one engine: the
/// clock is monotonic, trackers persist across the switch, and an
/// epoch round still reports one outcome per active client.
#[test]
fn epochs_and_windows_compose() {
    let mut svc = adaptive_service(&[3.0, 5.5], 0);
    let e0 = svc.run_epoch(31);
    assert_eq!(e0.outcomes.len(), 2);
    let w = svc.run_until(31, svc.clock() + Duration::from_millis(300));
    assert!(w.started >= e0.ended);
    assert!(w.completed() >= 2);
    let e1 = svc.run_epoch(32);
    assert!(e1.started >= w.ended);
    for c in 0..2usize {
        // Sweeps carried over from the window (in flight or due past its
        // deadline) are drained into the round first; every client still
        // gets a fresh sweep of its own.
        assert!(
            e1.outcomes.iter().any(|o| o.client == c),
            "client {c} skipped by the epoch round"
        );
        // Sweep ordinals account for every sweep, gap-free, across both
        // drivers.
        let mut ords: Vec<u64> = e0
            .outcomes
            .iter()
            .chain(w.outcomes.iter())
            .chain(e1.outcomes.iter())
            .filter(|o| o.client == c)
            .map(|o| o.sweep)
            .collect();
        ords.sort_unstable();
        let expect: Vec<u64> = (0..ords.len() as u64).collect();
        assert_eq!(ords, expect, "client {c} ordinals must be contiguous");
    }
}

/// Under 3x overload through the ingestion front-end, the admission
/// queue's per-class FIFO keeps service even: the max/min ratio of
/// admitted sweeps across the honest walkers stays within 2. Shedding
/// concentrates on the BACKGROUND class, not on unlucky individuals.
#[test]
fn overload_admission_is_fair_across_clients() {
    use chronos_bench::soak::{run_soak, SoakScenarioConfig};
    let run = run_soak(&SoakScenarioConfig::at_load(41, 3, 4, 250));
    let counts = run.walker_sweeps();
    let max = *counts.iter().max().unwrap();
    let min = *counts.iter().min().unwrap();
    assert!(min > 0, "a walker was starved outright: {counts:?}");
    assert!(
        max as f64 / min as f64 <= 2.0,
        "admitted-sweep spread {counts:?} exceeds 2x"
    );
    // The run must actually be in overload for the bound to mean much.
    let shed: u64 = run.reports.iter().map(|r| r.ingestion.shed.total()).sum();
    assert!(shed > 0, "3x run shed nothing — not an overload test");
}

/// The engine's thread-count determinism contract survives the
/// ingestion path: with the queue actively shedding and stretching at
/// 3x overload, `WindowReport`s — outcomes with their class/deferral
/// annotations plus the per-window ingestion counters — are bitwise
/// identical across worker-thread counts {1, 2, 8}.
#[test]
fn window_reports_identical_across_threads_with_shedding() {
    use chronos_bench::soak::{run_soak, SoakScenarioConfig};
    let fingerprint = |threads: usize| {
        let cfg = SoakScenarioConfig {
            threads,
            ..SoakScenarioConfig::at_load(41, 3, 3, 250)
        };
        let run = run_soak(&cfg);
        let mut fp = Vec::new();
        let mut shed_total = 0;
        for r in &run.reports {
            let ing = &r.ingestion;
            shed_total += ing.shed.total();
            fp.push(format!(
                "W {:?} {:?} {:?} {:?} {} {} {}",
                ing.offered,
                ing.admitted,
                ing.deferred,
                ing.shed,
                ing.queue_peak_total,
                ing.stretch_peak.to_bits(),
                r.bands_planned
            ));
            for o in &r.outcomes {
                fp.push(format!(
                    "O {} {} {} {} {} {} {:?} {:?}",
                    o.client,
                    o.sweep,
                    o.class,
                    o.deferrals,
                    o.started.as_nanos(),
                    o.finished.as_nanos(),
                    o.distance_m.map(f64::to_bits),
                    o.tracked_m.map(f64::to_bits),
                ));
            }
        }
        (fp, shed_total)
    };
    let (one, shed) = fingerprint(1);
    assert!(shed > 0, "3x run shed nothing — contract untested");
    assert_eq!(one, fingerprint(2).0, "threads=2 diverged");
    assert_eq!(one, fingerprint(8).0, "threads=8 diverged");
}

/// Handoff state migration, engine level: a client extracted mid-TRACK
/// carries its Kalman filter and anomaly score into the destination
/// engine and resumes in TRACK — the first post-migration sweep plans
/// the TRACK subset, with no re-ACQUIRE (the contract the fleet layer's
/// round-trip handoff is built on).
#[test]
fn migrated_client_resumes_in_track_with_its_anomaly_score() {
    let cfg = ServiceConfig::adaptive(TrackerConfig::default());
    let mut a = ServiceEngine::new(cfg.clone());
    let c = a.join(ideal_ctx(3.0), quick_chronos());
    a.session_mut(c).sweep_cfg.medium.loss_prob = 0.0;
    a.run_until(21, Instant::from_millis(800));
    assert_eq!(
        a.tracker(c).expect("adaptive slot").mode(),
        TrackMode::Track,
        "client must be mid-TRACK before the handoff"
    );

    let state = a.extract_client(c).expect("active client extracts");
    assert_eq!(state.mode(), Some(TrackMode::Track));
    let score = state.anomaly_score().expect("tracked client has a score");
    assert!(score.is_finite());
    assert!(!a.is_active(c), "extraction vacates the source slot");

    // Same client-AP distance at the destination, so the distance
    // filter's state stays valid verbatim.
    let mut b = ServiceEngine::new(cfg);
    let m = b.join_migrated(ideal_ctx(3.0), quick_chronos(), state);
    b.session_mut(m).sweep_cfg.medium.loss_prob = 0.0;
    // The score and verdict are implanted before any sweep runs.
    assert_eq!(b.anomaly_score(m).map(f64::to_bits), Some(score.to_bits()));
    assert!(!b.is_quarantined(m));

    let report = b.run_until(22, Instant::from_millis(400));
    let first = report
        .outcomes
        .iter()
        .find(|o| o.client == m)
        .expect("migrated client sweeps in the first window");
    assert_eq!(first.sweep, 0, "destination ordinal restarts at zero");
    assert_eq!(
        first.mode,
        TrackMode::Track,
        "migrated Kalman state must carry TRACK across the handoff"
    );
    // The filter state is genuinely warm: the fused estimate is tight
    // from the very first destination sweep.
    let tracked = first.tracked_m.expect("adaptive outcome fuses");
    assert!((tracked - 3.0).abs() < 0.5, "cold filter: {tracked}");
}

/// The quarantine verdict travels with the migrated client: a client
/// quarantined at the source engine is still quarantined at the
/// destination, its outcomes stay flagged, and estimates stay withheld
/// (no handoff-laundering of an attacker's reputation).
#[test]
fn migrated_client_keeps_quarantine_verdict() {
    use chronos_suite::core::service::QuarantineConfig;

    // A hair-trigger policy so the mechanism (not the detector) is
    // under test: any completed sweep trips quarantine, release is
    // unreachable.
    let cfg = ServiceConfig {
        quarantine: Some(QuarantineConfig {
            threshold: 0.0,
            release: -1.0,
            release_dwell: 1_000_000,
            min_sweeps: 0,
        }),
        ..ServiceConfig::adaptive(TrackerConfig::default())
    };
    let mut a = ServiceEngine::new(cfg.clone());
    let c = a.join(ideal_ctx(4.0), quick_chronos());
    a.run_until(31, Instant::from_millis(300));
    assert!(a.is_quarantined(c), "hair-trigger policy must have tripped");

    let state = a.extract_client(c).expect("active client extracts");
    assert!(state.is_quarantined(), "verdict travels with the state");

    let mut b = ServiceEngine::new(cfg);
    let m = b.join_migrated(ideal_ctx(4.0), quick_chronos(), state);
    assert!(b.is_quarantined(m), "verdict implanted before any sweep");
    let report = b.run_until(32, Instant::from_millis(300));
    let sweeps: Vec<_> = report.outcomes.iter().filter(|o| o.client == m).collect();
    assert!(!sweeps.is_empty(), "quarantined clients keep sweeping");
    for o in &sweeps {
        assert!(o.quarantined, "outcome lost the quarantine flag");
        assert!(
            o.tracked_m.is_none(),
            "quarantined estimates must stay withheld after migration"
        );
    }
}

/// Churn during a handoff: while one client migrates in, another leaves
/// and a third joins cold at the same boundary. The migrated client
/// still resumes in TRACK, the leaver gets no post-boundary admissions,
/// the joiner ACQUIREs from scratch, and slot ordinals stay gapless —
/// boundary churn cannot corrupt per-slot sweep accounting.
#[test]
fn churn_during_handoff_keeps_accounting_and_track_state() {
    let cfg = ServiceConfig::adaptive(TrackerConfig::default());
    // Source engine: one client converging to TRACK.
    let mut a = ServiceEngine::new(cfg.clone());
    let c = a.join(ideal_ctx(3.0), quick_chronos());
    a.session_mut(c).sweep_cfg.medium.loss_prob = 0.0;
    a.run_until(41, Instant::from_millis(800));
    assert_eq!(a.tracker(c).unwrap().mode(), TrackMode::Track);

    // Destination engine: two residents, run to the same boundary.
    let mut b = ServiceEngine::new(cfg);
    let r0 = b.join(ideal_ctx(2.0), quick_chronos());
    let r1 = b.join(ideal_ctx(5.5), quick_chronos());
    for id in [r0, r1] {
        b.session_mut(id).sweep_cfg.medium.loss_prob = 0.0;
    }
    b.run_until(42, Instant::from_millis(800));
    let boundary = b.clock();

    // The churn burst: r1 leaves, the TRACK client migrates in, a cold
    // client joins — all at one boundary.
    b.leave(r1);
    let state = a.extract_client(c).unwrap();
    let m = b.join_migrated(ideal_ctx(3.0), quick_chronos(), state);
    let fresh = b.join(ideal_ctx(7.0), quick_chronos());
    for id in [m, fresh] {
        b.session_mut(id).sweep_cfg.medium.loss_prob = 0.0;
    }
    assert_eq!(b.n_slots(), 4, "slots are never reused");

    let report = b.run_until(43, Instant::from_millis(1_600));
    let of = |id: usize| report.outcomes.iter().filter(move |o| o.client == id);
    // The leaver: at most an in-flight sweep admitted pre-boundary.
    assert!(
        of(r1).all(|o| o.started < boundary),
        "left client admitted post-boundary"
    );
    // The migrant: TRACK from its first destination sweep.
    assert_eq!(of(m).next().expect("migrant sweeps").mode, TrackMode::Track);
    // The joiner: a cold filter ACQUIREs first.
    assert_eq!(
        of(fresh).next().expect("joiner sweeps").mode,
        TrackMode::Acquire
    );
    // The resident keeps uninterrupted service through the churn.
    assert!(of(r0).count() >= 5, "resident starved by boundary churn");
    // Per-slot ordinals are gapless for everyone who swept this window.
    for id in [r0, m, fresh] {
        let ords: Vec<u64> = of(id).map(|o| o.sweep).collect();
        let base = ords.first().copied().unwrap_or(0);
        for (k, o) in ords.iter().enumerate() {
            assert_eq!(*o, base + k as u64, "ordinal gap for slot {id}");
        }
    }
}
