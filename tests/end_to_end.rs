//! Cross-crate integration tests: the full pipeline from physics to
//! position, exercised through the facade crate exactly the way the
//! examples use it.

use chronos_suite::core::config::{ChronosConfig, QuirkMode};
use chronos_suite::core::session::ChronosSession;
use chronos_suite::link::time::Instant;
use chronos_suite::rf::csi::MeasurementContext;
use chronos_suite::rf::environment::Environment;
use chronos_suite::rf::geometry::Point;
use chronos_suite::rf::hardware::Intel5300;
use chronos_suite::rf::testbed::Testbed;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn intel_session(seed: u64, d: f64) -> ChronosSession {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ctx = MeasurementContext::new(
        Environment::free_space(),
        Intel5300::mobile(&mut rng),
        Point::new(0.0, 0.0),
        Intel5300::laptop(&mut rng),
        Point::new(d, 0.0),
    );
    ctx.snr.snr_at_1m_db = 40.0;
    ChronosSession::new(ctx, ChronosConfig::default())
}

#[test]
fn free_space_ranging_sub_20cm_after_calibration() {
    let mut session = intel_session(100, 6.0);
    let mut rng = StdRng::seed_from_u64(200);
    session.calibrate(&mut rng, 3);
    let out = session.sweep(&mut rng, Instant::ZERO);
    let d = out.mean_distance_m().expect("estimate");
    assert!((d - 6.0).abs() < 0.2, "free-space distance {d}");
}

#[test]
fn calibration_transfers_to_new_distances() {
    // Calibrate at 2 m (the session's constructor geometry is overridden),
    // then range correctly at other distances with the same constant.
    let mut session = intel_session(101, 2.0);
    let mut rng = StdRng::seed_from_u64(201);
    session.calibrate(&mut rng, 3);
    for (i, d) in [1.0, 4.0, 9.0].iter().enumerate() {
        session.ctx.responder_pos = Point::new(*d, 0.0);
        let out = session.sweep(&mut rng, Instant::from_millis(500 * i as u64));
        let est = out.mean_distance_m().expect("estimate");
        assert!((est - d).abs() < 0.3, "at {d} m estimated {est} m");
    }
}

#[test]
fn testbed_multipath_link_stays_sub_meter() {
    let testbed = Testbed::office(42);
    let pair = testbed
        .pairs_within(10.0)
        .into_iter()
        .find(|p| p.los)
        .expect("los pair");
    let mut session = intel_session(102, 2.0);
    let mut rng = StdRng::seed_from_u64(202);
    session.calibrate(&mut rng, 2);
    session.ctx.environment = testbed.environment.clone();
    session.ctx.initiator_pos = pair.a;
    session.ctx.responder_pos = pair.b;
    let out = session.sweep(&mut rng, Instant::ZERO);
    let d = out.mean_distance_m().expect("estimate");
    assert!(
        (d - pair.distance_m).abs() < 1.0,
        "testbed distance {d} vs truth {}",
        pair.distance_m
    );
}

#[test]
fn ideal_mode_uses_all_35_bands() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut ctx = MeasurementContext::new(
        Environment::free_space(),
        chronos_suite::rf::hardware::ideal_device(
            chronos_suite::rf::hardware::AntennaArray::single(),
        ),
        Point::new(0.0, 0.0),
        chronos_suite::rf::hardware::ideal_device(
            chronos_suite::rf::hardware::AntennaArray::laptop(),
        ),
        Point::new(5.0, 0.0),
    );
    ctx.snr.snr_at_1m_db = 60.0;
    let session = ChronosSession::new(ctx, ChronosConfig::ideal());
    let out = session.sweep(&mut rng, Instant::ZERO);
    let tof = out.tofs[0].as_ref().expect("estimate");
    // In ideal mode all 35 bands share one group at delay scale 2.
    assert_eq!(tof.groups.len(), 1);
    assert_eq!(tof.groups[0].n_bands, 35);
    assert_eq!(tof.groups[0].delay_scale, 2.0);
}

#[test]
fn intel_mode_splits_band_groups() {
    let mut session = intel_session(103, 3.0);
    session.config.mode = QuirkMode::Intel5300;
    let mut rng = StdRng::seed_from_u64(203);
    session.calibrate(&mut rng, 2);
    let out = session.sweep(&mut rng, Instant::ZERO);
    let tof = out.tofs[0].as_ref().expect("estimate");
    // 5 GHz primary group (24 bands, scale 2) always present; the 2.4 GHz
    // coarse group (11 bands, scale 8) joins only when its 8x-scaled
    // delays fit inside the unambiguous 200 ns profile range.
    assert!(!tof.groups.is_empty());
    assert_eq!(tof.groups[0].n_bands, 24);
    assert_eq!(tof.groups[0].delay_scale, 2.0);
    if let Some(coarse) = tof.groups.get(1) {
        assert_eq!(coarse.n_bands, 11);
        assert_eq!(coarse.delay_scale, 8.0);
    }
}

#[test]
fn localization_error_improves_with_ap_array() {
    let mut rng = StdRng::seed_from_u64(8);
    let run = |array: chronos_suite::rf::hardware::AntennaArray, rng: &mut StdRng| -> f64 {
        let mut ctx = MeasurementContext::new(
            Environment::free_space(),
            Intel5300::mobile(rng),
            Point::new(0.0, 0.0),
            Intel5300::device(rng, array),
            Point::new(2.0, 0.0),
        );
        ctx.snr.snr_at_1m_db = 40.0;
        let mut session = ChronosSession::new(ctx, ChronosConfig::default());
        session.calibrate(rng, 2);
        // Evaluate at a fresh geometry.
        session.ctx.initiator_pos = Point::new(-1.0, 4.0);
        let mut errs = Vec::new();
        for i in 0..6 {
            let out = session.sweep(rng, Instant::from_millis(100 * i));
            if let Ok(p) = out.position {
                let truth = session.ctx.initiator_pos.sub(session.ctx.responder_pos);
                errs.push(p.point.dist(truth));
            }
        }
        chronos_suite::math::stats::median(&errs)
    };
    let small = run(
        chronos_suite::rf::hardware::AntennaArray::laptop(),
        &mut rng,
    );
    let large = run(
        chronos_suite::rf::hardware::AntennaArray::access_point(),
        &mut rng,
    );
    // §10/§12.2: wider antenna separation -> better positioning. A single
    // pair of medians is noisy, so allow a little slack in the comparison;
    // the full Fig. 8b/8c experiment quantifies the gap properly.
    assert!(
        large < small + 0.15,
        "AP array should not be (meaningfully) worse: {large} vs {small}"
    );
}

#[test]
fn sweep_is_deterministic_per_seed() {
    let session = intel_session(104, 4.0);
    let out1 = session.sweep(&mut StdRng::seed_from_u64(300), Instant::ZERO);
    let out2 = session.sweep(&mut StdRng::seed_from_u64(300), Instant::ZERO);
    assert_eq!(out1.mean_distance_m(), out2.mean_distance_m());
    assert_eq!(out1.link.frames_sent, out2.link.frames_sent);
}

#[test]
fn nlos_degrades_but_does_not_break() {
    // Put a concrete wall across the direct path: error grows, estimate
    // survives (the paper's NLOS story).
    let mut session = intel_session(105, 6.0);
    let mut rng = StdRng::seed_from_u64(205);
    session.calibrate(&mut rng, 2);
    let mut env = Environment::free_space();
    env.add_wall(
        chronos_suite::rf::geometry::Segment::new(Point::new(3.0, -4.0), Point::new(3.0, 4.0)),
        chronos_suite::rf::environment::Material::Concrete,
    );
    // A couple of reflectors so NLOS has alternate paths.
    env.add_wall(
        chronos_suite::rf::geometry::Segment::new(Point::new(-2.0, 5.0), Point::new(8.0, 5.0)),
        chronos_suite::rf::environment::Material::Concrete,
    );
    session.ctx.environment = env;
    let out = session.sweep(&mut rng, Instant::ZERO);
    let d = out.mean_distance_m().expect("NLOS estimate");
    assert!((d - 6.0).abs() < 1.5, "NLOS distance {d}");
}

/// An Intel 5300 pair (single-antenna mobile, 3-antenna laptop) on the
/// walled office floor of `seed`, sharing one plan cache, placed at the
/// floor's first `n` pairs within 15 m.
fn office_sessions(seed: u64, n: usize) -> (Vec<ChronosSession>, Testbed) {
    use chronos_suite::core::PlanCache;
    use chronos_suite::rf::hardware::AntennaArray;
    let testbed = Testbed::office(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ctx = MeasurementContext::new(
        testbed.environment.clone(),
        Intel5300::mobile(&mut rng),
        Point::new(0.0, 0.0),
        Intel5300::device(&mut rng, AntennaArray::laptop()),
        Point::new(2.0, 0.0),
    );
    ctx.snr.snr_at_1m_db = 50.0;
    let cache = std::sync::Arc::new(PlanCache::new());
    let sessions = testbed
        .pairs_within(15.0)
        .iter()
        .take(n)
        .map(|pair| {
            let mut ctx = ctx.clone();
            ctx.initiator_pos = pair.a;
            ctx.responder_pos = pair.b;
            ChronosSession::with_cache(ctx, ChronosConfig::default(), cache.clone())
        })
        .collect();
    (sessions, testbed)
}

/// Every bit of a sweep's output: estimates with their profiles, errors,
/// candidates, the fix and the link counters.
fn output_bits(out: &chronos_suite::core::SweepOutput) -> Vec<u64> {
    let mut bits = Vec::new();
    for tof in &out.tofs {
        match tof {
            Ok(t) => {
                bits.extend([t.tof_ns.to_bits(), t.distance_m.to_bits()]);
                bits.push(t.cross_check_ok as u64);
                for g in &t.groups {
                    bits.extend([g.delay_scale.to_bits(), g.n_bands as u64]);
                    bits.push(g.raw_tof_ns.to_bits());
                    bits.extend(g.profile.magnitudes.iter().map(|v| v.to_bits()));
                }
            }
            Err(e) => bits.extend(format!("{e:?}").bytes().map(u64::from)),
        }
    }
    for p in &out.position_candidates {
        bits.extend([p.point.x.to_bits(), p.point.y.to_bits()]);
        bits.push(p.residual_m.to_bits());
    }
    bits.push(out.position.is_ok() as u64);
    bits.extend([out.link.frames_sent as u64, out.link.frames_lost as u64]);
    bits.extend([out.link.complete as u64, out.link.finished.as_nanos()]);
    bits
}

/// `sweep_with_pipeline` spelled out as its public calls, the way the
/// end-to-end benchmark's traced step replays it: `run_sweep`,
/// `measure_pair_at` per exchange, `TofEstimator::products`,
/// `estimate_from_products`, `locate_all`.
fn replay_sweep(
    session: &ChronosSession,
    pipeline: &mut chronos_suite::core::SweepPipeline,
    rng: &mut StdRng,
) -> chronos_suite::core::SweepOutput {
    use chronos_suite::core::localization::AntennaRange;
    use chronos_suite::core::{BandSample, ChronosError, TofEstimator};
    let estimator = TofEstimator::with_cache(
        session.config.clone(),
        std::sync::Arc::clone(&session.plans),
    );
    let link = chronos_suite::link::sweep::run_sweep(&session.sweep_cfg, Instant::ZERO, rng);
    let n_rx = session.ctx.responder.antennas.len();
    let plan = &session.sweep_cfg.plan;
    let mut per_antenna = vec![vec![BandSample::default(); plan.len()]; n_rx];
    let mut exchanges = vec![0usize; plan.len()];
    for op in &link.measurements {
        let antenna = exchanges[op.band_index] % n_rx;
        exchanges[op.band_index] += 1;
        let m = session.ctx.measure_pair_at(
            rng,
            &plan[op.band_index],
            &session.layout,
            0,
            antenna,
            op.t_forward.as_secs_f64(),
            op.t_reverse.as_secs_f64(),
        );
        per_antenna[antenna][op.band_index].measurements.push(m);
    }
    let tofs: Vec<_> = per_antenna
        .iter()
        .map(|bands| {
            let measured: Vec<BandSample> = bands
                .iter()
                .filter(|b| !b.measurements.is_empty())
                .cloned()
                .collect();
            if !link.complete && measured.len() < 5 {
                return Err(ChronosError::SweepIncomplete {
                    measured: measured.len(),
                    planned: plan.len(),
                });
            }
            let products = estimator.products(&measured)?;
            pipeline.estimate_from_products(&estimator, &products)
        })
        .collect();
    let antennas = session.ctx.responder.antennas.positions();
    let ranges: Vec<AntennaRange> = tofs
        .iter()
        .zip(antennas)
        .filter_map(|(r, a)| {
            r.as_ref().ok().map(|t| AntennaRange {
                antenna: *a,
                distance_m: t.distance_m,
            })
        })
        .collect();
    let mut position_candidates = Vec::new();
    let located = if ranges.len() >= 2 {
        pipeline.locate_all(&ranges, &session.localizer, &mut position_candidates)
    } else {
        Err(ChronosError::NoConsistentPosition)
    };
    let position = match located {
        Ok(()) => Ok(position_candidates[0]),
        Err(e) => {
            position_candidates.clear();
            Err(e)
        }
    };
    chronos_suite::core::SweepOutput {
        tofs,
        position,
        position_candidates,
        link,
    }
}

/// The session sweep synthesizes one path set per antenna and one true
/// channel per exchange into recycled slots; the answers must be the
/// ones the per-exchange public calls give, bit for bit, on a multipath
/// floor, honest and under every attacker (the jammer also costs frames,
/// so some sweeps come back incomplete).
#[test]
fn session_sweep_matches_public_replay_bitwise() {
    use chronos_suite::rf::environment::Attacker;
    use chronos_suite::rf::propagation::PathSet;
    let (sessions, _) = office_sessions(1, 2);
    let plan = chronos_suite::rf::bands::band_plan();
    let attackers = [
        None,
        Some(Attacker::ReplayOffset {
            extra_delay_ns: 8.0,
        }),
        Some(Attacker::CsiInject {
            forged_profile: PathSet::single(4.0, 0.5),
        }),
        Some(Attacker::BandJam {
            bands: plan.iter().skip(3).map(|b| b.channel).collect(),
            snr_floor_db: -5.0,
        }),
    ];
    let mut sweep_pipeline = chronos_suite::core::SweepPipeline::new();
    let mut replay_pipeline = chronos_suite::core::SweepPipeline::new();
    let mut incomplete = 0;
    for (a, attacker) in attackers.iter().enumerate() {
        for (i, session) in sessions.iter().enumerate() {
            let mut session = session.clone();
            session.ctx.attacker = attacker.clone();
            if let Some(loss) = attacker.as_ref().and_then(|a| a.band_loss(&plan)) {
                session.sweep_cfg.band_loss = loss;
            }
            let seed = 1000 + 10 * a as u64 + i as u64;
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let swept = session.sweep_with_pipeline(
                &session.sweep_cfg,
                &mut rng_a,
                Instant::ZERO,
                &mut sweep_pipeline,
            );
            let replayed = replay_sweep(&session, &mut replay_pipeline, &mut rng_b);
            assert_eq!(
                output_bits(&swept),
                output_bits(&replayed),
                "attacker {a}, placement {i}"
            );
            incomplete += !swept.link.complete as usize;
        }
    }
    assert!(incomplete > 0, "the jammer never cost a band");
}

/// A non-finite device position must never turn into a range: every
/// antenna's estimate is an error, so is the position, and nothing
/// panics — in free space and on the office floor.
#[test]
fn non_finite_positions_give_errors_not_fixes() {
    let (sessions, testbed) = office_sessions(1, 1);
    for env in [Environment::free_space(), testbed.environment] {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for initiator in [true, false] {
                let mut session = sessions[0].clone();
                session.ctx.environment = env.clone();
                if initiator {
                    session.ctx.initiator_pos.x = bad;
                } else {
                    session.ctx.responder_pos.y = bad;
                }
                let out = session.sweep(&mut StdRng::seed_from_u64(7), Instant::ZERO);
                assert_eq!(out.tofs.len(), 3);
                for tof in &out.tofs {
                    assert!(tof.is_err(), "{bad} initiator={initiator}: {tof:?}");
                }
                assert!(out.position.is_err());
                assert!(out.position_candidates.is_empty());
            }
        }
    }
}
