//! Workspace-level property-based tests (proptest) on the core invariants
//! that hold across crates.

use chronos_suite::core::crt::{tof_from_channels, CrtConfig};
use chronos_suite::core::ista::{solve_planned_into, sparsify, IstaConfig, IstaScratch};
use chronos_suite::core::localization::{locate, locate_all, AntennaRange, LocalizerConfig};
use chronos_suite::core::ndft::TauGrid;
use chronos_suite::core::plan::NdftPlan;
use chronos_suite::core::tracker::{ClientTracker, PositionTracker, TrackMode, TrackerConfig};
use chronos_suite::link::time::{Duration, Instant};
use chronos_suite::math::crt::Congruence;
use chronos_suite::math::spline::CubicSpline;
use chronos_suite::math::stats::{median, percentile};
use chronos_suite::math::unwrap::{unwrapped, wrap_to_pi};
use chronos_suite::math::Complex64;
use chronos_suite::rf::geometry::Point;
use chronos_suite::rf::propagation::PathSet;
use proptest::prelude::*;
use std::f64::consts::PI;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Channel phase always encodes -2 pi f tau modulo 2 pi (paper Eq. 2).
    #[test]
    fn channel_phase_matches_model(
        tau_ns in 0.1f64..150.0,
        f_ghz in 2.0f64..6.0,
        amp in 0.05f64..2.0,
    ) {
        let ps = PathSet::single(tau_ns, amp);
        let h = ps.channel_at(f_ghz * 1e9);
        let expected = wrap_to_pi(-2.0 * PI * f_ghz * 1e9 * tau_ns * 1e-9);
        prop_assert!(chronos_suite::math::unwrap::angular_distance(h.arg(), expected) < 1e-6);
        prop_assert!((h.abs() - amp).abs() < 1e-9);
    }

    /// Unwrapping a wrapped smooth ramp recovers it up to an additive
    /// 2-pi-multiple anchor.
    #[test]
    fn unwrap_recovers_ramps(slope in -3.0f64..3.0, n in 4usize..80) {
        let truth: Vec<f64> = (0..n).map(|i| slope * i as f64 * 0.9).collect();
        let wrapped: Vec<f64> = truth.iter().map(|p| wrap_to_pi(*p)).collect();
        let un = unwrapped(&wrapped);
        let anchor = un[0] - truth[0];
        let k = anchor / (2.0 * PI);
        prop_assert!((k - k.round()).abs() < 1e-6);
        for (u, t) in un.iter().zip(truth.iter()) {
            prop_assert!((u - t - anchor).abs() < 1e-6);
        }
    }

    /// A natural cubic spline interpolates its knots exactly.
    #[test]
    fn spline_hits_knots(ys in proptest::collection::vec(-10.0f64..10.0, 4..20)) {
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let s = CubicSpline::fit(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(ys.iter()) {
            prop_assert!((s.eval(*x) - y).abs() < 1e-9);
        }
    }

    /// Soft-thresholding never increases any magnitude and zeroes exactly
    /// the sub-threshold entries.
    #[test]
    fn sparsify_contracts(
        mags in proptest::collection::vec(0.0f64..2.0, 1..50),
        t in 0.0f64..1.0,
    ) {
        let mut v: Vec<Complex64> = mags
            .iter()
            .enumerate()
            .map(|(i, m)| Complex64::from_polar(*m, i as f64))
            .collect();
        let before = v.clone();
        sparsify(&mut v, t);
        for (a, b) in v.iter().zip(before.iter()) {
            prop_assert!(a.abs() <= b.abs() + 1e-12);
            if b.abs() <= t {
                prop_assert_eq!(*a, Complex64::ZERO);
            } else {
                // Phase preserved for survivors.
                prop_assert!(
                    chronos_suite::math::unwrap::angular_distance(a.arg(), b.arg()) < 1e-9
                );
            }
        }
    }

    /// The CRT voting solver recovers any single-path delay in range from
    /// noiseless phases over the 5 GHz plan.
    #[test]
    fn crt_voting_recovers_tau(tau in 0.5f64..95.0) {
        let freqs: Vec<f64> = chronos_suite::rf::bands::band_plan_5ghz()
            .iter()
            .map(|b| b.center_hz)
            .collect();
        let hs: Vec<Complex64> = freqs
            .iter()
            .map(|f| Complex64::from_polar(1.0, -2.0 * PI * f * tau * 1e-9))
            .collect();
        let sol = tof_from_channels(&freqs, &hs, 1.0, &CrtConfig::default()).unwrap();
        prop_assert!((sol.value - tau).abs() < 0.05, "tau {} -> {}", tau, sol.value);
    }

    /// A congruence's distance function is bounded by half its modulus and
    /// zero at any representative.
    #[test]
    fn congruence_distance_bounds(r in 0.0f64..5.0, m in 0.01f64..5.0, k in -5i32..5) {
        let c = Congruence::new(r, m);
        prop_assert!(c.distance(r + k as f64 * m) < 1e-9);
        for x in [0.0, 1.3, 7.7] {
            prop_assert!(c.distance(x) <= m / 2.0 + 1e-12);
        }
    }

    /// Sparse inversion of a noiseless on-grid single path puts its largest
    /// atom on the true grid point.
    #[test]
    fn ista_finds_on_grid_path(idx in 5usize..90) {
        let freqs: Vec<f64> = chronos_suite::rf::bands::band_plan_5ghz()
            .iter()
            .map(|b| b.center_hz)
            .collect();
        let grid = TauGrid::span(100.0, 1.0);
        let plan = NdftPlan::new(&freqs, grid, 100.0);
        let tau = grid.tau_at(idx);
        let h: Vec<Complex64> = freqs
            .iter()
            .map(|f| Complex64::from_polar(1.0, -2.0 * PI * f * tau * 1e-9))
            .collect();
        let mut scratch = IstaScratch::new();
        solve_planned_into(&plan, &h, &IstaConfig::default(), &mut scratch);
        let (best, _) = scratch
            .solution()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap();
        prop_assert_eq!(best, idx);
    }

    /// Trilateration from exact distances recovers the transmitter for any
    /// position meaningfully off the antenna plane's degenerate axis.
    #[test]
    fn trilateration_exact(x in -8.0f64..8.0, y in 0.5f64..8.0) {
        let tx = Point::new(x, y);
        let antennas = [Point::new(-0.6, 0.0), Point::new(0.6, 0.0), Point::new(0.0, 0.8)];
        let ranges: Vec<AntennaRange> = antennas
            .iter()
            .map(|a| AntennaRange { antenna: *a, distance_m: a.dist(tx) })
            .collect();
        let pos = locate(&ranges, &LocalizerConfig::default()).unwrap();
        prop_assert!(pos.point.dist(tx) < 1e-3, "err {}", pos.point.dist(tx));
    }

    /// A two-antenna fix is mirror-ambiguous; the ambiguity is resolved
    /// by a third non-collinear antenna, or by a position tracker's
    /// motion prior (paper §8's mobility heuristic).
    #[test]
    fn mirror_ambiguity_resolved(
        x in -3.0f64..3.0,
        y in 0.4f64..6.0,
        half in 0.3f64..0.8,
    ) {
        let a = Point::new(-half, 0.0);
        let b = Point::new(half, 0.0);
        let tx = Point::new(x, y);
        let mirror = Point::new(x, -y);
        let two = vec![
            AntennaRange { antenna: a, distance_m: a.dist(tx) },
            AntennaRange { antenna: b, distance_m: b.dist(tx) },
        ];
        let cfg = LocalizerConfig::default();
        let cands = locate_all(&two, &cfg).unwrap();
        prop_assert_eq!(cands.len(), 2, "two antennas must yield the mirror pair");
        for target in [tx, mirror] {
            prop_assert!(
                cands.iter().any(|c| c.point.dist(target) < 0.05),
                "missing candidate near {target:?}: {cands:?}"
            );
        }

        // Third non-collinear antenna: the best fit lands on the truth.
        let c = Point::new(0.0, 0.5);
        let mut three = two.clone();
        three.push(AntennaRange { antenna: c, distance_m: c.dist(tx) });
        let best = locate(&three, &cfg).unwrap();
        prop_assert!(best.point.dist(tx) < 0.05, "err {}", best.point.dist(tx));

        // Motion prior: a tracker warmed on the true side resolves the
        // *tied-residual* mirror pair to the prior-consistent candidate.
        let mut tracker = PositionTracker::new(TrackerConfig::default());
        for i in 0..2u64 {
            tracker.observe(
                Instant::ZERO + Duration::from_millis(100 * i),
                Some(tx),
                true,
            );
        }
        let picked = tracker.resolve(&cands).unwrap();
        prop_assert!(picked.point.dist(tx) < 0.05, "prior picked {:?}", picked.point);
    }

    /// The triangle-inequality consistency filter never rejects an
    /// antenna from a geometrically consistent LOS range set — exact
    /// distances (plus noise well under the tolerance) always use every
    /// antenna.
    #[test]
    fn triangle_filter_keeps_consistent_los_sets(
        x in -6.0f64..6.0,
        y in 0.6f64..8.0,
        n1 in -0.1f64..0.1,
        n2 in -0.1f64..0.1,
        n3 in -0.1f64..0.1,
        wide in 0usize..2,
    ) {
        let tx = Point::new(x, y);
        let antennas = if wide == 1 {
            [Point::new(-0.6, 0.0), Point::new(0.6, 0.0), Point::new(0.0, 0.8)]
        } else {
            [Point::new(-0.18, 0.0), Point::new(0.18, 0.0), Point::new(0.0, 0.24)]
        };
        let noise = [n1, n2, n3];
        let ranges: Vec<AntennaRange> = antennas
            .iter()
            .zip(noise.iter())
            .map(|(a, n)| AntennaRange { antenna: *a, distance_m: a.dist(tx) + n })
            .collect();
        // A generous residual cap isolates the triangle filter: the fit
        // itself may be loose at bad geometry, but no antenna may be
        // dropped.
        let cfg = LocalizerConfig { max_residual_m: 10.0, ..LocalizerConfig::default() };
        let pos = locate(&ranges, &cfg).unwrap();
        prop_assert_eq!(pos.n_used, 3, "consistent LOS antenna rejected");
    }

    /// Median and percentiles are order statistics: bounded by min/max and
    /// monotone in the percentile argument.
    #[test]
    fn percentile_sane(xs in proptest::collection::vec(-100.0f64..100.0, 1..60)) {
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let med = median(&xs);
        prop_assert!(med >= lo - 1e-12 && med <= hi + 1e-12);
        let mut prev = lo;
        for p in [10.0, 30.0, 50.0, 70.0, 90.0] {
            let v = percentile(&xs, p);
            prop_assert!(v + 1e-12 >= prev);
            prev = v;
        }
    }

    /// The innovation gate bounds the influence any single fix can exert
    /// on a maintained track: a sub-gate measurement moves the filtered
    /// estimate by at most `gate_sigma · √S` (the Kalman gain is ≤ 1, so
    /// the shift is at most the innovation), and an outlier above the
    /// gate never moves the estimate *silently* — it trips the gate,
    /// demotes the mode machine to ACQUIRE and grows the anomaly score,
    /// which is the guarantee the quarantine policy of
    /// `docs/ADVERSARIAL.md` is built on. Holds for arbitrary filter
    /// states (random range, velocity ramp, cadence and noise knobs).
    #[test]
    fn gate_bounds_single_fix_influence(
        d0 in 1.0f64..40.0,
        vel_step in -0.3f64..0.3,
        warmups in 2usize..10,
        dt_ms in 20u64..500,
        offset_sigmas in 0.0f64..30.0,
        sign in 0usize..2,
        gate in 2.0f64..8.0,
        noise_m in 0.02f64..0.5,
    ) {
        let cfg = TrackerConfig {
            gate_sigma: gate,
            measurement_noise_m: noise_m,
            ..TrackerConfig::default()
        };
        let mut tracker = ClientTracker::new(cfg);
        let mut t = Instant::ZERO;
        for i in 0..warmups {
            tracker.observe(t, Some(d0 + vel_step * i as f64), true);
            t += Duration::from_millis(dt_ms);
        }
        // A probe clone recovers the post-predict prediction and the
        // innovation variance S at time `t` (S is independent of the
        // measurement value), so the outlier can be *constructed* at an
        // exact sigma offset from the prediction.
        let mut probe = tracker.clone();
        let probe_upd = probe.observe(t, Some(d0), true);
        let predicted = probe_upd.predicted.expect("warmed-up filter has a state");
        let sigma = probe_upd.innovation.expect("probe fix has an innovation").s_m2.sqrt();
        let z = predicted + if sign == 0 { -1.0 } else { 1.0 } * offset_sigmas * sigma;

        let pre_score = tracker.anomaly_score();
        let upd = tracker.observe(t, Some(z), true);
        let fused = upd.fused.expect("fix always leaves a state");
        if offset_sigmas > gate + 1e-6 {
            // Outlier: explicit track break, never a silent nudge.
            prop_assert!(upd.gated, "outlier at {offset_sigmas:.2} sigmas not gated");
            prop_assert_eq!(upd.next_mode, TrackMode::Acquire);
            // The re-seed at the outlier is deliberate and flagged; the
            // anomaly score must grow by at least the run increment.
            prop_assert!((fused - z).abs() < 1e-9);
            prop_assert!(
                tracker.anomaly_score() >= pre_score + 1.0 - 1e-9,
                "gated fix must grow the anomaly score: {pre_score} -> {}",
                tracker.anomaly_score()
            );
        } else if offset_sigmas < gate - 1e-6 {
            // Sub-gate: fused, and the estimate moves by at most the
            // gate bound (and never further than the innovation itself).
            prop_assert!(!upd.gated);
            prop_assert!(
                (fused - predicted).abs() <= (z - predicted).abs() + 1e-9,
                "shift {} exceeds innovation {}",
                (fused - predicted).abs(),
                (z - predicted).abs()
            );
            prop_assert!(
                (fused - predicted).abs() <= gate * sigma + 1e-9,
                "shift {} exceeds gate bound {}",
                (fused - predicted).abs(),
                gate * sigma
            );
        }
    }

    /// Frame round trip: any encodable frame parses back to itself.
    #[test]
    fn frame_round_trip(seq in 0u16..u16::MAX, ch in 1u16..200, dwell in 0u32..10_000) {
        use chronos_suite::link::frame::Frame;
        for f in [
            Frame::HopAdvert { seq, next_channel: ch, dwell_us: dwell },
            Frame::Ack { seq },
            Frame::Measure { seq },
            Frame::Data { len: (dwell % 1500) as u16 },
        ] {
            let enc = f.encode();
            prop_assert_eq!(Frame::parse(&enc).unwrap(), f);
        }
    }
}

// ---------------------------------------------------------------------------
// Admission-queue properties (PR 7): a reference model of the bounded
// multi-class queue is replayed against the real `AdmissionQueue` over
// arbitrary offer/pop interleavings. The model is written straight from
// the documented contract (strict priority, FIFO within class, per-class
// then global bounds, ACQUIRE-displaces-newest-BACKGROUND), so any
// divergence is a bug in one of the two — and shedding being a pure
// function of the arrival sequence falls out as replay determinism.

/// One step of an interleaving: offer a request of a class, or pop.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    Offer(chronos_suite::link::traffic::TrafficClass),
    Pop,
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    use chronos_suite::link::traffic::TrafficClass;
    prop_oneof![
        Just(QueueOp::Offer(TrafficClass::Acquire)),
        Just(QueueOp::Offer(TrafficClass::Track)),
        Just(QueueOp::Offer(TrafficClass::Background)),
        Just(QueueOp::Pop),
        Just(QueueOp::Pop),
    ]
}

fn admission_cfg() -> impl Strategy<Value = chronos_suite::link::admission::AdmissionConfig> {
    (1usize..6, 1usize..6, 1usize..6, 1usize..12).prop_map(|(a, t, b, g)| {
        chronos_suite::link::admission::AdmissionConfig {
            acquire_depth: a,
            track_depth: t,
            background_depth: b,
            global_depth: g,
        }
    })
}

/// The reference model: three FIFO lanes and the documented bounds.
struct ModelQueue {
    cfg: chronos_suite::link::admission::AdmissionConfig,
    lanes: [std::collections::VecDeque<u32>; 3],
}

impl ModelQueue {
    fn new(cfg: chronos_suite::link::admission::AdmissionConfig) -> Self {
        ModelQueue {
            cfg,
            lanes: Default::default(),
        }
    }

    fn total(&self) -> usize {
        self.lanes.iter().map(|l| l.len()).sum()
    }

    fn offer(
        &mut self,
        class: chronos_suite::link::traffic::TrafficClass,
        item: u32,
    ) -> chronos_suite::link::admission::Offer<u32> {
        use chronos_suite::link::admission::Offer;
        use chronos_suite::link::traffic::TrafficClass;
        let lane = class.rank();
        if self.lanes[lane].len() >= self.cfg.depth(class) {
            return Offer::Rejected(item);
        }
        if self.total() >= self.cfg.global_depth {
            let bg = TrafficClass::Background.rank();
            if class == TrafficClass::Acquire && !self.lanes[bg].is_empty() {
                let victim = self.lanes[bg].pop_back().unwrap();
                self.lanes[lane].push_back(item);
                return Offer::Displaced(victim);
            }
            return Offer::Rejected(item);
        }
        self.lanes[lane].push_back(item);
        Offer::Enqueued
    }

    fn pop(&mut self) -> Option<(chronos_suite::link::traffic::TrafficClass, u32)> {
        use chronos_suite::link::traffic::TrafficClass;
        TrafficClass::ALL
            .into_iter()
            .find(|c| !self.lanes[c.rank()].is_empty())
            .map(|c| (c, self.lanes[c.rank()].pop_front().unwrap()))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The real queue agrees with the reference model step for step —
    /// offer outcomes (including which BACKGROUND victim a full queue
    /// displaces), pop order (strict priority, FIFO within class) and
    /// occupancy — and never exceeds a bound at any intermediate state.
    #[test]
    fn admission_queue_matches_reference_model(
        cfg in admission_cfg(),
        ops in proptest::collection::vec(queue_op(), 1..200),
    ) {
        use chronos_suite::link::admission::AdmissionQueue;
        use chronos_suite::link::traffic::TrafficClass;
        let mut real = AdmissionQueue::new(cfg);
        let mut model = ModelQueue::new(cfg);
        for (i, op) in ops.iter().enumerate() {
            match op {
                QueueOp::Offer(class) => {
                    let got = real.offer(*class, i as u32);
                    let want = model.offer(*class, i as u32);
                    prop_assert_eq!(got, want, "offer {} diverged", i);
                }
                QueueOp::Pop => {
                    prop_assert_eq!(real.pop(), model.pop(), "pop {} diverged", i);
                }
            }
            // Bounds hold at every intermediate state, not just at the end.
            for c in TrafficClass::ALL {
                prop_assert!(real.len_class(c) <= cfg.depth(c));
                prop_assert_eq!(real.len_class(c), model.lanes[c.rank()].len());
            }
            prop_assert!(real.len() <= cfg.global_depth);
            prop_assert_eq!(real.peek_class(), TrafficClass::ALL.into_iter()
                .find(|c| real.len_class(*c) > 0));
        }
        // High-water marks are consistent: each per-class mark is within
        // its bound, and the global mark is within the global bound.
        for c in TrafficClass::ALL {
            prop_assert!(real.high_water().get(c) <= cfg.depth(c) as u64);
        }
        prop_assert!(real.high_water_total() <= cfg.global_depth);
    }

    /// Replaying an interleaving yields bitwise-identical outcomes:
    /// shedding is a deterministic function of the arrival sequence.
    #[test]
    fn admission_queue_replays_deterministically(
        cfg in admission_cfg(),
        ops in proptest::collection::vec(queue_op(), 1..200),
    ) {
        use chronos_suite::link::admission::AdmissionQueue;
        let replay = || {
            let mut q = AdmissionQueue::new(cfg);
            let mut trace = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                match op {
                    QueueOp::Offer(class) => {
                        trace.push(format!("{:?}", q.offer(*class, i as u32)));
                    }
                    QueueOp::Pop => trace.push(format!("{:?}", q.pop())),
                }
            }
            (trace, q.high_water(), q.high_water_total())
        };
        prop_assert_eq!(replay(), replay());
    }

    /// Strict priority across any interleaving: a pop never returns a
    /// class while a higher-priority lane has a waiter, and an ACQUIRE
    /// offer is only ever *rejected* when its own lane is at depth or
    /// the queue is globally full with nothing left to displace.
    #[test]
    fn admission_queue_priority_and_acquire_last(
        cfg in admission_cfg(),
        ops in proptest::collection::vec(queue_op(), 1..200),
    ) {
        use chronos_suite::link::admission::{AdmissionQueue, Offer};
        use chronos_suite::link::traffic::TrafficClass;
        let mut q = AdmissionQueue::new(cfg);
        for (i, op) in ops.iter().enumerate() {
            match op {
                QueueOp::Offer(class) => {
                    let before_class = q.len_class(*class);
                    let before_total = q.len();
                    let before_bg = q.len_class(TrafficClass::Background);
                    match q.offer(*class, i as u32) {
                        Offer::Rejected(item) => {
                            prop_assert_eq!(item, i as u32, "wrong item handed back");
                            let class_full = before_class >= cfg.depth(*class);
                            let global_full = before_total >= cfg.global_depth;
                            prop_assert!(class_full || global_full);
                            if *class == TrafficClass::Acquire && !class_full {
                                // ACQUIRE sheds *last*: only a globally
                                // full queue with no background left.
                                prop_assert!(global_full && before_bg == 0);
                            }
                        }
                        Offer::Displaced(_) => {
                            prop_assert_eq!(*class, TrafficClass::Acquire,
                                "only ACQUIRE may displace");
                            prop_assert!(before_total >= cfg.global_depth);
                            prop_assert!(before_bg > 0);
                        }
                        Offer::Enqueued => {
                            prop_assert!(before_class < cfg.depth(*class));
                            prop_assert!(before_total < cfg.global_depth);
                        }
                    }
                }
                QueueOp::Pop => {
                    if let Some((class, _)) = q.pop() {
                        for higher in TrafficClass::ALL {
                            if higher.outranks(class) {
                                prop_assert_eq!(q.len_class(higher), 0,
                                    "popped past a waiting higher class");
                            }
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tolerance tier (PR 10): the lane-chunked conjugated-dot kernel behind
// the debias refit's normal equations (`CMat::lstsq_into_lanes`). The
// helpers are always compiled in `chronos_math`, so this pin runs in
// every tier; only `debias_into`'s dispatch is `simd`-gated.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `dot_conj_split` — the Gram/normal-equations kernel — agrees
    /// with sequential conjugated summation within 1e-12 relative on
    /// random split vectors (lengths straddling the lane width).
    #[test]
    fn debias_gram_kernel_matches_scalar_within_1e12(
        pairs in proptest::collection::vec(
            ((-2.0f64..2.0, -2.0f64..2.0), (-2.0f64..2.0, -2.0f64..2.0)),
            1..40,
        ),
    ) {
        use chronos_suite::math::lanes::dot_conj_split;
        let a: Vec<Complex64> = pairs.iter().map(|((r, i), _)| Complex64::new(*r, *i)).collect();
        let b: Vec<Complex64> = pairs.iter().map(|(_, (r, i))| Complex64::new(*r, *i)).collect();
        let (ar, ai): (Vec<f64>, Vec<f64>) = (a.iter().map(|z| z.re).collect(), a.iter().map(|z| z.im).collect());
        let (br, bi): (Vec<f64>, Vec<f64>) = (b.iter().map(|z| z.re).collect(), b.iter().map(|z| z.im).collect());
        let (re, im) = dot_conj_split(&ar, &ai, &br, &bi);
        let want = a.iter().zip(b.iter()).fold(Complex64::ZERO, |s, (x, y)| s + x.conj() * *y);
        let scale = want.abs().max(1.0);
        prop_assert!((re - want.re).abs() <= 1e-12 * scale, "{} vs {}", re, want.re);
        prop_assert!((im - want.im).abs() <= 1e-12 * scale, "{} vs {}", im, want.im);
    }

    /// The full lanes refit solve agrees with the scalar `lstsq_into`
    /// source of truth within 1e-12 relative on random well-conditioned
    /// two-atom systems.
    #[test]
    fn lstsq_lanes_matches_scalar_within_1e12(
        rows in 2usize..24,
        // Bounded apart so the two atoms stay well-conditioned: near-
        // collinear columns would amplify the kernels' ~1e-16 Gram
        // differences past the 1e-12 output bound.
        ph1 in 0.3f64..1.4,
        ph2 in -1.4f64..-0.3,
        bv in (0.2f64..2.0, -3.0f64..3.0),
    ) {
        use chronos_suite::math::cmatrix::{CLstsqScratch, CMat};
        let mut a = CMat::zeros(rows, 2);
        for i in 0..rows {
            a.set(i, 0, Complex64::cis(ph1 * i as f64));
            a.set(i, 1, Complex64::cis(ph2 * i as f64 + 0.3));
        }
        let b: Vec<Complex64> = (0..rows)
            .map(|i| Complex64::from_polar(bv.0 + 0.05 * i as f64, bv.1 + 0.2 * i as f64))
            .collect();
        let mut ws = CLstsqScratch::default();
        let (mut scalar, mut lanes) = (Vec::new(), Vec::new());
        a.lstsq_into(&b, &mut ws, &mut scalar).unwrap();
        a.lstsq_into_lanes(&b, &mut ws, &mut lanes).unwrap();
        for (s, l) in scalar.iter().zip(lanes.iter()) {
            prop_assert!((*s - *l).abs() <= 1e-12 * s.abs().max(1.0), "{} vs {}", s, l);
        }
    }
}

// ---------------------------------------------------------------------------
// Tolerance tier (PR 9): the lane-chunked SoA kernels of the `simd`
// feature against the scalar source of truth. See docs/PIPELINE.md for
// the exact-vs-tolerance contract boundary.
// ---------------------------------------------------------------------------

/// Full-sweep golden capture: end-to-end fix distances for the bench
/// population (12-band 5 GHz subset, two-path genie channels, clients at
/// `2.0 + 0.75 i` meters), recorded under the scalar (exact-tier) build.
/// Scalar builds must reproduce the capture bitwise; `simd` builds must
/// drift less than 1e-9 m. (In practice the tiers agree bitwise here:
/// the solver tiers differ within 1e-6 relative, but every discrete
/// downstream choice — support, peak bin — lands identically, and the
/// sub-grid refinement re-derives the delay from the measurements.)
#[test]
fn golden_capture_fix_distance_drift_below_nanometer() {
    use chronos_suite::core::config::ChronosConfig;
    use chronos_suite::core::tof::{genie_product, TofEstimator};
    use chronos_suite::core::SweepPipeline;
    use chronos_suite::math::constants::m_to_ns;
    use chronos_suite::rf::bands::band_plan_5ghz;
    use chronos_suite::rf::subset::select_subset;

    // Full f64 digits on purpose: the assertion below is a sub-nanometer
    // drift bound, so the recorded capture must not be pre-rounded.
    #[allow(clippy::excessive_precision)]
    const GOLDEN_DISTANCE_M: [f64; 8] = [
        2.019_885_103_586_959_39,
        2.770_128_207_207_205_32,
        3.520_355_947_751_145_46,
        4.270_218_072_061_267_91,
        5.020_445_812_605_207_61,
        5.770_664_058_245_819_74,
        6.520_866_940_810_122_97,
        7.268_889_247_605_208_05,
    ];
    let subset = select_subset(&band_plan_5ghz(), 12, 100.0);
    let estimator = TofEstimator::new(ChronosConfig::ideal());
    for (i, golden) in GOLDEN_DISTANCE_M.iter().enumerate() {
        let tau = m_to_ns(2.0 + 0.75 * i as f64);
        let paths = [(tau, 1.0), (tau + 5.0, 0.4)];
        let products: Vec<_> = subset
            .iter()
            .map(|b| genie_product(b.center_hz, &paths, 2.0))
            .collect();
        let est = SweepPipeline::new()
            .estimate_from_products(&estimator, &products)
            .expect("golden capture fix");
        let drift = (est.distance_m - golden).abs();
        assert!(
            drift < 1e-9,
            "client {i}: fix drifted {drift:.3e} m from the scalar golden capture \
             ({:.17e} vs {golden:.17e})",
            est.distance_m
        );
    }
}

#[cfg(feature = "simd")]
mod simd_tolerance {
    use super::*;
    use chronos_suite::core::ista::solve_planned_into_scalar;
    use chronos_suite::core::ndft::Ndft;

    /// A random small NDFT problem: `n` measurement tones between 2 and
    /// 7 GHz over a grid whose size exercises both the lane-tiled main
    /// loops and their scalar tails.
    fn plan_inputs() -> impl Strategy<Value = (Vec<f64>, f64, f64)> {
        (
            proptest::collection::vec(2.0f64..7.0, 5..16),
            20.0f64..80.0, // span_ns
            0.3f64..1.5,   // step_ns
        )
            .prop_map(|(ghz, span, step)| (ghz.iter().map(|g| g * 1e9).collect(), span, step))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The split-plane forward kernel agrees with the scalar
        /// forward within 1e-12 relative on random plans and random
        /// (partially sparse) profiles.
        #[test]
        fn split_forward_matches_scalar_within_1e12(
            inputs in plan_inputs(),
            coeffs in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0, 0u8..4), 1..8),
        ) {
            let (freqs, span, step) = inputs;
            let grid = TauGrid::span(span, step);
            let ndft = Ndft::new(&freqs, grid);
            let m = ndft.n_taus();
            let mut p = vec![Complex64::ZERO; m];
            for (j, (re, im, stride)) in coeffs.iter().enumerate() {
                let k = (j * (*stride as usize + 1) * 7) % m;
                p[k] = Complex64::new(*re, *im);
            }
            let p_re: Vec<f64> = p.iter().map(|z| z.re).collect();
            let p_im: Vec<f64> = p.iter().map(|z| z.im).collect();
            let mut want = Vec::new();
            ndft.forward_into(&p, &mut want);
            let (mut out_re, mut out_im) = (Vec::new(), Vec::new());
            ndft.forward_split_into(&p_re, &p_im, &mut out_re, &mut out_im);
            let peak = want.iter().map(|z| z.abs()).fold(1e-30f64, f64::max);
            for (w, (r, i)) in want.iter().zip(out_re.iter().zip(out_im.iter())) {
                prop_assert!((w.re - r).abs() <= 1e-12 * peak, "{} vs {}", w.re, r);
                prop_assert!((w.im - i).abs() <= 1e-12 * peak, "{} vs {}", w.im, i);
            }
        }

        /// The split-plane adjoint kernel agrees with the scalar
        /// adjoint within 1e-12 relative on random plans and random
        /// measurements.
        #[test]
        fn split_adjoint_matches_scalar_within_1e12(
            inputs in plan_inputs(),
            hv in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 16..17),
        ) {
            let (freqs, span, step) = inputs;
            let grid = TauGrid::span(span, step);
            let ndft = Ndft::new(&freqs, grid);
            let n = ndft.n_freqs();
            let h: Vec<Complex64> = hv[..n].iter().map(|(r, i)| Complex64::new(*r, *i)).collect();
            let h_re: Vec<f64> = h.iter().map(|z| z.re).collect();
            let h_im: Vec<f64> = h.iter().map(|z| z.im).collect();
            let mut want = Vec::new();
            ndft.adjoint_into(&h, &mut want);
            let (mut sums, mut out_re, mut out_im) = (Vec::new(), Vec::new(), Vec::new());
            ndft.adjoint_split_into(&h_re, &h_im, &mut sums, &mut out_re, &mut out_im);
            let peak = want.iter().map(|z| z.abs()).fold(1e-30f64, f64::max);
            for (w, (r, i)) in want.iter().zip(out_re.iter().zip(out_im.iter())) {
                prop_assert!((w.re - r).abs() <= 1e-12 * peak, "{} vs {}", w.re, r);
                prop_assert!((w.im - i).abs() <= 1e-12 * peak, "{} vs {}", w.im, i);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Whole-solver agreement: the lane-chunked FISTA body (fused
        /// prox kernel, support-restricted forward, on-the-fly momentum)
        /// tracks the scalar reference solver within 1e-6 relative on
        /// random two-path channels — per-kernel 1e-12 drift compounded
        /// over hundreds of iterations stays bounded.
        #[test]
        fn simd_solver_tracks_scalar_on_random_channels(
            tau in 5.0f64..60.0,
            sep in 2.0f64..20.0,
            amp2 in 0.05f64..0.9,
        ) {
            let freqs: Vec<f64> = (0..12).map(|i| 5.18e9 + 20e6 * i as f64).collect();
            let grid = TauGrid::span(100.0, 0.5);
            let plan = NdftPlan::new(&freqs, grid, 100.0);
            let h: Vec<Complex64> = freqs
                .iter()
                .map(|f| {
                    let ph1 = -2.0 * PI * f * tau * 1e-9;
                    let ph2 = -2.0 * PI * f * (tau + sep) * 1e-9;
                    Complex64::cis(ph1) + Complex64::cis(ph2) * amp2
                })
                .collect();
            let cfg = IstaConfig::default();
            let mut scalar = IstaScratch::new();
            solve_planned_into_scalar(&plan, &h, &cfg, &mut scalar);
            let mut simd = IstaScratch::new();
            solve_planned_into(&plan, &h, &cfg, &mut simd);
            let peak = scalar
                .solution()
                .iter()
                .map(|z| z.abs())
                .fold(1e-30f64, f64::max);
            for (a, b) in scalar.solution().iter().zip(simd.solution().iter()) {
                prop_assert!(
                    (*a - *b).abs() <= 1e-6 * peak,
                    "solver tiers diverged: {} vs {}",
                    a, b
                );
            }
        }

        /// Raster plans: random subsets of at least five bands from
        /// either Wi-Fi group, at 0.25, 0.5 or 1 ns over a 200 ns span,
        /// always take the polyphase adjoint under `simd`. The solver
        /// must still track the scalar reference: the same convergence
        /// flag and drift within 1e-6 of the profile peak.
        #[test]
        fn raster_solver_tracks_scalar_on_wifi_subsets(
            group_2g4 in 0usize..2,
            scores in proptest::collection::vec(0.0f64..1.0, 24..25),
            frac in 0.0f64..1.0,
            step_idx in 0usize..3,
            tau in 5.0f64..60.0,
            sep in 2.0f64..20.0,
            amp2 in 0.05f64..0.9,
        ) {
            use chronos_suite::rf::bands::band_plan;
            let group: Vec<f64> = band_plan()
                .iter()
                .filter(|b| b.group.is_2g4() == (group_2g4 == 1))
                .map(|b| b.center_hz)
                .collect();
            // The lowest-scoring `count` bands, back in frequency order.
            let count = 5 + (frac * (group.len() - 4) as f64) as usize;
            let mut order: Vec<usize> = (0..group.len()).collect();
            order.sort_by(|a, b| scores[*a].total_cmp(&scores[*b]));
            order.truncate(count);
            order.sort_unstable();
            let freqs: Vec<f64> = order.iter().map(|i| group[*i]).collect();
            let step = [0.25, 0.5, 1.0][step_idx];
            let plan = NdftPlan::new(&freqs, TauGrid::span(200.0, step), 200.0);
            prop_assert!(plan.ndft.polyphase_shape().is_some(), "{:?} off the raster", freqs);
            let h: Vec<Complex64> = freqs
                .iter()
                .map(|f| {
                    let ph1 = -2.0 * PI * f * tau * 1e-9;
                    let ph2 = -2.0 * PI * f * (tau + sep) * 1e-9;
                    Complex64::cis(ph1) + Complex64::cis(ph2) * amp2
                })
                .collect();
            let cfg = IstaConfig::default();
            let mut scalar = IstaScratch::new();
            let a = solve_planned_into_scalar(&plan, &h, &cfg, &mut scalar);
            let mut simd = IstaScratch::new();
            let b = solve_planned_into(&plan, &h, &cfg, &mut simd);
            prop_assert_eq!(a.converged, b.converged, "{} bands at {} ns", freqs.len(), step);
            let peak = scalar
                .solution()
                .iter()
                .map(|z| z.abs())
                .fold(1e-30f64, f64::max);
            for (x, y) in scalar.solution().iter().zip(simd.solution().iter()) {
                prop_assert!(
                    (*x - *y).abs() <= 1e-6 * peak,
                    "{} bands at {} ns: {} vs {}",
                    freqs.len(), step, x, y
                );
            }
        }
    }
}
