//! Airtime arbitration for many concurrent ranging clients.
//!
//! One Chronos pair owns the medium for ~84 ms per sweep (paper §4, Fig.
//! 9a). A service localizing N clients cannot simply run N sweeps at once
//! on one access point: sweeps that overlap in time contend for airtime.
//! The saving grace is that a sweep *hops* — each pair dwells only 2–3 ms
//! per band — so two overlapping sweeps usually occupy different bands
//! and collide only when their dwells land on the same channel. The
//! [`MediumArbiter`] models exactly that regime:
//!
//! * at most [`ArbiterConfig::max_concurrent`] sweeps may overlap; beyond
//!   that, admission is deferred to the next free slot (clients queue,
//!   which is what an enterprise AP scheduler would do);
//! * admitted sweeps are staggered by a guard interval so their dwell
//!   patterns interleave instead of starting phase-aligned (phase-aligned
//!   hoppers would collide on *every* band);
//! * each admitted sweep pays an extra per-frame loss probability of
//!   [`ArbiterConfig::collision_loss_per_peer`] per concurrent peer —
//!   the chance that a foreign dwell sits on the same band and a frame
//!   collides. The sweep protocol's retransmissions then turn that loss
//!   into the realistic throughput cost of contention (longer sweeps,
//!   occasional fail-safes), the same mechanism the paper's §12.3
//!   co-existence experiments exercise.
//!
//! The arbiter is deterministic and allocation-light: admission is a scan
//! over the currently tracked windows, and completed sweeps report their
//! actual finish so the projection stays honest.

use crate::time::{Duration, Instant};

/// Arbitration policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct ArbiterConfig {
    /// Maximum sweeps allowed to overlap in time. Hop-pattern interleaving
    /// keeps a handful of concurrent hoppers efficient; beyond that the
    /// collision cost outweighs the parallelism.
    pub max_concurrent: usize,
    /// Minimum spacing between the *starts* of overlapping sweeps, so
    /// dwell patterns interleave.
    pub guard: Duration,
    /// Extra per-frame loss probability per concurrent peer (same-band
    /// dwell collisions).
    pub collision_loss_per_peer: f64,
    /// Upper bound on the contention-induced loss increment.
    pub max_extra_loss: f64,
}

impl Default for ArbiterConfig {
    fn default() -> Self {
        ArbiterConfig {
            // A dwell is ~2.4 ms of a ~84 ms sweep: a foreign hopper sits
            // on "our" band ~1/35 of the time, and only a fraction of a
            // dwell is airtime. 1.5% per peer is the measured-order cost.
            max_concurrent: 4,
            guard: Duration::from_millis(3),
            collision_loss_per_peer: 0.015,
            max_extra_loss: 0.25,
        }
    }
}

/// What the arbiter granted one sweep request.
#[derive(Debug, Clone, Copy)]
pub struct SweepGrant {
    /// Token identifying the tracked window (for [`MediumArbiter::complete`]).
    pub token: usize,
    /// Admitted start time (>= the requested time).
    pub start: Instant,
    /// Projected end used for admission of later requests.
    pub expected_end: Instant,
    /// Number of already-admitted sweeps this one overlaps at its start.
    pub concurrent: usize,
    /// Additional per-frame loss probability this sweep must run with.
    pub extra_loss: f64,
}

/// A tracked (projected or actual) sweep window.
#[derive(Debug, Clone, Copy)]
struct Window {
    token: usize,
    start: Instant,
    end: Instant,
}

/// Deterministic airtime admission control for concurrent band sweeps.
#[derive(Debug, Clone)]
pub struct MediumArbiter {
    cfg: ArbiterConfig,
    windows: Vec<Window>,
    next_token: usize,
    /// Admission scratch: the windows one admission can run into.
    live: Vec<Window>,
}

/// Number of `windows` overlapping the interval `[start, end)`.
fn overlaps(windows: &[Window], start: Instant, end: Instant) -> usize {
    windows
        .iter()
        .filter(|w| w.start < end && start < w.end)
        .count()
}

/// Whether `t` keeps the start-stagger `guard` against every window of
/// `windows` it would overlap, in order; returns the earliest compliant
/// time at or after `t` otherwise.
fn respect_guard(windows: &[Window], guard: Duration, t: Instant, expected: Duration) -> Instant {
    let end = t + expected;
    let mut bumped = t;
    for w in windows {
        if w.start < end && bumped < w.end {
            let gap = if bumped >= w.start {
                bumped.saturating_since(w.start)
            } else {
                w.start.saturating_since(bumped)
            };
            if gap < guard {
                bumped = bumped.max(w.start + guard);
            }
        }
    }
    bumped
}

/// Nanoseconds from `lo` on covered by the union of `spans`, given in
/// order of start; empty spans cover nothing.
fn covered_ns(spans: impl Iterator<Item = (u64, u64)>, lo: u64) -> u64 {
    let (mut covered, mut covered_to) = (0, lo);
    for (s, e) in spans.filter(|&(s, e)| e > s) {
        if e > covered_to {
            covered += e - s.max(covered_to);
            covered_to = e;
        }
    }
    covered
}

impl MediumArbiter {
    /// Creates an arbiter with the given policy.
    pub fn new(cfg: ArbiterConfig) -> Self {
        MediumArbiter {
            cfg,
            windows: Vec::new(),
            next_token: 0,
            live: Vec::new(),
        }
    }

    /// Admits a sweep expected to take `expected`, starting no earlier
    /// than `not_before`. Deterministically returns the earliest start
    /// satisfying the concurrency cap and stagger guard, plus the
    /// contention loss the sweep must simulate with.
    ///
    /// Every candidate start `t` is at or after `not_before`, and the
    /// guard, overlap and next-free tests all need `t < w.end`, so only
    /// the windows that end after `not_before` can decide anything: they
    /// are collected once, in tracking order, and the scan runs over
    /// them alone. A fleet shard tracks thousands of booked blasts, of
    /// which a sync beacon's admission meets a handful.
    pub fn admit(&mut self, not_before: Instant, expected: Duration) -> SweepGrant {
        let mut live = std::mem::take(&mut self.live);
        live.clear();
        live.extend(self.windows.iter().filter(|w| w.end > not_before));
        let mut t = not_before;
        // Candidate starts are `not_before` bumped over guard conflicts,
        // or just past the end of an existing window. Bounded scan: each
        // iteration either admits or moves `t` strictly forward to one of
        // finitely many window edges.
        for _ in 0..=self.windows.len() * 2 + 2 {
            t = respect_guard(&live, self.cfg.guard, t, expected);
            let end = t + expected;
            if overlaps(&live, t, end) < self.cfg.max_concurrent.max(1) {
                break;
            }
            // Defer to the earliest end among currently-overlapping
            // windows (that's when a slot frees up).
            let next_free = live
                .iter()
                .filter(|w| w.start < end && t < w.end)
                .map(|w| w.end)
                .min()
                .unwrap_or(end);
            t = next_free.max(t + Duration::from_nanos(1));
        }
        let end = t + expected;
        let concurrent = overlaps(&live, t, end);
        self.live = live;
        let extra_loss =
            (self.cfg.collision_loss_per_peer * concurrent as f64).min(self.cfg.max_extra_loss);
        let token = self.next_token;
        self.next_token += 1;
        self.windows.push(Window {
            token,
            start: t,
            end,
        });
        SweepGrant {
            token,
            start: t,
            expected_end: end,
            concurrent,
            extra_loss,
        }
    }

    /// Books an overheard transmission at exactly `[at, at + airtime)`,
    /// bypassing admission entirely — no deferral, no stagger guard, no
    /// concurrency slot displacement. This models air the AP does not
    /// schedule but still observes busy (a one-way TDoA blast arrives on
    /// the *client's* cadence; the AP just timestamps it): the window
    /// counts toward utilization and overlap queries, but it cannot be
    /// moved and needs no completion report. O(1) per call, which is
    /// what keeps a city-scale blast fan-in (thousands of overheard
    /// transmissions per window per AP) out of the admission scan.
    pub fn book(&mut self, at: Instant, airtime: Duration) {
        let token = self.next_token;
        self.next_token += 1;
        self.windows.push(Window {
            token,
            start: at,
            end: at + airtime,
        });
    }

    /// Reports the actual finish time of a granted sweep so the
    /// projection reflects reality for later admissions.
    ///
    /// The search runs from the back, where an admission just pushed
    /// the window it completes.
    pub fn complete(&mut self, token: usize, actual_end: Instant) {
        if let Some(w) = self.windows.iter_mut().rev().find(|w| w.token == token) {
            w.end = actual_end.max(w.start);
        }
    }

    /// Forgets windows that ended at or before `horizon` (epoch cleanup).
    pub fn release_before(&mut self, horizon: Instant) {
        self.windows.retain(|w| w.end > horizon);
    }

    /// Number of windows overlapping instant `t`.
    pub fn active_at(&self, t: Instant) -> usize {
        self.windows
            .iter()
            .filter(|w| w.start <= t && t < w.end)
            .count()
    }

    /// Fraction of `[from, to)` covered by at least one tracked window.
    ///
    /// A union sweep: every window clamped to `[from, to)` and non-empty
    /// there becomes one span, the spans are visited in order of start,
    /// and one pass adds the part of each span past the furthest end
    /// seen so far (the span that reached it started no later, so it
    /// covers everything before). The covered nanoseconds are an exact
    /// integer, so the ratio does not depend on how spans of one start
    /// were ordered.
    ///
    /// A fleet shard tracks thousands of blast windows, booked in start
    /// order, and a sync round pushes its beacon ahead of the blasts
    /// booked after the round, although the stagger guard admits it a
    /// few milliseconds later than the first of them. So the windows, in
    /// tracking order, are two sorted runs split at the first window
    /// that starts before its predecessor, and the sweep walks a merge
    /// of the two in place: no buffer, no sort. Only tracked windows that
    /// form three or more sorted runs (a fleet window that holds several
    /// sync rounds) are collected into spans and sorted, by the
    /// run-adaptive stable `sort`.
    pub fn utilization(&self, from: Instant, to: Instant) -> f64 {
        let span = to.saturating_since(from).as_nanos();
        if span == 0 {
            return 0.0;
        }
        let (lo, hi) = (from.as_nanos(), to.as_nanos());
        // Clamping keeps the order of starts, so a run of windows sorted
        // by start gives spans sorted by start.
        let clamp = |w: &Window| {
            (
                w.start.as_nanos().clamp(lo, hi),
                w.end.as_nanos().clamp(lo, hi),
            )
        };
        let descent = |pair: &[Window]| pair[1].start < pair[0].start;
        let split = self
            .windows
            .windows(2)
            .position(descent)
            .map_or(self.windows.len(), |i| i + 1);
        let (head, tail) = self.windows.split_at(split);
        let covered = if tail.windows(2).any(descent) {
            let mut spans: Vec<(u64, u64)> = self.windows.iter().map(clamp).collect();
            spans.sort_by_key(|&(s, _)| s);
            covered_ns(spans.into_iter(), lo)
        } else {
            let (mut head, mut tail) = (
                head.iter().map(clamp).peekable(),
                tail.iter().map(clamp).peekable(),
            );
            let merged = std::iter::from_fn(|| match (head.peek(), tail.peek()) {
                (Some(h), Some(t)) if t.0 < h.0 => tail.next(),
                (Some(_), _) => head.next(),
                (None, _) => tail.next(),
            });
            covered_ns(merged, lo)
        };
        covered as f64 / span as f64
    }

    /// The latest projected end among tracked windows (epoch horizon).
    pub fn horizon(&self) -> Instant {
        self.windows
            .iter()
            .map(|w| w.end)
            .max()
            .unwrap_or(Instant::ZERO)
    }

    /// Total airtime currently charged across tracked windows — the sum
    /// of per-window durations, counting each sweep exactly once.
    ///
    /// Variable-length plans make this the honest capacity denominator:
    /// a TRACK-mode subset sweep must be charged its own (short) window,
    /// not a full-sweep projection, and [`MediumArbiter::complete`]
    /// *replaces* the projected end rather than appending a second
    /// window, so no sweep is ever double-counted (asserted by tests and
    /// `tests/tracking.rs`).
    pub fn total_tracked_airtime(&self) -> Duration {
        self.windows.iter().fold(Duration::ZERO, |acc, w| {
            acc + w.end.saturating_since(w.start)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ms(n: u64) -> Instant {
        Instant::from_millis(n)
    }

    /// The edge sweep [`MediumArbiter::utilization`] ran before the union
    /// sweep: two depth edges per clamped window, sorted, and the covered
    /// time summed wherever the depth is positive. The reference the
    /// union sweep must match bit for bit.
    fn edge_sweep_utilization(arb: &MediumArbiter, from: Instant, to: Instant) -> f64 {
        let span = to.saturating_since(from).as_nanos();
        if span == 0 {
            return 0.0;
        }
        let mut edges: Vec<(u64, i64)> = Vec::with_capacity(arb.windows.len() * 2);
        for w in &arb.windows {
            let s = w.start.as_nanos().clamp(from.as_nanos(), to.as_nanos());
            let e = w.end.as_nanos().clamp(from.as_nanos(), to.as_nanos());
            if e > s {
                edges.push((s, 1));
                edges.push((e, -1));
            }
        }
        edges.sort_unstable();
        let mut covered = 0u64;
        let mut depth = 0i64;
        let mut last = from.as_nanos();
        for (at, delta) in edges {
            if depth > 0 {
                covered += at - last;
            }
            last = at;
            depth += delta;
        }
        covered as f64 / span as f64
    }

    /// [`MediumArbiter::admit`] as it was before it set the windows that
    /// end by `not_before` aside: every scan walks every tracked window.
    /// The reference the admission must match field for field.
    fn scan_all_admit(
        arb: &mut MediumArbiter,
        not_before: Instant,
        expected: Duration,
    ) -> SweepGrant {
        let windows = arb.windows.clone();
        let mut t = not_before;
        for _ in 0..=windows.len() * 2 + 2 {
            t = respect_guard(&windows, arb.cfg.guard, t, expected);
            let end = t + expected;
            if overlaps(&windows, t, end) < arb.cfg.max_concurrent.max(1) {
                break;
            }
            let next_free = windows
                .iter()
                .filter(|w| w.start < end && t < w.end)
                .map(|w| w.end)
                .min()
                .unwrap_or(end);
            t = next_free.max(t + Duration::from_nanos(1));
        }
        let end = t + expected;
        let concurrent = overlaps(&windows, t, end);
        let extra_loss =
            (arb.cfg.collision_loss_per_peer * concurrent as f64).min(arb.cfg.max_extra_loss);
        let token = arb.next_token;
        arb.next_token += 1;
        arb.windows.push(Window {
            token,
            start: t,
            end,
        });
        SweepGrant {
            token,
            start: t,
            expected_end: end,
            concurrent,
            extra_loss,
        }
    }

    /// A grant's fields, the loss as bits.
    fn grant_key(g: &SweepGrant) -> (usize, Instant, Instant, usize, u64) {
        (
            g.token,
            g.start,
            g.expected_end,
            g.concurrent,
            g.extra_loss.to_bits(),
        )
    }

    /// A window's fields.
    fn window_key(w: &Window) -> (usize, Instant, Instant) {
        (w.token, w.start, w.end)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Admission over the windows that end after `not_before` grants
        /// what the scan over every window grants — token, start, end,
        /// overlap count and loss — and leaves the same windows after
        /// `complete`, over three admissions in a row. Edges on a
        /// 1000 ns line make touching and duplicate windows common, and
        /// one window in four ends exactly at the first `not_before`;
        /// guards run from 0 to past most windows, caps from 0 (treated
        /// as 1) to more than the windows.
        #[test]
        fn live_window_admission_matches_full_scan(
            raw in collection::vec((0u64..60, 0u64..25, 0u8..4), 0..40),
            guard in prop_oneof![Just(0u64), 0u64..6, 0u64..30],
            cap in 0usize..8,
            requests in collection::vec((0u64..60, 0u64..20, 0u64..30), 3..4),
        ) {
            let at = |k: u64| Instant::from_nanos(k * 1_000);
            let first = requests[0].0;
            let windows: Vec<Window> = raw
                .iter()
                .enumerate()
                .map(|(token, &(start, len, edge))| {
                    let (start, end) = if edge == 0 {
                        (first.saturating_sub(len), first)
                    } else {
                        (start, start + len)
                    };
                    Window { token, start: at(start), end: at(end) }
                })
                .collect();
            let cfg = ArbiterConfig {
                max_concurrent: cap,
                guard: Duration::from_nanos(guard * 1_000),
                ..ArbiterConfig::default()
            };
            let mut arb = MediumArbiter {
                cfg,
                windows,
                next_token: raw.len(),
                live: Vec::new(),
            };
            let mut reference = arb.clone();
            for &(not_before, expected, actual) in &requests {
                let expected = Duration::from_nanos(expected * 1_000);
                let got = arb.admit(at(not_before), expected);
                let want = scan_all_admit(&mut reference, at(not_before), expected);
                prop_assert_eq!(grant_key(&got), grant_key(&want));
                let actual_end = got.start + Duration::from_nanos(actual * 1_000);
                arb.complete(got.token, actual_end);
                reference.complete(want.token, actual_end);
                let keys = |a: &MediumArbiter| a.windows.iter().map(window_key).collect::<Vec<_>>();
                prop_assert_eq!(keys(&arb), keys(&reference));
                prop_assert_eq!(arb.next_token, reference.next_token);
            }
        }

        /// The union sweep covers exactly what the edge sweep covers, on
        /// window sets in admission order, in start order, and in start
        /// order with the latest window pushed ahead of later-pushed
        /// earlier ones (a sync beacon ahead of a window's blasts). Starts
        /// on a 1000 ns line make touching, nested, duplicate and
        /// zero-length windows common; one window in eight ends before it
        /// starts; the span may cut windows on both sides, cover none of
        /// them, be empty or run backwards.
        #[test]
        fn union_sweep_matches_edge_sweep_bitwise(
            raw in collection::vec(
                (0u64..1_000, prop_oneof![Just(0u64), 0u64..40, 0u64..400], 0u8..8),
                0..48,
            ),
            order in 0usize..3,
            from in 0u64..1_200,
            len in prop_oneof![Just(0u64), 0u64..300, 0u64..1_500],
            backwards in 0u8..8,
        ) {
            let mut windows: Vec<Window> = raw
                .iter()
                .enumerate()
                .map(|(token, &(start, len, odd))| Window {
                    token,
                    start: Instant::from_nanos(start),
                    end: Instant::from_nanos(if odd == 0 {
                        start.saturating_sub(len)
                    } else {
                        start + len
                    }),
                })
                .collect();
            if order > 0 {
                windows.sort_by_key(|w| w.start);
            }
            if order == 2 && windows.len() > 2 {
                let beacon = windows.pop().expect("non-empty");
                windows.insert(windows.len() / 2, beacon);
            }
            let arb = MediumArbiter {
                cfg: ArbiterConfig::default(),
                windows,
                next_token: raw.len(),
                live: Vec::new(),
            };
            let (from, to) = if backwards == 0 {
                (from + len, from)
            } else {
                (from, from + len)
            };
            let (from, to) = (Instant::from_nanos(from), Instant::from_nanos(to));
            prop_assert_eq!(
                arb.utilization(from, to).to_bits(),
                edge_sweep_utilization(&arb, from, to).to_bits(),
                "[{:?}, {:?}) over {:?}", from, to, arb.windows
            );
        }
    }

    #[test]
    fn first_admission_is_immediate_and_free() {
        let mut arb = MediumArbiter::new(ArbiterConfig::default());
        let g = arb.admit(ms(5), Duration::from_millis(90));
        assert_eq!(g.start, ms(5));
        assert_eq!(g.concurrent, 0);
        assert_eq!(g.extra_loss, 0.0);
    }

    #[test]
    fn overlapping_admissions_stagger_and_pay_contention() {
        let mut arb = MediumArbiter::new(ArbiterConfig::default());
        let d = Duration::from_millis(90);
        let a = arb.admit(ms(0), d);
        let b = arb.admit(ms(0), d);
        let c = arb.admit(ms(0), d);
        // Starts are staggered by at least the guard.
        assert!(b.start.saturating_since(a.start) >= Duration::from_millis(3));
        assert!(c.start.saturating_since(b.start) >= Duration::from_millis(3));
        // Later admissions see more contention.
        assert_eq!(b.concurrent, 1);
        assert_eq!(c.concurrent, 2);
        assert!(b.extra_loss > 0.0 && c.extra_loss > b.extra_loss);
    }

    #[test]
    fn concurrency_cap_defers_admission() {
        let cfg = ArbiterConfig {
            max_concurrent: 2,
            ..Default::default()
        };
        let mut arb = MediumArbiter::new(cfg);
        let d = Duration::from_millis(80);
        let a = arb.admit(ms(0), d);
        let b = arb.admit(ms(0), d);
        let c = arb.admit(ms(0), d);
        // The third sweep cannot overlap the first two: it starts when
        // one of them ends.
        assert!(c.start >= a.expected_end.min(b.expected_end));
        assert!(c.concurrent < 2);
    }

    #[test]
    fn extra_loss_capped() {
        let cfg = ArbiterConfig {
            max_concurrent: 64,
            collision_loss_per_peer: 0.2,
            max_extra_loss: 0.25,
            ..Default::default()
        };
        let mut arb = MediumArbiter::new(cfg);
        let d = Duration::from_millis(50);
        for _ in 0..5 {
            arb.admit(ms(0), d);
        }
        let g = arb.admit(ms(0), d);
        assert!(g.extra_loss <= 0.25 + 1e-12);
    }

    #[test]
    fn booked_transmissions_bypass_admission_but_count_as_coverage() {
        let cfg = ArbiterConfig {
            max_concurrent: 1,
            ..Default::default()
        };
        let mut arb = MediumArbiter::new(cfg);
        // Saturate the only concurrency slot.
        arb.admit(ms(0), Duration::from_millis(100));
        // An overheard transmission lands at its true instant anyway —
        // no deferral past the in-flight sweep, no guard bump.
        arb.book(ms(10), Duration::from_millis(20));
        assert_eq!(arb.active_at(ms(15)), 2);
        assert_eq!(
            arb.total_tracked_airtime(),
            Duration::from_millis(120),
            "booked airtime must be charged exactly once"
        );
        // Coverage over [0, 100) is still 100%: the booked window lies
        // inside the admitted one.
        assert!((arb.utilization(ms(0), ms(100)) - 1.0).abs() < 1e-12);
        // And it is released like any other elapsed window.
        arb.release_before(ms(30));
        assert_eq!(arb.active_at(ms(15)), 1);
    }

    #[test]
    fn completion_tightens_projection() {
        let cfg = ArbiterConfig {
            max_concurrent: 1,
            ..Default::default()
        };
        let mut arb = MediumArbiter::new(cfg);
        let a = arb.admit(ms(0), Duration::from_millis(100));
        // The sweep actually finished early; the next admission may start
        // at the real end rather than the projection.
        arb.complete(a.token, ms(40));
        let b = arb.admit(ms(0), Duration::from_millis(100));
        assert!(b.start < ms(100), "start {:?}", b.start);
        assert!(b.start >= ms(40));
    }

    #[test]
    fn utilization_and_active_counts() {
        let mut arb = MediumArbiter::new(ArbiterConfig::default());
        let a = arb.admit(ms(0), Duration::from_millis(50));
        assert_eq!(arb.active_at(a.start + Duration::from_millis(1)), 1);
        // One 50 ms window in a 100 ms span = 50% utilization.
        let u = arb.utilization(a.start, a.start + Duration::from_millis(100));
        assert!((u - 0.5).abs() < 0.02, "utilization {u}");
    }

    #[test]
    fn release_before_forgets_old_windows() {
        let mut arb = MediumArbiter::new(ArbiterConfig::default());
        arb.admit(ms(0), Duration::from_millis(10));
        arb.release_before(ms(20));
        assert_eq!(arb.active_at(ms(5)), 0);
        assert_eq!(arb.horizon(), Instant::ZERO);
    }

    #[test]
    fn variable_length_windows_charge_airtime_exactly_once() {
        let mut arb = MediumArbiter::new(ArbiterConfig::default());
        // A full sweep and two subset sweeps of different lengths.
        let a = arb.admit(ms(0), Duration::from_millis(84));
        let b = arb.admit(ms(0), Duration::from_millis(29));
        let c = arb.admit(ms(0), Duration::from_millis(12));
        let projected = arb.total_tracked_airtime();
        assert_eq!(projected, Duration::from_millis(84 + 29 + 12));

        // Completion replaces the projection — it must never add a second
        // window for the same sweep.
        arb.complete(a.token, a.start + Duration::from_millis(90));
        arb.complete(b.token, b.start + Duration::from_millis(25));
        arb.complete(c.token, c.start + Duration::from_millis(12));
        assert_eq!(
            arb.total_tracked_airtime(),
            Duration::from_millis(90 + 25 + 12)
        );
        // Completing twice is idempotent.
        arb.complete(c.token, c.start + Duration::from_millis(12));
        assert_eq!(
            arb.total_tracked_airtime(),
            Duration::from_millis(90 + 25 + 12)
        );
    }

    #[test]
    fn deterministic_admission() {
        let run = || {
            let mut arb = MediumArbiter::new(ArbiterConfig::default());
            (0..6)
                .map(|_| arb.admit(ms(0), Duration::from_millis(84)).start.as_nanos())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
