//! Drives a full band sweep through the hop protocol.
//!
//! [`run_sweep`] wires an [`crate::fsm::Initiator`] and
//! [`crate::fsm::Responder`] through the [`crate::medium`] over a
//! deterministic [`crate::event`] queue, sampling frame loss
//! from a seeded RNG. The result records the sweep duration (the Fig. 9a
//! observable), per-band measurement timestamps (consumed by
//! `chronos-core` to synthesize CSI at the right instants), and the busy
//! intervals during which the medium was occupied (consumed by the §12.3
//! traffic models).

use crate::event::EventQueue;
use crate::frame::Frame;
use crate::fsm::{Action, Initiator, ProtocolConfig, Responder, ResponderAction};
use crate::medium::MediumConfig;
use crate::time::{Duration, Instant};
use chronos_rf::bands::Band;
use rand::Rng;

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// The bands to visit, in order.
    pub plan: Vec<Band>,
    /// Protocol timing knobs.
    pub protocol: ProtocolConfig,
    /// Medium model.
    pub medium: MediumConfig,
    /// Extra per-band frame-loss probability, indexed by plan position —
    /// how selective jamming reaches the link layer (see
    /// `chronos_rf::environment::Attacker::band_loss`). Empty (the
    /// default) means no extra loss anywhere and, critically, draws no
    /// additional randomness: honest sweeps keep their exact RNG stream.
    pub band_loss: Vec<f64>,
}

impl SweepConfig {
    /// The paper's standard sweep: all 35 U.S. bands with default timing.
    pub fn standard() -> Self {
        SweepConfig::with_plan(chronos_rf::bands::band_plan())
    }

    /// A sweep over an explicit band plan (any length ≥ 1) with default
    /// timing — how the adaptive scheduler issues TRACK-mode subset
    /// sweeps. The protocol machinery is plan-length agnostic; only the
    /// airtime scales.
    pub fn with_plan(plan: Vec<Band>) -> Self {
        SweepConfig {
            plan,
            protocol: ProtocolConfig::default(),
            medium: MediumConfig::default(),
            band_loss: Vec::new(),
        }
    }

    /// Loss-free airtime this plan needs, from the protocol and medium
    /// timing model: per band, `measures_per_band` measure/ack exchanges
    /// (each padded by the inter-measure gap), one hop-advert exchange,
    /// and one channel switch. Multi-client admission scales this by a
    /// fixed 1.13 headroom factor to absorb retransmissions — see
    /// `chronos_core::engine`.
    ///
    /// For the standard 35-band plan this lands near the paper's 84 ms
    /// median hop time (Fig. 9a); for a k-band subset it shrinks to
    /// ~k/35 of that, which is exactly the airtime the adaptive tracker
    /// saves per fix.
    pub fn expected_duration(&self) -> Duration {
        let measure = self.medium.airtime(&Frame::Measure { seq: 0 });
        let ack = self.medium.airtime(&Frame::Ack { seq: 0 });
        let advert = self.medium.airtime(&Frame::HopAdvert {
            seq: 0,
            next_channel: 0,
            dwell_us: 0,
        });
        let exchange = measure + self.medium.sifs + ack + self.protocol.measure_gap;
        let hop = advert + self.medium.sifs + ack + self.medium.channel_switch;
        let per_band = exchange.mul_f64(self.protocol.measures_per_band as f64) + hop;
        per_band.mul_f64(self.plan.len() as f64)
    }
}

/// One completed measure/ack exchange.
#[derive(Debug, Clone, Copy)]
pub struct MeasurementOp {
    /// Index into the sweep plan.
    pub band_index: usize,
    /// When the responder captured forward CSI (measure frame arrival).
    pub t_forward: Instant,
    /// When the initiator captured reverse CSI (ack arrival).
    pub t_reverse: Instant,
}

/// Result of a sweep run.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Sweep start time.
    pub started: Instant,
    /// Time the sweep finished (success or fail-safe).
    pub finished: Instant,
    /// Whether the full plan was covered without fail-safe.
    pub complete: bool,
    /// Completed measurement exchanges, in time order.
    pub measurements: Vec<MeasurementOp>,
    /// Total frames put on the air.
    pub frames_sent: usize,
    /// Frames lost to the medium.
    pub frames_lost: usize,
    /// Intervals during which the initiator's radio was occupied by the
    /// sweep (for the traffic co-existence models).
    pub busy: Vec<(Instant, Instant)>,
}

impl SweepResult {
    /// Sweep duration.
    pub fn duration(&self) -> Duration {
        self.finished.saturating_since(self.started)
    }

    /// Bands with at least one completed measurement.
    pub fn bands_measured(&self, plan_len: usize) -> usize {
        let mut seen = vec![false; plan_len];
        for m in &self.measurements {
            if m.band_index < plan_len {
                seen[m.band_index] = true;
            }
        }
        seen.iter().filter(|s| **s).count()
    }
}

/// Internal event payloads.
enum Ev {
    /// Frame arrives at the responder (already survived loss).
    DeliverToResponder(Frame),
    /// Frame arrives at the initiator.
    DeliverToInitiator { frame: Frame, t_forward: Instant },
    /// Initiator timer.
    InitTimer(u32),
    /// Responder fail-safe poll.
    RespFailsafePoll,
    /// Responder completes a retune to plan index.
    RespRetuned(usize),
    /// Initiator completes a retune.
    InitRetuned(usize),
}

/// Runs one sweep starting at `start`, drawing loss randomness from `rng`.
pub fn run_sweep<R: Rng + ?Sized>(cfg: &SweepConfig, start: Instant, rng: &mut R) -> SweepResult {
    let plan_len = cfg.plan.len();
    let chan_of = {
        let plan = cfg.plan.clone();
        move |idx: usize| plan[idx.min(plan.len() - 1)].channel
    };

    let mut init = Initiator::new(cfg.protocol, plan_len);
    let mut resp = Responder::new(cfg.protocol);
    let mut q: EventQueue<Ev> = EventQueue::new();

    let mut result = SweepResult {
        started: start,
        finished: start,
        complete: false,
        measurements: Vec::new(),
        frames_sent: 0,
        frames_lost: 0,
        busy: Vec::new(),
    };

    // Radio band state: frames only get through when both radios sit on the
    // same plan index.
    let mut init_band = 0usize;
    let mut resp_band = 0usize;
    // The measure frame's forward-CSI timestamp, keyed by seq, so the ack
    // delivery can carry it back.
    let mut pending_forward: Option<(u16, Instant)> = None;

    // Helper: process initiator actions.
    // Implemented as a macro to borrow locals mutably without a closure.
    macro_rules! do_init_actions {
        ($actions:expr, $now:expr) => {
            for act in $actions {
                match act {
                    Action::Send { frame, delay } => {
                        let t_tx = $now + delay;
                        let air = cfg.medium.airtime(&frame);
                        result.frames_sent += 1;
                        result.busy.push((t_tx, t_tx + air));
                        let jam = cfg.band_loss.get(init_band).copied().unwrap_or(0.0);
                        let lost = cfg.medium.is_lost(rng)
                            || init_band != resp_band
                            || (jam > 0.0 && rng.gen::<f64>() < jam);
                        if lost {
                            result.frames_lost += 1;
                        } else {
                            q.schedule(t_tx + air, Ev::DeliverToResponder(frame));
                        }
                    }
                    Action::ArmTimer { at, token } => {
                        q.schedule(at, Ev::InitTimer(token));
                    }
                    Action::Retune { band_index } => {
                        q.schedule(
                            $now + cfg.medium.channel_switch,
                            Ev::InitRetuned(band_index),
                        );
                    }
                    Action::MeasurementDone {
                        band_index,
                        t_forward,
                        t_reverse,
                    } => {
                        result.measurements.push(MeasurementOp {
                            band_index,
                            t_forward,
                            t_reverse,
                        });
                    }
                    Action::SweepComplete => {
                        result.complete = true;
                    }
                    Action::Failsafe => {
                        // Initiator reverts to default band; sweep over.
                    }
                }
            }
        };
    }

    // Kick off.
    let first = init.start(start);
    do_init_actions!(first, start);
    q.schedule(start + cfg.protocol.failsafe, Ev::RespFailsafePoll);

    // Main loop.
    let hard_deadline = start + Duration::from_millis(2_000);
    while let Some((now, ev)) = q.pop() {
        if now > hard_deadline {
            break;
        }
        if init.is_done() || init.is_reverted() {
            result.finished = result.finished.max(now);
            break;
        }
        match ev {
            Ev::DeliverToResponder(frame) => {
                let seq = match &frame {
                    Frame::Measure { seq } | Frame::HopAdvert { seq, .. } => Some(*seq),
                    _ => None,
                };
                if let Some(s) = seq {
                    pending_forward = Some((s, now));
                }
                let actions = resp.on_frame(now, &frame);
                for act in actions {
                    match act {
                        ResponderAction::SendAck { seq } => {
                            let ack = Frame::Ack { seq };
                            let t_tx = now + cfg.medium.sifs;
                            let air = cfg.medium.airtime(&ack);
                            result.frames_sent += 1;
                            result.busy.push((t_tx, t_tx + air));
                            let jam = cfg.band_loss.get(init_band).copied().unwrap_or(0.0);
                            let lost = cfg.medium.is_lost(rng)
                                || init_band != resp_band
                                || (jam > 0.0 && rng.gen::<f64>() < jam);
                            if lost {
                                result.frames_lost += 1;
                            } else {
                                let t_forward = pending_forward
                                    .filter(|(s, _)| *s == seq)
                                    .map(|(_, t)| t)
                                    .unwrap_or(now);
                                q.schedule(
                                    t_tx + air,
                                    Ev::DeliverToInitiator {
                                        frame: ack,
                                        t_forward,
                                    },
                                );
                            }
                        }
                        ResponderAction::RetuneToChannel { channel } => {
                            if let Some(idx) = cfg.plan.iter().position(|b| b.channel == channel) {
                                // Retune after the ack leaves the air.
                                let t_done = now
                                    + cfg.medium.sifs
                                    + cfg.medium.airtime(&Frame::Ack { seq: 0 })
                                    + cfg.medium.channel_switch;
                                q.schedule(t_done, Ev::RespRetuned(idx));
                            }
                        }
                        ResponderAction::Failsafe => {}
                    }
                }
            }
            Ev::DeliverToInitiator { frame, t_forward } => {
                if let Frame::Ack { seq } = frame {
                    let actions = init.on_ack(now, seq, t_forward, &chan_of);
                    do_init_actions!(actions, now);
                    result.finished = now;
                }
            }
            Ev::InitTimer(token) => {
                let actions = init.on_timer(now, token);
                // Patch advert retransmissions: the FSM leaves channel 0 as
                // a placeholder for the driver to fill.
                let patched: Vec<Action> = actions
                    .into_iter()
                    .map(|a| match a {
                        Action::Send {
                            frame:
                                Frame::HopAdvert {
                                    seq,
                                    next_channel: 0,
                                    dwell_us,
                                },
                            delay,
                        } => Action::Send {
                            frame: Frame::HopAdvert {
                                seq,
                                next_channel: chan_of(init.advert_target()),
                                dwell_us,
                            },
                            delay,
                        },
                        other => other,
                    })
                    .collect();
                do_init_actions!(patched, now);
                result.finished = result.finished.max(now);
            }
            Ev::RespFailsafePoll => {
                let actions = resp.on_failsafe_check(now);
                if actions.contains(&ResponderAction::Failsafe) {
                    resp_band = 0;
                    resp.set_band_index(0);
                }
                if !resp.is_reverted() {
                    q.schedule(now + cfg.protocol.failsafe, Ev::RespFailsafePoll);
                }
            }
            Ev::RespRetuned(idx) => {
                resp_band = idx;
                resp.set_band_index(idx);
            }
            Ev::InitRetuned(idx) => {
                init_band = idx;
            }
        }
        if init.is_done() || init.is_reverted() {
            result.finished = result.finished.max(now);
            break;
        }
    }
    if result.finished < result.started {
        result.finished = result.started;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lossless_cfg() -> SweepConfig {
        let mut cfg = SweepConfig::standard();
        cfg.medium.loss_prob = 0.0;
        cfg
    }

    #[test]
    fn lossless_sweep_completes_all_bands() {
        let cfg = lossless_cfg();
        let mut rng = StdRng::seed_from_u64(1);
        let r = run_sweep(&cfg, Instant::ZERO, &mut rng);
        assert!(r.complete, "sweep did not complete");
        assert_eq!(r.bands_measured(cfg.plan.len()), 35);
        assert_eq!(
            r.measurements.len(),
            35 * cfg.protocol.measures_per_band as usize
        );
        assert_eq!(r.frames_lost, 0);
    }

    #[test]
    fn sweep_duration_near_84ms() {
        // Fig. 9(a): median hop time 84 ms across the 35 bands.
        let cfg = SweepConfig::standard();
        let mut rng = StdRng::seed_from_u64(2);
        let mut durations = Vec::new();
        for _ in 0..50 {
            let r = run_sweep(&cfg, Instant::ZERO, &mut rng);
            if r.complete {
                durations.push(r.duration().as_millis_f64());
            }
        }
        let med = chronos_math::stats::median(&durations);
        assert!((75.0..95.0).contains(&med), "median sweep {med} ms");
    }

    #[test]
    fn measurements_time_ordered_and_causal() {
        let cfg = lossless_cfg();
        let mut rng = StdRng::seed_from_u64(3);
        let r = run_sweep(&cfg, Instant::from_millis(5), &mut rng);
        for m in &r.measurements {
            assert!(m.t_forward < m.t_reverse, "ack before measure?");
        }
        for w in r.measurements.windows(2) {
            assert!(w[0].t_forward <= w[1].t_forward);
            assert!(w[0].band_index <= w[1].band_index);
        }
    }

    #[test]
    fn forward_reverse_gap_is_tens_of_microseconds() {
        // §7: forward and reverse CSI are captured "within short time
        // separations (tens of microseconds)".
        let cfg = lossless_cfg();
        let mut rng = StdRng::seed_from_u64(4);
        let r = run_sweep(&cfg, Instant::ZERO, &mut rng);
        for m in &r.measurements {
            let gap = m.t_reverse.saturating_since(m.t_forward);
            assert!(gap < Duration::from_micros(200), "gap {gap}");
        }
    }

    #[test]
    fn lossy_sweeps_take_longer_on_average() {
        let mut lossy = SweepConfig::standard();
        lossy.medium.loss_prob = 0.05;
        let clean = lossless_cfg();
        let mut rng = StdRng::seed_from_u64(5);
        let avg = |cfg: &SweepConfig, rng: &mut StdRng| {
            let mut total = 0.0;
            let mut n = 0;
            for _ in 0..30 {
                let r = run_sweep(cfg, Instant::ZERO, rng);
                if r.complete {
                    total += r.duration().as_millis_f64();
                    n += 1;
                }
            }
            total / n as f64
        };
        let t_clean = avg(&clean, &mut rng);
        let t_lossy = avg(&lossy, &mut rng);
        assert!(t_lossy > t_clean, "lossy {t_lossy} <= clean {t_clean}");
    }

    #[test]
    fn heavy_loss_triggers_failsafe_not_hang() {
        let mut cfg = SweepConfig::standard();
        cfg.medium.loss_prob = 0.9;
        let mut rng = StdRng::seed_from_u64(6);
        let r = run_sweep(&cfg, Instant::ZERO, &mut rng);
        assert!(!r.complete);
        // Bounded duration (no infinite loop).
        assert!(r.duration() < Duration::from_millis(2_100));
    }

    #[test]
    fn busy_intervals_cover_sweep() {
        let cfg = lossless_cfg();
        let mut rng = StdRng::seed_from_u64(7);
        let r = run_sweep(&cfg, Instant::ZERO, &mut rng);
        assert!(!r.busy.is_empty());
        // Busy time is a fraction of the sweep (gaps between packets), but
        // spans from near start to near finish.
        let first = r.busy.first().unwrap().0;
        let last = r.busy.last().unwrap().1;
        assert!(first.saturating_since(r.started) < Duration::from_millis(1));
        assert!(r.finished.saturating_since(last) < Duration::from_millis(5));
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = SweepConfig::standard();
        let r1 = run_sweep(&cfg, Instant::ZERO, &mut StdRng::seed_from_u64(42));
        let r2 = run_sweep(&cfg, Instant::ZERO, &mut StdRng::seed_from_u64(42));
        assert_eq!(r1.duration(), r2.duration());
        assert_eq!(r1.measurements.len(), r2.measurements.len());
        assert_eq!(r1.frames_lost, r2.frames_lost);
    }

    #[test]
    fn expected_duration_matches_simulated_sweeps() {
        // The analytic airtime model must land on the simulated lossless
        // sweep duration (it is the same timing arithmetic).
        let cfg = lossless_cfg();
        let mut rng = StdRng::seed_from_u64(21);
        let r = run_sweep(&cfg, Instant::ZERO, &mut rng);
        let predicted = cfg.expected_duration().as_millis_f64();
        let actual = r.duration().as_millis_f64();
        assert!(
            (predicted - actual).abs() / actual < 0.1,
            "predicted {predicted} ms vs simulated {actual} ms"
        );
        // And near the paper's 84 ms figure for the standard plan.
        assert!(
            (75.0..95.0).contains(&predicted),
            "predicted {predicted} ms"
        );
    }

    #[test]
    fn subset_plan_sweeps_scale_airtime_with_band_count() {
        let full = lossless_cfg();
        let mut sub = lossless_cfg();
        sub.plan.truncate(12);
        let ratio = sub.expected_duration().as_secs_f64() / full.expected_duration().as_secs_f64();
        assert!((ratio - 12.0 / 35.0).abs() < 1e-9, "ratio {ratio}");

        // The simulator agrees: a 12-band sweep takes about a third of a
        // 35-band sweep and still completes every band.
        let mut rng = StdRng::seed_from_u64(22);
        let r = run_sweep(&sub, Instant::ZERO, &mut rng);
        assert!(r.complete);
        assert_eq!(r.bands_measured(sub.plan.len()), 12);
        let sim_ratio = r.duration().as_secs_f64()
            / run_sweep(&full, Instant::ZERO, &mut rng)
                .duration()
                .as_secs_f64();
        assert!(
            (0.25..0.45).contains(&sim_ratio),
            "simulated ratio {sim_ratio}"
        );
    }

    #[test]
    fn zero_band_loss_vector_is_draw_free_identical() {
        // A band_loss vector of zeros must not perturb the RNG stream:
        // sweeps are bitwise identical to the empty-vector default.
        let base = SweepConfig::standard();
        let mut zeroed = SweepConfig::standard();
        zeroed.band_loss = vec![0.0; zeroed.plan.len()];
        let r1 = run_sweep(&base, Instant::ZERO, &mut StdRng::seed_from_u64(33));
        let r2 = run_sweep(&zeroed, Instant::ZERO, &mut StdRng::seed_from_u64(33));
        assert_eq!(r1.duration(), r2.duration());
        assert_eq!(r1.frames_lost, r2.frames_lost);
        assert_eq!(r1.measurements.len(), r2.measurements.len());
        for (a, b) in r1.measurements.iter().zip(r2.measurements.iter()) {
            assert_eq!(a.band_index, b.band_index);
            assert_eq!(a.t_forward, b.t_forward);
            assert_eq!(a.t_reverse, b.t_reverse);
        }
    }

    #[test]
    fn fully_jammed_plan_triggers_failsafe() {
        let mut cfg = lossless_cfg();
        cfg.band_loss = vec![0.95; cfg.plan.len()];
        let mut rng = StdRng::seed_from_u64(34);
        let r = run_sweep(&cfg, Instant::ZERO, &mut rng);
        assert!(!r.complete, "95% jam on every band still completed");
        assert!(r.frames_lost > 0);
        assert!(r.duration() < Duration::from_millis(2_100));
    }

    #[test]
    fn selective_jam_costs_frames_only_on_targeted_band() {
        // Jam only the final band: everything before it completes cleanly.
        let mut cfg = lossless_cfg();
        cfg.plan.truncate(8);
        cfg.band_loss = vec![0.0; 8];
        cfg.band_loss[7] = 0.95;
        let mut rng = StdRng::seed_from_u64(35);
        let r = run_sweep(&cfg, Instant::ZERO, &mut rng);
        assert!(r.frames_lost > 0, "jammed band lost nothing");
        assert!(
            r.bands_measured(cfg.plan.len()) >= 7,
            "clean bands were disrupted: {}",
            r.bands_measured(cfg.plan.len())
        );
    }

    #[test]
    fn sweeps_per_second_matches_paper() {
        // Paper §4: "sweeps all Wi-Fi bands in 84 ms (12 times per second)".
        let cfg = lossless_cfg();
        let mut rng = StdRng::seed_from_u64(8);
        let r = run_sweep(&cfg, Instant::ZERO, &mut rng);
        let per_second = 1000.0 / r.duration().as_millis_f64();
        assert!((10.0..14.0).contains(&per_second), "{per_second} sweeps/s");
    }
}
