//! The CSI measurement pipeline: from geometry and impairments to the
//! channel-state-information a driver hands to user space.
//!
//! One [`CsiCapture`] is what the Intel 5300 CSI Tool reports for one
//! received packet on one band and one antenna pair: 30 complex values,
//! one per reported subcarrier. The synthesizer corrupts the true channel
//! exactly the way §5–§7 of the paper describe:
//!
//! 1. true multipath channel per subcarrier frequency (Eq. 7);
//! 2. packet-detection delay rotating *baseband* frequencies
//!    (`e^{-j 2 pi (f_k - f_0) delta}`, Eq. 6) — zero at subcarrier 0;
//! 3. carrier-frequency-offset rotation at the capture timestamp (Eq. 11/12);
//! 4. device constant `kappa` and hardware group delay;
//! 5. additive complex Gaussian noise at the receiver's noise floor;
//! 6. the Intel 5300's 2.4 GHz phase quirk on the reported values.
//!
//! [`MeasurementContext::measure_pair`] produces the forward capture (at
//! the receiver, for the transmitter's packet) and the reverse capture (at
//! the transmitter, for the receiver's ACK) that Chronos's reciprocity
//! trick (§7) needs.
//!
//! Step 1 is the expensive one, and most of it repeats. The multipath
//! set of an antenna pair depends only on where the devices stand, so a
//! sweep enumerates one [`LinkPaths`] per receive antenna
//! ([`MeasurementContext::link_paths_into`]) and synthesizes every
//! exchange of that antenna from it ([`MeasurementContext::measure_link`]).
//! Within an exchange, the forward and reverse captures see the same
//! paths, band, layout and hardware delay, so the true channel is summed
//! once and both captures apply their own detection delay, rotation,
//! `kappa`, noise and quirk to it. The sum draws no randomness, so the
//! random stream, and every value, is what per-capture synthesis gives.
//! [`MeasurementContext::measure_pair_at`] is the one-exchange form: it
//! enumerates the pair's paths and runs the same synthesis.
//!
//! A device position with a non-finite coordinate has no path set. Its
//! captures come out non-finite, which the estimator rejects as a bad
//! capture, so such a link yields an error, never a range.

use crate::bands::Band;
use crate::cfo::CfoPair;
use crate::environment::{Attacker, Environment, PathEnumConfig};
use crate::geometry::Point;
use crate::hardware::{apply_quirk, DeviceModel};
use crate::noise::{complex_gaussian, SnrModel};
use crate::ofdm::{SubcarrierLayout, SUBCARRIER_SPACING_HZ};
use crate::propagation::PathSet;
use chronos_math::Complex64;
use rand::Rng;
use std::f64::consts::PI;

/// CSI for one packet on one band and one (tx antenna, rx antenna) pair.
#[derive(Debug, Clone)]
pub struct CsiCapture {
    /// The band this capture was taken on.
    pub band: Band,
    /// Which subcarriers `csi` covers.
    pub layout: SubcarrierLayout,
    /// Reported complex channel per subcarrier, same order as
    /// `layout.indices()`.
    pub csi: Vec<Complex64>,
    /// Capture timestamp in seconds (receiver clock).
    pub timestamp_s: f64,
    /// Ground truth, simulation-only: the detection delay this packet
    /// suffered (ns). The estimator must *not* read this; the harness uses
    /// it for Fig. 7(c).
    pub truth_detection_delay_ns: f64,
}

/// A forward/reverse CSI pair for one band and antenna pair, plus ground
/// truth for the harness.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Transmit antenna index on the initiating device.
    pub tx_antenna: usize,
    /// Receive antenna index on the responding device.
    pub rx_antenna: usize,
    /// CSI measured at the receiver for the transmitter's packet.
    pub forward: CsiCapture,
    /// CSI measured at the transmitter for the receiver's ACK.
    pub reverse: CsiCapture,
    /// Ground truth, simulation-only: true time-of-flight of the direct
    /// path for this antenna pair, ns.
    pub truth_tof_ns: f64,
    /// Ground truth: whether the link is line-of-sight.
    pub truth_los: bool,
}

/// Everything needed to synthesize measurements between two devices.
#[derive(Debug, Clone)]
pub struct MeasurementContext {
    /// The propagation environment.
    pub environment: Environment,
    /// Path enumeration settings.
    pub path_cfg: PathEnumConfig,
    /// Receiver noise model (shared by both ends).
    pub snr: SnrModel,
    /// The device initiating measurement (sends data packets).
    pub initiator: DeviceModel,
    /// Position of the initiator's array origin.
    pub initiator_pos: Point,
    /// The responding device (sends ACKs).
    pub responder: DeviceModel,
    /// Position of the responder's array origin.
    pub responder_pos: Point,
    /// ACK turnaround time, seconds (paper: "tens of microseconds").
    pub turnaround_s: f64,
    /// Jitter on the turnaround, seconds (uniform +-).
    pub turnaround_jitter_s: f64,
    /// Adversary attached to this link, if any. `None` (the default)
    /// leaves the honest synthesis bit-identical: ground truth is always
    /// computed from the clean path set before corruption applies.
    pub attacker: Option<Attacker>,
}

impl MeasurementContext {
    /// A context with the paper's defaults: 40 us turnaround +-5 us jitter.
    pub fn new(
        environment: Environment,
        initiator: DeviceModel,
        initiator_pos: Point,
        responder: DeviceModel,
        responder_pos: Point,
    ) -> Self {
        MeasurementContext {
            environment,
            path_cfg: PathEnumConfig::default(),
            snr: SnrModel::default(),
            initiator,
            initiator_pos,
            responder,
            responder_pos,
            turnaround_s: 40e-6,
            turnaround_jitter_s: 5e-6,
            attacker: None,
        }
    }

    /// The CFO pair between initiator (as tx) and responder (as rx).
    pub fn cfo(&self) -> CfoPair {
        CfoPair::new(self.initiator.oscillator_ppm, self.responder.oscillator_ppm)
    }

    /// World positions of the initiator's `tx_antenna` and the
    /// responder's `rx_antenna`.
    fn endpoints(&self, tx_antenna: usize, rx_antenna: usize) -> (Point, Point) {
        let tx = self
            .initiator_pos
            .add(self.initiator.antennas.positions()[tx_antenna]);
        let rx = self
            .responder_pos
            .add(self.responder.antennas.positions()[rx_antenna]);
        (tx, rx)
    }

    /// Propagation paths between a specific antenna pair (empty when an
    /// endpoint is not finite).
    pub fn paths_between(&self, tx_antenna: usize, rx_antenna: usize) -> PathSet {
        let (tx, rx) = self.endpoints(tx_antenna, rx_antenna);
        self.environment.paths(tx, rx, &self.path_cfg)
    }

    /// Whether the direct path between array origins is unobstructed.
    pub fn is_los(&self) -> bool {
        self.environment
            .is_los(self.initiator_pos, self.responder_pos)
    }

    /// Enumerates the paths of one antenna pair into `link`: the clean
    /// set and, when the attacker corrupts paths, the set the receivers
    /// measure. No allocation once `link` has held as many paths. The
    /// result holds until either device moves.
    pub fn link_paths_into(&self, tx_antenna: usize, rx_antenna: usize, link: &mut LinkPaths) {
        let (tx, rx) = self.endpoints(tx_antenna, rx_antenna);
        link.tx_antenna = tx_antenna;
        link.rx_antenna = rx_antenna;
        link.finite = tx.is_finite() && rx.is_finite();
        self.environment
            .paths_into(tx, rx, &self.path_cfg, &mut link.clean);
        // Ground truth always comes from the clean geometry; an attacker
        // corrupts only what the receivers *measure*.
        link.attacked = link.finite
            && self
                .attacker
                .as_ref()
                .is_some_and(|a| a.corrupt_paths_into(&link.clean, &mut link.corrupted));
    }

    /// Synthesizes the forward/reverse CSI pair for one packet exchange on
    /// `band` between the given antennas, at absolute time `t_s`. The
    /// reverse capture happens one (jittered) turnaround later.
    pub fn measure_pair<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        band: &Band,
        layout: &SubcarrierLayout,
        tx_antenna: usize,
        rx_antenna: usize,
        t_s: f64,
    ) -> Measurement {
        let jitter = if self.turnaround_jitter_s > 0.0 {
            rng.gen_range(-self.turnaround_jitter_s..self.turnaround_jitter_s)
        } else {
            0.0
        };
        let t_rev = t_s + (self.turnaround_s + jitter).max(1e-9);
        self.measure_pair_at(rng, band, layout, tx_antenna, rx_antenna, t_s, t_rev)
    }

    /// Like [`measure_pair`](Self::measure_pair) but with explicit capture
    /// timestamps for the forward and reverse directions — used when the
    /// link-layer simulation supplies the exact protocol timing.
    /// Enumerates the pair's paths, then runs
    /// [`measure_link`](Self::measure_link).
    #[allow(clippy::too_many_arguments)]
    pub fn measure_pair_at<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        band: &Band,
        layout: &SubcarrierLayout,
        tx_antenna: usize,
        rx_antenna: usize,
        t_forward_s: f64,
        t_reverse_s: f64,
    ) -> Measurement {
        let mut link = LinkPaths::default();
        self.link_paths_into(tx_antenna, rx_antenna, &mut link);
        self.measure_link(
            rng,
            band,
            layout,
            &link,
            self.is_los(),
            t_forward_s,
            t_reverse_s,
            None,
        )
    }

    /// Synthesizes one exchange on a link enumerated by
    /// [`link_paths_into`](Self::link_paths_into), with explicit capture
    /// timestamps and the link's line-of-sight flag (`truth_los`, ground
    /// truth for the harness). `recycled`, when given, is an earlier
    /// measurement whose buffers are overwritten instead of allocated;
    /// every field of the result is rewritten either way.
    #[allow(clippy::too_many_arguments)]
    pub fn measure_link<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        band: &Band,
        layout: &SubcarrierLayout,
        link: &LinkPaths,
        truth_los: bool,
        t_forward_s: f64,
        t_reverse_s: f64,
        recycled: Option<Measurement>,
    ) -> Measurement {
        let mut m = recycled.unwrap_or_else(|| Measurement {
            tx_antenna: link.tx_antenna,
            rx_antenna: link.rx_antenna,
            forward: CsiCapture::blank(band, layout),
            reverse: CsiCapture::blank(band, layout),
            truth_tof_ns: f64::NAN,
            truth_los,
        });
        let t_s = t_forward_s;
        // Jamming floors the effective SNR on targeted channels.
        let mut noise_sigma = self.snr.floor_sigma();
        if let Some(jam) = self
            .attacker
            .as_ref()
            .and_then(|a| a.jam_sigma(band.channel))
        {
            noise_sigma = noise_sigma.max(jam);
        }
        let cfo = self.cfo();

        // The true channel, once for both directions (reciprocity: same
        // path set). Hardware group delay: both chains contribute on both
        // directions.
        let hw_delay_ns = self.initiator.hw_delay_ns + self.responder.hw_delay_ns;
        true_channel_into(
            link.measured(),
            band,
            layout,
            hw_delay_ns,
            &mut m.forward.csi,
        );
        m.reverse.csi.clone_from(&m.forward.csi);

        // Forward capture: measured at the responder (acting as receiver).
        let delta_fwd = self.responder.detection_delay.sample(rng);
        impair_capture(
            rng,
            &mut m.forward,
            band,
            layout,
            delta_fwd,
            cfo.rotation_at_rx(band.center_hz, t_s),
            self.responder.kappa,
            noise_sigma,
            self.responder.quirk_for(band),
            t_s,
        );

        // Reverse capture: measured at the initiator for the ACK.
        let t_rev = t_reverse_s.max(t_s);
        let delta_rev = self.initiator.detection_delay.sample(rng);
        impair_capture(
            rng,
            &mut m.reverse,
            band,
            layout,
            delta_rev,
            cfo.rotation_at_tx(band.center_hz, t_rev),
            self.initiator.kappa,
            noise_sigma,
            self.initiator.quirk_for(band),
            t_rev,
        );

        m.tx_antenna = link.tx_antenna;
        m.rx_antenna = link.rx_antenna;
        m.truth_tof_ns = link.truth_tof_ns();
        m.truth_los = truth_los;
        m
    }
}

/// The propagation paths of one antenna pair while both devices hold
/// still: the clean set ground truth comes from, and the set the
/// receivers measure. Filled by [`MeasurementContext::link_paths_into`];
/// reusable, since a refill overwrites everything.
#[derive(Debug, Clone, Default)]
pub struct LinkPaths {
    tx_antenna: usize,
    rx_antenna: usize,
    /// Whether both endpoints were finite; no path set exists otherwise.
    finite: bool,
    clean: PathSet,
    /// Whether the attacker corrupted the paths into `corrupted`.
    attacked: bool,
    corrupted: PathSet,
}

impl LinkPaths {
    /// The path set the receivers measure: the attacker's corrupted set
    /// when the attack corrupts paths, the clean set otherwise, and
    /// `None` when an endpoint is not finite.
    fn measured(&self) -> Option<&PathSet> {
        match (self.finite, self.attacked) {
            (false, _) => None,
            (true, true) => Some(&self.corrupted),
            (true, false) => Some(&self.clean),
        }
    }

    /// True time-of-flight of the direct path, ns, from the clean set
    /// (NaN when there is no path).
    fn truth_tof_ns(&self) -> f64 {
        self.clean.true_tof_ns().unwrap_or(f64::NAN)
    }
}

impl CsiCapture {
    /// An empty capture on `band` with room for `layout`, for synthesis
    /// to fill.
    fn blank(band: &Band, layout: &SubcarrierLayout) -> Self {
        CsiCapture {
            band: *band,
            layout: layout.clone(),
            csi: Vec::with_capacity(layout.len()),
            timestamp_s: 0.0,
            truth_detection_delay_ns: 0.0,
        }
    }
}

/// The true channel per subcarrier into `out` (paper Eq. 7), including the
/// hardware group delay, which behaves exactly like extra distance. With
/// no path set (a non-finite endpoint) every value is NaN.
fn true_channel_into(
    paths: Option<&PathSet>,
    band: &Band,
    layout: &SubcarrierLayout,
    hw_delay_ns: f64,
    out: &mut Vec<Complex64>,
) {
    out.clear();
    let Some(paths) = paths else {
        out.resize(layout.len(), Complex64::new(f64::NAN, f64::NAN));
        return;
    };
    for &idx in layout.indices() {
        let f_k = layout.freq_of(band.center_hz, idx);
        let mut h = Complex64::ZERO;
        for p in paths.paths() {
            let tau_s = (p.delay_ns + hw_delay_ns) * 1e-9;
            h += Complex64::from_polar(p.amplitude, -2.0 * PI * f_k * tau_s);
        }
        out.push(h);
    }
}

/// Turns `capture.csi`, holding the true channel, into what the device
/// reports: detection delay + CFO + kappa + noise + quirk, in place. Sets
/// the capture's band, layout, timestamp and detection-delay truth.
#[allow(clippy::too_many_arguments)]
fn impair_capture<R: Rng + ?Sized>(
    rng: &mut R,
    capture: &mut CsiCapture,
    band: &Band,
    layout: &SubcarrierLayout,
    detection_delay_ns: f64,
    cfo_rotation: Complex64,
    kappa: Complex64,
    noise_sigma: f64,
    quirk: crate::hardware::PhaseQuirk,
    timestamp_s: f64,
) {
    for (v_out, &idx) in capture.csi.iter_mut().zip(layout.indices()) {
        // Detection delay rotates baseband frequencies (paper Eq. 6): the
        // term vanishes at subcarrier 0 by construction.
        let offset_hz = idx as f64 * SUBCARRIER_SPACING_HZ;
        let delta_phase = -2.0 * PI * offset_hz * (detection_delay_ns * 1e-9);
        let mut v = *v_out * Complex64::cis(delta_phase);
        // CFO rotation and device constant.
        v = v * cfo_rotation * kappa;
        // Receiver noise.
        v += complex_gaussian(rng, noise_sigma);
        // Firmware phase quirk on the reported value.
        *v_out = apply_quirk(v, quirk);
    }
    capture.band = *band;
    capture.layout.clone_from(layout);
    capture.timestamp_s = timestamp_s;
    capture.truth_detection_delay_ns = detection_delay_ns;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bands::{band_by_channel, band_plan};
    use crate::hardware::{ideal_device, AntennaArray, Intel5300};
    use chronos_math::constants::m_to_ns;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One capture synthesized from scratch: the true channel of `paths`,
    /// then the impairments.
    #[allow(clippy::too_many_arguments)]
    fn synthesize_capture(
        rng: &mut StdRng,
        band: &Band,
        layout: &SubcarrierLayout,
        paths: &PathSet,
        hw_delay_ns: f64,
        detection_delay_ns: f64,
        cfo_rotation: Complex64,
        kappa: Complex64,
        noise_sigma: f64,
        quirk: crate::hardware::PhaseQuirk,
        timestamp_s: f64,
    ) -> CsiCapture {
        let mut capture = CsiCapture::blank(band, layout);
        true_channel_into(Some(paths), band, layout, hw_delay_ns, &mut capture.csi);
        impair_capture(
            rng,
            &mut capture,
            band,
            layout,
            detection_delay_ns,
            cfo_rotation,
            kappa,
            noise_sigma,
            quirk,
            timestamp_s,
        );
        capture
    }

    fn ideal_ctx(d: f64) -> MeasurementContext {
        let mut ctx = MeasurementContext::new(
            Environment::free_space(),
            ideal_device(AntennaArray::single()),
            Point::new(0.0, 0.0),
            ideal_device(AntennaArray::single()),
            Point::new(d, 0.0),
        );
        // Noiseless for deterministic tests.
        ctx.snr.snr_at_1m_db = 300.0;
        ctx.turnaround_jitter_s = 0.0;
        ctx
    }

    #[test]
    fn ideal_single_path_phase_encodes_tof() {
        let mut rng = StdRng::seed_from_u64(1);
        let ctx = ideal_ctx(0.6);
        let band = band_by_channel(36).unwrap();
        let layout = SubcarrierLayout::intel5300();
        let m = ctx.measure_pair(&mut rng, &band, &layout, 0, 0, 0.0);
        assert!((m.truth_tof_ns - m_to_ns(0.6)).abs() < 1e-9);
        // With an ideal device at t=0, the subcarrier-0-adjacent phase
        // should be close to -2 pi f tau (modulo 2 pi). Use subcarrier -1.
        let k = m
            .forward
            .layout
            .indices()
            .iter()
            .position(|i| *i == -1)
            .unwrap();
        let f = layout.freq_of(band.center_hz, -1);
        let expected =
            -2.0 * PI * f * (m.truth_tof_ns * 1e-9 + m.forward.truth_detection_delay_ns * 0.0);
        let got = m.forward.csi[k].arg();
        let want = chronos_math::unwrap::wrap_to_pi(expected + 2.0 * PI * 312_500.0 * 0.0);
        assert!(
            chronos_math::unwrap::angular_distance(got, want) < 1e-6,
            "got {got} want {want}"
        );
    }

    #[test]
    fn detection_delay_vanishes_at_zero_subcarrier_limit() {
        // Compare captures with and without detection delay on symmetric
        // subcarriers +-1: the *mean* phase equals the delay-free phase at
        // subcarrier 0 to first order.
        let mut rng = StdRng::seed_from_u64(2);
        let ctx = ideal_ctx(3.0);
        let band = band_by_channel(44).unwrap();
        let layout = SubcarrierLayout::intel5300();
        let paths = ctx.paths_between(0, 0);
        let clean = synthesize_capture(
            &mut rng,
            &band,
            &layout,
            &paths,
            0.0,
            0.0,
            Complex64::ONE,
            Complex64::ONE,
            0.0,
            crate::hardware::PhaseQuirk::None,
            0.0,
        );
        let delayed = synthesize_capture(
            &mut rng,
            &band,
            &layout,
            &paths,
            0.0,
            200.0,
            Complex64::ONE,
            Complex64::ONE,
            0.0,
            crate::hardware::PhaseQuirk::None,
            0.0,
        );
        let i_m1 = layout.indices().iter().position(|i| *i == -1).unwrap();
        let i_p1 = layout.indices().iter().position(|i| *i == 1).unwrap();
        let mean_delayed = (delayed.csi[i_m1].arg() + delayed.csi[i_p1].arg()) / 2.0;
        let mean_clean = (clean.csi[i_m1].arg() + clean.csi[i_p1].arg()) / 2.0;
        assert!(
            chronos_math::unwrap::angular_distance(mean_delayed, mean_clean) < 1e-6,
            "delay leaked into the zero-subcarrier midpoint"
        );
        // And it must NOT vanish away from the center.
        let i_edge = layout.indices().iter().position(|i| *i == 28).unwrap();
        assert!(
            chronos_math::unwrap::angular_distance(
                delayed.csi[i_edge].arg(),
                clean.csi[i_edge].arg()
            ) > 0.1,
            "delay had no effect at band edge"
        );
    }

    #[test]
    fn detection_delay_slope_matches_model() {
        // Phase slope across baseband frequency = -2 pi * (tau + delta)...
        // relative to the clean capture the extra slope is exactly delta.
        let mut rng = StdRng::seed_from_u64(3);
        let ctx = ideal_ctx(2.0);
        let band = band_by_channel(100).unwrap();
        let layout = SubcarrierLayout::full();
        let paths = ctx.paths_between(0, 0);
        let delta_ns = 150.0;
        let clean = synthesize_capture(
            &mut rng,
            &band,
            &layout,
            &paths,
            0.0,
            0.0,
            Complex64::ONE,
            Complex64::ONE,
            0.0,
            crate::hardware::PhaseQuirk::None,
            0.0,
        );
        let delayed = synthesize_capture(
            &mut rng,
            &band,
            &layout,
            &paths,
            0.0,
            delta_ns,
            Complex64::ONE,
            Complex64::ONE,
            0.0,
            crate::hardware::PhaseQuirk::None,
            0.0,
        );
        // Phase difference per subcarrier index step of 1:
        let diffs: Vec<f64> = clean
            .csi
            .iter()
            .zip(delayed.csi.iter())
            .map(|(c, d)| (*d * c.conj()).arg())
            .collect();
        let mut un = diffs.clone();
        chronos_math::unwrap::unwrap_in_place(&mut un);
        let slope = (un.last().unwrap() - un.first().unwrap())
            / (layout.indices().last().unwrap() - layout.indices().first().unwrap()) as f64;
        let expected = -2.0 * PI * 312_500.0 * delta_ns * 1e-9;
        assert!(
            (slope - expected).abs() < 1e-6,
            "slope {slope} expected {expected}"
        );
    }

    #[test]
    fn reciprocity_product_cancels_cfo() {
        // With zero turnaround, forward x reverse has no CFO rotation.
        let mut rng = StdRng::seed_from_u64(4);
        let mut ctx = ideal_ctx(1.0);
        ctx.initiator.oscillator_ppm = 9.0;
        ctx.responder.oscillator_ppm = -3.0;
        ctx.turnaround_s = 1e-9; // effectively simultaneous
        let band = band_by_channel(40).unwrap();
        let layout = SubcarrierLayout::intel5300();
        // Large t so uncompensated CFO would be catastrophic.
        let m = ctx.measure_pair(&mut rng, &band, &layout, 0, 0, 2.5);
        let k = 14; // subcarrier -1
        let product = m.forward.csi[k] * m.reverse.csi[k];
        // Expected: (h_k)^2 — phase of product should match channel model.
        let paths = ctx.paths_between(0, 0);
        let f = layout.freq_of(band.center_hz, -1);
        let h = paths.channel_at(f);
        let expected = (h * h).arg();
        assert!(
            chronos_math::unwrap::angular_distance(product.arg(), expected) < 1e-3,
            "product {} expected {}",
            product.arg(),
            expected
        );
    }

    #[test]
    fn quirk_applied_only_on_24ghz() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ctx = ideal_ctx(2.0);
        ctx.initiator = Intel5300::mobile(&mut rng);
        ctx.responder = Intel5300::laptop(&mut rng);
        ctx.snr.snr_at_1m_db = 300.0;
        let layout = SubcarrierLayout::intel5300();
        let b24 = band_by_channel(6).unwrap();
        let b5 = band_by_channel(64).unwrap();
        let m24 = ctx.measure_pair(&mut rng, &b24, &layout, 0, 0, 0.0);
        let m5 = ctx.measure_pair(&mut rng, &b5, &layout, 0, 0, 0.0);
        // All reported 2.4 GHz phases land in [0, pi/2).
        for z in &m24.forward.csi {
            let a = z.arg();
            assert!(
                (0.0..std::f64::consts::FRAC_PI_2 + 1e-9).contains(&a),
                "phase {a}"
            );
        }
        // 5 GHz phases span the full circle.
        let any_negative = m5.forward.csi.iter().any(|z| z.arg() < 0.0);
        assert!(any_negative, "5 GHz phases suspiciously confined");
    }

    #[test]
    fn noise_scales_with_distance() {
        // Variance of CSI across repeated packets grows with distance.
        let spread = |d: f64| {
            let mut rng = StdRng::seed_from_u64(6);
            let mut ctx = ideal_ctx(d);
            ctx.snr = SnrModel::default();
            let band = band_by_channel(36).unwrap();
            let layout = SubcarrierLayout::intel5300();
            let mut vals = Vec::new();
            for i in 0..50 {
                let m = ctx.measure_pair(&mut rng, &band, &layout, 0, 0, i as f64 * 1e-3);
                vals.push(m.forward.csi[0]);
            }
            let mean = vals.iter().fold(Complex64::ZERO, |a, b| a + *b) / vals.len() as f64;
            // Relative spread: absolute noise is constant, signal shrinks.
            (vals.iter().map(|v| (*v - mean).norm_sq()).sum::<f64>() / vals.len() as f64).sqrt()
                / mean.abs()
        };
        assert!(
            spread(12.0) > spread(1.0),
            "noise did not grow with distance"
        );
    }

    #[test]
    fn full_sweep_produces_35_measurements() {
        let mut rng = StdRng::seed_from_u64(7);
        let ctx = ideal_ctx(5.0);
        let layout = SubcarrierLayout::intel5300();
        let all: Vec<Measurement> = band_plan()
            .iter()
            .map(|b| ctx.measure_pair(&mut rng, b, &layout, 0, 0, 0.0))
            .collect();
        assert_eq!(all.len(), 35);
        assert!(all.iter().all(|m| m.forward.csi.len() == 30));
        assert!(all.iter().all(|m| m.truth_tof_ns > 0.0));
    }

    #[test]
    fn nlos_flag_reflects_environment() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut env = Environment::free_space();
        env.add_wall(
            crate::geometry::Segment::new(Point::new(1.0, -2.0), Point::new(1.0, 2.0)),
            crate::environment::Material::Concrete,
        );
        let ctx = MeasurementContext::new(
            env,
            ideal_device(AntennaArray::single()),
            Point::new(0.0, 0.0),
            ideal_device(AntennaArray::single()),
            Point::new(2.0, 0.0),
        );
        let band = band_by_channel(36).unwrap();
        let layout = SubcarrierLayout::intel5300();
        let m = ctx.measure_pair(&mut rng, &band, &layout, 0, 0, 0.0);
        assert!(!m.truth_los);
    }

    #[test]
    fn replay_attacker_spoofs_apparent_tof_but_not_truth() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut ctx = ideal_ctx(3.0);
        ctx.attacker = Some(crate::environment::Attacker::ReplayOffset {
            extra_delay_ns: 10.0,
        });
        let band = band_by_channel(48).unwrap();
        let layout = SubcarrierLayout::full();
        let m = ctx.measure_pair(&mut rng, &band, &layout, 0, 0, 0.0);
        // Ground truth is the clean geometry...
        assert!((m.truth_tof_ns - m_to_ns(3.0)).abs() < 1e-9);
        // ...but the measured phase slope encodes truth + 10 ns.
        let phases: Vec<f64> = m.forward.csi.iter().map(|z| z.arg()).collect();
        let mut un = phases.clone();
        chronos_math::unwrap::unwrap_in_place(&mut un);
        let slope = (un.last().unwrap() - un.first().unwrap()) / (56.0 * 312_500.0);
        let tau_apparent_ns = -slope / (2.0 * PI) * 1e9;
        assert!(
            (tau_apparent_ns - (m.truth_tof_ns + 10.0)).abs() < 0.2,
            "{tau_apparent_ns} vs {}",
            m.truth_tof_ns + 10.0
        );
    }

    #[test]
    fn jam_corrupts_only_targeted_bands() {
        let clean_ctx = ideal_ctx(2.0);
        let mut jam_ctx = ideal_ctx(2.0);
        jam_ctx.attacker = Some(crate::environment::Attacker::BandJam {
            bands: vec![36],
            snr_floor_db: 5.0,
        });
        let layout = SubcarrierLayout::intel5300();
        let capture = |ctx: &MeasurementContext, ch: u16| {
            let mut rng = StdRng::seed_from_u64(11);
            let band = band_by_channel(ch).unwrap();
            ctx.measure_pair(&mut rng, &band, &layout, 0, 0, 0.0)
        };
        // The jammed band is noisy even though the context is noiseless.
        let bits = |m: &Measurement| -> Vec<(u64, u64)> {
            m.forward
                .csi
                .iter()
                .chain(m.reverse.csi.iter())
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect()
        };
        assert_ne!(bits(&capture(&jam_ctx, 36)), bits(&capture(&clean_ctx, 36)));
        // An untargeted band is bit-identical to the honest context: the
        // attacker machinery draws no extra randomness off-target.
        assert_eq!(bits(&capture(&jam_ctx, 44)), bits(&capture(&clean_ctx, 44)));
    }

    #[test]
    fn inject_attacker_plants_phantom_early_path() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut ctx = ideal_ctx(6.0); // truth ~20 ns
        ctx.attacker = Some(crate::environment::Attacker::CsiInject {
            forged_profile: crate::propagation::PathSet::single(5.0, 3.0),
        });
        let band = band_by_channel(100).unwrap();
        let layout = SubcarrierLayout::full();
        let m = ctx.measure_pair(&mut rng, &band, &layout, 0, 0, 0.0);
        assert!((m.truth_tof_ns - m_to_ns(6.0)).abs() < 1e-9);
        // The forged 5 ns path dominates: the apparent slope tracks it,
        // not the 20 ns truth.
        let phases: Vec<f64> = m.forward.csi.iter().map(|z| z.arg()).collect();
        let mut un = phases.clone();
        chronos_math::unwrap::unwrap_in_place(&mut un);
        let slope = (un.last().unwrap() - un.first().unwrap()) / (56.0 * 312_500.0);
        let tau_apparent_ns = -slope / (2.0 * PI) * 1e9;
        assert!(
            (tau_apparent_ns - 5.0).abs() < 2.0,
            "apparent {tau_apparent_ns} should hug the forged 5 ns path"
        );
    }

    #[test]
    fn hw_delay_shifts_apparent_tof() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut ctx = ideal_ctx(3.0);
        ctx.initiator.hw_delay_ns = 4.0;
        ctx.responder.hw_delay_ns = 2.0;
        let band = band_by_channel(48).unwrap();
        let layout = SubcarrierLayout::full();
        let m = ctx.measure_pair(&mut rng, &band, &layout, 0, 0, 0.0);
        // Slope of forward phase across passband frequency encodes
        // tau + hw_delay (6 ns extra).
        let phases: Vec<f64> = m.forward.csi.iter().map(|z| z.arg()).collect();
        let mut un = phases.clone();
        chronos_math::unwrap::unwrap_in_place(&mut un);
        let df = 312_500.0;
        // Index span of the full layout is -28..28 = 56 subcarrier steps.
        let slope = (un.last().unwrap() - un.first().unwrap()) / (56.0 * df);
        let tau_apparent_ns = -slope / (2.0 * PI) * 1e9;
        let expected = m.truth_tof_ns + 6.0;
        assert!(
            (tau_apparent_ns - expected).abs() < 0.2,
            "{tau_apparent_ns} vs {expected}"
        );
    }

    fn bits(m: &Measurement) -> Vec<u64> {
        let mut out = vec![
            m.tx_antenna as u64,
            m.rx_antenna as u64,
            m.truth_tof_ns.to_bits(),
            m.truth_los as u64,
        ];
        for c in [&m.forward, &m.reverse] {
            out.extend([
                c.band.channel as u64,
                c.timestamp_s.to_bits(),
                c.truth_detection_delay_ns.to_bits(),
            ]);
            out.extend(c.layout.indices().iter().map(|k| *k as u64));
            out.extend(c.csi.iter().flat_map(|z| [z.re.to_bits(), z.im.to_bits()]));
        }
        out
    }

    /// A sweep's reuse — one `LinkPaths` per antenna pair, measurements
    /// recycled across bands and layouts — gives the bits (and leaves the
    /// random stream where) the one-exchange call does, on a multipath
    /// floor, honest and under every attacker.
    #[test]
    fn reused_link_and_recycled_measurement_match_measure_pair_at() {
        let floor = crate::testbed::Testbed::office(3);
        let attackers = [
            None,
            Some(crate::environment::Attacker::ReplayOffset {
                extra_delay_ns: 7.5,
            }),
            Some(crate::environment::Attacker::CsiInject {
                forged_profile: PathSet::new(vec![
                    crate::propagation::Path::new(4.0, 0.3),
                    crate::propagation::Path::new(9.0, 0.2),
                ]),
            }),
            Some(crate::environment::Attacker::BandJam {
                bands: vec![36, 6],
                snr_floor_db: 8.0,
            }),
        ];
        let mut dev_rng = StdRng::seed_from_u64(21);
        let mut ctx = MeasurementContext::new(
            floor.environment.clone(),
            Intel5300::mobile(&mut dev_rng),
            floor.locations[0],
            Intel5300::laptop(&mut dev_rng),
            floor.locations[7],
        );
        let layouts = [SubcarrierLayout::intel5300(), SubcarrierLayout::full()];
        for attacker in attackers {
            ctx.attacker = attacker;
            let mut links = vec![LinkPaths::default(); 3];
            let mut recycled: Option<Measurement> = None;
            let mut rng_a = StdRng::seed_from_u64(5);
            let mut rng_b = StdRng::seed_from_u64(5);
            for (i, band) in band_plan().iter().enumerate() {
                let antenna = i % 3;
                let layout = &layouts[i % 2];
                let (t_f, t_r) = (0.01 * i as f64, 0.01 * i as f64 + 4e-5);
                ctx.link_paths_into(0, antenna, &mut links[antenna]);
                let want = ctx.measure_pair_at(&mut rng_a, band, layout, 0, antenna, t_f, t_r);
                let got = ctx.measure_link(
                    &mut rng_b,
                    band,
                    layout,
                    &links[antenna],
                    ctx.is_los(),
                    t_f,
                    t_r,
                    recycled.take(),
                );
                assert_eq!(bits(&got), bits(&want), "band {}", band.channel);
                assert!(got.forward.csi.iter().all(|z| z.is_finite()));
                recycled = Some(got);
            }
            assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
        }
    }

    /// A non-finite device position has no path set: every CSI value is
    /// non-finite (which the estimator rejects), the truth is NaN, and
    /// nothing panics.
    #[test]
    fn non_finite_endpoint_yields_non_finite_csi() {
        let band = band_by_channel(40).unwrap();
        let layout = SubcarrierLayout::intel5300();
        let mut env = Environment::free_space();
        env.add_room(-5.0, -5.0, 5.0, 5.0, crate::environment::Material::Concrete);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for initiator in [true, false] {
                let mut ctx = ideal_ctx(2.0);
                ctx.environment = env.clone();
                if initiator {
                    ctx.initiator_pos.x = bad;
                } else {
                    ctx.responder_pos.y = bad;
                }
                assert!(ctx.paths_between(0, 0).is_empty());
                let mut rng = StdRng::seed_from_u64(9);
                let m = ctx.measure_pair(&mut rng, &band, &layout, 0, 0, 0.0);
                assert!(m.truth_tof_ns.is_nan());
                for c in [&m.forward, &m.reverse] {
                    assert_eq!(c.csi.len(), layout.len());
                    assert!(c.csi.iter().all(|z| !z.is_finite()), "{bad} {initiator}");
                }
            }
        }
    }
}
