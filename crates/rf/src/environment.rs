//! Indoor environments and image-method multipath enumeration.
//!
//! An [`Environment`] is a set of reflecting surfaces (walls, partitions,
//! metal cabinets) plus optional attenuating obstructions. Given transmitter
//! and receiver positions it enumerates propagation paths:
//!
//! * the direct (line-of-sight) path, attenuated if obstructed;
//! * first-order specular reflections via the image method;
//! * optional second-order reflections (image of an image).
//!
//! Each path carries a geometric length and a cumulative amplitude factor;
//! [`crate::propagation`] turns them into delays and channel responses.

use crate::bands::Band;
use crate::geometry::{Point, Segment};
use crate::propagation::{Path, PathSet};

/// Reflectivity classes for surfaces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Material {
    /// Drywall / office partition: moderate reflection, passes some energy.
    Drywall,
    /// Concrete / brick outer wall: strong reflector, heavy through-loss.
    Concrete,
    /// Metal (cabinets, whiteboards): near-perfect reflector, opaque.
    Metal,
    /// Glass: weak reflector, mostly transparent.
    Glass,
}

impl Material {
    /// Amplitude reflection coefficient (fraction of field that stays
    /// *specular* on reflection). Values are at the conservative end of
    /// indoor measurements: rough surfaces scatter a large share of the
    /// incident energy diffusely, which never reaches the receiver as a
    /// coherent ray.
    pub fn reflectivity(self) -> f64 {
        match self {
            Material::Drywall => 0.4,
            Material::Concrete => 0.5,
            Material::Metal => 0.85,
            Material::Glass => 0.25,
        }
    }

    /// Amplitude transmission coefficient (fraction of field passing
    /// through the surface) — used for obstruction of the direct path.
    pub fn transmissivity(self) -> f64 {
        match self {
            Material::Drywall => 0.6,
            Material::Concrete => 0.25,
            Material::Metal => 0.05,
            Material::Glass => 0.85,
        }
    }
}

/// A reflecting/attenuating surface in the environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wall {
    /// The surface geometry.
    pub segment: Segment,
    /// The surface material.
    pub material: Material,
}

/// A 2-D indoor environment.
#[derive(Debug, Clone, Default)]
pub struct Environment {
    walls: Vec<Wall>,
}

/// Knobs for path enumeration.
#[derive(Debug, Clone, Copy)]
pub struct PathEnumConfig {
    /// Include second-order (double-bounce) reflections.
    pub second_order: bool,
    /// Extra amplitude factor applied to second-order paths on top of the
    /// two reflection coefficients: each extra bounce loses coherence to
    /// diffuse scattering and beam spreading beyond the image-method
    /// idealization. Keeps long double-bounce paths (which alias in the
    /// 200 ns-periodic NDFT measurement) at physically plausible strength.
    pub second_order_loss: f64,
    /// Drop paths whose amplitude falls below this fraction of the direct
    /// free-space amplitude at 1 m. Keeps path sets sparse, matching the
    /// paper's observation that few paths dominate indoors (§6.2).
    pub amplitude_floor: f64,
    /// Maximum number of paths retained (strongest first, but the direct
    /// path is always kept if it exists).
    pub max_paths: usize,
}

impl Default for PathEnumConfig {
    fn default() -> Self {
        PathEnumConfig {
            second_order: true,
            second_order_loss: 0.35,
            amplitude_floor: 1e-4,
            max_paths: 12,
        }
    }
}

impl Environment {
    /// An empty environment (free space): only the direct path exists.
    pub fn free_space() -> Self {
        Environment { walls: Vec::new() }
    }

    /// Creates an environment from walls.
    pub fn new(walls: Vec<Wall>) -> Self {
        Environment { walls }
    }

    /// Adds a wall.
    pub fn add_wall(&mut self, segment: Segment, material: Material) {
        self.walls.push(Wall { segment, material });
    }

    /// Adds the four walls of an axis-aligned rectangular room.
    pub fn add_room(&mut self, x0: f64, y0: f64, x1: f64, y1: f64, material: Material) {
        let c = [
            Point::new(x0, y0),
            Point::new(x1, y0),
            Point::new(x1, y1),
            Point::new(x0, y1),
        ];
        for i in 0..4 {
            self.add_wall(Segment::new(c[i], c[(i + 1) % 4]), material);
        }
    }

    /// The walls of this environment.
    pub fn walls(&self) -> &[Wall] {
        &self.walls
    }

    /// Cumulative transmissivity of every wall crossing the open segment
    /// `p -> q`. 1.0 when unobstructed.
    pub fn through_loss(&self, p: Point, q: Point) -> f64 {
        let mut t = 1.0;
        for w in &self.walls {
            if w.segment.blocks(p, q, 1e-9) {
                t *= w.material.transmissivity();
            }
        }
        t
    }

    /// Whether `p` and `q` are in line of sight (no wall crossing).
    pub fn is_los(&self, p: Point, q: Point) -> bool {
        self.walls.iter().all(|w| !w.segment.blocks(p, q, 1e-9))
    }

    /// Line-of-sight mask from `p` to each point of `qs` — one flag per
    /// receive antenna when `qs` are array positions. Localization
    /// scenarios use this to count how many of an AP's antennas a walker
    /// is obstructed from (the NLOS degradation observable).
    pub fn los_mask(&self, p: Point, qs: &[Point]) -> Vec<bool> {
        qs.iter().map(|q| self.is_los(p, *q)).collect()
    }

    /// Enumerates propagation paths from `tx` to `rx`.
    ///
    /// Amplitudes follow a free-space 1/d law scaled by reflection and
    /// through-wall coefficients, normalized so a 1 m unobstructed path has
    /// amplitude 1. Paths are returned sorted by ascending delay. Points
    /// with a non-finite coordinate have no paths: the set is empty.
    pub fn paths(&self, tx: Point, rx: Point, cfg: &PathEnumConfig) -> PathSet {
        let mut out = PathSet::default();
        self.paths_into(tx, rx, cfg, &mut out);
        out
    }

    /// [`Environment::paths`] into a reused set: no allocation once `out`
    /// has held `cfg.max_paths` paths.
    ///
    /// The direct path is kept when it clears the amplitude floor; of the
    /// reflections that clear it, the strongest `max_paths - 1` are kept,
    /// the first enumerated winning a tie (the order a stable sort by
    /// amplitude gives). They are selected into `out` as they are
    /// enumerated, with no candidate list, and the set is then sorted by
    /// delay.
    pub fn paths_into(&self, tx: Point, rx: Point, cfg: &PathEnumConfig, out: &mut PathSet) {
        let all = out.paths_mut();
        all.clear();
        if !(tx.is_finite() && rx.is_finite()) {
            return;
        }
        all.reserve(cfg.max_paths.max(1));

        // Direct path (always geometrically present; may be attenuated).
        let d_direct = tx.dist(rx).max(1e-6);
        let amp_direct = self.through_loss(tx, rx) / d_direct;
        let direct = Path::from_length(d_direct, amp_direct);
        if direct.amplitude >= cfg.amplitude_floor {
            all.push(direct);
        }
        let first = all.len();
        let keep = cfg.max_paths.saturating_sub(1);
        // Cull as we go: drop sub-floor reflections and keep the `keep`
        // strongest, strongest first, a newcomer going after every kept
        // path at least as strong.
        let mut offer = |p: Path| {
            if p.amplitude >= cfg.amplitude_floor {
                let rank = all[first..].partition_point(|q| q.amplitude >= p.amplitude);
                if rank < keep {
                    if all.len() - first == keep {
                        all.pop();
                    }
                    all.insert(first + rank, p);
                }
            }
        };

        // First-order reflections.
        for (wi, w) in self.walls.iter().enumerate() {
            if let Some(p) = self.first_order_path(tx, rx, w) {
                offer(p);
            }
            // Second-order: mirror tx across wall wi, then across wall wj.
            if cfg.second_order {
                for (wj, w2) in self.walls.iter().enumerate() {
                    if wi == wj {
                        continue;
                    }
                    if let Some(mut p) = self.second_order_path(tx, rx, w, w2) {
                        p.amplitude *= cfg.second_order_loss;
                        offer(p);
                    }
                }
            }
        }
        out.sort_by_delay();
    }

    /// Single-bounce path off wall `w`, if the reflection point lies on the
    /// wall and both legs are clear of *other* walls (other walls attenuate
    /// via through-loss rather than blocking entirely).
    fn first_order_path(&self, tx: Point, rx: Point, w: &Wall) -> Option<Path> {
        let img = w.segment.mirror(tx);
        let hit = w.segment.intersect(&Segment::new(img, rx))?;
        // Degenerate reflections at the endpoints of the wall are dropped.
        if hit.dist(w.segment.a) < 1e-9 || hit.dist(w.segment.b) < 1e-9 {
            return None;
        }
        let length = tx.dist(hit) + hit.dist(rx);
        if length < 1e-6 {
            return None;
        }
        let mut amp = w.material.reflectivity() / length;
        amp *= self.through_loss_excluding(tx, hit, w);
        amp *= self.through_loss_excluding(hit, rx, w);
        Some(Path::from_length(length, amp))
    }

    /// Double-bounce path: tx -> w1 -> w2 -> rx via iterated images.
    fn second_order_path(&self, tx: Point, rx: Point, w1: &Wall, w2: &Wall) -> Option<Path> {
        let img1 = w1.segment.mirror(tx);
        let img2 = w2.segment.mirror(img1);
        let hit2 = w2.segment.intersect(&Segment::new(img2, rx))?;
        if hit2.dist(w2.segment.a) < 1e-9 || hit2.dist(w2.segment.b) < 1e-9 {
            return None;
        }
        let hit1 = w1.segment.intersect(&Segment::new(img1, hit2))?;
        if hit1.dist(w1.segment.a) < 1e-9 || hit1.dist(w1.segment.b) < 1e-9 {
            return None;
        }
        let length = tx.dist(hit1) + hit1.dist(hit2) + hit2.dist(rx);
        if length < 1e-6 {
            return None;
        }
        let mut amp = w1.material.reflectivity() * w2.material.reflectivity() / length;
        amp *= self.through_loss_excluding(tx, hit1, w1);
        amp *= self.through_loss_excluding2(hit1, hit2, w1, w2);
        amp *= self.through_loss_excluding(hit2, rx, w2);
        Some(Path::from_length(length, amp))
    }

    fn through_loss_excluding(&self, p: Point, q: Point, skip: &Wall) -> f64 {
        let mut t = 1.0;
        for w in &self.walls {
            if std::ptr::eq(w, skip) || w == skip {
                continue;
            }
            if w.segment.blocks(p, q, 1e-9) {
                t *= w.material.transmissivity();
            }
        }
        t
    }

    fn through_loss_excluding2(&self, p: Point, q: Point, s1: &Wall, s2: &Wall) -> f64 {
        let mut t = 1.0;
        for w in &self.walls {
            if w == s1 || w == s2 {
                continue;
            }
            if w.segment.blocks(p, q, 1e-9) {
                t *= w.material.transmissivity();
            }
        }
        t
    }
}

/// An adversary attached to a measurement link.
///
/// Chronos-style ToF ranging faces three classic RF attacks (see
/// `docs/ADVERSARIAL.md`): distance spoofing via delayed replay, CSI
/// injection, and selective jamming. An `Attacker` composes with the
/// honest channel synthesis in [`crate::csi::MeasurementContext`]: replay
/// and injection corrupt the *measured* path set (ground truth stays
/// clean), jamming raises the receiver noise floor on the targeted
/// channels and costs frames at the link layer. A context with
/// `attacker: None` performs bit-identical computation — the adversarial
/// machinery is strictly opt-in.
#[derive(Debug, Clone, PartialEq)]
pub enum Attacker {
    /// Delayed replay: the adversary captures and retransmits the ranging
    /// exchange through a delay line, shifting every apparent path by
    /// `extra_delay_ns` and spoofing a longer distance (~0.3 m per ns).
    ReplayOffset {
        /// Extra delay injected into every path, nanoseconds.
        extra_delay_ns: f64,
    },
    /// CSI injection: the adversary superimposes a forged multipath
    /// profile onto the genuine channel, steering the sparse recovery
    /// toward phantom paths.
    CsiInject {
        /// The forged paths added on top of the real channel.
        forged_profile: PathSet,
    },
    /// Selective jamming: a noise emitter parked on specific Wi-Fi
    /// channels. Jammed bands see their effective SNR floored at
    /// `snr_floor_db` (raising CSI noise) and lose frames outright when
    /// the floor drops low enough to break packet detection.
    BandJam {
        /// Jammed channel numbers (matching [`Band::channel`]).
        bands: Vec<u16>,
        /// Effective SNR on jammed bands, dB. Lower = stronger jamming.
        snr_floor_db: f64,
    },
}

impl Attacker {
    /// Writes the path set the *measurement* sees under this attack into
    /// `out` and returns `true`, or returns `false` and leaves `out` as it
    /// was when the attack leaves paths untouched (jamming corrupts noise
    /// and frames, not geometry). Ground truth must always be computed
    /// from the clean set. No allocation once `out` has held as many
    /// paths.
    pub fn corrupt_paths_into(&self, clean: &PathSet, out: &mut PathSet) -> bool {
        match self {
            Attacker::ReplayOffset { extra_delay_ns } => {
                let all = out.paths_mut();
                all.clear();
                all.extend(
                    clean
                        .paths()
                        .iter()
                        .map(|p| Path::new(p.delay_ns + extra_delay_ns, p.amplitude)),
                );
            }
            Attacker::CsiInject { forged_profile } => {
                let all = out.paths_mut();
                all.clear();
                all.extend_from_slice(clean.paths());
                all.extend_from_slice(forged_profile.paths());
            }
            Attacker::BandJam { .. } => return false,
        }
        out.sort_by_delay();
        true
    }

    /// Whether this attack jams the given channel.
    pub fn jams(&self, channel: u16) -> bool {
        match self {
            Attacker::BandJam { bands, .. } => bands.contains(&channel),
            _ => false,
        }
    }

    /// Per-component noise sigma the jammer imposes on `channel`, if this
    /// attack jams it: the sigma at which a unit-amplitude signal sees
    /// exactly `snr_floor_db`.
    pub fn jam_sigma(&self, channel: u16) -> Option<f64> {
        match self {
            Attacker::BandJam {
                bands,
                snr_floor_db,
            } if bands.contains(&channel) => Some(crate::noise::sigma_for_snr_db(*snr_floor_db)),
            _ => None,
        }
    }

    /// Extra frame-loss probability a jammed band suffers at the link
    /// layer: packet detection starts failing as the SNR floor drops
    /// through ~15 dB and is nearly certain to fail below 0 dB. Weak
    /// jamming (high floor) costs no frames — it only dirties CSI.
    pub fn jam_frame_loss(&self) -> f64 {
        match self {
            Attacker::BandJam { snr_floor_db, .. } => {
                ((15.0 - snr_floor_db) / 20.0).clamp(0.0, 0.95)
            }
            _ => 0.0,
        }
    }

    /// Per-plan-index extra frame-loss vector for a sweep over `plan`, or
    /// `None` when this attack costs no frames on any planned band. The
    /// link layer ORs this loss into its erasure model (see
    /// `SweepConfig::band_loss`).
    pub fn band_loss(&self, plan: &[Band]) -> Option<Vec<f64>> {
        let loss = self.jam_frame_loss();
        if loss <= 0.0 {
            return None;
        }
        let v: Vec<f64> = plan
            .iter()
            .map(|b| if self.jams(b.channel) { loss } else { 0.0 })
            .collect();
        if v.iter().all(|l| *l <= 0.0) {
            None
        } else {
            Some(v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_math::constants::m_to_ns;

    #[test]
    fn free_space_single_path() {
        let env = Environment::free_space();
        let ps = env.paths(
            Point::new(0.0, 0.0),
            Point::new(0.6, 0.0),
            &PathEnumConfig::default(),
        );
        assert_eq!(ps.paths().len(), 1);
        let p = ps.paths()[0];
        // 0.6 m ~ 2 ns, the paper's §4 example.
        assert!((p.delay_ns - m_to_ns(0.6)).abs() < 1e-9);
        assert!((p.delay_ns - 2.0).abs() < 0.01);
    }

    #[test]
    fn one_wall_adds_one_reflection() {
        let mut env = Environment::free_space();
        env.add_wall(
            Segment::new(Point::new(-10.0, 2.0), Point::new(10.0, 2.0)),
            Material::Concrete,
        );
        let tx = Point::new(-1.0, 0.0);
        let rx = Point::new(1.0, 0.0);
        let ps = env.paths(
            tx,
            rx,
            &PathEnumConfig {
                second_order: false,
                ..Default::default()
            },
        );
        assert_eq!(ps.paths().len(), 2);
        // Direct: 2 m. Reflected: via y=2 -> image at (-1,4), length sqrt(4+16).
        let direct = ps.paths()[0];
        let refl = ps.paths()[1];
        assert!((direct.delay_ns - m_to_ns(2.0)).abs() < 1e-9);
        let expect_len = ((2.0f64).powi(2) + (4.0f64).powi(2)).sqrt();
        assert!((refl.delay_ns - m_to_ns(expect_len)).abs() < 1e-9);
        assert!(refl.amplitude < direct.amplitude);
    }

    #[test]
    fn direct_path_always_first() {
        let mut env = Environment::free_space();
        env.add_room(0.0, 0.0, 20.0, 20.0, Material::Concrete);
        let ps = env.paths(
            Point::new(3.0, 3.0),
            Point::new(17.0, 12.0),
            &PathEnumConfig::default(),
        );
        let delays: Vec<f64> = ps.paths().iter().map(|p| p.delay_ns).collect();
        assert!(delays.windows(2).all(|w| w[0] <= w[1]));
        assert!(
            (delays[0] - m_to_ns(Point::new(3.0, 3.0).dist(Point::new(17.0, 12.0)))).abs() < 1e-9
        );
    }

    #[test]
    fn room_generates_rich_multipath() {
        let mut env = Environment::free_space();
        env.add_room(0.0, 0.0, 20.0, 20.0, Material::Concrete);
        let cfg = PathEnumConfig::default();
        let ps = env.paths(Point::new(5.0, 5.0), Point::new(15.0, 9.0), &cfg);
        // 4 walls -> direct + 4 first-order (+ second-order culled to cap).
        assert!(ps.paths().len() >= 5, "{}", ps.paths().len());
        assert!(ps.paths().len() <= cfg.max_paths);
    }

    #[test]
    fn obstruction_attenuates_but_keeps_direct_path() {
        let mut env = Environment::free_space();
        // A drywall partition between tx and rx.
        env.add_wall(
            Segment::new(Point::new(1.0, -1.0), Point::new(1.0, 1.0)),
            Material::Drywall,
        );
        let tx = Point::new(0.0, 0.0);
        let rx = Point::new(2.0, 0.0);
        let ps = env.paths(tx, rx, &PathEnumConfig::default());
        let direct = ps.paths()[0];
        // Amplitude = transmissivity / distance.
        assert!((direct.amplitude - Material::Drywall.transmissivity() / 2.0).abs() < 1e-9);
        assert!(!env.is_los(tx, rx));
    }

    #[test]
    fn los_mask_flags_blocked_antennas() {
        let mut env = Environment::free_space();
        // A short wall shadowing only the leftmost antenna.
        env.add_wall(
            Segment::new(Point::new(-1.0, 1.0), Point::new(-0.3, 1.0)),
            Material::Concrete,
        );
        let antennas = [
            Point::new(-0.6, 0.0),
            Point::new(0.6, 0.0),
            Point::new(0.0, 0.8),
        ];
        let mask = env.los_mask(Point::new(-0.6, 3.0), &antennas);
        assert_eq!(mask, vec![false, true, true]);
    }

    #[test]
    fn metal_blocks_near_everything() {
        let mut env = Environment::free_space();
        env.add_wall(
            Segment::new(Point::new(1.0, -5.0), Point::new(1.0, 5.0)),
            Material::Metal,
        );
        let loss = env.through_loss(Point::new(0.0, 0.0), Point::new(2.0, 0.0));
        assert!((loss - 0.05).abs() < 1e-9);
    }

    #[test]
    fn second_order_paths_longer_than_first_order() {
        let mut env = Environment::free_space();
        env.add_room(0.0, 0.0, 10.0, 10.0, Material::Metal);
        let tx = Point::new(2.0, 5.0);
        let rx = Point::new(8.0, 5.0);
        let first = env.paths(
            tx,
            rx,
            &PathEnumConfig {
                second_order: false,
                max_paths: 32,
                ..Default::default()
            },
        );
        let second = env.paths(
            tx,
            rx,
            &PathEnumConfig {
                second_order: true,
                max_paths: 32,
                ..Default::default()
            },
        );
        assert!(second.paths().len() > first.paths().len());
        let max_first = first.paths().iter().map(|p| p.delay_ns).fold(0.0, f64::max);
        let max_second = second
            .paths()
            .iter()
            .map(|p| p.delay_ns)
            .fold(0.0, f64::max);
        assert!(max_second > max_first);
    }

    #[test]
    fn amplitude_floor_and_cap_respected() {
        let mut env = Environment::free_space();
        env.add_room(0.0, 0.0, 20.0, 20.0, Material::Concrete);
        let cfg = PathEnumConfig {
            second_order: true,
            amplitude_floor: 1e-4,
            max_paths: 5,
            ..Default::default()
        };
        let ps = env.paths(Point::new(1.0, 1.0), Point::new(19.0, 19.0), &cfg);
        assert!(ps.paths().len() <= 5);
        assert!(ps.paths().iter().all(|p| p.amplitude >= 1e-4));
    }

    #[test]
    fn reflection_point_must_lie_on_wall() {
        let mut env = Environment::free_space();
        // Short wall segment far off to the side: mirror image exists but the
        // reflection point misses the physical wall -> no reflected path.
        env.add_wall(
            Segment::new(Point::new(100.0, 2.0), Point::new(101.0, 2.0)),
            Material::Metal,
        );
        let ps = env.paths(
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            &PathEnumConfig::default(),
        );
        assert_eq!(ps.paths().len(), 1);
    }

    #[test]
    fn replay_shifts_every_path_uniformly() {
        let clean = PathSet::new(vec![Path::new(5.0, 1.0), Path::new(12.0, 0.4)]);
        let atk = Attacker::ReplayOffset {
            extra_delay_ns: 7.5,
        };
        let mut dirty = PathSet::default();
        assert!(atk.corrupt_paths_into(&clean, &mut dirty));
        assert_eq!(dirty.len(), clean.len());
        for (c, d) in clean.paths().iter().zip(dirty.paths()) {
            assert!((d.delay_ns - c.delay_ns - 7.5).abs() < 1e-12);
            assert_eq!(d.amplitude, c.amplitude);
        }
        // Truth must come from the clean set; the spoofed ToF moved.
        assert!((dirty.true_tof_ns().unwrap() - 12.5).abs() < 1e-12);
    }

    #[test]
    fn inject_superimposes_forged_paths_sorted() {
        let clean = PathSet::new(vec![Path::new(10.0, 1.0)]);
        let atk = Attacker::CsiInject {
            forged_profile: PathSet::new(vec![Path::new(4.0, 2.0), Path::new(30.0, 0.5)]),
        };
        let mut dirty = PathSet::single(99.0, 1.0);
        assert!(atk.corrupt_paths_into(&clean, &mut dirty));
        let delays: Vec<f64> = dirty.paths().iter().map(|p| p.delay_ns).collect();
        assert_eq!(delays, vec![4.0, 10.0, 30.0]);
        // A strong forged early path hijacks the apparent direct path.
        assert_eq!(dirty.true_tof_ns(), Some(4.0));
        assert_eq!(clean.true_tof_ns(), Some(10.0));
    }

    #[test]
    fn jam_targets_only_listed_channels() {
        let atk = Attacker::BandJam {
            bands: vec![36, 40],
            snr_floor_db: 5.0,
        };
        assert!(atk.jams(36) && atk.jams(40));
        assert!(!atk.jams(44) && !atk.jams(1));
        assert!(atk.jam_sigma(36).unwrap() > 0.0);
        assert!(atk.jam_sigma(44).is_none());
        let mut untouched = PathSet::default();
        assert!(!atk.corrupt_paths_into(&PathSet::single(5.0, 1.0), &mut untouched));
        assert!(untouched.is_empty());
        // Replay/inject never jam.
        let replay = Attacker::ReplayOffset {
            extra_delay_ns: 3.0,
        };
        assert!(!replay.jams(36));
        assert_eq!(replay.jam_frame_loss(), 0.0);
    }

    #[test]
    fn jam_frame_loss_grows_as_floor_drops() {
        let loss_at = |db: f64| {
            Attacker::BandJam {
                bands: vec![36],
                snr_floor_db: db,
            }
            .jam_frame_loss()
        };
        assert_eq!(loss_at(20.0), 0.0); // weak: CSI noise only
        assert!((loss_at(5.0) - 0.5).abs() < 1e-12);
        assert_eq!(loss_at(-10.0), 0.95); // clamped
        assert!(loss_at(0.0) < loss_at(-5.0));
    }

    #[test]
    fn band_loss_maps_plan_indices() {
        let plan = crate::bands::band_plan_5ghz();
        let atk = Attacker::BandJam {
            bands: vec![plan[0].channel, plan[3].channel],
            snr_floor_db: -5.0,
        };
        let loss = atk.band_loss(&plan).unwrap();
        assert_eq!(loss.len(), plan.len());
        assert!(loss[0] > 0.9 && loss[3] > 0.9);
        assert!(loss[1] == 0.0 && loss[2] == 0.0);
        // Weak jamming (no frame loss) and off-plan channels yield None.
        let weak = Attacker::BandJam {
            bands: vec![plan[0].channel],
            snr_floor_db: 20.0,
        };
        assert!(weak.band_loss(&plan).is_none());
        let off_plan = Attacker::BandJam {
            bands: vec![1],
            snr_floor_db: -5.0,
        };
        assert!(off_plan.band_loss(&plan).is_none());
    }

    /// The enumeration as a candidate list: every path, then a stable
    /// sort by amplitude, truncation and a sort by delay.
    fn paths_by_sorting(
        env: &Environment,
        tx: Point,
        rx: Point,
        cfg: &PathEnumConfig,
    ) -> Vec<Path> {
        let d_direct = tx.dist(rx).max(1e-6);
        let direct = Path::from_length(d_direct, env.through_loss(tx, rx) / d_direct);
        let mut rest = Vec::new();
        for (wi, w) in env.walls.iter().enumerate() {
            rest.extend(env.first_order_path(tx, rx, w));
            if cfg.second_order {
                for (wj, w2) in env.walls.iter().enumerate() {
                    if wi != wj {
                        if let Some(mut p) = env.second_order_path(tx, rx, w, w2) {
                            p.amplitude *= cfg.second_order_loss;
                            rest.push(p);
                        }
                    }
                }
            }
        }
        rest.retain(|p| p.amplitude >= cfg.amplitude_floor);
        rest.sort_by(|a, b| b.amplitude.partial_cmp(&a.amplitude).unwrap());
        rest.truncate(cfg.max_paths.saturating_sub(1));
        let mut all = Vec::new();
        if direct.amplitude >= cfg.amplitude_floor {
            all.push(direct);
        }
        all.extend(rest);
        all.sort_by(|a, b| a.delay_ns.partial_cmp(&b.delay_ns).unwrap());
        all
    }

    /// Selecting paths as they are enumerated keeps exactly the paths, in
    /// exactly the order, that sorting the full candidate list does —
    /// ties included (the mirror-symmetric corridor gives equal-amplitude
    /// reflections) — into a reused set.
    #[test]
    fn paths_into_matches_sorting_the_candidates() {
        let office = crate::testbed::Testbed::office(42);
        let mut corridor = Environment::free_space();
        corridor.add_wall(
            Segment::new(Point::new(-10.0, 2.0), Point::new(10.0, 2.0)),
            Material::Concrete,
        );
        corridor.add_wall(
            Segment::new(Point::new(-10.0, -2.0), Point::new(10.0, -2.0)),
            Material::Concrete,
        );
        let mut out = PathSet::default();
        let mut cases = 0;
        for max_paths in [0, 1, 2, 3, 5, 12, 40] {
            let cfg = PathEnumConfig {
                max_paths,
                ..PathEnumConfig::default()
            };
            let symmetric = (Point::new(-1.5, 0.0), Point::new(2.5, 0.0));
            let pairs = office
                .locations
                .iter()
                .zip(office.locations.iter().skip(1))
                .map(|(a, b)| (&office.environment, *a, *b))
                .chain(std::iter::once((&corridor, symmetric.0, symmetric.1)));
            for (env, tx, rx) in pairs {
                env.paths_into(tx, rx, &cfg, &mut out);
                let want = paths_by_sorting(env, tx, rx, &cfg);
                assert_eq!(out.paths(), want.as_slice(), "max_paths {max_paths}");
                assert_eq!(env.paths(tx, rx, &cfg).paths(), want.as_slice());
                cases += 1;
            }
        }
        assert_eq!(cases, 7 * 30);
        // The corridor's two first-order reflections tie.
        let ties = paths_by_sorting(
            &corridor,
            Point::new(-1.5, 0.0),
            Point::new(2.5, 0.0),
            &PathEnumConfig::default(),
        );
        assert!(ties
            .windows(2)
            .any(|w| w[0].amplitude == w[1].amplitude && w[0].delay_ns == w[1].delay_ns));
    }
}
