//! Band-group handling for the Intel 5300's 2.4 GHz phase quirk
//! (paper §11, footnote 5; ablated in
//! `tests/ablations.rs::ablation_quirk_mode_consistency`).
//!
//! The 5300 reports 2.4 GHz channel phase modulo pi/2. Chronos's fix —
//! running the algorithm on the fourth power of the channel — removes the
//! ambiguity, but changes the *delay scale* of the measurement: the
//! reciprocity product `h^2` peaks at `2 tau`, while its fourth power
//! (`h^8`) peaks at `8 tau`. Measurements at different delay scales sample
//! **different** time-domain profiles, so they cannot share one NDFT
//! inversion. This module groups band products by delay scale; the
//! estimator inverts each group separately and fuses the candidates.
//!
//! Consequences worth knowing (documented trade-offs):
//! * the 5 GHz group (24 bands spanning 645 MHz of centers) dominates the
//!   estimate — it has both resolution and an unambiguous range of 200 ns
//!   at scale 2 (100 ns of ToF, i.e. 30 m);
//! * the quirked 2.4 GHz group at scale 8 aliases beyond 25 ns of ToF and
//!   is used only as a consistency check for nearby devices.

use crate::reciprocity::BandProduct;
use chronos_math::Complex64;

/// One group of band products sharing a delay scale.
#[derive(Debug, Clone)]
pub struct BandGroupSamples {
    /// Center frequencies, Hz (ascending).
    pub freqs_hz: Vec<f64>,
    /// Measurement per frequency.
    pub values: Vec<Complex64>,
    /// Delay scale of the group (2 or 8).
    pub delay_scale: f64,
}

impl BandGroupSamples {
    /// Number of bands in the group.
    pub fn len(&self) -> usize {
        self.freqs_hz.len()
    }

    /// Whether the group is empty.
    pub fn is_empty(&self) -> bool {
        self.freqs_hz.is_empty()
    }

    /// The ToF beyond which this group's profile aliases, given an
    /// unambiguous profile-domain range (ns).
    pub fn alias_limit_ns(&self, profile_range_ns: f64) -> f64 {
        profile_range_ns / self.delay_scale
    }
}

/// Splits band products into delay-scale groups, each sorted by frequency.
pub fn group_by_scale(products: &[BandProduct]) -> Vec<BandGroupSamples> {
    let mut groups = Vec::new();
    let mut pool = Vec::new();
    let mut order = Vec::new();
    group_by_scale_into(products, &mut groups, &mut pool, &mut order);
    groups
}

/// [`group_by_scale`] into reusable buffers: `groups` receives the
/// result, `pool` recycles emptied groups between calls (their inner
/// vectors keep capacity), `order` is index-sort working storage.
/// Identical output; zero heap allocations once the buffers have seen
/// the plan size.
pub fn group_by_scale_into(
    products: &[BandProduct],
    groups: &mut Vec<BandGroupSamples>,
    pool: &mut Vec<BandGroupSamples>,
    order: &mut Vec<usize>,
) {
    pool.extend(groups.drain(..).map(|mut g| {
        g.freqs_hz.clear();
        g.values.clear();
        g
    }));
    order.clear();
    order.extend(0..products.len());
    // Frequencies tie-break on the product index, reproducing the stable
    // sort's order without its merge buffer.
    order.sort_unstable_by(|a, b| {
        products[*a]
            .freq_hz
            .partial_cmp(&products[*b].freq_hz)
            .unwrap()
            .then(a.cmp(b))
    });
    for &i in order.iter() {
        let p = &products[i];
        match groups.iter_mut().find(|g| g.delay_scale == p.delay_scale) {
            Some(g) => {
                g.freqs_hz.push(p.freq_hz);
                g.values.push(p.value);
            }
            None => {
                let mut g = pool.pop().unwrap_or_else(|| BandGroupSamples {
                    freqs_hz: Vec::new(),
                    values: Vec::new(),
                    delay_scale: 0.0,
                });
                g.delay_scale = p.delay_scale;
                g.freqs_hz.push(p.freq_hz);
                g.values.push(p.value);
                groups.push(g);
            }
        }
    }
    // Deterministic order: smallest scale (finest ToF range) first. (A
    // handful of groups at most — the stable sort stays in its
    // insertion-sort regime.)
    groups.sort_by(|a, b| a.delay_scale.partial_cmp(&b.delay_scale).unwrap());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bp(freq_ghz: f64, scale: f64) -> BandProduct {
        BandProduct {
            freq_hz: freq_ghz * 1e9,
            value: Complex64::ONE,
            exchanges: 1,
            delay_scale: scale,
        }
    }

    #[test]
    fn splits_by_scale() {
        let products = vec![bp(5.18, 2.0), bp(2.412, 8.0), bp(5.32, 2.0), bp(2.437, 8.0)];
        let groups = group_by_scale(&products);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].delay_scale, 2.0);
        assert_eq!(groups[0].len(), 2);
        assert_eq!(groups[1].delay_scale, 8.0);
        assert_eq!(groups[1].len(), 2);
    }

    #[test]
    fn groups_sorted_by_frequency() {
        let products = vec![bp(5.825, 2.0), bp(5.18, 2.0), bp(5.5, 2.0)];
        let groups = group_by_scale(&products);
        assert_eq!(groups.len(), 1);
        let f = &groups[0].freqs_hz;
        assert!(f.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn single_scale_single_group() {
        let products = vec![bp(5.18, 2.0), bp(5.2, 2.0)];
        let groups = group_by_scale(&products);
        assert_eq!(groups.len(), 1);
    }

    #[test]
    fn alias_limit_scales() {
        let g = BandGroupSamples {
            freqs_hz: vec![2.4e9],
            values: vec![Complex64::ONE],
            delay_scale: 8.0,
        };
        assert!((g.alias_limit_ns(200.0) - 25.0).abs() < 1e-12);
        let g2 = BandGroupSamples {
            freqs_hz: vec![5.5e9],
            values: vec![Complex64::ONE],
            delay_scale: 2.0,
        };
        assert!((g2.alias_limit_ns(200.0) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(group_by_scale(&[]).is_empty());
    }
}
