//! 802.11n OFDM subcarrier layout and the Intel 5300 CSI report grid.
//!
//! A 20 MHz 802.11n channel carries 64 subcarriers spaced 312.5 kHz apart,
//! indices −32…31 around the center frequency. Data/pilots occupy −28…28
//! (excluding 0); the zero-subcarrier coincides with the radio's DC offset
//! and is never transmitted (paper §5) — which is precisely why Chronos must
//! *interpolate* the channel there.
//!
//! The Intel 5300 CSI Tool reports the channel on a fixed 30-subcarrier
//! subset of those 56 populated subcarriers (grouping Ng = 2 per the
//! 802.11n compressed-CSI format).

/// Subcarrier spacing of 20 MHz 802.11n, in Hz.
pub const SUBCARRIER_SPACING_HZ: f64 = 312_500.0;

/// The 30 subcarrier indices reported by the Intel 5300 CSI Tool for a
/// 20 MHz channel (Ng = 2 grouping). Note the index 0 (DC) is absent.
pub const INTEL5300_SUBCARRIERS: [i32; 30] = [
    -28, -26, -24, -22, -20, -18, -16, -14, -12, -10, -8, -6, -4, -2, -1, 1, 3, 5, 7, 9, 11, 13,
    15, 17, 19, 21, 23, 25, 27, 28,
];

/// All 56 populated (data + pilot) subcarrier indices of 20 MHz 802.11n.
pub fn populated_subcarriers() -> Vec<i32> {
    (-28..=28).filter(|k| *k != 0).collect()
}

/// A subcarrier grid: which indices are measured, around which center
/// frequency.
#[derive(Debug, PartialEq)]
pub struct SubcarrierLayout {
    indices: Vec<i32>,
}

impl Clone for SubcarrierLayout {
    fn clone(&self) -> Self {
        SubcarrierLayout {
            indices: self.indices.clone(),
        }
    }

    /// Reuses this layout's buffer: recycled captures take on a layout
    /// without allocating.
    fn clone_from(&mut self, source: &Self) {
        self.indices.clone_from(&source.indices);
    }
}

impl SubcarrierLayout {
    /// The Intel 5300 CSI Tool layout (30 subcarriers).
    pub fn intel5300() -> Self {
        SubcarrierLayout {
            indices: INTEL5300_SUBCARRIERS.to_vec(),
        }
    }

    /// The full populated layout (56 subcarriers), for idealized studies.
    pub fn full() -> Self {
        SubcarrierLayout {
            indices: populated_subcarriers(),
        }
    }

    /// A custom layout. Indices must be non-zero (DC is unmeasurable) and
    /// strictly increasing.
    ///
    /// # Panics
    /// Panics if the invariant is violated.
    pub fn custom(indices: Vec<i32>) -> Self {
        assert!(!indices.is_empty(), "layout must be non-empty");
        assert!(
            indices.iter().all(|k| *k != 0),
            "DC subcarrier is unmeasurable"
        );
        assert!(
            indices.windows(2).all(|w| w[1] > w[0]),
            "indices must be strictly increasing"
        );
        SubcarrierLayout { indices }
    }

    /// The measured subcarrier indices.
    pub fn indices(&self) -> &[i32] {
        &self.indices
    }

    /// Number of measured subcarriers.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the layout is empty (never true for built-in layouts).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Absolute frequency (Hz) of subcarrier `index` around `center_hz`.
    pub fn freq_of(&self, center_hz: f64, index: i32) -> f64 {
        center_hz + index as f64 * SUBCARRIER_SPACING_HZ
    }

    /// Absolute frequencies of every measured subcarrier.
    pub fn freqs(&self, center_hz: f64) -> Vec<f64> {
        self.indices
            .iter()
            .map(|k| self.freq_of(center_hz, *k))
            .collect()
    }

    /// Baseband offsets (`f_{i,k} − f_{i,0}` in the paper's §5 notation) of
    /// every measured subcarrier, in Hz.
    pub fn baseband_offsets(&self) -> Vec<f64> {
        self.indices
            .iter()
            .map(|k| *k as f64 * SUBCARRIER_SPACING_HZ)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intel_layout_has_30_entries_without_dc() {
        let l = SubcarrierLayout::intel5300();
        assert_eq!(l.len(), 30);
        assert!(!l.indices().contains(&0));
        assert_eq!(*l.indices().first().unwrap(), -28);
        assert_eq!(*l.indices().last().unwrap(), 28);
    }

    #[test]
    fn full_layout_has_56_entries() {
        let l = SubcarrierLayout::full();
        assert_eq!(l.len(), 56);
        assert!(!l.indices().contains(&0));
    }

    #[test]
    fn intel_is_subset_of_full() {
        let full = populated_subcarriers();
        for k in INTEL5300_SUBCARRIERS {
            assert!(full.contains(&k), "missing {k}");
        }
    }

    #[test]
    fn frequencies_straddle_center() {
        let l = SubcarrierLayout::intel5300();
        let center = 5.18e9;
        let freqs = l.freqs(center);
        assert!((freqs[0] - (center - 28.0 * SUBCARRIER_SPACING_HZ)).abs() < 1e-3);
        assert!((freqs[29] - (center + 28.0 * SUBCARRIER_SPACING_HZ)).abs() < 1e-3);
        // Edge subcarriers sit 8.75 MHz out.
        assert!((28.0 * SUBCARRIER_SPACING_HZ - 8.75e6).abs() < 1.0);
    }

    #[test]
    fn baseband_offsets_match_indices() {
        let l = SubcarrierLayout::custom(vec![-2, 1, 3]);
        let offs = l.baseband_offsets();
        assert!((offs[0] + 625_000.0).abs() < 1e-9);
        assert!((offs[1] - 312_500.0).abs() < 1e-9);
        assert!((offs[2] - 937_500.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "DC subcarrier")]
    fn custom_rejects_dc() {
        let _ = SubcarrierLayout::custom(vec![-1, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn custom_rejects_unsorted() {
        let _ = SubcarrierLayout::custom(vec![3, 1]);
    }

    #[test]
    fn spacing_constant_is_20mhz_over_64() {
        assert!((SUBCARRIER_SPACING_HZ - 20e6 / 64.0).abs() < 1e-9);
    }
}
