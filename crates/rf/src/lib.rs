//! # chronos-rf
//!
//! The RF substrate the paper's hardware provided and this reproduction
//! simulates (`docs/ARCHITECTURE.md`, "Crate Map", lists what each
//! simulated part stands in for):
//!
//! * [`bands`] — the U.S. Wi-Fi band plan the paper sweeps (Fig. 2): 11
//!   channels at 2.4 GHz plus 24 at 5 GHz, 35 center frequencies total.
//! * [`ofdm`] — the 802.11n OFDM subcarrier layout, including the Intel 5300
//!   CSI Tool's 30-subcarrier grouping.
//! * [`geometry`] — 2-D points, segments, mirror reflections.
//! * [`environment`] — walls and reflectors; image-method path enumeration.
//! * [`propagation`] — per-path delay/attenuation and channel synthesis
//!   (the paper's Eq. 7).
//! * [`noise`] — SNR-versus-distance model and complex AWGN.
//! * [`cfo`] — carrier-frequency-offset (oscillator) model with the
//!   reciprocity property Chronos exploits (§7).
//! * [`hardware`] — the Intel 5300 device model: packet-detection delay,
//!   per-device `kappa`, the 2.4 GHz phase quirk, antenna arrays.
//! * [`csi`] — the measurement pipeline that turns geometry + impairments
//!   into the `CsiCapture` a driver would hand to user space.
//! * [`testbed`] — the 20 m x 20 m office testbed generator (Fig. 6).
//! * [`subset`] — band-subset selection for adaptive TRACK-mode sweeps:
//!   a grating-lobe ambiguity metric over candidate spacings, and a
//!   deterministic greedy pick that keeps the full aperture while
//!   minimizing alias risk (consumed by the `chronos-core` scheduler).

#![forbid(unsafe_code)]

pub mod bands;
pub mod cfo;
pub mod csi;
pub mod environment;
pub mod geometry;
pub mod hardware;
pub mod noise;
pub mod ofdm;
pub mod propagation;
pub mod subset;
pub mod testbed;

pub use bands::{band_plan, Band, BandGroup};
pub use csi::{CsiCapture, Measurement, MeasurementContext};
pub use environment::{Attacker, Environment};
pub use geometry::Point;
pub use hardware::{DeviceModel, Intel5300};
pub use propagation::{Path, PathSet};
