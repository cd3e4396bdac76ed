//! # chronos-suite
//!
//! The one-import facade over the Chronos reproduction workspace. Examples
//! and integration tests use this crate; library users may prefer to
//! depend on the individual crates directly:
//!
//! * [`math`] (`chronos-math`) — numerics substrate.
//! * [`rf`] (`chronos-rf`) — Wi-Fi/RF substrate and the Intel 5300 model.
//! * [`link`] (`chronos-link`) — hopping protocol, airtime arbitration and
//!   traffic models.
//! * [`core`] (`chronos-core`) — the Chronos time-of-flight estimator,
//!   shared plan cache, and the multi-client ranging service.
//! * [`drone`] (`chronos-drone`) — the personal-drone application.
//!
//! For the design document (crate map, CSI→ToF data flow, the
//! `PlanCache`/`ServiceEngine` layer), see `docs/ARCHITECTURE.md`.
//!
//! ## Quickstart
//!
//! ```
//! use chronos_suite::core::config::ChronosConfig;
//! use chronos_suite::core::session::ChronosSession;
//! use chronos_suite::link::time::Instant;
//! use chronos_suite::rf::csi::MeasurementContext;
//! use chronos_suite::rf::environment::Environment;
//! use chronos_suite::rf::geometry::Point;
//! use chronos_suite::rf::hardware::Intel5300;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let ctx = MeasurementContext::new(
//!     Environment::free_space(),
//!     Intel5300::mobile(&mut rng),
//!     Point::new(0.0, 0.0),
//!     Intel5300::laptop(&mut rng),
//!     Point::new(3.0, 0.0),
//! );
//! let mut session = ChronosSession::new(ctx, ChronosConfig::default());
//! session.calibrate(&mut rng, 2);
//! let out = session.sweep(&mut rng, Instant::ZERO);
//! let d = out.mean_distance_m().expect("estimate");
//! assert!((d - 3.0).abs() < 0.5, "estimated {d} m");
//! ```

pub use chronos_core as core;
pub use chronos_drone as drone;
pub use chronos_link as link;
pub use chronos_math as math;
pub use chronos_rf as rf;
