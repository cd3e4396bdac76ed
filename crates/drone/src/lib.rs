//! # chronos-drone
//!
//! The paper's flagship application (§9, §12.4): a personal drone that
//! follows its user at a fixed distance using only Chronos ranging between
//! two commodity Wi-Fi cards — no infrastructure, no motion capture in the
//! loop.
//!
//! * [`dynamics`] — planar quadrotor kinematics with actuation noise and
//!   speed limits (the stand-in for the AscTec Hummingbird of paper
//!   §12.4).
//! * [`trajectory`] — waypoint walking-user model inside the 6 m x 5 m
//!   motion-capture room of §12.4.
//! * [`controller`] — the negative-feedback distance controller with the
//!   measurement averaging and outlier rejection of §9.
//! * [`follow`] — the closed loop: Chronos sweep -> distance -> control
//!   step, with an exact ground-truth recorder standing in for VICON.

#![forbid(unsafe_code)]

pub mod controller;
pub mod dynamics;
pub mod follow;
pub mod trajectory;

pub use controller::{ControllerConfig, DistanceController};
pub use dynamics::Quadrotor;
pub use follow::{FollowConfig, FollowRecord, FollowSim};
pub use trajectory::WalkTrajectory;
