//! # chronos-link
//!
//! The link-layer substrate: everything the paper implemented inside the
//! `iwlwifi` driver patch, rebuilt as a deterministic discrete-event
//! simulation (the smoltcp school: explicit time, poll-style state
//! machines, no hidden threads).
//!
//! [`time`] defines nanosecond-resolution simulation [`time::Instant`]s
//! and [`time::Duration`]s. No model in the workspace ever consults a
//! wall clock; every state machine takes `now` as an argument, which is
//! what makes sweeps reproducible enough to assert the paper's 84 ms
//! median hop time (Fig. 9a) in a unit test.
//!
//! [`event`] is the deterministic event queue driving the simulation:
//! a time-ordered heap with stable FIFO tie-breaking, so identical seeds
//! replay identical schedules.
//!
//! [`frame`] gives the hopping protocol's control frames — band
//! advertisements, custom ACKs (the CSI Tool reports no CSI for hardware
//! ACKs, so Chronos injects its own, §4), measurement frames — a compact
//! binary wire format with strict, panic-free parsing over [`bytes`].
//!
//! [`medium`] models the half-duplex channel: preamble + rate airtime,
//! SIFS turnarounds, channel-switch (PLL settling) time, and independent
//! per-frame loss. Loss is what spreads the sweep-time CDF of Fig. 9(a)
//! rightward through retransmissions.
//!
//! [`fsm`] implements the transmitter-driven hop protocol of paper §4 as
//! two poll-style state machines (initiator and responder) with
//! retransmission budgets and the fail-safe revert to a default band
//! that keeps a lossy pair from deadlocking on different channels.
//!
//! [`sweep`] wires the FSMs through the medium over the event queue and
//! drives one full 35-band sweep, reporting duration, per-band
//! measurement timestamps (CSI is synthesized at exactly those
//! instants), and the busy intervals the traffic models consume.
//!
//! [`arbiter`] is the multi-client extension: admission control for N
//! concurrent sweeps on one access point. It staggers starts so hop
//! patterns interleave, caps concurrency, charges overlapping sweeps a
//! per-peer collision loss, and keeps its projections honest with actual
//! completion times — the contention model behind
//! `chronos_core::service`.
//!
//! [`traffic`] models the §12.3 co-existence workloads: a buffered video
//! client and a Reno-style TCP flow sharing the access point with
//! localization sweeps (Fig. 9b, 9c) — and defines the
//! [`traffic::TrafficClass`] priority lattice the admission layer
//! schedules by.
//!
//! [`admission`] is the service's bounded front door: per-class FIFO
//! queues with depth limits, strict priority release, and deterministic
//! displacement — the data structure behind the engine's load-shedding
//! policy under overload.

#![forbid(unsafe_code)]

pub mod admission;
pub mod arbiter;
pub mod event;
pub mod frame;
pub mod fsm;
pub mod medium;
pub mod sweep;
pub mod time;
pub mod traffic;

pub use admission::{AdmissionConfig, AdmissionQueue, ClassCounts, IngestionStats, Offer};
pub use arbiter::{ArbiterConfig, MediumArbiter, SweepGrant};
pub use frame::Frame;
pub use sweep::{run_sweep, SweepConfig, SweepResult};
pub use time::{Duration, Instant};
pub use traffic::TrafficClass;
