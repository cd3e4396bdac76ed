//! Host-normalized end-to-end benchmark of the Chronos workspace.
//!
//! Two seeded workloads drive the public APIs of `chronos-core`,
//! `chronos-rf` and `chronos-link`; see `README.md` in this directory for
//! the metrics, why each workload exists and which layer should move
//! which end-to-end figure. Everything the benchmark generates — floor
//! plans' placement order, device draws, walkers, the reference kernel,
//! the counting allocator — lives in this package, so a change to the
//! repository's own bench crate cannot move it.

pub mod alloc;
pub mod fleet;
pub mod office;
pub mod refkernel;
pub mod report;
pub mod rig;
pub mod trace;

use report::Metric;
use rig::{RunConfig, RunResult};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's device-to-device path, cold, one thread.
    OfficePair,
    /// A 16-AP one-way TDoA fleet: the boundary, no CSI estimation.
    FleetTdoa,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::OfficePair, Workload::FleetTdoa];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OfficePair => "office_pair",
            Workload::FleetTdoa => "fleet_tdoa",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Runs a workload, traced or not (see [`rig::run`]).
pub fn run(workload: Workload, cfg: &RunConfig) -> RunResult {
    match workload {
        Workload::OfficePair => rig::run(cfg, office::OfficeRig::build),
        Workload::FleetTdoa => rig::run(cfg, fleet::FleetRig::build),
    }
}

/// The check prefix of a workload's seed (see [`rig::run_prefix`]).
pub fn prefix(workload: Workload, seed: u64) -> rig::Prefix {
    match workload {
        Workload::OfficePair => rig::run_prefix(seed, office::OfficeRig::build),
        Workload::FleetTdoa => rig::run_prefix(seed, fleet::FleetRig::build),
    }
}

/// The output checks of a run; each failure is one message.
///
/// - every traced step reproduced its untraced output, and every output
///   number was finite (`RunResult::failed`);
/// - every metric is finite;
/// - `office_pair` ranges to within 0.3 m (1 ns) at the median;
/// - `fleet_tdoa` produces fixes.
pub fn check(workload: Workload, result: &RunResult, metrics: &[Metric]) -> Vec<String> {
    let mut failures = Vec::new();
    if result.failed > 0 {
        failures.push(format!(
            "{} of {} steps failed (digest mismatch or non-finite output)",
            result.failed, result.steps
        ));
    }
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        failures.push(format!("{} is not finite", m.name));
    }
    let value = |name: &str| metrics.iter().find(|m| m.name == name).map(|m| m.value);
    match workload {
        Workload::OfficePair => {
            if let Some(e) = value("err_m_p50").filter(|e| *e >= 0.3) {
                failures.push(format!("err_m_p50 {e} m is not under 0.3 m"));
            }
        }
        Workload::FleetTdoa => {
            if let Some(r) = value("fix_ratio").filter(|r| *r <= 0.0) {
                failures.push(format!("fix_ratio {r} is not above 0"));
            }
        }
    }
    failures
}
