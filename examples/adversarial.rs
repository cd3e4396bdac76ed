//! Adversarial ranging: a replay attacker versus the anomaly-scored
//! quarantine policy (see `docs/ADVERSARIAL.md`).
//!
//! ```sh
//! cargo run --release --example adversarial
//! ```
//!
//! Three clients range against one multi-antenna AP. At epoch 6 the
//! third client turns hostile: a replay attacker re-transmits the
//! ranging exchange through a delay line, inflating its time-of-flight
//! by 20 ns (~6 m). Watch the `score` column: the spoofed fix trips the
//! innovation gate, the per-client anomaly score (EWMA of normalized
//! innovations + gate-miss run) crosses the quarantine threshold within
//! a sweep, and the service withholds the attacker's estimates
//! (`tracked` goes `--`) while continuing to range it for evidence. The
//! honest clients' fixes are unaffected throughout — per-client sweeps
//! are isolated, so one compromised client cannot poison its neighbors.

use chronos_bench::adversarial::{adversarial_service, replay_attacker, Strength, ATTACKER};
use chronos_suite::rf::geometry::Point;

fn main() {
    let epochs = 14usize;
    let onset = 6usize;
    let mut service = adversarial_service(1);

    println!("three clients, attacker = client {ATTACKER}, replay onset at epoch {onset}");
    println!("epoch  client  status      score  truth            tracked          err");
    for e in 0..epochs {
        if e == onset {
            service.session_mut(ATTACKER).ctx.attacker = Some(replay_attacker(Strength::Strong));
            println!("-- epoch {e}: client {ATTACKER} starts replaying with +20 ns delay --");
        }
        let report = service.run_epoch(73_000 + e as u64);
        for o in &report.outcomes {
            let status = if o.quarantined {
                "QUARANTINE"
            } else {
                "serving   "
            };
            let pos = |p: Option<Point>| match p {
                Some(p) => format!("({:+5.2}, {:+5.2})", p.x, p.y),
                None => "      --      ".to_string(),
            };
            println!(
                "{e:>5}  {:>6}  {status}  {:>5.2}  ({:+5.2}, {:+5.2})  {}  {}",
                o.client,
                o.anomaly_score.unwrap_or(f64::NAN),
                o.truth_pos.x,
                o.truth_pos.y,
                pos(o.tracked_pos),
                o.tracked_pos_error_m
                    .map(|err| format!("{err:.2} m"))
                    .unwrap_or_else(|| "--".into()),
            );
        }
    }
}
