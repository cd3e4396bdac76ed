//! Metric definitions, the host-normalized end-to-end reduction, digests
//! and the result line.

use crate::refkernel::nominal;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured, full precision.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Every per-layer metric the traced run reports, with its unit. A
/// workload reports 0 for a layer it never enters (`ista.ms` on
/// `fleet_tdoa`, `tdoa.blasts` on `office_pair`): the layer is not on
/// its path.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("link.ms", "ms"),
    ("link.loss_ratio", "ratio"),
    ("csi.ms", "ms"),
    ("csi.allocs", "1/step"),
    ("products.ms", "ms"),
    ("tof.ms", "ms"),
    ("tof.allocs", "1/step"),
    ("tof.fail_ratio", "ratio"),
    ("tof.first_path_ms", "ms"),
    ("ista.ms", "ms"),
    ("ista.solves", "1/step"),
    ("ista.iters", "1/solve"),
    ("ista.cap_ratio", "ratio"),
    ("debias.ms", "ms"),
    ("localization.ms", "ms"),
    ("arbiter.utilization", "ratio"),
    ("fleet.handoffs", "1/step"),
    ("fleet.sync_rounds", "1/step"),
    ("tdoa.blasts", "1/step"),
    ("tdoa.anchors", "1/blast"),
    ("runtime.batches", "1/step"),
    ("runtime.worker_allocs", "1/step"),
    ("plan.misses", "count"),
    ("alloc.driver", "1/step"),
    ("trace.steps", "count"),
    ("trace.step_ms_p50", "ms"),
    ("trace.untraced_ms_p50", "ms"),
    ("trace.overhead", "ratio"),
];

/// Raw material of the end-to-end metrics, all timings in raw host
/// seconds. Each timing comes with the reference level it was measured
/// at (see [`crate::refkernel`]).
#[derive(Debug, Clone, Default)]
pub struct EndToEndSamples {
    /// Each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Reference level around each set-up.
    pub setup_ref_s: Vec<f64>,
    /// Every timed step.
    pub step_s: Vec<f64>,
    /// Reference level around each step.
    pub step_ref_s: Vec<f64>,
    /// Fixes produced by the timed steps.
    pub fixes: u64,
    /// Fixes produced by the quality steps.
    pub quality_fixes: u64,
    /// Fix attempts of the quality steps.
    pub quality_attempts: u64,
    /// Error samples of the quality steps, meters.
    pub errors_m: Vec<f64>,
}

/// Linear-interpolated percentile (`q` in 0..=100) of an unsorted sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

impl EndToEndSamples {
    /// Each step in nominal seconds.
    pub fn nominal_steps(&self) -> Vec<f64> {
        self.step_s
            .iter()
            .zip(&self.step_ref_s)
            .map(|(s, r)| nominal(*s, *r))
            .collect()
    }

    /// The timed phase in nominal seconds: total raw step time over the
    /// mean reference level (a ratio of sums, which a single lucky pass
    /// cannot skew).
    pub fn nominal_timed_s(&self) -> f64 {
        let mean_ref = self.step_ref_s.iter().sum::<f64>() / self.step_ref_s.len() as f64;
        nominal(self.step_s.iter().sum(), mean_ref)
    }
}

/// The end-to-end metrics of a run. Every timing is host-normalized.
pub fn end_to_end(s: &EndToEndSamples, peak_rss_mb: f64) -> Vec<Metric> {
    let setups: Vec<f64> = s
        .setup_s
        .iter()
        .zip(&s.setup_ref_s)
        .map(|(t, r)| nominal(*t, *r))
        .collect();
    let steps = s.nominal_steps();
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("setup_s", percentile(&setups, 50.0), "s"),
        m("fixes_per_s", s.fixes as f64 / s.nominal_timed_s(), "1/s"),
        m("step_ms_p50", percentile(&steps, 50.0) * 1e3, "ms"),
        m("step_ms_p90", percentile(&steps, 90.0) * 1e3, "ms"),
        m("err_m_p50", percentile(&s.errors_m, 50.0), "m"),
        m("err_m_p90", percentile(&s.errors_m, 90.0), "m"),
        m(
            "fix_ratio",
            s.quality_fixes as f64 / s.quality_attempts as f64,
            "ratio",
        ),
        m("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// Orders per-layer values by [`PER_LAYER`], filling 0 for layers the
/// workload never enters. Panics on a name missing from the list.
pub fn per_layer(values: &[(&'static str, f64)]) -> Vec<Metric> {
    for (name, _) in values {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "per-layer metric {name} is not in PER_LAYER"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v),
            unit,
        })
        .collect()
}

/// FNV-1a over 64-bit words: the output digest of a run's check prefix.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word.
    pub fn put(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds a float by its bits.
    pub fn put_f64(&mut self, v: f64) {
        self.put(v.to_bits());
    }

    /// Folds an optional float (`None` as NaN bits).
    pub fn put_opt(&mut self, v: Option<f64>) {
        self.put_f64(v.unwrap_or(f64::NAN));
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// `VmHWM` (peak resident set) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`. A non-finite value (which fails
/// the output checks) prints as `null` so the line stays valid JSON.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile(&[5.0], 90.0), 5.0);
    }

    #[test]
    fn per_layer_fills_absent_layers_with_zero() {
        let m = per_layer(&[("ista.ms", 2.5)]);
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m.iter().find(|x| x.name == "ista.ms").unwrap().value, 2.5);
        assert_eq!(
            m.iter().find(|x| x.name == "tdoa.blasts").unwrap().value,
            0.0
        );
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "setup_s",
                value: 0.5,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
