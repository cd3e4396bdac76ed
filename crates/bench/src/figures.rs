//! The paper's figures and the experiments behind them, run by
//! `run_all <figure>`.
//!
//! [`FIGURES`] names every figure (Figs. 3, 4, 7a–10b and the headline
//! `summary`) beside its generator. A generator reads its samples from
//! [`Experiments`], which runs each experiment at most once, when the
//! first figure asks for it, so every figure of one invocation that
//! reads an experiment reads the same samples. Each generator prints its
//! tables and returns them for the caller to persist as CSV.

use crate::report::Table;
use crate::scenarios::{
    run_accuracy, run_drone, run_fig4_profile, run_hop_times, run_tcp_trace, run_video_trace,
    split_errors, summarize, AccuracyConfig, LinkTrial,
};
use chronos_core::crt::congruence_from_channel;
use chronos_drone::FollowRecord;
use chronos_math::stats::{Buckets, Ecdf, Histogram};
use chronos_math::Complex64;
use chronos_rf::hardware::AntennaArray;
use std::cell::OnceCell;
use std::f64::consts::PI;

/// A figure: its name on `run_all`'s command line and its generator.
pub type Figure = (&'static str, fn(&Experiments) -> Vec<Table>);

/// Every figure, in the order `run_all` runs them when given no names.
pub const FIGURES: [Figure; 14] = [
    ("fig03", |_| fig03()),
    ("fig04", |_| fig04()),
    ("fig07a", |x| fig07a(x.floor42())),
    ("fig07b", |x| fig07b(x.floor42())),
    ("fig07c", |x| fig07c(x.floor42())),
    ("fig08a", |x| fig08a(x.floor42())),
    ("fig08b", |x| {
        fig08_localization("fig08b_localization_client", x.floor42(), "0.58", "1.18")
    }),
    ("fig08c", |x| {
        fig08_localization("fig08c_localization_ap", x.floor43(), "0.35", "0.62")
    }),
    ("fig09a", |x| fig09a(x.hop_times())),
    ("fig09b", |_| fig09b(11)),
    ("fig09c", |_| fig09c(12)),
    ("fig10a", |x| fig10a(x.drone())),
    ("fig10b", |x| fig10b(x.drone())),
    ("summary", |x| {
        summary(x.floor42(), x.floor43(), x.hop_times(), x.drone())
    }),
];

/// The experiments the figures share, each run on first use and kept:
///
/// - floor 42 with the 30 cm laptop array: Figs. 7a–7c, 8a, 8b and the
///   summary's ToF, distance and client-array rows;
/// - floor 43 with the 100 cm access-point array: Fig. 8c and the
///   summary's AP-array rows;
/// - 200 band sweeps (seed 7): Fig. 9a and the summary's hop-time row;
/// - one 240-tick drone flight (seed 21): Figs. 10a, 10b and the
///   summary's drone rows.
#[derive(Debug)]
pub struct Experiments {
    pairs: usize,
    floor42: OnceCell<Vec<LinkTrial>>,
    floor43: OnceCell<Vec<LinkTrial>>,
    hop_times: OnceCell<Vec<f64>>,
    drone: OnceCell<Vec<FollowRecord>>,
}

impl Experiments {
    /// Experiments whose testbed sweeps take at most `pairs` placements
    /// per floor (`usize::MAX`: the whole floor, 380 placements on
    /// floor 42 and 383 on floor 43).
    pub fn new(pairs: usize) -> Self {
        Experiments {
            pairs,
            floor42: OnceCell::new(),
            floor43: OnceCell::new(),
            hop_times: OnceCell::new(),
            drone: OnceCell::new(),
        }
    }

    /// The floor-42 laptop-array sweep.
    pub fn floor42(&self) -> &[LinkTrial] {
        self.floor42
            .get_or_init(|| self.sweep(42, AntennaArray::laptop()))
    }

    /// The floor-43 access-point-array sweep.
    pub fn floor43(&self) -> &[LinkTrial] {
        self.floor43
            .get_or_init(|| self.sweep(43, AntennaArray::access_point()))
    }

    /// The band-sweep (hop) times, milliseconds.
    pub fn hop_times(&self) -> &[f64] {
        self.hop_times.get_or_init(|| run_hop_times(7, 200))
    }

    /// The drone flight's per-tick records.
    pub fn drone(&self) -> &[FollowRecord] {
        self.drone.get_or_init(|| run_drone(21, 240))
    }

    fn sweep(&self, seed: u64, array: AntennaArray) -> Vec<LinkTrial> {
        run_accuracy(&AccuracyConfig {
            seed,
            max_pairs: self.pairs,
            array,
            ..Default::default()
        })
    }
}

/// Quantiles sampled when a figure dumps a CDF.
const CDF_POINTS: [f64; 13] = [
    0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0,
];

fn cdf_table(name: &str, series: &[(&str, &[f64])]) -> Table {
    let mut headers = vec!["quantile".to_string()];
    headers.extend(series.iter().map(|(n, _)| n.to_string()));
    let mut t = Table {
        name: name.to_string(),
        headers,
        rows: Vec::new(),
    };
    let ecdfs: Vec<Ecdf> = series.iter().map(|(_, v)| Ecdf::new(v)).collect();
    for q in CDF_POINTS {
        let mut row = vec![format!("{q:.2}")];
        for e in &ecdfs {
            row.push(format!("{:.4}", e.quantile(q)));
        }
        t.row(&row);
    }
    t
}

/// Fig. 3: multi-band phase alignment for a source at 0.6 m (tau = 2 ns).
///
/// For each of the five illustrated bands, lists the candidate delays in
/// `[0, 3]` ns implied by the band's phase; the final row reports the
/// voting solution (the delay where most bands align).
fn fig03() -> Vec<Table> {
    let tau = chronos_math::constants::m_to_ns(0.6);
    let freqs_ghz = [2.412, 2.462, 5.18, 5.3, 5.825];
    let mut t = Table::new("fig03_crt", &["band_ghz", "candidate_delays_ns"]);
    let mut congruences = Vec::new();
    for f in freqs_ghz {
        let h = Complex64::from_polar(1.0, -2.0 * PI * f * 1e9 * tau * 1e-9);
        let c = congruence_from_channel(f * 1e9, h, 1.0);
        congruences.push(c);
        let mut cands = Vec::new();
        let mut x = c.remainder;
        while x <= 3.0 {
            cands.push(format!("{x:.3}"));
            x += c.modulus;
        }
        t.row(&[format!("{f}"), cands.join(" ")]);
    }
    let sol =
        chronos_math::crt::solve_by_voting(&congruences, 10.0, 0.001, 0.02).expect("solution");
    let mut s = Table::new(
        "fig03_solution",
        &["true_tau_ns", "resolved_tau_ns", "votes"],
    );
    s.row(&[
        format!("{tau:.3}"),
        format!("{:.3}", sol.value),
        format!("{}", sol.votes),
    ]);
    println!("{}", t.render());
    println!("{}", s.render());
    vec![t, s]
}

/// Fig. 4: the recovered three-path multipath profile.
fn fig04() -> Vec<Table> {
    let (rows, tof) = run_fig4_profile();
    let mut t = Table::new("fig04_multipath_profile", &["delay_ns", "magnitude"]);
    for (d, m) in rows.iter().filter(|(_, m)| *m > 1e-6) {
        t.row_f64(&[*d, *m], 4);
    }
    let mut s = Table::new("fig04_summary", &["true_first_path_ns", "estimated_tof_ns"]);
    s.row(&[format!("{:.2}", 5.2), format!("{tof:.3}")]);
    println!("{}", t.render());
    println!("{}", s.render());
    vec![t, s]
}

/// Fig. 7(a): CDF of time-of-flight error, LOS vs NLOS.
fn fig07a(trials: &[LinkTrial]) -> Vec<Table> {
    let (los, nlos) = split_errors(trials, |t| t.tof_errors_ns.clone());
    let t = cdf_table(
        "fig07a_tof_error_cdf",
        &[("los_ns", &los), ("nlos_ns", &nlos)],
    );
    let sl = summarize(&los);
    let sn = summarize(&nlos);
    let mut s = Table::new(
        "fig07a_summary",
        &[
            "setting",
            "median_ns",
            "p95_ns",
            "paper_median_ns",
            "paper_p95_ns",
            "n",
        ],
    );
    s.row(&[
        "LOS".into(),
        format!("{:.3}", sl.median),
        format!("{:.3}", sl.p95),
        "0.47".into(),
        "1.96".into(),
        format!("{}", sl.n),
    ]);
    s.row(&[
        "NLOS".into(),
        format!("{:.3}", sn.median),
        format!("{:.3}", sn.p95),
        "0.69".into(),
        "4.01".into(),
        format!("{}", sn.n),
    ]);
    println!("{}", s.render());
    vec![t, s]
}

/// Fig. 7(b): representative multipath profiles + the sparsity statistic.
fn fig07b(trials: &[LinkTrial]) -> Vec<Table> {
    let counts: Vec<f64> = trials
        .iter()
        .flat_map(|t| t.peak_counts.iter().map(|c| *c as f64))
        .collect();
    let s = summarize(&counts);
    let mut t = Table::new(
        "fig07b_sparsity",
        &["mean_dominant_peaks", "std", "paper_mean", "paper_std", "n"],
    );
    t.row(&[
        format!("{:.2}", s.mean),
        format!("{:.2}", s.std),
        "5.05".into(),
        "1.95".into(),
        format!("{}", s.n),
    ]);
    println!("{}", t.render());
    vec![t]
}

/// Fig. 7(c): histograms of propagation delay vs packet detection delay.
fn fig07c(trials: &[LinkTrial]) -> Vec<Table> {
    let delays: Vec<f64> = trials
        .iter()
        .flat_map(|t| t.detection_delays_ns.clone())
        .collect();
    let tofs: Vec<f64> = trials.iter().map(|t| t.true_tof_ns).collect();
    let mut hist_d = Histogram::new(0.0, 300.0, 60);
    hist_d.add_all(&delays);
    let mut hist_t = Histogram::new(0.0, 300.0, 60);
    hist_t.add_all(&tofs);
    let mut t = Table::new(
        "fig07c_delay_histogram",
        &[
            "bin_center_ns",
            "frac_detection_delay",
            "frac_propagation_delay",
        ],
    );
    for ((center, fd), (_, ft)) in hist_d.normalized().iter().zip(hist_t.normalized()) {
        if *fd > 0.0 || ft > 0.0 {
            t.row_f64(&[*center, *fd, ft], 4);
        }
    }
    let s = summarize(&delays);
    let ratio = s.median / chronos_math::stats::median(&tofs);
    let mut sm = Table::new(
        "fig07c_summary",
        &[
            "median_detection_ns",
            "std_ns",
            "paper_median_ns",
            "paper_std_ns",
            "ratio_to_tof",
        ],
    );
    sm.row(&[
        format!("{:.1}", s.median),
        format!("{:.2}", s.std),
        "177".into(),
        "24.76".into(),
        format!("{ratio:.1}x"),
    ]);
    println!("{}", sm.render());
    vec![t, sm]
}

/// Fig. 8(a): distance error vs ground-truth distance buckets.
fn fig08a(trials: &[LinkTrial]) -> Vec<Table> {
    let edges = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 15.0];
    let mut los_b = Buckets::new(&edges);
    let mut nlos_b = Buckets::new(&edges);
    for tr in trials {
        for e in &tr.distance_errors_m {
            if tr.los {
                los_b.add(tr.true_distance_m, *e);
            } else {
                nlos_b.add(tr.true_distance_m, *e);
            }
        }
    }
    let mut t = Table::new(
        "fig08a_distance_error",
        &[
            "bucket_m",
            "los_mean_m",
            "los_std_m",
            "los_n",
            "nlos_mean_m",
            "nlos_std_m",
            "nlos_n",
        ],
    );
    for (l, n) in los_b.rows().iter().zip(nlos_b.rows()) {
        t.row(&[
            l.0.clone(),
            format!("{:.3}", l.1),
            format!("{:.3}", l.2),
            format!("{}", l.3),
            format!("{:.3}", n.1),
            format!("{:.3}", n.2),
            format!("{}", n.3),
        ]);
    }
    println!("{}", t.render());
    vec![t]
}

/// Figs. 8(b)/8(c): localization error CDF of one testbed sweep.
fn fig08_localization(
    name: &str,
    trials: &[LinkTrial],
    paper_los: &str,
    paper_nlos: &str,
) -> Vec<Table> {
    let (los, nlos) = split_errors(trials, |t| t.localization_error_m.into_iter().collect());
    let t = cdf_table(
        &format!("{name}_cdf"),
        &[("los_m", &los), ("nlos_m", &nlos)],
    );
    let sl = summarize(&los);
    let sn = summarize(&nlos);
    let mut s = Table::new(
        &format!("{name}_summary"),
        &["setting", "median_m", "paper_median_m", "n"],
    );
    s.row(&[
        "LOS".into(),
        format!("{:.3}", sl.median),
        paper_los.into(),
        format!("{}", sl.n),
    ]);
    s.row(&[
        "NLOS".into(),
        format!("{:.3}", sn.median),
        paper_nlos.into(),
        format!("{}", sn.n),
    ]);
    println!("{}", s.render());
    vec![t, s]
}

/// Fig. 9(a): CDF of band-sweep (hop) time.
fn fig09a(times: &[f64]) -> Vec<Table> {
    let t = cdf_table("fig09a_hop_time_cdf", &[("hop_ms", times)]);
    let s = summarize(times);
    let mut sm = Table::new("fig09a_summary", &["median_ms", "paper_median_ms", "n"]);
    sm.row(&[format!("{:.1}", s.median), "84".into(), format!("{}", s.n)]);
    println!("{}", sm.render());
    vec![t, sm]
}

/// Fig. 9(b): video download/play trace around a localization at t = 6 s.
fn fig09b(seed: u64) -> Vec<Table> {
    let samples = run_video_trace(seed);
    let mut t = Table::new(
        "fig09b_video_trace",
        &["t_s", "downloaded_kb", "played_kb", "stalled"],
    );
    for s in samples.iter().step_by(10) {
        t.row(&[
            format!("{:.2}", s.t.as_secs_f64()),
            format!("{:.0}", s.downloaded_kb),
            format!("{:.0}", s.played_kb),
            format!("{}", s.stalled as u8),
        ]);
    }
    let stalled = chronos_link::traffic::VideoModel::has_stall(&samples);
    let mut sm = Table::new("fig09b_summary", &["stall_observed", "paper_stall"]);
    sm.row(&[format!("{stalled}"), "false".into()]);
    println!("{}", sm.render());
    vec![t, sm]
}

/// Fig. 9(c): TCP throughput trace around the same localization.
fn fig09c(seed: u64) -> Vec<Table> {
    let samples = run_tcp_trace(seed);
    let mut t = Table::new("fig09c_tcp_trace", &["t_s", "throughput_mbps"]);
    for s in &samples {
        t.row(&[
            format!("{:.0}", s.t.as_secs_f64()),
            format!("{:.3}", s.throughput_mbps),
        ]);
    }
    // Dip at the 7 s window (contains the t=6 s outage).
    let steady = samples
        .iter()
        .filter(|s| s.t.as_secs_f64() < 6.0)
        .map(|s| s.throughput_mbps)
        .fold(0.0, f64::max);
    let dip = samples
        .iter()
        .find(|s| (s.t.as_secs_f64() - 7.0).abs() < 0.01)
        .map(|s| s.throughput_mbps)
        .unwrap_or(f64::NAN);
    let loss_pct = (steady - dip) / steady * 100.0;
    let mut sm = Table::new("fig09c_summary", &["dip_percent", "paper_dip_percent"]);
    sm.row(&[format!("{loss_pct:.1}"), "6.5".into()]);
    println!("{}", sm.render());
    vec![t, sm]
}

/// The drone's deviation from its 1.4 m target distance per tick after
/// the take-off (the first 30 ticks, or a quarter of a shorter flight),
/// centimeters.
fn drone_deviations_cm(records: &[FollowRecord]) -> Vec<f64> {
    let warmup = 30.min(records.len() / 4);
    chronos_drone::FollowSim::deviations(records, 1.4, warmup)
        .iter()
        .map(|d| d * 100.0)
        .collect()
}

/// Fig. 10(a): CDF of the drone's deviation from the 1.4 m target.
fn fig10a(records: &[FollowRecord]) -> Vec<Table> {
    let dev_cm = drone_deviations_cm(records);
    let t = cdf_table("fig10a_drone_deviation_cdf", &[("deviation_cm", &dev_cm)]);
    let s = summarize(&dev_cm);
    let rmse = chronos_math::stats::rms(&dev_cm);
    let mut sm = Table::new(
        "fig10a_summary",
        &[
            "median_cm",
            "rmse_cm",
            "paper_median_cm",
            "paper_rmse_cm",
            "n",
        ],
    );
    sm.row(&[
        format!("{:.2}", s.median),
        format!("{rmse:.2}"),
        "4.17".into(),
        "4.2".into(),
        format!("{}", s.n),
    ]);
    println!("{}", sm.render());
    vec![t, sm]
}

/// Fig. 10(b): the drone/user trajectory dump.
fn fig10b(records: &[FollowRecord]) -> Vec<Table> {
    let mut t = Table::new(
        "fig10b_trajectory",
        &[
            "t_s",
            "user_x",
            "user_y",
            "drone_x",
            "drone_y",
            "distance_m",
        ],
    );
    for r in records.iter().step_by(4) {
        t.row_f64(
            &[
                r.t_s,
                r.user.x,
                r.user.y,
                r.drone.x,
                r.drone.y,
                r.true_distance_m,
            ],
            3,
        );
    }
    println!("trajectory: {} rows (see CSV)", t.rows.len());
    vec![t]
}

/// The headline table: every §1 bullet of the paper beside the same
/// samples Figs. 7a, 8b, 8c, 9a and 10a read.
fn summary(
    floor42: &[LinkTrial],
    floor43: &[LinkTrial],
    hop_times: &[f64],
    drone: &[FollowRecord],
) -> Vec<Table> {
    let median = |xs: &[f64]| summarize(xs).median;
    let median_cm = |xs: &[f64]| median(xs) * 100.0;
    let localization =
        |trials| split_errors(trials, |tr| tr.localization_error_m.into_iter().collect());
    let (tof_los, tof_nlos) = split_errors(floor42, |tr| tr.tof_errors_ns.clone());
    let (d_los, d_nlos) = split_errors(floor42, |tr| tr.distance_errors_m.clone());
    let (client_los, client_nlos) = localization(floor42);
    let (ap_los, ap_nlos) = localization(floor43);
    let dev_cm = drone_deviations_cm(drone);
    let rms_cm = chronos_math::stats::rms(&dev_cm);
    // (metric, paper, measured, decimals, unit)
    let rows = [
        ("median ToF error, LOS", "0.47", median(&tof_los), 2, "ns"),
        ("median ToF error, NLOS", "0.69", median(&tof_nlos), 2, "ns"),
        (
            "median distance error, LOS",
            "14.1",
            median_cm(&d_los),
            1,
            "cm",
        ),
        (
            "median distance error, NLOS",
            "20.7",
            median_cm(&d_nlos),
            1,
            "cm",
        ),
        (
            "median localization LOS, client 30cm",
            "58",
            median_cm(&client_los),
            0,
            "cm",
        ),
        (
            "median localization NLOS, client 30cm",
            "118",
            median_cm(&client_nlos),
            0,
            "cm",
        ),
        (
            "median localization LOS, AP 100cm",
            "35",
            median_cm(&ap_los),
            0,
            "cm",
        ),
        (
            "median localization NLOS, AP 100cm",
            "62",
            median_cm(&ap_nlos),
            0,
            "cm",
        ),
        ("median band-sweep time", "84", median(hop_times), 0, "ms"),
        ("drone distance RMSE", "4.2", rms_cm, 1, "cm"),
        ("drone median deviation", "4.17", median(&dev_cm), 1, "cm"),
    ];
    let mut t = Table::new("summary_table", &["metric", "paper", "measured", "unit"]);
    for (metric, paper, measured, decimals, unit) in rows {
        t.row(&[
            metric.into(),
            paper.into(),
            format!("{measured:.decimals$}"),
            unit.into(),
        ]);
    }
    println!("{}", t.render());
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig03_tables_well_formed() {
        let tables = fig03();
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows.len(), 5);
        // Resolved value ~ 2 ns.
        let resolved: f64 = tables[1].rows[0][1].parse().unwrap();
        assert!((resolved - 2.0).abs() < 0.05);
    }

    #[test]
    fn fig09a_median_near_84() {
        let tables = fig09a(&run_hop_times(5, 15));
        let med: f64 = tables[1].rows[0][0].parse().unwrap();
        assert!((70.0..100.0).contains(&med), "median {med}");
    }

    #[test]
    fn fig09b_no_stall() {
        let tables = fig09b(6);
        assert_eq!(tables[1].rows[0][0], "false");
    }

    #[test]
    fn fig09c_dip_in_range() {
        let tables = fig09c(7);
        let dip: f64 = tables[1].rows[0][0].parse().unwrap();
        assert!((2.0..15.0).contains(&dip), "dip {dip}%");
    }

    #[test]
    fn summary_reads_the_hop_and_drone_samples_of_figs_9a_and_10a() {
        let hops = run_hop_times(5, 15);
        // A flight shorter than the 30-tick take-off: the summary must
        // skip the same ticks as Fig. 10a.
        let drone = run_drone(21, 16);
        let trial = LinkTrial {
            true_distance_m: 3.0,
            los: true,
            tof_errors_ns: vec![0.1],
            distance_errors_m: vec![0.03],
            localization_error_m: Some(0.2),
            peak_counts: vec![],
            detection_delays_ns: vec![],
            true_tof_ns: 10.0,
        };
        let trials = [
            trial.clone(),
            LinkTrial {
                los: false,
                ..trial
            },
        ];
        let table = &summary(&trials, &trials, &hops, &drone)[0];
        let cell = |metric: &str| -> f64 {
            let row = table.rows.iter().find(|r| r[0] == metric).expect(metric);
            row[2].parse().expect("number")
        };
        let fig09a: f64 = fig09a(&hops)[1].rows[0][0].parse().unwrap();
        let fig10a = &fig10a(&drone)[1].rows[0];
        let (median, rmse): (f64, f64) = (fig10a[0].parse().unwrap(), fig10a[1].parse().unwrap());
        // Each pair agrees to the summary's precision (1 ms, 0.1 cm),
        // widened by the figure's own rounding.
        assert!((cell("median band-sweep time") - fig09a).abs() <= 0.55);
        assert!((cell("drone distance RMSE") - rmse).abs() <= 0.055);
        assert!((cell("drone median deviation") - median).abs() <= 0.055);
    }

    #[test]
    fn figure_names_are_unique() {
        let mut names: Vec<&str> = FIGURES.iter().map(|f| f.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FIGURES.len());
    }

    #[test]
    fn cdf_table_monotone() {
        let t = cdf_table("test", &[("a", &[1.0, 2.0, 3.0, 4.0, 5.0])]);
        let vals: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(vals.windows(2).all(|w| w[0] <= w[1]));
    }
}
