//! Guards on the host normalization: the reference kernel stays outside
//! the workspace, and normalized metrics depend on how fast the program
//! runs relative to the kernel, not on how fast the host is.

use perfbench::report::{end_to_end, EndToEndSamples};

#[test]
fn reference_kernel_imports_nothing_from_the_workspace() {
    let src = include_str!("../src/refkernel.rs");
    for line in src.lines().map(str::trim) {
        if line.starts_with("use ") || line.starts_with("pub use ") {
            assert!(
                line.contains(" std::"),
                "the reference kernel may use only std: {line}"
            );
        }
        for banned in ["chronos", "crate::", "super::", "rand::", "extern crate"] {
            assert!(
                line.starts_with("//") || !line.contains(banned),
                "the reference kernel names {banned}: {line}"
            );
        }
    }
}

fn synthetic() -> EndToEndSamples {
    EndToEndSamples {
        setup_s: vec![0.41, 0.39, 0.47, 0.40, 0.44],
        setup_ref_s: vec![6.1e-4, 5.9e-4, 7.2e-4, 6.0e-4, 6.6e-4],
        step_s: (0..150)
            .map(|i| 0.028 + 0.004 * ((i * 7) % 11) as f64 / 11.0)
            .collect(),
        step_ref_s: (0..150)
            .map(|i| 6.0e-4 + 1.5e-4 * ((i * 5) % 13) as f64 / 13.0)
            .collect(),
        fixes: 131,
        quality_fixes: 120,
        quality_attempts: 140,
        errors_m: (0..420).map(|i| 0.01 + 0.001 * i as f64).collect(),
    }
}

fn scaled(s: &EndToEndSamples, k: f64) -> EndToEndSamples {
    let times = |v: &[f64]| v.iter().map(|x| x * k).collect::<Vec<_>>();
    EndToEndSamples {
        setup_s: times(&s.setup_s),
        setup_ref_s: times(&s.setup_ref_s),
        step_s: times(&s.step_s),
        step_ref_s: times(&s.step_ref_s),
        ..s.clone()
    }
}

#[test]
fn a_uniformly_slower_host_leaves_every_normalized_metric_unchanged() {
    let base = end_to_end(&synthetic(), 6.0);
    for k in [0.5, 1.37, 2.0] {
        let slow = end_to_end(&scaled(&synthetic(), k), 6.0);
        for (a, b) in base.iter().zip(&slow) {
            assert_eq!(a.name, b.name);
            assert!(
                (a.value - b.value).abs() <= 1e-12 * a.value.abs(),
                "{} moved from {} to {} on a host {k}x slower",
                a.name,
                a.value,
                b.value
            );
        }
    }
}

#[test]
fn a_slower_program_on_the_same_host_reads_slower() {
    let base = synthetic();
    let mut slow = base.clone();
    slow.step_s.iter_mut().for_each(|s| *s *= 2.0);
    let value = |s: &EndToEndSamples, name: &str| {
        end_to_end(s, 6.0)
            .into_iter()
            .find(|m| m.name == name)
            .expect("metric")
            .value
    };
    let ratio = value(&slow, "step_ms_p50") / value(&base, "step_ms_p50");
    assert!((ratio - 2.0).abs() < 1e-12, "step_ms_p50 ratio {ratio}");
    let ratio = value(&slow, "fixes_per_s") / value(&base, "fixes_per_s");
    assert!((ratio - 0.5).abs() < 1e-12, "fixes_per_s ratio {ratio}");
}
