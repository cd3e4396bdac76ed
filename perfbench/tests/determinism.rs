//! The benchmark's inputs come from the seed alone: a seed replays its
//! check prefix exactly, traced or not, and another seed changes it.

use perfbench::office::OfficeRig;
use perfbench::{prefix, Workload};

#[test]
fn a_seed_replays_its_prefix_and_another_seed_changes_it() {
    for w in Workload::ALL {
        let a = prefix(w, 7);
        assert_eq!(
            a.traced_digest,
            a.untraced_digest,
            "{}: tracing changed the outputs",
            w.name()
        );
        let b = prefix(w, 7);
        assert_eq!(a, b, "{}: seed 7 did not replay", w.name());
        let c = prefix(w, 8);
        assert_ne!(
            a.traced_digest,
            c.traced_digest,
            "{}: the seed does not reach the inputs",
            w.name()
        );
    }
}

#[test]
fn office_floor_42_has_the_documented_placements() {
    let rig = OfficeRig::build(42);
    assert_eq!(rig.placements(), 380);
    assert_eq!(rig.los_placements(), 70);
}
