//! The counter table is the one vocabulary every consumer of a
//! `SimProfile` shares. The committed bench reference spells it out
//! as the keys of each `profile` object, so a counter added, removed or
//! reordered without re-blessing that reference fails here, with no
//! simulation needed.

use taskstream::SimProfile;

const REFERENCE: &str = include_str!("../goldens/BENCH_sweep.tiny.json");

/// Keys of every `"profile": {...}` object in `json`, in order. A
/// profile object holds only integers and integer arrays, so every
/// quoted string inside it is a key.
fn profile_keys(json: &str) -> Vec<Vec<&str>> {
    json.split("\"profile\": {")
        .skip(1)
        .map(|rest| {
            let body = &rest[..rest.find('}').expect("profile object closes")];
            body.split('"').skip(1).step_by(2).collect()
        })
        .collect()
}

#[test]
fn profile_names_match_the_bench_reference() {
    let objects = profile_keys(REFERENCE);
    // The whole-run profile plus one per experiment.
    assert!(objects.len() > 20, "only {} profile objects", objects.len());
    for keys in objects {
        assert_eq!(keys, SimProfile::NAMES);
    }
}
