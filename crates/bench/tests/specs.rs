//! Spec round-trip and golden-fixture guard.
//!
//! Every shipped preset must (a) serialize → deserialize → compare equal,
//! and (b) serialize to exactly the JSON pinned under `tests/specs/` — the
//! fixtures are the compatibility contract of the spec format. When a format
//! or preset change is intentional, regenerate the fixtures with:
//!
//! ```text
//! BNECK_REGEN_SPECS=1 cargo test -p bneck-bench --test specs
//! ```
//!
//! (Object keys keep struct-field declaration order in the offline serde
//! shim; real `serde_json` would sort map keys but structs serialize in
//! field order there too, so the fixtures survive a swap to the real
//! crates.)

use bneck_workload::spec::{ExperimentSpec, PAPER_FULL, PRESET_NAMES};
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/specs")
}

fn all_preset_names() -> Vec<&'static str> {
    PRESET_NAMES
        .iter()
        .chain(std::iter::once(&PAPER_FULL))
        .copied()
        .collect()
}

#[test]
fn every_preset_round_trips_through_json() {
    for name in all_preset_names() {
        let spec = ExperimentSpec::preset(name).expect("shipped preset resolves");
        let text = serde_json::to_string_pretty(&spec).expect("serialization is infallible");
        let back: ExperimentSpec = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("preset {name} does not deserialize: {e}"));
        assert_eq!(back, spec, "round-trip changed preset {name}");
        // Compact form round-trips too.
        let compact = serde_json::to_string(&spec).expect("serialization is infallible");
        let back: ExperimentSpec = serde_json::from_str(&compact).unwrap();
        assert_eq!(back, spec);
        // Spec files written when scale specs had a `shards` field keep
        // parsing: unknown keys are ignored.
        let old = text.replace("\"validate\": true", "\"validate\": true, \"shards\": [1]");
        assert_eq!(serde_json::from_str::<ExperimentSpec>(&old).unwrap(), spec);
    }
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "BNECK_REGEN_SPECS opts into rewriting fixtures; never affects results"
)]
fn golden_fixtures_pin_the_spec_format() {
    let dir = fixture_dir();
    let regen = std::env::var_os("BNECK_REGEN_SPECS").is_some();
    if regen {
        std::fs::create_dir_all(&dir).expect("create fixture dir");
    }
    for name in all_preset_names() {
        let spec = ExperimentSpec::preset(name).expect("shipped preset resolves");
        let text = serde_json::to_string_pretty(&spec).expect("serialization is infallible");
        let path = dir.join(format!("{name}.json"));
        if regen {
            std::fs::write(&path, &text).expect("write fixture");
            continue;
        }
        let pinned = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
        assert_eq!(
            text, pinned,
            "preset {name} no longer serializes to its pinned fixture \
             (BNECK_REGEN_SPECS=1 regenerates after an intentional change)"
        );
        // The pinned document deserializes back to the preset.
        let back: ExperimentSpec = serde_json::from_str(&pinned).unwrap();
        assert_eq!(back, spec);
    }
}

#[test]
fn every_fixture_file_is_a_shipped_preset_and_checks() {
    let names = all_preset_names();
    let mut seen = 0usize;
    for entry in std::fs::read_dir(fixture_dir()).expect("fixture dir exists") {
        let path = entry.expect("read dir entry").path();
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("utf-8 fixture name")
            .to_string();
        assert!(
            names.contains(&stem.as_str()),
            "stray fixture {} has no matching preset",
            path.display()
        );
        let spec: ExperimentSpec =
            serde_json::from_str(&std::fs::read_to_string(&path).expect("read fixture"))
                .unwrap_or_else(|e| panic!("fixture {} does not parse: {e}", path.display()));
        spec.check()
            .unwrap_or_else(|e| panic!("fixture {} does not check: {e}", path.display()));
        seen += 1;
    }
    assert_eq!(seen, names.len(), "one fixture per shipped preset");
}
