//! Versioned shape-validation for `results/*.json`.
//!
//! The report and the diff tooling consume experiment JSON that may have
//! been produced by an older build, truncated by a killed run, or
//! bit-rotted at rest. Rather than letting a malformed file panic deep
//! inside an extractor, every file is validated against the expected
//! top-level shape for its experiment id on load; invalid files are
//! skipped with a WARN and their dashboard rows grade MISSING.
//!
//! The schema is deliberately shallow — top-level keys only. Extractors
//! already tolerate missing *nested* fields (they return `None`), so the
//! schema's job is to catch wholesale damage: wrong file, wrong era,
//! truncation, corruption.

use crate::experiments::find;
use serde_json::Value;

/// Version of the results-file shape this build writes and expects.
/// Bump when an experiment's top-level JSON layout changes.
pub const RESULTS_SCHEMA_VERSION: u32 = 1;

/// Validates one experiment's JSON against the expected top-level shape:
/// an object carrying the `required_keys` of the experiment's
/// [`EXPERIMENTS`](crate::experiments::EXPERIMENTS) entry. Ids absent from
/// the table (e.g. from a newer build) are only required to be JSON
/// objects. `Err` carries a human-readable reason suitable for a WARN
/// line.
pub fn validate(id: &str, value: &Value) -> Result<(), String> {
    let Some(object) = value.as_object() else {
        return Err(format!(
            "expected a JSON object at the top level, found {}",
            json_kind(value)
        ));
    };
    let required = find(id).map_or(&[][..], |experiment| experiment.required_keys);
    let missing: Vec<&str> = required
        .iter()
        .copied()
        .filter(|k| !object.iter().any(|(key, _)| key == k))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "missing required key(s) {} (schema v{RESULTS_SCHEMA_VERSION})",
            missing.join(", ")
        ));
    }
    // The optional "streaming" telemetry block (written by
    // `repro --streaming`) has a shape of its own; validate it when
    // present so a truncated streaming run is caught on load.
    if let Some(streaming) = value.get("streaming") {
        let Some(block) = streaming.as_object() else {
            return Err(format!(
                "\"streaming\" should be an object, found {}",
                json_kind(streaming)
            ));
        };
        let missing: Vec<&str> = STREAMING_REQUIRED_KEYS
            .iter()
            .copied()
            .filter(|k| !block.iter().any(|(key, _)| key == k))
            .collect();
        if !missing.is_empty() {
            return Err(format!(
                "\"streaming\" block missing key(s) {} (schema v{RESULTS_SCHEMA_VERSION})",
                missing.join(", ")
            ));
        }
    }
    Ok(())
}

/// Keys every `"streaming"` telemetry block must carry.
pub const STREAMING_REQUIRED_KEYS: [&str; 4] = [
    "quantile_error_bound",
    "quarantined_chunks",
    "shards",
    "spill_bytes",
];

fn json_kind(value: &Value) -> &'static str {
    match value {
        Value::Null => "null",
        Value::Bool(_) => "a boolean",
        Value::Number(_) => "a number",
        Value::String(_) => "a string",
        Value::Array(_) => "an array",
        Value::Object(_) => "an object",
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn valid_object_passes() {
        let v = json!({"free": {}, "paid": {}});
        assert!(validate("fig11", &v).is_ok());
    }

    #[test]
    fn missing_key_is_named_in_the_error() {
        let v = json!({"free": {}});
        let err = validate("fig11", &v).unwrap_err();
        assert!(err.contains("paid"), "{err}");
    }

    #[test]
    fn non_object_is_rejected() {
        for v in [json!(null), json!(3), json!("x"), json!([1, 2])] {
            assert!(validate("fig11", &v).is_err(), "{v:?}");
        }
    }

    #[test]
    fn unknown_ids_only_require_an_object() {
        assert!(validate("fig99", &json!({})).is_ok());
        assert!(validate("fig99", &json!([])).is_err());
    }

    #[test]
    fn streaming_block_is_validated_when_present() {
        let good = json!({
            "stores": Vec::<u64>::new(),
            "streaming": {
                "shards": 4,
                "spill_bytes": 1024,
                "quarantined_chunks": 0,
                "quantile_error_bound": 0.0,
            },
        });
        assert!(validate("fig3", &good).is_ok());

        let truncated = json!({
            "stores": Vec::<u64>::new(),
            "streaming": { "shards": 4 },
        });
        let err = validate("fig3", &truncated).unwrap_err();
        assert!(err.contains("spill_bytes"), "{err}");

        let wrong_kind = json!({ "stores": Vec::<u64>::new(), "streaming": 7 });
        let err = validate("fig3", &wrong_kind).unwrap_err();
        assert!(err.contains("streaming"), "{err}");

        // Absent block stays valid — the in-memory path never writes it.
        assert!(validate("fig3", &json!({"stores": Vec::<u64>::new()})).is_ok());
    }
}
