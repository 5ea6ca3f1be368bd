//! The versioned model-artifact envelope.
//!
//! Every persisted model file is one JSON object:
//!
//! ```json
//! {
//!   "format_version": 1,
//!   "method": "<registry tag, e.g. \"rdrp\" or \"tpm-sl\">",
//!   "body": { ... method-specific payload ... },
//!   "checksum": "<hex FNV-1a-64 of the body's compact JSON>"
//! }
//! ```
//!
//! The `method` tag doubles as the registry name
//! ([`crate::methods::METHODS`]), so a loader can reconstruct the right
//! model type from the file alone — no out-of-band `--kind` flag. The
//! `format_version` gates schema evolution: a reader refuses versions it
//! does not understand instead of misparsing them. The `checksum` guards
//! *integrity*: a bit flipped inside the body after the file was written
//! surfaces as [`PersistError::Checksum`] at load, not as a model that
//! silently scores differently. Artifacts written before the field
//! existed still load (the check runs only when the field is present),
//! which keeps the committed golden fixtures valid.

use crate::persist::PersistError;
use tinyjson::{FromJson, JsonError, ToJson, Value};

/// The artifact schema version binary (two-arm) models read and write.
/// Kept at 1 so pre-refactor binary artifacts — including the committed
/// golden fixtures — stay byte-for-byte stable.
pub const FORMAT_VERSION: u64 = 1;

/// The schema version for K-arm artifacts: identical to v1 plus an
/// `n_arms` field (total arms *including* control) between
/// `format_version` and `method`. Binary artifacts stay on v1; readers
/// accept both and treat a v1 file as `n_arms = 2`.
pub const KARM_FORMAT_VERSION: u64 = 2;

/// Hex FNV-1a-64 of a body's compact JSON rendering — the integrity
/// stamp [`encode`] writes and [`decode`] verifies.
pub fn body_checksum(body: &Value) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in tinyjson::to_string(body).as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

/// Wraps a method body in the versioned envelope.
pub fn encode(method: &str, body: Value) -> Value {
    let checksum = body_checksum(&body);
    Value::Obj(vec![
        ("format_version".to_string(), FORMAT_VERSION.to_json()),
        ("method".to_string(), method.to_string().to_json()),
        ("body".to_string(), body),
        ("checksum".to_string(), checksum.to_json()),
    ])
}

/// Wraps a K-arm method body in the v2 envelope carrying `n_arms`.
pub fn encode_with_arms(method: &str, n_arms: u8, body: Value) -> Value {
    let checksum = body_checksum(&body);
    Value::Obj(vec![
        ("format_version".to_string(), KARM_FORMAT_VERSION.to_json()),
        ("n_arms".to_string(), u64::from(n_arms).to_json()),
        ("method".to_string(), method.to_string().to_json()),
        ("body".to_string(), body),
        ("checksum".to_string(), checksum.to_json()),
    ])
}

/// Total arm count (including control) declared by an envelope: the v2
/// `n_arms` field, or 2 for a v1 (binary) artifact.
///
/// # Errors
/// [`PersistError::Format`] when a v2 envelope's `n_arms` is missing,
/// non-integer, or below 2.
pub fn artifact_n_arms(v: &Value) -> Result<u8, PersistError> {
    if u64::from_json(v.fetch("format_version")) != Ok(KARM_FORMAT_VERSION) {
        return Ok(2);
    }
    let n = u64::from_json(v.fetch("n_arms"))
        .map_err(|_| PersistError::Format("v2 artifact has no integer n_arms field".to_string()))?;
    if !(2..=u64::from(u8::MAX)).contains(&n) {
        return Err(PersistError::Format(format!(
            "artifact n_arms {n} out of range 2..=255"
        )));
    }
    Ok(n as u8)
}

/// Unwraps the envelope, returning the method tag and the body.
///
/// # Errors
/// [`PersistError::Format`] when the value is not an envelope or its
/// `format_version` is unsupported; [`PersistError::Checksum`] when a
/// `checksum` field is present and does not match the body.
pub fn decode(v: &Value) -> Result<(String, &Value), PersistError> {
    let version = u64::from_json(v.fetch("format_version")).map_err(|_| {
        PersistError::Format(
            "not a model artifact: missing or non-integer format_version".to_string(),
        )
    })?;
    if version != FORMAT_VERSION && version != KARM_FORMAT_VERSION {
        return Err(PersistError::Format(format!(
            "unsupported artifact format_version {version} (this build reads \
             {FORMAT_VERSION} and {KARM_FORMAT_VERSION})"
        )));
    }
    let method = String::from_json(v.fetch("method"))
        .map_err(|_| PersistError::Format("artifact has no method tag".to_string()))?;
    let body = v.fetch("body");
    if matches!(body, Value::Null) {
        return Err(PersistError::Format(format!(
            "artifact {method:?} has no body"
        )));
    }
    match v.fetch("checksum") {
        // Pre-checksum artifacts carry no stamp; nothing to verify.
        Value::Null => {}
        stamp => {
            let expected = String::from_json(stamp).map_err(|_| {
                PersistError::Format("artifact checksum is not a string".to_string())
            })?;
            let computed = body_checksum(body);
            if expected != computed {
                return Err(PersistError::Checksum { expected, computed });
            }
        }
    }
    Ok((method, body))
}

/// Re-serializes an envelope to the pretty JSON written on disk.
pub fn render(method: &str, body: Value) -> String {
    tinyjson::to_string_pretty(&encode(method, body))
}

/// [`render`] for the v2 K-arm envelope.
pub fn render_with_arms(method: &str, n_arms: u8, body: Value) -> String {
    tinyjson::to_string_pretty(&encode_with_arms(method, n_arms, body))
}

/// Shared body shape for the `*-mc` ablation artifacts: the wrapped
/// model plus the MC-sweep hyperparameters the scorer needs.
pub(crate) fn mc_body(model: Value, mc_passes: usize, std_floor: f64) -> Value {
    Value::Obj(vec![
        ("model".to_string(), model),
        ("mc_passes".to_string(), mc_passes.to_json()),
        ("std_floor".to_string(), std_floor.to_json()),
    ])
}

/// Decodes a [`mc_body`] back into its parts.
pub(crate) fn mc_body_parts(body: &Value) -> Result<(&Value, usize, f64), JsonError> {
    let model = body.fetch("model");
    let mc_passes = usize::from_json(body.fetch("mc_passes"))?;
    let std_floor = f64::from_json(body.fetch("std_floor"))?;
    Ok((model, mc_passes, std_floor))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_tag_and_body() {
        let body = Value::Obj(vec![("x".to_string(), 1.5.to_json())]);
        let v = encode("rdrp", body.clone());
        let (method, got) = decode(&v).unwrap();
        assert_eq!(method, "rdrp");
        assert_eq!(tinyjson::to_string(got), tinyjson::to_string(&body));
    }

    #[test]
    fn v2_envelope_roundtrips_and_declares_arms() {
        let body = Value::Obj(vec![("arms".to_string(), Value::Arr(vec![]))]);
        let v = encode_with_arms("tpm-sl", 4, body);
        let (method, _) = decode(&v).unwrap();
        assert_eq!(method, "tpm-sl");
        assert_eq!(artifact_n_arms(&v).unwrap(), 4);
        // A v1 envelope is implicitly binary.
        let v1 = encode("tpm-sl", Value::Obj(vec![]));
        assert_eq!(artifact_n_arms(&v1).unwrap(), 2);
    }

    #[test]
    fn v2_envelope_requires_a_sane_n_arms() {
        let mut v = encode_with_arms("rdrp", 3, Value::Obj(vec![]));
        {
            let Value::Obj(fields) = &mut v else {
                unreachable!()
            };
            fields[1].1 = 1u64.to_json(); // n_arms = 1: no treatment arm
        }
        assert!(matches!(artifact_n_arms(&v), Err(PersistError::Format(_))));
        {
            let Value::Obj(fields) = &mut v else {
                unreachable!()
            };
            fields.remove(1); // missing entirely
        }
        assert!(artifact_n_arms(&v).is_err());
    }

    #[test]
    fn rejects_future_format_version() {
        let mut v = encode("rdrp", Value::Null);
        let Value::Obj(fields) = &mut v else {
            unreachable!()
        };
        fields[0].1 = 99u64.to_json();
        let err = decode(&v).unwrap_err();
        assert!(matches!(err, PersistError::Format(_)), "{err:?}");
        assert!(err.to_string().contains("format_version 99"), "{err}");
    }

    #[test]
    fn tampered_body_fails_the_checksum() {
        let mut v = encode("rdrp", Value::Obj(vec![("x".to_string(), 1.5.to_json())]));
        let Value::Obj(fields) = &mut v else {
            unreachable!()
        };
        // Field 2 is the body; swap in a different (still valid) payload.
        fields[2].1 = Value::Obj(vec![("x".to_string(), 2.5.to_json())]);
        let err = decode(&v).unwrap_err();
        assert!(matches!(err, PersistError::Checksum { .. }), "{err:?}");
    }

    #[test]
    fn pre_checksum_envelopes_still_decode() {
        let mut v = encode("rdrp", Value::Obj(vec![("x".to_string(), 1.5.to_json())]));
        let Value::Obj(fields) = &mut v else {
            unreachable!()
        };
        fields.retain(|(k, _)| k != "checksum");
        let (method, _) = decode(&v).unwrap();
        assert_eq!(method, "rdrp");
    }

    #[test]
    fn rejects_raw_model_json_without_envelope() {
        let bare = Value::Obj(vec![("weights".to_string(), Value::Arr(vec![]))]);
        assert!(matches!(decode(&bare), Err(PersistError::Format(_))));
    }
}
