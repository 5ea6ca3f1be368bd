//! Model persistence.
//!
//! Trained models serialize to JSON (weights, scaler, conformal
//! quantile, selected calibration form — everything needed to reproduce
//! predictions bit-for-bit; optimizer state and forward caches are
//! transient and excluded). The deployment story the paper describes —
//! train offline, calibrate on a fresh RCT, then serve — needs exactly
//! this boundary.
//!
//! Every file is a [`crate::artifact`] envelope: a `format_version`, a
//! `method` tag, and the model body. [`crate::methods::save_method`] and
//! [`crate::methods::load_method`] are the entry points (any tag,
//! dispatched through the registry); both go through the crash-safe
//! write and the chaos-aware read of this module.

use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Errors from saving/loading models.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Serialization/deserialization failure.
    Serde(tinyjson::JsonError),
    /// The file parses as JSON but is not a loadable artifact: missing or
    /// unsupported envelope, or a method tag the caller cannot accept.
    Format(String),
    /// The envelope's integrity stamp does not match its body: the file
    /// was altered after it was written (bit rot, a torn copy, a manual
    /// edit). Loading stops here rather than serving a model whose
    /// weights differ from what training saved.
    Checksum {
        /// The stamp recorded in the file.
        expected: String,
        /// What the body actually hashes to.
        computed: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Serde(e) => write!(f, "serialization error: {e}"),
            PersistError::Format(m) => write!(f, "artifact format error: {m}"),
            PersistError::Checksum { expected, computed } => write!(
                f,
                "artifact checksum mismatch: file says {expected}, body hashes to {computed}"
            ),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<tinyjson::JsonError> for PersistError {
    fn from(e: tinyjson::JsonError) -> Self {
        PersistError::Serde(e)
    }
}

/// Writes an artifact crash-safely: the bytes go to a temp sibling in
/// the same directory, are flushed with `sync_all`, and the temp file is
/// atomically renamed over the destination. An interrupted save leaves
/// either the old complete artifact or the new complete artifact on
/// disk — never a torn mix — and the temp file is removed on failure.
///
/// Chaos points `persist.write`, `persist.fsync`, and `persist.rename`
/// (consulted through [`chaos::ambient`]) let the fault-injection suite
/// kill the save at each stage.
///
/// # Errors
/// [`PersistError::Io`] when any stage fails; the destination is
/// untouched in that case.
pub fn atomic_write_artifact(path: impl AsRef<Path>, contents: &str) -> Result<(), PersistError> {
    let path = path.as_ref();
    let harness = chaos::ambient();
    let tmp = tmp_sibling(path);
    let staged = write_flushed(&tmp, contents.as_bytes(), &harness).and_then(|()| {
        harness.io_point("persist.rename")?;
        fs::rename(&tmp, path)
    });
    if staged.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    staged?;
    sync_dir(path);
    Ok(())
}

// The temp name carries the pid and a process-wide counter, so every
// save — from another process or another thread of this one — stages
// through its own sibling and renames only bytes it wrote itself.
fn tmp_sibling(path: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "artifact".into());
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    name.push(format!(".tmp.{}.{n}", std::process::id()));
    path.with_file_name(name)
}

fn write_flushed(tmp: &Path, bytes: &[u8], harness: &chaos::Chaos) -> std::io::Result<()> {
    let mut f = fs::File::create(tmp)?;
    if let Some(fault) = harness.hit("persist.write") {
        // A crash mid-write: deliver whatever prefix the fault allows,
        // flush it so the torn file really exists, then fail.
        let mut partial = bytes.to_vec();
        chaos::mangle(&fault, &mut partial);
        if partial.len() < bytes.len() {
            f.write_all(&partial)?;
            let _ = f.sync_all();
        }
        return Err(fault.to_io_error());
    }
    f.write_all(bytes)?;
    harness.io_point("persist.fsync")?;
    f.sync_all()
}

// Durability of the rename itself: fsync the containing directory where
// the platform can open one; best-effort everywhere.
fn sync_dir(path: &Path) {
    #[cfg(unix)]
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    #[cfg(not(unix))]
    let _ = path;
}

/// Reads an artifact file's text, with the chaos `persist.read` point
/// applied to the raw bytes (injected I/O failure, short read, flipped
/// byte) before decoding.
pub(crate) fn read_artifact(path: impl AsRef<Path>) -> Result<String, PersistError> {
    let harness = chaos::ambient();
    let fault = harness.hit("persist.read");
    if let Some(f) = &fault {
        if matches!(f.kind, chaos::FaultKind::Io | chaos::FaultKind::Disconnect) {
            return Err(PersistError::Io(f.to_io_error()));
        }
    }
    let mut bytes = fs::read(path)?;
    if let Some(f) = &fault {
        chaos::mangle(f, &mut bytes);
    }
    String::from_utf8(bytes)
        .map_err(|e| PersistError::Format(format!("artifact is not UTF-8: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact;
    use crate::methods::{build, load_method, save_method, MethodConfig, RoiMethod};
    use obs::Obs;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rdrp_persist_{name}_{}.json", std::process::id()))
    }

    fn unfitted_drp(epochs: usize) -> Box<dyn RoiMethod> {
        let mut config = MethodConfig::default();
        config.rdrp.drp.epochs = epochs;
        build("drp", &config).unwrap()
    }

    /// Staged `<name>.tmp.*` siblings of `path` still on disk.
    fn leftover_temps(path: &Path) -> Vec<PathBuf> {
        let prefix = format!("{}.tmp.", path.file_name().unwrap().to_string_lossy());
        fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                p.file_name()
                    .unwrap()
                    .to_string_lossy()
                    .starts_with(&prefix)
            })
            .collect()
    }

    #[test]
    fn interrupted_save_leaves_previous_artifact_intact() {
        let path = tmp("atomic");
        let model = unfitted_drp(1);
        save_method(model.as_ref(), &path).unwrap();

        for point in ["persist.write", "persist.fsync", "persist.rename"] {
            let plan =
                chaos::FaultPlan::new().fail(point, chaos::Trigger::Nth(1), chaos::FaultKind::Io);
            let _guard = chaos::install(chaos::Chaos::new(plan, Obs::disabled()));
            let err = save_method(model.as_ref(), &path).unwrap_err();
            assert!(matches!(err, PersistError::Io(_)), "{point}: {err:?}");
            // The old artifact survives the failed save, checksum and all.
            load_method(&path).unwrap_or_else(|e| panic!("{point}: {e}"));
        }
        // No staged temp files left behind.
        assert_eq!(leftover_temps(&path), Vec::<PathBuf>::new());
        let _ = fs::remove_file(path);
    }

    /// Eight threads saving different models to one destination: each
    /// save stages through its own temp sibling, so the survivor is one
    /// writer's complete artifact — never a mix, never a failed rename.
    #[test]
    fn concurrent_saves_to_one_path_leave_one_writers_artifact() {
        let path = tmp("concurrent");
        let models: Vec<_> = (1..=8).map(unfitted_drp).collect();
        let barrier = std::sync::Barrier::new(models.len());
        std::thread::scope(|s| {
            for m in &models {
                let (path, barrier) = (&path, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for _ in 0..25 {
                        save_method(m.as_ref(), path).unwrap();
                    }
                });
            }
        });
        load_method(&path).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert!(
            models
                .iter()
                .any(|m| artifact::render(m.method_name(), m.body_to_json()) == text),
            "the surviving artifact is no single writer's rendering"
        );
        assert_eq!(leftover_temps(&path), Vec::<PathBuf>::new());
        let _ = fs::remove_file(path);
    }

    #[test]
    fn chaos_read_faults_surface_as_typed_errors() {
        let path = tmp("readfault");
        save_method(unfitted_drp(1).as_ref(), &path).unwrap();
        let plan = chaos::FaultPlan::new()
            .fail("persist.read", chaos::Trigger::Nth(1), chaos::FaultKind::Io)
            .fail(
                "persist.read",
                chaos::Trigger::Nth(2),
                chaos::FaultKind::Truncate(40),
            );
        let _guard = chaos::install(chaos::Chaos::new(plan, Obs::disabled()));
        assert!(matches!(load_method(&path), Err(PersistError::Io(_))));
        // A 40-byte prefix of the envelope is unparseable JSON.
        assert!(matches!(load_method(&path), Err(PersistError::Serde(_))));
        // Hit 3: no rule, the artifact loads normally again.
        load_method(&path).unwrap();
        let _ = fs::remove_file(path);
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(matches!(
            load_method("/nonexistent/rdrp_model.json"),
            Err(PersistError::Io(_))
        ));
    }

    #[test]
    fn load_garbage_errors() {
        let path = tmp("garbage");
        fs::write(&path, "not json at all").unwrap();
        assert!(matches!(load_method(&path), Err(PersistError::Serde(_))));
        let _ = fs::remove_file(path);
    }

    #[test]
    fn raw_pre_envelope_json_is_a_format_error() {
        let model = unfitted_drp(1);
        let path = tmp("preenvelope");
        // What the pre-artifact format used to write: the bare body.
        fs::write(&path, tinyjson::to_string_pretty(&model.body_to_json())).unwrap();
        assert!(matches!(load_method(&path), Err(PersistError::Format(_))));
        let _ = fs::remove_file(path);
    }
}
