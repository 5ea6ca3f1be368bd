//! Named, versioned model storage with hot swap.

use rdrp::{PersistError, RoiMethod};
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, RwLock};

/// The model name requests resolve to when they name none.
pub const DEFAULT_MODEL: &str = "default";

/// Why a model could not enter the registry.
#[derive(Debug)]
pub enum RegistryError {
    /// Reading or parsing the persisted file failed.
    Persist(PersistError),
    /// The file parsed, but the model inside was never fitted — it
    /// cannot score anything.
    Unfitted {
        /// The registry name it was loaded under.
        name: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Persist(e) => write!(f, "load failed: {e}"),
            RegistryError::Unfitted { name } => {
                write!(f, "model {name:?} is unfitted and cannot serve")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<PersistError> for RegistryError {
    fn from(e: PersistError) -> Self {
        RegistryError::Persist(e)
    }
}

/// `version -> scorer` slots for one model name.
type VersionMap = BTreeMap<String, Arc<dyn RoiMethod>>;

/// Versioned models by name, shared across the engine's workers and the
/// protocol frontends.
///
/// Hot swap: [`ModelRegistry::insert`] replaces the `(name, version)`
/// slot under a write lock while in-flight batches keep scoring with
/// their own [`Arc`] clone of the old model — requests observe either
/// the old or the new model, never a torn state.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: RwLock<Models>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    /// Registers (or hot-swaps) `scorer` as `name`@`version`.
    pub fn insert(&self, name: &str, version: &str, scorer: Arc<dyn RoiMethod>) {
        let mut models = lock_write(&self.models);
        models
            .entry(name.to_string())
            .or_default()
            .insert(version.to_string(), scorer);
    }

    /// Loads a persisted model artifact and registers it as
    /// `name`@`version`. The artifact's embedded method tag picks the
    /// model type — any method of `rdrp::methods::METHODS` serves.
    ///
    /// # Errors
    /// [`RegistryError::Persist`] when the file cannot be read or parsed
    /// or carries an unknown method tag, [`RegistryError::Unfitted`]
    /// when it holds an unfitted model.
    pub fn load(
        &self,
        name: &str,
        version: &str,
        path: impl AsRef<Path>,
    ) -> Result<(), RegistryError> {
        let method = rdrp::load_method(path)?;
        if !method.is_fitted() {
            return Err(RegistryError::Unfitted {
                name: name.to_string(),
            });
        }
        self.insert(name, version, Arc::from(method));
        Ok(())
    }

    /// [`ModelRegistry::load`] wrapped in the bounded-backoff helper:
    /// transient I/O failures (a hot-swap racing a deploy's rename, NFS
    /// hiccups) retry per `policy`; everything else — a corrupt or
    /// truncated file, a checksum mismatch, an unfitted model — fails
    /// immediately, because retrying cannot fix the bytes. Each retry
    /// emits `registry.load_retry` (counter `registry.load_retries`); a
    /// checksum failure emits `artifact.checksum_mismatch` so operators
    /// can tell bit rot from a missing file.
    ///
    /// # Errors
    /// As [`ModelRegistry::load`], after retries are exhausted.
    pub fn load_with_retry(
        &self,
        name: &str,
        version: &str,
        path: impl AsRef<Path>,
        policy: &crate::backoff::BackoffPolicy,
        obs: &obs::Obs,
    ) -> Result<(), RegistryError> {
        let path = path.as_ref();
        let result = crate::backoff::retry(
            policy,
            |attempt| {
                let r = self.load(name, version, path);
                if let Err(e) = &r {
                    if attempt + 1 < policy.attempts.max(1) && retryable(e) {
                        obs.counter("registry.load_retries", 1.0);
                        obs.event(
                            "registry.load_retry",
                            &[
                                ("name", name.into()),
                                ("attempt", u64::from(attempt + 1).into()),
                                ("error", e.to_string().into()),
                            ],
                        );
                    }
                }
                r
            },
            retryable,
        );
        if let Err(RegistryError::Persist(PersistError::Checksum { expected, computed })) = &result
        {
            obs.event(
                "artifact.checksum_mismatch",
                &[
                    ("name", name.into()),
                    ("expected", expected.as_str().into()),
                    ("computed", computed.as_str().into()),
                ],
            );
        }
        result
    }

    /// Resolves `name` (at `version`, or the lexicographically greatest
    /// registered version when `None`) to its scorer.
    pub fn get(&self, name: &str, version: Option<&str>) -> Option<Arc<dyn RoiMethod>> {
        let models = lock_read(&self.models);
        let versions = models.get(name)?;
        match version {
            Some(v) => versions.get(v).cloned(),
            None => versions.last_key_value().map(|(_, m)| Arc::clone(m)),
        }
    }

    /// Registered `(name, version)` pairs, sorted.
    pub fn entries(&self) -> Vec<(String, String)> {
        let models = lock_read(&self.models);
        models
            .iter()
            .flat_map(|(name, versions)| {
                versions
                    .keys()
                    .map(move |v| (name.clone(), v.clone()))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Number of registered `(name, version)` slots.
    pub fn len(&self) -> usize {
        lock_read(&self.models).values().map(BTreeMap::len).sum()
    }

    /// Whether no model is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Only plain I/O failures are worth retrying; corrupt bytes stay
/// corrupt however often they are reread.
fn retryable(e: &RegistryError) -> bool {
    matches!(e, RegistryError::Persist(PersistError::Io(_)))
}

type Models = BTreeMap<String, VersionMap>;

// Poisoned registry locks are recoverable: the map itself is never left
// torn mid-update (single-statement mutations), so continue with the
// inner guard — same policy as obs::InMemoryRecorder.
fn lock_read(lock: &RwLock<Models>) -> std::sync::RwLockReadGuard<'_, Models> {
    lock.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn lock_write(lock: &RwLock<Models>) -> std::sync::RwLockWriteGuard<'_, Models> {
    lock.write()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}
