//! The repository catalog: named annotation repositories a quality process
//! reads from and writes to.
//!
//! QV specifications reference repositories by name
//! (`repositoryRef="cache"`); the catalog resolves those names at
//! compile/execution time. It holds the persistent repositories and any
//! volatile one a caller registers itself, which stays the caller's. A
//! cache a view names without registering it is not a catalog entry: each
//! run's bind owns a fresh one and drops it when the run returns (paper
//! §4: "the scope of annotations is a single process execution" for
//! on-the-fly evidence).

use crate::repository::AnnotationRepository;
use crate::{AnnotationError, Result};
use parking_lot::RwLock;
use qurator_ontology::iq::IqModel;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// The directory under a store root where older versions of the engine
/// kept per-view stats profiles. Roots written by them still hold it, so
/// the reopen scan skips it rather than opening it as a store, and no
/// repository stored under a root may take this name (the scan would
/// skip that repository on restart).
pub const STATS_DIR: &str = "stats";

/// Checks that `name` can name a repository. A name must be one plain
/// path segment (not empty, `.` or `..`, and without `/` or `\`), so that
/// `<root>/<name>/` stays inside a store root. `on_disk` marks a
/// repository stored under a root, which may not be named [`STATS_DIR`].
pub fn check_repository_name(name: &str, on_disk: bool) -> Result<()> {
    let reason = if name.is_empty() || name == "." || name == ".." || name.contains(['/', '\\']) {
        "a repository name must be one path segment"
    } else if on_disk && name == STATS_DIR {
        "older store roots keep stats profiles under that name"
    } else {
        return Ok(());
    };
    Err(AnnotationError::InvalidRepositoryName { name: name.to_string(), reason })
}

/// A named collection of annotation repositories.
pub struct RepositoryCatalog {
    iq: Arc<IqModel>,
    repositories: RwLock<BTreeMap<String, Arc<AnnotationRepository>>>,
    /// When set, persistent repositories live on disk under
    /// `<root>/<name>/`; cache repositories stay in memory regardless.
    store_root: RwLock<Option<PathBuf>>,
}

impl RepositoryCatalog {
    /// An empty catalog over the given IQ model.
    pub fn new(iq: Arc<IqModel>) -> Self {
        RepositoryCatalog {
            iq,
            repositories: RwLock::new(BTreeMap::new()),
            store_root: RwLock::new(None),
        }
    }

    /// The IQ model shared by all repositories.
    pub fn iq(&self) -> &Arc<IqModel> {
        &self.iq
    }

    /// Roots persistent repositories at `dir` and eagerly reopens every
    /// store already present there (one subdirectory per repository), so a
    /// restarted process sees its annotations again. Fails fast — without
    /// registering the root — when any existing store is locked or corrupt.
    /// Returns the names of the reopened repositories.
    pub fn set_store_root(&self, dir: impl Into<PathBuf>) -> Result<Vec<String>> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| {
            AnnotationError::Rdf(format!("creating store root {}: {e}", dir.display()))
        })?;
        let mut names = Vec::new();
        let entries = std::fs::read_dir(&dir).map_err(|e| {
            AnnotationError::Rdf(format!("reading store root {}: {e}", dir.display()))
        })?;
        for entry in entries {
            let entry = entry.map_err(|e| {
                AnnotationError::Rdf(format!("reading store root {}: {e}", dir.display()))
            })?;
            if !entry.path().is_dir() {
                continue;
            }
            let Ok(name) = entry.file_name().into_string() else {
                return Err(AnnotationError::Rdf(format!(
                    "store root entry {:?} is not valid UTF-8",
                    entry.file_name()
                )));
            };
            // `<root>/stats/` holds stats profiles that older versions
            // wrote, not a repository store
            if name == STATS_DIR {
                continue;
            }
            names.push(name);
        }
        names.sort();
        let mut repos = self.repositories.write();
        for name in &names {
            if repos.contains_key(name) {
                return Err(AnnotationError::DuplicateRepository(name.clone()));
            }
        }
        // Open every store before publishing any of them: a locked or
        // corrupt store must not leave the catalog half-populated.
        let mut opened = Vec::with_capacity(names.len());
        for name in &names {
            opened.push(Arc::new(AnnotationRepository::open_disk(
                name,
                true,
                self.iq.clone(),
                dir.join(name),
            )?));
        }
        for (name, repo) in names.iter().zip(opened) {
            repos.insert(name.clone(), repo);
        }
        *self.store_root.write() = Some(dir);
        Ok(names)
    }

    /// The directory persistent repositories are stored under, if any.
    pub fn store_root(&self) -> Option<PathBuf> {
        self.store_root.read().clone()
    }

    /// Creates a repository; errors if the name is taken or fails
    /// [`check_repository_name`]. With a store root configured,
    /// persistent repositories open disk-backed under it.
    pub fn create(&self, name: &str, persistent: bool) -> Result<Arc<AnnotationRepository>> {
        let mut repos = self.repositories.write();
        if repos.contains_key(name) {
            return Err(AnnotationError::DuplicateRepository(name.to_string()));
        }
        let root = if persistent { self.store_root.read().clone() } else { None };
        check_repository_name(name, root.is_some())?;
        let repo = Arc::new(match root {
            Some(root) => {
                AnnotationRepository::open_disk(name, true, self.iq.clone(), root.join(name))?
            }
            None => AnnotationRepository::new(name, persistent, self.iq.clone()),
        });
        repos.insert(name.to_string(), repo.clone());
        Ok(repo)
    }

    /// Group-commits every repository (disk backends fsync; memory is a
    /// no-op). `qv serve` calls this before acknowledging a run.
    pub fn flush_all(&self) -> Result<()> {
        let repos = self.repositories.read();
        for repo in repos.values() {
            repo.flush()?;
        }
        Ok(())
    }

    /// Looks a repository up by name.
    pub fn get(&self, name: &str) -> Option<Arc<AnnotationRepository>> {
        self.repositories.read().get(name).cloned()
    }

    /// Looks a repository up, erroring with the QV-validation message.
    pub fn require(&self, name: &str) -> Result<Arc<AnnotationRepository>> {
        self.get(name).ok_or_else(|| AnnotationError::UnknownRepository(name.to_string()))
    }

    /// Names of all repositories, in order.
    pub fn names(&self) -> Vec<String> {
        self.repositories.read().keys().cloned().collect()
    }
}

impl std::fmt::Debug for RepositoryCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RepositoryCatalog").field("repositories", &self.names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qurator_rdf::namespace::q;
    use qurator_rdf::term::Term;

    fn catalog() -> RepositoryCatalog {
        RepositoryCatalog::new(Arc::new(IqModel::with_proteomics_extension().unwrap()))
    }

    #[test]
    fn create_get_require() {
        let c = catalog();
        c.create("cache", false).unwrap();
        c.create("uniprot", true).unwrap();
        assert!(c.get("cache").is_some());
        assert!(c.require("uniprot").is_ok());
        assert!(matches!(c.require("nope"), Err(AnnotationError::UnknownRepository(_))));
        assert!(matches!(c.create("cache", true), Err(AnnotationError::DuplicateRepository(_))));
        assert_eq!(c.names(), vec!["cache", "uniprot"]);
    }

    #[test]
    fn store_root_reopens_persistent_repositories() {
        let tmp = qurator_rdf::storage::test_support::TempDir::new("catalog");
        let item = Term::iri("urn:lsid:t:h:1");
        {
            let c = catalog();
            assert_eq!(c.set_store_root(tmp.path()).unwrap(), Vec::<String>::new());
            let archive = c.create("archive", true).unwrap();
            let cache = c.create("cache", false).unwrap();
            assert_eq!(archive.backend_name(), "disk");
            assert_eq!(cache.backend_name(), "memory", "caches stay in memory");
            archive.annotate(&item, &q::iri("HitRatio"), 0.9.into()).unwrap();
            c.flush_all().unwrap();
        }
        // A fresh catalog pointed at the same root sees the archive again.
        let c = catalog();
        let reopened = c.set_store_root(tmp.path()).unwrap();
        assert_eq!(reopened, vec!["archive".to_string()]);
        let archive = c.require("archive").unwrap();
        assert!(archive.is_persistent());
        assert_eq!(
            archive.lookup(&item, &q::iri("HitRatio")).unwrap(),
            crate::EvidenceValue::Number(0.9)
        );
    }

    #[test]
    fn an_older_roots_stats_directory_is_not_reopened_as_a_store() {
        let tmp = qurator_rdf::storage::test_support::TempDir::new("catalog-stats");
        let item = Term::iri("urn:lsid:t:h:1");
        {
            let c = catalog();
            c.set_store_root(tmp.path()).unwrap();
            c.create("archive", true).unwrap();
        }
        // older versions kept a stats profile per view under `<root>/stats/`
        let stats = tmp.path().join(STATS_DIR);
        std::fs::create_dir_all(&stats).unwrap();
        std::fs::write(stats.join("v.json"), "{}").unwrap();
        let c = catalog();
        assert_eq!(c.set_store_root(tmp.path()).unwrap(), vec!["archive".to_string()]);
        assert_eq!(c.names(), vec!["archive"]);
        c.require("archive").unwrap().annotate(&item, &q::iri("HitRatio"), 0.9.into()).unwrap();
        c.flush_all().unwrap();
        let files: Vec<_> =
            std::fs::read_dir(&stats).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(files, vec!["v.json"], "a store was opened under stats/");
    }

    #[test]
    fn repository_names_stay_inside_the_store_root() {
        let tmp = qurator_rdf::storage::test_support::TempDir::new("catalog-names");
        let c = catalog();
        c.set_store_root(tmp.path().join("root")).unwrap();
        for name in ["", ".", "..", "../escaped", "a/b", "a\\b", "/abs"] {
            for persistent in [true, false] {
                let err = c.create(name, persistent).unwrap_err();
                assert!(
                    matches!(err, AnnotationError::InvalidRepositoryName { .. }),
                    "{name:?}: {err}"
                );
            }
        }
        assert!(!tmp.path().join("escaped").exists(), "a store opened outside the root");
        // `stats` is reserved only where it would be a store directory
        assert!(check_repository_name("stats", true).is_err());
        assert!(c.create("stats", true).is_err());
        assert!(c.create("stats", false).is_ok());
        assert_eq!(c.names(), vec!["stats"]);
    }

    #[test]
    fn store_root_fails_fast_on_locked_store() {
        let tmp = qurator_rdf::storage::test_support::TempDir::new("catalog-lock");
        let first = catalog();
        first.set_store_root(tmp.path()).unwrap();
        let _held = first.create("archive", true).unwrap();
        // Second catalog (same process, live pid in the lock file) must
        // refuse the root and register nothing.
        let c = catalog();
        let err = c.set_store_root(tmp.path()).unwrap_err();
        assert!(err.to_string().contains("locked"), "err: {err}");
        assert!(c.store_root().is_none());
        assert!(c.names().is_empty());
    }
}
