//! # qurator-annotations
//!
//! The metadata-management infrastructure of the Qurator framework
//! (reproduction of *Quality Views*, VLDB 2006, §2, §3 and §5): quality
//! annotations, annotation maps, and annotation repositories.
//!
//! * [`value`] — [`value::EvidenceValue`], the value space of quality
//!   evidence (numbers, text, booleans, classification labels, null), with
//!   RDF literal conversions;
//! * [`map`] — [`map::AnnotationMap`], the paper's `Amap : d ↦ {(e, v)}`
//!   structure that flows between quality operators, including the
//!   classification mappings `d ↦ (t, cl)` added by quality assertions;
//! * [`repository`] — [`repository::AnnotationRepository`], an RDF-graph
//!   store of annotations keyed by `(data item, evidence type)`, queried
//!   through SPARQL exactly as §5 describes, with ontology-validated writes
//!   and a persistent/cache distinction (§4);
//! * [`catalog`] — [`catalog::RepositoryCatalog`], the named collection of
//!   repositories a quality process reads from and writes to
//!   (`repositoryRef="archive"` in QV specifications).

pub mod catalog;
pub mod map;
pub mod repository;
pub mod value;

pub use catalog::RepositoryCatalog;
pub use map::AnnotationMap;
pub use repository::AnnotationRepository;
pub use value::EvidenceValue;

/// Errors from the annotation layer.
#[derive(Debug, Clone, PartialEq)]
pub enum AnnotationError {
    /// Writing an annotation whose evidence class is not registered under
    /// `q:QualityEvidence` in the IQ model.
    NotEvidence(String),
    /// The referenced repository does not exist in the catalog.
    UnknownRepository(String),
    /// A repository with that name already exists.
    DuplicateRepository(String),
    /// The name cannot name a repository (see
    /// [`catalog::check_repository_name`]).
    InvalidRepositoryName { name: String, reason: &'static str },
    /// An RDF-level failure (store/query).
    Rdf(String),
}

impl std::fmt::Display for AnnotationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnnotationError::NotEvidence(m) => {
                write!(f, "not a QualityEvidence class: {m}")
            }
            AnnotationError::UnknownRepository(m) => write!(f, "unknown repository {m:?}"),
            AnnotationError::DuplicateRepository(m) => {
                write!(f, "repository {m:?} already exists")
            }
            AnnotationError::InvalidRepositoryName { name, reason } => {
                write!(f, "invalid repository name {name:?}: {reason}")
            }
            AnnotationError::Rdf(m) => write!(f, "annotation store error: {m}"),
        }
    }
}

impl std::error::Error for AnnotationError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, AnnotationError>;
