//! Synthetic dataset suite mirroring the paper's Table II, plus MVAG
//! persistence.
//!
//! The eight evaluation datasets (RM, Yelp, IMDB, DBLP, Amazon photos,
//! Amazon computers, MAG-eng, MAG-phy) are not redistributable; this crate
//! generates synthetic stand-ins that match each dataset's **shape** —
//! node count, number and kind of views, per-view edge density, attribute
//! dimensionality, cluster count — plus per-view informativeness imbalance
//! (see [`registry`] for the substitution rationale and the documented
//! scale-downs for the MAG-scale datasets).
//!
//! * [`registry`] — one [`registry::DatasetSpec`] per paper dataset, with
//!   the paper's statistics attached for reference, and a deterministic
//!   [`registry::DatasetSpec::generate`];
//! * [`io`] — JSON (diffable) and compact binary persistence for
//!   [`Mvag`](mvag_graph::Mvag);
//! * [`delta`] — binary persistence for
//!   [`MvagDelta`](mvag_graph::MvagDelta)s (appends, tombstone
//!   removals, edge/row edits), the replayable unit of the
//!   incremental artifact-update pipeline;
//! * [`manifest`] — the JSON shard manifest of the sharded
//!   artifact layout served by `sgla-serve`;
//! * [`idmap`] — the id-remap sidecar a compaction writes so
//!   unrewritten shard files can be rebased at load time;
//! * [`failpoint`] — the [`failpoint::LayoutWriter`] filesystem
//!   indirection that lets crash-consistency tests tear a layout
//!   rewrite at any byte boundary;
//! * [`toy_mvag`] — re-export of the small fixture generator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod delta;
pub mod error;
pub mod failpoint;
pub mod idmap;
pub mod io;
pub mod json;
pub mod manifest;
pub mod registry;

pub use delta::{load_delta, save_delta};
pub use error::DataError;
pub use failpoint::{FailpointWriter, FsWriter, LayoutWriter};
pub use idmap::IdMap;
pub use manifest::{ShardEntry, ShardManifest};
pub use mvag_graph::toy::toy_mvag;
pub use registry::{by_name, full_registry, DatasetSpec};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DataError>;
