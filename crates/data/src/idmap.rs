//! The id-map sidecar a compaction writes next to a sharded layout.
//!
//! Compaction purges tombstoned rows, so every surviving node's global
//! id shifts down by the number of purged ids below it. Shard files
//! the compaction did *not* rewrite still carry pre-compaction ids in
//! their row-ranged Laplacians (cross-shard edges reference global
//! column ids); the router rebases them at load time using this map.
//! The map is tiny — old/new totals plus the sorted purged-id list —
//! and is persisted as JSON with the same strict, versioned decoding
//! as the shard manifest.
//!
//! ```
//! use mvag_data::idmap::IdMap;
//!
//! let map = IdMap::new(10, vec![2, 5]).unwrap();
//! assert_eq!(map.new_n, 8);
//! assert_eq!(map.map(0), Some(0));
//! assert_eq!(map.map(2), None); // purged
//! assert_eq!(map.map(3), Some(2));
//! assert_eq!(map.map(9), Some(7));
//! let back = IdMap::from_json(&map.to_json()).unwrap();
//! assert_eq!(map, back);
//! ```

use crate::json::{self, Value};
use crate::{DataError, Result};
use std::fs;
use std::path::Path;

/// Format tag embedded in the JSON document; decoders reject others.
pub const IDMAP_FORMAT: &str = "sgla-idmap/1";

/// Monotone id remap from a pre-compaction id space to the compacted
/// one: `map(old) = old - |{p in purged : p < old}|`, undefined for
/// purged ids.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IdMap {
    /// Node count before compaction.
    pub old_n: usize,
    /// Node count after compaction (`old_n - purged.len()`).
    pub new_n: usize,
    /// Purged (tombstoned, now removed) old ids, strictly increasing.
    pub purged: Vec<usize>,
}

impl IdMap {
    /// Builds and validates a map purging `purged` from `0..old_n`.
    ///
    /// # Errors
    /// [`DataError::InvalidArgument`] if `purged` is not strictly
    /// increasing or reaches `old_n`.
    pub fn new(old_n: usize, purged: Vec<usize>) -> Result<IdMap> {
        let map = IdMap {
            old_n,
            new_n: old_n.saturating_sub(purged.len()),
            purged,
        };
        map.validate()?;
        Ok(map)
    }

    /// Structural checks; see [`IdMap::new`].
    ///
    /// # Errors
    /// [`DataError::InvalidArgument`] on the first inconsistency.
    pub fn validate(&self) -> Result<()> {
        let fail = |msg: String| Err(DataError::InvalidArgument(format!("id map: {msg}")));
        for pair in self.purged.windows(2) {
            if pair[0] >= pair[1] {
                return fail(format!(
                    "purged ids not strictly increasing ({} then {})",
                    pair[0], pair[1]
                ));
            }
        }
        if let Some(&last) = self.purged.last() {
            if last >= self.old_n {
                return fail(format!(
                    "purged id {last} out of range (old_n = {})",
                    self.old_n
                ));
            }
        }
        if self.new_n != self.old_n - self.purged.len() {
            return fail(format!(
                "new_n = {} but old_n - purged = {}",
                self.new_n,
                self.old_n - self.purged.len()
            ));
        }
        Ok(())
    }

    /// New id of old id `old`; `None` if purged or out of range.
    pub fn map(&self, old: usize) -> Option<usize> {
        if old >= self.old_n {
            return None;
        }
        let below = self.purged.partition_point(|&p| p < old);
        if self.purged.get(below) == Some(&old) {
            return None;
        }
        Some(old - below)
    }

    /// Renders the map as a pretty JSON document.
    pub fn to_json(&self) -> String {
        Value::object(vec![
            ("format", Value::from(IDMAP_FORMAT)),
            ("old_n", Value::from(self.old_n)),
            ("new_n", Value::from(self.new_n)),
            (
                "purged",
                Value::Array(self.purged.iter().map(|&p| Value::from(p)).collect()),
            ),
        ])
        .to_string_pretty()
    }

    /// Parses and validates a map from its JSON text.
    ///
    /// # Errors
    /// [`DataError::Serde`] on malformed JSON or a wrong format tag;
    /// [`DataError::InvalidArgument`] on structural inconsistency.
    pub fn from_json(text: &str) -> Result<IdMap> {
        let fail = |msg: &str| DataError::Serde(format!("id map: {msg}"));
        let doc = json::parse(text).map_err(|e| fail(&format!("not JSON: {e}")))?;
        match doc.get("format").and_then(Value::as_str) {
            Some(IDMAP_FORMAT) => {}
            Some(other) => return Err(fail(&format!("unsupported format '{other}'"))),
            None => return Err(fail("missing format tag")),
        }
        let num = |key: &str| {
            doc.get(key)
                .and_then(Value::as_usize)
                .ok_or_else(|| fail(&format!("missing {key}")))
        };
        let purged = doc
            .get("purged")
            .and_then(Value::as_array)
            .ok_or_else(|| fail("missing purged array"))?
            .iter()
            .enumerate()
            .map(|(i, v)| {
                v.as_usize()
                    .ok_or_else(|| fail(&format!("bad purged id at {i}")))
            })
            .collect::<Result<Vec<usize>>>()?;
        let map = IdMap {
            old_n: num("old_n")?,
            new_n: num("new_n")?,
            purged,
        };
        map.validate()?;
        Ok(map)
    }

    /// Loads and validates a map from `path`.
    ///
    /// # Errors
    /// I/O failures and [`DataError::Serde`] on malformed content.
    pub fn load(path: &Path) -> Result<IdMap> {
        IdMap::from_json(&fs::read_to_string(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_around_purged_ids() {
        let map = IdMap::new(8, vec![0, 3, 7]).unwrap();
        assert_eq!(map.new_n, 5);
        let mapped: Vec<Option<usize>> = (0..9).map(|i| map.map(i)).collect();
        assert_eq!(
            mapped,
            vec![
                None,
                Some(0),
                Some(1),
                None,
                Some(2),
                Some(3),
                Some(4),
                None,
                None // out of range
            ]
        );
        // Surviving ids map densely onto 0..new_n in order.
        let survivors: Vec<usize> = (0..8).filter_map(|i| map.map(i)).collect();
        assert_eq!(survivors, (0..5).collect::<Vec<_>>());
    }

    #[test]
    fn empty_purge_is_identity() {
        let map = IdMap::new(5, vec![]).unwrap();
        for i in 0..5 {
            assert_eq!(map.map(i), Some(i));
        }
        assert_eq!(map.map(5), None);
    }

    #[test]
    fn json_and_file_roundtrip() {
        let map = IdMap::new(100, vec![4, 17, 99]).unwrap();
        assert_eq!(IdMap::from_json(&map.to_json()).unwrap(), map);
        let path =
            std::env::temp_dir().join(format!("sgla-idmap-test-{}.json", std::process::id()));
        fs::write(&path, map.to_json()).unwrap();
        let back = IdMap::load(&path).unwrap();
        fs::remove_file(&path).ok();
        assert_eq!(back, map);
    }

    #[test]
    fn invalid_maps_rejected() {
        assert!(IdMap::new(8, vec![3, 3]).is_err()); // duplicate
        assert!(IdMap::new(8, vec![5, 2]).is_err()); // unsorted
        assert!(IdMap::new(8, vec![8]).is_err()); // out of range
        let bad = IdMap {
            old_n: 8,
            new_n: 8,
            purged: vec![1],
        };
        assert!(bad.validate().is_err()); // inconsistent new_n
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(IdMap::from_json("not json").is_err());
        let good = IdMap::new(4, vec![1]).unwrap().to_json();
        assert!(IdMap::from_json(&good.replace(IDMAP_FORMAT, "sgla-idmap/9")).is_err());
        for len in (0..good.len()).step_by(5) {
            assert!(IdMap::from_json(&good[..len]).is_err(), "prefix of {len}");
        }
        // Structural validation also runs on the parsed document.
        let unsorted = r#"{"format": "sgla-idmap/1", "old_n": 4, "new_n": 2, "purged": [3, 1]}"#;
        assert!(IdMap::from_json(unsorted).is_err());
    }
}
