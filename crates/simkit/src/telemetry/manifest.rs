//! Machine-readable per-run manifests (`manifest.json`).
//!
//! A telemetry-enabled run writes, next to its JSONL trace, one
//! manifest describing exactly what produced the trace: the binary,
//! the resolved configuration (as ordered key/value pairs), a stable
//! FNV-1a hash over that configuration, the worker-thread count, and —
//! for sweeps — one entry per grid cell with its wall-clock time,
//! emitted-event count, and whether it was served from the CSV cache.
//! Any figure or trace can thereby be traced back to its exact inputs.
//!
//! Schema (`thermogater.telemetry/v1`):
//!
//! ```json
//! {
//!   "schema": "thermogater.telemetry/v1",
//!   "created_by": "simulate",
//!   "config_hash": "9a77c3f0c1d2e4b5",
//!   "threads": 4,
//!   "config": {"bench": "fft", "policy": "oracvt"},
//!   "cache": {"hits": 1, "misses": 3},
//!   "events_total": 1234,
//!   "cells": [
//!     {"label": "fft-oracvt", "seconds": 0.51, "events": 310, "cached": false}
//!   ]
//! }
//! ```
//!
//! # Examples
//!
//! ```
//! use simkit::telemetry::manifest::{CellManifest, RunManifest};
//!
//! let mut manifest = RunManifest::new("simulate");
//! manifest.push_config("bench", "fft");
//! manifest.threads = 2;
//! manifest.cells.push(CellManifest {
//!     label: "fft-oracvt".into(),
//!     seconds: 0.5,
//!     events: 100,
//!     cached: false,
//! });
//! let text = manifest.to_json();
//! let back = RunManifest::from_json(&text).unwrap();
//! assert_eq!(back.cells.len(), 1);
//! assert_eq!(back.config_hash(), manifest.config_hash());
//! ```

use super::json::{self, JsonValue};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Schema identifier stamped into (and required of) every manifest.
pub const MANIFEST_SCHEMA: &str = "thermogater.telemetry/v1";

/// Conventional file name of the trace next to the manifest.
pub const TRACE_FILE: &str = "trace.jsonl";

/// Conventional file name of the manifest inside a telemetry directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// Per-cell entry of a [`RunManifest`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellManifest {
    /// Cell label, e.g. `"fft-oracvt"`.
    pub label: String,
    /// Wall-clock seconds spent producing the cell.
    pub seconds: f64,
    /// Telemetry events emitted while the cell ran.
    pub events: u64,
    /// Whether the record came from the on-disk sweep cache.
    pub cached: bool,
}

/// The per-run manifest written next to a JSONL trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunManifest {
    /// Name of the producing binary (`simulate`, `probe`, a fig bin…).
    pub created_by: String,
    /// Resolved configuration, in insertion order.
    pub config: Vec<(String, String)>,
    /// Worker threads the run used.
    pub threads: usize,
    /// Events emitted outside any cell (run-level spans, progress…);
    /// `events_total` in the JSON is this plus the per-cell counts.
    pub run_events: u64,
    /// One entry per executed cell (one entry total for single runs).
    pub cells: Vec<CellManifest>,
}

impl RunManifest {
    /// A manifest for `created_by` with one thread and no cells yet.
    pub fn new(created_by: &str) -> Self {
        RunManifest {
            created_by: created_by.to_string(),
            threads: 1,
            ..RunManifest::default()
        }
    }

    /// Appends one configuration key/value pair.
    pub fn push_config(&mut self, key: &str, value: impl ToString) {
        self.config.push((key.to_string(), value.to_string()));
    }

    /// Cells served from the sweep cache.
    pub fn cache_hits(&self) -> usize {
        self.cells.iter().filter(|c| c.cached).count()
    }

    /// Cells actually simulated.
    pub fn cache_misses(&self) -> usize {
        self.cells.len() - self.cache_hits()
    }

    /// Total events across the run and all cells.
    pub fn total_events(&self) -> u64 {
        self.run_events + self.cells.iter().map(|c| c.events).sum::<u64>()
    }

    /// Stable FNV-1a hash over `created_by` and the config pairs —
    /// two runs with identical configuration hash identically, so a
    /// manifest pins a figure to its inputs like a `git describe` pins
    /// a build to its sources.
    pub fn config_hash(&self) -> u64 {
        let mut hasher = ContentHasher::new(&self.created_by);
        for (key, value) in &self.config {
            hasher.push(key, value);
        }
        hasher.finish()
    }

    /// Serialises the manifest (pretty-stable single-line JSON).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 64 * self.cells.len());
        out.push_str("{\"schema\":");
        json::write_str(&mut out, MANIFEST_SCHEMA);
        out.push_str(",\"created_by\":");
        json::write_str(&mut out, &self.created_by);
        let _ = write!(out, ",\"config_hash\":\"{:016x}\"", self.config_hash());
        let _ = write!(out, ",\"threads\":{}", self.threads);
        out.push_str(",\"config\":{");
        for (i, (key, value)) in self.config.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, key);
            out.push(':');
            json::write_str(&mut out, value);
        }
        let _ = write!(
            out,
            "}},\"cache\":{{\"hits\":{},\"misses\":{}}}",
            self.cache_hits(),
            self.cache_misses()
        );
        let _ = write!(out, ",\"events_total\":{}", self.total_events());
        let _ = write!(out, ",\"run_events\":{}", self.run_events);
        out.push_str(",\"cells\":[");
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"label\":");
            json::write_str(&mut out, &cell.label);
            out.push_str(",\"seconds\":");
            json::write_f64(&mut out, cell.seconds);
            let _ = write!(out, ",\"events\":{}", cell.events);
            let _ = write!(
                out,
                ",\"cached\":{}}}",
                if cell.cached { "true" } else { "false" }
            );
        }
        out.push_str("]}");
        out
    }

    /// Writes the manifest to `path`.
    ///
    /// # Errors
    ///
    /// Propagates file I/O errors.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut text = self.to_json();
        text.push('\n');
        fs::write(path, text)
    }

    /// Parses and validates a manifest document.
    ///
    /// # Errors
    ///
    /// Describes the first structural problem found: malformed JSON,
    /// wrong or missing schema identifier, missing required members, or
    /// a `config_hash` that does not match the embedded configuration.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("manifest missing \"schema\"")?;
        if schema != MANIFEST_SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?} (expected {MANIFEST_SCHEMA:?})"
            ));
        }
        let created_by = doc
            .get("created_by")
            .and_then(JsonValue::as_str)
            .ok_or("manifest missing \"created_by\"")?
            .to_string();
        let threads = doc
            .get("threads")
            .and_then(JsonValue::as_f64)
            .ok_or("manifest missing \"threads\"")? as usize;
        let run_events = doc
            .get("run_events")
            .and_then(JsonValue::as_f64)
            .ok_or("manifest missing \"run_events\"")? as u64;
        let config = doc
            .get("config")
            .and_then(JsonValue::as_object)
            .ok_or("manifest missing \"config\"")?
            .iter()
            .map(|(k, v)| {
                v.as_str()
                    .map(|s| (k.clone(), s.to_string()))
                    .ok_or_else(|| format!("config value for {k:?} is not a string"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut cells = Vec::new();
        for (index, cell) in doc
            .get("cells")
            .and_then(JsonValue::as_array)
            .ok_or("manifest missing \"cells\"")?
            .iter()
            .enumerate()
        {
            let field = |name: &str| {
                cell.get(name)
                    .ok_or_else(|| format!("cell {index} missing {name:?}"))
            };
            cells.push(CellManifest {
                label: field("label")?
                    .as_str()
                    .ok_or_else(|| format!("cell {index} label is not a string"))?
                    .to_string(),
                seconds: field("seconds")?
                    .as_f64()
                    .ok_or_else(|| format!("cell {index} seconds is not a number"))?,
                events: field("events")?
                    .as_f64()
                    .ok_or_else(|| format!("cell {index} events is not a number"))?
                    as u64,
                cached: field("cached")?
                    .as_bool()
                    .ok_or_else(|| format!("cell {index} cached is not a bool"))?,
            });
        }
        let manifest = RunManifest {
            created_by,
            config,
            threads,
            run_events,
            cells,
        };
        let declared = doc
            .get("config_hash")
            .and_then(JsonValue::as_str)
            .ok_or("manifest missing \"config_hash\"")?;
        let expected = format!("{:016x}", manifest.config_hash());
        if declared != expected {
            return Err(format!(
                "config_hash mismatch: manifest says {declared}, config hashes to {expected}"
            ));
        }
        let declared_total = doc
            .get("events_total")
            .and_then(JsonValue::as_f64)
            .ok_or("manifest missing \"events_total\"")? as u64;
        if declared_total != manifest.total_events() {
            return Err(format!(
                "events_total mismatch: manifest says {declared_total}, cells sum to {}",
                manifest.total_events()
            ));
        }
        Ok(manifest)
    }
}

/// Streaming FNV-1a content hasher over `key=value;`-framed pairs — the
/// exact machinery behind [`RunManifest::config_hash`], exposed so
/// other schemas (scenario specs, content-addressed caches) can hash
/// ordered configuration pairs identically. The domain string seeds the
/// hash, so equal pair lists under different domains never collide by
/// construction.
///
/// # Examples
///
/// ```
/// use simkit::telemetry::manifest::ContentHasher;
///
/// let mut a = ContentHasher::new("scenario");
/// a.push("bench", "fft");
/// let mut b = ContentHasher::new("scenario");
/// b.push("bench", "fft");
/// assert_eq!(a.finish(), b.finish());
/// b.push("seed", "1");
/// assert_ne!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone)]
pub struct ContentHasher {
    hash: u64,
}

impl ContentHasher {
    /// Starts a hash seeded with the FNV offset basis and `domain`.
    pub fn new(domain: &str) -> Self {
        ContentHasher {
            hash: fnv1a64(0xcbf2_9ce4_8422_2325, domain.as_bytes()),
        }
    }

    /// Folds one `key=value;` pair into the hash. Order matters.
    pub fn push(&mut self, key: &str, value: impl AsRef<str>) {
        self.hash = fnv1a64(self.hash, key.as_bytes());
        self.hash = fnv1a64(self.hash, b"=");
        self.hash = fnv1a64(self.hash, value.as_ref().as_bytes());
        self.hash = fnv1a64(self.hash, b";");
    }

    /// Folds one configuration field as `<prefix><name>=<value>;`, with
    /// the value as raw bytes ([`FieldValue`]) rather than text: the
    /// step of the field walks that hash a configuration without
    /// formatting a number. [`ContentHasher::push`] keeps the text
    /// framing of [`RunManifest::config_hash`].
    pub fn field(&mut self, prefix: &KeyPrefix<'_>, name: &str, value: impl FieldValue) {
        self.hash = prefix.fold(self.hash);
        self.hash = fnv1a64(self.hash, name.as_bytes());
        self.hash = fnv1a64(self.hash, b"=");
        self.hash = value.fold(self.hash);
        self.hash = fnv1a64(self.hash, b";");
    }

    /// The hash of everything pushed so far (non-consuming).
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

/// A configuration value as [`ContentHasher::field`] folds it: a float
/// as the little-endian bytes of its `to_bits()` (so `0.0` and `-0.0`
/// differ, and nothing is formatted), an integer as its eight
/// little-endian bytes, text as its byte length and then its bytes.
pub trait FieldValue {
    /// `hash` with this value folded in.
    fn fold(self, hash: u64) -> u64;
}

impl FieldValue for f64 {
    fn fold(self, hash: u64) -> u64 {
        fnv1a64(hash, &self.to_bits().to_le_bytes())
    }
}

impl FieldValue for u64 {
    fn fold(self, hash: u64) -> u64 {
        fnv1a64(hash, &self.to_le_bytes())
    }
}

impl FieldValue for usize {
    fn fold(self, hash: u64) -> u64 {
        (self as u64).fold(hash)
    }
}

impl FieldValue for &str {
    fn fold(self, hash: u64) -> u64 {
        fnv1a64(self.len().fold(hash), self.as_bytes())
    }
}

/// The dotted key prefix of a configuration field walk, such as
/// `thermal.` or `thermal.package.`. It is a chain of parts, so a walk
/// hands the walk of a struct it nests a longer prefix without
/// allocating one.
#[derive(Debug, Clone, Copy)]
pub struct KeyPrefix<'a> {
    outer: Option<&'a KeyPrefix<'a>>,
    part: &'a str,
}

impl<'a> KeyPrefix<'a> {
    /// The prefix `part` (`""` for top-level fields).
    pub const fn new(part: &'a str) -> Self {
        KeyPrefix { outer: None, part }
    }

    /// This prefix followed by `part`.
    pub fn nest(&'a self, part: &'a str) -> Self {
        KeyPrefix {
            outer: Some(self),
            part,
        }
    }

    fn fold(&self, hash: u64) -> u64 {
        let hash = self.outer.map_or(hash, |outer| outer.fold(hash));
        fnv1a64(hash, self.part.as_bytes())
    }
}

fn fnv1a64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        let mut m = RunManifest::new("simulate");
        m.push_config("bench", "fft");
        m.push_config("policy", "oracvt");
        m.threads = 4;
        m.run_events = 7;
        m.cells.push(CellManifest {
            label: "fft-oracvt".into(),
            seconds: 0.25,
            events: 93,
            cached: false,
        });
        m.cells.push(CellManifest {
            label: "fft-allon".into(),
            seconds: 0.0,
            events: 0,
            cached: true,
        });
        m
    }

    #[test]
    fn round_trips_through_json() {
        let m = sample();
        let back = RunManifest::from_json(&m.to_json()).expect("round trip");
        assert_eq!(back, m);
        assert_eq!(back.cache_hits(), 1);
        assert_eq!(back.cache_misses(), 1);
        assert_eq!(back.total_events(), 100);
    }

    #[test]
    fn config_hash_is_stable_and_order_sensitive() {
        let a = sample();
        let b = sample();
        assert_eq!(a.config_hash(), b.config_hash());
        let mut c = sample();
        c.config.swap(0, 1);
        assert_ne!(a.config_hash(), c.config_hash());
        let mut d = sample();
        d.push_config("seed", "1");
        assert_ne!(a.config_hash(), d.config_hash());
    }

    // Pins the ContentHasher framing to the original inline loop so
    // manifests hashed before the refactor keep validating.
    #[test]
    fn content_hasher_matches_legacy_config_hash_framing() {
        let m = sample();
        let mut hash = fnv1a64(0xcbf2_9ce4_8422_2325, m.created_by.as_bytes());
        for (key, value) in &m.config {
            hash = fnv1a64(hash, key.as_bytes());
            hash = fnv1a64(hash, b"=");
            hash = fnv1a64(hash, value.as_bytes());
            hash = fnv1a64(hash, b";");
        }
        assert_eq!(m.config_hash(), hash);
    }

    #[test]
    fn content_hasher_separates_domains_and_orders() {
        let mut a = ContentHasher::new("scenario");
        let mut b = ContentHasher::new("manifest");
        a.push("k", "v");
        b.push("k", "v");
        assert_ne!(a.finish(), b.finish());
        let mut c = ContentHasher::new("scenario");
        c.push("v", "k");
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn field_folds_a_nested_key_like_its_concatenation() {
        let (outer, mut a, mut b) = (
            KeyPrefix::new("thermal."),
            ContentHasher::new("scenario"),
            ContentHasher::new("scenario"),
        );
        a.field(&outer.nest("package."), "k", 1.5);
        b.field(&KeyPrefix::new("thermal.package."), "k", 1.5);
        assert_eq!(a.finish(), b.finish());
        let mut c = ContentHasher::new("scenario");
        c.field(&KeyPrefix::new("thermal.package."), "k", -1.5);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn validation_rejects_tampering() {
        let m = sample();
        let good = m.to_json();
        assert!(RunManifest::from_json(&good.replace("fft", "lu")).is_err());
        assert!(RunManifest::from_json(&good.replace(MANIFEST_SCHEMA, "v0")).is_err());
        assert!(RunManifest::from_json(&good.replace("\"events\":93", "\"events\":92")).is_err());
        assert!(RunManifest::from_json("{}").is_err());
        assert!(RunManifest::from_json("not json").is_err());
    }

    #[test]
    fn writes_to_disk() {
        let dir = std::env::temp_dir().join(format!("simkit-manifest-test-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(MANIFEST_FILE);
        sample().write(&path).expect("write manifest");
        let text = fs::read_to_string(&path).expect("read back");
        assert!(RunManifest::from_json(text.trim()).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }
}
