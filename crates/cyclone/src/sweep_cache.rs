//! The sweep cache format, `sweeps/<figure>.json`: its one validating reader
//! and its one writer, which [`crate::run_sweep`], [`merge_files`] and the
//! offline `stats` and `verify` all share. So a file `verify` rejects is never
//! read: a sweep recomputes its points, and a merge skips it with the reason.
//!
//! [`merge_files`] folds several cache files of one figure into a single file.
//! The merge is a **union of point sets** with conflicts resolved by the same
//! meets-or-exceeds order the sweep engine's reuse rules apply: an entry with
//! strictly more recorded shots replaces one with fewer, and ties keep the
//! incumbent. Because every entry is produced by per-shot seeded RNG streams,
//! two entries with equal shot counts for the same point are bit-identical,
//! which makes the merge commutative and idempotent — files can be folded in
//! any order, any number of times, and the result is the same file.
//!
//! Compatibility is decided at the header level: files must agree on `figure`,
//! `seed`, and `bp_iterations` (the identity a sweep checks too). A source that
//! disagrees — or does not parse — is *skipped and reported*, never silently
//! folded in, and never aborts the merge of the remaining sources. Only the
//! current schema (`CACHE_SCHEMA`) parses: an older file (schema 1 or 2, whose
//! entries lack the `channel` field) is a miss and a skipped source.

use decoder::cache::atomic_write;
use decoder::memory::{LerEstimate, MemoryConfig, PrecisionTarget};
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Version tag of the cache files. Schema 2 added the `mode` header and
/// meets-or-exceeds reuse of per-entry shot counts; schema 3 added the
/// per-entry `channel` identity (see [`noise::ChannelSpec::cache_id`]).
const CACHE_SCHEMA: u64 = 3;

/// One cached point: the spec id, operating point and channel identity it was
/// sampled at, and the shots actually spent (not the configured budget) with
/// the failures among them.
#[derive(Debug, Clone)]
pub(crate) struct CacheEntry {
    pub(crate) id: String,
    pub(crate) p: f64,
    pub(crate) latency: f64,
    pub(crate) channel: String,
    pub(crate) shots: usize,
    pub(crate) failures: usize,
}

/// One cache file: the header and the typed entries, in file order.
#[derive(Debug, Clone)]
pub(crate) struct CacheFile {
    /// Every field except `points`, kept verbatim (so a merge preserves the
    /// `mode`/`target_*` context of its reference file). It always holds the
    /// identity fields: [`CacheFile::new`] writes them, [`CacheFile::read`]
    /// checks them.
    header: BTreeMap<String, Value>,
    pub(crate) entries: Vec<CacheEntry>,
}

/// A JSON object from `(key, value)` pairs.
fn object<const N: usize>(fields: [(&str, Value); N]) -> BTreeMap<String, Value> {
    fields
        .into_iter()
        .map(|(key, value)| (key.to_string(), value))
        .collect()
}

impl CacheFile {
    /// An empty cache for `figure` sampled under `config` (and `precision`,
    /// when the sweep is adaptive). The seed is stored as a decimal string:
    /// the shim's JSON numbers are f64, which would round seeds above 2^53.
    /// The header `shots` is informational; reuse reads the entries' counts.
    pub(crate) fn new(
        figure: &str,
        config: &MemoryConfig,
        precision: Option<&PrecisionTarget>,
    ) -> Self {
        let mut header = object([
            ("schema", Value::from(CACHE_SCHEMA as usize)),
            ("figure", Value::from(figure)),
            ("seed", Value::from(config.seed.to_string())),
            ("shots", Value::from(config.shots)),
            ("bp_iterations", Value::from(config.bp_iterations)),
            (
                "mode",
                Value::from(precision.map_or("fixed", |_| "adaptive")),
            ),
        ]);
        if let Some(target) = precision {
            header.extend(object([
                ("target_rse", Value::Number(target.target_rse)),
                ("min_failures", Value::from(target.min_failures)),
                ("max_shots", Value::from(target.max_shots)),
            ]));
        }
        CacheFile {
            header,
            entries: Vec::new(),
        }
    }

    /// Reads and validates one cache file: parseable JSON of the current
    /// schema with the string `figure` and `seed` and the numeric
    /// `bp_iterations` header fields, and a `points` array whose entries all
    /// carry `id`/`p`/`latency`/`channel`/`shots`/`failures`, with no
    /// duplicate id and no entry recording more failures than shots. The
    /// error is a human-readable reason for the first check that fails.
    pub(crate) fn read(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|err| format!("unreadable: {err}"))?;
        let doc = serde_json::from_str(&text).map_err(|err| format!("malformed JSON: {err}"))?;
        let Some(root) = doc.as_object() else {
            return Err("root is not an object".to_string());
        };
        let mut header = root.clone();
        let points = header.remove("points");
        if header.get("schema").and_then(Value::as_u64) != Some(CACHE_SCHEMA) {
            return Err(format!(
                "not a schema-{CACHE_SCHEMA} cache (older schemas are not read)"
            ));
        }
        let is_text = |field| header.get(field).and_then(Value::as_str).is_some();
        let is_count = |field| header.get(field).and_then(Value::as_u64).is_some();
        if !(is_text("figure") && is_text("seed") && is_count("bp_iterations")) {
            return Err("missing string `figure`/`seed` or numeric `bp_iterations`".to_string());
        }
        let Some(points) = points.as_ref().and_then(Value::as_array) else {
            return Err("missing array field `points`".to_string());
        };
        let mut ids = BTreeSet::new();
        let mut entries = Vec::with_capacity(points.len());
        for (index, entry) in points.iter().enumerate() {
            let field = |key| entry.get(key);
            let (Some(id), Some(p), Some(latency), Some(channel), Some(shots), Some(failures)) = (
                field("id").and_then(Value::as_str),
                field("p").and_then(Value::as_f64),
                field("latency").and_then(Value::as_f64),
                field("channel").and_then(Value::as_str),
                field("shots").and_then(Value::as_u64),
                field("failures").and_then(Value::as_u64),
            ) else {
                return Err(format!(
                    "entry {index} is missing one of id/p/latency/channel/shots/failures"
                ));
            };
            if failures > shots {
                return Err(format!(
                    "entry `{id}` records {failures} failures out of {shots} shots"
                ));
            }
            if !ids.insert(id) {
                return Err(format!("duplicate entry id `{id}`"));
            }
            entries.push(CacheEntry {
                id: id.to_string(),
                p,
                latency,
                channel: channel.to_string(),
                shots: shots as usize,
                failures: failures as usize,
            });
        }
        Ok(CacheFile { header, entries })
    }

    /// Writes the file atomically, entries in order. Zero-shot entries (points
    /// nobody computed) are dropped and each entry's `ler`/`std_err` come from
    /// its counts, so a partial (checkpoint) write is a well-formed cache that
    /// composes with other files via [`merge_files`].
    pub(crate) fn write(&self, path: &Path) -> std::io::Result<()> {
        atomic_write(path, &self.text())
    }

    /// The exact text [`CacheFile::write`] writes.
    fn text(&self) -> String {
        let points = self.entries.iter().filter(|entry| entry.shots > 0);
        let points = points.map(|entry| {
            let ler = LerEstimate::from_counts(entry.shots, entry.failures);
            Value::Object(object([
                ("id", Value::from(entry.id.as_str())),
                ("p", Value::Number(entry.p)),
                ("latency", Value::Number(entry.latency)),
                ("channel", Value::from(entry.channel.as_str())),
                ("shots", Value::from(entry.shots)),
                ("failures", Value::from(entry.failures)),
                ("ler", Value::Number(ler.ler)),
                ("std_err", Value::Number(ler.std_err)),
            ]))
        });
        let mut root = self.header.clone();
        root.insert("points".to_string(), Value::Array(points.collect()));
        serde_json::to_string(&Value::Object(root)) + "\n"
    }

    /// Why `other`'s entries may not stand in for this file's (`None` when
    /// they may): a different figure, seed, or BP iteration cap.
    pub(crate) fn identity_mismatch(&self, other: &CacheFile) -> Option<String> {
        ["figure", "seed", "bp_iterations"]
            .into_iter()
            .find_map(|field| {
                let (want, got) = (&self.header[field], &other.header[field]);
                (want != got).then(|| format!("{field} {got} does not match {want}"))
            })
    }
}

/// What one [`merge_files`] call did.
#[derive(Debug, Clone, Default)]
pub struct MergeReport {
    /// Sources whose entries were folded in.
    pub sources_merged: usize,
    /// Sources left out, with the reason (corrupt file, incompatible header).
    pub sources_skipped: Vec<(PathBuf, String)>,
    /// Entries newly added to the destination.
    pub entries_added: usize,
    /// Destination entries replaced by a strictly-more-shots source entry.
    pub entries_upgraded: usize,
    /// Entry count of the written destination file.
    pub entries_total: usize,
}

/// Merges `sources` into `dest`, writing the union atomically.
///
/// An existing `dest` that parses stays the reference: its header (including
/// `mode` and the `target_*` fields) is kept, and every folded source must match
/// its figure/seed/bp_iterations. Without one, the sources are folded in a
/// canonical order — sorted by the bytes the cache writer would emit for each —
/// and the first of them is the reference, so the merged file does not depend
/// on the order of `sources`. A corrupt `dest` is treated as absent —
/// the merge rebuilds it from the sources rather than failing. Conflicting
/// entries resolve to the one with strictly more recorded shots; ties keep the
/// incumbent. Entries with zero recorded shots are dropped (the sweep engine's
/// loader skips them anyway).
///
/// # Errors
///
/// Returns an error when no input (destination or source) parses as a cache
/// file — there is nothing to write — or when writing the destination fails.
/// Per-source problems are reported in [`MergeReport::sources_skipped`], not as
/// errors.
pub fn merge_files(dest: &Path, sources: &[PathBuf]) -> std::io::Result<MergeReport> {
    let mut report = MergeReport::default();
    // A missing or corrupt destination is rebuilt from the sources.
    let mut merged: Option<CacheFile> = CacheFile::read(dest).ok();
    let mut by_id: BTreeMap<String, CacheEntry> = BTreeMap::new();
    if let Some(file) = merged.as_mut() {
        by_id.extend(
            file.entries
                .drain(..)
                .map(|entry| (entry.id.clone(), entry)),
        );
    }
    let mut parsed_sources = Vec::with_capacity(sources.len());
    for source in sources {
        match CacheFile::read(source) {
            Ok(parsed) => parsed_sources.push((source, parsed)),
            Err(reason) => report.sources_skipped.push((source.clone(), reason)),
        }
    }
    parsed_sources.sort_by_cached_key(|(_, parsed)| parsed.text());
    for (source, parsed) in parsed_sources {
        // With no destination, the first source in canonical order is the
        // reference.
        let reference = merged.get_or_insert_with(|| CacheFile {
            header: parsed.header.clone(),
            entries: Vec::new(),
        });
        if let Some(reason) = reference.identity_mismatch(&parsed) {
            report.sources_skipped.push((source.clone(), reason));
            continue;
        }
        for entry in parsed.entries {
            match by_id.get(&entry.id) {
                Some(existing) if existing.shots >= entry.shots => {}
                Some(_) => {
                    report.entries_upgraded += 1;
                    by_id.insert(entry.id.clone(), entry);
                }
                None => {
                    report.entries_added += 1;
                    by_id.insert(entry.id.clone(), entry);
                }
            }
        }
        report.sources_merged += 1;
    }
    let Some(mut merged) = merged else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "no parseable cache file among {} and {} source(s)",
                dest.display(),
                sources.len()
            ),
        ));
    };
    merged.entries = by_id
        .into_values()
        .filter(|entry| entry.shots > 0)
        .collect();
    report.entries_total = merged.entries.len();
    merged.write(dest)?;
    Ok(report)
}

/// Summary statistics of one cache file.
#[derive(Debug, Clone)]
pub struct CacheStats {
    /// Schema tag recorded in the file (always `CACHE_SCHEMA`: other schemas
    /// do not parse).
    pub schema: u64,
    /// The figure the cache belongs to.
    pub figure: String,
    /// The RNG seed (decimal string, as stored).
    pub seed: String,
    /// The BP iteration cap the entries were decoded under.
    pub bp_iterations: u64,
    /// Sampling mode recorded in the header (`fixed` or `adaptive`; `unknown`
    /// when the field is absent).
    pub mode: String,
    /// Number of point entries.
    pub entries: usize,
    /// Total Monte-Carlo shots recorded across all entries.
    pub total_shots: usize,
    /// Total failures recorded across all entries.
    pub total_failures: usize,
}

/// Parses `path` and summarizes it.
///
/// # Errors
///
/// Returns the same validation failures as [`verify_file`], as a human-readable
/// reason.
pub fn stats_file(path: &Path) -> Result<CacheStats, String> {
    let file = CacheFile::read(path)?;
    let text = |field| file.header.get(field).and_then(Value::as_str);
    Ok(CacheStats {
        schema: CACHE_SCHEMA,
        figure: text("figure").unwrap_or_default().to_string(),
        seed: text("seed").unwrap_or_default().to_string(),
        bp_iterations: file.header["bp_iterations"].as_u64().unwrap_or_default(),
        mode: text("mode").unwrap_or("unknown").to_string(),
        entries: file.entries.len(),
        total_shots: file.entries.iter().map(|entry| entry.shots).sum(),
        total_failures: file.entries.iter().map(|entry| entry.failures).sum(),
    })
}

/// Validates that `path` is a structurally sound cache file: parseable JSON
/// of the current schema with the required header fields, a `points` array
/// whose entries all carry `id`/`p`/`latency`/`channel`/`shots`/`failures`, no
/// duplicate ids, and no entry with more failures than shots.
///
/// # Errors
///
/// Returns a human-readable reason when any check fails.
pub fn verify_file(path: &Path) -> Result<(), String> {
    CacheFile::read(path).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(test: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cyclone-sweep-cache-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn cache_text(figure: &str, entries: &[(&str, usize, usize)]) -> String {
        let points: Vec<String> = entries
            .iter()
            .map(|(id, shots, failures)| {
                format!(
                    "{{\"id\":\"{id}\",\"p\":0.001,\"latency\":0.0,\"channel\":\"uniform\",\
                     \"shots\":{shots},\"failures\":{failures},\"ler\":0.1,\"std_err\":0.01}}"
                )
            })
            .collect();
        format!(
            "{{\"schema\":3,\"figure\":\"{figure}\",\"seed\":\"3250654693\",\"shots\":60,\
             \"bp_iterations\":12,\"mode\":\"fixed\",\"points\":[{}]}}\n",
            points.join(",")
        )
    }

    #[test]
    fn merge_unions_and_prefers_more_shots() {
        let dir = scratch_dir("union");
        let a = dir.join("a.json");
        let b = dir.join("b.json");
        let dest = dir.join("merged.json");
        std::fs::write(&a, cache_text("fig", &[("p0", 100, 3), ("p1", 50, 1)])).unwrap();
        std::fs::write(&b, cache_text("fig", &[("p1", 200, 4), ("p2", 80, 2)])).unwrap();
        let report = merge_files(&dest, &[a, b]).expect("merge");
        assert_eq!(report.sources_merged, 2);
        assert!(report.sources_skipped.is_empty());
        assert_eq!(report.entries_total, 3);
        assert_eq!(report.entries_added, 3);
        assert_eq!(report.entries_upgraded, 1);
        let stats = stats_file(&dest).expect("stats");
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.total_shots, 100 + 200 + 80);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_skips_incompatible_and_corrupt_sources() {
        let dir = scratch_dir("skip");
        let good = dir.join("good.json");
        let other_figure = dir.join("other.json");
        let corrupt = dir.join("corrupt.json");
        let dest = dir.join("merged.json");
        std::fs::write(&good, cache_text("fig", &[("p0", 100, 3)])).unwrap();
        std::fs::write(&other_figure, cache_text("not-fig", &[("p9", 10, 0)])).unwrap();
        std::fs::write(&corrupt, "{\"schema\":3,").unwrap();
        let report = merge_files(&dest, &[good, other_figure, corrupt]).expect("merge");
        assert_eq!(report.sources_merged, 1);
        assert_eq!(report.sources_skipped.len(), 2);
        assert_eq!(report.entries_total, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_is_idempotent_and_commutative_bytewise() {
        let dir = scratch_dir("commute");
        let a = dir.join("a.json");
        let b = dir.join("b.json");
        std::fs::write(&a, cache_text("fig", &[("p0", 100, 3), ("p1", 50, 1)])).unwrap();
        std::fs::write(&b, cache_text("fig", &[("p1", 50, 1), ("p2", 80, 2)])).unwrap();
        let ab = dir.join("ab.json");
        let ba = dir.join("ba.json");
        merge_files(&ab, &[a.clone(), b.clone()]).expect("merge ab");
        merge_files(&ba, &[b.clone(), a.clone()]).expect("merge ba");
        let ab_text = std::fs::read_to_string(&ab).unwrap();
        assert_eq!(ab_text, std::fs::read_to_string(&ba).unwrap());
        // Folding the same sources in again changes nothing.
        merge_files(&ab, &[a, b]).expect("re-merge");
        assert_eq!(ab_text, std::fs::read_to_string(&ab).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_of_fixed_and_adaptive_caches_is_order_independent() {
        let dir = scratch_dir("modes");
        let fixed = dir.join("fixed.json");
        let adaptive = dir.join("adaptive.json");
        std::fs::write(&fixed, cache_text("fig", &[("p0", 100, 3), ("p1", 50, 1)])).unwrap();
        let adaptive_text = cache_text("fig", &[("p0", 300, 9), ("p2", 80, 2)]).replace(
            "\"mode\":\"fixed\"",
            "\"mode\":\"adaptive\",\"target_rse\":0.25,\"min_failures\":4,\"max_shots\":400",
        );
        std::fs::write(&adaptive, adaptive_text).unwrap();
        let (m1, m2) = (dir.join("m1.json"), dir.join("m2.json"));
        merge_files(&m1, &[fixed.clone(), adaptive.clone()]).expect("merge m1");
        merge_files(&m2, &[adaptive.clone(), fixed.clone()]).expect("merge m2");
        let m1_text = std::fs::read_to_string(&m1).unwrap();
        assert_eq!(m1_text, std::fs::read_to_string(&m2).unwrap());
        assert_eq!(stats_file(&m1).expect("stats").total_shots, 300 + 50 + 80);
        // An existing destination stays the reference: its header is kept.
        let dest = dir.join("dest.json");
        std::fs::copy(&fixed, &dest).unwrap();
        merge_files(&dest, &[adaptive]).expect("merge into dest");
        assert_eq!(stats_file(&dest).expect("stats").mode, "fixed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_with_nothing_parseable_errors() {
        let dir = scratch_dir("nothing");
        let corrupt = dir.join("corrupt.json");
        std::fs::write(&corrupt, "not json").unwrap();
        let err = merge_files(&dir.join("merged.json"), &[corrupt]);
        assert!(err.is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_rejects_structural_problems() {
        let dir = scratch_dir("verify");
        let valid = dir.join("valid.json");
        std::fs::write(&valid, cache_text("fig", &[("p0", 100, 3)])).unwrap();
        assert!(verify_file(&valid).is_ok());
        let impossible = dir.join("impossible.json");
        std::fs::write(&impossible, cache_text("fig", &[("p0", 10, 11)])).unwrap();
        assert!(verify_file(&impossible).is_err_and(|reason| reason.contains("failures")));
        let dup = dir.join("dup.json");
        std::fs::write(&dup, cache_text("fig", &[("p0", 10, 1), ("p0", 10, 1)])).unwrap();
        assert!(verify_file(&dup).is_err_and(|reason| reason.contains("duplicate")));
        assert!(verify_file(&dir.join("missing.json")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
