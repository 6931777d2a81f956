//! A deterministic per-syndrome decode cache for the batch Monte-Carlo hot path.
//!
//! BP+OSD decoding is a pure function of `(parity-check matrix, priors, syndrome)`
//! — no randomness, no history. Monte-Carlo sampling at physical rates feeds the
//! decoder a heavily repeated syndrome distribution (at `p ~ 3e-3` on
//! `[[72,12,6]]`, most non-trivial shots carry a single data error or a single
//! measurement flip, i.e. one of ~100 distinct syndromes per sector), so a small
//! set-associative cache keyed by the packed syndrome bits turns the vast
//! majority of decodes into a word-compare plus a copy. Because every entry
//! stores the exact output the decoder would produce, cache hits are
//! bit-identical to cache misses: estimates do not depend on hit order, eviction
//! pattern, thread count, or batch size.
//!
//! The cache is 4-way set-associative with round-robin eviction inside a set —
//! direct mapping showed measurable conflict misses at 16k slots once structured
//! channels fattened the syndrome distribution. The slot count is
//! [`DEFAULT_SLOTS`] ([`DecodeCache::with_slots`] takes another power of two),
//! and conflict evictions are counted next to hits/misses so associativity
//! gains stay observable.
//!
//! The cache is context-tagged: [`DecodeCache::ensure`] clears it whenever the
//! decoding context (matrix shape + priors identity) changes, so a scratch that
//! migrates between sectors or channels can never replay a stale correction.
//!
//! A bound cache can also be persisted ([`DecodeCache::save_to`] /
//! [`DecodeCache::load_from`]): the file records the context tag, the word
//! shapes and a digest of its entries, and a load admits all of a file's
//! entries or none: only when the context matches the currently bound one and
//! the entries match the digest, so a loaded cache never replays a correction
//! from a foreign matrix or channel, or from a damaged file. No sweep path
//! persists its caches; the pair is kept only for the figure benchmark's
//! persistence probe, and goes when that benchmark is next revised.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Writes `text` to `path` atomically (the one atomic-write helper, shared by
/// decode caches and sweep caches): the bytes land in a uniquely named temp
/// file in the same directory (created if missing), which is then renamed over
/// the destination. A crash leaves at worst a stray temp file, and readers only
/// ever observe a complete version — never a torn mix. The temp name is unique
/// per process (pid) and per call (a counter; `cyclone-lint` bans wall clocks
/// in decode modules).
///
/// # Errors
///
/// Returns any I/O error; the temp file is removed on a failed rename.
pub fn atomic_write(path: &Path, text: &str) -> std::io::Result<()> {
    static TEMP_NONCE: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(parent) = dir {
        std::fs::create_dir_all(parent)?;
    }
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
        })?
        .to_string_lossy()
        .into_owned();
    let tmp_name = format!(
        ".{file_name}.tmp.{}.{}",
        std::process::id(),
        TEMP_NONCE.fetch_add(1, Ordering::Relaxed)
    );
    let tmp = match dir {
        Some(parent) => parent.join(&tmp_name),
        None => PathBuf::from(&tmp_name),
    };
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Associativity: ways per set. Four ways absorb the conflict chains that a
/// direct-mapped table shows on structured-channel syndrome mixes while keeping
/// the probe loop short enough to stay in the word-compare regime.
const WAYS: usize = 4;

/// Default number of cache slots (power of two). Sized to hold the popular
/// syndromes of the catalog codes — singles plus most of the two-event tail,
/// a few thousand distinct at physical rates.
///
/// The footprint is slots × (syndrome + correction) words per sector and
/// worker: 384 KiB on `[[72,12,6]]` (1 + 2 words a slot), but 768 KiB on
/// `[[225,9,6]]` (2 + 4 words), so about 3.1 MB over two sectors and two
/// workers, over a third of the 8.1 MB peak RSS of the figure benchmark's
/// `hgp-uniform-adaptive` workload. Capacity does not limit the hit rate
/// there: with 2²⁰ slots, the benchmark's `cache.hit_frac` rose only from
/// 0.767 to 0.788 on `bb-uniform-fixed` (its 104k evictions are one-off
/// syndromes) and from 0.777 to 0.779 on `hgp-uniform-adaptive`; with 4,096
/// slots, peak RSS fell from 6.1 to 4.6 MB and from 8.1 to 5.5 MB, at hit
/// rates of 0.708 and 0.758. Any size change needs its own paired
/// end-to-end measurement.
pub const DEFAULT_SLOTS: usize = 16384;

/// Schema version written by [`DecodeCache::save_to`]. Schema 2 added the
/// entries' content digest; a schema-1 file is a miss.
const PERSIST_SCHEMA: u64 = 2;

/// File-format marker written by [`DecodeCache::save_to`].
const PERSIST_KIND: &str = "cyclone-decode-cache";

/// A set-associative syndrome → correction cache for one decoding context.
#[derive(Debug, Clone)]
pub struct DecodeCache {
    /// Context tag: digest of the decoding context (sector matrix shape + priors
    /// identity). A mismatch in [`DecodeCache::ensure`] clears every slot.
    tag: u64,
    /// Total slots (`sets × WAYS`), power of two.
    slots: usize,
    /// Words per packed syndrome (`ceil(checks / 64)`).
    syn_words: usize,
    /// Words per packed correction (`ceil(vars / 64)`).
    corr_words: usize,
    /// Slot occupancy flags, way-major within each set.
    valid: Vec<bool>,
    /// Packed syndromes, `slots × syn_words`, slot-major.
    syn: Vec<u64>,
    /// Packed corrections, `slots × corr_words`, slot-major.
    corr: Vec<u64>,
    /// Per-set round-robin eviction cursor.
    next_way: Vec<u8>,
    /// Lookup hits since the last clear (telemetry for tests/benches).
    hits: u64,
    /// Lookup misses since the last clear.
    misses: u64,
    /// Conflict evictions (insert into a full set) since the last clear.
    evictions: u64,
}

impl Default for DecodeCache {
    fn default() -> Self {
        Self::new()
    }
}

impl DecodeCache {
    /// Creates an empty cache of [`DEFAULT_SLOTS`] slots; storage is allocated
    /// by the first [`DecodeCache::ensure`].
    pub fn new() -> Self {
        Self::with_slots(DEFAULT_SLOTS)
    }

    /// Creates an empty cache with an explicit total slot count (must be a
    /// power of two holding at least one full set).
    ///
    /// # Panics
    ///
    /// Panics if `slots` is not a power of two holding at least one full set
    /// (4 slots).
    pub fn with_slots(slots: usize) -> Self {
        assert!(
            slots.is_power_of_two() && slots >= WAYS,
            "DecodeCache slots must be a power of two >= {WAYS}, got {slots}"
        );
        Self {
            tag: 0,
            slots,
            syn_words: 0,
            corr_words: 0,
            valid: Vec::new(),
            syn: Vec::new(),
            corr: Vec::new(),
            next_way: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Binds the cache to a decoding context, clearing it if the context changed.
    /// Allocates only on first use or when the shape grows — the Monte-Carlo
    /// steady state (one context per run) performs no allocation here.
    pub fn ensure(&mut self, tag: u64, checks: usize, vars: usize) {
        let syn_words = checks.div_ceil(64).max(1);
        let corr_words = vars.div_ceil(64).max(1);
        if self.tag == tag
            && self.syn_words == syn_words
            && self.corr_words == corr_words
            && !self.valid.is_empty()
        {
            return;
        }
        self.tag = tag;
        self.syn_words = syn_words;
        self.corr_words = corr_words;
        self.valid.clear();
        self.valid.resize(self.slots, false);
        self.syn.clear();
        self.syn.resize(self.slots * syn_words, 0);
        self.corr.clear();
        self.corr.resize(self.slots * corr_words, 0);
        self.next_way.clear();
        self.next_way.resize(self.slots / WAYS, 0);
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
    }

    /// The set index of a packed syndrome.
    fn set_of(&self, syn: &[u64]) -> usize {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &w in syn {
            hash ^= w;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // A multiply alone never diffuses a bit *downward*, so without a
        // finalizer every weight-1 syndrome above bit log2(sets) would share
        // one set. Murmur3's fmix64 spreads every syndrome bit into the index.
        hash ^= hash >> 33;
        hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
        hash ^= hash >> 33;
        (hash as usize) & (self.slots / WAYS - 1)
    }

    /// The storage slot of `(set, way)`.
    fn slot_index(&self, set: usize, way: usize) -> usize {
        set * WAYS + way
    }

    /// Looks up a packed syndrome; on a hit returns the stored packed correction.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `syn` does not match the bound context's word count.
    // cyclone-lint: hot-path
    pub fn lookup(&mut self, syn: &[u64]) -> Option<&[u64]> {
        debug_assert_eq!(syn.len(), self.syn_words);
        let set = self.set_of(syn);
        for way in 0..WAYS {
            let slot = self.slot_index(set, way);
            let stored = &self.syn[slot * self.syn_words..(slot + 1) * self.syn_words];
            if self.valid[slot] && stored == syn {
                self.hits += 1;
                return Some(&self.corr[slot * self.corr_words..(slot + 1) * self.corr_words]);
            }
        }
        self.misses += 1;
        None
    }

    /// Stores the correction for a syndrome. An already-present syndrome is
    /// overwritten in place; otherwise an invalid way is filled, or — when the
    /// set is full — the round-robin victim way is evicted (counted in
    /// [`DecodeCache::evictions`]; eviction never affects results, only hit
    /// rates, because every entry is the exact decoder output).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the word counts do not match the bound context.
    pub fn insert(&mut self, syn: &[u64], corr: &[u64]) {
        debug_assert_eq!(syn.len(), self.syn_words);
        debug_assert_eq!(corr.len(), self.corr_words);
        let set = self.set_of(syn);
        let mut victim = None;
        for way in 0..WAYS {
            let slot = self.slot_index(set, way);
            let stored = &self.syn[slot * self.syn_words..(slot + 1) * self.syn_words];
            if self.valid[slot] && stored == syn {
                victim = Some(slot);
                break;
            }
            if !self.valid[slot] && victim.is_none() {
                victim = Some(slot);
            }
        }
        let slot = match victim {
            Some(slot) => slot,
            None => {
                let way = usize::from(self.next_way[set]);
                self.next_way[set] = ((way + 1) % WAYS) as u8;
                self.evictions += 1;
                self.slot_index(set, way)
            }
        };
        self.valid[slot] = true;
        self.syn[slot * self.syn_words..(slot + 1) * self.syn_words].copy_from_slice(syn);
        self.corr[slot * self.corr_words..(slot + 1) * self.corr_words].copy_from_slice(corr);
    }
    // cyclone-lint: end-hot-path

    /// Lookup hits since the cache was last (re)bound.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses since the cache was last (re)bound.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Conflict evictions (inserts into a full set) since the last (re)bind.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of valid entries currently stored.
    pub fn len(&self) -> usize {
        self.valid.iter().filter(|&&v| v).count()
    }

    /// Whether the cache holds no entries (or is unbound).
    pub fn is_empty(&self) -> bool {
        !self.valid.iter().any(|&v| v)
    }

    /// Writes every valid entry (plus the context tag and word shapes) to
    /// `path` as JSON, via an atomic temp-file + rename in the same directory,
    /// so readers never observe a torn file. Entries are pure decoder outputs,
    /// so the file is a throwaway accelerator: deleting it at any time only
    /// costs warm-up misses, never correctness.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing or renaming the temp file.
    pub fn save_to(&self, path: &Path) -> std::io::Result<()> {
        use serde_json::Value;
        use std::collections::BTreeMap;

        let mut pairs = Vec::new();
        for slot in 0..self.slots.min(self.valid.len()) {
            if !self.valid[slot] {
                continue;
            }
            let syn = &self.syn[slot * self.syn_words..(slot + 1) * self.syn_words];
            let corr = &self.corr[slot * self.corr_words..(slot + 1) * self.corr_words];
            pairs.push((words_to_hex(syn), words_to_hex(corr)));
        }
        let digest = entries_digest(&pairs);
        let entry = |s, c| Value::Object(BTreeMap::from([("s".into(), s), ("c".into(), c)]));
        let entries = pairs
            .into_iter()
            .map(|(s, c)| entry(Value::String(s), Value::String(c)));
        let mut root = BTreeMap::new();
        root.insert("kind".to_string(), Value::String(PERSIST_KIND.to_string()));
        root.insert("schema".to_string(), Value::Number(PERSIST_SCHEMA as f64));
        root.insert(
            "tag".to_string(),
            Value::String(format!("{:016x}", self.tag)),
        );
        root.insert(
            "syn_words".to_string(),
            Value::Number(self.syn_words as f64),
        );
        root.insert(
            "corr_words".to_string(),
            Value::Number(self.corr_words as f64),
        );
        root.insert("digest".to_string(), Value::String(digest));
        root.insert("entries".to_string(), Value::Array(entries.collect()));
        atomic_write(path, &serde_json::to_string(&Value::Object(root)))
    }

    /// Loads persisted entries from `path` into the cache, which must already
    /// be bound (via [`DecodeCache::ensure`]) to the context the file was
    /// saved under. Entries are admitted through the normal insert path, so a
    /// file saved at one slot count loads cleanly into any other.
    ///
    /// Returns the number of entries admitted. Any mismatch — missing or
    /// unreadable file, corrupt JSON, foreign kind/schema, a context tag or
    /// word shape different from the bound one, or an entry that is malformed
    /// or disagrees with the recorded digest — loads nothing and returns 0: a
    /// persisted cache is an accelerator, never a correctness input.
    pub fn load_from(&mut self, path: &Path) -> usize {
        if self.valid.is_empty() {
            return 0;
        }
        let Ok(text) = std::fs::read_to_string(path) else {
            return 0;
        };
        let Ok(root) = serde_json::from_str(&text) else {
            return 0;
        };
        if root.get("kind").and_then(|v| v.as_str()) != Some(PERSIST_KIND)
            || root.get("schema").and_then(|v| v.as_u64()) != Some(PERSIST_SCHEMA)
            || root.get("tag").and_then(|v| v.as_str())
                != Some(format!("{:016x}", self.tag).as_str())
            || root.get("syn_words").and_then(|v| v.as_u64()) != Some(self.syn_words as u64)
            || root.get("corr_words").and_then(|v| v.as_u64()) != Some(self.corr_words as u64)
        {
            return 0;
        }
        let Some(entries) = root.get("entries").and_then(|v| v.as_array()) else {
            return 0;
        };
        let pairs: Option<Vec<(&str, &str)>> = entries
            .iter()
            .map(|entry| Some((entry.get("s")?.as_str()?, entry.get("c")?.as_str()?)))
            .collect();
        let Some(pairs) = pairs else {
            return 0;
        };
        if root.get("digest").and_then(|v| v.as_str()) != Some(entries_digest(&pairs).as_str()) {
            return 0;
        }
        // The digest matched, so every entry is the hex `save_to` wrote.
        let mut syn = vec![0u64; self.syn_words];
        let mut corr = vec![0u64; self.corr_words];
        let mut loaded = 0;
        for (s, c) in pairs {
            if hex_to_words(s, &mut syn).is_ok() && hex_to_words(c, &mut corr).is_ok() {
                self.insert(&syn, &corr);
                loaded += 1;
            }
        }
        loaded
    }
}

/// The FNV-1a digest of the entries' hex text, in file order, as 16 hex
/// digits. A persisted file records it, so a flipped digit, a dropped entry or
/// an edited correction makes the whole file a miss instead of admitting a
/// wrong correction.
fn entries_digest<S: AsRef<str>>(pairs: &[(S, S)]) -> String {
    let mut hash = noise::fnv::Fnv1a::new();
    for (syn, corr) in pairs {
        let (syn, corr) = (syn.as_ref().as_bytes(), corr.as_ref().as_bytes());
        hash.write(syn).write(b":").write(corr).write(b";");
    }
    format!("{:016x}", hash.finish())
}

/// Encodes packed words as lowercase fixed-width hex, comma-joined. Hex strings
/// keep `u64` payloads exact through the JSON shim, whose numbers are `f64`
/// (lossy above 2^53).
fn words_to_hex(words: &[u64]) -> String {
    let mut out = String::with_capacity(words.len() * 17);
    for (i, &w) in words.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{w:016x}"));
    }
    out
}

/// Decodes a [`words_to_hex`] string into `out`; errors on any shape or digit
/// mismatch.
fn hex_to_words(text: &str, out: &mut [u64]) -> Result<(), ()> {
    let mut parts = text.split(',');
    for slot in out.iter_mut() {
        let part = parts.next().ok_or(())?;
        *slot = u64::from_str_radix(part, 16).map_err(|_| ())?;
    }
    if parts.next().is_some() {
        return Err(());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_roundtrip_and_counters() {
        let mut cache = DecodeCache::new();
        cache.ensure(7, 36, 72);
        let syn = [0b1010u64];
        let corr = [0x5u64, 0x0];
        assert!(cache.lookup(&syn).is_none());
        cache.insert(&syn, &corr);
        assert_eq!(cache.lookup(&syn), Some(&corr[..]));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn context_change_clears() {
        let mut cache = DecodeCache::new();
        cache.ensure(7, 36, 72);
        cache.insert(&[1], &[2, 0]);
        // Same context: entries survive.
        cache.ensure(7, 36, 72);
        assert!(cache.lookup(&[1]).is_some());
        // New tag: entries gone.
        cache.ensure(8, 36, 72);
        assert!(cache.lookup(&[1]).is_none());
        // New shape: entries gone and word counts rebound.
        cache.ensure(8, 100, 72);
        assert!(cache.lookup(&[1, 0]).is_none());
    }

    #[test]
    fn distinct_syndromes_do_not_alias_results() {
        // Even when two syndromes collide on a set, the full-syndrome compare
        // prevents one's correction from being returned for the other.
        let mut cache = DecodeCache::new();
        cache.ensure(1, 64, 64);
        for s in 0..10_000u64 {
            if let Some(corr) = cache.lookup(&[s]) {
                assert_eq!(corr, &[s ^ 0xABCD]);
            } else {
                cache.insert(&[s], &[s ^ 0xABCD]);
            }
        }
        // Re-probe: every hit must return its own correction.
        for s in 0..10_000u64 {
            if let Some(corr) = cache.lookup(&[s]) {
                assert_eq!(corr, &[s ^ 0xABCD]);
            }
        }
    }

    #[test]
    fn set_retains_up_to_four_conflicting_syndromes() {
        // A minimal cache with a single set: the first WAYS distinct syndromes
        // must all be retained simultaneously (direct mapping kept only one).
        let mut cache = DecodeCache::with_slots(WAYS);
        cache.ensure(3, 64, 64);
        let syndromes: Vec<[u64; 1]> = (1..=WAYS as u64).map(|s| [s]).collect();
        for syn in &syndromes {
            cache.insert(syn, &[syn[0] * 10]);
        }
        assert_eq!(cache.evictions(), 0);
        for syn in &syndromes {
            assert_eq!(cache.lookup(syn), Some(&[syn[0] * 10][..]));
        }
        assert_eq!(cache.hits(), WAYS as u64);
    }

    #[test]
    fn full_set_evicts_round_robin_and_counts() {
        let mut cache = DecodeCache::with_slots(WAYS);
        cache.ensure(3, 64, 64);
        for s in 1..=WAYS as u64 + 2 {
            cache.insert(&[s], &[s]);
        }
        // Two inserts past capacity evicted two victims.
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.len(), WAYS);
        // The newest entries are present.
        assert!(cache.lookup(&[WAYS as u64 + 1]).is_some());
        assert!(cache.lookup(&[WAYS as u64 + 2]).is_some());
    }

    #[test]
    fn reinserting_same_syndrome_overwrites_in_place() {
        let mut cache = DecodeCache::with_slots(WAYS);
        cache.ensure(3, 64, 64);
        cache.insert(&[5], &[1]);
        cache.insert(&[5], &[2]);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.lookup(&[5]), Some(&[2u64][..]));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn with_slots_rejects_less_than_one_set() {
        let _ = DecodeCache::with_slots(WAYS / 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn with_slots_rejects_non_power_of_two() {
        let _ = DecodeCache::with_slots(100);
    }

    #[test]
    fn persisted_roundtrip() {
        let dir = std::env::temp_dir().join(format!("decode-cache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.json");

        let mut cache = DecodeCache::with_slots(64);
        cache.ensure(0xDEAD_BEEF, 72, 144);
        for s in 1..40u64 {
            cache.insert(&[s, s << 32], &[!s, s.rotate_left(7), 0]);
        }
        let stored = cache.len();
        cache.save_to(&path).unwrap();

        // A fresh cache bound to the same context (different slot count to
        // prove slot-layout independence) admits every entry; a smaller
        // geometry may conflict-evict some, but never corrupts the rest.
        let mut warm = DecodeCache::with_slots(256);
        warm.ensure(0xDEAD_BEEF, 72, 144);
        assert_eq!(warm.load_from(&path), stored);
        let evicted = warm.evictions() as usize;
        assert_eq!(warm.len(), stored - evicted);
        let mut surviving = 0;
        for s in 1..40u64 {
            if let Some(corr) = warm.lookup(&[s, s << 32]) {
                assert_eq!(corr, &[!s, s.rotate_left(7), 0][..]);
                surviving += 1;
            }
        }
        assert_eq!(surviving, stored - evicted);
        assert!(surviving > stored / 2, "eviction ate the cache");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persisted_load_rejects_foreign_context_and_corrupt_files() {
        let dir = std::env::temp_dir().join(format!("decode-cache-rej-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");

        let mut cache = DecodeCache::with_slots(64);
        cache.ensure(1, 72, 144);
        cache.insert(&[1, 2], &[3, 4, 5]);
        cache.save_to(&path).unwrap();

        // Foreign tag: nothing loads.
        let mut other = DecodeCache::with_slots(64);
        other.ensure(2, 72, 144);
        assert_eq!(other.load_from(&path), 0);
        // Foreign shape: nothing loads.
        let mut shaped = DecodeCache::with_slots(64);
        shaped.ensure(1, 72, 288);
        assert_eq!(shaped.load_from(&path), 0);
        // Unbound cache: nothing loads.
        assert_eq!(DecodeCache::with_slots(64).load_from(&path), 0);
        // Missing file: nothing loads.
        let mut fresh = DecodeCache::with_slots(64);
        fresh.ensure(1, 72, 144);
        assert_eq!(fresh.load_from(&dir.join("missing.json")), 0);
        // Corrupt JSON: nothing loads, cache still usable.
        std::fs::write(&path, "{ not json").unwrap();
        assert_eq!(fresh.load_from(&path), 0);
        fresh.insert(&[9, 9], &[9, 9, 9]);
        assert_eq!(fresh.lookup(&[9, 9]), Some(&[9u64, 9, 9][..]));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repeated_saves_leave_no_temp_files() {
        // The atomic-publish temp names come from a pid + process-wide counter
        // (not wall-clock), so back-to-back saves must produce distinct temp
        // files, publish cleanly, and leave nothing behind in the directory.
        let dir = std::env::temp_dir().join(format!("decode-cache-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");

        let mut cache = DecodeCache::with_slots(64);
        cache.ensure(7, 72, 144);
        for i in 0..4u64 {
            cache.insert(&[i, i + 1], &[i, i, i]);
            cache.save_to(&path).unwrap();
        }
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n != "cache.json")
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");

        let mut back = DecodeCache::with_slots(64);
        back.ensure(7, 72, 144);
        assert_eq!(back.load_from(&path), 4);

        std::fs::remove_dir_all(&dir).ok();
    }

    /// A saved `[[72,12,6]]`-shaped cache (one syndrome word, two correction
    /// words) for the loader fuzz tests: the file's bytes, its parsed
    /// document, and the entry count a clean load admits.
    fn fuzz_fixture(test: &str) -> (Vec<u8>, serde_json::Value, usize) {
        let dir = std::env::temp_dir().join(format!(
            "decode-cache-{test}-fixture-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fixture.json");
        let mut cache = DecodeCache::with_slots(64);
        cache.ensure(0xFACE, 36, 72);
        for s in 1..13u64 {
            cache.insert(&[s * 0x9E37], &[s.rotate_left(13), s.wrapping_mul(0xA5A5)]);
        }
        cache.save_to(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let doc = serde_json::from_str(std::str::from_utf8(&bytes).unwrap()).unwrap();
        (bytes, doc, cache.len())
    }

    /// Loads `bytes` into a cache bound to the fixture's context. A file that
    /// reads back as the saved document admits every entry; any other file is
    /// a miss and admits none.
    fn load_fuzzed(test: &str, bytes: &[u8], saved: &serde_json::Value, stored: usize) {
        let dir = std::env::temp_dir().join(format!("decode-cache-{test}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fuzzed.json");
        std::fs::write(&path, bytes).unwrap();
        let mut cache = DecodeCache::with_slots(64);
        cache.ensure(0xFACE, 36, 72);
        let admitted = cache.load_from(&path);
        let intact = std::str::from_utf8(bytes)
            .ok()
            .and_then(|text| serde_json::from_str(text).ok())
            .is_some_and(|doc| doc == *saved);
        let want = if intact { stored } else { 0 };
        assert_eq!(admitted, want, "{:?}", String::from_utf8_lossy(bytes));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_persisted_caches_admit_nothing() {
        let (bytes, saved, stored) = fuzz_fixture("truncate");
        for len in 0..=bytes.len() {
            load_fuzzed("truncate", &bytes[..len], &saved, stored);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256).with_seed(0xC1C1_0DE5))]

        #[test]
        fn flipped_persisted_caches_admit_nothing(
            flips in proptest::collection::vec((proptest::arbitrary::any::<usize>(), 1u8..=255), 1..4),
        ) {
            let (mut bytes, saved, stored) = fuzz_fixture("flip");
            for (at, mask) in flips {
                let len = bytes.len();
                bytes[at % len] ^= mask;
            }
            load_fuzzed("flip", &bytes, &saved, stored);
        }
    }
}
