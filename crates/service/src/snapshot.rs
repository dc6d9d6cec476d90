//! Persistent warm-cache snapshots: the cotree cache on disk.
//!
//! Every restart of the daemon used to start cold, re-paying recognition
//! and the paper's cotree computations for every graph the previous process
//! had already served. Everything a cache entry holds besides its cotree is
//! a function of that cotree: the canonical key, a linked graph and its
//! fingerprint, and (by the paper's Lemma 2.4) every memoised answer. So a
//! snapshot stores only what cannot be recomputed — each resident cotree,
//! whether a graph link points at it, and the LRU order — and reloads it on
//! `serve`, turning restarts, deploys and crashes into warm starts.
//!
//! ## Format (`pcsnap2`)
//!
//! A snapshot is a text file of newline-terminated records:
//!
//! ```text
//! pcsnap2 <entry-count>
//! {"term":"(j 0 1 2)","link":true}
//! ...one JSON object per entry...
//! pcsum <16-hex FNV-1a of every preceding byte>
//! ```
//!
//! * the header carries the format magic + version and the entry count;
//! * each entry stores the cotree in *labelled* term notation
//!   ([`cograph::Cotree::to_term`] — exact leaf labels, exact child order),
//!   `"link":true` when an ingested graph is linked to it, and
//!   `"link_only":true` when it survives only through that link;
//! * the footer closes the file with a checksum over everything above it,
//!   so truncation and bit rot are both detectable.
//!
//! Entries appear shard by shard in least → most recently used order:
//! re-importing in file order reproduces each shard's eviction order.
//! Linked graphs are **not** stored — a linked entry's leaf labels are
//! exactly `0..n`, so its cotree materialises the ingested graph
//! (`Cotree::to_graph`), which the loader re-derives and fingerprints.
//!
//! `pcsnap1` files still load warm. Their entries also carry the canonical
//! key, the memoised answers and the linked graphs' fingerprints; a
//! non-empty `fps` reads as `"link":true` and the stored values are ignored.
//!
//! ## Integrity: nothing read from disk is an answer
//!
//! Loading checks the checksum, the header and the entry count, re-parses
//! and validates every term, and refuses a link on leaf labels that are not
//! `0..n`. Any failure rejects the whole file before anything touches the
//! cache: [`load_or_quarantine`] renames it to `<path>.corrupt` and reports
//! a cold start. Keys, fingerprints and answers are computed from the
//! cotrees, never read, so a loaded entry answers exactly as a fresh one
//! would, and a file stays valid across changes to the hash, the
//! fingerprint or a solver.
//!
//! ## Atomicity
//!
//! [`save`] writes to a temporary file in the snapshot's directory, syncs
//! it, then renames it over the target — a crash mid-checkpoint leaves the
//! previous snapshot intact, never a half-written one.

use crate::cache::{graph_fingerprint, CotreeCache, SolveEntry};
use crate::ingest::parse_cotree_term_labelled;
use crate::json::Json;
use cograph::Cotree;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Snapshot format version written by this build (the `2` in `pcsnap2`);
/// `pcsnap1` files still load.
pub const SNAPSHOT_VERSION: u64 = 2;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice — the per-file checksum of the `pcsum` footer.
///
/// Public so tests can re-seal a deliberately edited file and exercise
/// what the loader makes of its content rather than the checksum.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Everything that can go wrong saving, loading or inspecting a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading or writing the file failed.
    Io(io::Error),
    /// The header is not `pcsnap<version> <count>` for a version this
    /// build reads.
    BadHeader(String),
    /// The file ends before the announced entries and checksum footer.
    Truncated(String),
    /// The stored checksum does not match the file's bytes.
    ChecksumMismatch {
        /// Checksum recorded in the footer.
        stored: u64,
        /// Checksum recomputed from the bytes.
        computed: u64,
    },
    /// An entry failed parsing or validation.
    Entry {
        /// 1-based line of the offending entry.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A save was requested but the engine has no snapshot path configured.
    NotConfigured,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "i/o error: {e}"),
            SnapshotError::BadHeader(msg) => write!(f, "bad snapshot header: {msg}"),
            SnapshotError::Truncated(msg) => write!(f, "truncated snapshot: {msg}"),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: footer says {stored:016x}, bytes hash to {computed:016x}"
            ),
            SnapshotError::Entry { line, message } => write!(f, "line {line}: {message}"),
            SnapshotError::NotConfigured => {
                write!(
                    f,
                    "no snapshot path configured (serve with --snapshot PATH)"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// What [`save`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaveReport {
    /// Entries written.
    pub entries: usize,
    /// Graph links written.
    pub links: usize,
    /// File size in bytes.
    pub bytes: u64,
    /// Wall time of the whole save (serialise + write + fsync + rename)
    /// in microseconds, feeding the checkpoint-duration histogram.
    pub elapsed_micros: u64,
}

/// What [`load`] imported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadReport {
    /// Entries imported into the cache.
    pub entries: usize,
    /// Graph links re-established.
    pub links: usize,
}

/// What [`inspect`] found (a full parse + validation, no cache import).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InspectReport {
    /// Format version of the file.
    pub version: u64,
    /// Entries in the file.
    pub entries: usize,
    /// Graph links in the file.
    pub links: usize,
    /// Sum of vertex counts over all entries.
    pub total_vertices: usize,
    /// File size in bytes.
    pub bytes: u64,
}

/// Outcome of [`load_or_quarantine`]: how the cache starts.
#[derive(Debug)]
pub enum LoadOutcome {
    /// No snapshot file exists — a clean cold start.
    ColdStart,
    /// The snapshot verified and was imported — a warm start.
    Warm(LoadReport),
    /// The file could not be *read* (permissions, transient I/O). The
    /// cache starts cold but the file is left exactly where it is: a
    /// wrong-user start or a flaky mount must not destroy warm state that
    /// a corrected restart could still load.
    Unreadable(SnapshotError),
    /// The snapshot failed verification; it was moved aside and the cache
    /// starts cold.
    Quarantined {
        /// Why the file was rejected.
        error: SnapshotError,
        /// Where the corrupt file was moved (`<path>.corrupt`), when the
        /// rename itself succeeded.
        moved_to: Option<PathBuf>,
    },
}

/// One parsed and validated entry, ready to import or summarise.
struct ParsedEntry {
    cotree: Cotree,
    /// An ingested graph was linked to the entry: import re-derives it from
    /// the cotree (whose labels are checked to be `0..n`) and links it.
    link: bool,
    /// The entry was evicted from the canonical map before the save and
    /// survives only through its graph link: import must re-establish the
    /// link without promoting the entry back into the canonical LRU.
    link_only: bool,
}

struct ParsedSnapshot {
    version: u64,
    entries: Vec<ParsedEntry>,
}

/// Serialises the cache and writes it to `path` atomically (tmp + rename).
pub fn save(cache: &CotreeCache, path: &Path) -> Result<SaveReport, SnapshotError> {
    let save_started = std::time::Instant::now();
    let mut records: Vec<String> = Vec::new();
    let mut links = 0usize;
    for exported in cache.export() {
        let cotree = &exported.entry.cotree;
        // Only links the loader can re-derive are persisted: the cotree must
        // materialise the linked graph. Links fed through the raw cache API
        // to cotrees with other labels (impossible via the engine) are
        // dropped, so a file written by `save` always loads.
        let link = exported.linked && dense_labels(cotree);
        if !exported.canonical && !link {
            // Reachable neither by key nor by a reloadable link: a restart
            // could never serve it, so persisting it is pure noise.
            continue;
        }
        let mut fields = vec![("term", Json::str(cotree.to_term()))];
        if link {
            links += 1;
            fields.push(("link", Json::Bool(true)));
        }
        if !exported.canonical {
            // The entry had already been evicted from the canonical map and
            // survives only through its graph link; the loader must
            // re-establish the link without re-promoting the entry into the
            // canonical LRU (which would evict genuinely warm entries).
            fields.push(("link_only", Json::Bool(true)));
        }
        records.push(Json::obj(fields).to_string());
    }
    let mut body = format!("pcsnap{SNAPSHOT_VERSION} {}\n", records.len());
    let entries = records.len();
    for record in records {
        body.push_str(&record);
        body.push('\n');
    }
    let sum = checksum(body.as_bytes());
    body.push_str(&format!("pcsum {sum:016x}\n"));
    let bytes = write_atomic(path, body.as_bytes())?;
    Ok(SaveReport {
        entries,
        links,
        bytes,
        elapsed_micros: save_started.elapsed().as_micros() as u64,
    })
}

/// `true` when the cotree's leaf labels are exactly `0..n`, so that it
/// materialises a linked graph (always true for entries the engine linked,
/// since recognition labels leaves with the graph's own vertex ids). The
/// labels of a valid cotree are distinct, so all below `n` is all of `0..n`.
fn dense_labels(cotree: &Cotree) -> bool {
    let n = cotree.num_vertices();
    cotree.vertices().iter().all(|&v| (v as usize) < n)
}

/// Writes `bytes` to a same-directory temp file, syncs, renames over
/// `path`. Returns the byte count written.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<u64, SnapshotError> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            SnapshotError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("snapshot path {} has no file name", path.display()),
            ))
        })?
        .to_string_lossy()
        .into_owned();
    let tmp = dir.join(format!(
        ".{file_name}.tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if let Err(error) = result {
        let _ = fs::remove_file(&tmp);
        return Err(SnapshotError::Io(error));
    }
    Ok(bytes.len() as u64)
}

/// Parses and validates a snapshot's bytes (checksum, header, entry
/// count, and every entry's term and link flags).
fn parse_and_verify(bytes: &[u8]) -> Result<ParsedSnapshot, SnapshotError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| SnapshotError::BadHeader("snapshot is not UTF-8".to_string()))?;
    // Footer first: its absence is the signature of a truncated file, and
    // the checksum must vouch for the bytes before anything is parsed.
    let Some(stripped) = text.strip_suffix('\n') else {
        return Err(SnapshotError::Truncated(
            "file does not end with a newline".to_string(),
        ));
    };
    // `body` is a sub-slice of the input (header + entry lines, trailing
    // newline included) — no copy of a potentially large file just to
    // checksum it.
    let (body, footer) = match stripped.rsplit_once('\n') {
        Some((head, footer)) => (&text[..head.len() + 1], footer),
        // A one-line file can only be a bare header with zero entries and
        // no footer: still truncated.
        None => (&text[..0], stripped),
    };
    let Some(stored) = footer.strip_prefix("pcsum ") else {
        return Err(SnapshotError::Truncated(format!(
            "missing 'pcsum' footer (file ends with {footer:?})"
        )));
    };
    let stored = u64::from_str_radix(stored.trim(), 16)
        .map_err(|_| SnapshotError::Truncated(format!("unparseable checksum {stored:?}")))?;
    let computed = checksum(body.as_bytes());
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }

    let mut lines = body.lines();
    let header = lines
        .next()
        .ok_or_else(|| SnapshotError::Truncated("empty file".to_string()))?;
    let rest = header
        .strip_prefix("pcsnap")
        .ok_or_else(|| SnapshotError::BadHeader(format!("not a snapshot file: {header:?}")))?;
    let (version, count) = rest
        .split_once(' ')
        .ok_or_else(|| SnapshotError::BadHeader(format!("malformed header {header:?}")))?;
    let version: u64 = version
        .parse()
        .map_err(|_| SnapshotError::BadHeader(format!("malformed header {header:?}")))?;
    if version != 1 && version != SNAPSHOT_VERSION {
        return Err(SnapshotError::BadHeader(format!(
            "snapshot version {version} (this build reads pcsnap1 and pcsnap{SNAPSHOT_VERSION})"
        )));
    }
    let count: usize = count
        .parse()
        .map_err(|_| SnapshotError::BadHeader(format!("bad entry count in header {header:?}")))?;

    let mut entries = Vec::new();
    for (idx, line) in lines.enumerate() {
        // Header is line 1; the first entry is line 2.
        entries.push(parse_entry(line, idx + 2, version)?);
    }
    if entries.len() != count {
        return Err(SnapshotError::Truncated(format!(
            "header announces {count} entries, found {}",
            entries.len()
        )));
    }
    Ok(ParsedSnapshot { version, entries })
}

/// Parses one entry line of a `pcsnap<version>` file and validates its
/// term and link flags.
fn parse_entry(line: &str, line_no: usize, version: u64) -> Result<ParsedEntry, SnapshotError> {
    let entry_error = |message: &str| SnapshotError::Entry {
        line: line_no,
        message: message.to_string(),
    };
    let value = Json::parse(line).map_err(|e| entry_error(&format!("entry is not JSON: {e}")))?;
    let term = value
        .get("term")
        .and_then(Json::as_str)
        .ok_or_else(|| entry_error("entry missing string field 'term'"))?;
    let cotree = parse_cotree_term_labelled(term)
        .map_err(|e| entry_error(&format!("bad cotree term: {e}")))?;
    cotree
        .validate()
        .map_err(|e| entry_error(&format!("invalid cotree: {e}")))?;
    let flag = |field: &str| match value.get(field) {
        None => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| entry_error(&format!("field '{field}' must be a boolean"))),
    };
    // A `pcsnap1` entry names its links by fingerprint; the loader
    // recomputes the fingerprint, so only whether there is one matters.
    let link = match version {
        1 => matches!(value.get("fps"), Some(Json::Arr(fps)) if !fps.is_empty()),
        _ => flag("link")?,
    };
    let link_only = flag("link_only")?;
    if link_only && !link {
        return Err(entry_error("link-only entry without a graph link"));
    }
    if link && !dense_labels(&cotree) {
        return Err(entry_error(
            "entry has a graph link but non-dense vertex labels",
        ));
    }
    Ok(ParsedEntry {
        cotree,
        link,
        link_only,
    })
}

/// Loads and validates a snapshot, importing every entry into the cache.
///
/// All-or-nothing: validation runs over the whole file *before* anything
/// touches the cache, so a defect found halfway cannot leave a partial
/// import behind. Each entry is built from its cotree alone, as a fresh
/// insert would build it: the canonical key and a linked graph's
/// fingerprint are recomputed here, memoised answers on first use.
pub fn load(cache: &CotreeCache, path: &Path) -> Result<LoadReport, SnapshotError> {
    let parsed = parse_and_verify(&fs::read(path)?)?;
    let entries = parsed.entries.len();
    let mut links = 0usize;
    for entry in parsed.entries {
        let graph = entry.link.then(|| {
            let graph = entry.cotree.to_graph();
            (graph_fingerprint(&graph), Arc::new(graph))
        });
        let solve = Arc::new(SolveEntry::new(entry.cotree));
        match graph {
            None => {
                cache.insert_entry(None, solve);
            }
            Some((fp, graph)) => {
                links += 1;
                if entry.link_only {
                    // Evicted-but-linked before the save: restore only the
                    // link, exactly the reachability it had.
                    cache.link_graph(fp, graph, solve);
                } else {
                    cache.insert_entry(Some((fp, graph)), solve);
                }
            }
        }
    }
    Ok(LoadReport { entries, links })
}

/// Parses and validates a snapshot without touching any cache — the
/// `pathcover-cli snapshot inspect` back-end.
pub fn inspect(path: &Path) -> Result<InspectReport, SnapshotError> {
    let bytes = fs::read(path)?;
    let parsed = parse_and_verify(&bytes)?;
    Ok(InspectReport {
        version: parsed.version,
        entries: parsed.entries.len(),
        links: parsed.entries.iter().filter(|e| e.link).count(),
        total_vertices: parsed.entries.iter().map(|e| e.cotree.num_vertices()).sum(),
        bytes: bytes.len() as u64,
    })
}

/// Where a rejected snapshot is moved: `<path>.corrupt`.
pub fn quarantine_path(path: &Path) -> PathBuf {
    let mut quarantined = path.as_os_str().to_owned();
    quarantined.push(".corrupt");
    PathBuf::from(quarantined)
}

/// A quarantine target that does not clobber earlier evidence: the base
/// `<path>.corrupt` when free, else `<path>.corrupt.1`, `.2`, … — a crash
/// loop must not destroy the very file kept for post-mortem. Gives up and
/// reuses the base only after an absurd number of quarantined files.
fn fresh_quarantine_path(path: &Path) -> PathBuf {
    let base = quarantine_path(path);
    if !base.exists() {
        return base;
    }
    for n in 1..1000u32 {
        let candidate = PathBuf::from(format!("{}.{n}", base.display()));
        if !candidate.exists() {
            return candidate;
        }
    }
    base
}

/// Loads a snapshot if one exists, quarantining it on any *verification*
/// failure. This is the serve-time entry point: it never fails — the worst
/// outcome is a cold start, with the bad file preserved for post-mortem.
/// Read errors (permissions, transient I/O) leave the file untouched:
/// quarantine is reserved for files proven defective, not files this
/// process happened to be unable to read. Stale temp files left behind by
/// saves the process never finished (crash/SIGKILL between write and
/// rename) are swept here.
pub fn load_or_quarantine(cache: &CotreeCache, path: &Path) -> LoadOutcome {
    sweep_stale_tmp(path);
    match load(cache, path) {
        Ok(report) => LoadOutcome::Warm(report),
        Err(SnapshotError::Io(e)) if e.kind() == io::ErrorKind::NotFound => LoadOutcome::ColdStart,
        Err(error @ SnapshotError::Io(_)) => LoadOutcome::Unreadable(error),
        Err(error) => {
            let target = fresh_quarantine_path(path);
            let moved_to = match fs::rename(path, &target) {
                Ok(()) => Some(target),
                Err(_) => None,
            };
            LoadOutcome::Quarantined { error, moved_to }
        }
    }
}

/// Removes temp files from saves that never reached their rename — each
/// crash mid-checkpoint would otherwise leave a full-size orphan behind.
/// Only this snapshot's own pattern (`.<name>.tmp.<pid>.<seq>`) is
/// touched; running two daemons against one snapshot path is unsupported
/// (their saves would already race), so a live writer's temp file is not a
/// concern here.
fn sweep_stale_tmp(path: &Path) {
    let (Some(parent), Some(file_name)) = (path.parent(), path.file_name()) else {
        return;
    };
    let parent = if parent.as_os_str().is_empty() {
        Path::new(".")
    } else {
        parent
    };
    let prefix = format!(".{}.tmp.", file_name.to_string_lossy());
    let Ok(dir) = fs::read_dir(parent) else {
        return;
    };
    for entry in dir.flatten() {
        if entry.file_name().to_string_lossy().starts_with(&prefix) {
            let _ = fs::remove_file(entry.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::canonical_key;
    use crate::ingest::parse_cotree_term;
    use std::sync::atomic::AtomicU32;

    fn temp_snapshot(tag: &str) -> PathBuf {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("pcsnap-test-{}-{tag}-{n}.snap", std::process::id()))
    }

    /// Removes the snapshot and its quarantine twin.
    fn cleanup(path: &Path) {
        let _ = fs::remove_file(path);
        let _ = fs::remove_file(quarantine_path(path));
    }

    /// A cache warmed the way the engine warms one: a graph-linked entry
    /// with memoised scalars, a term-ingested entry, an untouched entry.
    fn warmed_cache() -> CotreeCache {
        let cache = CotreeCache::new(64);
        let linked = parse_cotree_term("(j a b c)").unwrap();
        let graph = Arc::new(linked.to_graph());
        let fp = graph_fingerprint(&graph);
        let entry = cache.insert(Some((fp, graph)), linked);
        entry.min_cover_size();
        entry.has_hamiltonian_path();
        let memoised = cache.insert(None, parse_cotree_term("(u (j a b) (j c d e))").unwrap());
        memoised.has_hamiltonian_cycle();
        cache.insert(None, parse_cotree_term("(u a b)").unwrap());
        cache
    }

    /// Rewrites the footer after a deliberate body edit, so the semantic
    /// integrity checks are what rejects the file, not the checksum.
    fn reseal(path: &Path, edit: impl FnOnce(String) -> String) {
        let text = fs::read_to_string(path).unwrap();
        let (body, _footer) = text
            .trim_end_matches('\n')
            .rsplit_once('\n')
            .expect("snapshot has a footer");
        let mut body = edit(format!("{body}\n"));
        let sum = checksum(body.as_bytes());
        body.push_str(&format!("pcsum {sum:016x}\n"));
        fs::write(path, body).unwrap();
    }

    fn assert_quarantined(path: &Path, outcome: LoadOutcome) -> SnapshotError {
        let LoadOutcome::Quarantined { error, moved_to } = outcome else {
            panic!("expected quarantine, got {outcome:?}");
        };
        assert_eq!(
            moved_to.as_deref(),
            Some(quarantine_path(path).as_path()),
            "corrupt file must be moved to <path>.corrupt"
        );
        assert!(!path.exists(), "original must be gone after quarantine");
        assert!(quarantine_path(path).exists(), "quarantined copy kept");
        error
    }

    #[test]
    fn round_trip_preserves_entries_scalars_and_links() {
        let path = temp_snapshot("roundtrip");
        let cache = warmed_cache();
        let report = save(&cache, &path).unwrap();
        assert_eq!(report.entries, 3);
        assert_eq!(report.links, 1);
        assert!(report.bytes > 0);

        let restored = CotreeCache::new(64);
        let loaded = load(&restored, &path).unwrap();
        assert_eq!(loaded.entries, 3);
        assert_eq!(loaded.links, 1);

        // The graph link answers without recognition...
        let linked = parse_cotree_term("(j a b c)").unwrap();
        let graph = linked.to_graph();
        let entry = restored
            .lookup_graph(graph_fingerprint(&graph), &graph)
            .expect("graph link survived the restart");
        // ...with the answers the first process memoised.
        assert_eq!(entry.min_cover_size(), 1);
        assert!(entry.has_hamiltonian_path());
        // Cotree-keyed lookups hit too.
        let term_tree = parse_cotree_term("(u (j a b) (j c d e))").unwrap();
        let hit = restored
            .lookup_key(canonical_key(&term_tree), &term_tree)
            .expect("canonical entry survived");
        assert!(!hit.has_hamiltonian_cycle());
        cleanup(&path);
    }

    #[test]
    fn empty_cache_round_trips() {
        let path = temp_snapshot("empty");
        let cache = CotreeCache::new(8);
        let report = save(&cache, &path).unwrap();
        assert_eq!(report.entries, 0);
        let restored = CotreeCache::new(8);
        let loaded = load(&restored, &path).unwrap();
        assert_eq!(loaded.entries, 0);
        assert_eq!(restored.stats().entries, 0);
        cleanup(&path);
    }

    #[test]
    fn lru_order_survives_the_round_trip() {
        let path = temp_snapshot("lru");
        // Single shard, capacity 2: eviction order is observable.
        let cache = CotreeCache::with_shards(2, 1);
        let cold = parse_cotree_term("(u a b)").unwrap();
        let hot = parse_cotree_term("(j a b)").unwrap();
        let cold_key = cache.insert(None, cold.clone()).key;
        let hot_key = cache.insert(None, hot.clone()).key;
        assert!(cache.lookup_key(cold_key, &cold).is_some(), "touch");
        // Now `hot` is the LRU one despite being inserted later.
        save(&cache, &path).unwrap();

        let restored = CotreeCache::with_shards(2, 1);
        load(&restored, &path).unwrap();
        restored.insert(None, parse_cotree_term("(u a b c)").unwrap());
        assert!(
            restored.lookup_key(cold_key, &cold).is_some(),
            "recently-used entry survives capacity pressure after reload"
        );
        assert!(
            restored.lookup_key(hot_key, &hot).is_none(),
            "LRU entry is the one evicted after reload"
        );
        cleanup(&path);
    }

    #[test]
    fn link_only_entries_do_not_evict_warm_canonical_entries_on_import() {
        // The state of a capacity-1 shard after churn: `warm` is the
        // canonical resident, `evicted` survives only through its graph
        // link. Importing must reproduce exactly that — re-promoting the
        // link-only entry into the canonical map would evict `warm`.
        let path = temp_snapshot("linkonly");
        let cache = CotreeCache::with_shards(1, 1);
        let evicted = parse_cotree_term("(j a b c)").unwrap();
        let evicted_graph = Arc::new(evicted.to_graph());
        let fp = graph_fingerprint(&evicted_graph);
        cache.insert(Some((fp, evicted_graph.clone())), evicted.clone());
        let warm = parse_cotree_term("(u a b)").unwrap();
        let warm_key = cache.insert(None, warm.clone()).key;
        assert!(cache
            .lookup_key(canonical_key(&evicted), &evicted)
            .is_none());
        let report = save(&cache, &path).unwrap();
        assert_eq!(report.entries, 2);

        let restored = CotreeCache::with_shards(1, 1);
        load(&restored, &path).unwrap();
        assert!(
            restored.lookup_key(warm_key, &warm).is_some(),
            "canonical resident must survive the import"
        );
        assert!(
            restored
                .lookup_key(canonical_key(&evicted), &evicted)
                .is_none(),
            "link-only entry must not be promoted into the canonical map"
        );
        assert!(
            restored.lookup_graph(fp, &evicted_graph).is_some(),
            "the graph link itself is restored"
        );
        cleanup(&path);
    }

    #[test]
    fn repeated_quarantine_keeps_earlier_evidence() {
        let path = temp_snapshot("evidence");
        let cache = CotreeCache::new(8);
        for round in ["first corruption", "second corruption"] {
            fs::write(&path, round).unwrap();
            let outcome = load_or_quarantine(&cache, &path);
            let LoadOutcome::Quarantined { moved_to, .. } = outcome else {
                panic!("expected quarantine on {round}");
            };
            assert!(moved_to.is_some(), "{round} moved aside");
        }
        let base = quarantine_path(&path);
        let second = PathBuf::from(format!("{}.1", base.display()));
        assert_eq!(fs::read(&base).unwrap(), b"first corruption");
        assert_eq!(fs::read(&second).unwrap(), b"second corruption");
        let _ = fs::remove_file(&second);
        cleanup(&path);
    }

    #[test]
    fn stale_tmp_files_are_swept_at_serve_time() {
        let path = temp_snapshot("sweep");
        save(&warmed_cache(), &path).unwrap();
        // An orphan from a save that never reached its rename (crash
        // between write and rename), plus an unrelated neighbour that must
        // survive the sweep.
        let orphan = path.with_file_name(format!(
            ".{}.tmp.12345.0",
            path.file_name().unwrap().to_string_lossy()
        ));
        fs::write(&orphan, b"half-written").unwrap();
        let unrelated = path.with_file_name(format!(
            "other-{}",
            path.file_name().unwrap().to_string_lossy()
        ));
        fs::write(&unrelated, b"not ours").unwrap();
        let cache = CotreeCache::new(8);
        assert!(matches!(
            load_or_quarantine(&cache, &path),
            LoadOutcome::Warm(_)
        ));
        assert!(!orphan.exists(), "orphaned tmp file swept");
        assert!(unrelated.exists(), "unrelated files untouched");
        let _ = fs::remove_file(&unrelated);
        cleanup(&path);
    }

    #[test]
    fn missing_file_is_a_clean_cold_start() {
        let path = temp_snapshot("missing");
        let cache = CotreeCache::new(8);
        assert!(matches!(
            load_or_quarantine(&cache, &path),
            LoadOutcome::ColdStart
        ));
        assert_eq!(cache.stats().entries, 0);
        assert!(!quarantine_path(&path).exists());
    }

    #[test]
    fn truncated_file_quarantines_and_starts_cold() {
        let path = temp_snapshot("truncated");
        save(&warmed_cache(), &path).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let cache = CotreeCache::new(8);
        let error = assert_quarantined(&path, load_or_quarantine(&cache, &path));
        assert!(
            matches!(
                error,
                SnapshotError::Truncated(_) | SnapshotError::ChecksumMismatch { .. }
            ),
            "got {error:?}"
        );
        assert_eq!(cache.stats().entries, 0, "nothing imported");
        cleanup(&path);
    }

    #[test]
    fn flipped_byte_fails_the_checksum() {
        let path = temp_snapshot("bitrot");
        save(&warmed_cache(), &path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Flip one bit inside the first entry line (past the header).
        let pos = bytes.iter().position(|&b| b == b'\n').unwrap() + 5;
        bytes[pos] ^= 0x01;
        fs::write(&path, bytes).unwrap();
        let cache = CotreeCache::new(8);
        let error = assert_quarantined(&path, load_or_quarantine(&cache, &path));
        assert!(
            matches!(error, SnapshotError::ChecksumMismatch { .. }),
            "got {error:?}"
        );
        assert_eq!(cache.stats().entries, 0);
        cleanup(&path);
    }

    #[test]
    fn future_version_header_is_refused() {
        let path = temp_snapshot("version");
        let body = format!("pcsnap{} 0\n", SNAPSHOT_VERSION + 1);
        let sum = checksum(body.as_bytes());
        fs::write(&path, format!("{body}pcsum {sum:016x}\n")).unwrap();
        let cache = CotreeCache::new(8);
        let error = assert_quarantined(&path, load_or_quarantine(&cache, &path));
        assert!(
            matches!(error, SnapshotError::BadHeader(_)),
            "got {error:?}"
        );
        cleanup(&path);
    }

    /// A `pcsnap1` file written by that format's `save`: a daemon served
    /// the CI restart cycle's four queries (a cotree-term minimum cover, a
    /// Hamiltonian path on a triangle sent as an edge list, a cotree-term
    /// full cover and a rejected `P_4`), then shut down.
    const PCSNAP1_FIXTURE: &str = include_str!("../tests/fixtures/restart_cycle.pcsnap1");

    fn pcsnap1_fixture(tag: &str) -> PathBuf {
        let path = temp_snapshot(tag);
        fs::write(&path, PCSNAP1_FIXTURE).unwrap();
        path
    }

    /// The fixture's three cacheable queries hit `cache` with their answers:
    /// the triangle through its graph link, the two terms by key.
    fn assert_fixture_answers(cache: &CotreeCache) {
        let triangle = pcgraph::Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let entry = cache
            .lookup_graph(graph_fingerprint(&triangle), &triangle)
            .expect("graph-keyed hit on the linked triangle");
        assert!(entry.has_hamiltonian_path());
        assert_eq!(entry.min_cover_size(), 1);
        for (term, min_cover) in [("(u (j a b) c)", 2), ("(j (u a b) (u c d))", 1)] {
            let tree = parse_cotree_term(term).unwrap();
            let hit = cache
                .lookup_key(canonical_key(&tree), &tree)
                .expect("term-keyed hit");
            assert_eq!(hit.min_cover_size(), min_cover, "{term}");
        }
    }

    #[test]
    fn pcsnap1_fixture_loads_warm() {
        let path = pcsnap1_fixture("v1");
        // One shard: the import's LRU order is the file's entry order.
        let restored = CotreeCache::with_shards(8, 1);
        let LoadOutcome::Warm(report) = load_or_quarantine(&restored, &path) else {
            panic!("a pcsnap1 file must load warm");
        };
        assert_eq!((report.entries, report.links), (3, 1));
        let file_order: Vec<String> = PCSNAP1_FIXTURE
            .lines()
            .filter_map(|line| Some(Json::parse(line).ok()?.get("term")?.as_str()?.to_string()))
            .collect();
        let lru_order: Vec<String> = restored
            .export()
            .iter()
            .map(|exported| exported.entry.cotree.to_term())
            .collect();
        assert_eq!(lru_order, file_order);
        assert_fixture_answers(&restored);
        cleanup(&path);
    }

    const WRONG_KEY: u64 = 0x0123_4567_89ab_cdef;
    const WRONG_FP: u64 = 0xfedc_ba98_7654_3210;

    /// Rewrites each of `fields` in every `pcsnap1` entry line at `path`
    /// to a value its cotree contradicts, and reseals the checksum, so
    /// the bytes are vouched for and only the values are wrong.
    fn reseal_wrong(path: &Path, fields: &[&str]) {
        let mut rewritten = Vec::new();
        reseal(path, |body| {
            body.lines()
                .map(|line| match Json::parse(line) {
                    Ok(Json::Obj(entry)) => Json::Obj(
                        entry
                            .into_iter()
                            .map(|(name, value)| {
                                if !fields.contains(&name.as_str()) {
                                    return (name, value);
                                }
                                let wrong = match name.as_str() {
                                    "key" => Json::str(format!("{WRONG_KEY:016x}")),
                                    "fps" => Json::Arr(vec![Json::str(format!("{WRONG_FP:016x}"))]),
                                    "min_cover" => Json::num(value.as_u64().unwrap() + 5),
                                    "ham_path" => Json::Bool(!value.as_bool().unwrap()),
                                    other => panic!("no wrong value for field {other:?}"),
                                };
                                rewritten.push(name.clone());
                                (name, wrong)
                            })
                            .collect(),
                    )
                    .to_string(),
                    _ => line.to_string(),
                })
                .map(|line| line + "\n")
                .collect()
        });
        for field in fields {
            assert!(
                rewritten.iter().any(|name| name == field),
                "fixture drifted: no {field:?} to rewrite"
            );
        }
    }

    /// Loads the `pcsnap1` file at `path` into a fresh cache, which it must
    /// warm with the fixture's three entries and one link.
    fn load_warm(path: &Path) -> CotreeCache {
        let restored = CotreeCache::new(64);
        let LoadOutcome::Warm(report) = load_or_quarantine(&restored, path) else {
            panic!("stored keys, answers and fingerprints must be ignored");
        };
        assert_eq!((report.entries, report.links), (3, 1));
        restored
    }

    #[test]
    fn scalar_mismatch_is_caught_by_the_resolve_cross_check() {
        // Stored answers the cotrees contradict never reach a client: the
        // loader reads none of them, and every answer is the re-solve of
        // its cotree on first use.
        let path = pcsnap1_fixture("v1-scalars");
        reseal_wrong(&path, &["min_cover", "ham_path"]);
        assert_fixture_answers(&load_warm(&path));
        cleanup(&path);
    }

    #[test]
    fn canonical_key_mismatch_is_caught() {
        // A stored key that is not the cotree's never files an entry: each
        // entry is keyed by the hash recomputed from its cotree.
        let path = pcsnap1_fixture("v1-key");
        reseal_wrong(&path, &["key"]);
        let restored = load_warm(&path);
        for exported in restored.export() {
            let tree = &exported.entry.cotree;
            assert_eq!(exported.entry.key, canonical_key(tree));
            assert!(restored.lookup_key(WRONG_KEY, tree).is_none());
        }
        assert_fixture_answers(&restored);
        cleanup(&path);
    }

    #[test]
    fn fingerprint_mismatch_is_caught() {
        // A stored fingerprint that is not the linked graph's never links
        // it: the link is re-derived from the cotree's own graph.
        let path = pcsnap1_fixture("v1-fingerprint");
        reseal_wrong(&path, &["fps"]);
        let restored = load_warm(&path);
        let triangle = pcgraph::Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        assert!(restored.lookup_graph(WRONG_FP, &triangle).is_none());
        assert_fixture_answers(&restored);
        cleanup(&path);
    }

    #[test]
    fn pcsnap1_with_wrong_stored_values_loads_from_its_cotrees() {
        // Every stored key, answer and fingerprint is wrong at once.
        let path = pcsnap1_fixture("v1-wrong");
        reseal_wrong(&path, &["key", "fps", "min_cover", "ham_path"]);
        assert_fixture_answers(&load_warm(&path));
        cleanup(&path);
    }

    #[test]
    fn saved_entries_hold_only_terms_and_link_flags() {
        let path = temp_snapshot("fields");
        // Memoised answers and a graph link: none of them is written.
        save(&warmed_cache(), &path).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], format!("pcsnap{SNAPSHOT_VERSION} 3"));
        for line in &lines[1..4] {
            let Ok(Json::Obj(fields)) = Json::parse(line) else {
                panic!("entry is not a JSON object: {line}");
            };
            for (name, _) in &fields {
                assert!(
                    ["term", "link", "link_only"].contains(&name.as_str()),
                    "{line}"
                );
            }
        }
        for stored in ["key", "min_cover", "ham_path", "ham_cycle", "fps"] {
            assert!(!text.contains(&format!("\"{stored}\"")), "{text}");
        }
        assert_eq!(text.matches("\"link\":true").count(), 1, "{text}");
        cleanup(&path);
    }

    #[test]
    fn link_on_non_dense_labels_is_refused() {
        // A link is re-derived by materialising the cotree, which needs
        // labels 0..n: a file that links `(u 5 7)` cannot be trusted.
        let path = temp_snapshot("sparse");
        let cache = CotreeCache::new(8);
        cache.insert(None, parse_cotree_term_labelled("(u 5 7)").unwrap());
        save(&cache, &path).unwrap();
        reseal(&path, |body| {
            assert!(
                body.contains("{\"term\":\"(u 5 7)\"}"),
                "fixture drifted: {body}"
            );
            body.replace("\"(u 5 7)\"}", "\"(u 5 7)\",\"link\":true}")
        });
        let error = assert_quarantined(&path, load_or_quarantine(&cache, &path));
        match error {
            SnapshotError::Entry { message, .. } => {
                assert!(message.contains("non-dense"), "message: {message}")
            }
            other => panic!("expected an entry error, got {other:?}"),
        }
        cleanup(&path);
    }

    #[test]
    fn inspect_reports_without_importing() {
        let path = temp_snapshot("inspect");
        save(&warmed_cache(), &path).unwrap();
        let report = inspect(&path).unwrap();
        assert_eq!(report.version, SNAPSHOT_VERSION);
        assert_eq!(report.entries, 3);
        assert_eq!(report.links, 1);
        assert_eq!(report.total_vertices, 3 + 5 + 2);
        assert!(report.bytes > 0);
        cleanup(&path);
    }

    #[test]
    fn atomic_save_replaces_not_appends() {
        let path = temp_snapshot("atomic");
        let cache = warmed_cache();
        save(&cache, &path).unwrap();
        let first = fs::read(&path).unwrap();
        // Saving again over the same path yields a fresh, loadable file.
        save(&cache, &path).unwrap();
        assert_eq!(fs::read(&path).unwrap(), first);
        let restored = CotreeCache::new(64);
        assert_eq!(load(&restored, &path).unwrap().entries, 3);
        cleanup(&path);
    }
}
