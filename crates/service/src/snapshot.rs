//! Persistent warm-cache snapshots: the cotree cache on disk.
//!
//! Every restart of the daemon used to start cold, re-paying recognition
//! and the paper's cotree computations for every graph the previous process
//! had already served. The cache's resident state is small and
//! reconstructible — a canonical cotree (term notation), its memoised
//! scalar answers and an optional graph-fingerprint link per entry — so
//! this module persists exactly that and reloads it on `serve`, turning
//! restarts, deploys and crashes into warm starts.
//!
//! ## Format (`pcsnap1`)
//!
//! A snapshot is a text file of newline-terminated records:
//!
//! ```text
//! pcsnap1 <entry-count>
//! {"term":"(j 0 1 2)","key":"89abcdef01234567","min_cover":1,"fps":["0123456789abcdef"]}
//! ...one JSON object per entry...
//! pcsum <16-hex FNV-1a of every preceding byte>
//! ```
//!
//! * the header carries the format magic + version and the entry count;
//! * each entry stores the cotree in *labelled* term notation
//!   ([`cograph::Cotree::to_term`] — exact leaf labels, exact child order),
//!   its canonical key, whichever scalars were memoised (`min_cover`,
//!   `ham_path`, `ham_cycle`) and the fingerprints of ingested graphs
//!   linked to it;
//! * the footer closes the file with a checksum over everything above it,
//!   so truncation and bit rot are both detectable.
//!
//! Entries appear shard by shard in least → most recently used order:
//! re-importing in file order reproduces each shard's eviction order.
//! Linked graphs are **not** stored — a linked entry's cotree materialises
//! the exact ingested graph (`Cotree::to_graph`), which the loader
//! re-derives and re-fingerprints.
//!
//! ## Integrity: never serve wrong answers from disk
//!
//! Loading re-parses every term, re-validates the cotree's structural
//! invariants, **recomputes the canonical key** and compares it against the
//! stored one, re-derives and cross-checks every graph-fingerprint link,
//! and recomputes every stored memoised scalar with a fresh solver run,
//! comparing each against what the file claims. Any mismatch,
//! truncation or checksum failure rejects the whole file:
//! [`load_or_quarantine`] renames it to `<path>.corrupt` and reports a cold
//! start instead of serving answers it cannot vouch for.
//!
//! ## Atomicity
//!
//! [`save`] writes to a temporary file in the snapshot's directory, syncs
//! it, then renames it over the target — a crash mid-checkpoint leaves the
//! previous snapshot intact, never a half-written one.

use crate::cache::{canonical_key, graph_fingerprint, CotreeCache, MemoisedScalars, SolveEntry};
use crate::ingest::parse_cotree_term_labelled;
use crate::json::Json;
use cograph::Cotree;
use pathcover::{has_hamiltonian_cycle, has_hamiltonian_path, min_path_cover_size};
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Snapshot format version spoken by this build (the `1` in `pcsnap1`).
pub const SNAPSHOT_VERSION: u64 = 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice — the per-file checksum of the `pcsum` footer.
///
/// Public so integrity tests can re-seal a deliberately tampered file and
/// prove that the *semantic* checks (canonical key, scalar cross-check)
/// catch what the checksum alone would not.
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
    /// build speaks.
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
    /// An entry failed parsing or integrity verification.
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
    /// Graph-fingerprint links written.
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
    /// Graph-fingerprint links re-established.
    pub links: usize,
    /// Entries whose scalars were cross-checked against a fresh solve.
    pub scalar_checked: usize,
}

/// What [`inspect`] found (a full parse + verification, no cache import).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InspectReport {
    /// Format version of the file.
    pub version: u64,
    /// Entries in the file.
    pub entries: usize,
    /// Graph-fingerprint links in the file.
    pub links: usize,
    /// Sum of vertex counts over all entries.
    pub total_vertices: usize,
    /// Entries carrying at least one memoised scalar.
    pub memoised: usize,
    /// Entries whose scalars were cross-checked against a fresh solve.
    pub scalar_checked: usize,
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
    /// starts cold rather than serving unverifiable answers.
    Quarantined {
        /// Why the file was rejected.
        error: SnapshotError,
        /// Where the corrupt file was moved (`<path>.corrupt`), when the
        /// rename itself succeeded.
        moved_to: Option<PathBuf>,
    },
}

/// One parsed-and-verified entry, ready to import or summarise.
struct ParsedEntry {
    cotree: Cotree,
    /// The canonical key, recomputed from the cotree and checked against
    /// the stored one.
    key: u64,
    scalars: MemoisedScalars,
    /// The verified graph link: the fingerprint and the graph it names
    /// (re-derived from the cotree), when the entry had one.
    link: Option<(u64, pcgraph::Graph)>,
    /// How many fingerprint records the entry carried (all equal once
    /// verified, so one graph serves them all).
    fingerprints: usize,
    /// The entry was evicted from the canonical map before the save and
    /// survives only through its graph link: import must re-establish the
    /// link without promoting the entry back into the canonical LRU.
    link_only: bool,
}

struct ParsedSnapshot {
    version: u64,
    entries: Vec<ParsedEntry>,
    scalar_checked: usize,
}

/// Serialises the cache and writes it to `path` atomically (tmp + rename).
pub fn save(cache: &CotreeCache, path: &Path) -> Result<SaveReport, SnapshotError> {
    let save_started = std::time::Instant::now();
    let exported = cache.export();
    let mut records: Vec<String> = Vec::with_capacity(exported.len());
    let mut links = 0usize;
    for exported in &exported {
        let entry = &exported.entry;
        let mut fields = vec![
            ("term", Json::str(entry.cotree.to_term())),
            ("key", Json::str(format!("{:016x}", entry.key))),
        ];
        let scalars = entry.memoised_scalars();
        if let Some(size) = scalars.min_cover_size {
            fields.push(("min_cover", Json::num(size as u64)));
        }
        if let Some(path) = scalars.ham_path {
            fields.push(("ham_path", Json::Bool(path)));
        }
        if let Some(cycle) = scalars.ham_cycle {
            fields.push(("ham_cycle", Json::Bool(cycle)));
        }
        // Only links the loader can re-derive and verify are persisted: the
        // fingerprint must be the one of the graph the cotree materialises.
        // Links fed through the raw cache API with foreign fingerprints
        // (impossible via the engine) are dropped, keeping the invariant
        // that a file written by `save` always verifies on load.
        let reloadable: Vec<u64> = match linkable_graph(&entry.cotree) {
            Some(graph) => {
                let real = graph_fingerprint(&graph);
                exported
                    .fingerprints
                    .iter()
                    .copied()
                    .filter(|&fp| fp == real)
                    .collect()
            }
            None => Vec::new(),
        };
        if !exported.canonical && reloadable.is_empty() {
            // Reachable neither by key nor by a reloadable link: a restart
            // could never serve it, so persisting it is pure noise.
            continue;
        }
        if !reloadable.is_empty() {
            links += reloadable.len();
            fields.push((
                "fps",
                Json::Arr(
                    reloadable
                        .iter()
                        .map(|fp| Json::str(format!("{fp:016x}")))
                        .collect(),
                ),
            ));
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

/// The graph a cached entry's link points at, when it is re-derivable: the
/// cotree's leaf labels must be exactly `0..n` (always true for entries the
/// engine linked, since recognition labels leaves with the graph's own
/// vertex ids).
fn linkable_graph(cotree: &Cotree) -> Option<pcgraph::Graph> {
    let n = cotree.num_vertices();
    if cotree.vertices().iter().any(|&v| v as usize >= n) {
        return None;
    }
    Some(cotree.to_graph())
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

/// Parses and fully verifies a snapshot's bytes (checksum, header, every
/// entry's canonical key, graph links and memoised scalars).
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
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::BadHeader(format!(
            "snapshot version {version} (this build speaks pcsnap{SNAPSHOT_VERSION})"
        )));
    }
    let count: usize = count
        .parse()
        .map_err(|_| SnapshotError::BadHeader(format!("bad entry count in header {header:?}")))?;

    let mut entries = Vec::new();
    for (idx, line) in lines.enumerate() {
        // Header is line 1; the first entry is line 2.
        entries.push(parse_entry(line, idx + 2)?);
    }
    if entries.len() != count {
        return Err(SnapshotError::Truncated(format!(
            "header announces {count} entries, found {}",
            entries.len()
        )));
    }

    // Scalar cross-check: recompute every stored memoised answer with a
    // fresh solver run. The solvers are linear on the cotree — the same
    // order as the parsing and key recomputation already paid above — so
    // checking everything is cheap, and it is what makes the "never a
    // wrong answer served from disk" guarantee unconditional rather than
    // probabilistic.
    let mut scalar_checked = 0usize;
    for (idx, parsed) in entries.iter().enumerate() {
        let stored = parsed.scalars;
        if stored == MemoisedScalars::default() {
            continue;
        }
        scalar_checked += 1;
        let tree = &parsed.cotree;
        let line = idx + 2;
        if let Some(size) = stored.min_cover_size {
            let fresh = min_path_cover_size(tree);
            if size != fresh {
                return Err(SnapshotError::Entry {
                    line,
                    message: format!("stored min_cover {size} != recomputed {fresh}"),
                });
            }
        }
        if let Some(path) = stored.ham_path {
            let fresh = has_hamiltonian_path(tree);
            if path != fresh {
                return Err(SnapshotError::Entry {
                    line,
                    message: format!("stored ham_path {path} != recomputed {fresh}"),
                });
            }
        }
        if let Some(cycle) = stored.ham_cycle {
            let fresh = has_hamiltonian_cycle(tree);
            if cycle != fresh {
                return Err(SnapshotError::Entry {
                    line,
                    message: format!("stored ham_cycle {cycle} != recomputed {fresh}"),
                });
            }
        }
    }
    Ok(ParsedSnapshot {
        version,
        entries,
        scalar_checked,
    })
}

/// Parses one entry line and verifies everything verifiable without a
/// solver run: term validity, canonical-key recomputation, link integrity.
fn parse_entry(line: &str, line_no: usize) -> Result<ParsedEntry, SnapshotError> {
    let entry_error = |message: String| SnapshotError::Entry {
        line: line_no,
        message,
    };
    let value = Json::parse(line).map_err(|e| entry_error(format!("entry is not JSON: {e}")))?;
    let term = value
        .get("term")
        .and_then(Json::as_str)
        .ok_or_else(|| entry_error("entry missing string field 'term'".to_string()))?;
    let cotree = parse_cotree_term_labelled(term)
        .map_err(|e| entry_error(format!("bad cotree term: {e}")))?;
    cotree
        .validate()
        .map_err(|e| entry_error(format!("invalid cotree: {e}")))?;
    let stored_key = value
        .get("key")
        .and_then(Json::as_str)
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(|| entry_error("entry missing 16-hex field 'key'".to_string()))?;
    let real_key = canonical_key(&cotree);
    if stored_key != real_key {
        return Err(entry_error(format!(
            "stored canonical key {stored_key:016x} != recomputed {real_key:016x}"
        )));
    }
    let scalars = MemoisedScalars {
        min_cover_size: match value.get("min_cover") {
            None => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                entry_error("field 'min_cover' must be a non-negative integer".to_string())
            })? as usize),
        },
        ham_path: scalar_bool(&value, "ham_path", line_no)?,
        ham_cycle: scalar_bool(&value, "ham_cycle", line_no)?,
    };
    // A cover needs at least one path: zero can never have been memoised.
    if scalars.min_cover_size == Some(0) {
        return Err(entry_error("stored min_cover is zero".to_string()));
    }
    let fingerprints = match value.get("fps") {
        None => Vec::new(),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|item| {
                item.as_str()
                    .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| {
                        entry_error("field 'fps' must hold 16-hex fingerprints".to_string())
                    })
            })
            .collect::<Result<Vec<u64>, _>>()?,
        Some(_) => return Err(entry_error("field 'fps' must be an array".to_string())),
    };
    let link_only = scalar_bool(&value, "link_only", line_no)?.unwrap_or(false);
    if link_only && fingerprints.is_empty() {
        return Err(entry_error(
            "link-only entry without any graph links".to_string(),
        ));
    }
    let link = if fingerprints.is_empty() {
        None
    } else {
        let graph = linkable_graph(&cotree).ok_or_else(|| {
            entry_error("entry has graph links but non-dense vertex labels".to_string())
        })?;
        let real_fp = graph_fingerprint(&graph);
        for &fp in &fingerprints {
            if fp != real_fp {
                return Err(entry_error(format!(
                    "stored graph fingerprint {fp:016x} != recomputed {real_fp:016x}"
                )));
            }
        }
        Some((real_fp, graph))
    };
    Ok(ParsedEntry {
        cotree,
        key: real_key,
        scalars,
        link,
        fingerprints: fingerprints.len(),
        link_only,
    })
}

fn scalar_bool(
    value: &Json,
    field: &'static str,
    line_no: usize,
) -> Result<Option<bool>, SnapshotError> {
    match value.get(field) {
        None => Ok(None),
        Some(v) => v.as_bool().map(Some).ok_or(SnapshotError::Entry {
            line: line_no,
            message: format!("field '{field}' must be a boolean"),
        }),
    }
}

/// Loads and verifies a snapshot, importing every entry into the cache.
///
/// All-or-nothing: verification runs over the whole file *before* anything
/// touches the cache, so a defect found halfway cannot leave a partial
/// import behind.
pub fn load(cache: &CotreeCache, path: &Path) -> Result<LoadReport, SnapshotError> {
    let parsed = parse_and_verify(&fs::read(path)?)?;
    let entries = parsed.entries.len();
    let mut links = 0usize;
    for entry in parsed.entries {
        let solve = Arc::new(SolveEntry::from_parts(
            entry.cotree,
            entry.key,
            entry.scalars,
        ));
        match entry.link {
            None => {
                cache.insert_entry(None, solve);
            }
            Some((fp, graph)) => {
                links += entry.fingerprints;
                if entry.link_only {
                    // Evicted-but-linked before the save: restore only the
                    // link, exactly the reachability it had.
                    cache.link_graph(fp, Arc::new(graph), solve);
                } else {
                    cache.insert_entry(Some((fp, Arc::new(graph))), solve);
                }
            }
        }
    }
    Ok(LoadReport {
        entries,
        links,
        scalar_checked: parsed.scalar_checked,
    })
}

/// Parses and verifies a snapshot without touching any cache — the
/// `pathcover-cli snapshot inspect` back-end.
pub fn inspect(path: &Path) -> Result<InspectReport, SnapshotError> {
    let bytes = fs::read(path)?;
    let parsed = parse_and_verify(&bytes)?;
    Ok(InspectReport {
        version: parsed.version,
        entries: parsed.entries.len(),
        links: parsed.entries.iter().map(|e| e.fingerprints).sum(),
        total_vertices: parsed.entries.iter().map(|e| e.cotree.num_vertices()).sum(),
        memoised: parsed
            .entries
            .iter()
            .filter(|e| e.scalars != MemoisedScalars::default())
            .count(),
        scalar_checked: parsed.scalar_checked,
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
        assert_eq!(loaded.scalar_checked, 2, "both memoised entries re-solved");

        // The graph link answers without recognition...
        let linked = parse_cotree_term("(j a b c)").unwrap();
        let graph = linked.to_graph();
        let entry = restored
            .lookup_graph(graph_fingerprint(&graph), &graph)
            .expect("graph link survived the restart");
        // ...and the memoised scalars came back pre-seeded.
        assert_eq!(
            entry.memoised_scalars(),
            MemoisedScalars {
                min_cover_size: Some(1),
                ham_path: Some(true),
                ham_cycle: None,
            }
        );
        // Cotree-keyed lookups hit too.
        let term_tree = parse_cotree_term("(u (j a b) (j c d e))").unwrap();
        let hit = restored
            .lookup_key(canonical_key(&term_tree), &term_tree)
            .expect("canonical entry survived");
        assert_eq!(hit.memoised_scalars().ham_cycle, Some(false));
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
        let body = "pcsnap2 0\n";
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

    #[test]
    fn scalar_mismatch_is_caught_by_the_resolve_cross_check() {
        let path = temp_snapshot("scalars");
        save(&warmed_cache(), &path).unwrap();
        // A wrong memoised answer with a *valid* checksum: only the
        // re-solve cross-check can catch this.
        reseal(&path, |body| {
            assert!(body.contains("\"min_cover\":1"), "fixture drifted: {body}");
            body.replace("\"min_cover\":1", "\"min_cover\":2")
        });
        let cache = CotreeCache::new(8);
        let error = assert_quarantined(&path, load_or_quarantine(&cache, &path));
        match error {
            SnapshotError::Entry { message, .. } => {
                assert!(message.contains("min_cover"), "message: {message}")
            }
            other => panic!("expected an entry integrity error, got {other:?}"),
        }
        assert_eq!(cache.stats().entries, 0, "all-or-nothing: nothing imported");
        cleanup(&path);
    }

    #[test]
    fn canonical_key_mismatch_is_caught() {
        let path = temp_snapshot("key");
        save(&warmed_cache(), &path).unwrap();
        reseal(&path, |body| {
            let key_at = body.find("\"key\":\"").expect("an entry key") + 7;
            let mut edited = body.into_bytes();
            // Rewrite one hex digit of the stored key.
            edited[key_at] = if edited[key_at] == b'0' { b'1' } else { b'0' };
            String::from_utf8(edited).unwrap()
        });
        let cache = CotreeCache::new(8);
        let error = assert_quarantined(&path, load_or_quarantine(&cache, &path));
        match error {
            SnapshotError::Entry { message, .. } => {
                assert!(message.contains("canonical key"), "message: {message}")
            }
            other => panic!("expected an entry integrity error, got {other:?}"),
        }
        cleanup(&path);
    }

    #[test]
    fn fingerprint_mismatch_is_caught() {
        let path = temp_snapshot("fingerprint");
        save(&warmed_cache(), &path).unwrap();
        reseal(&path, |body| {
            let fp_at = body.find("\"fps\":[\"").expect("a graph link") + 8;
            let mut edited = body.into_bytes();
            edited[fp_at] = if edited[fp_at] == b'0' { b'1' } else { b'0' };
            String::from_utf8(edited).unwrap()
        });
        let cache = CotreeCache::new(8);
        let error = assert_quarantined(&path, load_or_quarantine(&cache, &path));
        match error {
            SnapshotError::Entry { message, .. } => {
                assert!(message.contains("fingerprint"), "message: {message}")
            }
            other => panic!("expected an entry integrity error, got {other:?}"),
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
        assert_eq!(report.memoised, 2);
        assert_eq!(report.total_vertices, 3 + 5 + 2);
        assert_eq!(report.scalar_checked, 2);
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
