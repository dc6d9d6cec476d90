//! The sharded cotree cache.
//!
//! Without the cache, a query arriving as raw graph text pays recognition,
//! then binarisation and the solver, all linear in the input. The cache
//! skips them for repeated graphs:
//!
//! * a **graph fingerprint** (hash of the exact vertex count and edge list)
//!   maps previously-seen graphs to their cotree without re-running
//!   recognition, and
//! * a **canonical cotree key** — a hash of the cotree's canonical form,
//!   invariant under reordering of children — maps equal cotrees (however
//!   they were ingested) to one shared [`SolveEntry`] that memoises the
//!   answers every query kind needs: minimum cover size and the two
//!   Hamiltonian decisions.
//!
//! A hit on graph text costs the fingerprint plus an exact comparison with
//! the stored graph. A hit on a cotree term costs one canonical pass over
//! the probe (the key plus the nodes in canonical preorder) and one flat
//! walk over the stored and the probe's preorders in lockstep. Entries
//! built from a cotree term keep their preorder, one `u32` per node;
//! entries built from a graph keep only the key and build the preorder the
//! first time a term probe must be confirmed against them.
//!
//! `FullCover` answers are *not* memoised: covers are `O(n)` big, the solver
//! that produces them is `O(n)` too, and every returned cover is re-verified
//! against the request's graph anyway.
//!
//! ## Sharding and eviction
//!
//! The cache is split into `N` shards (a power of two, default
//! [`DEFAULT_SHARDS`]) selected by the low bits of the hash being probed, so
//! concurrent batch workers contend on `1/N`-th of the lock traffic. Each
//! shard holds two independently bounded LRU maps:
//!
//! * `entries`: canonical key → [`SolveEntry`] (for cotree-keyed lookups),
//! * `by_graph`: graph fingerprint → (exact graph, [`SolveEntry`]) (for
//!   graph-keyed lookups that skip recognition).
//!
//! Both are true LRUs: a hit touches the entry, eviction removes the least
//! recently used one. Keeping `by_graph` values as direct `Arc`s to the
//! solve entry (rather than indirecting through the canonical key) means the
//! two maps never need cross-shard bookkeeping: evicting a canonical key
//! never strands a fingerprint link, and many fingerprints mapping to one
//! canonical key stay bounded by the fingerprint map's own capacity. (The
//! pre-sharding design kept a `key -> fingerprint` reverse link and leaked
//! `by_graph` entries whenever several fingerprints shared a key; see
//! `by_graph_stays_bounded_under_many_graphs_one_cotree`.)
//!
//! Collision discipline is unchanged from the unsharded cache: every hit is
//! confirmed by an exact comparison (graph equality or canonical cotree
//! equality), so a hash collision degrades to a miss or an uncached entry —
//! never to another graph's answers.
//!
//! Per-shard hit/miss/eviction counters are aggregated into [`CacheStats`]
//! by [`CotreeCache::stats`]; the per-shard breakdown is available through
//! [`CotreeCache::shard_stats`].

use cograph::cotree::NO_NODE;
use cograph::{Cotree, CotreeKind};
use pathcover::{has_hamiltonian_cycle, has_hamiltonian_path, min_path_cover_size};
use pcgraph::Graph;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

/// Default shard count of [`CotreeCache::new`] (must be a power of two).
pub const DEFAULT_SHARDS: usize = 8;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn write_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Hash of the exact labelled graph (vertex count plus sorted edge list).
pub fn graph_fingerprint(g: &Graph) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(g.num_vertices() as u64);
    for (u, v) in g.edges() {
        h.write_u64(((u as u64) << 32) | v as u64);
    }
    h.finish()
}

/// Hash of the cotree's canonical form.
///
/// Each node hashes its kind and its children's hashes *sorted*, so the key
/// is invariant under child reordering — `(u a (j b c))` and `(u (j c b) a)`
/// collide on purpose. Leaf labels are part of the hash: two cotrees get the
/// same key only when they describe the same labelled graph, which is what
/// makes cached covers safe to reuse.
pub fn canonical_key(tree: &Cotree) -> u64 {
    canonical_pass(tree, false).0
}

/// Exact canonical equality: `true` iff the two cotrees describe the same
/// labelled graph up to reordering of children.
///
/// Both trees are listed in canonical preorder (see `canonical_pass`) and
/// the two lists walked in lockstep. Siblings are ordered by hash, so a
/// hash collision among siblings can only produce a false *negative* (the
/// cache then treats the trees as distinct — lost sharing, never a wrong
/// answer); a `true` result is an exact structural match.
pub fn canonical_eq(a: &Cotree, b: &Cotree) -> bool {
    same_canonical_tree(a, &canonical_pass(a, true).1, b, &canonical_pass(b, true).1)
}

/// The canonical pass: returns the [`canonical_key`] and, when
/// `with_order`, the nodes in canonical preorder — each node followed by
/// its children's subtrees in sorted-hash order (empty otherwise).
///
/// One bottom-up sweep over the post-order arena (`0..n`) hashes every
/// node, sorting its children through one reused scratch buffer, and notes
/// where each child's subtree starts in its parent's span of the preorder;
/// one top-down sweep (`(0..n).rev()`, parents before children) then places
/// every node at its parent's position plus that offset.
fn canonical_pass(tree: &Cotree, with_order: bool) -> (u64, Box<[u32]>) {
    let n = tree.num_nodes();
    let mut hash = vec![0u64; n];
    let mut size = vec![1u32; n];
    let mut start = vec![0u32; n];
    let mut kids: Vec<(u64, u32)> = Vec::new();
    for u in 0..n {
        let mut h = Fnv::new();
        match tree.kind(u) {
            CotreeKind::Leaf(v) => {
                h.write_u64(1);
                h.write_u64(v as u64);
            }
            kind => {
                h.write_u64(if kind == CotreeKind::Union { 2 } else { 3 });
                kids.clear();
                kids.extend(tree.children(u).iter().map(|&c| (hash[c], c as u32)));
                kids.sort_unstable();
                let mut offset = 1;
                for &(child_hash, c) in &kids {
                    h.write_u64(child_hash);
                    start[c as usize] = offset;
                    offset += size[c as usize];
                }
                size[u] = offset;
            }
        }
        hash[u] = h.finish();
    }
    let key = hash[tree.root()];
    if !with_order {
        return (key, Box::default());
    }
    let mut order = vec![0u32; n];
    for u in (0..n).rev() {
        let parent = tree.parent(u);
        if parent != NO_NODE {
            start[u] += start[parent];
        }
        order[start[u] as usize] = u as u32;
    }
    (key, order.into_boxed_slice())
}

/// Exact equality up to child order of two cotrees given their canonical
/// preorders. A preorder's child counts fix the tree's shape, so agreeing
/// position by position on kind (leaf labels included) and child count is
/// agreeing on the whole canonically ordered tree.
fn same_canonical_tree(a: &Cotree, order_a: &[u32], b: &Cotree, order_b: &[u32]) -> bool {
    order_a.len() == order_b.len()
        && order_a.iter().zip(order_b).all(|(&u, &v)| {
            let (u, v) = (u as usize, v as usize);
            a.kind(u) == b.kind(v) && a.children(u).len() == b.children(v).len()
        })
}

/// A cached cotree plus memoised scalar answers.
#[derive(Debug)]
pub struct SolveEntry {
    /// The canonical key this entry is stored under.
    pub key: u64,
    /// The cotree itself.
    pub cotree: Cotree,
    /// The cotree's canonical preorder: kept from birth by entries built
    /// from a cotree term, built on first confirmation by the others.
    order: OnceLock<Box<[u32]>>,
    min_size: OnceLock<usize>,
    ham_path: OnceLock<bool>,
    ham_cycle: OnceLock<bool>,
}

impl SolveEntry {
    /// Wraps a cotree (computing its canonical key).
    pub fn new(cotree: Cotree) -> Self {
        let key = canonical_key(&cotree);
        SolveEntry::keyed(cotree, key, OnceLock::new())
    }

    /// Wraps a cotree with its canonical key *and* preorder, from one
    /// pass: the form of an entry built from a cotree term, which serves
    /// as the lookup probe and, on a miss, becomes the resident entry.
    pub(crate) fn with_order(cotree: Cotree) -> Self {
        let (key, order) = canonical_pass(&cotree, true);
        SolveEntry::keyed(cotree, key, OnceLock::from(order))
    }

    fn keyed(cotree: Cotree, key: u64, order: OnceLock<Box<[u32]>>) -> Self {
        SolveEntry {
            key,
            cotree,
            order,
            min_size: OnceLock::new(),
            ham_path: OnceLock::new(),
            ham_cycle: OnceLock::new(),
        }
    }

    /// Minimum path-cover size (memoised).
    pub fn min_cover_size(&self) -> usize {
        *self
            .min_size
            .get_or_init(|| min_path_cover_size(&self.cotree))
    }

    /// Hamiltonian-path decision (memoised).
    pub fn has_hamiltonian_path(&self) -> bool {
        *self
            .ham_path
            .get_or_init(|| has_hamiltonian_path(&self.cotree))
    }

    /// Hamiltonian-cycle decision (memoised).
    pub fn has_hamiltonian_cycle(&self) -> bool {
        *self
            .ham_cycle
            .get_or_init(|| has_hamiltonian_cycle(&self.cotree))
    }

    /// The canonical preorder, built on first use by entries that arrived
    /// without one.
    fn order(&self) -> &[u32] {
        self.order
            .get_or_init(|| canonical_pass(&self.cotree, true).1)
    }

    /// `true` iff `cotree`, whose canonical preorder is `order`, is this
    /// entry's cotree up to child order.
    fn holds(&self, cotree: &Cotree, order: &[u32]) -> bool {
        same_canonical_tree(&self.cotree, self.order(), cotree, order)
    }
}

/// Aggregated counters, snapshot via [`CotreeCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache (all shards).
    pub hits: u64,
    /// Lookups that had to recognise/insert fresh (all shards).
    pub misses: u64,
    /// Entries removed by LRU capacity pressure (all shards, both maps).
    pub evictions: u64,
    /// Cotree entries currently resident (all shards).
    pub entries: usize,
    /// Number of shards.
    pub shards: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One shard's counters, snapshot via [`CotreeCache::shard_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Lookups answered from this shard.
    pub hits: u64,
    /// Lookups this shard could not answer.
    pub misses: u64,
    /// LRU evictions in this shard (both maps).
    pub evictions: u64,
    /// Cotree entries resident in this shard.
    pub entries: usize,
}

impl ShardStats {
    /// Hit fraction in `[0, 1]` for this shard (0 when it saw no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded LRU map from `u64` hash keys to values.
///
/// Recency is tracked with lazy invalidation: every touch pushes a
/// `(key, tick)` marker onto a queue and records the same tick in the map;
/// eviction pops markers until one still matches its entry's current tick —
/// stale markers (the entry was touched again later, or already evicted)
/// are discarded. Each operation pushes at most one marker and eviction
/// pops each marker at most once, so touch and insert are amortised `O(1)`
/// at any capacity; the queue is compacted when it outgrows the live map
/// by a constant factor.
struct Lru<V> {
    /// key -> (value, tick of last use).
    map: HashMap<u64, (V, u64)>,
    /// Touch markers, oldest first; stale entries dropped lazily.
    order: VecDeque<(u64, u64)>,
    tick: u64,
    cap: usize,
}

impl<V> Lru<V> {
    fn new(cap: usize) -> Self {
        Lru {
            map: HashMap::new(),
            order: VecDeque::new(),
            tick: 0,
            cap: cap.max(1),
        }
    }

    /// Records a marker for `key` at `tick` — which must already be the
    /// entry's current tick in the map, so compaction never discards a
    /// live entry's only marker.
    fn push_marker(&mut self, key: u64, tick: u64) {
        self.order.push_back((key, tick));
        if self.order.len() > self.map.len().saturating_mul(4).max(64) {
            let map = &self.map;
            self.order
                .retain(|&(k, t)| map.get(&k).is_some_and(|(_, used)| *used == t));
        }
    }

    /// Looks up `key`, marking it most recently used on a hit.
    fn get_touch(&mut self, key: u64) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(&key) {
            Some((_, used)) => *used = tick,
            None => return None,
        }
        self.push_marker(key, tick);
        self.map.get(&key).map(|(value, _)| value)
    }

    /// Inserts (or replaces) `key`, evicting the least recently used entry
    /// when over capacity. Returns the number of evictions performed.
    fn insert(&mut self, key: u64, value: V) -> u64 {
        let mut evicted = 0;
        if !self.map.contains_key(&key) {
            while self.map.len() >= self.cap {
                // Only a marker matching its entry's latest tick names the
                // true LRU; anything else is stale and skipped. Every live
                // entry has a current marker, so the queue cannot run dry
                // while the map is at capacity — but degrade to accepting
                // the overflow rather than panicking under the shard lock.
                let Some((k, t)) = self.order.pop_front() else {
                    break;
                };
                if self.map.get(&k).is_some_and(|(_, used)| *used == t) {
                    self.map.remove(&k);
                    evicted += 1;
                }
            }
        }
        self.tick += 1;
        let tick = self.tick;
        self.map.insert(key, (value, tick));
        self.push_marker(key, tick);
        evicted
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    /// Reads `key` without touching its recency (the snapshot export's
    /// residency probe).
    fn peek(&self, key: u64) -> Option<&V> {
        self.map.get(&key).map(|(value, _)| value)
    }

    /// Key–value pairs in least → most recently used order (the snapshot
    /// export path: re-inserting in this order reproduces the LRU order).
    fn iter_lru(&self) -> Vec<(u64, &V)> {
        let mut items: Vec<(u64, &V, u64)> = self
            .map
            .iter()
            .map(|(k, (v, tick))| (*k, v, *tick))
            .collect();
        items.sort_unstable_by_key(|&(_, _, tick)| tick);
        items.into_iter().map(|(k, v, _)| (k, v)).collect()
    }
}

struct Shard {
    /// canonical key -> solve entry (exact cotree confirmed on lookup).
    entries: Lru<Arc<SolveEntry>>,
    /// graph fingerprint -> (the exact graph, its solve entry). The graph is
    /// kept so a lookup can confirm the match exactly — a fingerprint
    /// collision (the inputs are untrusted and FNV is not cryptographic)
    /// must degrade to a miss, never serve another graph's answers.
    by_graph: Lru<(Arc<Graph>, Arc<SolveEntry>)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Shard {
    fn new(cap: usize) -> Self {
        Shard {
            entries: Lru::new(cap),
            by_graph: Lru::new(cap),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

/// One resident entry as exported by [`CotreeCache::export`], and whether
/// a graph link points at it.
#[derive(Debug, Clone)]
pub struct ExportedEntry {
    /// The resident entry.
    pub entry: Arc<SolveEntry>,
    /// Whether the fingerprint map links an ingested graph to this entry.
    pub linked: bool,
    /// Whether the entry is resident in the canonical (key-indexed) map.
    /// `false` for entries reachable only through a graph link — importing
    /// those back into the canonical map would evict genuinely warm
    /// entries, so the import path must re-establish only the link
    /// ([`CotreeCache::link_graph`]).
    pub canonical: bool,
}

/// The bounded, sharded, thread-safe cotree cache.
pub struct CotreeCache {
    shards: Vec<Mutex<Shard>>,
    mask: u64,
}

impl CotreeCache {
    /// Creates a cache with [`DEFAULT_SHARDS`] shards holding at least
    /// `capacity` cotrees in total.
    pub fn new(capacity: usize) -> Self {
        CotreeCache::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// Creates a cache with `shards` shards (rounded up to a power of two,
    /// minimum 1) holding at least `capacity` cotrees in total. Capacity is
    /// split evenly, rounding up, so the effective total is
    /// `ceil(capacity / shards) * shards`.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let per_shard = capacity.max(1).div_ceil(shards);
        CotreeCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            mask: shards as u64 - 1,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index a key hashes into — exposed so request traces can
    /// label cache-lookup spans with the shard they touched.
    pub fn shard_index(&self, hash: u64) -> usize {
        // Low bits select the shard; both FNV-derived key families spread
        // them uniformly. The in-shard HashMap re-hashes, so reusing the low
        // bits costs nothing.
        (hash & self.mask) as usize
    }

    fn shard(&self, hash: u64) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[self.shard_index(hash)]
            .lock()
            .expect("cache shard mutex")
    }

    /// Looks up a previously-recognised graph by fingerprint, confirming
    /// the stored graph is *equal* to `graph` (a fingerprint collision is a
    /// miss, never a wrong answer). A hit touches the link's LRU position.
    pub fn lookup_graph(&self, fingerprint: u64, graph: &Graph) -> Option<Arc<SolveEntry>> {
        let mut shard = self.shard(fingerprint);
        let entry = shard
            .by_graph
            .get_touch(fingerprint)
            .filter(|(stored, _)| **stored == *graph)
            .map(|(_, entry)| entry.clone());
        match entry {
            Some(e) => {
                shard.hits += 1;
                Some(e)
            }
            None => {
                shard.misses += 1;
                None
            }
        }
    }

    /// Looks up a cotree by its canonical key (cotree ingestion path),
    /// confirming the stored cotree is canonically equal. A hit touches the
    /// entry's LRU position.
    pub fn lookup_key(&self, key: u64, cotree: &Cotree) -> Option<Arc<SolveEntry>> {
        self.lookup_canonical(key, cotree, &canonical_pass(cotree, true).1)
    }

    /// [`Self::lookup_key`] for a probe already in canonical form (see
    /// [`SolveEntry::with_order`]): the hit is confirmed by one walk over
    /// the resident's and the probe's preorders, hashing neither again.
    pub(crate) fn lookup_entry(&self, probe: &SolveEntry) -> Option<Arc<SolveEntry>> {
        self.lookup_canonical(probe.key, &probe.cotree, probe.order())
    }

    fn lookup_canonical(
        &self,
        key: u64,
        cotree: &Cotree,
        order: &[u32],
    ) -> Option<Arc<SolveEntry>> {
        let mut shard = self.shard(key);
        let entry = shard
            .entries
            .get_touch(key)
            .filter(|e| e.holds(cotree, order))
            .cloned();
        match entry {
            Some(e) => {
                shard.hits += 1;
                Some(e)
            }
            None => {
                shard.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly-built cotree, optionally linking the graph it was
    /// recognised from, and returns the resident entry (which may be a
    /// previously-cached equal cotree).
    ///
    /// If a *different* cotree already occupies the canonical key (a hash
    /// collision), the new cotree is returned uncached: collisions degrade
    /// to cache bypass for the newcomer, never to shared wrong answers.
    ///
    /// A cotree inserted without a graph is keyed by its term form, so its
    /// entry keeps the canonical preorder that confirms later hits; one
    /// recognised from a graph keeps only its key.
    pub fn insert(&self, graph: Option<(u64, Arc<Graph>)>, cotree: Cotree) -> Arc<SolveEntry> {
        let entry = match graph {
            None => SolveEntry::with_order(cotree),
            Some(_) => SolveEntry::new(cotree),
        };
        self.insert_entry(graph, Arc::new(entry))
    }

    /// Inserts a prebuilt entry (the snapshot import path, and the engine's
    /// insert of a probe it already hashed), keeping whatever the entry has
    /// memoised. Same residency and collision semantics as [`Self::insert`];
    /// hit/miss counters are untouched (an import is not a lookup).
    pub fn insert_entry(
        &self,
        graph: Option<(u64, Arc<Graph>)>,
        entry: Arc<SolveEntry>,
    ) -> Arc<SolveEntry> {
        let resident = {
            let mut shard = self.shard(entry.key);
            match shard.entries.get_touch(entry.key) {
                Some(existing) if existing.holds(&entry.cotree, entry.order()) => existing.clone(),
                Some(_collision) => return entry,
                None => {
                    let evicted = shard.entries.insert(entry.key, entry.clone());
                    shard.evictions += evicted;
                    entry
                }
            }
        };
        if let Some((fp, graph)) = graph {
            let mut shard = self.shard(fp);
            let evicted = shard.by_graph.insert(fp, (graph, resident.clone()));
            shard.evictions += evicted;
        }
        resident
    }

    /// Exports every resident entry for snapshotting.
    ///
    /// Canonical entries are listed shard by shard in least → most
    /// recently used order, so importing in file order reproduces each
    /// shard's eviction order; entries reachable only through a graph link
    /// follow at the end, flagged [`ExportedEntry::canonical`] `= false`
    /// (link order across entries is approximate). Shard locks are taken
    /// one at a time — concurrent traffic keeps flowing during a
    /// checkpoint — so the export is a crossing cut, not an atomic
    /// instant: an entry inserted mid-export may appear in the link pass
    /// only, in which case its canonical residency is re-probed before it
    /// is demoted to link-only.
    pub fn export(&self) -> Vec<ExportedEntry> {
        let mut out: Vec<ExportedEntry> = Vec::new();
        let mut index: HashMap<*const SolveEntry, usize> = HashMap::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard mutex");
            for (_, entry) in shard.entries.iter_lru() {
                index.insert(Arc::as_ptr(entry), out.len());
                out.push(ExportedEntry {
                    entry: entry.clone(),
                    linked: false,
                    canonical: true,
                });
            }
        }
        // Collect the links first, then resolve them with every lock
        // released: the residency re-probe below must take a *different*
        // shard's lock, and holding two shard locks at once would let two
        // concurrent exports (checkpoint thread + save-now) deadlock.
        let mut links: Vec<Arc<SolveEntry>> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard mutex");
            for (_, (_, entry)) in shard.by_graph.iter_lru() {
                links.push(entry.clone());
            }
        }
        for entry in links {
            let slot = match index.get(&Arc::as_ptr(&entry)) {
                Some(&slot) => slot,
                None => {
                    // Unseen in the canonical pass: a genuinely link-only
                    // entry — or an insert that landed between the two
                    // passes. Re-probe so a racing insert's entry is not
                    // recorded as link-only and lose its canonical warmth
                    // across the restart.
                    let canonical = self
                        .shard(entry.key)
                        .entries
                        .peek(entry.key)
                        .is_some_and(|resident| Arc::ptr_eq(resident, &entry));
                    index.insert(Arc::as_ptr(&entry), out.len());
                    out.push(ExportedEntry {
                        entry: entry.clone(),
                        linked: false,
                        canonical,
                    });
                    out.len() - 1
                }
            };
            out[slot].linked = true;
        }
        out
    }

    /// Re-establishes a graph-fingerprint link without touching the
    /// canonical map — the import path for snapshot entries that had been
    /// evicted from the canonical map but were still serving through a
    /// live link. Importing those via [`Self::insert_entry`] would make
    /// them most-recently-used canonical residents and evict genuinely
    /// warm entries.
    pub fn link_graph(&self, fingerprint: u64, graph: Arc<Graph>, entry: Arc<SolveEntry>) {
        let mut shard = self.shard(fingerprint);
        let evicted = shard.by_graph.insert(fingerprint, (graph, entry));
        shard.evictions += evicted;
    }

    /// Aggregated snapshot of all shards' counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            shards: self.shards.len(),
            ..CacheStats::default()
        };
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard mutex");
            stats.hits += shard.hits;
            stats.misses += shard.misses;
            stats.evictions += shard.evictions;
            stats.entries += shard.entries.len();
        }
        stats
    }

    /// Per-shard counter snapshot, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|shard| {
                let shard = shard.lock().expect("cache shard mutex");
                ShardStats {
                    hits: shard.hits,
                    misses: shard.misses,
                    evictions: shard.evictions,
                    entries: shard.entries.len(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::parse_cotree_term;

    fn labelled_pair(reversed: bool) -> Cotree {
        // union(0, join(1, 2)) with the union's children in both orders;
        // explicit labels so both cotrees describe the same labelled graph.
        let join = Cotree::join_of_labelled(vec![Cotree::single(1), Cotree::single(2)]);
        let parts = if reversed {
            vec![join, Cotree::single(0)]
        } else {
            vec![Cotree::single(0), join]
        };
        Cotree::union_of_labelled(parts)
    }

    /// A join of `k+2` distinct leaves: distinct canonical key per `k`.
    fn distinct_tree(k: usize) -> Cotree {
        let leaves: Vec<Cotree> = (0..k + 2).map(|v| Cotree::single(v as u32)).collect();
        Cotree::join_of_labelled(leaves)
    }

    #[test]
    fn canonical_key_is_child_order_invariant() {
        assert_eq!(
            canonical_key(&labelled_pair(false)),
            canonical_key(&labelled_pair(true))
        );
        // Term-notation leaves are labelled by first appearance, so the same
        // *shape* with reordered children is a different labelled graph and
        // must NOT collide.
        let a = parse_cotree_term("(u a (j b c))").unwrap();
        let b = parse_cotree_term("(u (j b c) a)").unwrap();
        assert_ne!(canonical_key(&a), canonical_key(&b));
    }

    #[test]
    fn canonical_keys_are_pinned() {
        // Keys travel in every response's `meta.key`, so these values are
        // fixed. (Snapshots do not depend on them: the loader recomputes
        // every key.)
        use crate::ingest::parse_cotree_term_labelled;
        use rand::SeedableRng;
        let hex = |tree: &Cotree| format!("{:016x}", canonical_key(tree));
        let a = parse_cotree_term_labelled("(u 0 (j 1 2) (j 3 (u 4 5)))").unwrap();
        let b = parse_cotree_term_labelled("(u (j (u 5 4) 3) (j 2 1) 0)").unwrap();
        assert_eq!(hex(&a), "f67ce09fdd84904b");
        assert_eq!(hex(&b), hex(&a), "child order must not matter");
        let nested = parse_cotree_term_labelled("(j 0 (j 1 (u 2 (u 3 4))) (j 5 6))").unwrap();
        assert_eq!(
            nested.num_nodes(),
            9,
            "the parser flattens same-label nesting"
        );
        assert_eq!(hex(&nested), "98ab012b5ef74f0e");
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(14);
        let random: Vec<String> = cograph::CotreeShape::ALL
            .iter()
            .map(|&shape| hex(&cograph::random_cotree(500, shape, &mut rng)))
            .collect();
        assert_eq!(
            random,
            ["1028e8d18cc39a93", "e045344dbc521eab", "6d3151175ac56609"]
        );
    }

    /// `tree` rebuilt through [`cograph::CotreeBuilder`] with every leaf
    /// relabelled by `label` and, when `rng` is given, every node's children
    /// shuffled. The builder adopts subtrees in the order they were built,
    /// so the shuffled orders (drawn node by node in id order) are then
    /// built depth-first.
    fn rebuilt(
        tree: &Cotree,
        label: impl Fn(u32) -> u32,
        rng: Option<&mut rand_chacha::ChaCha8Rng>,
    ) -> Cotree {
        use rand::seq::SliceRandom;
        let mut kids: Vec<Vec<usize>> = (0..tree.num_nodes())
            .map(|u| tree.children(u).to_vec())
            .collect();
        if let Some(rng) = rng {
            for order in kids.iter_mut().filter(|order| !order.is_empty()) {
                order.shuffle(rng);
            }
        }
        let mut builder = cograph::CotreeBuilder::new();
        let mut stack = vec![(tree.root(), false)];
        while let Some((u, built_children)) = stack.pop() {
            match tree.kind(u) {
                CotreeKind::Leaf(v) => builder.leaf(label(v)),
                kind if built_children => builder.node(kind, kids[u].len()),
                _ => {
                    stack.push((u, true));
                    stack.extend(kids[u].iter().rev().map(|&c| (c, false)));
                }
            }
        }
        builder.finish()
    }

    /// `tree` with leaf node `leaf` moved under internal node `target`,
    /// renormalised by the combining constructors (a node left with one
    /// child gives way to it; same-kind children merge).
    fn moved(tree: &Cotree, leaf: usize, target: usize) -> Cotree {
        let CotreeKind::Leaf(label) = tree.kind(leaf) else {
            unreachable!("only leaves move")
        };
        let mut built: Vec<Option<Cotree>> = vec![None; tree.num_nodes()];
        for u in tree.postorder() {
            built[u] = Some(match tree.kind(u) {
                CotreeKind::Leaf(v) => Cotree::single(v),
                kind => {
                    let mut parts: Vec<Cotree> = tree
                        .children(u)
                        .iter()
                        .filter(|&&c| c != leaf)
                        .map(|&c| built[c].take().expect("child built"))
                        .collect();
                    if u == target {
                        parts.push(Cotree::single(label));
                    }
                    if kind == CotreeKind::Union {
                        Cotree::union_of_labelled(parts)
                    } else {
                        Cotree::join_of_labelled(parts)
                    }
                }
            });
        }
        built[tree.root()].take().expect("root built")
    }

    #[test]
    fn canonical_walk_agrees_with_graph_equality() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(41);
        for shape in cograph::CotreeShape::ALL {
            for n in [1usize, 2, 7, 40, 300] {
                let tree = cograph::random_cotree(n, shape, &mut rng);
                let graph = tree.to_graph();
                let nodes = 0..tree.num_nodes();
                let leaves: Vec<usize> =
                    nodes.clone().filter(|&u| tree.kind(u).is_leaf()).collect();
                let internal: Vec<usize> = nodes.filter(|&u| !tree.kind(u).is_leaf()).collect();
                let mut drawn = vec![tree.clone()];

                let shuffled = rebuilt(&tree, |v| v, Some(&mut rng));
                assert_eq!(canonical_key(&shuffled), canonical_key(&tree));
                assert!(canonical_eq(&tree, &shuffled) && canonical_eq(&shuffled, &tree));
                drawn.push(shuffled);

                // Two leaves under different parents trade labels.
                let x = leaves[rng.gen_range(0..leaves.len())];
                let partners: Vec<usize> = leaves
                    .iter()
                    .copied()
                    .filter(|&y| tree.parent(y) != tree.parent(x))
                    .collect();
                if !partners.is_empty() {
                    let y = partners[rng.gen_range(0..partners.len())];
                    let (CotreeKind::Leaf(a), CotreeKind::Leaf(b)) = (tree.kind(x), tree.kind(y))
                    else {
                        unreachable!("leaves carry labels")
                    };
                    let swap = |v| {
                        if v == a {
                            b
                        } else if v == b {
                            a
                        } else {
                            v
                        }
                    };
                    let swapped = rebuilt(&tree, swap, None);
                    assert_ne!(swapped.to_graph(), graph, "{shape:?} n={n}: no-op swap");
                    assert!(!canonical_eq(&tree, &swapped), "{shape:?} n={n}: swap");
                    drawn.push(swapped);
                }

                // One leaf moves under another internal node.
                let x = leaves[rng.gen_range(0..leaves.len())];
                let targets: Vec<usize> = internal
                    .iter()
                    .copied()
                    .filter(|&q| q != tree.parent(x))
                    .collect();
                if !targets.is_empty() {
                    let target = targets[rng.gen_range(0..targets.len())];
                    let shifted = moved(&tree, x, target);
                    assert_eq!(shifted.validate(), Ok(()));
                    assert_ne!(shifted.to_graph(), graph, "{shape:?} n={n}: no-op move");
                    assert!(!canonical_eq(&tree, &shifted), "{shape:?} n={n}: move");
                    drawn.push(shifted);
                }

                if n <= 40 {
                    for a in &drawn {
                        for b in &drawn {
                            assert_eq!(
                                canonical_eq(a, b),
                                a.to_graph() == b.to_graph(),
                                "{shape:?} n={n}: {} vs {}",
                                a.to_term(),
                                b.to_term()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_walk_tells_shapes_apart_by_child_count() {
        // Same kinds and labels in preorder, different shapes: only the
        // child counts separate `(u (j 0 1) 2 3)` from `(u (j 0 1 2) 3)`.
        use crate::ingest::parse_cotree_term_labelled as term;
        let preorder = |tree: &Cotree| {
            let mut order = Vec::new();
            let mut stack = vec![tree.root()];
            while let Some(u) = stack.pop() {
                order.push(u as u32);
                stack.extend(tree.children(u).iter().rev());
            }
            order
        };
        let a = term("(u (j 0 1) 2 3)").unwrap();
        let b = term("(u (j 0 1 2) 3)").unwrap();
        let kinds = |tree: &Cotree| -> Vec<CotreeKind> {
            preorder(tree)
                .iter()
                .map(|&u| tree.kind(u as usize))
                .collect()
        };
        assert_eq!(kinds(&a), kinds(&b));
        assert!(same_canonical_tree(&a, &preorder(&a), &a, &preorder(&a)));
        assert!(!same_canonical_tree(&a, &preorder(&a), &b, &preorder(&b)));
        assert!(!canonical_eq(&a, &b));
    }

    #[test]
    fn canonical_key_separates_union_from_join() {
        let a = parse_cotree_term("(u a b)").unwrap();
        let b = parse_cotree_term("(j a b)").unwrap();
        assert_ne!(canonical_key(&a), canonical_key(&b));
    }

    #[test]
    fn canonical_key_is_label_sensitive() {
        // Same shape, different leaf labels -> different labelled graphs.
        let a = Cotree::join_of_labelled(vec![Cotree::single(0), Cotree::single(1)]);
        let b = Cotree::join_of_labelled(vec![Cotree::single(0), Cotree::single(2)]);
        assert_ne!(canonical_key(&a), canonical_key(&b));
    }

    #[test]
    fn graph_fingerprint_distinguishes_graphs() {
        let g1 = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let g2 = Graph::from_edges(3, &[(0, 2)]).unwrap();
        let g3 = Graph::from_edges(4, &[(0, 1)]).unwrap();
        assert_ne!(graph_fingerprint(&g1), graph_fingerprint(&g2));
        assert_ne!(graph_fingerprint(&g1), graph_fingerprint(&g3));
        assert_eq!(graph_fingerprint(&g1), graph_fingerprint(&g1.clone()));
    }

    #[test]
    fn insert_then_lookup_hits() {
        let cache = CotreeCache::new(8);
        let tree = parse_cotree_term("(j a b c)").unwrap();
        let graph = Arc::new(tree.to_graph());
        let fp = graph_fingerprint(&graph);
        assert!(cache.lookup_graph(fp, &graph).is_none());
        let entry = cache.insert(Some((fp, graph.clone())), tree);
        let hit = cache
            .lookup_graph(fp, &graph)
            .expect("fingerprint now cached");
        assert_eq!(hit.key, entry.key);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.shards, DEFAULT_SHARDS);
    }

    #[test]
    fn fingerprint_collision_degrades_to_miss() {
        // Manufacture a collision by registering graph A's entry under a
        // fingerprint, then probing with a *different* graph B claiming the
        // same fingerprint: the exact-graph check must refuse the entry.
        let cache = CotreeCache::new(8);
        let tree_a = parse_cotree_term("(j a b c)").unwrap();
        let graph_a = Arc::new(tree_a.to_graph());
        let fp = graph_fingerprint(&graph_a);
        cache.insert(Some((fp, graph_a)), tree_a);
        let graph_b = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert!(cache.lookup_graph(fp, &graph_b).is_none());
    }

    #[test]
    fn key_collision_returns_uncached_entry_not_shared_answers() {
        // Simulate a canonical-key collision by handing insert a cotree
        // whose key already maps to a different cotree: the second insert
        // must come back as its own entry, not the resident one.
        let cache = CotreeCache::new(8);
        let t1 = parse_cotree_term("(j a b c)").unwrap();
        let resident = cache.insert(None, t1.clone());
        let t2 = parse_cotree_term("(u a b c)").unwrap();
        // Different cotrees, different keys: sanity that normal inserts
        // don't collide...
        let other = cache.insert(None, t2.clone());
        assert_ne!(resident.key, other.key);
        // ...and that an exact-equal insert does share.
        let same = cache.insert(None, t1.clone());
        assert!(Arc::ptr_eq(&resident, &same));
        // Exact-match guard on lookup: asking for t2 under t1's key misses.
        assert!(cache.lookup_key(resident.key, &t2).is_none());
        assert!(cache.lookup_key(resident.key, &t1).is_some());
    }

    #[test]
    fn forged_key_collision_is_refused_by_the_walk() {
        // A resident stored under a structurally different probe's key: a
        // genuine collision, so only the walk stands between the probe and
        // the resident's answers.
        use crate::ingest::parse_cotree_term_labelled as term;
        let probe = term("(j (u 0 1) (u 2 3) 4)").unwrap();
        let key = canonical_key(&probe);
        for impostor in [
            "(j (u 0 1) (u 2 4) 3)",
            "(u (j 0 1) (j 2 3) 4)",
            "(j (u 0 1 2) (u 3 4))",
        ] {
            let impostor = term(impostor).unwrap();
            assert_eq!(impostor.num_nodes(), probe.num_nodes());
            let cache = CotreeCache::new(8);
            let forged = Arc::new(SolveEntry {
                key,
                ..SolveEntry::with_order(impostor.clone())
            });
            assert!(Arc::ptr_eq(
                &cache.insert_entry(None, forged.clone()),
                &forged
            ));
            assert!(cache.lookup_key(key, &probe).is_none());
            assert!(cache
                .lookup_entry(&SolveEntry::with_order(probe.clone()))
                .is_none());
            let newcomer = cache.insert(None, probe.clone());
            assert!(!Arc::ptr_eq(&newcomer, &forged), "shared a forged entry");
            assert_eq!(newcomer.cotree, probe);
            assert!(
                cache.lookup_key(key, &probe).is_none(),
                "the newcomer stays uncached"
            );
            let resident = cache.lookup_key(key, &impostor).expect("resident kept");
            assert!(Arc::ptr_eq(&resident, &forged));
        }
    }

    #[test]
    fn graph_built_entries_build_their_order_on_first_confirmation() {
        let cache = CotreeCache::new(8);
        let tree = parse_cotree_term("(j (u a b) c)").unwrap();
        let graph = Arc::new(tree.to_graph());
        let fp = graph_fingerprint(&graph);
        let entry = cache.insert(Some((fp, graph.clone())), tree.clone());
        assert!(
            entry.order.get().is_none(),
            "edge-list entries store no order"
        );
        assert!(cache.lookup_graph(fp, &graph).is_some());
        assert!(entry.order.get().is_none(), "graph hits never need one");
        let probe = SolveEntry::with_order(tree);
        assert!(probe.order.get().is_some(), "term probes carry theirs");
        let hit = cache.lookup_entry(&probe).expect("a term probe hits");
        assert!(Arc::ptr_eq(&hit, &entry));
        assert_eq!(entry.order.get(), probe.order.get());
    }

    #[test]
    fn equal_cotrees_share_one_entry() {
        let cache = CotreeCache::new(8);
        let a = cache.insert(None, labelled_pair(false));
        let b = cache.insert(None, labelled_pair(true));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        // Single shard so capacity pressure is deterministic.
        let cache = CotreeCache::with_shards(2, 1);
        let t1 = parse_cotree_term("(u a b)").unwrap();
        let t2 = parse_cotree_term("(j a b)").unwrap();
        let t3 = parse_cotree_term("(u a b c)").unwrap();
        let k1 = cache.insert(None, t1.clone()).key;
        let k2 = cache.insert(None, t2.clone()).key;
        cache.insert(None, t3.clone());
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup_key(k1, &t1).is_none(), "oldest entry evicted");
        assert!(cache.lookup_key(k2, &t2).is_some(), "newer entry kept");
    }

    #[test]
    fn lru_touch_on_hit_protects_hot_entries() {
        // FIFO would evict t1 (inserted first); LRU must evict t2 because a
        // hit on t1 made it the more recently used of the two.
        let cache = CotreeCache::with_shards(2, 1);
        let t1 = parse_cotree_term("(u a b)").unwrap();
        let t2 = parse_cotree_term("(j a b)").unwrap();
        let t3 = parse_cotree_term("(u a b c)").unwrap();
        let k1 = cache.insert(None, t1.clone()).key;
        let k2 = cache.insert(None, t2.clone()).key;
        assert!(cache.lookup_key(k1, &t1).is_some(), "touch t1");
        cache.insert(None, t3.clone());
        assert!(
            cache.lookup_key(k1, &t1).is_some(),
            "touched entry survives"
        );
        assert!(cache.lookup_key(k2, &t2).is_none(), "LRU entry evicted");
    }

    #[test]
    fn graph_links_are_lru_too() {
        let cache = CotreeCache::with_shards(2, 1);
        let trees: Vec<Cotree> = (0..3).map(distinct_tree).collect();
        let graphs: Vec<Arc<Graph>> = trees.iter().map(|t| Arc::new(t.to_graph())).collect();
        let fps: Vec<u64> = graphs.iter().map(|g| graph_fingerprint(g)).collect();
        cache.insert(Some((fps[0], graphs[0].clone())), trees[0].clone());
        cache.insert(Some((fps[1], graphs[1].clone())), trees[1].clone());
        // Touch link 0, then insert link 2: link 1 is the LRU one.
        assert!(cache.lookup_graph(fps[0], &graphs[0]).is_some());
        cache.insert(Some((fps[2], graphs[2].clone())), trees[2].clone());
        assert!(cache.lookup_graph(fps[0], &graphs[0]).is_some());
        assert!(cache.lookup_graph(fps[1], &graphs[1]).is_none());
        assert!(cache.lookup_graph(fps[2], &graphs[2]).is_some());
    }

    #[test]
    fn by_graph_stays_bounded_under_many_graphs_one_cotree() {
        // Hammer one shard with many distinct fingerprint links all pointing
        // at equal cotrees: the graph-link map must stay bounded by its
        // capacity instead of stranding old links (the pre-sharding cache
        // kept only the latest key->fp link and leaked the rest).
        let cache = CotreeCache::with_shards(4, 1);
        let tree = parse_cotree_term("(j a b c)").unwrap();
        let real_graph = Arc::new(tree.to_graph());
        for fp in 0..100u64 {
            // Synthetic fingerprints simulate distinct graphs resolving to
            // one canonical cotree; each insert adds one graph link.
            cache.insert(Some((fp, real_graph.clone())), tree.clone());
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "one canonical cotree resident");
        // 100 links through a capacity-4 link map: 96 must have been evicted
        // and the survivors stay within capacity.
        assert_eq!(stats.evictions, 96);
        let resident_links = (0..100u64)
            .filter(|&fp| cache.lookup_graph(fp, &real_graph).is_some())
            .count();
        assert_eq!(resident_links, 4, "links bounded by capacity");
    }

    #[test]
    fn stats_aggregate_across_shards() {
        // Generous capacity (32 per shard) so skew in the key distribution
        // cannot evict anything: the second pass must be pure hits.
        let cache = CotreeCache::with_shards(256, 8);
        let trees: Vec<Cotree> = (0..32).map(distinct_tree).collect();
        for t in &trees {
            let k = canonical_key(t);
            assert!(cache.lookup_key(k, t).is_none()); // 32 misses
            cache.insert(None, t.clone());
        }
        for t in &trees {
            let k = canonical_key(t);
            assert!(cache.lookup_key(k, t).is_some()); // 32 hits
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 32);
        assert_eq!(stats.misses, 32);
        assert_eq!(stats.entries, 32);
        assert_eq!(stats.shards, 8);
        let shards = cache.shard_stats();
        assert_eq!(shards.len(), 8);
        assert_eq!(shards.iter().map(|s| s.hits).sum::<u64>(), stats.hits);
        assert_eq!(shards.iter().map(|s| s.misses).sum::<u64>(), stats.misses);
        assert_eq!(
            shards.iter().map(|s| s.entries).sum::<usize>(),
            stats.entries
        );
        // 32 distinct keys across 8 shards: sharding actually spreads them.
        assert!(
            shards.iter().filter(|s| s.entries > 0).count() > 1,
            "keys all landed in one shard: {shards:?}"
        );
    }

    #[test]
    fn per_shard_eviction_under_capacity_pressure() {
        let cache = CotreeCache::with_shards(8, 8); // capacity 1 per shard
        let trees: Vec<Cotree> = (0..64).map(distinct_tree).collect();
        for t in &trees {
            cache.insert(None, t.clone());
        }
        let stats = cache.stats();
        assert!(stats.entries <= 8, "at most one entry per shard");
        assert_eq!(stats.evictions as usize + stats.entries, 64);
        for s in cache.shard_stats() {
            assert!(s.entries <= 1, "shard over its capacity: {s:?}");
        }
    }

    #[test]
    fn lru_stays_correct_under_churn() {
        // Heavy churn through a small single-shard cache exercises the lazy
        // marker queue (stale markers, compaction): a key touched before
        // every insert must survive the entire sweep, occupancy must never
        // exceed capacity, and eviction accounting must balance.
        let cache = CotreeCache::with_shards(16, 1);
        let pinned = distinct_tree(0);
        let pinned_key = cache.insert(None, pinned.clone()).key;
        for i in 1..1000 {
            assert!(
                cache.lookup_key(pinned_key, &pinned).is_some(),
                "pinned entry evicted at step {i}"
            );
            cache.insert(None, distinct_tree(i));
            let stats = cache.stats();
            assert!(stats.entries <= 16, "over capacity at step {i}: {stats:?}");
        }
        let stats = cache.stats();
        assert_eq!(stats.evictions as usize + stats.entries, 1000);
        assert!(cache.lookup_key(pinned_key, &pinned).is_some());
    }

    #[test]
    fn memoised_answers_match_direct_calls() {
        let tree = parse_cotree_term("(j (u a b) (u c d) e)").unwrap();
        let entry = SolveEntry::new(tree.clone());
        assert_eq!(entry.min_cover_size(), min_path_cover_size(&tree));
        assert_eq!(entry.has_hamiltonian_path(), has_hamiltonian_path(&tree));
        assert_eq!(entry.has_hamiltonian_cycle(), has_hamiltonian_cycle(&tree));
        // Second calls return the memo (same values).
        assert_eq!(entry.min_cover_size(), min_path_cover_size(&tree));
    }

    #[test]
    fn export_lists_entries_in_lru_order_with_links() {
        // Single shard so the order is fully determined.
        let cache = CotreeCache::with_shards(8, 1);
        let trees: Vec<Cotree> = (0..3).map(distinct_tree).collect();
        let graph1 = Arc::new(trees[1].to_graph());
        let fp1 = graph_fingerprint(&graph1);
        let k0 = cache.insert(None, trees[0].clone()).key;
        cache.insert(Some((fp1, graph1.clone())), trees[1].clone());
        cache.insert(None, trees[2].clone());
        // Touch entry 0: it becomes the most recently used.
        assert!(cache.lookup_key(k0, &trees[0]).is_some());
        let exported = cache.export();
        assert_eq!(exported.len(), 3);
        let keys: Vec<u64> = exported.iter().map(|e| e.entry.key).collect();
        assert_eq!(
            keys,
            vec![
                canonical_key(&trees[1]),
                canonical_key(&trees[2]),
                canonical_key(&trees[0]),
            ],
            "least recently used first, touched entry last"
        );
        let linked: Vec<bool> = exported.iter().map(|e| e.linked).collect();
        assert_eq!(linked, [true, false, false]);
        assert!(exported.iter().all(|e| e.canonical));
    }

    #[test]
    fn export_keeps_entries_reachable_only_through_graph_links() {
        // Capacity 1: inserting a second cotree evicts the first from the
        // canonical map, but its graph link (stored in another slot of the
        // by_graph LRU) can survive. Export must not drop that entry.
        let cache = CotreeCache::with_shards(1, 1);
        let t0 = distinct_tree(0);
        let g0 = Arc::new(t0.to_graph());
        let fp0 = graph_fingerprint(&g0);
        cache.insert(Some((fp0, g0.clone())), t0.clone());
        cache.insert(None, distinct_tree(1));
        // t0 is gone from the canonical map but still served via its link.
        assert!(cache.lookup_key(canonical_key(&t0), &t0).is_none());
        assert!(cache.lookup_graph(fp0, &g0).is_some());
        let exported = cache.export();
        let link_only = exported
            .iter()
            .find(|e| e.entry.key == canonical_key(&t0))
            .expect("link-only entry must be exported");
        assert!(link_only.linked);
        assert!(
            !link_only.canonical,
            "evicted entry must be marked link-only so import does not \
             promote it over genuinely warm canonical entries"
        );
    }

    #[test]
    fn link_graph_restores_a_link_without_touching_the_canonical_map() {
        let cache = CotreeCache::with_shards(1, 1);
        let resident = distinct_tree(0);
        let resident_key = cache.insert(None, resident.clone()).key;
        let t1 = distinct_tree(1);
        let g1 = Arc::new(t1.to_graph());
        let fp1 = graph_fingerprint(&g1);
        cache.link_graph(fp1, g1.clone(), Arc::new(SolveEntry::new(t1)));
        // The canonical map still holds only `resident`; the link answers.
        assert!(cache.lookup_key(resident_key, &resident).is_some());
        assert!(cache.lookup_graph(fp1, &g1).is_some());
        assert_eq!(cache.stats().entries, 1, "canonical map untouched");
    }

    #[test]
    fn insert_entry_preserves_memoised_scalars() {
        let cache = CotreeCache::new(8);
        let tree = parse_cotree_term("(j a b c)").unwrap();
        let entry = Arc::new(SolveEntry::new(tree));
        entry.min_cover_size();
        let resident = cache.insert_entry(None, entry.clone());
        assert!(Arc::ptr_eq(&resident, &entry));
        assert_eq!(resident.min_size.get(), Some(&1));
        // Imports are not lookups: no hit/miss distortion.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
    }

    #[test]
    fn hit_rate_is_computed() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let stats = CacheStats {
            hits: 3,
            misses: 1,
            ..CacheStats::default()
        };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
    }
}
