//! The NUcache keyed-cache state machine: MainWays + DeliWays.

use crate::config::{
    fits, ConfigError, KernelConfig, SelectionStrategy, HISTOGRAM_BUCKETS, MAX_CANDIDATES,
    ORACLE_POOL, TRACKER_SLOTS,
};
use crate::index::ClassIndex;
use crate::monitor::NextUseMonitor;
use crate::selector::{build_candidates, evaluate_chosen, select_classes, Candidate, Selection};
use crate::tracker::DelinquentTracker;
use alloc::collections::{BTreeMap, BTreeSet};
use alloc::vec;
use alloc::vec::Vec;
use core::fmt::Debug;
use core::hash::Hash;
use core::mem;
use nucache_common::tags::{eq_mask, rank_oldest, rank_touch};

/// Candidate classes included per [`EpochSummary`] snapshot; enough to
/// cover every realistic chosen set (DeliWays ≤ 16) with headroom for
/// the rejected tail the cost-benefit analysis argued about.
const TELEMETRY_TOP_CLASSES: usize = 16;

/// Mask with the low `n` bits set (`n` up to 64).
#[inline]
const fn low_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// `classes` as a chosen set: sorted and deduplicated.
fn class_set<C: Copy + Ord>(classes: &[C]) -> Vec<C> {
    let mut set = classes.to_vec();
    set.sort_unstable();
    set.dedup();
    set
}

/// Which region of a set an entry was found in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// The LRU-managed MainWays, where every entry is inserted.
    Main,
    /// The FIFO-managed DeliWays, holding retained evictions of chosen
    /// classes.
    Deli,
}

/// An entry that left the cache: the FIFO drop of a retained entry, a
/// MainWays eviction of an unchosen class, or an explicit
/// [`remove`](NucacheKernel::remove).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evicted<V, C> {
    /// The key the entry was stored under.
    pub key: u64,
    /// The insertion class it was inserted with.
    pub class: C,
    /// The caller's value.
    pub value: V,
}

/// Result of a [`get`](NucacheKernel::get).
#[derive(Debug)]
pub enum Lookup<'a, V, C> {
    /// The key is resident.
    Hit {
        /// Mutable access to the stored value (e.g. to set a dirty flag).
        value: &'a mut V,
        /// Where the entry was found *before* any hit-promotion moved it.
        region: Region,
        /// With `promote_on_deli_hit`, promoting a DeliWays hit back into
        /// the MainWays can displace another entry out of the cache; it
        /// is reported here.
        evicted: Option<Evicted<V, C>>,
    },
    /// The key is not resident. The kernel has recorded the miss (class
    /// delinquency + Next-Use); the caller decides whether to
    /// [`put`](NucacheKernel::put).
    Miss,
}

impl<V, C> Lookup<'_, V, C> {
    /// Whether the lookup hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, Lookup::Hit { .. })
    }
}

/// One resident entry's bookkeeping (tag + caller state).
#[derive(Debug, Clone)]
struct Stored<V, C> {
    class: C,
    value: V,
}

/// An entry pulled out of the array during replacement.
#[derive(Debug)]
struct Displaced<V, C> {
    tag: u64,
    class: C,
    value: V,
}

/// Epoch-boundary telemetry snapshot, buffered while telemetry is
/// enabled and drained with [`NucacheKernel::drain_epochs`]. Values are
/// captured exactly as the selector saw them (before the epoch decays).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochSummary<C> {
    /// Selection epochs completed, starting at 1.
    pub epoch: u64,
    /// Accesses in the decayed selection window.
    pub window_accesses: u64,
    /// The chosen classes, ascending.
    pub chosen: Vec<C>,
    /// The selection's objective value (expected DeliWays hits).
    pub expected_hits: u64,
    /// The extra lifetime (set-accesses) of the chosen set.
    pub extra_lifetime: u64,
    /// Cumulative DeliWays hits at the snapshot.
    pub deli_hits: u64,
    /// Cumulative DeliWays fills at the snapshot.
    pub deli_fills: u64,
    /// Valid DeliWays entries at the snapshot.
    pub deli_occupancy: u64,
    /// Total DeliWays slots.
    pub deli_capacity: u64,
    /// The top candidate classes by combined fills.
    pub top_classes: Vec<ClassSnapshot<C>>,
}

/// One candidate class inside an [`EpochSummary`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassSnapshot<C> {
    /// The insertion class.
    pub class: C,
    /// Combined fills (misses + DeliWays insertions) this window.
    pub fills: u64,
    /// Whether the selection admitted the class.
    pub chosen: bool,
    /// Next-Use samples recorded for the class.
    pub samples: u64,
    /// 25th percentile Next-Use distance, if sampled.
    pub p25: Option<u64>,
    /// Median Next-Use distance, if sampled.
    pub p50: Option<u64>,
    /// 75th percentile Next-Use distance, if sampled.
    pub p75: Option<u64>,
    /// 90th percentile Next-Use distance, if sampled.
    pub p90: Option<u64>,
}

/// Everything one deferred selection epoch needs, taken out of the
/// kernel by [`NucacheKernel::take_epoch_inputs`] so the selection can
/// be computed with no access to the kernel at all (in the concurrent
/// front-end: outside the shard lock), then handed back to
/// [`NucacheKernel::install_selection`].
#[derive(Debug, Clone)]
pub struct EpochInputs<C> {
    /// The epoch this take opened (1-based).
    epoch: u64,
    deli_ways: usize,
    strategy: SelectionStrategy,
    /// Per-epoch selection seed (`config.seed ^ epoch`).
    seed: u64,
    /// Access denominator of the decayed window, as the selector saw it.
    accesses: u64,
    candidates: Vec<Candidate<C>>,
    /// Pre-decay telemetry snapshot with the selection-dependent fields
    /// left at their previous-epoch values; install patches them.
    summary: Option<EpochSummary<C>>,
}

impl<C: Copy + Ord + Debug> EpochInputs<C> {
    /// The selection epoch these inputs belong to (1-based).
    pub const fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The candidate classes the selection will choose from.
    pub fn candidates(&self) -> &[Candidate<C>] {
        &self.candidates
    }

    /// Runs the selection — a pure function of these inputs, so it can
    /// execute on any thread. Bit-identical to what the inline path
    /// would have computed at the same epoch boundary.
    pub fn compute(&self) -> Selection<C> {
        select_classes(
            &self.candidates,
            self.deli_ways,
            self.accesses.max(1),
            self.strategy,
            self.seed,
        )
    }
}

/// Counter snapshots for the audit oracle's monotonicity checks.
///
/// Each field records the value at the last check; counters must never
/// decrease between checks within an epoch. The decay at each selection
/// epoch (and an explicit stats reset) legitimately shrinks them, so
/// both paths refresh the snapshot via `audit_snapshot`.
#[derive(Debug, Clone, Default)]
struct EpochAudit {
    accesses: u64,
    deli_hits: u64,
    deli_fills: u64,
    window_accesses: u64,
    recorded: u64,
    matched: u64,
    /// Monitor counters at the start of the current decay window, for
    /// the bounded matched-vs-recorded check.
    window_recorded: u64,
    window_matched: u64,
    epoch_checks: u64,
}

/// Naive reference model of residency, mirrored on every array
/// operation while auditing is enabled. Divergence panics at the
/// faulting operation.
#[derive(Debug, Clone, Default)]
struct Mirror {
    /// Resident tags per set.
    resident: Vec<BTreeSet<u64>>,
    /// Mirrored-and-compared operations.
    ops: u64,
}

/// An embeddable NUcache: a set-associative keyed cache whose ways are
/// split into MainWays (LRU, every entry) and DeliWays (FIFO, only
/// entries of the currently chosen insertion classes, entered on
/// MainWays eviction). A sampled Next-Use monitor and a per-class miss
/// tracker feed the epoch-based cost-benefit class selection.
///
/// `V` is the caller's value type, stored inline; `C` is the insertion
/// class (defaults to [`InsertionClass`](crate::InsertionClass); the
/// simulator instantiates a program-counter newtype).
///
/// Keys are plain `u64`s; the low `log2(sets)` bits index the set and
/// the rest are the tag, so keys must be unique (hand the kernel a line
/// address, an object id, a hash of a URL — anything stable).
///
/// # Allocation behaviour
///
/// A `get` that hits in the MainWays allocates nothing: it reorders the
/// set's 8-bit LRU ranks and (on 1-in-`2^monitor_shift` sampled sets)
/// bumps a preallocated clock. The steps every access takes walk no tree
/// and scan no table: the tag probe and the Next-Use buffer search are
/// whole-row compares, and the chosen-set test and the miss tracker are
/// hashed lookups in tables sized at `init`. Every tolerated exception
/// is enumerated here, carries an
/// `// audit:allow-alloc(..)` annotation at the site, and is
/// cross-referenced by tag in `crates/audit/hotpath.txt` — the
/// `nucache-audit effects` gate keeps all three in sync:
///
/// * `epoch-selection-scratch` — every `epoch_len`-th access runs the
///   selection pass, which builds candidate and telemetry scratch and
///   re-indexes the new chosen set; amortized over the epoch. The
///   chosen-set index is sized at `init` for [`MAX_CANDIDATES`] classes,
///   the most a selection chooses, so it never regrows.
/// * `monitor-histogram-growth` — a Next-Use match in a sampled set may
///   lazily create that class's histogram; bounded by live classes.
/// * `deli-class-counter` — a MainWays retirement bumps a per-class
///   fill counter, creating the entry on a class's first retirement.
/// * `tracker-class-table` — a miss from an untracked class appends it
///   to the tracker's per-class table and heap. [`DelinquentTracker::new`]
///   allocates both at their full capacity, so the append never
///   reallocates and nothing grows after `new`; once the table is full,
///   the coldest class is reclaimed in place.
/// * `audit-mirror-residency` — with [`enable_audit`](Self::enable_audit)
///   on, fills record the tag in a reference residency set; the audit
///   mirror is a test harness and never runs in measured configurations.
///
/// # Examples
///
/// ```
/// use nucache_kernel::{InsertionClass, KernelConfig, Lookup, NucacheKernel};
///
/// let config = KernelConfig::default().with_sets(64).with_ways(8).with_deli_ways(4);
/// let mut cache: NucacheKernel<&'static str> = NucacheKernel::init(config)?;
/// let tenant = InsertionClass::new(1);
/// assert!(!cache.get(0x42, tenant).is_hit());
/// cache.put(0x42, tenant, "session-blob");
/// assert!(cache.get(0x42, tenant).is_hit());
/// cache.remove(0x42);
/// assert!(!cache.get(0x42, tenant).is_hit());
/// # Ok::<(), nucache_kernel::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct NucacheKernel<V, C = crate::InsertionClass> {
    config: KernelConfig,
    set_bits: u32,
    main_ways: usize,
    deli_ways: usize,
    /// Tag per frame (`set * ways + way`); garbage where invalid.
    tags: Vec<u64>,
    /// Valid bitmask per set (bit `w` = way `w` holds an entry).
    valid: Vec<u64>,
    /// Class + caller value per frame; `Some` iff the valid bit is set.
    entries: Vec<Option<Stored<V, C>>>,
    /// Replacement rank per frame. Ways `[0, main_ways)` of a set hold an
    /// LRU permutation of `0..main_ways`, ways `[main_ways, ways)` a FIFO
    /// permutation of `0..deli_ways`; rank 0 is the newest.
    ranks: Vec<u8>,
    monitor: NextUseMonitor<C>,
    tracker: DelinquentTracker<C>,
    /// DeliWays insertions per class this window: a retained class stops
    /// missing, so its continued delinquency (and its true FIFO
    /// pressure) shows up here rather than in the miss tracker.
    deli_fills_by_class: BTreeMap<C, u64>,
    /// Classes admitted to the DeliWays: sorted and deduplicated, at most
    /// [`MAX_CANDIDATES`] from a selection.
    chosen: Vec<C>,
    /// Class → position in `chosen`.
    chosen_index: ClassIndex,
    last_selection: Selection<C>,
    /// Key of the latest `get` miss, consumed by the next `put`. While
    /// it is `Some(k)`, `k` is not resident: only `put` makes a key
    /// resident, and every `put` clears it.
    last_miss: Option<u64>,
    /// Accesses in the current decay window — the denominator the
    /// fill-rate (lifetime) estimate pairs with the fill counts.
    window_accesses: u64,
    accesses_in_epoch: u64,
    epochs: u64,
    hits: u64,
    misses: u64,
    deli_hits: u64,
    deli_fills: u64,
    telemetry: bool,
    /// With deferred selection on, the boundary access snapshots the
    /// epoch inputs here instead of running the selection computation;
    /// an external driver takes them, computes off-thread, installs.
    deferred: bool,
    /// The snapshot awaiting [`NucacheKernel::take_epoch_inputs`].
    pending_inputs: Option<EpochInputs<C>>,
    pending_epochs: Vec<EpochSummary<C>>,
    audit: Option<EpochAudit>,
    mirror: Option<Mirror>,
}

impl<V, C: Copy + Ord + Hash + Debug> NucacheKernel<V, C> {
    /// Builds a kernel from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] the configuration violates.
    pub fn init(config: KernelConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        // The sizes that depend on `V` and `C`; `validate` checked the rest.
        let frames = config.sets * config.ways;
        if !fits(frames, mem::size_of::<Option<Stored<V, C>>>()) {
            return Err(ConfigError::TooManyFrames { sets: config.sets, ways: config.ways });
        }
        if !config.monitor_slots().is_some_and(|n| fits(n, mem::size_of::<Option<(C, u64)>>())) {
            return Err(ConfigError::MonitorTooLarge(config.monitor_depth));
        }
        let set_bits = config.sets.trailing_zeros();
        let mut entries = Vec::with_capacity(frames);
        entries.resize_with(frames, || None);
        let main_ways = config.ways - config.deli_ways;
        // Each region starts as the identity permutation.
        let row: Vec<u8> =
            (0..=u8::MAX).take(main_ways).chain((0..=u8::MAX).take(config.deli_ways)).collect();
        Ok(NucacheKernel {
            set_bits,
            main_ways,
            deli_ways: config.deli_ways,
            tags: vec![0; frames],
            valid: vec![0; config.sets],
            entries,
            ranks: row.repeat(config.sets),
            monitor: NextUseMonitor::new(
                set_bits,
                config.monitor_shift.min(set_bits),
                config.monitor_depth,
                HISTOGRAM_BUCKETS,
            ),
            tracker: DelinquentTracker::with_seed(TRACKER_SLOTS, config.seed),
            deli_fills_by_class: BTreeMap::new(),
            chosen: Vec::new(),
            chosen_index: ClassIndex::new(MAX_CANDIDATES, config.seed),
            last_selection: Selection { chosen: Vec::new(), expected_hits: 0, extra_lifetime: 0 },
            last_miss: None,
            window_accesses: 0,
            accesses_in_epoch: 0,
            epochs: 0,
            hits: 0,
            misses: 0,
            deli_hits: 0,
            deli_fills: 0,
            telemetry: false,
            deferred: false,
            pending_inputs: None,
            pending_epochs: Vec::new(),
            audit: None,
            mirror: None,
            config,
        })
    }

    // ---- geometry helpers -------------------------------------------------

    #[inline]
    #[expect(clippy::cast_possible_truncation, reason = "masked below the set count")]
    fn set_of(&self, key: u64) -> usize {
        (key & low_mask(self.set_bits as usize)) as usize
    }

    #[inline]
    fn tag_of(&self, key: u64) -> u64 {
        key >> self.set_bits
    }

    #[inline]
    fn key_of(&self, set: usize, tag: u64) -> u64 {
        (tag << self.set_bits) | set as u64
    }

    #[inline]
    fn frame(&self, set: usize, way: usize) -> usize {
        set * self.config.ways + way
    }

    /// Resident way holding `tag` in `set`, if any: one compare over
    /// the set's whole tag row, masked by its valid ways.
    #[inline]
    fn way_of(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.config.ways;
        let hits = eq_mask(&self.tags[base..base + self.config.ways], tag) & self.valid[set];
        (hits != 0).then(|| hits.trailing_zeros() as usize)
    }

    /// [`way_of`](Self::way_of), cross-checked against the audit mirror
    /// when auditing is on.
    #[inline]
    fn find(&mut self, set: usize, tag: u64) -> Option<usize> {
        let found = self.way_of(set, tag);
        if let Some(mir) = &mut self.mirror {
            mir.ops += 1;
            assert_eq!(
                mir.resident[set].contains(&tag),
                found.is_some(),
                "audit: find({set}, {tag:#x}) diverged from the reference model"
            );
        }
        found
    }

    /// Installs an entry into a frame, returning whatever it displaced.
    fn fill_frame(
        &mut self,
        set: usize,
        way: usize,
        tag: u64,
        class: C,
        value: V,
    ) -> Option<Displaced<V, C>> {
        let f = self.frame(set, way);
        let old_tag = self.tags[f];
        let displaced = self.entries[f].take().map(|s| Displaced {
            tag: old_tag,
            class: s.class,
            value: s.value,
        });
        let had = self.valid[set] & (1u64 << way) != 0;
        debug_assert_eq!(had, displaced.is_some(), "valid bit and entry storage agree");
        self.tags[f] = tag;
        self.entries[f] = Some(Stored { class, value });
        self.valid[set] |= 1u64 << way;
        if let Some(mir) = &mut self.mirror {
            mir.ops += 1;
            if let Some(d) = &displaced {
                assert!(
                    mir.resident[set].remove(&d.tag),
                    "audit: displaced tag {:#x} missing from the reference model",
                    d.tag
                );
            }
            assert!(
                // audit:allow-alloc(audit mirror residency set, populated only when enable_audit is on)
                mir.resident[set].insert(tag),
                "audit: fill of already-resident tag {tag:#x} in set {set}"
            );
        }
        displaced
    }

    /// Clears a frame, returning its entry if it was valid.
    fn invalidate(&mut self, set: usize, way: usize) -> Option<Displaced<V, C>> {
        let f = self.frame(set, way);
        if self.valid[set] & (1u64 << way) == 0 {
            return None;
        }
        self.valid[set] &= !(1u64 << way);
        let tag = self.tags[f];
        #[expect(clippy::expect_used, reason = "a valid frame holds an entry")]
        let stored = self.entries[f].take().expect("valid frame holds an entry");
        if let Some(mir) = &mut self.mirror {
            mir.ops += 1;
            assert!(
                mir.resident[set].remove(&tag),
                "audit: invalidated tag {tag:#x} missing from the reference model"
            );
        }
        Some(Displaced { tag, class: stored.class, value: stored.value })
    }

    /// First invalid way among the MainWays of `set`.
    #[inline]
    fn free_main_way(&self, set: usize) -> Option<usize> {
        let free = !self.valid[set] & low_mask(self.main_ways);
        (free != 0).then(|| free.trailing_zeros() as usize)
    }

    /// The MainWays LRU ranks of `set`.
    #[inline]
    fn main_ranks(&self, set: usize) -> core::ops::Range<usize> {
        let base = set * self.config.ways;
        base..base + self.main_ways
    }

    /// The DeliWays FIFO ranks of `set`.
    #[inline]
    fn deli_ranks(&self, set: usize) -> core::ops::Range<usize> {
        let base = set * self.config.ways + self.main_ways;
        base..base + self.deli_ways
    }

    /// Makes MainWay `way` of `set` the most recently used.
    #[inline]
    fn touch_main(&mut self, set: usize, way: usize) {
        let range = self.main_ranks(set);
        rank_touch(&mut self.ranks[range], way);
    }

    /// Makes DeliWay `way` (a way index of the whole set) of `set` the
    /// newest in its FIFO.
    #[inline]
    fn touch_deli(&mut self, set: usize, way: usize) {
        let range = self.deli_ranks(set);
        rank_touch(&mut self.ranks[range], way - self.main_ways);
    }

    /// LRU victim among the MainWays of `set` (which are full): the way
    /// holding the last rank.
    #[inline]
    fn main_victim(&self, set: usize) -> usize {
        rank_oldest(&self.ranks[self.main_ranks(set)])
    }

    /// FIFO victim among the DeliWays of `set`, or the first invalid one.
    fn deli_slot(&self, set: usize) -> usize {
        debug_assert!(self.deli_ways > 0, "deli_slot needs DeliWays");
        let free = (!self.valid[set] >> self.main_ways) & low_mask(self.deli_ways);
        if free != 0 {
            return self.main_ways + free.trailing_zeros() as usize;
        }
        self.main_ways + rank_oldest(&self.ranks[self.deli_ranks(set)])
    }

    /// Handles an entry leaving the MainWays: moves it into the DeliWays
    /// if its class is chosen (returning the entry the FIFO dropped, if
    /// any) or lets it leave the cache. Either way the monitor sees the
    /// eviction — Next-Use is defined from MainWays eviction for every
    /// entry, so the selector can discover classes that are not
    /// currently chosen.
    fn retire_from_main(&mut self, set: usize, victim: Displaced<V, C>) -> Option<Evicted<V, C>> {
        let key = self.key_of(set, victim.tag);
        self.monitor.on_evict(key, victim.class);
        if self.deli_ways == 0 || !self.is_chosen(victim.class) {
            return Some(Evicted { key, class: victim.class, value: victim.value });
        }
        let slot = self.deli_slot(set);
        let dropped = self.fill_frame(set, slot, victim.tag, victim.class, victim.value);
        self.touch_deli(set, slot);
        self.deli_fills += 1;
        // audit:allow-alloc(per-class fill counter, one entry per live class)
        *self.deli_fills_by_class.entry(victim.class).or_insert(0) += 1;
        // An entry aging out of the DeliWays FIFO leaves the cache for
        // good; its Next-Use from this (second) eviction is not what the
        // selector models, so it is not re-recorded.
        dropped.map(|d| Evicted { key: self.key_of(set, d.tag), class: d.class, value: d.value })
    }

    // ---- the keyed API ----------------------------------------------------

    /// Looks up `key`, advancing the access clock, the epoch counter and
    /// the replacement state exactly as a demand access would.
    ///
    /// On a hit the stored value is returned mutably (update it in
    /// place — e.g. a dirty flag or payload refresh). On a miss the
    /// kernel records the delinquency of `class` and any Next-Use match,
    /// then leaves the decision to insert to the caller
    /// ([`put`](NucacheKernel::put)).
    // audit:hot-path
    pub fn get(&mut self, key: u64, class: C) -> Lookup<'_, V, C> {
        let set = self.set_of(key);
        let tag = self.tag_of(key);
        self.monitor.on_set_access(key);
        self.window_accesses += 1;
        self.epoch_tick();

        let Some(way) = self.find(set, tag) else {
            self.misses += 1;
            self.last_miss = Some(key);
            self.tracker.record_miss(class);
            self.monitor.on_next_use(key);
            return Lookup::Miss;
        };

        self.hits += 1;
        let mut region = Region::Main;
        let mut final_way = way;
        let mut evicted = None;
        if way < self.main_ways {
            self.touch_main(set, way);
        } else {
            region = Region::Deli;
            self.deli_hits += 1;
            // A DeliWays hit is a successful next use after a MainWays
            // eviction: feed it to the monitor so chosen classes keep
            // their Next-Use evidence instead of oscillating out.
            self.monitor.on_next_use(key);
            if !self.config.promote_on_deli_hit && self.config.deli_hit_refresh {
                // Second-chance FIFO: an actively reused entry moves to
                // the FIFO tail instead of aging out on schedule.
                self.touch_deli(set, way);
            }
            if self.config.promote_on_deli_hit && self.main_ways > 0 {
                // Promote the hit entry back into the MainWays: free its
                // DeliWays slot, then displace the MainWays LRU victim
                // through the normal retirement path (which
                // admission-checks it into the freed slot only if its
                // class is chosen).
                #[expect(clippy::expect_used, reason = "the hit way is valid")]
                let promoted = self.invalidate(set, way).expect("hit way valid");
                let mv = self.free_main_way(set).unwrap_or_else(|| self.main_victim(set));
                if let Some(victim) = self.invalidate(set, mv) {
                    evicted = self.retire_from_main(set, victim);
                }
                self.fill_frame(set, mv, promoted.tag, promoted.class, promoted.value);
                self.touch_main(set, mv);
                final_way = mv;
            }
        }
        if self.audit.is_some() {
            self.audit_access_check(set);
        }
        let f = self.frame(set, final_way);
        #[expect(clippy::expect_used, reason = "the hit entry is resident")]
        let value = &mut self.entries[f].as_mut().expect("hit entry resident").value;
        Lookup::Hit { value, region, evicted }
    }

    /// Inserts `key` with `class` and `value`, filling into the MainWays
    /// (an invalid way first, else the LRU victim, whose entry retires —
    /// possibly into the DeliWays). Returns the entry that left the
    /// cache, if any.
    ///
    /// If `key` is already resident its class and value are replaced in
    /// place without touching replacement state. A `put` right after a
    /// `get` that missed on the same key skips the residency probe: that
    /// miss already proved the key absent.
    // audit:hot-path
    pub fn put(&mut self, key: u64, class: C, value: V) -> Option<Evicted<V, C>> {
        let set = self.set_of(key);
        let tag = self.tag_of(key);
        if self.last_miss.take() != Some(key) {
            if let Some(way) = self.find(set, tag) {
                let f = self.frame(set, way);
                #[expect(clippy::expect_used, reason = "`find` just matched this frame")]
                let stored = self.entries[f].as_mut().expect("resident entry");
                stored.class = class;
                stored.value = value;
                return None;
            }
        }
        let (way, leaving) = match self.free_main_way(set) {
            Some(w) => (w, None),
            None => {
                let w = self.main_victim(set);
                #[expect(clippy::expect_used, reason = "full MainWays: the victim frame is valid")]
                let victim = self.invalidate(set, w).expect("MainWays full, victim valid");
                (w, self.retire_from_main(set, victim))
            }
        };
        self.fill_frame(set, way, tag, class, value);
        self.touch_main(set, way);
        if self.audit.is_some() {
            self.audit_access_check(set);
        }
        leaving
    }

    /// Removes `key` if resident, without recording an eviction in the
    /// monitor (an explicit removal is not a capacity eviction, so it
    /// must not contribute Next-Use evidence).
    // audit:hot-path
    pub fn remove(&mut self, key: u64) -> Option<Evicted<V, C>> {
        let set = self.set_of(key);
        let tag = self.tag_of(key);
        let way = self.find(set, tag)?;
        self.invalidate(set, way).map(|d| Evicted {
            key: self.key_of(set, d.tag),
            class: d.class,
            value: d.value,
        })
    }

    /// Whether `key` is resident, without perturbing any replacement,
    /// monitor or epoch state.
    pub fn contains(&self, key: u64) -> bool {
        self.peek(key).is_some()
    }

    /// The stored value of `key`, without perturbing any state.
    pub fn peek(&self, key: u64) -> Option<&V> {
        let set = self.set_of(key);
        let way = self.way_of(set, self.tag_of(key))?;
        self.entries[self.frame(set, way)].as_ref().map(|s| &s.value)
    }

    // ---- epoch machinery --------------------------------------------------

    fn epoch_tick(&mut self) {
        self.accesses_in_epoch += 1;
        if self.accesses_in_epoch >= self.config.epoch_len {
            if self.deferred {
                // Deferred mode: snapshot the selection inputs at this
                // exact point — the same point the inline path runs the
                // whole selection — and leave them for an external
                // driver ([`Self::take_epoch_inputs`]). Only one
                // snapshot is held: if the driver has not taken the
                // previous one yet, accesses keep accumulating and the
                // first tick after the take opens the next epoch.
                if self.pending_inputs.is_none() {
                    self.accesses_in_epoch = 0;
                    let inputs = self.build_epoch_inputs();
                    self.pending_inputs = Some(inputs);
                }
                return;
            }
            self.accesses_in_epoch = 0;
            self.run_selection();
        }
    }

    /// Closes a selection epoch: decays every observation structure and
    /// refreshes the audit counter snapshots.
    fn decay_window(&mut self) {
        self.tracker.decay();
        self.monitor.decay();
        self.deli_fills_by_class.retain(|_, c| {
            *c /= 2;
            *c > 0
        });
        self.window_accesses /= 2;
        if self.audit.is_some() {
            self.audit_snapshot();
        }
    }

    /// The inline epoch boundary: snapshots the epoch, computes its
    /// selection and installs it, the three steps the deferred path
    /// splits across [`take_epoch_inputs`](Self::take_epoch_inputs), a
    /// driver thread and [`install_selection`](Self::install_selection).
    // audit:allow-alloc(epoch-boundary selection scratch, amortized over epoch_len accesses)
    fn run_selection(&mut self) {
        let inputs = self.build_epoch_inputs();
        let selection = inputs.compute();
        self.install_selection(inputs, selection);
    }

    // ---- deferred selection (concurrent front-end) ------------------------

    /// Switches epoch-boundary selection between inline (the default:
    /// the boundary access runs selection before returning) and
    /// deferred: the boundary access snapshots the selection *inputs*
    /// (candidates, access denominator, telemetry) at the exact point
    /// the inline path would have run selection, then marks it
    /// [due](Self::selection_due); an external driver calls
    /// [`take_epoch_inputs`](Self::take_epoch_inputs), runs
    /// [`EpochInputs::compute`] with no access to the kernel at all,
    /// and [installs](Self::install_selection) the result.
    ///
    /// Deferred mode exists for concurrent serving: the selection
    /// *computation* is the expensive epoch task (O(candidates ×
    /// deli_ways × buckets), exponential for the exhaustive oracle), so
    /// a sharded front-end runs it on a background thread outside the
    /// shard lock. The boundary access still pays the O(live classes)
    /// snapshot-and-decay, exactly as it does inline. Between the
    /// snapshot and the install the kernel keeps admitting DeliWays
    /// entries under the previous chosen set — a bounded staleness of
    /// however many accesses land in that gap.
    ///
    /// Disabling deferred mode discards any pending snapshot (that
    /// epoch's selection never installs; the chosen set persists).
    pub fn set_deferred_selection(&mut self, deferred: bool) {
        self.deferred = deferred;
        if !deferred {
            self.pending_inputs = None;
        }
    }

    /// Whether epoch selection is deferred to an external driver.
    pub const fn deferred_selection(&self) -> bool {
        self.deferred
    }

    /// Whether a deferred epoch snapshot is waiting to be
    /// [taken](Self::take_epoch_inputs). Always `false` in inline mode.
    pub const fn selection_due(&self) -> bool {
        self.pending_inputs.is_some()
    }

    /// Snapshots one selection epoch: opens the epoch, ranks the classes
    /// by combined fills into the candidate list, builds the telemetry
    /// from the pre-decay observation state, observes the audit
    /// invariants, then decays the window. The selection computation and
    /// its install run on the returned value.
    // audit:allow-alloc(epoch-boundary selection scratch, amortized over epoch_len accesses)
    fn build_epoch_inputs(&mut self) -> EpochInputs<C> {
        self.epochs += 1;
        let pool = match self.config.strategy {
            SelectionStrategy::Exhaustive => ORACLE_POOL,
            _ => MAX_CANDIDATES,
        };
        // Candidate fills combine demand misses with DeliWays insertions:
        // for an unretained class the former dominates; for a retained
        // class the latter is both its continued-delinquency evidence and
        // its actual FIFO pressure. Without the combination, successfully
        // retained classes stop missing, vanish from the candidate list
        // and selection oscillates.
        let mut combined: BTreeMap<C, u64> = self.deli_fills_by_class.clone();
        for (class, misses) in self.tracker.top_k(self.tracker.len()) {
            *combined.entry(class).or_insert(0) += misses;
        }
        let mut top: Vec<(C, u64)> = combined.into_iter().collect();
        top.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        top.truncate(pool);
        let candidates = build_candidates(&top, self.monitor.histograms());
        // Telemetry values must be what the selector saw (pre-decay);
        // the selection-dependent fields are patched in at install.
        let summary = if self.telemetry { Some(self.epoch_summary(&top)) } else { None };
        if self.audit.is_some() {
            self.audit_epoch_observe();
        }
        // Fill counts and the access denominator are both global over the
        // same decayed window, so their ratio is the per-set fill rate;
        // the monitor's per-set-clock histograms use the same currency.
        let accesses = self.window_accesses;
        self.decay_window();
        EpochInputs {
            epoch: self.epochs,
            deli_ways: self.deli_ways,
            strategy: self.config.strategy,
            seed: self.config.seed ^ self.epochs,
            accesses,
            candidates,
            summary,
        }
    }

    /// Takes the pending deferred epoch snapshot, if any: the caller
    /// runs [`EpochInputs::compute`] with no access to the kernel at
    /// all, then hands the result back via
    /// [`install_selection`](Self::install_selection).
    ///
    /// The snapshot was built — and the observation window decayed — by
    /// the access that crossed the epoch boundary, at the exact point
    /// the inline path runs selection, so the computed selection is
    /// bit-identical to inline's. Accesses since that boundary count
    /// toward the next epoch, again exactly as inline.
    pub fn take_epoch_inputs(&mut self) -> Option<EpochInputs<C>> {
        self.pending_inputs.take()
    }

    /// Installs a selection computed from
    /// [`take_epoch_inputs`](Self::take_epoch_inputs): swaps the chosen
    /// class set, completes and buffers the epoch telemetry, and (while
    /// auditing) verifies the selection objective against the taken
    /// candidates. The inline boundary ends with the same call.
    ///
    /// The installed selection is bit-identical to what the inline path
    /// chooses (the snapshot is built at the inline boundary point). The
    /// only inline/deferred divergence is staleness of the
    /// chosen set between the boundary and this install: accesses in
    /// that gap — including the tail of the boundary access itself, if
    /// it retires a MainWays entry (e.g. a DeliWays-hit promotion) —
    /// make their DeliWays admission decisions under the previous
    /// chosen set. The equivalence tests pin this: with installs driven
    /// before the next chosen-consulting operation, deferred equals
    /// inline bit-for-bit, telemetry included.
    pub fn install_selection(&mut self, inputs: EpochInputs<C>, selection: Selection<C>) {
        self.set_chosen(class_set(&selection.chosen));
        self.last_selection = selection;
        if self.audit.is_some() {
            self.audit_selection_check(&inputs.candidates, inputs.accesses);
        }
        if self.telemetry {
            if let Some(mut summary) = inputs.summary {
                summary.chosen = self.chosen_classes();
                summary.expected_hits = self.last_selection.expected_hits;
                summary.extra_lifetime = self.last_selection.extra_lifetime;
                for snap in &mut summary.top_classes {
                    snap.chosen = self.is_chosen(snap.class);
                }
                self.pending_epochs.push(summary);
            }
        }
    }

    /// Builds the telemetry snapshot of the selection that just ran.
    /// Called before the epoch decays, so fills, window accesses and
    /// histogram summaries are exactly what the selector saw.
    fn epoch_summary(&self, top: &[(C, u64)]) -> EpochSummary<C> {
        let quant = |class: C, p: f64| self.monitor.histogram(class).and_then(|h| h.quantile(p));
        let top_classes: Vec<ClassSnapshot<C>> = top
            .iter()
            .take(TELEMETRY_TOP_CLASSES)
            .map(|&(class, fills)| ClassSnapshot {
                class,
                fills,
                chosen: self.is_chosen(class),
                samples: self.monitor.histogram(class).map_or(0, |h| h.total()),
                p25: quant(class, 0.25),
                p50: quant(class, 0.5),
                p75: quant(class, 0.75),
                p90: quant(class, 0.9),
            })
            .collect();
        EpochSummary {
            epoch: self.epochs,
            window_accesses: self.window_accesses,
            chosen: self.chosen_classes(),
            expected_hits: self.last_selection.expected_hits,
            extra_lifetime: self.last_selection.extra_lifetime,
            deli_hits: self.deli_hits,
            deli_fills: self.deli_fills,
            deli_occupancy: self.deli_occupancy(),
            deli_capacity: self.deli_capacity(),
            top_classes,
        }
    }

    // ---- audit oracle -----------------------------------------------------

    /// Enables the differential audit oracle: every array operation is
    /// mirrored into a naive reference model of residency, and each
    /// selection epoch verifies the kernel's invariants (DeliWays
    /// occupancy within capacity, monotone counters, selection objective
    /// reproducible from the candidates). Violations panic at the
    /// faulting operation.
    pub fn enable_audit(&mut self) {
        let mut mirror = Mirror { resident: vec![BTreeSet::new(); self.config.sets], ops: 0 };
        for set in 0..self.config.sets {
            let base = set * self.config.ways;
            let mut m = self.valid[set];
            while m != 0 {
                let w = m.trailing_zeros() as usize;
                mirror.resident[set].insert(self.tags[base + w]);
                m &= m - 1;
            }
        }
        self.mirror = Some(mirror);
        self.audit = Some(EpochAudit::default());
        self.audit_snapshot();
    }

    /// Disables the audit oracle and drops its mirror state.
    pub fn disable_audit(&mut self) {
        self.audit = None;
        self.mirror = None;
    }

    /// Whether the audit oracle is currently enabled.
    pub fn audit_enabled(&self) -> bool {
        self.audit.is_some()
    }

    /// Array operations mirrored into the reference model so far.
    pub fn audit_ops(&self) -> u64 {
        self.mirror.as_ref().map_or(0, |m| m.ops)
    }

    /// Epoch-level invariant checks performed so far.
    pub fn epoch_checks(&self) -> u64 {
        self.audit.as_ref().map_or(0, |a| a.epoch_checks)
    }

    /// Refreshes the oracle's counter snapshots to the current values
    /// (after the epoch decay or a stats reset, which legitimately move
    /// counters backwards).
    fn audit_snapshot(&mut self) {
        let accesses = self.hits + self.misses;
        let (dh, df, wa) = (self.deli_hits, self.deli_fills, self.window_accesses);
        let (rec, mat) = (self.monitor.recorded(), self.monitor.matched());
        if let Some(a) = &mut self.audit {
            a.accesses = accesses;
            a.deli_hits = dh;
            a.deli_fills = df;
            a.window_accesses = wa;
            a.recorded = rec;
            a.matched = mat;
            a.window_recorded = rec;
            a.window_matched = mat;
        }
    }

    /// Per-access oracle checks: counters monotone since the last check,
    /// DeliWays hits within total hits, and both rank regions of the
    /// accessed `set` still permutations.
    #[cold]
    #[inline(never)]
    fn audit_access_check(&mut self, set: usize) {
        for (region, range) in
            [("MainWays", self.main_ranks(set)), ("DeliWays", self.deli_ranks(set))]
        {
            let ranks = &self.ranks[range];
            let seen = ranks.iter().fold(0u64, |m, &r| m | 1 << (r & 63));
            assert!(
                ranks.iter().all(|&r| usize::from(r) < ranks.len())
                    && seen == low_mask(ranks.len()),
                "audit: {region} ranks {ranks:?} of set {set} are not a permutation"
            );
        }
        let (hits, misses) = (self.hits, self.misses);
        let (dh, df, wa) = (self.deli_hits, self.deli_fills, self.window_accesses);
        let (rec, mat) = (self.monitor.recorded(), self.monitor.matched());
        let Some(a) = &mut self.audit else { return };
        assert!(dh <= hits, "audit: DeliWays hits ({dh}) exceed total hits ({hits})");
        assert!(
            hits + misses >= a.accesses,
            "audit: access counter moved backwards within an epoch"
        );
        assert!(
            dh >= a.deli_hits && df >= a.deli_fills,
            "audit: DeliWays counters moved backwards within an epoch"
        );
        assert!(
            wa >= a.window_accesses,
            "audit: window access counter moved backwards within an epoch"
        );
        assert!(
            rec >= a.recorded && mat >= a.matched,
            "audit: monitor counters moved backwards within an epoch"
        );
        a.accesses = hits + misses;
        a.deli_hits = dh;
        a.deli_fills = df;
        a.window_accesses = wa;
        a.recorded = rec;
        a.matched = mat;
    }

    /// Epoch-boundary oracle checks over the *observation* state, run
    /// before the decay so occupancy and monitor state are what the
    /// selector saw. Selection-independent, so the deferred path can run
    /// it at take time.
    fn audit_epoch_observe(&mut self) {
        let capacity = self.deli_capacity();
        let occ = self.deli_occupancy();
        assert!(occ <= capacity, "audit: DeliWays occupancy {occ} exceeds capacity {capacity}");
        // Every monitor match consumes a buffered eviction recorded
        // either in this decay window or already buffered when it
        // started.
        let buffer_cap = (self.config.monitor_depth * self.monitor.sampled_sets()) as u64;
        let (rec, mat) = (self.monitor.recorded(), self.monitor.matched());
        #[expect(clippy::expect_used, reason = "the epoch check runs only while auditing")]
        let a = self.audit.as_mut().expect("epoch check runs only while auditing");
        let window_matched = mat.saturating_sub(a.window_matched);
        let window_recorded = rec.saturating_sub(a.window_recorded);
        assert!(
            window_matched <= window_recorded + buffer_cap,
            "audit: {window_matched} monitor matches cannot come from {window_recorded} \
             recorded evictions plus a buffer of {buffer_cap}"
        );
        a.epoch_checks += 1;
    }

    /// Epoch-boundary oracle checks over the *selection* outcome, against
    /// the candidates and access denominator the selector actually used
    /// (the deferred path replays them from the taken inputs).
    fn audit_selection_check(&mut self, candidates: &[Candidate<C>], accesses: u64) {
        let from_selection = class_set(&self.last_selection.chosen);
        assert!(
            self.chosen == from_selection,
            "audit: admitted class set {:?} disagrees with the selection {:?}",
            self.chosen,
            self.last_selection.chosen
        );
        // The analytic strategies report an objective value; re-deriving
        // it for the chosen set from the same candidates must reproduce
        // it.
        let analytic = matches!(
            self.config.strategy,
            SelectionStrategy::CostBenefit | SelectionStrategy::Exhaustive
        );
        if analytic && !self.last_selection.chosen.is_empty() {
            let recomputed = evaluate_chosen(
                candidates,
                &self.last_selection.chosen,
                self.deli_ways,
                accesses.max(1),
            );
            assert_eq!(
                recomputed,
                Some((self.last_selection.expected_hits, self.last_selection.extra_lifetime)),
                "audit: selection objective not reproducible from the candidates"
            );
        }
    }

    // ---- introspection ----------------------------------------------------

    /// The active configuration.
    pub const fn config(&self) -> &KernelConfig {
        &self.config
    }

    /// Number of MainWays per set.
    pub const fn main_ways(&self) -> usize {
        self.main_ways
    }

    /// Number of DeliWays per set.
    pub const fn deli_ways(&self) -> usize {
        self.deli_ways
    }

    /// Total entry slots (`sets * ways`).
    pub fn capacity(&self) -> usize {
        self.config.sets * self.config.ways
    }

    /// Resident entries across all sets.
    pub fn len(&self) -> usize {
        self.valid.iter().map(|v| v.count_ones() as usize).sum()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.valid.iter().all(|&v| v == 0)
    }

    /// Lookups that found their key since construction (or the last
    /// [`reset_stats`](NucacheKernel::reset_stats)).
    pub const fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that missed.
    pub const fn misses(&self) -> u64 {
        self.misses
    }

    /// Hits satisfied from the DeliWays.
    pub const fn deli_hits(&self) -> u64 {
        self.deli_hits
    }

    /// Entries moved from MainWays into DeliWays.
    pub const fn deli_fills(&self) -> u64 {
        self.deli_fills
    }

    /// Completed selection epochs.
    pub const fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Classes currently admitted to the DeliWays, ascending.
    pub fn chosen_classes(&self) -> Vec<C> {
        self.chosen.clone()
    }

    /// Whether `class` is admitted to the DeliWays.
    #[inline]
    fn is_chosen(&self, class: C) -> bool {
        if self.chosen.is_empty() {
            return false;
        }
        let hash = self.chosen_index.hash(&class);
        self.chosen_index.lookup(hash, |i| self.chosen[i] == class).is_some()
    }

    /// Replaces the chosen set (sorted and deduplicated) and re-indexes it.
    fn set_chosen(&mut self, chosen: Vec<C>) {
        self.chosen_index.reindex(&chosen);
        self.chosen = chosen;
    }

    /// The outcome of the most recent selection pass.
    pub const fn last_selection(&self) -> &Selection<C> {
        &self.last_selection
    }

    /// Read access to the per-class miss tracker.
    pub const fn tracker(&self) -> &DelinquentTracker<C> {
        &self.tracker
    }

    /// Read access to the Next-Use monitor.
    pub const fn monitor(&self) -> &NextUseMonitor<C> {
        &self.monitor
    }

    /// Access denominator the selector pairs with the classes' combined
    /// fills (accesses in the decay window).
    pub const fn selection_accesses(&self) -> u64 {
        self.window_accesses
    }

    /// Valid entries currently resident in the DeliWays across all sets.
    pub fn deli_occupancy(&self) -> u64 {
        self.valid
            .iter()
            .map(|&v| ((v >> self.main_ways) & low_mask(self.deli_ways)).count_ones() as u64)
            .sum()
    }

    /// Total DeliWays slots across all sets.
    pub fn deli_capacity(&self) -> u64 {
        (self.deli_ways * self.config.sets) as u64
    }

    /// Clears the hit/miss and DeliWays counters while keeping contents
    /// and all learning state (tracker, monitor, chosen classes, epoch
    /// position) — mirroring how a warmup phase is excluded from
    /// measurement.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.deli_hits = 0;
        self.deli_fills = 0;
        if self.audit.is_some() {
            self.audit_snapshot();
        }
    }

    /// Enables or disables epoch telemetry. Disabling clears anything
    /// buffered. Off by default: the only cost while disabled is one
    /// branch per epoch.
    pub fn set_telemetry(&mut self, enabled: bool) {
        self.telemetry = enabled;
        if !enabled {
            self.pending_epochs.clear();
        }
    }

    /// Takes every buffered [`EpochSummary`] (empty while telemetry is
    /// disabled).
    pub fn drain_epochs(&mut self) -> Vec<EpochSummary<C>> {
        mem::take(&mut self.pending_epochs)
    }

    /// Overrides the chosen class set until the next selection epoch
    /// recomputes it.
    ///
    /// Intended for tests and for operational pinning (e.g. forcing a
    /// tenant's entries to be retained while gathering evidence); the
    /// normal path is to let the epoch selection decide.
    pub fn force_chosen(&mut self, classes: &[C]) {
        self.set_chosen(class_set(classes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InsertionClass;

    type Kernel = NucacheKernel<u32, InsertionClass>;

    fn cfg(sets: usize, ways: usize, deli: usize) -> KernelConfig {
        let mut c = KernelConfig::default()
            .with_sets(sets)
            .with_ways(ways)
            .with_deli_ways(deli)
            .with_epoch_len(1000);
        c.monitor_shift = 0; // observe every set in tests
        c
    }

    fn class(raw: u64) -> InsertionClass {
        InsertionClass::new(raw)
    }

    /// A get-then-put demand access, like the simulator adapter's.
    fn access(k: &mut Kernel, c: u64, key: u64) -> bool {
        if k.get(key, class(c)).is_hit() {
            true
        } else {
            k.put(key, class(c), 0);
            false
        }
    }

    #[test]
    fn basic_hit_miss_and_remove() {
        let mut k = Kernel::init(cfg(16, 4, 2)).expect("valid config");
        assert!(!access(&mut k, 1, 5));
        assert!(access(&mut k, 1, 5));
        assert_eq!((k.hits(), k.misses()), (1, 1));
        assert_eq!(k.len(), 1);
        let gone = k.remove(5).expect("resident");
        assert_eq!(gone.key, 5);
        assert!(k.is_empty());
        assert!(!access(&mut k, 1, 5));
    }

    #[test]
    fn put_replaces_in_place() {
        let mut k = Kernel::init(cfg(16, 4, 2)).expect("valid config");
        k.put(9, class(1), 10);
        assert_eq!(k.put(9, class(2), 20), None);
        assert_eq!(k.peek(9), Some(&20));
        assert_eq!(k.len(), 1);
    }

    #[test]
    fn unchosen_entries_bypass_deliways() {
        let mut k = Kernel::init(cfg(1, 4, 2)).expect("valid config");
        // 2 MainWays, 2 DeliWays; nothing chosen yet, so a working set of
        // 3 keys thrashes the 2 MainWays exactly like a 2-way LRU.
        let mut hits = 0;
        for _ in 0..10 {
            for n in 0..3 {
                if access(&mut k, 1, n) {
                    hits += 1;
                }
            }
        }
        assert_eq!(hits, 0);
        assert_eq!(k.deli_fills(), 0);
    }

    #[test]
    fn chosen_class_entries_enter_deliways_and_hit() {
        let mut k = Kernel::init(cfg(1, 4, 2)).expect("valid config");
        k.force_chosen(&[class(1)]);
        let mut hits = 0;
        for _ in 0..20 {
            for n in 0..4 {
                if access(&mut k, 1, n) {
                    hits += 1;
                }
            }
        }
        assert!(k.deli_fills() > 0, "chosen entries must enter DeliWays");
        assert!(k.deli_hits() > 0, "DeliWays must produce hits");
        assert!(hits > 40, "retention should convert most misses, got {hits}");
    }

    #[test]
    fn cost_benefit_selection_discovers_loop_class() {
        // Miri runs orders of magnitude slower; shrink the stream and the
        // epoch length together so selection still sees several epochs.
        let (rounds, epoch_len) = if cfg!(miri) { (3_000u64, 500) } else { (30_000u64, 2_000) };
        let mut config = cfg(64, 16, 8);
        config.epoch_len = epoch_len;
        let mut k = Kernel::init(config).expect("valid config");
        let mut stream = 1 << 20;
        for round in 0..rounds {
            access(&mut k, 1, round % 768);
            if round % 2 == 0 {
                access(&mut k, 2, stream);
                stream += 1;
            }
        }
        assert!(k.epochs() >= 2);
        let chosen = k.chosen_classes();
        assert!(chosen.contains(&class(1)), "loop class must be chosen, got {chosen:?}");
        assert!(!chosen.contains(&class(2)), "stream class must not be chosen, got {chosen:?}");
        assert!(k.deli_hits() > 0);
    }

    #[test]
    fn promotion_moves_entry_to_main() {
        let mut config = cfg(1, 4, 2);
        config.promote_on_deli_hit = true;
        let mut k = Kernel::init(config).expect("valid config");
        k.force_chosen(&[class(1)]);
        access(&mut k, 1, 0);
        access(&mut k, 1, 1);
        access(&mut k, 1, 2); // evicts 0 -> DeliWays
        assert_eq!(k.deli_fills(), 1);
        match k.get(0, class(1)) {
            Lookup::Hit { region, .. } => assert_eq!(region, Region::Deli),
            Lookup::Miss => panic!("expected a DeliWays hit"),
        }
        assert_eq!(k.deli_hits(), 1);
        // After promotion, key 0 sits in the MainWays as MRU.
        access(&mut k, 1, 3);
        assert!(access(&mut k, 1, 0));
    }

    #[test]
    fn audited_run_matches_unaudited_and_counts_checks() {
        let (rounds, epoch_len) = if cfg!(miri) { (1_000u64, 100) } else { (10_000u64, 500) };
        let mut config = cfg(16, 8, 4);
        config.epoch_len = epoch_len;
        let run = |audit: bool| {
            let mut k = Kernel::init(config).expect("valid config");
            if audit {
                k.enable_audit();
            }
            for n in 0..rounds {
                access(&mut k, 1 + n % 3, n % 90);
            }
            (
                (k.hits(), k.misses(), k.deli_hits(), k.chosen_classes()),
                k.audit_ops(),
                k.epoch_checks(),
            )
        };
        let (plain, ops0, checks0) = run(false);
        let (audited, ops, checks) = run(true);
        assert_eq!((ops0, checks0), (0, 0));
        assert_eq!(plain, audited, "auditing must not perturb results");
        assert!(ops > 0, "mirror must have been exercised");
        assert!(checks > 0, "epoch invariants must have been checked");
    }

    #[test]
    fn telemetry_emits_one_summary_per_epoch() {
        let (rounds, epoch_len) = if cfg!(miri) { (1_000u64, 200) } else { (10_000u64, 2_000) };
        let mut config = cfg(64, 16, 8);
        config.epoch_len = epoch_len;
        let mut k = Kernel::init(config).expect("valid config");
        k.set_telemetry(true);
        for round in 0..rounds {
            access(&mut k, 1, round % 768);
        }
        let epochs = k.drain_epochs();
        assert_eq!(epochs.len() as u64, k.epochs());
        assert!(!epochs.is_empty());
        let first = &epochs[0];
        assert_eq!(first.epoch, 1);
        assert_eq!(first.deli_capacity, 8 * 64);
        assert!(first.top_classes.iter().any(|c| c.fills > 0));
        for chosen in &first.chosen {
            assert!(first.top_classes.iter().any(|c| c.class == *chosen && c.chosen));
        }
        assert!(k.drain_epochs().is_empty(), "drain consumes the buffer");
    }

    #[test]
    fn reset_stats_keeps_learning_state() {
        let mut config = cfg(16, 4, 2);
        config.epoch_len = 100;
        let mut k = Kernel::init(config).expect("valid config");
        for n in 0..500 {
            access(&mut k, 1, n % 40);
        }
        let epochs = k.epochs();
        k.reset_stats();
        assert_eq!((k.hits(), k.misses(), k.deli_hits()), (0, 0, 0));
        assert_eq!(k.epochs(), epochs, "selection state survives reset");
    }

    #[test]
    fn capacity_and_occupancy_bounds() {
        let mut k = Kernel::init(cfg(4, 4, 2)).expect("valid config");
        k.force_chosen(&[class(1)]);
        let rounds = if cfg!(miri) { 500 } else { 10_000 };
        for n in 0..rounds {
            access(&mut k, 1, n % 97);
        }
        assert!(k.len() <= k.capacity());
        assert!(k.deli_occupancy() <= k.deli_capacity());
    }

    /// Geometries for the probe tests: one way, an odd width, and the
    /// full 64-bit valid mask.
    const PROBE_GEOMETRIES: [(usize, usize); 3] = [(1, 0), (5, 2), (64, 8)];

    /// A 4-set kernel under the audit mirror, which checks every probe
    /// against its reference residency and panics if a fill duplicates a
    /// resident tag. Class 1 is chosen and DeliWays hits promote.
    fn audited(ways: usize, deli: usize) -> Kernel {
        let mut config = cfg(4, ways, deli);
        config.promote_on_deli_hit = true;
        let mut k = Kernel::init(config).expect("valid config");
        k.enable_audit();
        k.force_chosen(&[class(1)]);
        k
    }

    /// Keys of set 0 in a 4-set kernel.
    fn set0(n: u64) -> u64 {
        n * 4
    }

    /// `len` counts each resident key once.
    fn assert_resident_once(k: &Kernel, keys: &[u64]) {
        let resident = keys.iter().filter(|&&key| k.contains(key)).count();
        assert_eq!(k.len(), resident, "a resident key is stored exactly once");
    }

    #[test]
    #[expect(clippy::cast_possible_truncation, reason = "values stay below 64 ways")]
    fn whole_row_probe_finds_every_way() {
        for (ways, deli) in PROBE_GEOMETRIES {
            let mut k = audited(ways, deli);
            let main = (ways - deli) as u64;
            for n in 0..main {
                k.put(set0(n), class(2), n as u32);
            }
            for n in 0..main {
                assert_eq!(k.peek(set0(n)), Some(&(n as u32)), "{ways} ways, key {n}");
                assert!(k.get(set0(n), class(2)).is_hit());
            }
            assert!(!k.contains(set0(main)));
            assert!(k.remove(set0(0)).is_some());
            assert!(!k.contains(set0(0)), "a stale tag in an invalid way never matches");
            assert_resident_once(&k, &(0..main).map(set0).collect::<Vec<_>>());
        }
    }

    #[test]
    fn put_after_its_own_miss_skips_the_probe() {
        for (ways, deli) in PROBE_GEOMETRIES {
            let mut k = audited(ways, deli);
            let before = k.audit_ops();
            assert!(!k.get(set0(1), class(1)).is_hit());
            assert!(k.put(set0(1), class(1), 7).is_none());
            // One mirrored probe (the get) and one fill: no second probe.
            assert_eq!(k.audit_ops() - before, 2, "{ways} ways");
            assert_eq!(k.peek(set0(1)), Some(&7));
        }
    }

    #[test]
    fn miss_then_put_of_another_key_then_put() {
        for (ways, deli) in PROBE_GEOMETRIES {
            let mut k = audited(ways, deli);
            let (key, other) = (set0(1), set0(2));
            assert!(!k.get(key, class(1)).is_hit());
            k.put(other, class(1), 2);
            k.put(key, class(1), 1);
            assert_eq!(k.peek(key), Some(&1), "{ways} ways");
            assert_resident_once(&k, &[key, other]);
        }
    }

    #[test]
    fn miss_then_deli_hit_promotion_then_put() {
        for (ways, deli) in PROBE_GEOMETRIES.into_iter().filter(|&(_, d)| d > 0) {
            let mut k = audited(ways, deli);
            let main = (ways - deli) as u64;
            // One key more than the MainWays hold: key 0 retires into
            // the DeliWays.
            for n in 0..=main {
                access(&mut k, 1, set0(n));
            }
            let key = set0(main + 1);
            assert!(!k.get(key, class(1)).is_hit());
            match k.get(set0(0), class(1)) {
                Lookup::Hit { region, .. } => assert_eq!(region, Region::Deli, "{ways} ways"),
                Lookup::Miss => panic!("key 0 must hit in the DeliWays"),
            }
            k.put(key, class(1), 9);
            assert_eq!(k.peek(key), Some(&9));
            assert_resident_once(&k, &(0..=main + 1).map(set0).collect::<Vec<_>>());
        }
    }

    #[test]
    fn miss_then_remove_then_put() {
        for (ways, deli) in PROBE_GEOMETRIES {
            let mut k = audited(ways, deli);
            let key = set0(3);
            k.put(set0(1), class(1), 1);
            assert!(!k.get(key, class(1)).is_hit());
            assert!(k.remove(key).is_none(), "the key was never resident");
            k.put(key, class(1), 3);
            assert_eq!(k.peek(key), Some(&3), "{ways} ways");
            assert_resident_once(&k, &[set0(1), key]);
        }
    }

    #[test]
    fn miss_then_put_twice_replaces_in_place() {
        for (ways, deli) in PROBE_GEOMETRIES {
            let mut k = audited(ways, deli);
            let key = set0(5);
            assert!(!k.get(key, class(1)).is_hit());
            assert!(k.put(key, class(1), 1).is_none());
            let len = k.len();
            assert!(k.put(key, class(2), 2).is_none(), "a resident key is replaced, not refilled");
            assert_eq!(k.len(), len, "{ways} ways");
            assert_eq!(k.peek(key), Some(&2));
            assert_resident_once(&k, &[key]);
        }
    }

    #[test]
    #[should_panic(expected = "audit: DeliWays hits")]
    fn audit_catches_corrupted_counter() {
        let mut k = Kernel::init(cfg(16, 4, 2)).expect("valid config");
        k.enable_audit();
        access(&mut k, 1, 5);
        k.deli_hits = 10_000; // corrupt: more deli hits than total hits
        access(&mut k, 1, 5);
    }
}
