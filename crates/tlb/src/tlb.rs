//! A single set-associative TLB structure and its lookup logic
//! (conventional Fig. 1 and BabelFish Fig. 8).

use crate::opc::OpcField;
use crate::telemetry::TlbTelemetry;
use bf_types::{AccessKind, Ccid, Cycles, PageFlags, PageSize, Pcid, Pid, Ppn, Vpn};

/// How lookups match entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LookupMode {
    /// Conventional x86 TLB: an access hits on a {VPN, PCID} match
    /// (Fig. 1). The CCID and O-PC fields are ignored.
    Conventional,
    /// BabelFish TLB: an access hits on a {VPN, CCID} match followed by
    /// the O-PC / PCID checks of Fig. 8.
    BabelFish,
}

/// Geometry and timing of one TLB structure.
///
/// The constructors give the Table I configurations.
///
/// # Examples
///
/// ```
/// use bf_tlb::TlbConfig;
/// let l2 = TlbConfig::l2_4k();
/// assert_eq!(l2.entries, 1536);
/// assert_eq!(l2.ways, 12);
/// assert_eq!((l2.access_cycles_short, l2.access_cycles_long), (10, 12));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total entries.
    pub entries: usize,
    /// Associativity (fully associative when `ways == entries`).
    pub ways: usize,
    /// Access time when the PC bitmask is *not* consulted (Fig. 5b lets
    /// the O/ORPC bits skip it). Conventional TLBs always use this.
    pub access_cycles_short: Cycles,
    /// Access time when the PC bitmask must be read (BabelFish L2: 12
    /// instead of 10, Table I).
    pub access_cycles_long: Cycles,
}

impl TlbConfig {
    /// L1 data TLB, 4 KB pages: 64 entries, 4-way, 1 cycle.
    pub fn l1d_4k() -> Self {
        TlbConfig {
            entries: 64,
            ways: 4,
            access_cycles_short: 1,
            access_cycles_long: 1,
        }
    }

    /// L1 instruction TLB, 4 KB pages: 64 entries, 4-way, 1 cycle.
    pub fn l1i_4k() -> Self {
        Self::l1d_4k()
    }

    /// L1 data TLB, 2 MB pages: 32 entries, 4-way, 1 cycle.
    pub fn l1d_2m() -> Self {
        TlbConfig {
            entries: 32,
            ways: 4,
            access_cycles_short: 1,
            access_cycles_long: 1,
        }
    }

    /// L1 data TLB, 1 GB pages: 4 entries, fully associative, 1 cycle.
    pub fn l1d_1g() -> Self {
        TlbConfig {
            entries: 4,
            ways: 4,
            access_cycles_short: 1,
            access_cycles_long: 1,
        }
    }

    /// L2 unified TLB, 4 KB pages: 1536 entries, 12-way, 10 or 12 cycles.
    pub fn l2_4k() -> Self {
        TlbConfig {
            entries: 1536,
            ways: 12,
            access_cycles_short: 10,
            access_cycles_long: 12,
        }
    }

    /// L2 unified TLB, 2 MB pages: 1536 entries, 12-way, 10 or 12 cycles.
    pub fn l2_2m() -> Self {
        Self::l2_4k()
    }

    /// L2 unified TLB, 1 GB pages: 16 entries, 4-way, 10 or 12 cycles.
    pub fn l2_1g() -> Self {
        TlbConfig {
            entries: 16,
            ways: 4,
            access_cycles_short: 10,
            access_cycles_long: 12,
        }
    }

    /// The "larger conventional L2 TLB" of Section VII-C: the CCID + O-PC
    /// storage of BabelFish (12 + 34 bits per entry) re-invested in extra
    /// conventional entries instead (≈ 1.5× capacity at a similar entry
    /// footprint).
    pub fn l2_4k_larger_baseline() -> Self {
        TlbConfig {
            entries: 2304,
            ways: 12,
            access_cycles_short: 10,
            access_cycles_long: 10,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.entries / self.ways
    }
}

/// Everything needed to install one translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbFill {
    /// Virtual page number (relative to `size`).
    pub vpn: Vpn,
    /// Physical page number (4 KB units).
    pub ppn: Ppn,
    /// Page size of the mapping.
    pub size: PageSize,
    /// Permission bits.
    pub flags: PageFlags,
    /// PCID of the process installing the entry.
    pub pcid: Pcid,
    /// CCID group of that process.
    pub ccid: Ccid,
    /// Ownership bit (true ⇒ private entry).
    pub owned: bool,
    /// ORPC bit loaded from the pmd_t (Fig. 5). When clear, the hardware
    /// skips loading `pc_bitmask` and clears the TLB storage (Fig. 5b).
    pub orpc: bool,
    /// PC bitmask loaded from the MaskPage (only when `orpc`).
    pub pc_bitmask: u32,
    /// Process that performed the fill (for shared-hit statistics,
    /// Fig. 10b).
    pub loader: Pid,
}

/// One TLB access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupRequest {
    /// Virtual page number (relative to the structure's page size).
    pub vpn: Vpn,
    /// PCID of the accessing process.
    pub pcid: Pcid,
    /// CCID of the accessing process.
    pub ccid: Ccid,
    /// Pid of the accessing process (statistics only).
    pub pid: Pid,
    /// The accessing process's bit index in the PC bitmask, if the OS has
    /// assigned it one for this region (i.e. the process performed a CoW
    /// there). `None` ⇒ the process has no private copies.
    pub pc_bit: Option<usize>,
    /// True for store accesses (drives CoW fault detection, Fig. 8 step 5).
    pub is_write: bool,
}

/// A successful translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hit {
    /// The translated physical page.
    pub ppn: Ppn,
    /// Page size of the hit entry.
    pub size: PageSize,
    /// Permission bits of the entry.
    pub flags: PageFlags,
    /// The entry was brought into the TLB by a *different* process
    /// (Fig. 10b "shared hits").
    pub shared: bool,
    /// The PC bitmask had to be consulted (costs the long access time).
    pub bitmask_consulted: bool,
}

/// Outcome of [`Tlb::lookup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// Translation found and usable.
    Hit(Hit),
    /// Translation found but the access is a write to a CoW page: the
    /// hardware raises a CoW page fault (Fig. 8 step 6) for the OS.
    CowFault(Hit),
    /// No usable translation; a page walk follows (Fig. 8 step 11).
    Miss {
        /// The PC bitmask was consulted while failing (affects timing).
        bitmask_consulted: bool,
    },
}

impl LookupResult {
    /// The hit payload, if the access translated successfully.
    pub fn hit(&self) -> Option<&Hit> {
        match self {
            LookupResult::Hit(hit) => Some(hit),
            _ => None,
        }
    }

    /// `true` for both plain hits and CoW-fault hits (the entry was
    /// present either way).
    pub fn entry_present(&self) -> bool {
        !matches!(self, LookupResult::Miss { .. })
    }
}

/// Oracle record of one injected PPN bit-flip: enough to locate the
/// corrupted slot later and to verify/repair exactly that corruption.
/// Produced by [`Tlb::inject_ppn_flip`], consumed by [`Tlb::scrub_flip`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFlip {
    /// Arena slot of the corrupted entry.
    pub slot: usize,
    /// VPN tag the entry carried when corrupted.
    pub vpn: Vpn,
    /// Translation before the flip.
    pub ppn_original: Ppn,
    /// Translation after the flip.
    pub ppn_corrupt: Ppn,
}

/// Hit/miss counters, split by data/instruction stream for Fig. 10.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct TlbStats {
    /// Data-stream hits.
    pub data_hits: u64,
    /// Data-stream misses.
    pub data_misses: u64,
    /// Instruction-stream hits.
    pub instr_hits: u64,
    /// Instruction-stream misses.
    pub instr_misses: u64,
    /// Hits on entries loaded by a different process (Fig. 10b),
    /// data stream.
    pub data_shared_hits: u64,
    /// Shared hits, instruction stream.
    pub instr_shared_hits: u64,
    /// CoW faults raised from this TLB.
    pub cow_faults: u64,
    /// Lookups that had to consult the PC bitmask.
    pub bitmask_checks: u64,
    /// Entries installed.
    pub fills: u64,
    /// Valid entries evicted.
    pub evictions: u64,
}

impl TlbStats {
    /// Total hits (both streams).
    pub fn hits(&self) -> u64 {
        self.data_hits + self.instr_hits
    }

    /// Total misses (both streams).
    pub fn misses(&self) -> u64 {
        self.data_misses + self.instr_misses
    }

    /// Adds another structure's counters into this one.
    pub fn merge(&mut self, other: &TlbStats) {
        self.data_hits += other.data_hits;
        self.data_misses += other.data_misses;
        self.instr_hits += other.instr_hits;
        self.instr_misses += other.instr_misses;
        self.data_shared_hits += other.data_shared_hits;
        self.instr_shared_hits += other.instr_shared_hits;
        self.cow_faults += other.cow_faults;
        self.bitmask_checks += other.bitmask_checks;
        self.fills += other.fills;
        self.evictions += other.evictions;
    }
}

/// Key of a slot that holds no translation. VPNs are virtual addresses
/// shifted right by at least 12 bits, so no resident key reaches it.
const EMPTY: u64 = u64::MAX;

/// The payload of a resident slot. Its VPN and validity live in the
/// parallel key array ([`Tlb::keys`]), which every scan reads first.
#[derive(Debug, Clone, Copy)]
struct Entry {
    ppn: Ppn,
    size: PageSize,
    flags: PageFlags,
    pcid: Pcid,
    ccid: Ccid,
    opc: OpcField,
    loader: Pid,
    last_used: u64,
}

impl Default for Entry {
    fn default() -> Self {
        Entry {
            ppn: Ppn::default(),
            size: PageSize::Size4K,
            flags: PageFlags::empty(),
            pcid: Pcid::default(),
            ccid: Ccid::default(),
            opc: OpcField::shared(),
            loader: Pid::default(),
            last_used: 0,
        }
    }
}

/// One set-associative TLB structure (a single page size; see
/// [`crate::TlbGroup`] for the full per-core complement).
///
/// Entries live in one contiguous arena (`sets * ways` slots, set-major)
/// rather than a `Vec<Vec<_>>`: a lookup touches exactly one cache-line
/// run instead of chasing a per-set heap pointer. Set selection is a
/// mask when the set count is a power of two (all Table I geometries)
/// and falls back to `%` otherwise (e.g. the 192-set larger-baseline
/// L2) — for power-of-two counts the two are identical, so the layout
/// change cannot move any metric.
///
/// A parallel array of 8-byte VPN keys (one per slot, `u64::MAX` when
/// the slot is free) is the only record of residency: scans compare
/// keys and read a slot's entry only on a VPN match, and a structure
/// with nothing resident answers a lookup without scanning at all.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct Tlb {
    config: TlbConfig,
    mode: LookupMode,
    /// VPN of each slot, or [`EMPTY`].
    keys: Box<[u64]>,
    entries: Box<[Entry]>,
    sets: usize,
    ways: usize,
    /// `sets - 1` when `sets` is a power of two, else `0` with
    /// `pow2_sets == false`.
    set_mask: u64,
    pow2_sets: bool,
    /// Count of non-empty keys, maintained incrementally on
    /// fill/invalidate/flush so `resident_entries` never rescans.
    resident: usize,
    clock: u64,
    stats: TlbStats,
    telem: TlbTelemetry,
    /// Per-set miss/eviction counters, allocated only when conflict
    /// profiling was requested ([`Tlb::enable_set_profile`]); `None`
    /// keeps the lookup hot path free of the extra branch cost in the
    /// common case.
    set_profile: Option<Box<bf_telemetry::SetCounts>>,
}

impl Tlb {
    /// Builds a TLB with the given geometry and lookup mode.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `ways`.
    pub fn new(config: TlbConfig, mode: LookupMode) -> Self {
        assert!(
            config.entries > 0 && config.ways > 0 && config.entries.is_multiple_of(config.ways),
            "entries must be a positive multiple of ways"
        );
        let sets = config.sets();
        let pow2_sets = sets.is_power_of_two();
        Tlb {
            keys: vec![EMPTY; config.entries].into_boxed_slice(),
            entries: vec![Entry::default(); config.entries].into_boxed_slice(),
            sets,
            ways: config.ways,
            set_mask: if pow2_sets { sets as u64 - 1 } else { 0 },
            pow2_sets,
            resident: 0,
            config,
            mode,
            clock: 0,
            stats: TlbStats::default(),
            telem: TlbTelemetry::default(),
            set_profile: None,
        }
    }

    /// Switches on per-set conflict profiling: from now on every miss
    /// and eviction is also attributed to its home set. Idempotent.
    pub fn enable_set_profile(&mut self) {
        if self.set_profile.is_none() {
            self.set_profile = Some(Box::new(bf_telemetry::SetCounts {
                misses: vec![0; self.sets],
                evictions: vec![0; self.sets],
            }));
        }
    }

    /// The per-set conflict counters, if profiling is enabled.
    pub fn set_profile(&self) -> Option<&bf_telemetry::SetCounts> {
        self.set_profile.as_deref()
    }

    /// Home set of a VPN: mask for power-of-two set counts, `%` otherwise.
    #[inline(always)]
    fn set_index(&self, vpn: Vpn) -> usize {
        if self.pow2_sets {
            (vpn.raw() & self.set_mask) as usize
        } else {
            (vpn.raw() % self.sets as u64) as usize
        }
    }

    /// Arena range of one set's ways.
    #[inline(always)]
    fn set_range(&self, set_index: usize) -> core::ops::Range<usize> {
        let base = set_index * self.ways;
        base..base + self.ways
    }

    /// Routes this structure's counters into a shared telemetry handle
    /// set (see [`crate::TlbGroup::attach_telemetry`]). Structures of a
    /// role share clones of one set, so registry totals aggregate across
    /// page sizes automatically.
    pub fn set_telemetry(&mut self, telem: TlbTelemetry) {
        self.telem = telem;
    }

    /// The geometry this TLB was built with.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// The lookup mode (conventional vs BabelFish).
    pub fn mode(&self) -> LookupMode {
        self.mode
    }

    /// Counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Zeroes the counters (start of a measurement window); resident
    /// entries are untouched.
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
        if let Some(sp) = self.set_profile.as_deref_mut() {
            sp.misses.fill(0);
            sp.evictions.fill(0);
        }
    }

    /// Number of valid entries currently resident (O(1): maintained
    /// incrementally, pinned against a full scan by a property test).
    pub fn resident_entries(&self) -> usize {
        self.resident
    }

    /// Ground-truth resident count by scanning the arena (test oracle for
    /// the incremental counter).
    #[cfg(test)]
    fn resident_scan(&self) -> usize {
        self.keys.iter().filter(|&&k| k != EMPTY).count()
    }

    /// Performs one lookup, updating LRU state and statistics.
    ///
    /// `kind` selects which statistic stream the access belongs to.
    pub fn lookup(&mut self, req: &LookupRequest) -> LookupResult {
        self.lookup_kind(req, AccessKind::Read)
    }

    /// [`Tlb::lookup`] with an explicit access kind for the statistics
    /// split of Fig. 10 (a plain `lookup` counts as a data read).
    pub fn lookup_kind(&mut self, req: &LookupRequest, kind: AccessKind) -> LookupResult {
        self.clock += 1;
        let clock = self.clock;
        let base = self.set_index(req.vpn) * self.ways;
        let mode = self.mode;
        let mut bitmask_consulted = false;
        let mut outcome: Option<(usize, Hit, bool)> = None;

        // An empty structure (the 2 MB / 1 GB TLBs on every 4 KB-only
        // workload) skips the scan; the miss is counted below as usual.
        let keys: &[u64] = if self.resident == 0 {
            &[]
        } else {
            &self.keys[base..base + self.ways]
        };
        for (way_index, &key) in keys.iter().enumerate() {
            if key != req.vpn.raw() {
                continue;
            }
            let entry = &self.entries[base + way_index];
            match mode {
                LookupMode::Conventional => {
                    // Fig. 1: VPN + PCID must match.
                    if entry.pcid != req.pcid {
                        continue;
                    }
                }
                LookupMode::BabelFish => {
                    // Fig. 8 step 1: VPN + CCID must match.
                    if entry.ccid != req.ccid {
                        continue;
                    }
                    if entry.opc.is_owned() {
                        // Step 2 → 9: private entry, PCID must match.
                        if entry.pcid != req.pcid {
                            continue;
                        }
                    } else {
                        // Step 3: shared entry. The ORPC bit short-circuits
                        // the PC bitmask read (Fig. 5b).
                        if entry.opc.orpc() {
                            bitmask_consulted = true;
                            if let Some(bit) = req.pc_bit {
                                if entry.opc.pc_bit(bit) {
                                    // The process has its own private copy:
                                    // it must not use the shared entry.
                                    continue;
                                }
                            }
                        }
                    }
                }
            }
            let hit = Hit {
                ppn: entry.ppn,
                size: entry.size,
                flags: entry.flags,
                shared: entry.loader != req.pid,
                bitmask_consulted,
            };
            outcome = Some((way_index, hit, entry.opc.is_owned()));
            break;
        }

        if bitmask_consulted {
            self.stats.bitmask_checks += 1;
            self.telem.bitmask_checks.incr();
        }

        match outcome {
            Some((way_index, hit, owned_entry)) => {
                self.entries[base + way_index].last_used = clock;
                if owned_entry && mode == LookupMode::BabelFish {
                    self.telem.private_copy_hits.incr();
                }
                // Fig. 8 step 5: a write to a CoW page raises a fault even
                // though the translation is present.
                if req.is_write && hit.flags.contains(PageFlags::COW) {
                    self.stats.cow_faults += 1;
                    self.telem.cow_faults.incr();
                    self.count_hit(kind, hit.shared);
                    LookupResult::CowFault(hit)
                } else {
                    self.count_hit(kind, hit.shared);
                    LookupResult::Hit(hit)
                }
            }
            None => {
                self.count_miss(kind);
                if let Some(sp) = self.set_profile.as_deref_mut() {
                    sp.misses[base / self.ways] += 1;
                }
                LookupResult::Miss { bitmask_consulted }
            }
        }
    }

    /// Installs a translation (LRU replacement within the set). If an
    /// entry with the same tag identity already exists, it is updated in
    /// place — the TLB never holds duplicates of one translation.
    pub fn fill(&mut self, fill: TlbFill) {
        self.clock += 1;
        let clock = self.clock;
        let set_index = self.set_index(fill.vpn);
        let range = self.set_range(set_index);
        let mode = self.mode;
        let vpn = fill.vpn.raw();
        debug_assert_ne!(vpn, EMPTY, "VPN collides with the empty-slot key");
        let keys = &mut self.keys[range.clone()];
        let set = &mut self.entries[range];

        // A private copy arriving while the group's shared entry is
        // resident marks a shared → private ownership transition for
        // this VPN (the CoW protocol of Section III-A).
        let ownership_transition = mode == LookupMode::BabelFish
            && fill.owned
            && (0..keys.len())
                .any(|i| keys[i] == vpn && set[i].ccid == fill.ccid && !set[i].opc.is_owned());

        let same_identity = |e: &Entry| match mode {
            LookupMode::Conventional => e.pcid == fill.pcid,
            LookupMode::BabelFish => {
                e.ccid == fill.ccid
                    && e.opc.is_owned() == fill.owned
                    && (!fill.owned || e.pcid == fill.pcid)
            }
        };

        // One pass over the keys: a slot already holding this
        // translation wins, else the first empty slot, else the LRU way.
        let mut target = None;
        let mut empty = None;
        for (i, &key) in keys.iter().enumerate() {
            if key == vpn && same_identity(&set[i]) {
                target = Some(i);
                break;
            }
            if key == EMPTY && empty.is_none() {
                empty = Some(i);
            }
        }
        let slot = if let Some(i) = target.or(empty) {
            i
        } else {
            let i = set
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("set has at least one way");
            self.stats.evictions += 1;
            self.telem.evictions.incr();
            if let Some(sp) = self.set_profile.as_deref_mut() {
                sp.evictions[set_index] += 1;
            }
            i
        };

        // Fig. 5b: when ORPC is clear the hardware clears the bitmask
        // storage instead of loading it.
        let opc = if fill.owned {
            OpcField::owned()
        } else if fill.orpc {
            OpcField::shared_with_mask(fill.pc_bitmask)
        } else {
            OpcField::shared()
        };

        if keys[slot] == EMPTY {
            self.resident += 1;
        }
        keys[slot] = vpn;
        set[slot] = Entry {
            ppn: fill.ppn,
            size: fill.size,
            flags: fill.flags,
            pcid: fill.pcid,
            ccid: fill.ccid,
            opc,
            loader: fill.loader,
            last_used: clock,
        };
        self.stats.fills += 1;
        self.telem.fills.incr();
        if ownership_transition {
            self.telem.ownership_transitions.incr();
        }
    }

    /// Invalidates the *shared* (O = 0) entry for a VPN in a CCID group —
    /// the single-entry invalidation of the BabelFish CoW protocol
    /// ("the OS invalidates from the local and remote TLBs the TLB entry
    /// for this VPN that has the O bit equal to zero", Section III-A).
    pub fn invalidate_shared(&mut self, vpn: Vpn, ccid: Ccid) {
        self.invalidate_in_home_set(vpn, |e| e.ccid == ccid && !e.opc.is_owned());
    }

    /// Invalidates one process's entry for a VPN (conventional CoW /
    /// unmap path).
    pub fn invalidate_page(&mut self, vpn: Vpn, pcid: Pcid) {
        self.invalidate_in_home_set(vpn, |e| e.pcid == pcid);
    }

    /// Empties every slot of `vpn`'s home set that holds `vpn` and whose
    /// entry satisfies `doomed`.
    fn invalidate_in_home_set(&mut self, vpn: Vpn, doomed: impl Fn(&Entry) -> bool) {
        let range = self.set_range(self.set_index(vpn));
        let mut dropped = 0;
        for (key, entry) in self.keys[range.clone()]
            .iter_mut()
            .zip(&self.entries[range])
        {
            if *key == vpn.raw() && doomed(entry) {
                *key = EMPTY;
                dropped += 1;
            }
        }
        self.resident -= dropped;
    }

    /// Invalidates every entry belonging to a process (process exit).
    /// Shared BabelFish entries survive — they belong to the group, not
    /// the process.
    pub fn invalidate_process(&mut self, pcid: Pcid) {
        let mode = self.mode;
        let mut dropped = 0;
        for (key, entry) in self.keys.iter_mut().zip(self.entries.iter()) {
            if *key != EMPTY && entry.pcid == pcid {
                let is_shared_group_entry = mode == LookupMode::BabelFish && !entry.opc.is_owned();
                if !is_shared_group_entry {
                    *key = EMPTY;
                    dropped += 1;
                }
            }
        }
        self.resident -= dropped;
    }

    /// Invalidates everything.
    pub fn flush(&mut self) {
        self.keys.fill(EMPTY);
        self.resident = 0;
    }

    /// Fault injection: flips one low PPN bit of a resident entry chosen
    /// deterministically from `selector` (bits 0..32 pick the victim
    /// among resident entries, bits 32.. pick which of the 8 low PPN
    /// bits flips). Returns the oracle record, or `None` when nothing is
    /// resident.
    ///
    /// The PPN plays no part in set indexing, tag matching, or the
    /// resident count, so the flip perturbs only the *translation* — the
    /// soft-error model whose detection the consistency re-walk
    /// ([`Tlb::scrub_flip`]) must prove. LRU state and statistics are
    /// untouched.
    pub fn inject_ppn_flip(&mut self, selector: u64) -> Option<InjectedFlip> {
        if self.resident == 0 {
            return None;
        }
        let nth = ((selector & 0xffff_ffff) % self.resident as u64) as usize;
        let bit = (selector >> 32) % 8;
        let (slot, &vpn) = self
            .keys
            .iter()
            .enumerate()
            .filter(|(_, &k)| k != EMPTY)
            .nth(nth)?;
        let entry = &mut self.entries[slot];
        let original = entry.ppn;
        let corrupt = Ppn::new(original.raw() ^ (1 << bit));
        entry.ppn = corrupt;
        Some(InjectedFlip {
            slot,
            vpn: Vpn::new(vpn),
            ppn_original: original,
            ppn_corrupt: corrupt,
        })
    }

    /// Fault recovery: the consistency re-walk for one oracle record.
    /// When the corrupted entry is still resident, it is invalidated —
    /// the normal refill path restores a clean translation on the next
    /// miss — and `true` is returned. `false` means the corruption
    /// already left the structure (evicted, or overwritten by a
    /// same-identity refill); either way no corrupt translation for this
    /// record remains afterwards.
    pub fn scrub_flip(&mut self, flip: &InjectedFlip) -> bool {
        let key = &mut self.keys[flip.slot];
        if *key == flip.vpn.raw() && self.entries[flip.slot].ppn == flip.ppn_corrupt {
            *key = EMPTY;
            self.resident -= 1;
            true
        } else {
            false
        }
    }

    fn count_hit(&mut self, kind: AccessKind, shared: bool) {
        self.telem.hits.incr();
        if shared {
            self.telem.shared_hits.incr();
        }
        if kind.is_fetch() {
            self.stats.instr_hits += 1;
            if shared {
                self.stats.instr_shared_hits += 1;
            }
        } else {
            self.stats.data_hits += 1;
            if shared {
                self.stats.data_shared_hits += 1;
            }
        }
    }

    fn count_miss(&mut self, kind: AccessKind) {
        self.telem.misses.incr();
        if kind.is_fetch() {
            self.stats.instr_misses += 1;
        } else {
            self.stats.data_misses += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(vpn: u64, pcid: u16, ccid: u16, loader: u32) -> TlbFill {
        TlbFill {
            vpn: Vpn::new(vpn),
            ppn: Ppn::new(vpn + 0x1000),
            size: PageSize::Size4K,
            flags: PageFlags::PRESENT | PageFlags::USER,
            pcid: Pcid::new(pcid),
            ccid: Ccid::new(ccid),
            owned: false,
            orpc: false,
            pc_bitmask: 0,
            loader: Pid::new(loader),
        }
    }

    fn req(vpn: u64, pcid: u16, ccid: u16, pid: u32) -> LookupRequest {
        LookupRequest {
            vpn: Vpn::new(vpn),
            pcid: Pcid::new(pcid),
            ccid: Ccid::new(ccid),
            pid: Pid::new(pid),
            pc_bit: None,
            is_write: false,
        }
    }

    fn bf_tlb() -> Tlb {
        Tlb::new(TlbConfig::l2_4k(), LookupMode::BabelFish)
    }

    /// Writes a resident entry for `vpn` straight into `slot`, key and
    /// payload together, bypassing `fill`'s home-set placement.
    fn plant(tlb: &mut Tlb, slot: usize, vpn: Vpn, entry: Entry) {
        if tlb.keys[slot] == EMPTY {
            tlb.resident += 1;
        }
        tlb.keys[slot] = vpn.raw();
        tlb.entries[slot] = entry;
    }

    /// Checks the key array against the arena: the resident count is
    /// the number of keys, every key sits in its VPN's home set, and no
    /// set holds two entries of one translation identity.
    fn check_keys(tlb: &Tlb) -> Result<(), String> {
        if tlb.resident != tlb.resident_scan() {
            return Err(format!(
                "resident {} != {} keys",
                tlb.resident,
                tlb.resident_scan()
            ));
        }
        for (slot, &key) in tlb.keys.iter().enumerate() {
            if key == EMPTY {
                continue;
            }
            let set = slot / tlb.ways;
            if tlb.set_index(Vpn::new(key)) != set {
                return Err(format!("slot {slot} holds vpn {key} outside its home set"));
            }
            let identity = |i: usize| {
                let e = &tlb.entries[i];
                (tlb.keys[i], e.ccid, e.opc.is_owned(), e.pcid)
            };
            let duplicates = tlb
                .set_range(set)
                .filter(|&i| i != slot && tlb.keys[i] != EMPTY && identity(i) == identity(slot))
                .count();
            if duplicates != 0 {
                return Err(format!("slot {slot} duplicated within set {set}"));
            }
        }
        Ok(())
    }

    fn conv_tlb() -> Tlb {
        Tlb::new(TlbConfig::l2_4k(), LookupMode::Conventional)
    }

    #[test]
    fn conventional_requires_pcid_match() {
        let mut tlb = conv_tlb();
        tlb.fill(fill(10, 1, 5, 100));
        assert!(tlb.lookup(&req(10, 1, 5, 100)).hit().is_some());
        // Same CCID, different PCID: miss in a conventional TLB.
        assert!(!tlb.lookup(&req(10, 2, 5, 200)).entry_present());
    }

    #[test]
    fn babelfish_shares_across_pcids_in_group() {
        let mut tlb = bf_tlb();
        tlb.fill(fill(10, 1, 5, 100));
        let result = tlb.lookup(&req(10, 2, 5, 200));
        let hit = result.hit().expect("same-CCID process should hit");
        assert!(hit.shared);
        // Different CCID: never shares.
        assert!(!tlb.lookup(&req(10, 2, 6, 300)).entry_present());
    }

    #[test]
    fn owned_entry_requires_pcid() {
        let mut tlb = bf_tlb();
        let mut owned = fill(10, 1, 5, 100);
        owned.owned = true;
        tlb.fill(owned);
        assert!(tlb.lookup(&req(10, 1, 5, 100)).hit().is_some());
        assert!(!tlb.lookup(&req(10, 2, 5, 200)).entry_present());
    }

    #[test]
    fn private_copy_bit_blocks_shared_entry() {
        let mut tlb = bf_tlb();
        let mut shared = fill(10, 1, 5, 100);
        shared.orpc = true;
        shared.pc_bitmask = 0b100; // process with bit 2 has a private copy
        tlb.fill(shared);

        // Process without a PC bit: hits.
        assert!(tlb.lookup(&req(10, 2, 5, 200)).hit().is_some());
        // Process whose bit is set: must miss the shared entry (Fig. 8).
        let mut r = req(10, 3, 5, 300);
        r.pc_bit = Some(2);
        let result = tlb.lookup_kind(&r, AccessKind::Read);
        assert!(!result.entry_present());
        match result {
            LookupResult::Miss { bitmask_consulted } => assert!(bitmask_consulted),
            _ => unreachable!(),
        }
        // Process with a *different* bit: hits.
        let mut r = req(10, 4, 5, 400);
        r.pc_bit = Some(3);
        assert!(tlb.lookup(&r).hit().is_some());
    }

    #[test]
    fn owner_hits_its_own_copy_even_with_pc_bit_set() {
        // A process with a private copy has its own O=1 entry resident
        // alongside the group's shared entry; it must hit the owned one.
        let mut tlb = bf_tlb();
        let mut shared = fill(10, 1, 5, 100);
        shared.orpc = true;
        shared.pc_bitmask = 0b1;
        tlb.fill(shared);
        let mut owned = fill(10, 7, 5, 700);
        owned.owned = true;
        owned.ppn = Ppn::new(0x9999);
        tlb.fill(owned);

        let mut r = req(10, 7, 5, 700);
        r.pc_bit = Some(0);
        let hit = *tlb.lookup(&r).hit().expect("owned entry should hit");
        assert_eq!(hit.ppn, Ppn::new(0x9999));
    }

    #[test]
    fn orpc_clear_skips_bitmask() {
        let mut tlb = bf_tlb();
        tlb.fill(fill(10, 1, 5, 100)); // orpc = false
        let mut r = req(10, 2, 5, 200);
        r.pc_bit = Some(0);
        let result = tlb.lookup(&r);
        let hit = result.hit().unwrap();
        assert!(
            !hit.bitmask_consulted,
            "ORPC=0 must short-circuit (Fig. 5b)"
        );
        assert_eq!(tlb.stats().bitmask_checks, 0);
    }

    #[test]
    fn cow_write_raises_fault() {
        let mut tlb = bf_tlb();
        let mut cow = fill(10, 1, 5, 100);
        cow.flags = PageFlags::PRESENT | PageFlags::USER | PageFlags::COW;
        tlb.fill(cow);
        let mut r = req(10, 1, 5, 100);
        r.is_write = true;
        match tlb.lookup(&r) {
            LookupResult::CowFault(_) => {}
            other => panic!("expected CoW fault, got {other:?}"),
        }
        assert_eq!(tlb.stats().cow_faults, 1);
        // Reads of the same entry do not fault.
        r.is_write = false;
        assert!(tlb.lookup(&r).hit().is_some());
    }

    #[test]
    fn shared_hit_statistics_follow_loader() {
        let mut tlb = bf_tlb();
        tlb.fill(fill(10, 1, 5, 100));
        tlb.lookup(&req(10, 1, 5, 100)); // own entry: not shared
        tlb.lookup(&req(10, 2, 5, 200)); // other process: shared
        let stats = tlb.stats();
        assert_eq!(stats.data_hits, 2);
        assert_eq!(stats.data_shared_hits, 1);
    }

    #[test]
    fn instruction_stream_counts_separately() {
        let mut tlb = bf_tlb();
        tlb.fill(fill(10, 1, 5, 100));
        tlb.lookup_kind(&req(10, 1, 5, 100), AccessKind::Fetch);
        tlb.lookup_kind(&req(99, 1, 5, 100), AccessKind::Fetch);
        let stats = tlb.stats();
        assert_eq!(stats.instr_hits, 1);
        assert_eq!(stats.instr_misses, 1);
        assert_eq!(stats.data_hits, 0);
    }

    #[test]
    fn duplicate_fills_update_in_place() {
        let mut tlb = bf_tlb();
        tlb.fill(fill(10, 1, 5, 100));
        let mut updated = fill(10, 2, 5, 200);
        updated.ppn = Ppn::new(0x4242);
        tlb.fill(updated);
        assert_eq!(tlb.resident_entries(), 1, "shared entry deduplicated");
        let hit = *tlb.lookup(&req(10, 3, 5, 300)).hit().unwrap();
        assert_eq!(hit.ppn, Ppn::new(0x4242));
    }

    #[test]
    fn conventional_keeps_one_entry_per_pcid() {
        let mut tlb = conv_tlb();
        tlb.fill(fill(10, 1, 5, 100));
        tlb.fill(fill(10, 2, 5, 200));
        assert_eq!(
            tlb.resident_entries(),
            2,
            "replicated translations occupy two conventional entries (Section II-C)"
        );
    }

    #[test]
    fn lru_eviction_within_set() {
        // 2-entry, 2-way single-set TLB.
        let config = TlbConfig {
            entries: 2,
            ways: 2,
            access_cycles_short: 1,
            access_cycles_long: 1,
        };
        let mut tlb = Tlb::new(config, LookupMode::Conventional);
        tlb.fill(fill(1, 1, 0, 1));
        tlb.fill(fill(2, 1, 0, 1));
        tlb.lookup(&req(1, 1, 0, 1)); // make vpn 1 MRU
        tlb.fill(fill(3, 1, 0, 1)); // evicts vpn 2
        assert!(tlb.lookup(&req(1, 1, 0, 1)).entry_present());
        assert!(!tlb.lookup(&req(2, 1, 0, 1)).entry_present());
        assert_eq!(tlb.stats().evictions, 1);
    }

    #[test]
    fn invalidate_shared_leaves_owned_entries() {
        let mut tlb = bf_tlb();
        tlb.fill(fill(10, 1, 5, 100)); // shared
        let mut owned = fill(10, 2, 5, 200);
        owned.owned = true;
        tlb.fill(owned);
        tlb.invalidate_shared(Vpn::new(10), Ccid::new(5));
        // Shared entry gone, owned survives (the CoW protocol invalidates
        // only the O=0 entry, Section III-A).
        assert!(!tlb.lookup(&req(10, 3, 5, 300)).entry_present());
        assert!(tlb.lookup(&req(10, 2, 5, 200)).entry_present());
    }

    #[test]
    fn invalidate_process_spares_group_entries() {
        let mut tlb = bf_tlb();
        tlb.fill(fill(10, 1, 5, 100)); // shared, loaded by pcid 1
        let mut owned = fill(11, 1, 5, 100);
        owned.owned = true;
        tlb.fill(owned);
        tlb.invalidate_process(Pcid::new(1));
        // The shared entry still serves the rest of the group.
        assert!(tlb.lookup(&req(10, 2, 5, 200)).entry_present());
        assert!(!tlb.lookup(&req(11, 1, 5, 100)).entry_present());
    }

    #[test]
    fn flush_clears_all() {
        let mut tlb = bf_tlb();
        tlb.fill(fill(10, 1, 5, 100));
        tlb.flush();
        assert_eq!(tlb.resident_entries(), 0);
    }

    #[test]
    fn larger_baseline_has_more_entries() {
        let big = TlbConfig::l2_4k_larger_baseline();
        assert!(big.entries > TlbConfig::l2_4k().entries);
        assert_eq!(big.access_cycles_long, big.access_cycles_short);
    }

    #[test]
    fn single_vpn_invalidation_probes_only_the_home_set() {
        // Regression: `invalidate_shared` / `invalidate_page` must probe
        // only the VPN's home set. Plant a stale entry carrying the same
        // VPN tag in a *different* set (unreachable via the public API,
        // which always fills the home set) and check the single-VPN
        // invalidations leave it untouched.
        let mut tlb = bf_tlb();
        let vpn = Vpn::new(10);
        let home = tlb.set_index(vpn);
        let foreign = (home + 1) % tlb.sets;
        let foreign_slot = foreign * tlb.ways;
        plant(
            &mut tlb,
            foreign_slot,
            vpn,
            Entry {
                ppn: Ppn::new(0xdead),
                size: PageSize::Size4K,
                flags: PageFlags::PRESENT,
                pcid: Pcid::new(1),
                ccid: Ccid::new(5),
                opc: OpcField::shared(),
                loader: Pid::new(100),
                last_used: 0,
            },
        );

        tlb.invalidate_shared(vpn, Ccid::new(5));
        assert_eq!(
            tlb.keys[foreign_slot],
            vpn.raw(),
            "invalidate_shared scanned beyond the home set"
        );
        tlb.invalidate_page(vpn, Pcid::new(1));
        assert_eq!(
            tlb.keys[foreign_slot],
            vpn.raw(),
            "invalidate_page scanned beyond the home set"
        );
        assert_eq!(tlb.resident_entries(), 1);
        // Full-structure invalidation still reaches it.
        tlb.flush();
        assert_eq!(tlb.keys[foreign_slot], EMPTY);
        assert_eq!(tlb.resident_entries(), 0);
    }

    #[test]
    fn empty_structure_counts_a_miss_like_a_scan() {
        // One structure is empty (the early-out path); the other holds
        // an entry in a different set, so its lookup scans and misses.
        // Both must record the miss identically.
        let registry_of = |tlb: &mut Tlb| {
            let registry = bf_telemetry::Registry::new();
            tlb.set_telemetry(TlbTelemetry::for_role(&registry, "l2"));
            tlb.enable_set_profile();
            registry
        };
        let mut empty = bf_tlb();
        let mut scanning = bf_tlb();
        let empty_registry = registry_of(&mut empty);
        let scanning_registry = registry_of(&mut scanning);
        scanning.fill(fill(11, 1, 5, 100));
        scanning.reset_stats();

        let mut r = req(10, 1, 5, 100);
        r.pc_bit = Some(0);
        for kind in [AccessKind::Read, AccessKind::Write, AccessKind::Fetch] {
            r.is_write = kind.is_write();
            assert_eq!(
                empty.lookup_kind(&r, kind),
                LookupResult::Miss {
                    bitmask_consulted: false
                }
            );
            assert_eq!(
                scanning.lookup_kind(&r, kind),
                LookupResult::Miss {
                    bitmask_consulted: false
                }
            );
        }
        assert_eq!(empty.stats(), scanning.stats());
        assert_eq!(empty.stats().misses(), 3);
        assert_eq!(empty.set_profile(), scanning.set_profile());
        let home = empty.set_index(Vpn::new(10));
        assert_eq!(empty.set_profile().unwrap().misses[home], 3);
        // The scanning structure's one fill is the only other difference.
        let lookup_counters = |registry: &bf_telemetry::Registry| {
            let mut counters = registry.snapshot().counters;
            counters.remove("tlb.l2.fills");
            counters
        };
        assert_eq!(
            lookup_counters(&empty_registry),
            lookup_counters(&scanning_registry)
        );
    }

    #[test]
    fn cross_set_entry_survives_home_set_invalidation() {
        // Two VPNs in different sets, same CCID: invalidating one must
        // not disturb the other (public-API flavour of the regression).
        let mut tlb = bf_tlb();
        let sets = tlb.sets as u64;
        tlb.fill(fill(10, 1, 5, 100));
        tlb.fill(fill(10 + sets / 2, 1, 5, 100)); // lands in another set
        tlb.invalidate_shared(Vpn::new(10), Ccid::new(5));
        assert!(!tlb.lookup(&req(10, 2, 5, 200)).entry_present());
        assert!(tlb.lookup(&req(10 + sets / 2, 2, 5, 200)).entry_present());
    }

    #[test]
    fn mask_and_modulo_set_index_agree_for_pow2() {
        let tlb = bf_tlb();
        assert!(tlb.pow2_sets);
        for vpn in [0u64, 1, 127, 128, 129, 0xffff_ffff, u64::MAX] {
            assert_eq!(
                tlb.set_index(Vpn::new(vpn)),
                (vpn % tlb.sets as u64) as usize
            );
        }
        // The Section VII-C larger baseline has 192 sets: not a power of
        // two, so it takes the `%` path.
        let big = Tlb::new(TlbConfig::l2_4k_larger_baseline(), LookupMode::Conventional);
        assert!(!big.pow2_sets);
        assert_eq!(big.set_index(Vpn::new(193)), 1);
    }

    proptest::proptest! {
        /// The incremental resident counter matches a full arena scan
        /// after any interleaving of fills and invalidations.
        #[test]
        fn resident_counter_matches_full_scan(
            ops in proptest::collection::vec(
                (0u8..5, 0u64..24, 1u16..4, 0u16..2),
                1..120,
            )
        ) {
            // Small TLB so fills collide, evict, and dedup often.
            let config = TlbConfig {
                entries: 16,
                ways: 2,
                access_cycles_short: 1,
                access_cycles_long: 1,
            };
            let mut tlb = Tlb::new(config, LookupMode::BabelFish);
            for (op, vpn, pcid, owned) in ops {
                match op {
                    0 | 1 => {
                        let mut f = fill(vpn, pcid, 5, pcid as u32);
                        f.owned = owned == 1;
                        tlb.fill(f);
                    }
                    2 => tlb.invalidate_shared(Vpn::new(vpn), Ccid::new(5)),
                    3 => tlb.invalidate_page(Vpn::new(vpn), Pcid::new(pcid)),
                    _ => tlb.invalidate_process(Pcid::new(pcid)),
                }
                proptest::prop_assert_eq!(tlb.resident_entries(), tlb.resident_scan());
                proptest::prop_assert_eq!(check_keys(&tlb), Ok(()));
            }
            tlb.flush();
            proptest::prop_assert_eq!(tlb.resident_entries(), 0);
            proptest::prop_assert_eq!(tlb.resident_scan(), 0);
        }
    }

    #[test]
    fn inject_and_scrub_round_trip() {
        let mut tlb = bf_tlb();
        tlb.fill(fill(10, 1, 5, 100));
        tlb.fill(fill(11, 1, 5, 100));
        let resident = tlb.resident_entries();

        let flip = tlb.inject_ppn_flip(0).expect("entries are resident");
        assert_ne!(flip.ppn_original, flip.ppn_corrupt);
        assert_eq!(
            (flip.ppn_original.raw() ^ flip.ppn_corrupt.raw()).count_ones(),
            1,
            "exactly one bit flips"
        );
        assert_eq!(
            tlb.resident_entries(),
            resident,
            "injection must not disturb residency"
        );
        // The corrupted entry now translates to the wrong frame.
        let hit = *tlb
            .lookup(&req(flip.vpn.raw(), 1, 5, 100))
            .hit()
            .expect("corrupted entry still hits");
        assert_eq!(hit.ppn, flip.ppn_corrupt);

        assert!(tlb.scrub_flip(&flip), "corruption is still resident");
        assert_eq!(tlb.resident_entries(), resident - 1);
        assert!(
            !tlb.lookup(&req(flip.vpn.raw(), 1, 5, 100)).entry_present(),
            "scrub invalidates so the refill path restores a clean entry"
        );
        assert!(!tlb.scrub_flip(&flip), "second scrub finds nothing");
    }

    #[test]
    fn scrub_ignores_refilled_slot() {
        let mut tlb = bf_tlb();
        tlb.fill(fill(10, 1, 5, 100));
        let flip = tlb.inject_ppn_flip(0).unwrap();
        // A same-identity refill overwrites the corruption.
        tlb.fill(fill(10, 1, 5, 100));
        assert!(!tlb.scrub_flip(&flip), "refill already repaired the slot");
        let hit = *tlb.lookup(&req(10, 1, 5, 100)).hit().unwrap();
        assert_eq!(hit.ppn, flip.ppn_original);
    }

    #[test]
    fn inject_on_empty_tlb_is_none() {
        let mut tlb = bf_tlb();
        assert!(tlb.inject_ppn_flip(7).is_none());
    }

    #[test]
    fn injection_selector_is_deterministic() {
        let build = || {
            let mut tlb = bf_tlb();
            for vpn in 0..32 {
                tlb.fill(fill(vpn, 1, 5, 100));
            }
            tlb
        };
        let mut a = build();
        let mut b = build();
        for selector in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(a.inject_ppn_flip(selector), b.inject_ppn_flip(selector));
        }
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = TlbStats {
            data_hits: 1,
            instr_misses: 2,
            ..Default::default()
        };
        let b = TlbStats {
            data_hits: 3,
            cow_faults: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.data_hits, 4);
        assert_eq!(a.instr_misses, 2);
        assert_eq!(a.cow_faults, 1);
        assert_eq!(a.hits(), 4);
        assert_eq!(a.misses(), 2);
    }
}
