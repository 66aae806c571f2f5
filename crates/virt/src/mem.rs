//! Hypervisor memory management: per-VM address spaces, page
//! deduplication, and copy-on-write.
//!
//! Deduplicated pages are read-only pages with identical contents across
//! VMs (binaries, shared libraries, zero pages); the hypervisor backs all
//! of them with one physical page. A write triggers copy-on-write: the
//! writing VM gets a fresh private copy and its mapping is updated. The
//! coherence protocols never see virtual addresses — only the physical
//! block addresses produced here.

use cmpsim_engine::{Snap, SnapError, SnapReader, SnapWriter};

/// Bytes per cache block.
pub const BLOCK_BYTES: u64 = 64;
/// Bytes per page (paper Table III).
pub const PAGE_BYTES: u64 = 4096;
/// Cache blocks per page.
pub const BLOCKS_PER_PAGE: u64 = PAGE_BYTES / BLOCK_BYTES;

/// Classes of logical pages a workload can touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// Private to one core (stack/heap slices).
    CorePrivate,
    /// Shared read-write among the cores of one VM.
    VmShared,
    /// Deduplicated content shared (read-only) across VMs.
    Dedup,
}

/// How a physical page is backed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageKind {
    /// Normal page owned by one VM.
    Private,
    /// Deduplicated page, possibly mapped by several VMs, read-only.
    Deduplicated,
}

/// Key identifying a logical page inside a VM's address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LogicalPage {
    /// Owning VM.
    pub vm: usize,
    /// Page region class.
    pub region: Region,
    /// Index within the region's pool.
    pub index: u64,
}

/// Page-table slot value of a logical page that has not been touched.
const UNMAPPED: u64 = u64::MAX;

/// Largest page index (exclusive) a region pool may use. Page tables
/// are dense vectors indexed by page index, so this bounds one table at
/// 8 MiB — far above any workload pool (the largest, jbb's per-VM
/// private pool, is 32k pages) — and lets snapshot decoding refuse
/// indices that would make it allocate without bound.
const MAX_PAGE_INDEX: u64 = 1 << 20;

/// Number of [`Region`] variants (one page table per VM per region).
const REGIONS: usize = 3;

const ALL_REGIONS: [Region; REGIONS] = [Region::CorePrivate, Region::VmShared, Region::Dedup];

/// Machine-wide physical memory and per-VM page tables.
///
/// Every structure is a dense vector, so a translation is two indexed
/// loads: page tables are indexed by page index, the dedup map by
/// content class, and page kinds by physical page number. The vectors
/// grow to the highest index touched, never to a pool's full size.
#[derive(Debug, Clone)]
pub struct MachineMemory {
    /// Per-VM page tables, one per [`Region`] (in declaration order):
    /// slot `index` holds the physical page number, or [`UNMAPPED`].
    tables: Vec<[Vec<u64>; REGIONS]>,
    /// Content class -> shared physical page (or [`UNMAPPED`]), for
    /// dedup pages. The content class of dedup page `i` is simply `i`:
    /// VMs touching the same index share the backing page (identical
    /// contents by construction).
    dedup_index: Vec<u64>,
    /// Kind of each allocated physical page, indexed by page number;
    /// its length is the next page number to allocate.
    kinds: Vec<PageKind>,
    /// Logical pages mapped (incl. duplicates collapsed by dedup).
    logical_pages: u64,
    /// Copy-on-write faults taken.
    pub cow_faults: u64,
}

/// Reads slot `index` of a dense table, treating slots past its end as
/// unmapped.
#[inline]
fn slot(table: &[u64], index: u64) -> Option<u64> {
    let ppn = *table.get(usize::try_from(index).ok()?)?;
    (ppn != UNMAPPED).then_some(ppn)
}

/// Writes slot `index` of a dense table, growing it with unmapped slots.
fn set_slot(table: &mut Vec<u64>, index: u64, ppn: u64) {
    assert!(
        index < MAX_PAGE_INDEX,
        "page index {index} exceeds the dense page-table limit ({MAX_PAGE_INDEX})"
    );
    let i = index as usize;
    if i >= table.len() {
        table.resize(i + 1, UNMAPPED);
    }
    table[i] = ppn;
}

/// The mapped `(index, ppn)` slots of a dense table, ascending.
fn mapped(table: &[u64]) -> impl Iterator<Item = (u64, u64)> + '_ {
    table.iter().enumerate().filter(|&(_, &ppn)| ppn != UNMAPPED).map(|(i, &ppn)| (i as u64, ppn))
}

impl MachineMemory {
    /// Creates the memory system for `num_vms` virtual machines.
    pub fn new(num_vms: usize) -> Self {
        Self {
            tables: vec![Default::default(); num_vms],
            dedup_index: Vec::new(),
            kinds: Vec::new(),
            logical_pages: 0,
            cow_faults: 0,
        }
    }

    fn fresh_page(&mut self, kind: PageKind) -> u64 {
        let ppn = self.kinds.len() as u64;
        self.kinds.push(kind);
        ppn
    }

    /// Translates a logical page to its physical page, allocating on first
    /// touch (demand paging). Dedup pages of the same index share one
    /// backing page across all VMs.
    #[inline]
    pub fn translate_page(&mut self, lp: LogicalPage) -> u64 {
        match slot(&self.tables[lp.vm][lp.region as usize], lp.index) {
            Some(ppn) => ppn,
            None => self.map_page(lp),
        }
    }

    /// First touch of `lp`: backs it with a physical page and records
    /// the translation.
    #[cold]
    fn map_page(&mut self, lp: LogicalPage) -> u64 {
        self.logical_pages += 1;
        let ppn = match lp.region {
            Region::Dedup => match slot(&self.dedup_index, lp.index) {
                Some(shared) => shared,
                None => {
                    let p = self.fresh_page(PageKind::Deduplicated);
                    set_slot(&mut self.dedup_index, lp.index, p);
                    p
                }
            },
            Region::CorePrivate | Region::VmShared => self.fresh_page(PageKind::Private),
        };
        set_slot(&mut self.tables[lp.vm][lp.region as usize], lp.index, ppn);
        ppn
    }

    /// Translates a (logical page, block offset) access to a physical
    /// block address. A write to a deduplicated page triggers
    /// copy-on-write: the VM is given a fresh private page and the new
    /// block address is returned.
    #[inline]
    pub fn translate(&mut self, lp: LogicalPage, block_in_page: u64, is_write: bool) -> u64 {
        debug_assert!(block_in_page < BLOCKS_PER_PAGE);
        let mut ppn = self.translate_page(lp);
        if is_write && self.kinds[ppn as usize] == PageKind::Deduplicated {
            // Copy-on-write: remap this VM's logical page to a private copy.
            let fresh = self.fresh_page(PageKind::Private);
            set_slot(&mut self.tables[lp.vm][lp.region as usize], lp.index, fresh);
            self.cow_faults += 1;
            ppn = fresh;
        }
        ppn * BLOCKS_PER_PAGE + block_in_page
    }

    /// Kind of the page backing physical block `block`.
    #[inline]
    pub fn kind_of_block(&self, block: u64) -> Option<PageKind> {
        let ppn = usize::try_from(block / BLOCKS_PER_PAGE).ok()?;
        self.kinds.get(ppn).copied()
    }

    /// Every established translation, in logical order: `(vm, region,
    /// page index, physical page)` ascending by `(vm, region, index)`.
    /// Physical page numbers are first-touch-order dependent, so
    /// consumers that need a timing-invariant identity (e.g. the fault
    /// harness's architectural digest) key on the logical triple and
    /// use the physical page only to locate blocks.
    pub fn mappings(&self) -> impl Iterator<Item = (usize, Region, u64, u64)> + '_ {
        self.tables.iter().enumerate().flat_map(|(vm, regions)| {
            ALL_REGIONS.iter().zip(regions).flat_map(move |(&region, table)| {
                mapped(table).map(move |(index, ppn)| (vm, region, index, ppn))
            })
        })
    }

    /// Physical pages actually allocated.
    pub fn physical_pages(&self) -> u64 {
        self.kinds.len() as u64
    }

    /// Logical pages mapped across all VMs.
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// Fraction of memory saved by deduplication
    /// (`1 - physical/logical`), the paper's Table IV metric.
    pub fn dedup_savings(&self) -> f64 {
        if self.logical_pages == 0 {
            0.0
        } else {
            1.0 - self.physical_pages() as f64 / self.logical_pages as f64
        }
    }
}

impl Snap for Region {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(match self {
            Region::CorePrivate => 0,
            Region::VmShared => 1,
            Region::Dedup => 2,
        });
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(Region::CorePrivate),
            1 => Ok(Region::VmShared),
            2 => Ok(Region::Dedup),
            tag => Err(SnapError::BadTag { what: "Region", tag }),
        }
    }
}

impl Snap for PageKind {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(match self {
            PageKind::Private => 0,
            PageKind::Deduplicated => 1,
        });
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(PageKind::Private),
            1 => Ok(PageKind::Deduplicated),
            tag => Err(SnapError::BadTag { what: "PageKind", tag }),
        }
    }
}

/// Reads the sparse image of dense tables — `(table, index) -> ppn`
/// entries, as the snapshot format stores them — into `tables`. Keys
/// must strictly ascend and indices stay below [`MAX_PAGE_INDEX`];
/// every physical page must be below `next_ppn`.
fn load_table(
    r: &mut SnapReader<'_>,
    next_ppn: u64,
    mut read_key: impl FnMut(&mut SnapReader<'_>) -> Result<(usize, u64), SnapError>,
    tables: &mut [Vec<u64>],
    what: &'static str,
    min_entry_bytes: usize,
) -> Result<(), SnapError> {
    let n = r.len_prefix(what, min_entry_bytes)?;
    let mut last: Option<(usize, u64)> = None;
    for _ in 0..n {
        let key = read_key(r)?;
        let ppn = r.u64()?;
        if last.is_some_and(|l| l >= key) {
            return Err(SnapError::Corrupt("page-table keys are not strictly ascending"));
        }
        if key.1 >= MAX_PAGE_INDEX {
            return Err(SnapError::Corrupt("page index exceeds the page-table limit"));
        }
        if ppn >= next_ppn {
            return Err(SnapError::Corrupt("page-table entry names an unallocated physical page"));
        }
        set_slot(&mut tables[key.0], key.1, ppn);
        last = Some(key);
    }
    Ok(())
}

impl MachineMemory {
    /// Encodes the memory system for a snapshot. The wire layout is
    /// sparse and sorted: `next_ppn`, then per VM its `(region, index,
    /// ppn)` entries ascending, the `(index, ppn)` dedup entries
    /// ascending, the `(ppn, kind)` entries ascending, and the two
    /// counters — the layout images had while these tables were ordered
    /// maps, so those images still decode.
    pub fn snap_save(&self, w: &mut SnapWriter) {
        w.u64(self.physical_pages());
        w.len_prefix(self.tables.len());
        for regions in &self.tables {
            w.len_prefix(regions.iter().map(|t| mapped(t).count()).sum());
            for (region, table) in ALL_REGIONS.iter().zip(regions) {
                for (index, ppn) in mapped(table) {
                    region.save(w);
                    w.u64(index);
                    w.u64(ppn);
                }
            }
        }
        w.len_prefix(mapped(&self.dedup_index).count());
        for (index, ppn) in mapped(&self.dedup_index) {
            w.u64(index);
            w.u64(ppn);
        }
        w.len_prefix(self.kinds.len());
        for (ppn, kind) in self.kinds.iter().enumerate() {
            w.u64(ppn as u64);
            kind.save(w);
        }
        w.u64(self.logical_pages);
        w.u64(self.cow_faults);
    }

    /// Decodes an image written by [`Self::snap_save`] for a machine
    /// with `num_vms` virtual machines. Refuses a different VM count,
    /// keys out of order or past the page-table limit, translations to
    /// unallocated pages, and page kinds not numbered `0..next_ppn`.
    pub fn snap_load(r: &mut SnapReader<'_>, num_vms: usize) -> Result<Self, SnapError> {
        let next_ppn = r.u64()?;
        if r.len_prefix("page tables", 8)? != num_vms {
            return Err(SnapError::Corrupt("page-table VM count does not match configuration"));
        }
        let mut mem = MachineMemory::new(num_vms);
        for regions in mem.tables.iter_mut() {
            let read_key = |r: &mut SnapReader<'_>| Ok((Region::load(r)? as usize, r.u64()?));
            load_table(r, next_ppn, read_key, regions, "page table", 17)?;
        }
        let read_key = |r: &mut SnapReader<'_>| Ok((0, r.u64()?));
        let dedup = std::slice::from_mut(&mut mem.dedup_index);
        load_table(r, next_ppn, read_key, dedup, "dedup index", 16)?;
        let n = r.len_prefix("page kinds", 9)?;
        if n as u64 != next_ppn {
            return Err(SnapError::Corrupt("page-kind count differs from the next page number"));
        }
        mem.kinds.reserve(n);
        for ppn in 0..n as u64 {
            if r.u64()? != ppn {
                return Err(SnapError::Corrupt("page kinds are not contiguous from page 0"));
            }
            mem.kinds.push(PageKind::load(r)?);
        }
        mem.logical_pages = r.u64()?;
        mem.cow_faults = r.u64()?;
        Ok(mem)
    }
}

#[derive(Debug, Clone)]
/// Convenience per-VM view (thin wrapper used by workload generators).
pub struct VmSpace {
    /// VM identifier.
    pub vm: usize,
}

impl VmSpace {
    /// Builds the logical page key for this VM.
    pub fn page(&self, region: Region, index: u64) -> LogicalPage {
        LogicalPage { vm: self.vm, region, index }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_pages_are_distinct() {
        let mut m = MachineMemory::new(2);
        let a = m.translate_page(LogicalPage { vm: 0, region: Region::CorePrivate, index: 0 });
        let b = m.translate_page(LogicalPage { vm: 0, region: Region::CorePrivate, index: 1 });
        let c = m.translate_page(LogicalPage { vm: 1, region: Region::CorePrivate, index: 0 });
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn translation_is_stable() {
        let mut m = MachineMemory::new(1);
        let lp = LogicalPage { vm: 0, region: Region::VmShared, index: 7 };
        assert_eq!(m.translate_page(lp), m.translate_page(lp));
        assert_eq!(m.logical_pages(), 1);
    }

    #[test]
    fn dedup_pages_are_shared_across_vms() {
        let mut m = MachineMemory::new(4);
        let pages: Vec<u64> = (0..4)
            .map(|vm| m.translate_page(LogicalPage { vm, region: Region::Dedup, index: 5 }))
            .collect();
        assert!(pages.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(m.physical_pages(), 1);
        assert_eq!(m.logical_pages(), 4);
        assert!((m.dedup_savings() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn block_addresses_embed_page_and_offset() {
        let mut m = MachineMemory::new(1);
        let lp = LogicalPage { vm: 0, region: Region::CorePrivate, index: 0 };
        let b0 = m.translate(lp, 0, false);
        let b5 = m.translate(lp, 5, false);
        assert_eq!(b5 - b0, 5);
        assert_eq!(b0 % BLOCKS_PER_PAGE, 0);
    }

    #[test]
    fn cow_on_dedup_write() {
        let mut m = MachineMemory::new(2);
        let lp0 = LogicalPage { vm: 0, region: Region::Dedup, index: 1 };
        let lp1 = LogicalPage { vm: 1, region: Region::Dedup, index: 1 };
        let shared0 = m.translate(lp0, 0, false);
        let shared1 = m.translate(lp1, 0, false);
        assert_eq!(shared0, shared1);
        // VM 0 writes: it must be remapped, VM 1 keeps the shared page.
        let after_write = m.translate(lp0, 0, true);
        assert_ne!(after_write, shared0);
        assert_eq!(m.translate(lp1, 0, false), shared1);
        assert_eq!(m.cow_faults, 1);
        // And VM 0's later reads see its private copy.
        assert_eq!(m.translate(lp0, 0, false), after_write);
        assert_eq!(m.kind_of_block(after_write), Some(PageKind::Private));
    }

    #[test]
    fn writes_to_private_pages_do_not_cow() {
        let mut m = MachineMemory::new(1);
        let lp = LogicalPage { vm: 0, region: Region::VmShared, index: 0 };
        let a = m.translate(lp, 3, true);
        let b = m.translate(lp, 3, true);
        assert_eq!(a, b);
        assert_eq!(m.cow_faults, 0);
    }

    #[test]
    fn kind_of_block_reports_dedup() {
        let mut m = MachineMemory::new(1);
        let d = m.translate(LogicalPage { vm: 0, region: Region::Dedup, index: 0 }, 0, false);
        let p =
            m.translate(LogicalPage { vm: 0, region: Region::CorePrivate, index: 0 }, 0, false);
        assert_eq!(m.kind_of_block(d), Some(PageKind::Deduplicated));
        assert_eq!(m.kind_of_block(p), Some(PageKind::Private));
        assert_eq!(m.kind_of_block(1 << 40), None);
    }

    #[test]
    fn mappings_enumerate_every_translation_in_logical_order() {
        let mut m = MachineMemory::new(2);
        m.translate_page(LogicalPage { vm: 1, region: Region::VmShared, index: 3 });
        m.translate_page(LogicalPage { vm: 0, region: Region::Dedup, index: 0 });
        m.translate_page(LogicalPage { vm: 0, region: Region::CorePrivate, index: 1 });
        let all: Vec<_> = m.mappings().collect();
        assert_eq!(all.len(), 3);
        let keys: Vec<_> = all.iter().map(|&(vm, r, i, _)| (vm, r, i)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "mappings must come out in logical order");
        assert_eq!(keys[0], (0, Region::CorePrivate, 1));
        assert_eq!(keys[2], (1, Region::VmShared, 3));
    }

    #[test]
    fn savings_match_table_iv_style_setup() {
        // 4 VMs, each mapping 100 private + 30 dedup pages shared by all:
        // logical = 4*130 = 520, physical = 4*100 + 30 = 430 -> 17.3%.
        let mut m = MachineMemory::new(4);
        for vm in 0..4 {
            for i in 0..100 {
                m.translate_page(LogicalPage { vm, region: Region::CorePrivate, index: i });
            }
            for i in 0..30 {
                m.translate_page(LogicalPage { vm, region: Region::Dedup, index: i });
            }
        }
        let expect = 1.0 - 430.0 / 520.0;
        assert!((m.dedup_savings() - expect).abs() < 1e-9);
    }

    fn encode(m: &MachineMemory) -> Vec<u8> {
        let mut w = SnapWriter::new();
        m.snap_save(&mut w);
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<MachineMemory, SnapError> {
        let mut r = SnapReader::new(bytes);
        let m = MachineMemory::snap_load(&mut r, 2)?;
        r.finish()?;
        Ok(m)
    }

    /// An image in the sparse wire layout, written field by field.
    struct Image {
        next_ppn: u64,
        tables: Vec<Vec<(u8, u64, u64)>>,
        dedup: Vec<(u64, u64)>,
        kinds: Vec<(u64, u8)>,
    }

    impl Image {
        fn bytes(&self) -> Vec<u8> {
            let mut w = SnapWriter::new();
            w.u64(self.next_ppn);
            w.len_prefix(self.tables.len());
            for t in &self.tables {
                w.len_prefix(t.len());
                for &(region, index, ppn) in t {
                    w.u8(region);
                    w.u64(index);
                    w.u64(ppn);
                }
            }
            w.len_prefix(self.dedup.len());
            for &(index, ppn) in &self.dedup {
                w.u64(index);
                w.u64(ppn);
            }
            w.len_prefix(self.kinds.len());
            for &(ppn, kind) in &self.kinds {
                w.u64(ppn);
                w.u8(kind);
            }
            w.u64(0);
            w.u64(0);
            w.into_bytes()
        }
    }

    /// Two private pages and one dedup page, well formed.
    fn good_image() -> Image {
        Image {
            next_ppn: 3,
            tables: vec![vec![(0, 0, 0), (2, 4, 2)], vec![(1, 7, 1)]],
            dedup: vec![(4, 2)],
            kinds: vec![(0, 0), (1, 0), (2, 1)],
        }
    }

    #[test]
    fn well_formed_image_decodes_and_reencodes_identically() {
        let bytes = good_image().bytes();
        let m = decode(&bytes).expect("decode");
        assert_eq!(m.physical_pages(), 3);
        assert_eq!(m.kind_of_block(2 * BLOCKS_PER_PAGE), Some(PageKind::Deduplicated));
        let all: Vec<_> = m.mappings().collect();
        assert_eq!(all, vec![(0, Region::CorePrivate, 0, 0), (0, Region::Dedup, 4, 2), (1, Region::VmShared, 7, 1)]);
        assert_eq!(encode(&m), bytes);
    }

    #[test]
    fn non_contiguous_page_kinds_are_refused() {
        let mut img = good_image();
        img.kinds[1].0 = 5;
        assert!(matches!(decode(&img.bytes()), Err(SnapError::Corrupt(_))));
        let mut img = good_image();
        img.kinds.swap(0, 1);
        assert!(matches!(decode(&img.bytes()), Err(SnapError::Corrupt(_))));
        let mut img = good_image();
        img.kinds.pop();
        assert!(matches!(decode(&img.bytes()), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn page_table_entry_past_next_ppn_is_refused() {
        let mut img = good_image();
        img.tables[1][0].2 = 3;
        assert!(matches!(decode(&img.bytes()), Err(SnapError::Corrupt(_))));
        let mut img = good_image();
        img.tables[0][0].2 = UNMAPPED;
        assert!(matches!(decode(&img.bytes()), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn dedup_entry_past_next_ppn_is_refused() {
        let mut img = good_image();
        img.dedup[0].1 = 9;
        assert!(matches!(decode(&img.bytes()), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn vm_count_mismatch_is_refused() {
        let mut img = good_image();
        img.tables.push(Vec::new());
        assert!(matches!(decode(&img.bytes()), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn unordered_or_oversized_page_table_keys_are_refused() {
        let mut img = good_image();
        img.tables[0].swap(0, 1);
        assert!(matches!(decode(&img.bytes()), Err(SnapError::Corrupt(_))));
        let mut img = good_image();
        img.tables[0][1].1 = MAX_PAGE_INDEX;
        assert!(matches!(decode(&img.bytes()), Err(SnapError::Corrupt(_))));
        let mut img = good_image();
        img.tables[0][0].0 = 3;
        assert!(matches!(decode(&img.bytes()), Err(SnapError::BadTag { what: "Region", .. })));
    }
}

/// The ordered-map implementation the dense tables replaced, kept as
/// the oracle they are checked against.
#[cfg(test)]
mod oracle {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone)]
    struct MapMemory {
        next_ppn: u64,
        tables: Vec<BTreeMap<(Region, u64), u64>>,
        dedup_index: BTreeMap<u64, u64>,
        kinds: BTreeMap<u64, PageKind>,
        logical_pages: u64,
        cow_faults: u64,
    }

    cmpsim_engine::impl_snap!(MapMemory {
        next_ppn,
        tables,
        dedup_index,
        kinds,
        logical_pages,
        cow_faults,
    });

    impl MapMemory {
        fn new(num_vms: usize) -> Self {
            Self {
                next_ppn: 0,
                tables: vec![BTreeMap::new(); num_vms],
                dedup_index: BTreeMap::new(),
                kinds: BTreeMap::new(),
                logical_pages: 0,
                cow_faults: 0,
            }
        }

        fn fresh_page(&mut self, kind: PageKind) -> u64 {
            let ppn = self.next_ppn;
            self.next_ppn += 1;
            self.kinds.insert(ppn, kind);
            ppn
        }

        fn translate_page(&mut self, lp: LogicalPage) -> u64 {
            if let Some(&ppn) = self.tables[lp.vm].get(&(lp.region, lp.index)) {
                return ppn;
            }
            self.logical_pages += 1;
            let ppn = match lp.region {
                Region::Dedup => {
                    if let Some(&shared) = self.dedup_index.get(&lp.index) {
                        shared
                    } else {
                        let p = self.fresh_page(PageKind::Deduplicated);
                        self.dedup_index.insert(lp.index, p);
                        p
                    }
                }
                Region::CorePrivate | Region::VmShared => self.fresh_page(PageKind::Private),
            };
            self.tables[lp.vm].insert((lp.region, lp.index), ppn);
            ppn
        }

        fn translate(&mut self, lp: LogicalPage, block_in_page: u64, is_write: bool) -> u64 {
            let mut ppn = self.translate_page(lp);
            if is_write && self.kinds.get(&ppn) == Some(&PageKind::Deduplicated) {
                let fresh = self.fresh_page(PageKind::Private);
                self.tables[lp.vm].insert((lp.region, lp.index), fresh);
                self.cow_faults += 1;
                ppn = fresh;
            }
            ppn * BLOCKS_PER_PAGE + block_in_page
        }

        fn kind_of_block(&self, block: u64) -> Option<PageKind> {
            self.kinds.get(&(block / BLOCKS_PER_PAGE)).copied()
        }

        fn mappings(&self) -> Vec<(usize, Region, u64, u64)> {
            self.tables
                .iter()
                .enumerate()
                .flat_map(|(vm, t)| t.iter().map(move |(&(r, i), &p)| (vm, r, i, p)))
                .collect()
        }

        fn dedup_savings(&self) -> f64 {
            if self.logical_pages == 0 {
                0.0
            } else {
                1.0 - self.next_ppn as f64 / self.logical_pages as f64
            }
        }
    }

    fn model_bytes(m: &MapMemory) -> Vec<u8> {
        let mut w = SnapWriter::new();
        m.save(&mut w);
        w.into_bytes()
    }

    fn dense_bytes(m: &MachineMemory) -> Vec<u8> {
        let mut w = SnapWriter::new();
        m.snap_save(&mut w);
        w.into_bytes()
    }

    fn region() -> impl Strategy<Value = Region> {
        prop::sample::select(vec![Region::CorePrivate, Region::VmShared, Region::Dedup])
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// The dense tables and the ordered-map model agree access by
        /// access, and on every aggregate, view and snapshot byte.
        #[test]
        fn dense_tables_match_the_map_model(
            ops in prop::collection::vec(
                ((0usize..4, region()), 0u64..48, 0u64..BLOCKS_PER_PAGE, prop::bool::weighted(0.2)),
                1..400,
            ),
        ) {
            let mut dense = MachineMemory::new(4);
            let mut model = MapMemory::new(4);
            for ((vm, region), index, off, write) in ops {
                let lp = LogicalPage { vm, region, index };
                let a = dense.translate(lp, off, write);
                prop_assert_eq!(a, model.translate(lp, off, write));
                prop_assert_eq!(dense.kind_of_block(a), model.kind_of_block(a));
            }
            prop_assert_eq!(dense.cow_faults, model.cow_faults);
            prop_assert_eq!(dense.physical_pages(), model.next_ppn);
            prop_assert_eq!(dense.logical_pages(), model.logical_pages);
            prop_assert_eq!(dense.dedup_savings().to_bits(), model.dedup_savings().to_bits());
            for page in 0..model.next_ppn + 2 {
                let block = page * BLOCKS_PER_PAGE + page % BLOCKS_PER_PAGE;
                prop_assert_eq!(dense.kind_of_block(block), model.kind_of_block(block));
            }
            prop_assert_eq!(dense.kind_of_block(u64::MAX), None);
            prop_assert_eq!(dense.mappings().collect::<Vec<_>>(), model.mappings());
            let image = dense_bytes(&dense);
            prop_assert_eq!(&image, &model_bytes(&model));
            let back = MachineMemory::snap_load(&mut SnapReader::new(&image), 4).expect("decode");
            prop_assert_eq!(dense_bytes(&back), image);
        }
    }
}
