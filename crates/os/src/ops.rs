//! The attack operations of paper §5.2.2, expressed over the privileged
//! hardware view.

use microscope_cache::{MemoryHierarchy, PAddr};
use microscope_cpu::HwParts;
use microscope_mem::{AddressSpace, PhysMem, PtLevel, VAddr, PAGE_BYTES};

/// The frame the leaf PTE of `vaddr` names, whatever its Present bit.
fn leaf_ppn(phys: &PhysMem, aspace: AddressSpace, vaddr: VAddr) -> Option<u64> {
    let pte = aspace.read_entry(phys, vaddr, PtLevel::Pte)?;
    (pte.ppn() != 0).then_some(pte.ppn())
}

/// Translates `vaddr` through `aspace` *ignoring the Present bit* of the
/// leaf PTE. The OS can always do this (it owns the tables), and needs it to
/// probe/prime lines on pages it has itself marked not-present (the pivot).
pub fn translate_ignoring_present(
    hw: &HwParts,
    aspace: AddressSpace,
    vaddr: VAddr,
) -> Option<PAddr> {
    leaf_ppn(&hw.phys, aspace, vaddr).map(|ppn| PAddr(ppn * PAGE_BYTES + vaddr.page_offset()))
}

/// Calls `f(hierarchy, i, paddr)` for each `addrs[i]` in order, with its
/// physical address as [`translate_ignoring_present`] gives it; unmapped
/// addresses are skipped.
///
/// The page tables are walked in software once per run of consecutive
/// addresses on the same page, not once per address: a Prime+Probe
/// replayer's monitored lines sit a few to a page (the 64 AES table lines
/// lie on one or two pages), and it probes and primes them all on every
/// replay. `f` sees only the cache hierarchy, so it cannot change the
/// tables the remembered frame came from.
pub fn for_each_line(
    hw: &mut HwParts,
    aspace: AddressSpace,
    addrs: &[VAddr],
    mut f: impl FnMut(&mut MemoryHierarchy, usize, PAddr),
) {
    let mut page: Option<(u64, Option<u64>)> = None;
    for (i, va) in addrs.iter().enumerate() {
        let ppn = match page {
            Some((vpn, ppn)) if vpn == va.vpn() => ppn,
            _ => {
                let ppn = leaf_ppn(&hw.phys, aspace, *va);
                page = Some((va.vpn(), ppn));
                ppn
            }
        };
        if let Some(ppn) = ppn {
            f(&mut hw.hier, i, PAddr(ppn * PAGE_BYTES + va.page_offset()));
        }
    }
}

/// Flushes all translation state for `vaddr`: the four page-table entry
/// lines from the cache hierarchy, the page-walk cache, and the TLB entry
/// (paper §4.1.1, Replayer setup steps 2–4).
pub fn flush_translation(hw: &mut HwParts, aspace: AddressSpace, vaddr: VAddr) {
    let entries = aspace.entry_paddrs(&hw.phys, vaddr);
    flush_entries(hw, aspace, vaddr, &entries);
}

/// [`flush_translation`] with the entry addresses already walked.
fn flush_entries(
    hw: &mut HwParts,
    aspace: AddressSpace,
    vaddr: VAddr,
    entries: &[Option<PAddr>; 4],
) {
    for &entry_pa in entries.iter().flatten() {
        hw.hier.flush_line(entry_pa);
        hw.walker.pwc_mut().flush_entry(entry_pa);
    }
    hw.tlb.invlpg(vaddr, aspace.pcid());
}

/// Tunes the next hardware walk for `vaddr` to dereference exactly `length`
/// levels from memory (the Table-2 `initiate_page_walk(addr, length)`
/// operation): the remaining upper levels are left warm in the page-walk
/// cache, so the walk costs ~`length` DRAM round trips.
///
/// # Panics
///
/// Panics unless `1 <= length <= 4`.
pub fn set_walk_length(hw: &mut HwParts, aspace: AddressSpace, vaddr: VAddr, length: u8) {
    assert!((1..=4).contains(&length), "walk length must be in 1..=4");
    let entries = aspace.entry_paddrs(&hw.phys, vaddr);
    // Cold everything first.
    flush_entries(hw, aspace, vaddr, &entries);
    // Warm the top `4 - length` levels back into the PWC (only the three
    // upper levels are PWC-cacheable, so `length == 1` still pays one DRAM
    // access for the leaf PTE — matching real walkers).
    let warm = (4 - length).min(3) as usize;
    for entry in entries.iter().take(warm).flatten() {
        hw.walker.pwc_mut().insert(*entry);
    }
}

/// Evicts each address's line from the whole hierarchy ("priming the
/// caches" before a replay so the next probe is unambiguous).
pub fn prime_lines(hw: &mut HwParts, aspace: AddressSpace, addrs: &[VAddr]) {
    for_each_line(hw, aspace, addrs, |hier, _, pa| hier.flush_line(pa));
}

/// Probes each address's line, returning `(vaddr, access latency)` — the
/// measurement step of a Prime+Probe replayer. Probing fills the lines, so
/// callers normally [`prime_lines`] again before resuming the victim.
pub fn probe_latencies(
    hw: &mut HwParts,
    aspace: AddressSpace,
    addrs: &[VAddr],
) -> Vec<(VAddr, u64)> {
    let mut out = Vec::with_capacity(addrs.len());
    for_each_line(hw, aspace, addrs, |hier, i, pa| {
        out.push((addrs[i], hier.access(pa).latency));
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscope_cache::{HierarchyConfig, MemoryHierarchy};
    use microscope_cpu::{BranchPredictor, PredictorConfig};
    use microscope_mem::{
        PageWalker, PhysMem, PteFlags, TlbEntry, TlbHierarchy, TlbHierarchyConfig, WalkerConfig,
    };

    fn hw_with_mapping() -> (HwParts, AddressSpace, VAddr) {
        let mut phys = PhysMem::new();
        let aspace = AddressSpace::new(&mut phys, 1);
        let va = VAddr(0x1234_5000);
        let frame = phys.alloc_frame();
        aspace.map(&mut phys, va, frame, PteFlags::user_data());
        let hw = HwParts {
            phys,
            hier: MemoryHierarchy::new(HierarchyConfig::default()),
            tlb: TlbHierarchy::new(TlbHierarchyConfig::default()),
            walker: PageWalker::new(WalkerConfig::default()),
            predictor: BranchPredictor::new(PredictorConfig::default()),
        };
        (hw, aspace, va)
    }

    #[test]
    fn translate_ignoring_present_survives_cleared_bit() {
        let (mut hw, aspace, va) = hw_with_mapping();
        let normal = aspace.translate(&hw.phys, va, false).unwrap().paddr;
        aspace.set_present(&mut hw.phys, va, false);
        assert!(aspace.translate(&hw.phys, va, false).is_err());
        assert_eq!(translate_ignoring_present(&hw, aspace, va), Some(normal));
    }

    #[test]
    fn translate_ignoring_present_rejects_unmapped() {
        let (hw, aspace, _) = hw_with_mapping();
        assert_eq!(
            translate_ignoring_present(&hw, aspace, VAddr(0xdead_0000)),
            None
        );
    }

    #[test]
    fn flush_translation_clears_tlb_and_pte_lines() {
        let (mut hw, aspace, va) = hw_with_mapping();
        // Warm everything with a hardware walk + TLB fill.
        let t = hw
            .walker
            .walk(&mut hw.phys, &mut hw.hier, &aspace, va, false)
            .result
            .unwrap();
        hw.tlb.insert(TlbEntry {
            vpn: va.vpn(),
            ppn: t.paddr.ppn(),
            flags: t.flags,
            pcid: aspace.pcid(),
        });
        assert!(hw.tlb.lookup(va.vpn(), 1).entry.is_some());
        flush_translation(&mut hw, aspace, va);
        assert!(hw.tlb.lookup(va.vpn(), 1).entry.is_none());
        for pa in aspace.entry_paddrs(&hw.phys, va).into_iter().flatten() {
            assert_eq!(hw.hier.level_of(pa), None);
        }
        // The next walk is long again.
        let replay = hw
            .walker
            .walk(&mut hw.phys, &mut hw.hier, &aspace, va, false);
        assert!(replay.latency > 4 * hw.hier.config().dram.row_hit_latency);
    }

    #[test]
    fn walk_length_controls_walk_latency_monotonically() {
        let (mut hw, aspace, va) = hw_with_mapping();
        hw.walker
            .walk(&mut hw.phys, &mut hw.hier, &aspace, va, false);
        let mut lats = Vec::new();
        for length in 1..=4 {
            set_walk_length(&mut hw, aspace, va, length);
            let out = hw
                .walker
                .walk(&mut hw.phys, &mut hw.hier, &aspace, va, false);
            lats.push(out.latency);
        }
        for w in lats.windows(2) {
            assert!(w[0] < w[1], "longer length => longer walk: {lats:?}");
        }
        // Length 4 is a fully cold walk: ~4 DRAM accesses.
        assert!(lats[3] > 4 * hw.hier.config().dram.row_hit_latency);
    }

    #[test]
    #[should_panic(expected = "walk length")]
    fn zero_walk_length_rejected() {
        let (mut hw, aspace, va) = hw_with_mapping();
        set_walk_length(&mut hw, aspace, va, 0);
    }

    /// The per-page walk of `probe_latencies`/`prime_lines` against a
    /// per-line `translate_ignoring_present` loop on a clone of the same
    /// hardware: pages that interleave (A, B, A), a pivot page whose leaf
    /// Present bit is cleared, and an unmapped address.
    #[test]
    fn per_page_walk_matches_a_per_line_walk() {
        let (mut hw, aspace, a) = hw_with_mapping();
        let b = VAddr(0x2000_0000);
        let pivot = VAddr(0x2000_1000);
        for va in [b, pivot] {
            let frame = hw.phys.alloc_frame();
            aspace.map(&mut hw.phys, va, frame, PteFlags::user_data());
        }
        aspace.set_present(&mut hw.phys, pivot, false);
        let unmapped = VAddr(0xdead_0000);
        let line = |va: VAddr, i: u64| VAddr(va.0 + i * 64);
        let addrs = [
            line(a, 0),
            line(a, 1),
            line(b, 0),
            line(b, 3),
            line(a, 2),
            line(pivot, 0),
            line(unmapped, 0),
            line(pivot, 5),
            line(a, 63),
        ];
        // Warm a few lines so the probe sees hits as well as misses.
        for va in [line(a, 1), line(b, 3), line(pivot, 5)] {
            let pa = translate_ignoring_present(&hw, aspace, va).unwrap();
            hw.hier.access(pa);
        }

        let mut oracle = hw.clone();
        let per_line_probe = |hw: &mut HwParts| -> Vec<(VAddr, u64)> {
            addrs
                .iter()
                .filter_map(|&va| {
                    translate_ignoring_present(hw, aspace, va)
                        .map(|pa| (va, hw.hier.access(pa).latency))
                })
                .collect()
        };
        let per_line_prime = |hw: &mut HwParts| {
            for &va in &addrs {
                if let Some(pa) = translate_ignoring_present(hw, aspace, va) {
                    hw.hier.flush_line(pa);
                }
            }
        };

        let probed = probe_latencies(&mut hw, aspace, &addrs);
        let want = per_line_probe(&mut oracle);
        assert_eq!(
            probed.len(),
            addrs.len() - 1,
            "only the unmapped line skipped"
        );
        assert_eq!(probed, want);
        prime_lines(&mut hw, aspace, &addrs);
        per_line_prime(&mut oracle);
        assert_eq!(
            probe_latencies(&mut hw, aspace, &addrs),
            per_line_probe(&mut oracle),
            "after priming"
        );
        for &va in &addrs {
            let (Some(pa), Some(opa)) = (
                translate_ignoring_present(&hw, aspace, va),
                translate_ignoring_present(&oracle, aspace, va),
            ) else {
                assert_eq!(va, unmapped);
                continue;
            };
            assert_eq!(pa, opa);
            assert_eq!(hw.hier.level_of(pa), oracle.hier.level_of(opa), "{va:?}");
        }
        assert_eq!(hw.hier.stats(), oracle.hier.stats());
    }

    #[test]
    fn prime_then_probe_distinguishes_touched_lines() {
        let (mut hw, aspace, va) = hw_with_mapping();
        let other = VAddr(va.0 + 128);
        prime_lines(&mut hw, aspace, &[va, other]);
        // Victim touches only `va`.
        let pa = translate_ignoring_present(&hw, aspace, va).unwrap();
        hw.hier.access(pa);
        let probes = probe_latencies(&mut hw, aspace, &[va, other]);
        assert_eq!(probes.len(), 2);
        let (touched, untouched) = (probes[0].1, probes[1].1);
        assert!(
            touched < untouched,
            "touched line must probe faster: {touched} vs {untouched}"
        );
    }
}
