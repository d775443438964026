//! Static dirty-set analysis: what has a checkpoint region *written*?
//!
//! Freezer-style incremental backup saves only state written since the
//! last commit point. The runtime alternative tracks writes in hardware;
//! this pass gets the same set **statically**. For every
//! checkpoint-to-checkpoint region it computes a sound upper bound on
//!
//! * the registers any execution of the region can write
//!   ([`RegionDirty::dirty_regs`], the union of destination registers
//!   over the region's pcs), refined to a flow-sensitive *per-pc* bound:
//!   the registers that may have been written on some path from the
//!   region's checkpoint to the pc, with edges back into the checkpoint
//!   cut — re-crossing the checkpoint is a commit that resets dirtiness,
//!   exactly as [`crate::wcec`]'s region solver cuts re-entry;
//! * the memory words any execution can store to: absolute stores
//!   contribute their exact address, indirect stores the address range
//!   `[base.lo + off, base.hi + off]` from the interval domain
//!   ([`crate::error_bound`], whose ranges cover approximate runs at the
//!   declared floor and above). A store whose address cannot be bounded
//!   (wrapped arithmetic, oversized range) degrades the region to
//!   [`MemDirty::Whole`] — pessimistic, never unsound.
//!
//! Intersecting the per-pc written set with backup-liveness yields the
//! `live ∩ dirty` backup mask: at a backup at pc, a register needs
//! saving only if some later instruction reads it (live) *and* some path
//! from the last checkpoint crossing may have changed it (dirty).
//! Registers outside the mask still hold their last-committed values in
//! the snapshot, so restoring them is exact — *provided* every
//! checkpoint crossing commits the just-completed region's dirty set,
//! the assumption the placement search ([`crate::ckpt_place`]) charges
//! for and DESIGN.md §12 spells out. A pc covered by several
//! (overlapping) regions uses the union of their per-pc sets: whichever
//! checkpoint the current charge cycle actually crossed last, its
//! written-since set is included.

use crate::backup_liveness::BackupLiveness;
use crate::cfg::Cfg;
use crate::dataflow::Solution;
use crate::error_bound::{solve_error_bounds, ApproxState};
use crate::wcec::{declared_checkpoints, RegionCut, RegionKind};
use nvp_isa::{Instr, Program};
use std::collections::BTreeSet;

/// Largest address-range width an indirect store may contribute before
/// the region degrades to whole-memory (covers every shipped kernel's
/// data array with room to spare).
const MAX_RANGE_WORDS: i64 = 1 << 16;

/// Sound upper bound on the memory words one region can write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemDirty {
    /// At most these words (absolute addresses).
    Words(BTreeSet<u32>),
    /// Some store could not be bounded: assume the whole memory.
    Whole,
}

impl MemDirty {
    /// Does the bound admit a write to `addr`?
    pub fn contains(&self, addr: u32) -> bool {
        match self {
            MemDirty::Words(w) => w.contains(&addr),
            MemDirty::Whole => true,
        }
    }
}

/// The dirty set of one checkpoint-to-checkpoint region.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionDirty {
    /// The checkpoint pc the region starts at.
    pub start_pc: usize,
    /// What kind of checkpoint starts it.
    pub kind: RegionKind,
    /// Pcs belonging to the region (sorted; includes bounding
    /// checkpoints, mirroring [`crate::wcec::Region::pcs`]).
    pub pcs: Vec<usize>,
    /// Registers any execution of the region may write (bit per reg).
    pub dirty_regs: u16,
    /// Memory words any execution of the region may write.
    pub mem: MemDirty,
}

/// Dirty sets for every region, plus the per-pc `live ∩ dirty` masks.
#[derive(Debug, Clone, PartialEq)]
pub struct DirtyReport {
    /// Bitwidth floor the store-address intervals were derived at.
    pub bits: u8,
    /// One entry per checkpoint, sorted by start pc.
    pub regions: Vec<RegionDirty>,
    /// Per-pc backup mask: `live_at(pc) ∩ ⋃ written-since-checkpoint`
    /// over the regions containing pc. Pcs in no region keep the full
    /// mask.
    masks: Vec<u16>,
}

impl DirtyReport {
    /// The `live ∩ dirty` backup mask at `pc`. Out-of-range pcs get the
    /// full mask — the caller must treat that as "back up everything".
    pub fn mask_at(&self, pc: usize) -> u16 {
        self.masks.get(pc).copied().unwrap_or(u16::MAX)
    }

    /// The per-pc mask table (index = pc), for export to the simulator.
    pub fn masks(&self) -> &[u16] {
        &self.masks
    }

    /// The region starting at `start_pc`, if any.
    pub fn region_at(&self, start_pc: usize) -> Option<&RegionDirty> {
        self.regions.iter().find(|r| r.start_pc == start_pc)
    }
}

/// Computes the dirty-set report over the program's *declared*
/// checkpoints. `bits` is the declared governor floor the store-address
/// intervals are derived at (ranges are valid at that floor and above).
pub fn dirty_report(program: &Program, cfg: &Cfg, bits: u8, mem_words: usize) -> DirtyReport {
    DirtyAnalyzer::new(program, cfg, bits, mem_words).report_at(&declared_checkpoints(program))
}

/// [`dirty_report`] over an explicit checkpoint set — the entry point
/// placement synthesis uses to evaluate candidate placements.
pub fn dirty_report_at(
    program: &Program,
    cfg: &Cfg,
    bits: u8,
    mem_words: usize,
    checkpoints: &[(usize, RegionKind)],
) -> DirtyReport {
    DirtyAnalyzer::new(program, cfg, bits, mem_words).report_at(checkpoints)
}

/// Caches the placement-independent pieces (interval solution, backup
/// liveness) so a placement search can score many checkpoint sets
/// without re-running the expensive fixpoints.
pub struct DirtyAnalyzer<'a> {
    program: &'a Program,
    cfg: &'a Cfg,
    bits: u8,
    mem_words: usize,
    sol: Solution<ApproxState>,
    live: BackupLiveness,
}

impl<'a> DirtyAnalyzer<'a> {
    /// Runs the placement-independent analyses once.
    pub fn new(program: &'a Program, cfg: &'a Cfg, bits: u8, mem_words: usize) -> Self {
        DirtyAnalyzer {
            program,
            cfg,
            bits,
            mem_words,
            sol: solve_error_bounds(program, cfg, bits),
            live: BackupLiveness::compute(program),
        }
    }

    /// Builds the dirty report for one checkpoint set.
    pub fn report_at(&self, checkpoints: &[(usize, RegionKind)]) -> DirtyReport {
        self.report_cut(&RegionCut::new(self.cfg, checkpoints))
    }

    /// The dirty report over the regions of `cut`.
    pub(crate) fn report_cut(&self, cut: &RegionCut) -> DirtyReport {
        let program = self.program;
        let len = program.len();
        let mut regions = Vec::with_capacity(cut.regions.len());
        // Union over regions of the per-pc written-since-entry sets.
        let mut dirty_at = vec![0u16; len];
        let mut covered = vec![false; len];
        for region in &cut.regions {
            let (start_pc, pcs) = (region.start_pc, &region.pcs);
            // Region-level summary: union of dsts and store targets.
            let mut dirty_regs = 0u16;
            let mut mem = MemDirty::Words(BTreeSet::new());
            for &pc in pcs {
                let instr = program.fetch(pc).expect("pc in range");
                if let Some(d) = instr.dst() {
                    dirty_regs |= 1 << d.0;
                }
                match instr {
                    Instr::St(a, _) => {
                        if let MemDirty::Words(w) = &mut mem {
                            w.insert(a);
                        }
                    }
                    Instr::StInd(base, off, _) => {
                        let range = self.sol.before_at(pc).and_then(|s| {
                            let iv = s.reg(base).iv;
                            if iv.wrapped {
                                return None;
                            }
                            // Faulting addresses never commit a write,
                            // so clamping to the valid window is sound.
                            let lo = (iv.lo + i64::from(off)).max(0);
                            let hi = (iv.hi + i64::from(off)).min(self.mem_words as i64 - 1);
                            (lo <= hi && hi - lo < MAX_RANGE_WORDS).then_some((lo, hi))
                        });
                        match (range, &mut mem) {
                            (Some((lo, hi)), MemDirty::Words(w)) => {
                                for a in lo..=hi {
                                    w.insert(a as u32);
                                }
                            }
                            (None, _) => mem = MemDirty::Whole,
                            _ => {}
                        }
                    }
                    _ => {}
                }
            }

            // Flow-sensitive per-pc bound: union-join forward fixpoint of
            // written registers from the checkpoint, with edges into the
            // checkpoint cut (a crossing commits) and no propagation out
            // of the bounding checkpoints (their successors belong to the
            // next region).
            // Seed every region pc: with an all-zero initial state a
            // change-driven worklist would otherwise never leave the
            // checkpoint (propagating 0 into 0 is "no change").
            let mut before = vec![0u16; len];
            let mut on_work = vec![false; len];
            let mut work = pcs.clone();
            for &pc in pcs {
                on_work[pc] = true;
            }
            while let Some(pc) = work.pop() {
                on_work[pc] = false;
                if pc != start_pc && cut.is_checkpoint[pc] {
                    continue;
                }
                let mut after = before[pc];
                if let Some(d) = program.fetch(pc).and_then(|i| i.dst()) {
                    after |= 1 << d.0;
                }
                for &s in self.cfg.succs(pc) {
                    if !region.active[s] || s == start_pc {
                        continue;
                    }
                    if before[s] | after != before[s] {
                        before[s] |= after;
                        if !on_work[s] {
                            on_work[s] = true;
                            work.push(s);
                        }
                    }
                }
            }
            for &pc in pcs {
                dirty_at[pc] |= before[pc];
                covered[pc] = true;
            }

            regions.push(RegionDirty {
                start_pc,
                kind: region.kind,
                pcs: pcs.clone(),
                dirty_regs,
                mem,
            });
        }

        // Pcs in no region keep the full mask: no commit point bounds
        // their dirtiness, so nothing can be skipped.
        let masks = (0..len)
            .map(|pc| {
                if covered[pc] {
                    self.live.live_at(pc) & dirty_at[pc]
                } else {
                    u16::MAX
                }
            })
            .collect();

        DirtyReport {
            bits: self.bits,
            regions,
            masks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_isa::{ProgramBuilder, Reg};

    fn report(p: &Program) -> DirtyReport {
        dirty_report(p, &Cfg::build(p), 8, 256)
    }

    #[test]
    fn straight_line_region_collects_exact_stores_and_dsts() {
        let mut b = ProgramBuilder::new();
        b.mark_resume(0)
            .ldi(Reg(3), 7)
            .st(42, Reg(3))
            .frame_done()
            .halt();
        let p = b.build().unwrap();
        let r = report(&p);
        let entry = r.region_at(0).expect("entry region");
        assert!(entry.dirty_regs & (1 << 3) != 0);
        let MemDirty::Words(w) = &entry.mem else {
            panic!("expected bounded mem dirty set")
        };
        assert_eq!(w.iter().copied().collect::<Vec<_>>(), vec![42]);
    }

    #[test]
    fn bounded_indirect_store_yields_a_word_range() {
        // i walks 0..8, st_ind writes [i + 100]: dirty = 100..=107.
        let mut b = ProgramBuilder::new();
        let (i, n, v) = (Reg(0), Reg(1), Reg(2));
        b.mark_resume(0).ldi(i, 0).ldi(n, 8).ldi(v, 1);
        let top = b.label();
        b.place(top);
        b.st_ind(i, 100, v).addi(i, i, 1).brlt(i, n, top);
        b.frame_done().halt();
        let p = b.build().unwrap();
        let r = report(&p);
        let region = r.region_at(0).expect("entry region");
        let MemDirty::Words(w) = &region.mem else {
            panic!("expected bounded mem dirty set")
        };
        assert!(w.contains(&100) && w.contains(&107), "{w:?}");
        assert!(!w.contains(&108) && !w.contains(&99), "{w:?}");
    }

    #[test]
    fn unboundable_store_admits_every_address() {
        // Base loaded from memory: the interval domain cannot bound it
        // below "anywhere in memory".
        let mut b = ProgramBuilder::new();
        b.mark_resume(0)
            .ld(Reg(0), 5)
            .ldi(Reg(1), 1)
            .st_ind(Reg(0), 0, Reg(1))
            .frame_done()
            .halt();
        let p = b.build().unwrap();
        let r = report(&p);
        let region = r.region_at(0).expect("entry region");
        assert!(region.mem.contains(0) && region.mem.contains(255));
    }

    #[test]
    fn per_pc_mask_excludes_not_yet_written_regs() {
        // r5 written late in the region: at earlier pcs it is clean even
        // though live-out of those pcs, so the mask drops it.
        let mut b = ProgramBuilder::new();
        b.mark_resume(0)
            .ldi(Reg(6), 1) // pc 1
            .ldi(Reg(5), 2) // pc 2
            .add(Reg(7), Reg(5), Reg(6)) // pc 3
            .st(0, Reg(7)) // pc 4
            .frame_done()
            .halt();
        let p = b.build().unwrap();
        let r = report(&p);
        // Before pc 2 runs, r5 is not yet written since the checkpoint.
        assert_eq!(r.mask_at(2) & (1 << 5), 0, "r5 clean before its write");
        // After the write (at pc 3), r5 is dirty and live.
        assert!(r.mask_at(3) & (1 << 5) != 0, "r5 dirty+live at pc 3");
        // Masks are subsets of the live sets everywhere.
        let live = BackupLiveness::compute(&p);
        for pc in 0..p.len() {
            assert_eq!(
                r.mask_at(pc) & !live.live_at(pc),
                0,
                "mask ⊆ live at pc {pc}"
            );
        }
    }

    #[test]
    fn checkpoint_in_loop_cuts_the_back_edge() {
        // With a checkpoint at the loop head, the loop counter increment
        // at the tail must NOT reach the body pcs through the back edge:
        // after a crossing the counter is committed, so mid-body it is
        // clean.
        let mut b = ProgramBuilder::new();
        let (i, n, v) = (Reg(0), Reg(1), Reg(2));
        b.ldi(i, 0).ldi(n, 8);
        let top = b.label();
        b.place(top);
        b.mark_resume(1) // pc 2: checkpoint at the loop head
            .ldi(v, 3) // pc 3: body
            .st_ind(i, 100, v) // pc 4
            .addi(i, i, 1) // pc 5: tail write of i
            .brlt(i, n, top); // pc 6
        b.frame_done().halt();
        let p = b.build().unwrap();
        let r = report(&p);
        let marker_pc = 2;
        assert!(r.region_at(marker_pc).is_some(), "resume region exists");
        // At pc 5 (before the i increment runs), i is clean relative to
        // the loop-head checkpoint: the tail's write can only reach the
        // body through the back edge into the checkpoint, which a
        // crossing commits. The entry region stops at the marker, so
        // pc 5 is only in the resume region.
        assert_eq!(r.mask_at(5) & (1 << 0), 0, "loop counter clean mid-body");
        assert_eq!(r.mask_at(6) & (1 << 2), 0, "v dead after its last use");
    }

    #[test]
    fn dirty_union_covers_overlapping_regions() {
        let mut b = ProgramBuilder::new();
        let (i, n) = (Reg(0), Reg(1));
        b.ldi(i, 0).ldi(n, 4).mark_resume(0);
        let top = b.label();
        b.place(top);
        b.addi(i, i, 1).brlt(i, n, top);
        b.frame_done().halt();
        let p = b.build().unwrap();
        let r = report(&p);
        let live = BackupLiveness::compute(&p);
        for region in &r.regions {
            for &pc in &region.pcs {
                // The mask admits every reg that is live and may have
                // been written since this region's checkpoint (coarse
                // region-level check: per-pc sets are subsets of
                // dirty_regs).
                let m = r.mask_at(pc);
                assert_eq!(
                    m & !(live.live_at(pc)),
                    0,
                    "mask ⊆ live at pc {pc}: {m:#06x}"
                );
            }
        }
    }
}
