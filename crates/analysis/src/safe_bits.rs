//! Statically proven safe bitwidth floors, derived from the coupled
//! interval / error-bound analysis ([`crate::error_bound`]).
//!
//! A governor setting `bits` is **safe** at an instruction when reducing
//! ALU/memory precision to `bits` cannot change the program's control
//! flow or memory addressing relative to the exact run:
//!
//! * a branch operand's worst-case deviation must be zero
//!   (otherwise the approximate run can take a different path —
//!   `NVP-E004`);
//! * an indirect base register must be deviation-free, or — if the
//!   kernel has declared it sanitized (clamped) — its address range must
//!   be provably inside data memory (`NVP-E004`);
//! * no branch operand or indirect base may carry a value the concrete
//!   machine itself may have wrapped producing (`NVP-E005`; wraparound
//!   is unsafe at *every* bitwidth, including 8).
//!
//! Floors are reported per pc, per basic block, and per program, and
//! `nvp-lint --bitwidth` prints the per-block table. They are reported,
//! not enforced: the simulator's governor picks widths from power alone,
//! inside the kernel's declared `[minbits, maxbits]`. Safety is monotone
//! in `bits` (error bounds shrink as precision grows), so the floor for
//! the whole family `bits ≥ floor` is established by one analysis per
//! candidate setting.

use crate::cfg::Cfg;
use crate::diag::{Diagnostic, LintCode};
use crate::error_bound::{dev_bound, solve_error_bounds, ApproxState};
use crate::{AnalysisReport, Pass, PassContext};
use nvp_isa::{Instr, Program, Reg};

/// A kernel's declared governor operating range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeclaredBits {
    /// Lowest bits the governor may select for this kernel.
    pub minbits: u8,
    /// Highest bits the governor may select.
    pub maxbits: u8,
}

impl DeclaredBits {
    /// Builds a declaration, clamping into `1..=8` and ordering the pair.
    pub fn new(minbits: u8, maxbits: u8) -> DeclaredBits {
        let minbits = minbits.clamp(1, 8);
        let maxbits = maxbits.clamp(minbits, 8);
        DeclaredBits { minbits, maxbits }
    }
}

/// Sentinel floor meaning "unsafe even at full precision" (a wraparound
/// hazard the governor cannot fix).
pub const NEVER_SAFE: u8 = 9;

/// Why one pc rejects a bit setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HazardKind {
    /// A branch operand may deviate: control flow can diverge.
    BranchDeviation(Reg),
    /// An indirect base may deviate with no sanitization declared.
    AddressDeviation(Reg),
    /// A sanitized indirect base deviates and its address range is not
    /// provably inside data memory.
    AddressRange(Reg),
    /// The operand may stem from concrete integer wraparound.
    Wraparound(Reg),
}

/// One rejected `(pc, bits)` combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hazard {
    /// Instruction location.
    pub pc: usize,
    /// What goes wrong there.
    pub kind: HazardKind,
}

/// Safe-bits floor of one basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockFloor {
    /// First pc of the block.
    pub start: usize,
    /// One past the last pc.
    pub end: usize,
    /// Minimum safe bits over the block's instructions (1..=8, or
    /// [`NEVER_SAFE`]).
    pub floor: u8,
}

/// The full bitwidth analysis result for one program.
#[derive(Debug, Clone)]
pub struct BitwidthReport {
    /// Per-pc floor (1..=8, or [`NEVER_SAFE`]); index = pc. Unreachable
    /// pcs get floor 1.
    pub pc_floor: Vec<u8>,
    /// Per-basic-block floors, in block order.
    pub block_floors: Vec<BlockFloor>,
    /// The whole-program floor: max over all pcs.
    pub program_floor: u8,
    /// Worst-case deviation of values in the approximable output region
    /// at program exit, per governor setting (`output_err[b-1]` = bound
    /// at `bits = b`; `u64::MAX` = unbounded). Non-increasing in `b`: a
    /// solve at floor `b` covers every run at bits ≥ `b`, so each entry
    /// is also capped by the entries below it.
    pub output_err: [u64; 8],
    /// Hazards observed at `bits = 1` (the most permissive setting) —
    /// the reasons the floor is above 1, for diagnostics.
    pub hazards: Vec<Hazard>,
}

/// Collects the hazards of `program` at one candidate `bits` setting.
pub fn hazards_at(
    program: &Program,
    cfg: &Cfg,
    sanitized: u16,
    mem_words: Option<usize>,
    bits: u8,
) -> Vec<Hazard> {
    analyze_at(program, cfg, sanitized, mem_words, bits).0
}

/// One coupled-analysis solve at `bits`, yielding both the hazards and
/// the worst-case output-region deviation at exit.
fn analyze_at(
    program: &Program,
    cfg: &Cfg,
    sanitized: u16,
    mem_words: Option<usize>,
    bits: u8,
) -> (Vec<Hazard>, u64) {
    let sol = solve_error_bounds(program, cfg, bits);
    let mut out = Vec::new();
    let is_sanitized = |r: Reg| sanitized & (1 << r.0) != 0;
    for (pc, instr) in program.iter() {
        let Some(s) = sol.before_at(pc) else {
            continue;
        };
        let mut check_branch = |r: Reg| {
            if is_sanitized(r) {
                return;
            }
            let av = s.reg(r);
            if av.iv.wrapped {
                out.push(Hazard {
                    pc,
                    kind: HazardKind::Wraparound(r),
                });
            }
            if dev_bound(av) > 0 {
                out.push(Hazard {
                    pc,
                    kind: HazardKind::BranchDeviation(r),
                });
            }
        };
        match instr {
            Instr::Brz(r, _) | Instr::Brnz(r, _) => check_branch(r),
            Instr::Brlt(a, b, _) | Instr::Brge(a, b, _) => {
                check_branch(a);
                check_branch(b);
            }
            Instr::LdInd(_, base, off) | Instr::StInd(base, off, _) => {
                check_address(&mut out, s, pc, base, off, sanitized, mem_words);
            }
            _ => {}
        }
    }
    let mut output_dev = 0u64;
    for (pc, instr) in program.iter() {
        if matches!(instr, Instr::Halt | Instr::FrameDone) {
            if let Some(s) = sol.after_at(pc) {
                output_dev = output_dev.max(s.region.err);
            }
        }
    }
    (out, output_dev)
}

fn check_address(
    out: &mut Vec<Hazard>,
    s: &ApproxState,
    pc: usize,
    base: Reg,
    off: i32,
    sanitized: u16,
    mem_words: Option<usize>,
) {
    let av = s.reg(base);
    let dev = dev_bound(av);
    if sanitized & (1 << base.0) == 0 {
        if av.iv.wrapped {
            out.push(Hazard {
                pc,
                kind: HazardKind::Wraparound(base),
            });
        }
        if dev > 0 {
            out.push(Hazard {
                pc,
                kind: HazardKind::AddressDeviation(base),
            });
        }
    } else if dev > 0 {
        // Sanitized base: the kernel vouches for the *value*, but the
        // resulting address must still be provably in bounds, or a
        // deviated index faults / lands on the wrong data.
        if let Some(words) = mem_words {
            let (lo, hi) = (av.iv.lo + off as i64, av.iv.hi + off as i64);
            if lo < 0 || hi >= words as i64 {
                out.push(Hazard {
                    pc,
                    kind: HazardKind::AddressRange(base),
                });
            }
        }
    }
}

/// Derives the full [`BitwidthReport`] for `program`.
///
/// Runs the coupled analysis once per candidate setting (8 fixpoints);
/// the floor at each pc is one above the largest rejected setting, so a
/// non-monotone artifact of widening can never under-report.
pub fn bitwidth_report(
    program: &Program,
    cfg: &Cfg,
    sanitized: u16,
    mem_words: Option<usize>,
) -> BitwidthReport {
    let len = program.len();
    let mut pc_floor = vec![1u8; len];
    let mut output_err = [0u64; 8];
    let mut hazards_at_1 = Vec::new();
    for bits in 1..=8u8 {
        let (hz, dev) = analyze_at(program, cfg, sanitized, mem_words, bits);
        for h in &hz {
            pc_floor[h.pc] = pc_floor[h.pc].max(bits + 1);
        }
        if bits == 1 {
            hazards_at_1 = hz;
        }
        output_err[bits as usize - 1] = dev;
    }
    // The solve at floor `b` covers every run at bits >= b, so its bound
    // also applies to all wider settings; the running minimum repairs
    // non-monotone widening artifacts without losing soundness.
    for b in 1..8 {
        output_err[b] = output_err[b].min(output_err[b - 1]);
    }
    let block_floors = cfg
        .blocks()
        .iter()
        .map(|b| BlockFloor {
            start: b.start,
            end: b.end,
            floor: pc_floor[b.start..b.end].iter().copied().max().unwrap_or(1),
        })
        .collect();
    let program_floor = pc_floor.iter().copied().max().unwrap_or(1);
    BitwidthReport {
        pc_floor,
        block_floors,
        program_floor,
        output_err,
        hazards: hazards_at_1,
    }
}

/// The `nvp-lint` pass surfacing the bitwidth analysis as diagnostics.
///
/// Inert unless the analysis configuration carries a
/// [`DeclaredBits`]: the lints judge a *declared* operating range, so a
/// bare program with no declaration has nothing to check.
#[derive(Debug, Default)]
pub struct BitwidthPass;

impl Pass for BitwidthPass {
    fn name(&self) -> &'static str {
        "bitwidth"
    }

    fn run(&self, cx: &PassContext<'_>) -> Vec<Diagnostic> {
        if cx.config.declared.is_none() {
            return Vec::new();
        }
        let report = bitwidth_report(
            cx.program,
            cx.cfg,
            cx.config.sanitized_regs,
            cx.config.mem_words,
        );
        self.diagnostics(cx, &report).diagnostics
    }
}

impl BitwidthPass {
    /// The lints over `report`, the [`bitwidth_report`] of `cx`, in
    /// report order: what [`Pass::run`] returns, without computing the
    /// report again.
    pub fn diagnostics(&self, cx: &PassContext<'_>, report: &BitwidthReport) -> AnalysisReport {
        let Some(declared) = cx.config.declared else {
            return AnalysisReport::default();
        };
        let mut out = Vec::new();
        // Hazards standing at the declared minimum setting.
        for h in hazards_at(
            cx.program,
            cx.cfg,
            cx.config.sanitized_regs,
            cx.config.mem_words,
            declared.minbits,
        ) {
            let d = match h.kind {
                HazardKind::BranchDeviation(r) => Diagnostic::at(
                    LintCode::ApproxUnsafeAddressOrBranch,
                    h.pc,
                    format!(
                        "branch operand {r} can deviate at the declared minimum of \
                         {} bits: control flow may diverge from the exact run",
                        declared.minbits
                    ),
                ),
                HazardKind::AddressDeviation(r) => Diagnostic::at(
                    LintCode::ApproxUnsafeAddressOrBranch,
                    h.pc,
                    format!(
                        "indirect base {r} can deviate at the declared minimum of \
                         {} bits: the access may fault or alias other data",
                        declared.minbits
                    ),
                ),
                HazardKind::AddressRange(r) => Diagnostic::at(
                    LintCode::ApproxUnsafeAddressOrBranch,
                    h.pc,
                    format!(
                        "sanitized base {r} deviates at {} bits and its address \
                         range is not provably inside data memory",
                        declared.minbits
                    ),
                ),
                HazardKind::Wraparound(r) => Diagnostic::at(
                    LintCode::ExactValueOverflow,
                    h.pc,
                    format!(
                        "{r} may wrap around i32 before reaching this branch/address: \
                         unsafe at every bitwidth"
                    ),
                ),
            };
            out.push(d.with_context(cx.program));
        }
        if declared.minbits > report.program_floor {
            out.push(Diagnostic::program_level(
                LintCode::OverConservativeBits,
                format!(
                    "declared minimum of {} bits is over-conservative: {} bits are \
                     statically proven safe for every instruction",
                    declared.minbits, report.program_floor
                ),
            ));
        }
        AnalysisReport::sorted(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalysisConfig;
    use nvp_isa::ProgramBuilder;

    /// Loop over a table indexed by a clamped AC-derived value — the
    /// SUSAN shape. Safe at every bitwidth thanks to the clamp.
    fn clamped_kernel() -> Program {
        let mut b = ProgramBuilder::new();
        b.mark_ac(Reg(4)).approx_region(20, 40);
        b.ld(Reg(4), 25)
            .add(Reg(4), Reg(4), Reg(4))
            .maxi(Reg(7), Reg(4), 0)
            .mini(Reg(7), Reg(7), 8)
            .ld_ind(Reg(5), Reg(7), 0)
            .halt();
        b.build().unwrap()
    }

    #[test]
    fn clamped_sanitized_index_is_safe_at_one_bit() {
        let p = clamped_kernel();
        let cfg = Cfg::build(&p);
        let report = bitwidth_report(&p, &cfg, 1 << 7, Some(64));
        assert_eq!(report.program_floor, 1, "hazards: {:?}", report.hazards);
    }

    #[test]
    fn unsanitized_deviating_index_floors_above_one() {
        let p = clamped_kernel();
        let cfg = Cfg::build(&p);
        // Same program, no sanitization declared: the index deviates at
        // every reduced setting (even 7 bits truncates one stored bit),
        // and doubling an unknown region word can wrap even at full
        // precision, so no setting is accepted at all.
        let report = bitwidth_report(&p, &cfg, 0, Some(64));
        assert_eq!(
            report.program_floor, NEVER_SAFE,
            "hazards: {:?}",
            report.hazards
        );
        assert!(report
            .hazards
            .iter()
            .any(|h| matches!(h.kind, HazardKind::AddressDeviation(r) if r == Reg(7))));
        assert!(report
            .hazards
            .iter()
            .any(|h| matches!(h.kind, HazardKind::Wraparound(r) if r == Reg(7))));
    }

    #[test]
    fn sanitized_index_with_unprovable_range_is_flagged() {
        // The clamp allows [0, 8] but memory only has 5 words: the
        // sanitized exemption must not silence the range check.
        let p = clamped_kernel();
        let cfg = Cfg::build(&p);
        let report = bitwidth_report(&p, &cfg, 1 << 7, Some(5));
        assert!(report.program_floor > 1);
        assert!(report
            .hazards
            .iter()
            .any(|h| matches!(h.kind, HazardKind::AddressRange(_))));
    }

    #[test]
    fn precise_loop_floors_at_one_bit() {
        let mut b = ProgramBuilder::new();
        b.mark_ac(Reg(4)).approx_region(100, 200);
        let (i, n) = (Reg(0), Reg(1));
        b.ldi(i, 0).ldi(n, 16);
        let top = b.label();
        b.place(top);
        b.ld_ind(Reg(4), i, 100)
            .addi(Reg(4), Reg(4), 3)
            .st_ind(i, 100, Reg(4))
            .addi(i, i, 1)
            .brlt(i, n, top);
        b.halt();
        let p = b.build().unwrap();
        let cfg = Cfg::build(&p);
        let report = bitwidth_report(&p, &cfg, 0, Some(256));
        assert_eq!(report.program_floor, 1, "hazards: {:?}", report.hazards);
        // Output error shrinks monotonically toward exactness.
        assert!(report.output_err[0] >= report.output_err[6]);
        assert_eq!(report.output_err[7], 0);
    }

    #[test]
    fn wrapped_branch_operand_is_never_safe() {
        let mut b = ProgramBuilder::new();
        let (i, n) = (Reg(0), Reg(1));
        b.ldi(i, i32::MAX - 3).ldi(n, 0);
        let top = b.label();
        b.place(top);
        b.addi(i, i, 1).brlt(n, i, top);
        b.halt();
        let p = b.build().unwrap();
        let cfg = Cfg::build(&p);
        let report = bitwidth_report(&p, &cfg, 0, None);
        assert_eq!(report.program_floor, NEVER_SAFE);
    }

    #[test]
    fn pass_is_inert_without_a_declaration() {
        let p = clamped_kernel();
        let cfg = Cfg::build(&p);
        let cx = PassContext {
            program: &p,
            cfg: &cfg,
            config: &AnalysisConfig::default(),
        };
        assert!(BitwidthPass.run(&cx).is_empty());
    }

    #[test]
    fn declared_range_produces_e004_and_w003() {
        let p = clamped_kernel();
        let cfg = Cfg::build(&p);
        // Unsafe declaration: 1 bit minimum with no sanitization.
        let cx_cfg = AnalysisConfig {
            sanitized_regs: 0,
            mem_words: Some(64),
            declared: Some(DeclaredBits::new(1, 8)),
        };
        let cx = PassContext {
            program: &p,
            cfg: &cfg,
            config: &cx_cfg,
        };
        let diags = BitwidthPass.run(&cx);
        assert!(diags
            .iter()
            .any(|d| d.code == LintCode::ApproxUnsafeAddressOrBranch));
        // Over-conservative declaration: floor is 1 when sanitized, but
        // the kernel declares 6.
        let cx_cfg = AnalysisConfig {
            sanitized_regs: 1 << 7,
            mem_words: Some(64),
            declared: Some(DeclaredBits::new(6, 8)),
        };
        let cx = PassContext {
            program: &p,
            cfg: &cfg,
            config: &cx_cfg,
        };
        let diags = BitwidthPass.run(&cx);
        assert!(diags
            .iter()
            .any(|d| d.code == LintCode::OverConservativeBits));
        assert!(!diags
            .iter()
            .any(|d| d.code == LintCode::ApproxUnsafeAddressOrBranch));
    }
}
