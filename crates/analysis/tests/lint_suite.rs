//! Integration tests: the whole kernel suite lints clean, and the
//! fixpoint passes catch defects a linear register-only scan cannot.

use nvp_analysis::{analyze_program, AnalysisConfig, DeclaredBits, LintCode, Severity};
use nvp_isa::{ProgramBuilder, Reg};
use nvp_kernels::KernelId;

/// Every kernel generator must produce a program with zero violations
/// (warnings or errors) under the default pass pipeline — including the
/// bitwidth pass judging each kernel's declared governor range against
/// its statically derived floor.
#[test]
fn every_kernel_lints_clean() {
    for id in KernelId::ALL {
        let (w, h) = id.min_dims();
        let spec = id.spec(w, h);
        let (minbits, maxbits) = id.declared_bits();
        let config = AnalysisConfig {
            sanitized_regs: id.sanitized_regs(),
            mem_words: Some(spec.mem_words),
            declared: Some(DeclaredBits::new(minbits, maxbits)),
        };
        let report = analyze_program(&spec.program, &config);
        let violations: Vec<String> = report
            .at_least(Severity::Warning)
            .map(|d| d.to_string())
            .collect();
        assert!(
            violations.is_empty(),
            "{} has {} violation(s):\n{}",
            id.name(),
            violations.len(),
            violations.join("\n")
        );
        // Every kernel starts with a resume marker, so the backup-liveness
        // pass must report at least one live-set summary.
        assert!(report.count_at_least(Severity::Info) > report.count_at_least(Severity::Warning));
    }
}

/// Taint carried through *memory* around a loop back-edge. The loop body
/// stores an AC register to `[60]`; the next iteration reloads `[60]` and
/// branches on it. A register-only scan sees `ld r5, [60]` as a fresh
/// precise value (absolute loads have no register sources) and would
/// accept the program; the memory-tracking fixpoint pass flags the branch.
#[test]
fn memory_taint_across_back_edge_is_flagged() {
    let mut b = ProgramBuilder::new();
    b.mark_ac(Reg(4)).approx_region(50, 100);
    let (i, n) = (Reg(0), Reg(1));
    b.ldi(i, 0).ldi(n, 4);
    let top = b.label();
    let skip = b.label();
    b.place(top);
    b.ld(Reg(5), 60) // reloads last iteration's tainted store
        .brz(Reg(5), skip); // branch decided by an approximate value
    b.place(skip);
    b.st(60, Reg(4)) // in-region store of AC data taints [60]
        .addi(i, i, 1)
        .brlt(i, n, top);
    b.halt();
    let p = b.build().unwrap();

    let report = analyze_program(&p, &AnalysisConfig::default());
    assert!(report.has_errors());
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.code == LintCode::BranchOnApprox && d.pc == Some(3)));
}

/// One program seeded with every violation class at once: the pipeline
/// reports each under its own lint code.
#[test]
fn seeded_defects_each_get_their_code() {
    let mut b = ProgramBuilder::new();
    b.mark_ac(Reg(4)).approx_region(50, 100);
    b.mark_loop_var(Reg(9)); // never read: dead resume register
    let end = b.label();
    b.mark_resume(0)
        .ld(Reg(0), 60) // read [60] ...
        .addi(Reg(0), Reg(0), 1)
        .st(60, Reg(0)) // ... then write it: WAR hazard
        .ld_ind(Reg(1), Reg(4), 0) // address from AC register
        .st(200, Reg(4)) // tainted store outside the region
        .brz(Reg(4), end); // branch on AC register
    b.place(end);
    b.frame_done().halt();
    let p = b.build().unwrap();
    let report = analyze_program(&p, &AnalysisConfig::default());
    for code in [
        LintCode::BranchOnApprox,
        LintCode::AddressFromApprox,
        LintCode::StoreOutsideRegion,
        LintCode::WarHazard,
        LintCode::DeadResumeReg,
    ] {
        assert!(
            report.diagnostics.iter().any(|d| d.code == code),
            "expected a {code} diagnostic"
        );
    }
}
