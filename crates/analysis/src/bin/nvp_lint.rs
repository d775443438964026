//! `nvp-lint`: run every static-analysis pass over every kernel generator.
//!
//! Exits non-zero if any kernel produces a diagnostic at warning severity
//! or above. Pass `-v`/`--verbose` to also print informational
//! diagnostics (backup live-set summaries). Pass `--bitwidth` for the
//! safe-bits report mode: per-kernel statically proven bitwidth floors,
//! the per-basic-block safe-bits table, and the worst-case output error
//! per governor setting (exits non-zero only on error-level bitwidth
//! diagnostics). Pass `--energy` for the WCEC certification mode:
//! per-kernel, per-region worst-case energy certificates across the
//! declared governor range, judged against the platform capacitor budget
//! (exits non-zero only on error-level energy diagnostics, i.e. provable
//! livelock). Pass `--checkpoint` for the placement-synthesis mode:
//! per-kernel dirty-set analysis and checkpoint placement search, with
//! re-executability (`NVP-E007`) gating the exit code.
//!
//! `--json PATH` works in every mode and writes that mode's report as a
//! pretty-printed JSON artifact built with the workspace's one JSON tree,
//! `nvp_trace::json::Json`: the diagnostic list (default mode), the
//! bitwidth report (`--bitwidth`), the WCEC certificate set (`--energy`),
//! or the placement certificates (`--checkpoint`).

use nvp_analysis::diag::render_legend;
use nvp_analysis::{
    analyze_program, bitwidth_report, default_passes, usable_nj, AnalysisConfig, AnalysisReport,
    BitwidthPass, Cfg, CkptPass, DeclaredBits, Diagnostic, LintCode, Pass, PassContext, Severity,
    TripBound, Wcec, WcecPass, BACKUP_POLICY, CAPACITOR_NJ, NEVER_SAFE, RESERVE_SAFETY,
};
use nvp_kernels::KernelId;
use nvp_trace::json::Json;
use std::process::ExitCode;

fn kernel_config(id: KernelId, mem_words: usize) -> AnalysisConfig {
    let (minbits, maxbits) = id.declared_bits();
    AnalysisConfig {
        sanitized_regs: id.sanitized_regs(),
        mem_words: Some(mem_words),
        declared: Some(DeclaredBits::new(minbits, maxbits)),
    }
}

const USAGE: &str =
    "usage: nvp-lint [-v|--verbose] [--bitwidth|--energy|--checkpoint] [--json PATH]";

fn main() -> ExitCode {
    let mut verbose = false;
    let mut bitwidth = false;
    let mut energy = false;
    let mut checkpoint = false;
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-v" | "--verbose" => verbose = true,
            "--bitwidth" => bitwidth = true,
            "--energy" => energy = true,
            "--checkpoint" => checkpoint = true,
            "--json" => match args.next() {
                Some(p) => json_path = Some(p),
                None => {
                    eprintln!("nvp-lint: --json requires a path");
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("nvp-lint: unknown argument `{other}`");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let mode = match (bitwidth, energy, checkpoint) {
        (false, false, false) => Mode::Lint,
        (true, false, false) => Mode::Bitwidth,
        (false, true, false) => Mode::Energy,
        (false, false, true) => Mode::Checkpoint,
        _ => {
            eprintln!("nvp-lint: pick one of --bitwidth / --energy / --checkpoint");
            return ExitCode::from(2);
        }
    };
    run(mode, verbose, json_path.as_deref())
}

/// The report `nvp-lint` makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The default lint pipeline.
    Lint,
    /// `--bitwidth`: safe-bits floors and output error bounds.
    Bitwidth,
    /// `--energy`: WCEC certificates and the forward-progress lints.
    Energy,
    /// `--checkpoint`: dirty sets and placement synthesis.
    Checkpoint,
}

impl Mode {
    /// The artifact's `schema` and `generated_by` fields.
    fn artifact(self) -> (&'static str, &'static str) {
        match self {
            Mode::Lint => ("nvp-lint-report-v1", "nvp-lint"),
            Mode::Bitwidth => ("nvp-bitwidth-report-v1", "nvp-lint --bitwidth"),
            Mode::Energy => ("nvp-wcec-cert-v1", "nvp-lint --energy"),
            Mode::Checkpoint => ("nvp-ckpt-report-v1", "nvp-lint --checkpoint"),
        }
    }

    /// The lint codes the legend explains.
    fn legend(self) -> &'static [LintCode] {
        match self {
            Mode::Lint => &[
                LintCode::BranchOnApprox,
                LintCode::AddressFromApprox,
                LintCode::StoreOutsideRegion,
                LintCode::ApproxUnsafeAddressOrBranch,
                LintCode::ExactValueOverflow,
                LintCode::WarHazard,
                LintCode::DeadResumeReg,
                LintCode::OverConservativeBits,
                LintCode::BackupLiveSet,
            ],
            Mode::Bitwidth => &[
                LintCode::ApproxUnsafeAddressOrBranch,
                LintCode::ExactValueOverflow,
                LintCode::OverConservativeBits,
            ],
            Mode::Energy => &[
                LintCode::RegionLivelock,
                LintCode::UnboundedLoop,
                LintCode::WcecHeadroom,
            ],
            Mode::Checkpoint => &[
                LintCode::WarHazard,
                LintCode::DirtyNotReexecutable,
                LintCode::NoFeasiblePlacement,
                LintCode::PlacementSavings,
            ],
        }
    }

    /// The summary's counts: `diags` diagnostics in all, of which `gate`
    /// fail the run (warnings and errors by default, errors otherwise).
    fn summary(self, diags: usize, gate: usize) -> String {
        match self {
            Mode::Lint => format!("{diags} diagnostics, {gate} violations"),
            Mode::Bitwidth => format!("{gate} error-level bitwidth diagnostics"),
            Mode::Energy => format!("{gate} error-level energy diagnostics"),
            Mode::Checkpoint => format!("{gate} error-level checkpoint diagnostics"),
        }
    }
}

/// What one kernel adds to a run, once its table lines are printed.
struct Kernel {
    /// Diagnostics that fail the run.
    gate: usize,
    /// All diagnostics the kernel drew.
    diags: usize,
    /// The kernel's artifact fields after `kernel`, `width` and `height`.
    json: Vec<(&'static str, Json)>,
}

/// Lints every kernel in `mode`, then writes the artifact, the legend and
/// the summary. Exits 1 if any kernel has a gating diagnostic, 2 if the
/// artifact cannot be written.
fn run(mode: Mode, verbose: bool, json_path: Option<&str>) -> ExitCode {
    let (mut gate, mut diags) = (0usize, 0usize);
    let mut kernels_json = Vec::new();
    for id in KernelId::ALL {
        let (w, h) = id.min_dims();
        let spec = id.spec(w, h);
        let cfg = Cfg::build(&spec.program);
        let config = kernel_config(id, spec.mem_words);
        let cx = PassContext {
            program: &spec.program,
            cfg: &cfg,
            config: &config,
        };
        print!("{:<16} {}x{:<3} ", id.name(), w, h);
        let kernel = match mode {
            Mode::Lint => lint_kernel(&cx, verbose),
            Mode::Bitwidth => bitwidth_kernel(id, &cx, verbose),
            Mode::Energy => energy_kernel(id, &cx, verbose),
            Mode::Checkpoint => checkpoint_kernel(&cx, verbose),
        };
        gate += kernel.gate;
        diags += kernel.diags;
        let mut fields = vec![
            ("kernel", Json::str(id.name())),
            ("width", Json::Num(w as f64)),
            ("height", Json::Num(h as f64)),
        ];
        fields.extend(kernel.json);
        kernels_json.push(Json::obj(fields));
    }

    if let Some(path) = json_path {
        let (schema, generated_by) = mode.artifact();
        let mut root = vec![
            ("schema", Json::str(schema)),
            ("generated_by", Json::str(generated_by)),
        ];
        if matches!(mode, Mode::Energy | Mode::Checkpoint) {
            root.push(("budget", budget_json()));
        }
        root.push(("kernels", Json::Arr(kernels_json)));
        if !write_json_artifact(path, &Json::obj(root)) {
            return ExitCode::from(2);
        }
    }

    print!("\n{}", render_legend(mode.legend()));
    println!(
        "\n{} kernels checked, {}",
        KernelId::ALL.len(),
        mode.summary(diags, gate)
    );
    if gate == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints `report`'s diagnostics at or above `floor`, indented under the
/// kernel's table.
fn print_diags(report: &AnalysisReport, floor: Severity) {
    for d in report.at_least(floor) {
        for line in d.to_string().lines() {
            println!("    {line}");
        }
    }
}

/// The severity floor of the printed diagnostics: warnings, or
/// everything with `-v`.
fn shown(verbose: bool) -> Severity {
    if verbose {
        Severity::Info
    } else {
        Severity::Warning
    }
}

/// One diagnostic as a JSON object (shared by every mode's artifact).
fn diag_json(d: &Diagnostic) -> Json {
    Json::obj(vec![
        ("code", Json::str(d.code.as_str())),
        ("severity", Json::str(d.severity().to_string())),
        ("pc", d.pc.map_or(Json::Null, |pc| Json::Num(pc as f64))),
        ("message", Json::str(d.message.clone())),
    ])
}

/// The platform envelope, as the `--energy` and `--checkpoint`
/// artifacts record it.
fn budget_json() -> Json {
    Json::obj(vec![
        ("capacity_nj", Json::num(CAPACITOR_NJ)),
        ("reserve_safety", Json::num(RESERVE_SAFETY)),
        ("backup_policy", Json::str(format!("{BACKUP_POLICY:?}"))),
    ])
}

/// Writes `json` to `path`; returns false (after printing) on failure.
fn write_json_artifact(path: &str, json: &Json) -> bool {
    let mut text = json.render_pretty();
    text.push('\n');
    match std::fs::write(path, text) {
        Ok(()) => {
            println!("\nreport written to {path}");
            true
        }
        Err(e) => {
            eprintln!("nvp-lint: cannot write {path}: {e}");
            false
        }
    }
}

/// The default mode: the lint pipeline's verdict and diagnostics.
fn lint_kernel(cx: &PassContext<'_>, verbose: bool) -> Kernel {
    let report = analyze_program(cx.program, cx.config);
    let violations = report.count_at_least(Severity::Warning);
    let status = if violations == 0 { "ok" } else { "FAIL" };
    println!("{:>4} instrs  {status}", cx.program.len());
    print_diags(&report, shown(verbose));
    Kernel {
        gate: violations,
        diags: report.diagnostics.len(),
        json: vec![
            ("instrs", Json::Num(cx.program.len() as f64)),
            ("violations", Json::Num(violations as f64)),
            (
                "diagnostics",
                Json::Arr(report.diagnostics.iter().map(diag_json).collect()),
            ),
        ],
    }
}

fn fmt_bits(b: u8) -> String {
    if b >= NEVER_SAFE {
        "unsafe".to_string()
    } else {
        b.to_string()
    }
}

/// A kernel's declared governor range as `[minbits, maxbits]`.
fn declared_json(minbits: u8, maxbits: u8) -> Json {
    Json::Arr(vec![
        Json::Num(f64::from(minbits)),
        Json::Num(f64::from(maxbits)),
    ])
}

/// A safe-bits floor, `null` when no width is safe.
fn floor_json(bits: u8) -> Json {
    if bits >= NEVER_SAFE {
        Json::Null
    } else {
        Json::Num(f64::from(bits))
    }
}

fn fmt_err(e: u64) -> String {
    if e == u64::MAX {
        "unbounded".to_string()
    } else {
        e.to_string()
    }
}

/// The `--bitwidth` report: the kernel's floor, per-block safe-bits
/// table and per-setting output error bounds.
fn bitwidth_kernel(id: KernelId, cx: &PassContext<'_>, verbose: bool) -> Kernel {
    let report = bitwidth_report(
        cx.program,
        cx.cfg,
        cx.config.sanitized_regs,
        cx.config.mem_words,
    );
    let (minbits, maxbits) = id.declared_bits();
    println!(
        "floor {:<7} declared {}..={}",
        fmt_bits(report.program_floor),
        minbits,
        maxbits,
    );
    println!("    block     pcs          safe-bits");
    for b in &report.block_floors {
        println!(
            "    {:>4}   [{:>4}, {:>4})      {}",
            cx.cfg.block_of(b.start),
            b.start,
            b.end,
            fmt_bits(b.floor)
        );
    }
    let errs: Vec<String> = (1..=8u8)
        .map(|bits| format!("{bits}b:{}", fmt_err(report.output_err[bits as usize - 1])))
        .collect();
    println!("    output-error by setting: {}", errs.join("  "));
    if verbose {
        for hz in &report.hazards {
            println!("    hazard at pc {}: {:?}", hz.pc, hz.kind);
        }
    }
    // E-level diagnostics from the full pipeline gate the exit code. The
    // bitwidth pass (the last default pass, so the order holds) lints the
    // report above instead of computing it again.
    let diags: AnalysisReport = default_passes()
        .iter()
        .filter(|p| p.name() != BitwidthPass.name())
        .flat_map(|p| p.run(cx))
        .chain(BitwidthPass.diagnostics(cx, &report).diagnostics)
        .collect();
    let errors = diags.count_at_least(Severity::Error);
    print_diags(&diags, Severity::Error);

    let blocks = report
        .block_floors
        .iter()
        .map(|b| {
            Json::obj(vec![
                ("start", Json::Num(b.start as f64)),
                ("end", Json::Num(b.end as f64)),
                ("floor", floor_json(b.floor)),
            ])
        })
        .collect();
    let output_err = report
        .output_err
        .iter()
        .map(|&e| {
            if e == u64::MAX {
                Json::Null
            } else {
                Json::Num(e as f64)
            }
        })
        .collect();
    Kernel {
        gate: errors,
        diags: diags.diagnostics.len(),
        json: vec![
            ("declared", declared_json(minbits, maxbits)),
            ("program_floor", floor_json(report.program_floor)),
            ("blocks", Json::Arr(blocks)),
            ("output_err", Json::Arr(output_err)),
            ("errors", Json::Num(errors as f64)),
        ],
    }
}

fn fmt_wcec(w: Wcec) -> String {
    match w {
        Wcec::Bounded(nj) => format!("{nj:.1}"),
        Wcec::Unbounded => "unbounded".to_string(),
    }
}

fn json_wcec(w: Wcec) -> Json {
    w.nj().map_or(Json::Null, Json::num)
}

/// The `--energy` report: the kernel's per-region WCEC certificates
/// across its declared governor range, plus the forward-progress lints
/// judged on those same certificates.
fn energy_kernel(id: KernelId, cx: &PassContext<'_>, verbose: bool) -> Kernel {
    let certs = WcecPass.certificates(cx);
    let report = WcecPass.diagnostics(cx, &certs);
    let (minbits, maxbits) = id.declared_bits();
    let floor = certs.first().expect("declared range is non-empty");
    let ceil = certs.last().expect("declared range is non-empty");
    println!(
        "declared {}..={}  program WCEC {}@{}b {}@{}b nJ",
        minbits,
        maxbits,
        fmt_wcec(floor.program),
        floor.bits,
        fmt_wcec(ceil.program),
        ceil.bits,
    );
    println!(
        "    region        start  pcs   WCEC@{}b   WCEC@{}b   min@{}b  (nJ)",
        floor.bits, ceil.bits, floor.bits
    );
    for (ri, region) in floor.regions.iter().enumerate() {
        println!(
            "    {:<12} {:>6} {:>4}  {:>9}  {:>9}  {:>8.1}",
            region.kind.to_string(),
            region.start_pc,
            region.pcs.len(),
            fmt_wcec(region.wcec),
            fmt_wcec(ceil.regions[ri].wcec),
            region.min_nj,
        );
    }
    let bounded = floor
        .loops
        .loops
        .iter()
        .filter(|l| l.bound.is_bounded())
        .count();
    println!(
        "    loops: {} found, {} bounded at {}b; usable budget {:.1} nJ at {}b",
        floor.loops.loops.len(),
        bounded,
        floor.bits,
        usable_nj(floor.bits),
        floor.bits,
    );
    // Lints: E006 gates the exit; W004/I002 inform.
    print_diags(&report, shown(verbose));

    let certificates = certs
        .iter()
        .map(|cert| {
            let regions = cert
                .regions
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("start_pc", Json::Num(r.start_pc as f64)),
                        ("kind", Json::str(r.kind.to_string())),
                        ("pcs", Json::Num(r.pcs.len() as f64)),
                        ("wcec_nj", json_wcec(r.wcec)),
                        ("min_nj", Json::num(r.min_nj)),
                    ])
                })
                .collect();
            let loops = cert
                .loops
                .loops
                .iter()
                .map(|l| {
                    let bound = match l.bound {
                        TripBound::Bounded(n) => Json::Num(n as f64),
                        TripBound::Unbounded => Json::Null,
                    };
                    Json::obj(vec![
                        ("head_pc", Json::Num(l.head_pc(cx.cfg) as f64)),
                        ("bound", bound),
                        ("min_bound", Json::Num(l.min_bound as f64)),
                        ("stride", Json::Num(l.stride as f64)),
                    ])
                })
                .collect();
            Json::obj(vec![
                ("bits", Json::Num(f64::from(cert.bits))),
                ("usable_nj", Json::num(usable_nj(cert.bits))),
                ("program_nj", json_wcec(cert.program)),
                ("regions", Json::Arr(regions)),
                ("loops", Json::Arr(loops)),
            ])
        })
        .collect();
    let errors = report.count_at_least(Severity::Error);
    let warnings = report.count_at_least(Severity::Warning) - errors;
    Kernel {
        gate: errors,
        diags: report.diagnostics.len(),
        json: vec![
            ("declared", declared_json(minbits, maxbits)),
            ("errors", Json::Num(errors as f64)),
            ("warnings", Json::Num(warnings as f64)),
            ("certificates", Json::Arr(certificates)),
        ],
    }
}

/// The `--checkpoint` report: the kernel's dirty-set analysis and
/// checkpoint placement synthesis, plus the lints judged on that same
/// synthesis.
fn checkpoint_kernel(cx: &PassContext<'_>, verbose: bool) -> Kernel {
    let synth = CkptPass.synthesis(cx);
    let report = CkptPass.diagnostics(cx, &synth);
    println!(
        "bits {}..={}  declared {} ckpt {:.2} nJ | synthesized {} ckpt {:.2} nJ ({:+.1}%)",
        synth.bits_lo,
        synth.bits_hi,
        synth.declared.checkpoints.len(),
        synth.declared.cost_nj(),
        synth.synthesized.checkpoints.len(),
        synth.synthesized.cost_nj(),
        -synth.savings_pct,
    );
    println!(
        "    placement  region        start  pcs  dirty-regs  dirty-mem  hazards  WCEC@{}b (nJ)",
        synth.bits_hi
    );
    for (tag, eval) in [("declared", &synth.declared), ("synth", &synth.synthesized)] {
        if !verbose && tag == "synth" && eval.checkpoints == synth.declared.checkpoints {
            continue;
        }
        for r in &eval.regions {
            println!(
                "    {:<9}  {:<12} {:>6} {:>4}  {:>10} {:>10}  {:>7}  {}",
                tag,
                r.kind.to_string(),
                r.start_pc,
                r.len,
                r.dirty_regs.count_ones(),
                match r.mem_dirty_words {
                    Some(n) => n.to_string(),
                    None => "whole".to_string(),
                },
                r.hazard_pcs.len(),
                match r.wcec_hi_nj {
                    Some(nj) => format!("{nj:.1}"),
                    None => "unbounded".to_string(),
                },
            );
        }
    }
    if !synth.synthesized.infeasible_bits.is_empty() {
        println!(
            "    infeasible at bits {:?}",
            synth.synthesized.infeasible_bits
        );
    }
    // Lints: E007 gates the exit; W005/I003 inform.
    print_diags(&report, shown(verbose));

    let errors = report.count_at_least(Severity::Error);
    Kernel {
        gate: errors,
        diags: report.diagnostics.len(),
        json: vec![
            ("errors", Json::Num(errors as f64)),
            (
                "diagnostics",
                Json::Arr(report.diagnostics.iter().map(diag_json).collect()),
            ),
            ("certificate", synth.to_json()),
        ],
    }
}
