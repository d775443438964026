//! Diagnostics: stable lint codes, severities, and rendering with
//! disassembly context.
//!
//! Every finding a pass emits is a [`Diagnostic`] carrying a stable
//! [`LintCode`] (so CI filters and suppression lists survive message-text
//! changes), the offending pc, and an optional disassembly snippet around
//! the instruction.

use nvp_isa::Program;
use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: analysis facts (e.g. backup live-set sizes).
    Info,
    /// Likely defect: the program may silently corrupt results.
    Warning,
    /// Definite contract violation: the program is unsafe to approximate.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => f.write_str("info"),
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// Declares [`LintCode`] from one table: each code's variant (with its
/// docs), stable code string and one-line legend description, in legend
/// order (errors, warnings, infos). The severity is the code's letter.
macro_rules! lint_codes {
    ($($(#[$doc:meta])* $name:ident = $code:literal, $text:literal;)*) => {
        /// Stable lint codes, one per distinct finding class.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum LintCode {
            $(
                #[doc = concat!("`", $code, "`:")]
                $(#[$doc])*
                $name,
            )*
        }

        impl LintCode {
            /// Every lint code, in legend order (errors, warnings, infos).
            pub const ALL: [LintCode; [$($code),*].len()] = [$(LintCode::$name),*];

            /// The stable code string (`NVP-E001`, …).
            pub fn as_str(self) -> &'static str {
                match self {
                    $(LintCode::$name => $code,)*
                }
            }

            /// One-line legend description.
            pub fn description(self) -> &'static str {
                match self {
                    $(LintCode::$name => $text,)*
                }
            }
        }
    };
}

lint_codes! {
    /// a branch condition reads an approximate register.
    BranchOnApprox = "NVP-E001", "branch condition reads an approximate register";
    /// an effective address is computed from an approximate register.
    AddressFromApprox = "NVP-E002", "effective address computed from an approximate register";
    /// an approximate value is stored outside the declared approximable
    /// region.
    StoreOutsideRegion = "NVP-E003", "approximate store outside the declared region";
    /// at the kernel's declared minimum bitwidth a branch operand or
    /// indirect base can deviate from the exact run (control flow or
    /// addressing is not approximation-safe).
    ApproxUnsafeAddressOrBranch = "NVP-E004",
        "control flow or addressing deviates at the declared bit floor";
    /// a branch operand or indirect base may stem from concrete `i32`
    /// wraparound — unsafe at every bitwidth.
    ExactValueOverflow = "NVP-E005", "possible exact-value wraparound reaches a branch/address";
    /// a checkpoint-to-checkpoint region's worst-case energy exceeds the
    /// usable capacitor energy at every governor setting — the region can
    /// provably never complete (livelock).
    RegionLivelock = "NVP-E006",
        "region's cheapest traversal exceeds the capacitor at every setting";
    /// a checkpoint-to-checkpoint region is not provably re-executable
    /// under its `live ∩ dirty` backup mask (a WAR hazard survives the
    /// dirty-set restriction).
    DirtyNotReexecutable = "NVP-E007",
        "region not provably re-executable under its live∩dirty mask";
    /// a non-idempotent write inside a roll-forward region
    /// (write-after-read of the same NV location).
    WarHazard = "NVP-W001", "non-idempotent write inside a roll-forward region";
    /// a register in the resume loop-variable mask is never read — its
    /// backed-up value can never influence resume matching.
    DeadResumeReg = "NVP-W002", "resume loop-variable register is never read";
    /// the kernel's declared minimum bitwidth is provably
    /// over-conservative — a lower floor is statically safe.
    OverConservativeBits = "NVP-W003", "declared bit floor is provably over-conservative";
    /// a loop's trip count could not be bounded, so the WCEC certificate
    /// is unbounded along paths through it.
    UnboundedLoop = "NVP-W004", "loop trip count could not be bounded";
    /// no checkpoint placement is simultaneously re-executable and
    /// WCEC-feasible at some governor bitwidth.
    NoFeasiblePlacement = "NVP-W005",
        "no re-executable, WCEC-feasible checkpoint placement at some bitwidth";
    /// backup live-set report at a resume point.
    BackupLiveSet = "NVP-I001", "backup live-set report at a resume point";
    /// WCEC headroom report — worst region energy vs. the usable capacitor
    /// budget at the declared operating floor.
    WcecHeadroom = "NVP-I002", "WCEC headroom vs. the usable capacitor budget";
    /// the synthesized checkpoint placement saves a significant fraction
    /// of backup energy vs. the declared placement.
    PlacementSavings = "NVP-I003",
        "synthesized placement saves significant backup energy vs. declared";
}

impl LintCode {
    /// The severity this code always carries: the letter after `NVP-`
    /// (`E` error, `W` warning, `I` info).
    pub fn severity(self) -> Severity {
        match self.as_str().as_bytes()[4] {
            b'E' => Severity::Error,
            b'W' => Severity::Warning,
            _ => Severity::Info,
        }
    }
}

/// Renders the shared lint-code legend for a report mode.
///
/// Every `nvp-lint` mode (default, `--bitwidth`, `--energy`) prints the
/// legend for the codes it can emit through this one helper, so the
/// formatting cannot drift between modes: one `  CODE  severity  text`
/// line per code, in [`LintCode::ALL`] order.
pub fn render_legend(codes: &[LintCode]) -> String {
    let mut out = String::from("legend:\n");
    for code in LintCode::ALL {
        if codes.contains(&code) {
            out.push_str(&format!(
                "  {}  {:<7}  {}\n",
                code.as_str(),
                code.severity().to_string(),
                code.description()
            ));
        }
    }
    out
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding from one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable lint code.
    pub code: LintCode,
    /// Offending instruction index, if the finding is anchored to one.
    pub pc: Option<usize>,
    /// Human-readable description.
    pub message: String,
    /// Disassembly context lines (built by [`Diagnostic::with_context`]).
    pub context: Vec<String>,
}

impl Diagnostic {
    /// Creates a diagnostic anchored at `pc`.
    pub fn at(code: LintCode, pc: usize, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            pc: Some(pc),
            message: message.into(),
            context: Vec::new(),
        }
    }

    /// Creates a program-level diagnostic (no single pc).
    pub fn program_level(code: LintCode, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            pc: None,
            message: message.into(),
            context: Vec::new(),
        }
    }

    /// The severity of this diagnostic (derived from its code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// Attaches ±1 instructions of disassembly around the anchor pc,
    /// marking the offending line with `>`.
    pub fn with_context(mut self, program: &Program) -> Self {
        if let Some(pc) = self.pc {
            let lo = pc.saturating_sub(1);
            let hi = (pc + 2).min(program.len());
            for at in lo..hi {
                if let Some(i) = program.fetch(at) {
                    let marker = if at == pc { '>' } else { ' ' };
                    self.context.push(format!("{marker} {at:4} | {i}"));
                }
            }
        }
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity(), self.code, self.message)?;
        if let Some(pc) = self.pc {
            write!(f, " (pc {pc})")?;
        }
        for line in &self.context {
            write!(f, "\n    {line}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_isa::{ProgramBuilder, Reg};
    use nvp_trace::json::Json;

    #[test]
    fn codes_are_stable_and_severities_fixed() {
        assert_eq!(LintCode::BranchOnApprox.as_str(), "NVP-E001");
        assert_eq!(LintCode::ApproxUnsafeAddressOrBranch.as_str(), "NVP-E004");
        assert_eq!(LintCode::ExactValueOverflow.as_str(), "NVP-E005");
        assert_eq!(LintCode::WarHazard.as_str(), "NVP-W001");
        assert_eq!(LintCode::OverConservativeBits.as_str(), "NVP-W003");
        assert_eq!(LintCode::RegionLivelock.as_str(), "NVP-E006");
        assert_eq!(LintCode::UnboundedLoop.as_str(), "NVP-W004");
        assert_eq!(LintCode::WcecHeadroom.as_str(), "NVP-I002");
        assert_eq!(LintCode::DirtyNotReexecutable.as_str(), "NVP-E007");
        assert_eq!(LintCode::NoFeasiblePlacement.as_str(), "NVP-W005");
        assert_eq!(LintCode::PlacementSavings.as_str(), "NVP-I003");
        assert_eq!(LintCode::ExactValueOverflow.severity(), Severity::Error);
        assert_eq!(LintCode::RegionLivelock.severity(), Severity::Error);
        assert_eq!(LintCode::DirtyNotReexecutable.severity(), Severity::Error);
        assert_eq!(LintCode::OverConservativeBits.severity(), Severity::Warning);
        assert_eq!(LintCode::UnboundedLoop.severity(), Severity::Warning);
        assert_eq!(LintCode::NoFeasiblePlacement.severity(), Severity::Warning);
        assert_eq!(LintCode::BackupLiveSet.severity(), Severity::Info);
        assert_eq!(LintCode::WcecHeadroom.severity(), Severity::Info);
        assert_eq!(LintCode::PlacementSavings.severity(), Severity::Info);
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn all_covers_every_code_exactly_once() {
        let mut strs: Vec<&str> = LintCode::ALL.iter().map(|c| c.as_str()).collect();
        strs.sort_unstable();
        strs.dedup();
        assert_eq!(strs.len(), LintCode::ALL.len());
        // Legend order is errors, warnings, infos, each by number, and the
        // letter names the severity.
        for pair in LintCode::ALL.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(
                a.severity() > b.severity()
                    || (a.severity() == b.severity() && a.as_str() < b.as_str()),
                "{a} before {b}"
            );
        }
        for code in LintCode::ALL {
            let s = code.as_str();
            assert!(
                s.len() == 8 && s.starts_with("NVP-") && s[5..].parse::<u16>().is_ok(),
                "{s}"
            );
            assert!("EWI".contains(&s[4..5]), "{s}");
        }
    }

    #[test]
    fn legend_renders_requested_codes_in_stable_order() {
        let s = render_legend(&[LintCode::WcecHeadroom, LintCode::RegionLivelock]);
        let e = s.find("NVP-E006").expect("E006 in legend");
        let i = s.find("NVP-I002").expect("I002 in legend");
        assert!(e < i, "errors precede infos:\n{s}");
        assert!(!s.contains("NVP-E001"));
        assert!(s.contains("error"));
        assert!(s.contains("cheapest traversal exceeds"), "{s}");
    }

    #[test]
    fn display_includes_code_pc_and_context() {
        let mut b = ProgramBuilder::new();
        b.ldi(Reg(0), 1).st(5, Reg(0)).halt();
        let p = b.build().unwrap();
        let d = Diagnostic::at(LintCode::WarHazard, 1, "write-after-read of [5]").with_context(&p);
        let s = d.to_string();
        assert!(s.contains("NVP-W001"), "{s}");
        assert!(s.contains("(pc 1)"), "{s}");
        assert!(s.contains(">    1 | st"), "{s}");
        assert!(s.contains("     0 | ldi"), "{s}");
    }

    #[test]
    fn program_level_has_no_pc() {
        let d = Diagnostic::program_level(LintCode::DeadResumeReg, "r9 never read");
        assert!(d.pc.is_none());
        assert!(!d.to_string().contains("pc"));
    }

    /// Lint artifacts are the shared tree rendered pretty; the layout
    /// (two-space indent, `": "`, `[]`/`{}` for empties, trailing
    /// newline) is the `--json` format CI and downstream tools read.
    #[test]
    fn json_round_trips_structures() {
        let obj = Json::obj(vec![
            ("name", Json::str("fft")),
            ("bits", Json::Num(8.0)),
            ("wcec_nj", Json::num(f64::INFINITY)),
            ("feasible", Json::Bool(true)),
            ("frac", Json::Num(0.8125)),
            (
                "pcs",
                Json::Arr(vec![Json::Num(0.0), Json::Num(17.0), Json::Num(42.0)]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::obj(vec![])),
            ("note", Json::str("quote \" slash \\ tab\tnewline\n")),
        ]);
        let text = obj.render_pretty();
        let back = Json::parse(&text).expect("parse rendered JSON");
        assert_eq!(back, obj);
        // Re-render must be byte-identical (key order preserved).
        assert_eq!(back.render_pretty(), text);
        let small = Json::obj(vec![
            ("pcs", Json::Arr(vec![Json::Num(0.0), Json::Num(17.0)])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::obj(vec![])),
        ]);
        assert_eq!(
            small.render_pretty(),
            "{\n  \"pcs\": [\n    0,\n    17\n  ],\n  \"empty_arr\": [],\n  \"empty_obj\": {}\n}\n"
        );
    }

    #[test]
    fn json_integral_numbers_render_without_decimal() {
        let text = Json::Num(42.0).render_pretty();
        assert_eq!(text, "42\n");
        assert_eq!(Json::num(f64::NAN), Json::Null);
        assert!(Json::Num(0.5).render_pretty().starts_with("0.5"));
    }

    #[test]
    fn json_accessors_navigate_objects() {
        let obj = Json::obj(vec![
            ("a", Json::Num(3.0)),
            ("b", Json::Arr(vec![Json::str("x")])),
        ]);
        let back = Json::parse(&obj.render_pretty()).expect("parse rendered JSON");
        assert_eq!(back.get("a").and_then(Json::as_f64), Some(3.0));
        let arr = back.get("b").and_then(Json::as_array).unwrap();
        assert_eq!(arr[0].as_str(), Some("x"));
        assert!(back.get("missing").is_none());
    }

    #[test]
    fn json_parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("42 tail").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }
}
