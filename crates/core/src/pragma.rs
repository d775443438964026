//! The `#pragma ac` annotations of Table 1.
//!
//! Four pragmas communicate application tolerance to the
//! compiler/architecture:
//!
//! ```text
//! #pragma ac incidental (src, minbits, maxbits, policy)
//! #pragma ac incidental_recover_from (variable)
//! #pragma ac recompute (buf, minbits)
//! #pragma ac assemble (buf, mode)        // mode: sum | max | min | higherbits
//! ```
//!
//! [`PragmaSet::parse`] accepts the paper's literal syntax so annotated
//! source fragments (Figure 8) can be carried over verbatim, and
//! [`PragmaSet::lower`] maps a set onto the machine a run simulates.

use nvp_nvm::{MergeMode, RetentionPolicy};
use nvp_sim::{ExecMode, SystemConfig};
use std::fmt;

/// One parsed annotation.
#[derive(Debug, Clone, PartialEq)]
pub enum Pragma {
    /// `incidental (var, minbits, maxbits, policy)`: `var` may be computed
    /// at dynamic precision within `[minbits, maxbits]` and stored under
    /// the given retention policy.
    Incidental {
        /// The approximable variable (the input frame buffer).
        var: String,
        /// Quality floor in bits.
        minbits: u8,
        /// Quality ceiling in bits.
        maxbits: u8,
        /// Unreliable-storage policy for the variable's backups.
        policy: RetentionPolicy,
    },
    /// `incidental_recover_from (variable)`: roll forward to the iteration
    /// boundary controlled by this induction variable instead of rolling
    /// back.
    RecoverFrom {
        /// The loop induction variable marking the restart point.
        variable: String,
    },
    /// `recompute (buf, minbits)`: re-run the computation producing `buf`
    /// with at least `minbits` of precision.
    Recompute {
        /// The buffer to recompute.
        buf: String,
        /// Minimum precision for the recomputation passes.
        minbits: u8,
    },
    /// `assemble (buf, mode)`: merge the recomputed `buf` into the stored
    /// result.
    Assemble {
        /// The buffer to merge.
        buf: String,
        /// Merge strategy.
        mode: MergeMode,
    },
}

/// Pragma parsing/validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PragmaError {
    /// The line is not a `#pragma ac …` annotation.
    NotAPragma(String),
    /// Unknown pragma name.
    UnknownPragma(String),
    /// Wrong number or type of arguments.
    BadArguments(String),
    /// Bit bounds outside `1..=8` or inverted.
    BadBitRange(u8, u8),
    /// A set combines pragmas inconsistently (e.g. `assemble` without
    /// `recompute`).
    Inconsistent(String),
}

impl fmt::Display for PragmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PragmaError::NotAPragma(s) => write!(f, "not a '#pragma ac' line: {s}"),
            PragmaError::UnknownPragma(s) => write!(f, "unknown pragma: {s}"),
            PragmaError::BadArguments(s) => write!(f, "bad pragma arguments: {s}"),
            PragmaError::BadBitRange(lo, hi) => {
                write!(
                    f,
                    "bit range [{lo}, {hi}] must satisfy 1 <= min <= max <= 8"
                )
            }
            PragmaError::Inconsistent(s) => write!(f, "inconsistent pragma set: {s}"),
        }
    }
}

impl std::error::Error for PragmaError {}

impl Pragma {
    /// Parses one annotation line, e.g.
    /// `#pragma ac incidental (src, 2, 8, linear);`.
    ///
    /// # Errors
    ///
    /// Returns a [`PragmaError`] describing the first problem found.
    pub fn parse(line: &str) -> Result<Pragma, PragmaError> {
        let s = line.trim().trim_end_matches(';').trim();
        let body = s
            .strip_prefix("#pragma ac")
            .ok_or_else(|| PragmaError::NotAPragma(line.to_string()))?
            .trim();
        let open = body
            .find('(')
            .ok_or_else(|| PragmaError::BadArguments(body.to_string()))?;
        let name = body[..open].trim();
        let args_str = body[open + 1..].trim_end_matches(')').trim();
        let args: Vec<&str> = args_str.split(',').map(str::trim).collect();
        let argn = |i: usize| -> Result<&str, PragmaError> {
            args.get(i)
                .copied()
                .filter(|a| !a.is_empty())
                .ok_or_else(|| PragmaError::BadArguments(body.to_string()))
        };
        let bits = |s: &str| -> Result<u8, PragmaError> {
            s.parse::<u8>()
                .map_err(|_| PragmaError::BadArguments(format!("'{s}' is not a bit count")))
        };
        match name {
            "incidental" => {
                let var = argn(0)?.to_string();
                let minbits = bits(argn(1)?)?;
                let maxbits = bits(argn(2)?)?;
                let policy = parse_policy(argn(3)?)?;
                check_bits(minbits, maxbits)?;
                Ok(Pragma::Incidental {
                    var,
                    minbits,
                    maxbits,
                    policy,
                })
            }
            "incidental_recover_from" => Ok(Pragma::RecoverFrom {
                variable: argn(0)?.to_string(),
            }),
            "recompute" => {
                let buf = argn(0)?.to_string();
                let minbits = bits(argn(1)?)?;
                check_bits(minbits, 8)?;
                Ok(Pragma::Recompute { buf, minbits })
            }
            "assemble" => {
                let buf = argn(0)?.to_string();
                let mode = match argn(1)? {
                    "sum" => MergeMode::Sum,
                    "max" => MergeMode::Max,
                    "min" => MergeMode::Min,
                    "higherbits" => MergeMode::HigherBits,
                    other => return Err(PragmaError::BadArguments(format!("mode '{other}'"))),
                };
                Ok(Pragma::Assemble { buf, mode })
            }
            other => Err(PragmaError::UnknownPragma(other.to_string())),
        }
    }
}

fn parse_policy(s: &str) -> Result<RetentionPolicy, PragmaError> {
    match s {
        "linear" => Ok(RetentionPolicy::Linear),
        "log" => Ok(RetentionPolicy::Log),
        "parabola" => Ok(RetentionPolicy::Parabola),
        "full" => Ok(RetentionPolicy::FullRetention),
        other => Err(PragmaError::BadArguments(format!("policy '{other}'"))),
    }
}

fn check_bits(lo: u8, hi: u8) -> Result<(), PragmaError> {
    if (1..=8).contains(&lo) && lo <= hi && hi <= 8 {
        Ok(())
    } else {
        Err(PragmaError::BadBitRange(lo, hi))
    }
}

impl fmt::Display for Pragma {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pragma::Incidental {
                var,
                minbits,
                maxbits,
                policy,
            } => write!(
                f,
                "#pragma ac incidental ({var}, {minbits}, {maxbits}, {policy})"
            ),
            Pragma::RecoverFrom { variable } => {
                write!(f, "#pragma ac incidental_recover_from ({variable})")
            }
            Pragma::Recompute { buf, minbits } => {
                write!(f, "#pragma ac recompute ({buf}, {minbits})")
            }
            Pragma::Assemble { buf, mode } => write!(f, "#pragma ac assemble ({buf}, {mode})"),
        }
    }
}

/// A validated collection of pragmas for one kernel.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PragmaSet {
    pragmas: Vec<Pragma>,
}

impl PragmaSet {
    /// Parses and validates a set of annotation lines.
    ///
    /// # Errors
    ///
    /// Propagates per-line errors and cross-pragma inconsistencies
    /// (`assemble` without `recompute`).
    pub fn parse<'a, I: IntoIterator<Item = &'a str>>(lines: I) -> Result<PragmaSet, PragmaError> {
        let pragmas = lines
            .into_iter()
            .map(Pragma::parse)
            .collect::<Result<Vec<_>, _>>()?;
        let set = PragmaSet { pragmas };
        set.validate()?;
        Ok(set)
    }

    /// Builds from already-constructed pragmas.
    ///
    /// # Errors
    ///
    /// Returns [`PragmaError::Inconsistent`] on cross-pragma violations.
    pub fn from_pragmas(pragmas: Vec<Pragma>) -> Result<PragmaSet, PragmaError> {
        let set = PragmaSet { pragmas };
        set.validate()?;
        Ok(set)
    }

    fn validate(&self) -> Result<(), PragmaError> {
        let has_recompute = self
            .pragmas
            .iter()
            .any(|p| matches!(p, Pragma::Recompute { .. }));
        let has_assemble = self
            .pragmas
            .iter()
            .any(|p| matches!(p, Pragma::Assemble { .. }));
        if has_assemble && !has_recompute {
            return Err(PragmaError::Inconsistent(
                "assemble requires a recompute pragma".into(),
            ));
        }
        let incidental_count = self
            .pragmas
            .iter()
            .filter(|p| matches!(p, Pragma::Incidental { .. }))
            .count();
        if incidental_count > 1 {
            return Err(PragmaError::Inconsistent(
                "at most one incidental variable per kernel is supported".into(),
            ));
        }
        Ok(())
    }

    /// All pragmas in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = &Pragma> {
        self.pragmas.iter()
    }

    /// The `incidental` pragma's `(minbits, maxbits, policy)`, if present.
    pub fn incidental(&self) -> Option<(u8, u8, RetentionPolicy)> {
        self.pragmas.iter().find_map(|p| match p {
            Pragma::Incidental {
                minbits,
                maxbits,
                policy,
                ..
            } => Some((*minbits, *maxbits, *policy)),
            _ => None,
        })
    }

    /// Whether roll-forward recovery was requested.
    pub fn rolls_forward(&self) -> bool {
        self.pragmas
            .iter()
            .any(|p| matches!(p, Pragma::RecoverFrom { .. }))
    }

    /// The recompute floor, if requested.
    pub fn recompute_minbits(&self) -> Option<u8> {
        self.pragmas.iter().find_map(|p| match p {
            Pragma::Recompute { minbits, .. } => Some(*minbits),
            _ => None,
        })
    }

    /// The assemble merge mode (defaults to `higherbits` when a recompute
    /// is present without an explicit assemble).
    pub fn assemble_mode(&self) -> Option<MergeMode> {
        let explicit = self.pragmas.iter().find_map(|p| match p {
            Pragma::Assemble { mode, .. } => Some(*mode),
            _ => None,
        });
        explicit.or_else(|| self.recompute_minbits().map(|_| MergeMode::HigherBits))
    }

    /// Lowers the set onto the machine: the execution mode a run takes and
    /// the retention policy it backs up under. `incidental (…)` with
    /// `incidental_recover_from` is the incidental NVP; without roll-forward
    /// the live lane runs at dynamic bitwidth. Either backs up under the
    /// pragma's policy. With no `incidental` pragma the NVP is precise and
    /// keeps the platform's backup policy. `recompute` and `assemble` are
    /// not lowered: a run makes one pass, and recompute-and-combine merges
    /// several ([`combine_passes`](crate::combine_passes)).
    pub fn lower(&self) -> (ExecMode, RetentionPolicy) {
        match (self.incidental(), self.rolls_forward()) {
            (Some((lo, hi, policy)), true) => (ExecMode::Incidental(lo, hi), policy),
            (Some((lo, hi, policy)), false) => (ExecMode::Dynamic(lo, hi), policy),
            (None, _) => (ExecMode::Precise, SystemConfig::default().backup_policy),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure8_lines() {
        let p = Pragma::parse("#pragma ac incidental (src,2,8,linear);").unwrap();
        assert_eq!(
            p,
            Pragma::Incidental {
                var: "src".into(),
                minbits: 2,
                maxbits: 8,
                policy: RetentionPolicy::Linear
            }
        );
        let p = Pragma::parse("#pragma ac incidental_recover_from(frame);").unwrap();
        assert_eq!(
            p,
            Pragma::RecoverFrom {
                variable: "frame".into()
            }
        );
    }

    #[test]
    fn parses_recompute_and_assemble() {
        assert_eq!(
            Pragma::parse("#pragma ac recompute (buf, 4)").unwrap(),
            Pragma::Recompute {
                buf: "buf".into(),
                minbits: 4
            }
        );
        assert_eq!(
            Pragma::parse("#pragma ac assemble (buf, higherbits)").unwrap(),
            Pragma::Assemble {
                buf: "buf".into(),
                mode: MergeMode::HigherBits
            }
        );
    }

    #[test]
    fn display_roundtrips() {
        for line in [
            "#pragma ac incidental (src, 2, 8, linear)",
            "#pragma ac incidental_recover_from (frame)",
            "#pragma ac recompute (buf, 4)",
            "#pragma ac assemble (buf, max)",
        ] {
            let p = Pragma::parse(line).unwrap();
            assert_eq!(Pragma::parse(&p.to_string()).unwrap(), p);
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            Pragma::parse("int x = 3;"),
            Err(PragmaError::NotAPragma(_))
        ));
        assert!(matches!(
            Pragma::parse("#pragma ac frobnicate (x)"),
            Err(PragmaError::UnknownPragma(_))
        ));
        assert!(matches!(
            Pragma::parse("#pragma ac incidental (src, 9, 2, linear)"),
            Err(PragmaError::BadBitRange(9, 2))
        ));
        assert!(matches!(
            Pragma::parse("#pragma ac incidental (src, 2, 8, bogus)"),
            Err(PragmaError::BadArguments(_))
        ));
        assert!(matches!(
            Pragma::parse("#pragma ac incidental (src, 2)"),
            Err(PragmaError::BadArguments(_))
        ));
    }

    #[test]
    fn set_validation() {
        assert!(matches!(
            PragmaSet::parse(["#pragma ac assemble (buf, sum)"]),
            Err(PragmaError::Inconsistent(_))
        ));
        let ok = PragmaSet::parse([
            "#pragma ac recompute (buf, 4)",
            "#pragma ac assemble (buf, sum)",
        ])
        .unwrap();
        assert_eq!(ok.assemble_mode(), Some(MergeMode::Sum));
        assert_eq!(ok.recompute_minbits(), Some(4));
    }

    #[test]
    fn recompute_defaults_to_higherbits() {
        let set = PragmaSet::parse(["#pragma ac recompute (buf, 4)"]).unwrap();
        assert_eq!(set.assemble_mode(), Some(MergeMode::HigherBits));
    }

    #[test]
    fn figure8_sets() {
        // The paper's Figure 8 annotations: (a1) and the conservative (a2).
        let a1 = PragmaSet::parse([
            "#pragma ac incidental (src, 2, 8, linear);",
            "#pragma ac incidental_recover_from (frame);",
        ])
        .unwrap();
        assert_eq!(a1.incidental(), Some((2, 8, RetentionPolicy::Linear)));
        assert!(a1.rolls_forward());
        let a2 = PragmaSet::parse(["#pragma ac incidental (src, 6, 8, linear);"]).unwrap();
        assert_eq!(a2.incidental(), Some((6, 8, RetentionPolicy::Linear)));
    }

    /// Figure 8's (a1) annotation: `(src, 2, 8, linear)` with per-frame
    /// roll-forward.
    fn figure8_a1() -> PragmaSet {
        PragmaSet::parse([
            "#pragma ac incidental (src, 2, 8, linear);",
            "#pragma ac incidental_recover_from (frame);",
        ])
        .unwrap()
    }

    #[test]
    fn pragmas_select_incidental_mode() {
        assert_eq!(
            figure8_a1().lower(),
            (ExecMode::Incidental(2, 8), RetentionPolicy::Linear)
        );
    }

    #[test]
    fn no_pragmas_mean_precise() {
        let (mode, policy) = PragmaSet::default().lower();
        assert_eq!(mode, ExecMode::Precise);
        assert_eq!(policy, SystemConfig::default().backup_policy);
    }

    #[test]
    fn incidental_without_rollforward_is_dynamic() {
        let pragmas = PragmaSet::parse(["#pragma ac incidental (src, 3, 8, log)"]).unwrap();
        assert_eq!(
            pragmas.lower(),
            (ExecMode::Dynamic(3, 8), RetentionPolicy::Log)
        );
    }

    #[test]
    fn two_incidental_vars_rejected() {
        assert!(matches!(
            PragmaSet::parse([
                "#pragma ac incidental (a, 2, 8, linear)",
                "#pragma ac incidental (b, 2, 8, log)",
            ]),
            Err(PragmaError::Inconsistent(_))
        ));
    }
}
