//! The NVP variants the simulator runs, and their one tag grammar.
//!
//! [`ExecMode`] is both what [`crate::SystemSim`] simulates and what run
//! keys, service bodies and fleet specs spell: `precise`, `simd4`,
//! `fixed:N`, `dynamic:LO-HI`, `incidental:LO-HI`.

use std::fmt;

/// Which NVP variant is being simulated. Bitwidths lie in 1..=8 and a
/// `LO-HI` range is not inverted ([`ExecMode::parse`] refuses anything
/// else; `SystemSim::new` panics on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ExecMode {
    /// Conventional precise 8-bit NVP (roll-back recovery).
    Precise,
    /// Always-4-lane full-precision SIMD baseline (Figure 9).
    Simd4,
    /// Fixed approximate datapath at the given bitwidth, roll-back
    /// recovery (Figures 15–16).
    Fixed(u8),
    /// Dynamic-bitwidth governor over `[minbits, maxbits]` on the live
    /// lane, roll-back recovery (Figures 17–21).
    Dynamic(u8, u8),
    /// Incidental NVP: roll-forward recovery plus incidental SIMD over
    /// parked frames, whose lanes the governor runs over
    /// `[minbits, maxbits]` (the `incidental` pragma's bit range). The
    /// live lane always runs at full precision (the paper keeps the
    /// current iteration precise, Section 8.6).
    Incidental(u8, u8),
}

/// The tag renderer: `precise`, `simd4`, `fixed:N`, `dynamic:LO-HI`,
/// `incidental:LO-HI`.
impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecMode::Precise => f.write_str("precise"),
            ExecMode::Simd4 => f.write_str("simd4"),
            ExecMode::Fixed(bits) => write!(f, "fixed:{bits}"),
            ExecMode::Dynamic(lo, hi) => write!(f, "dynamic:{lo}-{hi}"),
            ExecMode::Incidental(lo, hi) => write!(f, "incidental:{lo}-{hi}"),
        }
    }
}

impl ExecMode {
    /// The canonical tag (also the fleet cohort spelling).
    pub fn canonical(&self) -> String {
        self.to_string()
    }

    /// Parses a mode tag (case-insensitive); bitwidths must lie in 1..=8
    /// and ranges must not be inverted.
    pub fn parse(tag: &str) -> Result<ExecMode, String> {
        let bits = |s: &str, what: &str| -> Result<u8, String> {
            s.parse::<u8>()
                .ok()
                .filter(|b| (1..=8).contains(b))
                .ok_or_else(|| format!("{what} '{s}' must be an integer in 1..=8"))
        };
        let range = |s: &str, what: &str| -> Result<(u8, u8), String> {
            let (lo, hi) = s
                .split_once('-')
                .ok_or_else(|| format!("{what} wants LO-HI bits, got '{s}'"))?;
            let (lo, hi) = (bits(lo, what)?, bits(hi, what)?);
            if lo > hi {
                return Err(format!("{what} minbits {lo} exceeds maxbits {hi}"));
            }
            Ok((lo, hi))
        };
        let tag = tag.to_ascii_lowercase();
        match tag.split_once(':') {
            None => match tag.as_str() {
                "precise" => Ok(ExecMode::Precise),
                "simd4" => Ok(ExecMode::Simd4),
                other => Err(format!(
                    "unknown mode '{other}' (want precise|simd4|fixed:N|dynamic:LO-HI|incidental:LO-HI)"
                )),
            },
            Some(("fixed", b)) => Ok(ExecMode::Fixed(bits(b, "fixed bits")?)),
            Some(("dynamic", r)) => {
                let (lo, hi) = range(r, "dynamic mode")?;
                Ok(ExecMode::Dynamic(lo, hi))
            }
            Some(("incidental", r)) => {
                let (lo, hi) = range(r, "incidental mode")?;
                Ok(ExecMode::Incidental(lo, hi))
            }
            Some((other, _)) => Err(format!("unknown mode family '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mode_tag_round_trips_render_then_parse() {
        let mut modes = vec![ExecMode::Precise, ExecMode::Simd4];
        for lo in 1..=8 {
            modes.push(ExecMode::Fixed(lo));
            for hi in lo..=8 {
                modes.push(ExecMode::Dynamic(lo, hi));
                modes.push(ExecMode::Incidental(lo, hi));
            }
        }
        for mode in modes {
            assert_eq!(ExecMode::parse(&mode.canonical()), Ok(mode));
            assert_eq!(ExecMode::parse(&mode.canonical().to_uppercase()), Ok(mode));
        }
    }

    #[test]
    fn bad_mode_tags_are_refused() {
        for tag in [
            "vibes",
            "fixed:0",
            "fixed:9",
            "dynamic:6-2",
            "dynamic:4",
            "warp:1",
        ] {
            assert!(ExecMode::parse(tag).is_err(), "{tag}");
        }
    }
}
