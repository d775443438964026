//! The run key: one grammar for "simulate this configuration".
//!
//! A [`RunKey`] holds every field that can change a simulation's result
//! and nothing else. `nvp-serve` builds one from a JSON body, `nvp-fleet`
//! by sampling a device from a scenario spec, and both spell tokens with
//! the parsers here, so one configuration is one key in either front-end:
//! [`RunMode`] and its tag grammar, the kernel/profile/scope token
//! parsers (engines use [`ExecEngine::parse`]), the request [`limits`],
//! and the two pinned spellings [`RunKey::canonical`] (`cell/…`) and
//! [`RunKey::run_spelling`] (`run/…`). Parse errors are detail strings;
//! each front-end adds its own location (a JSON field, a spec line).

use crate::catalog::RunRequest;
use nvp_isa::ApproxConfig;
use nvp_kernels::KernelId;
use nvp_power::synth::WatchProfile;
use nvp_sim::{BackupScope, ExecEngine, ExecMode, Governor, IncidentalSetup, SystemConfig};
use std::fmt::{self, Write as _};

/// Bounds on what one request may ask the simulator to do (inclusive).
pub mod limits {
    /// Image edge length in pixels.
    pub const IMG: (u64, u64) = (8, 48);
    /// Number of cycled input frames.
    pub const FRAMES: (u64, u64) = (1, 8);
    /// Power-trace length, milliseconds.
    pub const TRACE_MS: (u64, u64) = (100, 30_000);
    /// Capacitor capacity, nanojoules.
    pub const CAP_NJ: (u64, u64) = (500, 1_000_000);
    /// Power-profile family members per fleet spec.
    pub const MEMBERS: (u64, u64) = (1, 4096);
    /// Devices per streamed fleet chunk.
    pub const CHUNK: (u64, u64) = (64, 1_000_000);
    /// Relative draw weight of one fleet axis entry.
    pub const WEIGHT: (u64, u64) = (1, 1_000_000);
}

/// Which NVP variant to simulate, in canonical (validated) form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RunMode {
    /// Conventional precise NVP.
    Precise,
    /// Full-precision 4-lane SIMD baseline.
    Simd4,
    /// Fixed approximate datapath at the given bitwidth.
    Fixed(u8),
    /// Dynamic-bitwidth governor over `[minbits, maxbits]`.
    Dynamic(u8, u8),
    /// Incidental NVP over `[minbits, maxbits]`.
    Incidental(u8, u8),
}

/// The tag renderer: `precise`, `simd4`, `fixed:N`, `dynamic:LO-HI`,
/// `incidental:LO-HI`.
impl fmt::Display for RunMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunMode::Precise => f.write_str("precise"),
            RunMode::Simd4 => f.write_str("simd4"),
            RunMode::Fixed(bits) => write!(f, "fixed:{bits}"),
            RunMode::Dynamic(lo, hi) => write!(f, "dynamic:{lo}-{hi}"),
            RunMode::Incidental(lo, hi) => write!(f, "incidental:{lo}-{hi}"),
        }
    }
}

impl RunMode {
    /// The canonical tag (also the fleet cohort spelling).
    pub fn canonical(&self) -> String {
        self.to_string()
    }

    /// Parses a mode tag (case-insensitive); bitwidths must lie in 1..=8
    /// and ranges must not be inverted.
    pub fn parse(tag: &str) -> Result<RunMode, String> {
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
                "precise" => Ok(RunMode::Precise),
                "simd4" => Ok(RunMode::Simd4),
                other => Err(format!(
                    "unknown mode '{other}' (want precise|simd4|fixed:N|dynamic:LO-HI|incidental:LO-HI)"
                )),
            },
            Some(("fixed", b)) => Ok(RunMode::Fixed(bits(b, "fixed bits")?)),
            Some(("dynamic", r)) => {
                let (lo, hi) = range(r, "dynamic mode")?;
                Ok(RunMode::Dynamic(lo, hi))
            }
            Some(("incidental", r)) => {
                let (lo, hi) = range(r, "incidental mode")?;
                Ok(RunMode::Incidental(lo, hi))
            }
            Some((other, _)) => Err(format!("unknown mode family '{other}'")),
        }
    }

    /// The simulator mode this tag denotes.
    pub fn exec_mode(&self) -> ExecMode {
        match *self {
            RunMode::Precise => ExecMode::Precise,
            RunMode::Simd4 => ExecMode::Simd4,
            RunMode::Fixed(bits) => ExecMode::Fixed(ApproxConfig::fixed(bits)),
            RunMode::Dynamic(lo, hi) => ExecMode::Dynamic(Governor::new(lo, hi)),
            RunMode::Incidental(lo, hi) => ExecMode::Incidental(IncidentalSetup::new(lo, hi)),
        }
    }
}

/// Parses a kernel name, case-insensitively ([`KernelId::name`] is the
/// canonical spelling).
pub fn parse_kernel(token: &str) -> Result<KernelId, String> {
    KernelId::ALL
        .iter()
        .copied()
        .find(|id| id.name().eq_ignore_ascii_case(token))
        .ok_or_else(|| {
            let names: Vec<&str> = KernelId::ALL.iter().map(|id| id.name()).collect();
            format!("unknown kernel '{token}' (one of: {})", names.join(", "))
        })
}

/// Parses a power-profile token `p1`..`p5`, case-insensitively (the
/// canonical spelling is `p` followed by [`WatchProfile::index`]).
pub fn parse_profile(token: &str) -> Result<WatchProfile, String> {
    WatchProfile::ALL
        .iter()
        .copied()
        .find(|p| format!("p{}", p.index()).eq_ignore_ascii_case(token))
        .ok_or_else(|| format!("unknown profile '{token}' (p1..p5)"))
}

/// Canonical tag of a backup scope: `full`, `live`, `live-dirty`.
pub fn scope_tag(scope: BackupScope) -> &'static str {
    match scope {
        BackupScope::FullState => "full",
        BackupScope::LiveOnly => "live",
        BackupScope::LiveDirty => "live-dirty",
    }
}

/// Parses a backup-scope tag, case-insensitively.
pub fn parse_scope(token: &str) -> Result<BackupScope, String> {
    match token.to_ascii_lowercase().as_str() {
        "full" => Ok(BackupScope::FullState),
        "live" => Ok(BackupScope::LiveOnly),
        "live-dirty" => Ok(BackupScope::LiveDirty),
        other => Err(format!(
            "unknown scope '{other}' (want full|live|live-dirty)"
        )),
    }
}

/// Quantizes a trace length in seconds to whole milliseconds; `None`
/// unless the length is finite and positive.
pub fn seconds_to_ms(secs: f64) -> Option<u64> {
    (secs.is_finite() && secs > 0.0).then(|| (secs * 1000.0).round() as u64)
}

/// One fully-specified simulation — the unit of result caching in every
/// front-end. Every field that can change the outcome is in here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// Testbench.
    pub kernel: KernelId,
    /// Image edge length in pixels.
    pub img: usize,
    /// Cycled input frames.
    pub frames: usize,
    /// Power-trace length in whole milliseconds.
    pub trace_ms: u64,
    /// Power-profile family.
    pub profile: WatchProfile,
    /// Family member (0 = the canonical paper trace).
    pub member: u32,
    /// Capacitor capacity in nanojoules.
    pub cap_nj: u64,
    /// Backup scope.
    pub scope: BackupScope,
    /// NVP variant.
    pub mode: RunMode,
    /// Execution engine. Results are engine-invariant, but the field is
    /// kept in the key so runs can be attributed and the engines
    /// benchmarked against each other.
    pub engine: ExecEngine,
    /// Retention-decay RNG seed.
    pub seed: u64,
}

/// The defaults every front-end fills omitted fields with: sobel at
/// 12 px, 2 frames, a 1.5 s canonical P1 trace, the platform's 3.5 µJ
/// capacitor ([`nvp_analysis::CAPACITOR_NJ`]), full-state backups, precise
/// mode, compiled engine.
impl Default for RunKey {
    fn default() -> Self {
        RunKey {
            kernel: KernelId::Sobel,
            img: 12,
            frames: 2,
            trace_ms: 1500,
            profile: WatchProfile::P1,
            member: 0,
            cap_nj: nvp_analysis::CAPACITOR_NJ as u64,
            scope: BackupScope::FullState,
            mode: RunMode::Precise,
            engine: ExecEngine::Compiled,
            seed: 0x5EED,
        }
    }
}

impl RunKey {
    /// The cell spelling, `cell/kernel=…&seed=…`, over every field.
    /// Equal keys — and only equal keys — render equal strings; fleets
    /// also fold cells in this string's order, so it must be stable.
    pub fn canonical(&self) -> String {
        self.spell("cell", true)
    }

    /// The run spelling, `run/kernel=…&seed=…`, which omits the cell-only
    /// fields (member, capacitor, scope). Only keys holding their
    /// defaults there — what a `/v1/run` body denotes — may use it.
    pub fn run_spelling(&self) -> String {
        self.spell("run", false)
    }

    fn spell(&self, prefix: &str, cell_fields: bool) -> String {
        let mut out = String::with_capacity(160);
        let _ = write!(
            out,
            "{prefix}/kernel={}&img={}&frames={}&ms={}&profile=p{}",
            self.kernel.name(),
            self.img,
            self.frames,
            self.trace_ms,
            self.profile.index(),
        );
        if cell_fields {
            let _ = write!(
                out,
                "&member={}&cap_nj={}&scope={}",
                self.member,
                self.cap_nj,
                scope_tag(self.scope),
            );
        }
        let _ = write!(
            out,
            "&mode={}&engine={}&seed={}",
            self.mode,
            self.engine.name(),
            self.seed,
        );
        out
    }

    /// The catalog request this key denotes: outputs not recorded, and
    /// the simulator knobs a key does not carry at
    /// [`SystemConfig::default`]'s values.
    pub fn run_request(&self) -> RunRequest {
        let sim = SystemConfig::default();
        RunRequest {
            kernel: self.kernel,
            img: self.img,
            frames: self.frames,
            trace_seconds: self.trace_ms as f64 / 1000.0,
            profile: self.profile,
            member: self.member,
            cap_nj: self.cap_nj,
            scope: self.scope,
            mode: self.mode.exec_mode(),
            engine: self.engine,
            seed: self.seed,
            record_outputs: false,
            backup_policy: sim.backup_policy,
            max_simd_lanes: sim.max_simd_lanes,
            park_slots: sim.park_slots,
            checkpoint_plan: sim.checkpoint_plan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_token_round_trips_render_then_parse() {
        let mut modes = vec![RunMode::Precise, RunMode::Simd4];
        for lo in 1..=8 {
            modes.push(RunMode::Fixed(lo));
            for hi in lo..=8 {
                modes.push(RunMode::Dynamic(lo, hi));
                modes.push(RunMode::Incidental(lo, hi));
            }
        }
        for mode in modes {
            assert_eq!(RunMode::parse(&mode.canonical()), Ok(mode));
            assert_eq!(RunMode::parse(&mode.canonical().to_uppercase()), Ok(mode));
            let _ = mode.exec_mode(); // must not panic
        }
        for kernel in KernelId::ALL {
            assert_eq!(parse_kernel(kernel.name()), Ok(kernel));
        }
        for profile in WatchProfile::ALL {
            assert_eq!(parse_profile(&format!("p{}", profile.index())), Ok(profile));
        }
        for scope in [
            BackupScope::FullState,
            BackupScope::LiveOnly,
            BackupScope::LiveDirty,
        ] {
            assert_eq!(parse_scope(scope_tag(scope)), Ok(scope));
        }
        for engine in [ExecEngine::Step, ExecEngine::Compiled] {
            assert_eq!(ExecEngine::parse(engine.name()), Ok(engine));
        }
    }

    #[test]
    fn bad_tokens_are_refused() {
        for tag in [
            "vibes",
            "fixed:0",
            "fixed:9",
            "dynamic:6-2",
            "dynamic:4",
            "warp:1",
        ] {
            assert!(RunMode::parse(tag).is_err(), "{tag}");
        }
        assert!(parse_kernel("warp").is_err());
        assert!(parse_profile("p9").is_err());
        assert!(parse_profile("p").is_err());
        assert!(parse_scope("partial").is_err());
        assert_eq!(seconds_to_ms(0.0), None);
        assert_eq!(seconds_to_ms(f64::NAN), None);
        assert_eq!(seconds_to_ms(1.5004), Some(1500));
    }

    #[test]
    fn both_spellings_share_their_field_tokens() {
        let key = RunKey {
            mode: RunMode::Fixed(4),
            ..RunKey::default()
        };
        assert_eq!(
            key.run_spelling(),
            "run/kernel=sobel&img=12&frames=2&ms=1500&profile=p1&mode=fixed:4&engine=compiled&seed=24301"
        );
        assert_eq!(
            key.canonical(),
            "cell/kernel=sobel&img=12&frames=2&ms=1500&profile=p1&member=0&cap_nj=3500&scope=full&mode=fixed:4&engine=compiled&seed=24301"
        );
    }
}
