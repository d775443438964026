//! The run key: one grammar for "simulate this configuration".
//!
//! A [`RunKey`] holds every field that can change a simulation's result
//! and nothing else. `nvp-serve` builds one from a JSON body, `nvp-fleet`
//! by sampling a device from a scenario spec, and both spell tokens with
//! the parsers here, so one configuration is one key in either front-end:
//! the kernel/profile/scope token parsers (modes use [`ExecMode::parse`],
//! engines [`ExecEngine::parse`]), the request [`limits`], and the two
//! pinned spellings [`RunKey::canonical`] (`cell/…`) and
//! [`RunKey::run_spelling`] (`run/…`). Parse errors are detail strings;
//! each front-end adds its own location (a JSON field, a spec line).

use crate::catalog::RunRequest;
use nvp_kernels::KernelId;
use nvp_power::synth::WatchProfile;
use nvp_sim::{BackupScope, ExecEngine, ExecMode, SystemConfig};
use std::fmt::Write as _;

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
    pub mode: ExecMode,
    /// Engine the run names. Both engines run the one metered loop, so
    /// results are engine-invariant; the field stays in the key because
    /// service bodies, fleet specs and `/metrics` labels carry it.
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
            mode: ExecMode::Precise,
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

    /// The catalog request this key denotes: outputs not recorded, the
    /// catalog's default input seed, the trace as synthesized, and the
    /// simulator knobs a key does not carry at [`SystemConfig::default`]'s
    /// values.
    pub fn run_request(&self) -> RunRequest {
        let sim = SystemConfig::default();
        RunRequest {
            kernel: self.kernel,
            img: self.img,
            frames: self.frames,
            input_seed: crate::catalog::INPUT_SEED,
            frames_limit: sim.frames_limit,
            trace_seconds: self.trace_ms as f64 / 1000.0,
            profile: self.profile,
            member: self.member,
            trace_shape: None,
            cap_nj: self.cap_nj,
            scope: self.scope,
            mode: self.mode,
            engine: self.engine,
            seed: self.seed,
            staleness: sim.staleness,
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
        // Mode tags are `ExecMode`'s own grammar, tested in `nvp-sim`.
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
            mode: ExecMode::Fixed(4),
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
