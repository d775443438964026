//! Request canonicalization: from JSON bodies to content-addressed
//! [`SimKey`]s.
//!
//! A `SimKey` is the *identity* of a simulation: every field that can
//! change the result is in it, nothing else is. Two requests that differ
//! only in whitespace, field order, or spelling (`"Sobel"` vs `"sobel"`,
//! `1.5` vs `1.50`) canonicalize to the same key and therefore the same
//! cache slot. Conversely the optional trace echo *is* part of the key —
//! it changes the response body, and the cache stores rendered bodies.
//!
//! Canonicalization rules (documented in DESIGN.md §10):
//! * kernel names are matched case-insensitively against the paper names,
//! * the trace length is quantized to whole milliseconds,
//! * every field has a server-side default, so the canonical form is
//!   always fully explicit,
//! * bounds are enforced at parse time (a served simulator must not be
//!   askable for an hour-long trace).

use crate::json::Json;
use nvp_isa::ApproxConfig;
use nvp_kernels::KernelId;
use nvp_power::synth::WatchProfile;
use nvp_repro::catalog::RunRequest;
use nvp_sim::{ExecEngine, ExecMode, Governor, IncidentalSetup};
use std::fmt;

/// A request the service refuses, with the offending field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRequest {
    /// Which request field was wrong (`"body"` for whole-document errors).
    pub field: &'static str,
    /// Human-readable reason.
    pub detail: String,
}

impl BadRequest {
    pub(crate) fn new(field: &'static str, detail: impl Into<String>) -> Self {
        BadRequest {
            field,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for BadRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad request field '{}': {}", self.field, self.detail)
    }
}

impl std::error::Error for BadRequest {}

/// Which NVP variant to simulate, in canonical (validated) form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModeSpec {
    /// Conventional precise NVP.
    Precise,
    /// Full-precision 4-lane SIMD baseline.
    Simd4,
    /// Fixed approximate datapath at `bits`.
    Fixed(u8),
    /// Dynamic-bitwidth governor over `[minbits, maxbits]`.
    Dynamic(u8, u8),
    /// Incidental NVP over `[minbits, maxbits]`.
    Incidental(u8, u8),
}

impl ModeSpec {
    /// Canonical wire spelling, also used inside the cache key.
    fn canonical(&self) -> String {
        match self {
            ModeSpec::Precise => "precise".to_string(),
            ModeSpec::Simd4 => "simd4".to_string(),
            ModeSpec::Fixed(bits) => format!("fixed:{bits}"),
            ModeSpec::Dynamic(lo, hi) => format!("dynamic:{lo}-{hi}"),
            ModeSpec::Incidental(lo, hi) => format!("incidental:{lo}-{hi}"),
        }
    }

    /// The simulator mode this spec denotes.
    pub fn exec_mode(&self) -> ExecMode {
        match *self {
            ModeSpec::Precise => ExecMode::Precise,
            ModeSpec::Simd4 => ExecMode::Simd4,
            ModeSpec::Fixed(bits) => ExecMode::Fixed(ApproxConfig::fixed(bits)),
            ModeSpec::Dynamic(lo, hi) => ExecMode::Dynamic(Governor::new(lo, hi)),
            ModeSpec::Incidental(lo, hi) => ExecMode::Incidental(IncidentalSetup::new(lo, hi)),
        }
    }

    /// Parses the request's `mode` value: `"precise"`, `"simd4"`,
    /// `{"fixed": bits}`, `{"dynamic": {"minbits": m, "maxbits": M}}` or
    /// `{"incidental": {"minbits": m, "maxbits": M}}`.
    fn parse(value: &Json) -> Result<ModeSpec, BadRequest> {
        let bad = |detail: String| BadRequest::new("mode", detail);
        if let Some(name) = value.as_str() {
            return match name.to_ascii_lowercase().as_str() {
                "precise" => Ok(ModeSpec::Precise),
                "simd4" => Ok(ModeSpec::Simd4),
                other => Err(bad(format!(
                    "unknown mode '{other}' (want precise|simd4|{{\"fixed\":N}}|{{\"dynamic\":…}}|{{\"incidental\":…}})"
                ))),
            };
        }
        let bits_of = |v: &Json, what: &str| {
            v.as_u64()
                .filter(|b| (1..=8).contains(b))
                .map(|b| b as u8)
                .ok_or_else(|| bad(format!("{what} must be an integer in 1..=8")))
        };
        let range_of = |v: &Json, what: &str| -> Result<(u8, u8), BadRequest> {
            let lo = bits_of(
                v.get("minbits")
                    .ok_or_else(|| bad(format!("{what} needs a minbits field")))?,
                "minbits",
            )?;
            let hi = bits_of(
                v.get("maxbits")
                    .ok_or_else(|| bad(format!("{what} needs a maxbits field")))?,
                "maxbits",
            )?;
            if lo > hi {
                return Err(bad(format!("minbits {lo} exceeds maxbits {hi}")));
            }
            Ok((lo, hi))
        };
        if let Some(v) = value.get("fixed") {
            return Ok(ModeSpec::Fixed(bits_of(v, "fixed bits")?));
        }
        if let Some(v) = value.get("dynamic") {
            let (lo, hi) = range_of(v, "dynamic mode")?;
            return Ok(ModeSpec::Dynamic(lo, hi));
        }
        if let Some(v) = value.get("incidental") {
            let (lo, hi) = range_of(v, "incidental mode")?;
            return Ok(ModeSpec::Incidental(lo, hi));
        }
        Err(bad("mode must be a string or a one-key object".to_string()))
    }
}

/// Bounds on what one request may ask the simulator to do.
mod limits {
    /// Image edge length in pixels.
    pub const IMG: (usize, usize) = (8, 48);
    /// Number of cycled input frames.
    pub const FRAMES: (usize, usize) = (1, 8);
    /// Power-trace length, milliseconds.
    pub const TRACE_MS: (u64, u64) = (100, 30_000);
}

/// The canonical identity of one simulation request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SimKey {
    /// Testbench.
    pub kernel: KernelId,
    /// Image edge length in pixels.
    pub img: usize,
    /// Cycled input frames.
    pub frames: usize,
    /// Power-trace length in whole milliseconds (quantized from the
    /// request's fractional seconds).
    pub trace_ms: u64,
    /// Harvested-power profile.
    pub profile: WatchProfile,
    /// NVP variant.
    pub mode: ModeSpec,
    /// Capacitor-check scheduling engine. Results are engine-invariant,
    /// but the field is kept in the key so responses can be attributed and
    /// the engines benchmarked against each other through the service.
    pub engine: ExecEngine,
    /// Retention-decay RNG seed.
    pub seed: u64,
    /// Whether the response streams the run's JSONL trace back (changes
    /// the body, hence part of the key).
    pub trace: bool,
}

impl SimKey {
    /// Parses and canonicalizes a `POST /v1/run` body.
    pub fn from_json(body: &Json) -> Result<SimKey, BadRequest> {
        if !matches!(body, Json::Obj(_)) {
            return Err(BadRequest::new(
                "body",
                "request body must be a JSON object",
            ));
        }
        let kernel = match body.get("kernel") {
            None => return Err(BadRequest::new("kernel", "missing required field")),
            Some(v) => parse_kernel(v)?,
        };
        let img = parse_bounded(body, "img", limits::IMG, 12)?;
        let frames = parse_bounded(body, "frames", limits::FRAMES, 2)?;
        let trace_ms = parse_trace_ms(body)?;
        let profile = parse_profile(body)?;
        let mode = match body.get("mode") {
            None => ModeSpec::Precise,
            Some(v) => ModeSpec::parse(v)?,
        };
        let engine = parse_engine(body)?;
        let seed = match body.get("seed") {
            None => 0x5EED,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| BadRequest::new("seed", "must be a non-negative integer"))?,
        };
        let trace = match body.get("trace") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| BadRequest::new("trace", "must be a boolean"))?,
        };
        Ok(SimKey {
            kernel,
            img,
            frames,
            trace_ms,
            profile,
            mode,
            engine,
            seed,
            trace,
        })
    }

    /// The canonical content address. Equal keys — and only equal keys —
    /// render equal strings.
    pub fn canonical(&self) -> String {
        format!(
            "run/kernel={}&img={}&frames={}&ms={}&profile=p{}&mode={}&engine={}&seed={}&trace={}",
            self.kernel.name(),
            self.img,
            self.frames,
            self.trace_ms,
            self.profile.index(),
            self.mode.canonical(),
            self.engine.name(),
            self.seed,
            u8::from(self.trace),
        )
    }

    /// The catalog request this key denotes.
    pub fn run_request(&self) -> RunRequest {
        RunRequest {
            kernel: self.kernel,
            img: self.img,
            frames: self.frames,
            trace_seconds: self.trace_ms as f64 / 1000.0,
            profile: self.profile,
            mode: self.mode.exec_mode(),
            engine: self.engine,
            seed: self.seed,
        }
    }
}

/// Parses the optional `engine` field ([`ExecEngine::parse`]). The served
/// default is the compiled engine — results are engine-invariant and it
/// is the cheapest way to answer a cold request.
fn parse_engine(body: &Json) -> Result<ExecEngine, BadRequest> {
    let Some(value) = body.get("engine") else {
        return Ok(ExecEngine::Compiled);
    };
    let name = value
        .as_str()
        .ok_or_else(|| BadRequest::new("engine", "must be a string"))?;
    ExecEngine::parse(name).map_err(|e| BadRequest::new("engine", e))
}

fn parse_kernel(value: &Json) -> Result<KernelId, BadRequest> {
    let name = value
        .as_str()
        .ok_or_else(|| BadRequest::new("kernel", "must be a string"))?;
    KernelId::ALL
        .iter()
        .copied()
        .find(|id| id.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let names: Vec<&str> = KernelId::ALL.iter().map(|id| id.name()).collect();
            BadRequest::new(
                "kernel",
                format!("unknown kernel '{name}' (one of: {})", names.join(", ")),
            )
        })
}

fn parse_profile(body: &Json) -> Result<WatchProfile, BadRequest> {
    let Some(value) = body.get("profile") else {
        return Ok(WatchProfile::P1);
    };
    let name = value
        .as_str()
        .ok_or_else(|| BadRequest::new("profile", "must be a string"))?;
    WatchProfile::ALL
        .iter()
        .copied()
        .find(|p| format!("p{}", p.index()).eq_ignore_ascii_case(name))
        .ok_or_else(|| BadRequest::new("profile", format!("unknown profile '{name}' (p1..p5)")))
}

fn parse_bounded(
    body: &Json,
    field: &'static str,
    (lo, hi): (usize, usize),
    default: usize,
) -> Result<usize, BadRequest> {
    let Some(value) = body.get(field) else {
        return Ok(default);
    };
    value
        .as_u64()
        .map(|v| v as usize)
        .filter(|v| (lo..=hi).contains(v))
        .ok_or_else(|| BadRequest::new(field, format!("must be an integer in {lo}..={hi}")))
}

fn parse_trace_ms(body: &Json) -> Result<u64, BadRequest> {
    let Some(value) = body.get("seconds") else {
        return Ok(1500);
    };
    let secs = value
        .as_f64()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or_else(|| BadRequest::new("seconds", "must be a positive number"))?;
    let ms = (secs * 1000.0).round() as u64;
    let (lo, hi) = limits::TRACE_MS;
    if !(lo..=hi).contains(&ms) {
        return Err(BadRequest::new(
            "seconds",
            format!("must quantize to {lo}..={hi} ms (got {ms} ms)"),
        ));
    }
    Ok(ms)
}

/// A parsed `POST /v1/sweep` body: the cross-product of kernels ×
/// profiles × modes at one scale, expanded to per-cell [`SimKey`]s.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Expanded cells, in kernel-major, profile-then-mode order.
    pub cells: Vec<SimKey>,
}

/// Most cells one sweep may expand to (admission control at parse time;
/// bigger studies should page their requests).
pub const MAX_SWEEP_CELLS: usize = 64;

impl SweepSpec {
    /// Parses and expands a sweep body. Shared scalar fields (`img`,
    /// `frames`, `seconds`, `seed`) follow the same rules as `/v1/run`;
    /// `kernels`, `profiles` and `modes` are arrays (defaulting to
    /// `["sobel"]`, `["p1"]` and `["precise"]`).
    pub fn from_json(body: &Json) -> Result<SweepSpec, BadRequest> {
        if !matches!(body, Json::Obj(_)) {
            return Err(BadRequest::new(
                "body",
                "request body must be a JSON object",
            ));
        }
        let kernels: Vec<KernelId> = match body.get("kernels") {
            None => vec![KernelId::Sobel],
            Some(v) => v
                .as_array()
                .ok_or_else(|| BadRequest::new("kernels", "must be an array"))?
                .iter()
                .map(parse_kernel)
                .collect::<Result<_, _>>()?,
        };
        let profiles: Vec<WatchProfile> = match body.get("profiles") {
            None => vec![WatchProfile::P1],
            Some(v) => v
                .as_array()
                .ok_or_else(|| BadRequest::new("profiles", "must be an array"))?
                .iter()
                .map(|p| parse_profile(&Json::obj(vec![("profile", p.clone())])))
                .collect::<Result<_, _>>()?,
        };
        let modes: Vec<ModeSpec> = match body.get("modes") {
            None => vec![ModeSpec::Precise],
            Some(v) => v
                .as_array()
                .ok_or_else(|| BadRequest::new("modes", "must be an array"))?
                .iter()
                .map(ModeSpec::parse)
                .collect::<Result<_, _>>()?,
        };
        if kernels.is_empty() || profiles.is_empty() || modes.is_empty() {
            return Err(BadRequest::new(
                "body",
                "kernels/profiles/modes must be non-empty",
            ));
        }
        let img = parse_bounded(body, "img", limits::IMG, 12)?;
        let frames = parse_bounded(body, "frames", limits::FRAMES, 2)?;
        let trace_ms = parse_trace_ms(body)?;
        let engine = parse_engine(body)?;
        let seed = match body.get("seed") {
            None => 0x5EED,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| BadRequest::new("seed", "must be a non-negative integer"))?,
        };
        let total = kernels.len() * profiles.len() * modes.len();
        if total > MAX_SWEEP_CELLS {
            return Err(BadRequest::new(
                "body",
                format!("sweep expands to {total} cells (limit {MAX_SWEEP_CELLS})"),
            ));
        }
        let mut cells = Vec::with_capacity(total);
        for &kernel in &kernels {
            for &profile in &profiles {
                for &mode in &modes {
                    cells.push(SimKey {
                        kernel,
                        img,
                        frames,
                        trace_ms,
                        profile,
                        mode,
                        engine,
                        seed,
                        trace: false,
                    });
                }
            }
        }
        Ok(SweepSpec { cells })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_run(text: &str) -> Result<SimKey, BadRequest> {
        SimKey::from_json(&Json::parse(text).unwrap())
    }

    #[test]
    fn spelling_variants_canonicalize_identically() {
        let a = parse_run(r#"{"kernel":"sobel","seconds":1.5,"mode":{"fixed":4}}"#).unwrap();
        let b = parse_run(
            r#"{"mode":{"fixed":4},"seconds":1.50,"kernel":"Sobel","img":12,"frames":2,"profile":"P1","seed":24301,"trace":false}"#,
        )
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(
            a.canonical(),
            "run/kernel=sobel&img=12&frames=2&ms=1500&profile=p1&mode=fixed:4&engine=compiled&seed=24301&trace=0"
        );
    }

    #[test]
    fn engine_defaults_to_compiled_and_changes_the_key() {
        let default = parse_run(r#"{"kernel":"sobel"}"#).unwrap();
        assert_eq!(default.engine, ExecEngine::Compiled);
        let explicit = parse_run(r#"{"kernel":"sobel","engine":"Compiled"}"#).unwrap();
        assert_eq!(default, explicit, "spelling is case-insensitive");
        let step = parse_run(r#"{"kernel":"sobel","engine":"step"}"#).unwrap();
        assert_eq!(step.engine, ExecEngine::Step);
        assert_ne!(default.canonical(), step.canonical());
        assert!(step.canonical().contains("&engine=step&"));
    }

    #[test]
    fn retired_block_engine_is_rejected() {
        let err = parse_run(r#"{"kernel":"sobel","engine":"block"}"#).unwrap_err();
        assert_eq!(err.field, "engine", "{err}");
        assert!(err.detail.contains("unknown engine 'block'"), "{err}");
    }

    #[test]
    fn trace_flag_changes_the_key() {
        let plain = parse_run(r#"{"kernel":"sobel"}"#).unwrap();
        let traced = parse_run(r#"{"kernel":"sobel","trace":true}"#).unwrap();
        assert_ne!(plain.canonical(), traced.canonical());
    }

    #[test]
    fn bad_fields_name_the_field() {
        for (text, field) in [
            (r#"{"kernel":"warp"}"#, "kernel"),
            (r#"{}"#, "kernel"),
            (r#"{"kernel":"sobel","img":1000}"#, "img"),
            (r#"{"kernel":"sobel","frames":0}"#, "frames"),
            (r#"{"kernel":"sobel","seconds":-2}"#, "seconds"),
            (r#"{"kernel":"sobel","seconds":9999}"#, "seconds"),
            (r#"{"kernel":"sobel","profile":"p9"}"#, "profile"),
            (r#"{"kernel":"sobel","mode":"vibes"}"#, "mode"),
            (r#"{"kernel":"sobel","mode":{"fixed":9}}"#, "mode"),
            (
                r#"{"kernel":"sobel","mode":{"dynamic":{"minbits":6,"maxbits":2}}}"#,
                "mode",
            ),
            (r#"{"kernel":"sobel","engine":"jit"}"#, "engine"),
            (r#"{"kernel":"sobel","engine":7}"#, "engine"),
            (r#"{"kernel":"sobel","seed":-1}"#, "seed"),
            (r#"{"kernel":"sobel","trace":"yes"}"#, "trace"),
            (r#"[1,2]"#, "body"),
        ] {
            let err = parse_run(text).unwrap_err();
            assert_eq!(err.field, field, "for {text}: {err}");
        }
    }

    #[test]
    fn all_modes_build_exec_modes() {
        for (text, tag) in [
            (r#""precise""#, "precise"),
            (r#""simd4""#, "simd4"),
            (r#"{"fixed":3}"#, "fixed:3"),
            (r#"{"dynamic":{"minbits":2,"maxbits":8}}"#, "dynamic:2-8"),
            (
                r#"{"incidental":{"minbits":4,"maxbits":8}}"#,
                "incidental:4-8",
            ),
        ] {
            let spec = ModeSpec::parse(&Json::parse(text).unwrap()).unwrap();
            assert_eq!(spec.canonical(), tag);
            let _ = spec.exec_mode(); // must not panic
        }
    }

    #[test]
    fn sweep_expands_the_cross_product_in_order() {
        let spec = SweepSpec::from_json(
            &Json::parse(
                r#"{"kernels":["sobel","median"],"profiles":["p1","p3"],"modes":["precise",{"fixed":4}]}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(spec.cells.len(), 8);
        assert_eq!(spec.cells[0].kernel, KernelId::Sobel);
        assert_eq!(spec.cells[0].mode, ModeSpec::Precise);
        assert_eq!(spec.cells[1].mode, ModeSpec::Fixed(4));
        assert_eq!(spec.cells[7].kernel, KernelId::Median);
        assert_eq!(spec.cells[7].profile, WatchProfile::P3);
    }

    #[test]
    fn sweep_cell_cap_is_enforced() {
        let kernels: Vec<String> = KernelId::ALL
            .iter()
            .map(|k| format!("\"{}\"", k.name()))
            .collect();
        let modes: Vec<String> = (1..=8).map(|b| format!("{{\"fixed\":{b}}}")).collect();
        let text = format!(
            r#"{{"kernels":[{}],"profiles":["p1","p2"],"modes":[{}]}}"#,
            kernels.join(","),
            modes.join(","),
        );
        let err = SweepSpec::from_json(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(err.detail.contains("160 cells"), "{err}");
    }
}
