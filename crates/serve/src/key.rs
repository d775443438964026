//! Request canonicalization: from JSON bodies to content-addressed
//! [`SimKey`]s.
//!
//! A `SimKey` is the shared [`RunKey`] — the *identity* of a simulation,
//! with the grammar of `nvp_repro::key` — plus the optional trace echo,
//! which changes the response body and therefore the cache slot. Two
//! requests that differ only in whitespace, field order, or spelling
//! (`"Sobel"` vs `"sobel"`, `1.5` vs `1.50`) canonicalize to the same key.
//!
//! This module only maps JSON onto that grammar (documented in DESIGN.md
//! §10): scalar fields are checked against [`limits`], tokens go through
//! the shared parsers, and a structured `mode` value is translated to its
//! tag text and parsed by [`ExecMode::parse`]. A `/v1/run` key keeps the
//! cell-only fields at their defaults (member 0, 3500 nJ, full scope).

use crate::json::Json;
use nvp_kernels::KernelId;
use nvp_power::synth::WatchProfile;
use nvp_repro::catalog::RunRequest;
use nvp_repro::key::{self, limits, RunKey};
use nvp_sim::{ExecEngine, ExecMode};
use std::fmt;
use std::ops::Deref;

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

/// The canonical identity of one `/v1/run` request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SimKey {
    /// The simulation.
    pub run: RunKey,
    /// Whether the response streams the run's JSONL trace back (changes
    /// the body, hence part of the key).
    pub trace: bool,
}

impl Deref for SimKey {
    type Target = RunKey;

    fn deref(&self) -> &RunKey {
        &self.run
    }
}

impl SimKey {
    /// Parses and canonicalizes a `POST /v1/run` body.
    pub fn from_json(body: &Json) -> Result<SimKey, BadRequest> {
        require_object(body)?;
        let kernel = match body.get("kernel") {
            None => return Err(BadRequest::new("kernel", "missing required field")),
            Some(v) => parse_kernel(v)?,
        };
        let mut run = RunKey {
            kernel,
            ..shared_fields(body)?
        };
        if let Some(v) = body.get("profile") {
            run.profile = parse_profile(v)?;
        }
        if let Some(v) = body.get("mode") {
            run.mode = parse_mode(v)?;
        }
        let trace = match body.get("trace") {
            None => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| BadRequest::new("trace", "must be a boolean"))?,
        };
        Ok(SimKey { run, trace })
    }

    /// The canonical content address: the run spelling plus the trace
    /// flag. Equal keys — and only equal keys — render equal strings.
    pub fn canonical(&self) -> String {
        let mut out = self.run.run_spelling();
        out.push_str(if self.trace { "&trace=1" } else { "&trace=0" });
        out
    }

    /// The catalog request this key denotes.
    pub fn run_request(&self) -> RunRequest {
        self.run.run_request()
    }
}

fn require_object(body: &Json) -> Result<(), BadRequest> {
    match body {
        Json::Obj(_) => Ok(()),
        _ => Err(BadRequest::new(
            "body",
            "request body must be a JSON object",
        )),
    }
}

/// The scalar fields `/v1/run` and `/v1/sweep` share (`img`, `frames`,
/// `seconds`, `engine`, `seed`), over the [`RunKey`] defaults.
fn shared_fields(body: &Json) -> Result<RunKey, BadRequest> {
    let d = RunKey::default();
    let trace_ms = match body.get("seconds") {
        None => d.trace_ms,
        Some(v) => {
            let ms = v
                .as_f64()
                .and_then(key::seconds_to_ms)
                .ok_or_else(|| BadRequest::new("seconds", "must be a positive number"))?;
            let (lo, hi) = limits::TRACE_MS;
            if !(lo..=hi).contains(&ms) {
                return Err(BadRequest::new(
                    "seconds",
                    format!("must quantize to {lo}..={hi} ms (got {ms} ms)"),
                ));
            }
            ms
        }
    };
    // The served default engine is Compiled. Both engines run one metered
    // loop, so results are engine-invariant, yet a cold Compiled run still
    // builds the kernel's op table, which nothing executes; the default
    // stays because the engine name is part of the key and of pinned
    // response bodies.
    let engine = match body.get("engine") {
        None => d.engine,
        Some(v) => token(v, "engine", ExecEngine::parse)?,
    };
    let seed = match body.get("seed") {
        None => d.seed,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| BadRequest::new("seed", "must be a non-negative integer"))?,
    };
    Ok(RunKey {
        img: parse_bounded(body, "img", limits::IMG, d.img)?,
        frames: parse_bounded(body, "frames", limits::FRAMES, d.frames)?,
        trace_ms,
        engine,
        seed,
        ..d
    })
}

fn parse_bounded(
    body: &Json,
    field: &'static str,
    (lo, hi): (u64, u64),
    default: usize,
) -> Result<usize, BadRequest> {
    let Some(value) = body.get(field) else {
        return Ok(default);
    };
    value
        .as_u64()
        .filter(|v| (lo..=hi).contains(v))
        .map(|v| v as usize)
        .ok_or_else(|| BadRequest::new(field, format!("must be an integer in {lo}..={hi}")))
}

/// Parses a string field with one of the shared token parsers.
fn token<T>(
    value: &Json,
    field: &'static str,
    parse: fn(&str) -> Result<T, String>,
) -> Result<T, BadRequest> {
    let text = value
        .as_str()
        .ok_or_else(|| BadRequest::new(field, "must be a string"))?;
    parse(text).map_err(|e| BadRequest::new(field, e))
}

fn parse_kernel(value: &Json) -> Result<KernelId, BadRequest> {
    token(value, "kernel", key::parse_kernel)
}

fn parse_profile(value: &Json) -> Result<WatchProfile, BadRequest> {
    token(value, "profile", key::parse_profile)
}

/// Parses the request's `mode` value — a tag string such as `"precise"`,
/// `{"fixed": bits}`, `{"dynamic": {"minbits": m, "maxbits": M}}` or
/// `{"incidental": {"minbits": m, "maxbits": M}}` — by translating it to
/// tag text for [`ExecMode::parse`].
fn parse_mode(value: &Json) -> Result<ExecMode, BadRequest> {
    let bad = |detail: String| BadRequest::new("mode", detail);
    let bits = |v: &Json, what: &str| {
        v.as_u64()
            .ok_or_else(|| bad(format!("{what} must be an integer in 1..=8")))
    };
    let tag = if let Some(tag) = value.as_str() {
        tag.to_string()
    } else if let Some(v) = value.get("fixed") {
        format!("fixed:{}", bits(v, "fixed bits")?)
    } else if let Some((family, range)) = ["dynamic", "incidental"]
        .into_iter()
        .find_map(|family| value.get(family).map(|range| (family, range)))
    {
        let end = |name: &str| {
            range
                .get(name)
                .ok_or_else(|| bad(format!("{family} mode needs a {name} field")))
                .and_then(|v| bits(v, name))
        };
        format!("{family}:{}-{}", end("minbits")?, end("maxbits")?)
    } else {
        return Err(bad("mode must be a string or a one-key object".to_string()));
    };
    ExecMode::parse(&tag).map_err(bad)
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
        require_object(body)?;
        fn axis<T>(
            body: &Json,
            field: &'static str,
            default: T,
            item: impl Fn(&Json) -> Result<T, BadRequest>,
        ) -> Result<Vec<T>, BadRequest> {
            match body.get(field) {
                None => Ok(vec![default]),
                Some(v) => v
                    .as_array()
                    .ok_or_else(|| BadRequest::new(field, "must be an array"))?
                    .iter()
                    .map(item)
                    .collect(),
            }
        }
        let d = RunKey::default();
        let kernels = axis(body, "kernels", d.kernel, parse_kernel)?;
        let profiles = axis(body, "profiles", d.profile, parse_profile)?;
        let modes = axis(body, "modes", d.mode, parse_mode)?;
        if kernels.is_empty() || profiles.is_empty() || modes.is_empty() {
            return Err(BadRequest::new(
                "body",
                "kernels/profiles/modes must be non-empty",
            ));
        }
        let shared = shared_fields(body)?;
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
                        run: RunKey {
                            kernel,
                            profile,
                            mode,
                            ..shared
                        },
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
            let mode = parse_mode(&Json::parse(text).unwrap()).unwrap();
            assert_eq!(mode.canonical(), tag);
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
        assert_eq!(spec.cells[0].mode, ExecMode::Precise);
        assert_eq!(spec.cells[1].mode, ExecMode::Fixed(4));
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
