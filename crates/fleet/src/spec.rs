//! The declarative scenario spec: grammar, canonical form, content address.
//!
//! A spec is a short line-oriented text document:
//!
//! ```text
//! fleet-spec-v1
//! devices = 100000
//! chunk = 4096
//! seed = 24301
//! img = 12
//! frames = 2
//! ms = 1500
//! members = 4
//! kernels = sobel*3, median
//! profiles = p1*2, p3
//! caps_nj = 2500, 3500*2
//! scopes = full, live-dirty
//! modes = precise, fixed:4*2
//! engines = compiled
//! ```
//!
//! Axis lists are weighted: `token*weight` gives `token` a relative draw
//! weight (`*` cannot collide with the token grammar, which is why the
//! separator is not `:` — mode tokens like `dynamic:2-8` already use
//! colons). Omitted keys take the documented defaults, so the canonical
//! form — [`ScenarioSpec::canonical`] — is always fully explicit, spells
//! every value one way, and is what the content-addressed job id hashes:
//! two specs differing only in whitespace, ordering, weight spelling or
//! `seconds` vs `ms` share one job id and therefore one cached fleet.

use nvp_exec::fnv1a64;
use nvp_kernels::KernelId;
use nvp_power::synth::WatchProfile;
use nvp_repro::key::{
    limits, parse_kernel, parse_profile, parse_scope, scope_tag, seconds_to_ms, RunKey,
};
use nvp_sim::{BackupScope, ExecEngine, ExecMode};
use std::fmt;

/// Most distinct cells one scenario may expand to. The axis cross-product
/// is the upper bound on resident aggregation state (per-cell stats, the
/// cohort tables), so capping it is what makes peak memory independent of
/// the device count.
pub const MAX_CELLS: u64 = 4096;

/// Most devices one scenario may declare (the tentpole's 10⁷ ceiling).
pub const MAX_DEVICES: u64 = 10_000_000;

/// One weighted entry of an axis distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weighted<T> {
    /// The axis value.
    pub item: T,
    /// Relative draw weight (≥ 1).
    pub weight: u64,
}

impl<T> Weighted<T> {
    fn new(item: T, weight: u64) -> Self {
        Weighted { item, weight }
    }
}

/// A spec the parser refuses, with the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number in the spec text (0 for whole-document errors).
    pub line: usize,
    /// Human-readable reason.
    pub detail: String,
}

impl SpecError {
    fn new(line: usize, detail: impl Into<String>) -> Self {
        SpecError {
            line,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "bad fleet spec: {}", self.detail)
        } else {
            write!(f, "bad fleet spec line {}: {}", self.line, self.detail)
        }
    }
}

impl std::error::Error for SpecError {}

/// A parsed, validated fleet scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Population size (device-instances to expand).
    pub devices: u64,
    /// Devices per streamed chunk. Part of the identity: the chunk
    /// sequence fixes the fold order, hence the report bytes.
    pub chunk: u64,
    /// Sampling seed; also every cell's retention-decay seed.
    pub seed: u64,
    /// Image edge length in pixels.
    pub img: usize,
    /// Cycled input frames per device.
    pub frames: usize,
    /// Power-trace length in whole milliseconds.
    pub trace_ms: u64,
    /// Family members per power profile (member 0 is the canonical paper
    /// trace of its profile).
    pub members: u32,
    /// Kernel distribution.
    pub kernels: Vec<Weighted<KernelId>>,
    /// Power-profile family distribution.
    pub profiles: Vec<Weighted<WatchProfile>>,
    /// Capacitor-size distribution, nanojoules of capacity.
    pub caps_nj: Vec<Weighted<u64>>,
    /// Backup-scope distribution.
    pub scopes: Vec<Weighted<BackupScope>>,
    /// NVP-variant distribution (the governor-policy axis).
    pub modes: Vec<Weighted<ExecMode>>,
    /// Execution-engine distribution.
    pub engines: Vec<Weighted<ExecEngine>>,
}

impl ScenarioSpec {
    /// Parses and validates a spec document (see the module docs for the
    /// grammar).
    pub fn parse(text: &str) -> Result<ScenarioSpec, SpecError> {
        let d = RunKey::default();
        let mut devices = None;
        let mut chunk = 4096u64;
        let mut seed = d.seed;
        let mut img = d.img as u64;
        let mut frames = d.frames as u64;
        let mut trace_ms = d.trace_ms;
        let mut members = 1u64;
        let mut kernels = vec![Weighted::new(d.kernel, 1)];
        let mut profiles = vec![Weighted::new(d.profile, 1)];
        let mut caps_nj = vec![Weighted::new(d.cap_nj, 1)];
        let mut scopes = vec![Weighted::new(d.scope, 1)];
        let mut modes = vec![Weighted::new(d.mode, 1)];
        let mut engines = vec![Weighted::new(d.engine, 1)];

        let mut saw_header = false;
        for (idx, raw) in text.lines().enumerate() {
            let ln = idx + 1;
            let line = match raw.find('#') {
                Some(i) => raw[..i].trim(),
                None => raw.trim(),
            };
            if line.is_empty() {
                continue;
            }
            if !saw_header {
                if line != "fleet-spec-v1" {
                    return Err(SpecError::new(
                        ln,
                        format!("expected 'fleet-spec-v1' header, got '{line}'"),
                    ));
                }
                saw_header = true;
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| {
                    SpecError::new(ln, format!("expected 'key = value', got '{line}'"))
                })?;
            match key {
                "devices" => devices = Some(parse_int(value, ln, "devices")?),
                "chunk" => chunk = parse_int(value, ln, "chunk")?,
                "seed" => seed = parse_int(value, ln, "seed")?,
                "img" => img = parse_int(value, ln, "img")?,
                "frames" => frames = parse_int(value, ln, "frames")?,
                "ms" => trace_ms = parse_int(value, ln, "ms")?,
                "seconds" => {
                    trace_ms = value
                        .parse::<f64>()
                        .ok()
                        .and_then(seconds_to_ms)
                        .ok_or_else(|| {
                            SpecError::new(
                                ln,
                                format!("seconds '{value}' must be a positive number"),
                            )
                        })?;
                }
                "members" => members = parse_int(value, ln, "members")?,
                "kernels" => kernels = parse_axis(value, ln, parse_kernel)?,
                "profiles" => profiles = parse_axis(value, ln, parse_profile)?,
                "caps_nj" => caps_nj = parse_axis(value, ln, |t| int(t, "caps_nj"))?,
                "caps_uj" => {
                    caps_nj = parse_axis(value, ln, |t| {
                        t.parse::<f64>()
                            .ok()
                            .filter(|c| c.is_finite() && *c > 0.0)
                            .map(|uj| (uj * 1000.0).round() as u64)
                            .ok_or_else(|| format!("caps_uj '{t}' must be a positive number"))
                    })?
                }
                "scopes" => scopes = parse_axis(value, ln, parse_scope)?,
                "modes" => modes = parse_axis(value, ln, ExecMode::parse)?,
                "engines" => engines = parse_axis(value, ln, ExecEngine::parse)?,
                other => return Err(SpecError::new(ln, format!("unknown key '{other}'"))),
            }
        }
        if !saw_header {
            return Err(SpecError::new(0, "empty spec (want fleet-spec-v1)"));
        }
        let devices = devices.ok_or_else(|| SpecError::new(0, "missing required key 'devices'"))?;

        let spec = ScenarioSpec {
            devices,
            chunk,
            seed,
            img: img as usize,
            frames: frames as usize,
            trace_ms,
            // Saturate rather than truncate, so `validate` refuses it.
            members: u32::try_from(members).unwrap_or(u32::MAX),
            kernels,
            profiles,
            caps_nj,
            scopes,
            modes,
            engines,
        };
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), SpecError> {
        let bound = |what: &str, v: u64, (lo, hi): (u64, u64)| -> Result<(), SpecError> {
            if (lo..=hi).contains(&v) {
                Ok(())
            } else {
                Err(SpecError::new(0, format!("{what} {v} outside {lo}..={hi}")))
            }
        };
        bound("devices", self.devices, (1, MAX_DEVICES))?;
        bound("chunk", self.chunk, limits::CHUNK)?;
        bound("img", self.img as u64, limits::IMG)?;
        bound("frames", self.frames as u64, limits::FRAMES)?;
        bound("ms", self.trace_ms, limits::TRACE_MS)?;
        bound("members", self.members as u64, limits::MEMBERS)?;
        for cap in &self.caps_nj {
            bound("caps_nj", cap.item, limits::CAP_NJ)?;
        }
        let cells = self.distinct_cells();
        if cells > MAX_CELLS {
            return Err(SpecError::new(
                0,
                format!("axis cross-product expands to {cells} distinct cells (limit {MAX_CELLS})"),
            ));
        }
        Ok(())
    }

    /// Upper bound on distinct cells this spec can expand to (the full
    /// axis cross-product, saturating at `u64::MAX`; the population may
    /// visit fewer).
    pub fn distinct_cells(&self) -> u64 {
        [
            self.kernels.len(),
            self.profiles.len(),
            self.members as usize,
            self.caps_nj.len(),
            self.scopes.len(),
            self.modes.len(),
            self.engines.len(),
        ]
        .into_iter()
        .fold(1u64, |cells, n| cells.saturating_mul(n as u64))
    }

    /// Number of streamed chunks.
    pub fn chunks(&self) -> u64 {
        self.devices.div_ceil(self.chunk)
    }

    /// The canonical spec document: fully explicit, one spelling per
    /// value, parseable by [`parse`](Self::parse) back to an equal spec.
    pub fn canonical(&self) -> String {
        fn axis<T>(entries: &[Weighted<T>], tag: impl Fn(&T) -> String) -> String {
            entries
                .iter()
                .map(|w| {
                    if w.weight == 1 {
                        tag(&w.item)
                    } else {
                        format!("{}*{}", tag(&w.item), w.weight)
                    }
                })
                .collect::<Vec<_>>()
                .join(", ")
        }
        format!(
            "fleet-spec-v1\n\
             devices = {}\n\
             chunk = {}\n\
             seed = {}\n\
             img = {}\n\
             frames = {}\n\
             ms = {}\n\
             members = {}\n\
             kernels = {}\n\
             profiles = {}\n\
             caps_nj = {}\n\
             scopes = {}\n\
             modes = {}\n\
             engines = {}\n",
            self.devices,
            self.chunk,
            self.seed,
            self.img,
            self.frames,
            self.trace_ms,
            self.members,
            axis(&self.kernels, |k| k.name().to_string()),
            axis(&self.profiles, |p| format!("p{}", p.index())),
            axis(&self.caps_nj, |c| c.to_string()),
            axis(&self.scopes, |s| scope_tag(*s).to_string()),
            axis(&self.modes, ExecMode::to_string),
            axis(&self.engines, |e| e.name().to_string()),
        )
    }

    /// Content-addressed job id: fnv1a64 of the canonical document, as 16
    /// hex digits. Equal populations — and only equal populations — share
    /// a job id, which is what lets overlapping fleets share work in
    /// `nvp-serve`.
    pub fn job_id(&self) -> String {
        format!("{:016x}", fnv1a64(self.canonical().as_bytes()))
    }
}

fn int(token: &str, what: &str) -> Result<u64, String> {
    token
        .parse::<u64>()
        .map_err(|_| format!("{what} '{token}' must be a non-negative integer"))
}

fn parse_int(token: &str, line: usize, what: &str) -> Result<u64, SpecError> {
    int(token, what).map_err(|e| SpecError::new(line, e))
}

/// Splits a comma-separated weighted axis list, parsing each token with
/// `item` and its optional `*weight` suffix (bounded by
/// [`limits::WEIGHT`]). An axis is never empty: an empty token fails
/// `item`.
fn parse_axis<T>(
    value: &str,
    line: usize,
    item: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<Weighted<T>>, SpecError> {
    value
        .split(',')
        .map(|entry| {
            let entry = entry.trim();
            let (token, weight) = match entry.rsplit_once('*') {
                None => (entry, 1),
                Some((t, w)) => (t.trim(), int(w.trim(), "weight")?),
            };
            let (lo, hi) = limits::WEIGHT;
            if !(lo..=hi).contains(&weight) {
                return Err(format!("weight {weight} outside {lo}..={hi}"));
            }
            Ok(Weighted::new(item(token)?, weight))
        })
        .collect::<Result<_, String>>()
        .map_err(|e| SpecError::new(line, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> &'static str {
        "fleet-spec-v1\n\
         devices = 1000\n\
         chunk = 256\n\
         ms = 200\n\
         img = 8\n\
         frames = 1\n\
         kernels = sobel*3, median\n\
         profiles = p1, p3*2\n\
         members = 2\n\
         caps_uj = 2.5, 3.5\n\
         scopes = full, live-dirty\n\
         modes = precise, fixed:4*2, dynamic:2-8\n"
    }

    #[test]
    fn parse_canonical_round_trips() {
        let spec = ScenarioSpec::parse(small()).unwrap();
        let canon = spec.canonical();
        let reparsed = ScenarioSpec::parse(&canon).unwrap();
        assert_eq!(spec, reparsed);
        assert_eq!(canon, reparsed.canonical());
        assert!(canon.contains("caps_nj = 2500, 3500"), "{canon}");
        assert!(canon.contains("modes = precise, fixed:4*2, dynamic:2-8"));
    }

    #[test]
    fn spelling_variants_share_a_job_id() {
        let a = ScenarioSpec::parse(small()).unwrap();
        let shuffled = "fleet-spec-v1\n\
             modes = precise, fixed:4*2, dynamic:2-8\n\
             # a comment\n\
             scopes = full , live-dirty\n\
             caps_nj = 2500*1, 3500\n\
             seconds = 0.2\n\
             img = 8\n\
             frames = 1\n\
             members = 2\n\
             profiles = p1, p3*2\n\
             kernels = sobel*3, median\n\
             chunk = 256\n\
             devices = 1000\n";
        let b = ScenarioSpec::parse(shuffled).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.job_id(), b.job_id());
        assert_eq!(a.job_id().len(), 16);
        // Any identity-bearing change moves the id.
        let c = ScenarioSpec::parse(&small().replace("devices = 1000", "devices = 1001")).unwrap();
        assert_ne!(a.job_id(), c.job_id());
    }

    #[test]
    fn defaults_make_a_minimal_spec_valid() {
        let spec = ScenarioSpec::parse("fleet-spec-v1\ndevices = 10\n").unwrap();
        assert_eq!(spec.chunk, 4096);
        assert_eq!(spec.img, 12);
        assert_eq!(spec.trace_ms, 1500);
        assert_eq!(spec.members, 1);
        assert_eq!(spec.distinct_cells(), 1);
        assert_eq!(spec.chunks(), 1);
    }

    #[test]
    fn cross_product_cap_is_enforced() {
        let text = "fleet-spec-v1\ndevices = 100\nmembers = 4096\nkernels = sobel, median\n";
        let err = ScenarioSpec::parse(text).unwrap_err();
        assert!(err.detail.contains("8192 distinct cells"), "{err}");
    }

    #[test]
    fn bad_lines_are_reported_with_numbers() {
        for (text, needle) in [
            ("devices = 5\n", "fleet-spec-v1"),
            ("fleet-spec-v1\nwat\n", "key = value"),
            (
                "fleet-spec-v1\ndevices = 5\nkernels = warp\n",
                "unknown kernel",
            ),
            (
                "fleet-spec-v1\ndevices = 5\nprofiles = p9\n",
                "unknown profile",
            ),
            ("fleet-spec-v1\ndevices = 5\nmodes = fixed:9\n", "1..=8"),
            (
                "fleet-spec-v1\ndevices = 5\nmodes = dynamic:6-2\n",
                "exceeds",
            ),
            (
                "fleet-spec-v1\ndevices = 5\nscopes = partial\n",
                "unknown scope",
            ),
            (
                "fleet-spec-v1\ndevices = 5\nengines = jit\n",
                "unknown engine",
            ),
            (
                "fleet-spec-v1\ndevices = 5\nengines = block\n",
                "unknown engine 'block'",
            ),
            ("fleet-spec-v1\ndevices = 5\nbogus = 1\n", "unknown key"),
            ("fleet-spec-v1\ndevices = 0\n", "outside"),
            ("fleet-spec-v1\ndevices = 99999999999\n", "outside"),
            ("fleet-spec-v1\ndevices = 5\nms = 31000\n", "outside"),
            ("fleet-spec-v1\ndevices = 5\ncaps_nj = 17\n", "outside"),
            ("fleet-spec-v1\ndevices = 5\nkernels = sobel*0\n", "outside"),
            ("fleet-spec-v1\n", "devices"),
        ] {
            let err = ScenarioSpec::parse(text).unwrap_err();
            assert!(err.to_string().contains(needle), "{text:?}: {err}");
        }
    }
}
