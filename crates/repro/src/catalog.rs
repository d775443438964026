//! Shared simulation inputs and request-shaped runner entry points.
//!
//! Every consumer of the simulator — the `repro` experiments, `nvp-serve`
//! and `nvp-fleet` — needs a built [`KernelSpec`], a cycled input-frame
//! set and a synthesized power trace. The simulator runs no static
//! analysis, so this module also computes the static facts a run reads
//! as data: the checkpoint plan a scoped backup persists by (for
//! `BackupScope::LiveDirty` a synthesized placement per kernel ×
//! dimensions, [`plan_for`]; for `BackupScope::LiveOnly` backup
//! liveness, built per run) and each kernel's compiled op table
//! ([`compiled_for`]). This module owns one process-wide bounded
//! [`Cache`] for each of these but the `LiveOnly` plan, sized to hold
//! the largest benchmark working set with room to spare (DESIGN.md §9
//! lists capacities and worst-case bytes); an evicted artifact is
//! rebuilt deterministically on its next use. Power traces are cached as
//! synthesized; a request's [`TraceShape`] is applied per run and never
//! cached. `ExecEngine::Compiled` runs are still handed the compiled op
//! table although no engine executes it (DESIGN.md §13).
//!
//! [`simulate`] / [`simulate_traced`] are the request-shaped entry points
//! and, outside `nvp-sim` and tests, the only way any run becomes a
//! `SystemSim`: a plain-data [`RunRequest`] in, a [`RunReport`] out,
//! fully deterministic — two identical requests produce byte-identical
//! reports and traces, which is what makes result caching in `nvp-serve`
//! and `nvp-fleet` sound. Both always simulate. The sixth cache is the `repro` run memo behind
//! `experiments::run`: canonical [`RunRequest`] to shared report, for
//! requests that record no outputs, seeded also by the runs that do
//! ([`run_memo_stats`]). The canonical form spells each run one way:
//! `Fixed` at full precision is `Precise`, and a `LiveDirty` request
//! without a plan names the [`plan_for`] plan it takes.

use crate::dims;
use crate::key::RunKey;
use nvp_analysis::{compile_hints, synthesize, BackupLiveness, Cfg, CkptOptions};
use nvp_exec::{Cache, CacheStats};
use nvp_isa::CompiledProgram;
use nvp_kernels::{KernelId, KernelSpec};
use nvp_nvm::RetentionPolicy;
use nvp_power::synth::WatchProfile;
use nvp_power::{Energy, PowerProfile, Ticks};
use nvp_sim::{
    BackupScope, CheckpointPlan, ExecEngine, ExecMode, RunReport, SystemConfig, SystemSim,
};
use nvp_trace::Tracer;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, LazyLock};

/// A shared, immutable input-frame set.
pub type Frames = Arc<Vec<Vec<i32>>>;

/// Kernel specs, compiled tables and checkpoint plans: one per kernel ×
/// dimensions.
const SPEC_CAPACITY: usize = 64;
/// Frame sets: one per kernel × img × frame count × input seed.
const FRAMES_CAPACITY: usize = 128;
/// Power traces: one per profile × length × family member, up to
/// ~2.4 MB each at the 30 s request limit.
const TRACE_CAPACITY: usize = 32;
/// Memoized `repro` run reports: one per distinct canonical output-free
/// request.
const RUN_CAPACITY: usize = 512;

type SpecKey = (KernelId, usize, usize);
/// Kernel, img, frame count and input seed.
type FramesKey = (KernelId, usize, usize, u64);
/// Profile, trace length (`f64` bits, seconds) and family member.
type TraceKey = (WatchProfile, u64, u32);

static SPECS: LazyLock<Arc<Cache<SpecKey, KernelSpec>>> =
    LazyLock::new(|| Cache::new(SPEC_CAPACITY));
static FRAMES: LazyLock<Arc<Cache<FramesKey, Frames>>> =
    LazyLock::new(|| Cache::new(FRAMES_CAPACITY));
static COMPILED: LazyLock<Arc<Cache<SpecKey, Arc<CompiledProgram>>>> =
    LazyLock::new(|| Cache::new(SPEC_CAPACITY));
static PLANS: LazyLock<Arc<Cache<SpecKey, Arc<CheckpointPlan>>>> =
    LazyLock::new(|| Cache::new(SPEC_CAPACITY));
static TRACES: LazyLock<Arc<Cache<TraceKey, Arc<PowerProfile>>>> =
    LazyLock::new(|| Cache::new(TRACE_CAPACITY));
static RUNS: LazyLock<Arc<Cache<RunRequest, Arc<RunReport>>>> =
    LazyLock::new(|| Cache::new(RUN_CAPACITY));

/// Cache of built kernel specs; the contained `Program` is an `Arc`, so
/// handing out clones shares one instruction stream across all runs.
pub fn cached_spec(id: KernelId, w: usize, h: usize) -> KernelSpec {
    SPECS.get_or_insert_with(&(id, w, h), || id.spec(w, h))
}

/// The input seed of frame 0 unless a request names another
/// ([`RunRequest::input_seed`]).
pub const INPUT_SEED: u64 = 0xBEEF;

/// Builds (or fetches) the cycled input-frame set for a kernel at an image
/// scale, shared immutably across every simulation that uses it.
pub fn frames_for(id: KernelId, img: usize, frames: usize) -> Frames {
    seeded_frames(id, img, frames, INPUT_SEED)
}

/// [`frames_for`] with frame *i* seeded `seed + i`.
fn seeded_frames(id: KernelId, img: usize, frames: usize, seed: u64) -> Frames {
    FRAMES.get_or_insert_with(&(id, img, frames, seed), || {
        let (w, h) = dims(id, img);
        Arc::new(
            (0..frames)
                .map(|i| id.make_input(w, h, seed + i as u64))
                .collect(),
        )
    })
}

/// How many kernel programs have been compiled to op tables
/// since process start (cache misses only — a well-warmed service stays
/// flat at one per distinct kernel × dimensions). `nvp-serve` exports it
/// as `nvp_compile_total`.
pub fn compile_count() -> u64 {
    COMPILED.stats().misses
}

/// Compiles (or fetches) the compiled op table for a kernel at given
/// frame dimensions, shared behind an `Arc` by every simulation of that
/// kernel — a sweep of a thousand runs pays for one compilation. The
/// interval analysis' in-range proofs (`nvp_analysis::compile_hints`)
/// decide which accesses skip their bounds check.
pub fn compiled_for(id: KernelId, w: usize, h: usize) -> Arc<CompiledProgram> {
    COMPILED.get_or_insert_with(&(id, w, h), || {
        let spec = cached_spec(id, w, h);
        let hints = compile_hints(&spec.program, &Cfg::build(&spec.program), spec.mem_words);
        let table = CompiledProgram::compile(&spec.program, spec.mem_words, &hints);
        Arc::new(table)
    })
}

/// How many checkpoint plans have been synthesized since process start
/// (cache misses only — flat at one per distinct kernel × dimensions
/// that ran under `BackupScope::LiveDirty`). `nvp-serve` exports it as
/// `nvp_plan_synth_total`.
pub fn plan_count() -> u64 {
    PLANS.stats().misses
}

/// Counters and occupancy of the checkpoint-plan cache.
pub fn plan_cache_stats() -> CacheStats {
    PLANS.stats()
}

/// Synthesizes (or fetches) the checkpoint plan `BackupScope::LiveDirty`
/// runs a kernel under at given frame dimensions: the placement
/// `nvp_analysis::synthesize` finds over the kernel's declared bitwidth
/// range and memory size. The shipped kernels declare one whole-program
/// region (a single resume marker at pc 0), under which every live
/// register is also dirty; the synthesized placement is what makes
/// `LiveDirty` cheaper than `LiveOnly`. The synthesis costs more than
/// most simulations it serves, so every run of that kernel × dimensions
/// shares one: a [`RunRequest`] without an explicit plan takes this one.
pub fn plan_for(id: KernelId, w: usize, h: usize) -> Arc<CheckpointPlan> {
    PLANS.get_or_insert_with(&(id, w, h), || {
        let spec = cached_spec(id, w, h);
        let opts = CkptOptions::for_kernel(&spec);
        let placement = synthesize(&spec.program, &Cfg::build(&spec.program), &opts).synthesized;
        Arc::new(CheckpointPlan {
            checkpoints: placement.checkpoints.iter().map(|&(pc, _)| pc).collect(),
            masks: placement.masks,
        })
    })
}

/// The plan a `BackupScope::LiveOnly` run backs up under: at each pc, the
/// registers static backup liveness proves may still be read, and no
/// checkpoints. It costs 3–23 µs per kernel at img 8–24 (release build),
/// far less than the run that reads it, so it is built per run and never
/// cached; [`plan_count`] counts only `LiveDirty` syntheses.
fn live_only_plan(spec: &KernelSpec) -> CheckpointPlan {
    let live = BackupLiveness::compute(&spec.program);
    CheckpointPlan {
        checkpoints: Vec::new(),
        masks: (0..spec.program.len()).map(|pc| live.live_at(pc)).collect(),
    }
}

/// Synthesizes (or fetches) a watch profile's canonical power trace.
pub fn synth_profile(profile: WatchProfile, seconds: f64) -> Arc<PowerProfile> {
    synth_profile_member(profile, seconds, 0)
}

/// Synthesizes (or fetches) family member `member` of a watch profile's
/// power trace — same harvester calibration, independent RNG stream per
/// member (see [`WatchProfile::family_seed`]). Member 0 is the canonical
/// trace [`synth_profile`] returns, cached once.
pub fn synth_profile_member(profile: WatchProfile, seconds: f64, member: u32) -> Arc<PowerProfile> {
    TRACES.get_or_insert_with(&(profile, seconds.to_bits(), member), || {
        Arc::new(profile.synthesize_seconds_member(seconds, member))
    })
}

/// Counters and occupancy of the power-trace cache (the largest of the
/// catalog caches; `nvp-serve` exports it on `/metrics`).
pub fn trace_cache_stats() -> CacheStats {
    TRACES.stats()
}

/// How a recompute-and-combine pass replays its trace: rotated to start
/// `pass / passes` of the way in (wrapping round), so the passes ride
/// different phases of one trace, then tiled to twice the trace's length,
/// so a pass starting in a weak phase still has room to finish its frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceShape {
    /// Which pass (`0..passes`).
    pub pass: u32,
    /// How many passes divide the trace.
    pub passes: u32,
}

impl TraceShape {
    /// The shaped copy of `trace`.
    ///
    /// # Panics
    ///
    /// Panics unless `pass < passes`.
    pub fn apply(&self, trace: &PowerProfile) -> PowerProfile {
        assert!(
            self.pass < self.passes,
            "pass {} of {}",
            self.pass,
            self.passes
        );
        let samples = trace.as_uw_slice();
        let offset = self.pass as usize * samples.len() / self.passes as usize;
        let shaped = samples.iter().copied().cycle().skip(offset);
        PowerProfile::from_uw(shaped.take(2 * samples.len()))
    }
}

/// One fully-specified simulation: kernel × scale × profile × mode, plus
/// the device inputs a fleet cell varies and the ablation knobs and
/// recompute-pass shape the `repro` experiments set.
///
/// This is the plain-data request shape behind every `repro`
/// experiment run, `nvp-serve`'s `POST /v1/run`, `nvp-fleet`'s cells and
/// their shared [`RunKey`] ([`RunKey::run_request`]). Everything that can
/// change the simulation's output is in here; two equal requests are
/// guaranteed byte-identical results. The [`Default`] request is
/// [`RunKey::default`]'s. Equality and hashing compare `trace_seconds`
/// by its bits and an explicit `checkpoint_plan` by content.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Which testbench to run.
    pub kernel: KernelId,
    /// Image edge length in pixels (kernel dims derive from this via
    /// [`dims`]).
    pub img: usize,
    /// Number of distinct input frames to cycle.
    pub frames: usize,
    /// Input frame *i* is seeded `input_seed + i` ([`INPUT_SEED`] unless
    /// an experiment names its own input).
    pub input_seed: u64,
    /// Stop after committing this many live-lane frames (`None` runs the
    /// whole trace).
    pub frames_limit: Option<u64>,
    /// Power-trace length in seconds.
    pub trace_seconds: f64,
    /// Harvested-power profile to replay.
    pub profile: WatchProfile,
    /// Power-profile family member (0 = the canonical trace).
    pub member: u32,
    /// How the run replays its trace (`None`: as synthesized).
    pub trace_shape: Option<TraceShape>,
    /// Capacitor capacity in nanojoules.
    pub cap_nj: u64,
    /// How much architectural state a backup persists.
    pub scope: BackupScope,
    /// NVP variant to simulate.
    pub mode: ExecMode,
    /// Engine the run names. Both engines run the one metered loop, so
    /// results are identical across them (see [`ExecEngine`]).
    pub engine: ExecEngine,
    /// RNG seed for retention decay.
    pub seed: u64,
    /// Data-age deadline past which an incidental restore rolls forward
    /// ([`SystemConfig::staleness`]).
    pub staleness: Ticks,
    /// Whether the report keeps committed output frames (needed for
    /// quality scoring). Without it the report's `committed` is empty and
    /// every other field is unchanged.
    pub record_outputs: bool,
    /// Retention policy for backups.
    pub backup_policy: RetentionPolicy,
    /// Maximum incidental SIMD width (1..=4).
    pub max_simd_lanes: u8,
    /// Resume-buffer parking slots (1..=3).
    pub park_slots: u8,
    /// The placement a `LiveDirty` run scopes its backups by; `None`
    /// takes the cached [`plan_for`] at the run's dimensions. Other
    /// scopes ignore it: a `LiveOnly` run always backs up under its
    /// kernel's backup liveness.
    pub checkpoint_plan: Option<Arc<CheckpointPlan>>,
}

impl Default for RunRequest {
    fn default() -> Self {
        RunKey::default().run_request()
    }
}

impl PartialEq for RunRequest {
    fn eq(&self, other: &Self) -> bool {
        self.fields() == other.fields()
    }
}

impl Eq for RunRequest {}

impl Hash for RunRequest {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.fields().hash(state);
    }
}

impl RunRequest {
    /// Every field, `trace_seconds` as its bits: what equality and
    /// hashing compare. The exhaustive destructuring makes a new field a
    /// compile error here until it joins the key.
    fn fields(&self) -> impl Hash + Eq + '_ {
        let &RunRequest {
            kernel,
            img,
            frames,
            input_seed,
            frames_limit,
            trace_seconds: seconds,
            profile,
            member,
            trace_shape,
            cap_nj,
            scope,
            mode,
            engine,
            seed,
            staleness,
            record_outputs,
            backup_policy,
            max_simd_lanes,
            park_slots,
            ref checkpoint_plan,
        } = self;
        let inputs = (kernel, img, frames, input_seed, frames_limit);
        let trace = (profile, member, seconds.to_bits(), trace_shape);
        let machine = (cap_nj, scope, mode, engine, seed, staleness);
        let knobs = (backup_policy, max_simd_lanes, park_slots, record_outputs);
        (inputs, trace, machine, knobs, checkpoint_plan)
    }

    /// The one spelling of this request's run: `Fixed` at full precision
    /// is `Precise` (the same start threshold and approximation
    /// configuration, and neither has a governor), and a `LiveDirty` run
    /// without an explicit plan carries the [`plan_for`] plan it resolves
    /// to. Both rules keep the report and the trace byte for byte
    /// (`crates/repro/tests/canonical_key.rs`).
    pub(crate) fn canonical(&self) -> RunRequest {
        let mut req = self.clone();
        if req.mode == ExecMode::Fixed(8) {
            req.mode = ExecMode::Precise;
        }
        if req.scope == BackupScope::LiveDirty && req.checkpoint_plan.is_none() {
            let (w, h) = dims(req.kernel, req.img);
            req.checkpoint_plan = Some(plan_for(req.kernel, w, h));
        }
        req
    }

    /// Builds the system configuration this request implies for `spec`,
    /// its kernel at frame dimensions `w` × `h`, with the plan its backup
    /// scope reads. A `LiveDirty` run shares its plan (`Arc`) rather than
    /// copying it; a `LiveOnly` run gets its kernel's backup liveness.
    fn config(&self, spec: &KernelSpec, w: usize, h: usize) -> SystemConfig {
        let checkpoint_plan = match self.scope {
            BackupScope::FullState => None,
            BackupScope::LiveOnly => Some(Arc::new(live_only_plan(spec))),
            BackupScope::LiveDirty => Some(
                self.checkpoint_plan
                    .clone()
                    .unwrap_or_else(|| plan_for(self.kernel, w, h)),
            ),
        };
        SystemConfig {
            capacitor_capacity: Energy::from_nj(self.cap_nj as f64),
            backup_policy: self.backup_policy,
            backup_scope: self.scope,
            frames_limit: self.frames_limit,
            record_outputs: self.record_outputs,
            max_simd_lanes: self.max_simd_lanes,
            park_slots: self.park_slots,
            seed: self.seed,
            staleness: self.staleness,
            exec_engine: self.engine,
            checkpoint_plan,
        }
    }

    /// The cycled input frames this request runs (and its outputs are
    /// scored against), from the shared cache.
    pub fn inputs(&self) -> Frames {
        seeded_frames(self.kernel, self.img, self.frames, self.input_seed)
    }

    /// The one run assembler: builds the simulator from the shared caches
    /// (spec, frames, compiled table, checkpoint plan and power trace)
    /// and, for a `LiveOnly` run, its backup-liveness plan.
    /// A shaped trace is built for this run alone and never cached: each
    /// pass's is a different megabyte-sized copy of a cached trace.
    fn assemble(&self) -> (SystemSim, Arc<PowerProfile>) {
        let (w, h) = dims(self.kernel, self.img);
        let spec = cached_spec(self.kernel, w, h);
        let mut trace = synth_profile_member(self.profile, self.trace_seconds, self.member);
        if let Some(shape) = self.trace_shape {
            trace = Arc::new(shape.apply(&trace));
        }
        let config = self.config(&spec, w, h);
        let mut sim = SystemSim::new(spec, self.inputs(), self.mode, config);
        if self.engine == ExecEngine::Compiled {
            sim.set_compiled(compiled_for(self.kernel, w, h));
        }
        (sim, trace)
    }
}

/// Runs one request to completion.
pub fn simulate(req: &RunRequest) -> RunReport {
    let (sim, trace) = req.assemble();
    sim.run(&trace)
}

/// Runs one request through the run memo, simulating only on a miss;
/// concurrent callers of one request share a single simulation. The memo
/// stores a run under its canonical request ([`RunRequest::canonical`]),
/// so two requests that differ only in how they spell one run share it.
/// A request that records outputs always simulates and is never stored
/// as such: its frames would make the memo megabytes deep. Its report,
/// with `committed` emptied, is exactly the report of the same request
/// without recording, so it is offered to the memo under that request's
/// canonical form; a seed counts as neither hit nor miss. `experiments::run` is the only
/// caller, and it bypasses the memo inside a trace capture.
pub(crate) fn simulate_memoized(req: &RunRequest) -> Arc<RunReport> {
    let key = RunRequest {
        record_outputs: false,
        ..req.canonical()
    };
    if !req.record_outputs {
        return RUNS.get_or_insert_with(&key, || Arc::new(simulate(&key)));
    }
    let mut report = simulate(req);
    let committed = std::mem::take(&mut report.committed);
    RUNS.offer(key, Arc::new(report.clone()));
    report.committed = committed;
    Arc::new(report)
}

/// Counters and occupancy of the run memo.
pub fn run_memo_stats() -> CacheStats {
    RUNS.stats()
}

/// Runs one request with its event stream routed to `tracer`.
///
/// The emitted events are identical to what `repro --trace` records for
/// the same configuration; `nvp-serve` uses this both to stream a JSONL
/// trace back in responses and to feed its `/metrics` counters.
pub fn simulate_traced(req: &RunRequest, tracer: &mut dyn Tracer) -> RunReport {
    let (sim, trace) = req.assemble();
    sim.run_traced(&trace, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> RunRequest {
        RunRequest {
            img: 8,
            frames: 1,
            trace_seconds: 0.3,
            engine: ExecEngine::default(),
            ..RunRequest::default()
        }
    }

    #[test]
    fn identical_requests_are_deterministic() {
        let a = simulate(&req());
        let b = simulate(&req());
        assert_eq!(a, b);
    }

    #[test]
    fn caches_hand_out_shared_inputs() {
        let f1 = frames_for(KernelId::Sobel, 8, 2);
        let f2 = frames_for(KernelId::Sobel, 8, 2);
        assert!(Arc::ptr_eq(&f1, &f2));
        let p1 = synth_profile(WatchProfile::P2, 0.25);
        let p2 = synth_profile(WatchProfile::P2, 0.25);
        assert!(Arc::ptr_eq(&p1, &p2));
    }

    #[test]
    fn family_member_zero_shares_the_canonical_cache_entry() {
        let canonical = synth_profile(WatchProfile::P4, 0.2);
        let member0 = synth_profile_member(WatchProfile::P4, 0.2, 0);
        assert!(
            Arc::ptr_eq(&canonical, &member0),
            "member 0 must reuse the canonical entry, not duplicate it"
        );
        let m3a = synth_profile_member(WatchProfile::P4, 0.2, 3);
        let m3b = synth_profile_member(WatchProfile::P4, 0.2, 3);
        assert!(Arc::ptr_eq(&m3a, &m3b));
        assert_ne!(*m3a, *canonical, "members must be distinct traces");
    }

    #[test]
    fn compiled_memo_shares_one_table_and_counts_misses() {
        let c1 = compiled_for(KernelId::Median, 8, 8);
        let after_miss = compile_count();
        let c2 = compiled_for(KernelId::Median, 8, 8);
        assert!(Arc::ptr_eq(&c1, &c2), "memo must hand out one shared table");
        assert!(after_miss >= 1, "the miss must be counted");
        // Concurrent tests may compile other kernels, so only monotonicity
        // is observable here; the hit itself adds nothing for this key.
        assert!(compile_count() >= after_miss);
    }

    #[test]
    fn engines_agree_on_reports() {
        let step = simulate(&req());
        let engine = ExecEngine::Compiled;
        let compiled = simulate(&RunRequest { engine, ..req() });
        assert_eq!(step, compiled, "Compiled diverged from Step");
    }

    #[test]
    fn live_dirty_runs_honor_an_explicit_plan() {
        let dirty = RunRequest {
            scope: BackupScope::LiveDirty,
            ..req()
        };
        let cached = simulate(&dirty);
        assert!(cached.backups > 0, "the trace must force backups");
        assert!(cached.energy_backup_saved > Energy::ZERO);
        // A plan that covers no pc scopes nothing: every backup is full.
        let empty = CheckpointPlan {
            checkpoints: Vec::new(),
            masks: Vec::new(),
        };
        let unscoped = simulate(&RunRequest {
            checkpoint_plan: Some(Arc::new(empty)),
            ..dirty
        });
        assert_eq!(unscoped.energy_backup_saved, Energy::ZERO);
    }

    #[test]
    fn canonical_key_folds_only_the_two_equivalent_spellings() {
        let key = |mode, scope, checkpoint_plan| {
            RunRequest {
                mode,
                scope,
                checkpoint_plan,
                ..req()
            }
            .canonical()
        };
        let full = BackupScope::FullState;
        let precise = key(ExecMode::Precise, full, None);
        let fixed = ExecMode::Fixed;
        assert_eq!(key(fixed(8), full, None), precise);
        assert_ne!(key(fixed(7), full, None), precise);
        assert_ne!(key(fixed(7), full, None), key(fixed(8), full, None));

        let dirty = BackupScope::LiveDirty;
        let implicit = key(ExecMode::Precise, dirty, None);
        let (w, h) = dims(req().kernel, req().img);
        let cached = plan_for(req().kernel, w, h);
        assert_eq!(
            key(ExecMode::Precise, dirty, Some(cached.clone())),
            implicit
        );
        let other = CheckpointPlan {
            masks: cached.masks.iter().map(|m| !m).collect(),
            ..(*cached).clone()
        };
        assert_ne!(
            key(ExecMode::Precise, dirty, Some(Arc::new(other))),
            implicit
        );
    }

    #[test]
    fn input_seed_seeds_each_frame() {
        let seeded = RunRequest {
            frames: 2,
            input_seed: 77,
            ..req()
        };
        let (w, h) = dims(seeded.kernel, seeded.img);
        let want: Vec<Vec<i32>> = (77..79)
            .map(|seed| seeded.kernel.make_input(w, h, seed))
            .collect();
        assert_eq!(*seeded.inputs(), want);
        let default = RunRequest {
            input_seed: INPUT_SEED,
            ..seeded
        };
        let shared = frames_for(default.kernel, default.img, default.frames);
        assert!(Arc::ptr_eq(&default.inputs(), &shared));
    }

    #[test]
    fn trace_shape_rotates_by_the_pass_then_tiles() {
        let trace = PowerProfile::from_uw([1.0, 2.0, 3.0, 4.0]);
        let shape = |pass| TraceShape { pass, passes: 4 };
        let shaped = shape(1).apply(&trace);
        assert_eq!(
            shaped.as_uw_slice(),
            [2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0, 1.0]
        );
        assert_eq!(
            shape(0).apply(&trace).as_uw_slice()[..4],
            [1.0, 2.0, 3.0, 4.0]
        );
    }

    #[test]
    fn a_shaped_run_differs_from_its_unshaped_twin() {
        let plain = RunRequest {
            record_outputs: true,
            frames_limit: Some(1),
            ..req()
        };
        let shaped = RunRequest {
            trace_shape: Some(TraceShape { pass: 1, passes: 2 }),
            ..plain.clone()
        };
        assert_ne!(plain, shaped, "the shape must join the key");
        assert_ne!(simulate(&plain), simulate(&shaped));
    }

    #[test]
    fn scoped_runs_back_up_under_the_analyses_masks() {
        for id in KernelId::ALL {
            for img in [8, 24] {
                let (w, h) = dims(id, img);
                let spec = cached_spec(id, w, h);
                let what = format!("{id} at img {img}");
                let plan = |scope| {
                    let run = RunRequest {
                        kernel: id,
                        img,
                        scope,
                        ..req()
                    };
                    run.config(&spec, w, h).checkpoint_plan
                };
                assert!(plan(BackupScope::FullState).is_none(), "{what}");

                let live = plan(BackupScope::LiveOnly).expect("a LiveOnly run gets a plan");
                let liveness = BackupLiveness::compute(&spec.program);
                assert!(live.checkpoints.is_empty(), "{what}");
                assert_eq!(live.masks.len(), spec.program.len(), "{what}");
                for (pc, &mask) in live.masks.iter().enumerate() {
                    assert_eq!(mask, liveness.live_at(pc), "{what}: pc {pc}");
                }

                let (bits_lo, bits_hi) = id.declared_bits();
                let opts = CkptOptions {
                    bits_lo,
                    bits_hi,
                    mem_words: spec.mem_words,
                };
                let placement = synthesize(&spec.program, &Cfg::build(&spec.program), &opts);
                let want = &placement.synthesized;
                let cached = plan_for(id, w, h);
                let pcs: Vec<usize> = want.checkpoints.iter().map(|&(pc, _)| pc).collect();
                assert_eq!(cached.checkpoints, pcs, "{what}");
                assert_eq!(cached.masks, want.masks, "{what}");
                let dirty = plan(BackupScope::LiveDirty).expect("a LiveDirty run gets a plan");
                assert_eq!(dirty, cached, "{what}");
            }
        }
    }

    #[test]
    fn traced_and_untraced_reports_agree() {
        let mut sink = nvp_trace::CounterSink::new();
        let traced = simulate_traced(&req(), &mut sink);
        let plain = simulate(&req());
        assert_eq!(traced, plain);
        assert!(sink.summary.total() > 0, "no events emitted");
    }
}
