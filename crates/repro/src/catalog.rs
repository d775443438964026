//! Shared simulation inputs and request-shaped runner entry points.
//!
//! Every consumer of the simulator — the `repro` experiment functions and
//! the `nvp-serve` service — needs the same three expensive artifacts per
//! run: a built [`KernelSpec`], a cycled input-frame set, and a synthesized
//! power trace. This module owns one process-wide memo table for each, so
//! a sweep, a served request, and a test all hit the *same* cache instead
//! of rebuilding (or worse, holding three divergent copies).
//!
//! The memo locks recover from poisoning rather than panicking: the cached
//! values are write-once (insert-then-share `Arc`s / `Arc`-backed specs),
//! so a panic elsewhere while holding the lock cannot leave a half-built
//! entry behind — the map is always structurally sound. A service must not
//! refuse every future request because one worker died mid-insert.
//!
//! [`simulate`] / [`simulate_traced`] are the request-shaped entry points:
//! a plain-data [`RunRequest`] in, a [`RunReport`] out, fully deterministic
//! — two identical requests produce byte-identical reports and traces,
//! which is what makes result caching in `nvp-serve` sound.

use crate::dims;
use nvp_isa::CompiledProgram;
use nvp_kernels::{KernelId, KernelSpec};
use nvp_power::synth::WatchProfile;
use nvp_power::PowerProfile;
use nvp_sim::{compile_kernel, ExecEngine, ExecMode, RunReport, SystemConfig, SystemSim};
use nvp_trace::Tracer;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// A lazily-initialized keyed memo table shared across threads.
type Memo<K, V> = OnceLock<Mutex<HashMap<K, V>>>;

/// A shared, immutable input-frame set.
pub type Frames = Arc<Vec<Vec<i32>>>;

/// Locks a memo table, recovering from poisoning (see the module docs for
/// why recovery is sound here).
fn lock_memo<K, V>(memo: &Memo<K, V>) -> MutexGuard<'_, HashMap<K, V>> {
    memo.get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Cache of built kernel specs; the contained `Program` is an `Arc`, so
/// handing out clones shares one instruction stream across all runs.
pub fn cached_spec(id: KernelId, w: usize, h: usize) -> KernelSpec {
    static CACHE: Memo<(KernelId, usize, usize), KernelSpec> = OnceLock::new();
    lock_memo(&CACHE)
        .entry((id, w, h))
        .or_insert_with(|| id.spec(w, h))
        .clone()
}

/// Builds (or fetches) the cycled input-frame set for a kernel at an image
/// scale, shared immutably across every simulation that uses it.
pub fn frames_for(id: KernelId, img: usize, frames: usize) -> Frames {
    static CACHE: Memo<(KernelId, usize, usize), Frames> = OnceLock::new();
    lock_memo(&CACHE)
        .entry((id, img, frames))
        .or_insert_with(|| {
            let (w, h) = dims(id, img);
            Arc::new(
                (0..frames)
                    .map(|i| id.make_input(w, h, 0xBEEF + i as u64))
                    .collect(),
            )
        })
        .clone()
}

/// Number of superinstruction-table compilations performed process-wide.
/// Every [`compiled_for`] miss bumps it; hits do not. `nvp-serve` exports
/// it as `nvp_compile_total`, making cache effectiveness observable.
static COMPILE_COUNT: AtomicU64 = AtomicU64::new(0);

/// How many kernel programs have been compiled to superinstruction tables
/// since process start (cache misses only — a well-warmed service stays
/// flat at one per distinct kernel × dimensions).
pub fn compile_count() -> u64 {
    COMPILE_COUNT.load(Ordering::Relaxed)
}

/// Compiles (or fetches) the superinstruction table for a kernel at given
/// frame dimensions, shared behind an `Arc` by every simulation of that
/// kernel — a sweep of a thousand runs pays for one compilation.
pub fn compiled_for(id: KernelId, w: usize, h: usize) -> Arc<CompiledProgram> {
    static CACHE: Memo<(KernelId, usize, usize), Arc<CompiledProgram>> = OnceLock::new();
    lock_memo(&CACHE)
        .entry((id, w, h))
        .or_insert_with(|| {
            COMPILE_COUNT.fetch_add(1, Ordering::Relaxed);
            let spec = cached_spec(id, w, h);
            Arc::new(compile_kernel(&spec.program, spec.mem_words))
        })
        .clone()
}

/// Synthesizes (or fetches) a watch profile's power trace.
pub fn synth_profile(profile: WatchProfile, seconds: f64) -> Arc<PowerProfile> {
    static CACHE: Memo<(WatchProfile, u64), Arc<PowerProfile>> = OnceLock::new();
    lock_memo(&CACHE)
        .entry((profile, seconds.to_bits()))
        .or_insert_with(|| Arc::new(profile.synthesize_seconds(seconds)))
        .clone()
}

/// Synthesizes (or fetches) family member `member` of a watch profile's
/// power trace — same harvester calibration, independent RNG stream per
/// member (see [`WatchProfile::family_seed`]). Member 0 delegates to
/// [`synth_profile`] so the canonical trace is cached once, not twice.
pub fn synth_profile_member(profile: WatchProfile, seconds: f64, member: u32) -> Arc<PowerProfile> {
    if member == 0 {
        return synth_profile(profile, seconds);
    }
    static CACHE: Memo<(WatchProfile, u64, u32), Arc<PowerProfile>> = OnceLock::new();
    lock_memo(&CACHE)
        .entry((profile, seconds.to_bits(), member))
        .or_insert_with(|| Arc::new(profile.synthesize_seconds_member(seconds, member)))
        .clone()
}

/// One fully-specified simulation: kernel × scale × profile × mode.
///
/// This is the plain-data request shape shared by `repro`'s experiment
/// sweeps and `nvp-serve`'s `POST /v1/run` endpoint. Everything that can
/// change the simulation's output is in here; two equal requests are
/// guaranteed byte-identical results.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// Which testbench to run.
    pub kernel: KernelId,
    /// Image edge length in pixels (kernel dims derive from this via
    /// [`dims`]).
    pub img: usize,
    /// Number of distinct input frames to cycle.
    pub frames: usize,
    /// Power-trace length in seconds.
    pub trace_seconds: f64,
    /// Harvested-power profile to replay.
    pub profile: WatchProfile,
    /// NVP variant to simulate.
    pub mode: ExecMode,
    /// Capacitor-check scheduling engine (results are identical across
    /// engines; this only selects how the run loop dispatches).
    pub engine: ExecEngine,
    /// RNG seed for retention decay.
    pub seed: u64,
}

impl RunRequest {
    /// Builds the system configuration this request implies.
    fn config(&self) -> SystemConfig {
        SystemConfig {
            record_outputs: false,
            seed: self.seed,
            exec_engine: self.engine,
            ..Default::default()
        }
    }

    /// Assembles the simulator (spec, frames and config all drawn from the
    /// shared caches).
    fn build_sim(&self) -> (SystemSim, Arc<PowerProfile>) {
        let (w, h) = dims(self.kernel, self.img);
        let spec = cached_spec(self.kernel, w, h);
        let frames = frames_for(self.kernel, self.img, self.frames);
        let trace = synth_profile(self.profile, self.trace_seconds);
        let mut sim = SystemSim::new(spec, frames, self.mode, self.config());
        if self.engine == ExecEngine::Compiled {
            sim.set_compiled(compiled_for(self.kernel, w, h));
        }
        (sim, trace)
    }
}

/// Runs one request to completion.
pub fn simulate(req: &RunRequest) -> RunReport {
    let (sim, trace) = req.build_sim();
    sim.run(&trace)
}

/// Runs one request with its event stream routed to `tracer`.
///
/// The emitted events are identical to what `repro --trace` records for
/// the same configuration; `nvp-serve` uses this both to stream a JSONL
/// trace back in responses and to feed its `/metrics` counters.
pub fn simulate_traced(req: &RunRequest, tracer: &mut dyn Tracer) -> RunReport {
    let (sim, trace) = req.build_sim();
    sim.run_traced(&trace, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> RunRequest {
        RunRequest {
            kernel: KernelId::Sobel,
            img: 8,
            frames: 1,
            trace_seconds: 0.3,
            profile: WatchProfile::P1,
            mode: ExecMode::Precise,
            engine: ExecEngine::default(),
            seed: 0x5EED,
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
    fn lock_memo_recovers_from_poisoning() {
        // Regression test for the recovery path in `lock_memo`: a worker
        // dying while holding a memo lock must not wedge the cache for
        // every later caller (the module docs promise exactly this).
        static MEMO: Memo<u32, u32> = OnceLock::new();
        lock_memo(&MEMO).insert(1, 10);
        let err = std::thread::spawn(|| {
            let _guard = lock_memo(&MEMO);
            panic!("die while holding the memo lock");
        })
        .join();
        assert!(err.is_err(), "worker must have panicked");
        assert!(
            MEMO.get().expect("initialized").lock().is_err(),
            "lock must actually be poisoned for this test to mean anything"
        );
        // Recovery: subsequent callers still read and write the map.
        assert_eq!(lock_memo(&MEMO).get(&1), Some(&10));
        lock_memo(&MEMO).insert(2, 20);
        assert_eq!(lock_memo(&MEMO).get(&2), Some(&20));
    }

    #[test]
    fn public_memos_survive_a_poisoned_sibling() {
        // Poisoning one memo table is local damage: every public cache
        // accessor keeps working, because each recovers independently.
        static DOOMED: Memo<u8, u8> = OnceLock::new();
        let _ = std::thread::spawn(|| {
            let _guard = lock_memo(&DOOMED);
            panic!("poison");
        })
        .join();
        let spec = cached_spec(KernelId::Sobel, 8, 8);
        assert!(spec.mem_words > 0);
        assert_eq!(frames_for(KernelId::Sobel, 8, 1).len(), 1);
        assert!(!synth_profile(WatchProfile::P1, 0.2).is_empty());
        assert!(!synth_profile_member(WatchProfile::P1, 0.2, 2).is_empty());
        let _ = compiled_for(KernelId::Sobel, 8, 8);
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
    fn traced_and_untraced_reports_agree() {
        let mut sink = nvp_trace::CounterSink::new();
        let traced = simulate_traced(&req(), &mut sink);
        let plain = simulate(&req());
        assert_eq!(traced, plain);
        assert!(sink.summary.total() > 0, "no events emitted");
    }
}
