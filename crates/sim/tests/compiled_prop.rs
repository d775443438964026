//! Property-based differential gate for [`ExecEngine::Compiled`]: random
//! multi-block programs — a straight-line prefix, a bounded store loop, a
//! frame commit, and a tail, over a vocabulary of loads, absolute and
//! indirect stores, ALU ops, and branches — must produce byte-identical
//! JSONL traces and equal [`RunReport`]s under the compiled engine and
//! the reference step interpreter, wherever a brownout lands. Both
//! engines run the one metered loop, so this guards the engine tag: it
//! must never change a result. Program shape mirrors the
//! `dirty_soundness` harness in `nvp-analysis`.

use nvp_isa::{Program, ProgramBuilder, Reg};
use nvp_kernels::{KernelId, KernelSpec};
use nvp_power::PowerProfile;
use nvp_sim::{ExecEngine, ExecMode, RunReport, SystemConfig, SystemSim};
use nvp_trace::JsonlBufSink;
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

const MEM_WORDS: usize = 256;
const INPUT_WORDS: usize = 32;
const PRECISE: [Reg; 4] = [Reg(0), Reg(1), Reg(2), Reg(3)];
const AC: [Reg; 4] = [Reg(12), Reg(13), Reg(14), Reg(15)];

/// Builds a multi-block program from encoded random ops, shaped like the
/// shipped kernels (`mark_resume` entry, bounded loop, `frame_done`,
/// tail, `halt`). Input frames land at 100..132 with values in `0..50`,
/// so the loaded-base indirect store (case 6) always computes an address
/// below `MEM_WORDS` — these programs must never fault, only diverge if
/// the compiled engine has a bug.
fn build(raw: &[u32], trip: u32) -> Program {
    let mut b = ProgramBuilder::new();
    for r in AC {
        b.mark_ac(r);
    }
    b.approx_region(100, 200);
    b.mark_resume(0);
    let op = |b: &mut ProgramBuilder, word: u32, precise: &[Reg]| {
        let p = precise[(word >> 8) as usize % precise.len()];
        let a = AC[(word >> 16) as usize % 4];
        let a2 = AC[(word >> 24) as usize % 4];
        match word % 8 {
            0 => b.ldi(p, (word >> 3) as i32 % 256),
            1 => b.addi(p, p, (word >> 5) as i32 % 16),
            2 => b.add(a, a, a2),
            3 => b.ld(a, 100 + (word >> 4) % 50),
            4 => b.st(150 + (word >> 4) % 50, a),
            5 => {
                // Indirect store off a constant base: the interval hints
                // can hoist this access's bounds check.
                b.ldi(p, 150 + (word >> 4) as i32 % 40);
                b.st_ind(p, (word >> 10) as i32 % 10, a)
            }
            6 => {
                // Indirect store off a loaded base: the hoisting cannot
                // prove this one, so the compiled op keeps its per-access
                // fault check — both flavours must stay lockstep.
                b.ld(p, 100 + (word >> 4) % 50);
                b.st_ind(p, 150 + (word >> 10) as i32 % 40, a)
            }
            _ => b.muli(a, a, (word >> 6) as i32 % 8),
        };
    };
    for &word in raw {
        op(&mut b, word, &PRECISE);
    }
    // Bounded loop: mem[200 + c] = accumulator, for c in 0..trip. The
    // brlt back-edge lands mid-program, on a pc no straight-line run
    // reaches.
    let c = PRECISE[0];
    let n = PRECISE[1];
    let idx = PRECISE[2];
    b.ldi(c, 0).ldi(n, trip as i32);
    let head = b.label();
    b.place(head);
    // The body op only gets r3: clobbering the counter, bound, or index
    // register would break termination or addressing.
    op(&mut b, raw[raw.len() / 2], &[PRECISE[3]]);
    b.addi(idx, c, 200)
        .st_ind(idx, 0, AC[0])
        .addi(c, c, 1)
        .brlt(c, n, head);
    b.frame_done();
    // Post-frame tail so the last block is not the committing one.
    b.ldi(c, 7).st(249, c);
    b.halt();
    b.build().expect("generated program must assemble")
}

/// Wraps a random program in a synthetic kernel spec (the id is a
/// placeholder — nothing engine-sensitive reads it) with pseudo-random
/// small-valued input frames derived from `seed`.
fn spec_and_frames(program: Program, seed: u64) -> (KernelSpec, Arc<Vec<Vec<i32>>>) {
    let spec = KernelSpec {
        id: KernelId::Median,
        width: INPUT_WORDS,
        height: 1,
        program: Arc::new(program),
        mem_words: MEM_WORDS,
        tables: Vec::new(),
        input: 100..100 + INPUT_WORDS as u32,
        output: 200..232,
    };
    let frames: Vec<Vec<i32>> = (0..3)
        .map(|f| {
            (0..INPUT_WORDS)
                .map(|i| {
                    let x = (seed ^ (f * 131 + i as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    ((x >> 33) % 50) as i32
                })
                .collect()
        })
        .collect();
    (spec, Arc::new(frames))
}

/// Bursty harvest: 12 ticks of strong income then 138 dead, so runs die
/// and restore constantly and interrupts land against compiled segments.
fn bursty() -> PowerProfile {
    let pattern: Vec<f64> = (0..40_000)
        .map(|i| if i % 150 < 12 { 800.0 } else { 0.0 })
        .collect();
    PowerProfile::from_uw(pattern)
}

/// Runs the spec'd program under one engine.
fn run(
    spec: &KernelSpec,
    frames: &Arc<Vec<Vec<i32>>>,
    mode: ExecMode,
    profile: &PowerProfile,
    engine: ExecEngine,
) -> (RunReport, String) {
    let cfg = SystemConfig {
        exec_engine: engine,
        frames_limit: Some(3),
        ..Default::default()
    };
    let sim = SystemSim::new(spec.clone(), frames.clone(), mode, cfg);
    let mut jsonl = JsonlBufSink::new();
    let report = sim.run_traced(profile, &mut jsonl);
    (report, jsonl.into_string())
}

fn assert_engines_agree(
    spec: &KernelSpec,
    frames: &Arc<Vec<Vec<i32>>>,
    mode: ExecMode,
    profile: &PowerProfile,
) -> Result<(), String> {
    let (step_rep, step_trace) = run(spec, frames, mode, profile, ExecEngine::Step);
    let (comp_rep, comp_trace) = run(spec, frames, mode, profile, ExecEngine::Compiled);
    if step_trace != comp_trace {
        let at = step_trace
            .lines()
            .zip(comp_trace.lines())
            .position(|(a, b)| a != b);
        return Err(format!(
            "traces diverge (first differing line {at:?})\n{}",
            spec.program.disassemble()
        ));
    }
    if step_rep != comp_rep {
        return Err(format!(
            "reports diverge:\n step={step_rep:?}\n comp={comp_rep:?}\n{}",
            spec.program.disassemble()
        ));
    }
    // Guard against a vacuous pass: the generated programs always retire
    // work and the trace always closes.
    if step_rep.instructions_retired == 0 || !step_trace.contains("run_end") {
        return Err("run was vacuous: nothing retired".into());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random programs, precise and fixed-width modes, bursty power:
    /// compiled equals stepped byte-for-byte.
    #[test]
    fn compiled_matches_step_on_random_programs(
        raw in vec(any::<u32>(), 1..24),
        trip in 1u32..16,
        seed in any::<u64>(),
        fixed in any::<bool>(),
    ) {
        let p = build(&raw, trip);
        let (spec, frames) = spec_and_frames(p, seed);
        let mode = if fixed {
            ExecMode::Fixed(2)
        } else {
            ExecMode::Precise
        };
        let r = assert_engines_agree(&spec, &frames, mode, &bursty());
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}
