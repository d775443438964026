//! The conventional "wait-compute" baseline (Section 2.2).
//!
//! A volatile MCU behind a large energy-storage device: the system charges
//! the ESD until it holds enough energy for one *entire logical unit of
//! work* (one frame), then executes the frame in one burst. If power is
//! lost mid-frame (the ESD model says it cannot be — the charge rule
//! guarantees a full frame — but leakage and the minimum charging current
//! make the *charging* phase slow and lossy), all the classic pathologies
//! apply: conversion losses in and out, level-proportional leakage, and no
//! charging at all below the minimum current.

use nvp_isa::energy::instr_energy;
use nvp_isa::{ApproxConfig, InstrClass};
use nvp_power::{frontend, Energy, EnergyStore, PowerProfile, Ticks};
use nvp_trace::{emit, Event, NoopTracer, Tracer};

/// Results of a wait-compute run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WaitComputeReport {
    /// Frames fully completed.
    pub frames_completed: u64,
    /// Instructions executed (all persistent: frames run to completion).
    pub forward_progress: u64,
    /// Ticks spent charging.
    pub charge_ticks: u64,
    /// Ticks spent executing.
    pub run_ticks: u64,
    /// Total ticks simulated.
    pub total_ticks: u64,
    /// Average seconds per completed frame (None if no frame completed).
    pub seconds_per_frame: Option<f64>,
}

/// The volatile MCU's instructions per tick: 1 MHz over a 0.1 ms tick.
const CYCLES_PER_TICK: u64 = 100;

/// The wait-compute simulator.
#[derive(Debug, Clone)]
pub struct WaitComputeSim {
    /// Instructions in one frame (sized with
    /// [`crate::quickrun::instructions_per_frame`]).
    frame_instructions: u64,
    /// Energy of one instruction: the NVP's full-precision ALU price.
    per_instr: Energy,
    /// The large ESD.
    store: EnergyStore,
}

impl WaitComputeSim {
    /// Builds the baseline for a frame of the given instruction count,
    /// sizing the ESD to hold one frame's energy (the paper's design rule).
    /// The MCU is priced with the NVP's energy model for a fair comparison.
    pub fn new(frame_instructions: u64) -> Self {
        let per_instr = instr_energy(InstrClass::Alu, &ApproxConfig::default());
        WaitComputeSim {
            frame_instructions,
            per_instr,
            store: EnergyStore::sized_for(per_instr * frame_instructions as f64),
        }
    }

    /// Energy needed for one frame.
    pub fn frame_energy(&self) -> Energy {
        self.per_instr * self.frame_instructions as f64
    }

    /// Runs the baseline over a power trace.
    pub fn run(self, profile: &PowerProfile) -> WaitComputeReport {
        self.run_traced(profile, &mut NoopTracer)
    }

    /// Runs the baseline, emitting `wait_stall` events when the ESD runs
    /// dry mid-frame and `frame_committed` events on frame completion.
    pub fn run_traced(
        mut self,
        profile: &PowerProfile,
        tracer: &mut dyn Tracer,
    ) -> WaitComputeReport {
        let frame_energy = self.frame_energy();
        let per_instr = self.per_instr;
        let mut rep = WaitComputeReport::default();
        let mut executing_remaining = 0u64;
        for (t, power) in profile.iter() {
            rep.total_ticks += 1;
            let dc = frontend::convert(power);
            // The charger runs continuously, including during execution.
            self.store.charge_tick(dc);
            if executing_remaining > 0 {
                rep.run_ticks += 1;
                let burst = executing_remaining.min(CYCLES_PER_TICK);
                if self.store.try_deliver(per_instr * burst as f64) {
                    executing_remaining -= burst;
                    rep.forward_progress += burst;
                    if executing_remaining == 0 {
                        rep.frames_completed += 1;
                        let input_index = rep.frames_completed - 1;
                        emit(tracer, || Event::FrameCommitted {
                            tick: t.0,
                            lane: 0,
                            input_index,
                            incidental: false,
                        });
                    }
                } else {
                    // ESD ran dry mid-frame (leakage): volatile MCU loses
                    // the whole frame.
                    emit(tracer, || Event::WaitStall {
                        tick: t.0,
                        level_nj: self.store.level().as_nj(),
                        needed_nj: (per_instr * burst as f64).as_nj(),
                    });
                    executing_remaining = 0;
                }
            } else {
                rep.charge_ticks += 1;
                // Enough banked for a full frame (plus discharge losses)?
                if self.store.can_deliver(frame_energy) {
                    executing_remaining = self.frame_instructions;
                }
            }
            self.store.leak_tick();
        }
        if rep.frames_completed > 0 {
            rep.seconds_per_frame =
                Some(Ticks(rep.total_ticks).as_seconds() / rep.frames_completed as f64);
        }
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_power::synth::WatchProfile;
    use nvp_power::Power;

    #[test]
    fn strong_steady_power_completes_frames() {
        let sim = WaitComputeSim::new(10_000);
        let profile = PowerProfile::constant(Power::from_uw(1500.0), Ticks::from_seconds(10.0));
        let rep = sim.run(&profile);
        assert!(rep.frames_completed > 0, "{rep:?}");
        assert!(rep.seconds_per_frame.unwrap() > 0.0);
    }

    #[test]
    fn weak_power_below_min_current_never_charges() {
        let sim = WaitComputeSim::new(10_000);
        // 20 µW harvested → ~12 µW DC, below the 100 µW minimum charging
        // power: the ESD never accumulates anything.
        let profile = PowerProfile::constant(Power::from_uw(20.0), Ticks::from_seconds(5.0));
        let rep = sim.run(&profile);
        assert_eq!(rep.frames_completed, 0);
        assert_eq!(rep.forward_progress, 0);
    }

    #[test]
    fn nvp_outperforms_waitcompute_on_watch_profile() {
        // Section 2.2: NVP execution beats wait-compute by 2.2–5×.
        use crate::system::{SystemConfig, SystemSim};
        use crate::ExecMode;
        use nvp_kernels::KernelId;

        let id = KernelId::Tiff2Bw;
        let spec = id.spec(8, 8);
        let input = id.make_input(8, 8, 1);
        let frame_instr = crate::quickrun::instructions_per_frame(&spec, &input);
        let profile = WatchProfile::P1.synthesize_seconds(10.0);

        let wc = WaitComputeSim::new(frame_instr).run(&profile);

        let cfg = SystemConfig {
            record_outputs: false,
            ..Default::default()
        };
        let nvp = SystemSim::new(spec, vec![input], ExecMode::Precise, cfg).run(&profile);

        assert!(
            nvp.forward_progress as f64 >= 1.5 * wc.forward_progress.max(1) as f64,
            "NVP {} vs wait-compute {}",
            nvp.forward_progress,
            wc.forward_progress
        );
    }

    #[test]
    fn bookkeeping_adds_up() {
        let sim = WaitComputeSim::new(1000);
        let profile = PowerProfile::constant(Power::from_uw(800.0), Ticks::from_seconds(2.0));
        let rep = sim.run(&profile);
        assert_eq!(rep.charge_ticks + rep.run_ticks, rep.total_ticks);
    }
}
