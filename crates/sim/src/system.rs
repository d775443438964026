//! The execution state machine: power trace → capacitor → VM.
//!
//! One [`SystemSim`] runs one kernel over a stream of input frames under a
//! harvested-power trace. Each 0.1 ms tick banks the rectified income into
//! the on-chip capacitor and, when running, retires instructions until the
//! tick's cycle budget (100 cycles at 1 MHz) or the energy reserve is
//! exhausted. Hitting the reserve triggers a **backup** (a power
//! emergency); recovering past the start threshold triggers a **restore**,
//! which either rolls back (conventional NVP) or rolls forward to the
//! newest buffered frame (incidental NVP, Section 3.1).

use crate::energy::FlushCursor;
use crate::governor::Governor;
use crate::mode::ExecMode;
use crate::resume::{PendingFrame, ResumeController, PARK_SLOTS};
use nvp_isa::approx::FULL_BITS;
use nvp_isa::energy::{self, BACKUP_POLICY, CAPACITOR_NJ, RESERVE_SAFETY};
use nvp_isa::{ApproxConfig, CompiledProgram, Meter, MeterStop, Vm, NUM_REGS};
use nvp_kernels::KernelSpec;
use nvp_nvm::backup::decay_region_traced;
use nvp_nvm::RetentionPolicy;
use nvp_power::{frontend, Capacitor, Energy, PowerProfile, Ticks, VoltageMonitor};
use nvp_trace::{emit, Event, NoopTracer, Tracer};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Cycles available per 0.1 ms tick at the 1 MHz core clock.
pub const CYCLES_PER_TICK: u64 = 100;

/// Hysteresis: the start threshold requires enough energy beyond the
/// reserve to run the mode's threshold datapath for this many ticks,
/// clamped to 95 % of the capacitor. At the default 3.5 µJ capacitor the
/// quantum alone passes that clamp for every mode and width, so every run
/// restarts at the same 3,325 nJ; width moves the threshold only on larger
/// capacitors. Narrow configurations still bridge longer gaps per charge,
/// since each instruction costs less, which is what makes backups *drop*
/// as bitwidth shrinks (Figure 16).
const RUN_QUANTUM_TICKS: u64 = 400;

/// Extra cost factor for incidental backups (plane parking writes).
const INCIDENTAL_BACKUP_FACTOR: f64 = 1.5;

/// One committed output frame, kept only when
/// [`SystemConfig::record_outputs`] is set (the `frame_committed` trace
/// event carries the lane and tick of every commit either way).
#[derive(Debug, Clone, PartialEq)]
pub struct CommittedFrame {
    /// Index of the input frame this output corresponds to.
    pub input_index: u64,
    /// SIMD lane it was computed on (0 = the live, full-priority lane).
    pub lane: u8,
    /// Tick at which the frame committed.
    pub commit_tick: Ticks,
    /// Output words.
    pub output: Vec<i32>,
    /// Per-element precision tags (parallel to `output`).
    pub precision: Vec<u8>,
}

/// Aggregate results of a system run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Lane-weighted instructions persistently committed (the paper's
    /// forward-progress metric, counting incidental SIMD work).
    pub forward_progress: u64,
    /// Instruction issue slots retired (unweighted).
    pub instructions_retired: u64,
    /// Number of backups (power emergencies).
    pub backups: u64,
    /// Number of restores.
    pub restores: u64,
    /// Ticks spent with the core executing.
    pub on_ticks: u64,
    /// Total ticks simulated.
    pub total_ticks: u64,
    /// Frames committed on the live lane.
    pub frames_committed: u64,
    /// Frames committed on incidental lanes.
    pub incidental_frames: u64,
    /// Parked frames abandoned by FIFO eviction.
    pub frames_abandoned: u64,
    /// Successful incidental SIMD merges.
    pub merges: u64,
    /// Retention failures by bit position (0 = LSB), Figure 22.
    pub retention_failures: [u64; 8],
    /// Energy banked into the capacitor.
    pub energy_income: Energy,
    /// Energy spent executing instructions.
    pub energy_compute: Energy,
    /// Energy spent on backups.
    pub energy_backup: Energy,
    /// Backup energy avoided by [`BackupScope::LiveOnly`] (difference to
    /// what the same backups would have cost at full scope).
    pub energy_backup_saved: Energy,
    /// Energy spent on restores.
    pub energy_restore: Energy,
    /// Ticks at each live-lane bitwidth; index 0 counts off-ticks
    /// (Figure 18's utilization histogram).
    pub bit_utilization: [u64; 9],
    /// Committed frames in commit order; empty unless the run recorded
    /// outputs.
    pub committed: Vec<CommittedFrame>,
}

impl RunReport {
    /// Fraction of ticks with the core on (Figure 9's "system-on time").
    pub fn system_on_fraction(&self) -> f64 {
        if self.total_ticks == 0 {
            0.0
        } else {
            self.on_ticks as f64 / self.total_ticks as f64
        }
    }

    /// Backup energy as a fraction of banked income (Section 3.2's
    /// 20.1–33 %).
    pub fn backup_energy_fraction(&self) -> f64 {
        let income = self.energy_income.as_nj();
        if income == 0.0 {
            0.0
        } else {
            self.energy_backup.as_nj() / income
        }
    }

    /// Total retention failures.
    pub fn total_retention_failures(&self) -> u64 {
        self.retention_failures.iter().sum()
    }

    /// Committed outputs for a given input frame, most recent first.
    pub fn outputs_for(&self, input_index: u64) -> Vec<&CommittedFrame> {
        let mut v: Vec<&CommittedFrame> = self
            .committed
            .iter()
            .filter(|c| c.input_index == input_index)
            .collect();
        v.reverse();
        v
    }
}

/// Which engine a run names. Both run the one metered loop
/// ([`Vm::run_metered`]): it checks the capacitor against the
/// instruction's price plus the backup reserve before every instruction,
/// so a power emergency can land at any instruction boundary, and it
/// drains and retires instructions through the interpreter in the same
/// order under either name. Reports and traces are byte-identical; the
/// engine is a tag that run keys, service bodies and `/metrics` labels
/// carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecEngine {
    /// The default engine name, which the `repro` experiments use. It
    /// runs the same loop as [`ExecEngine::Compiled`]; neither is a
    /// reference model (there is none yet, ROADMAP item 1).
    #[default]
    Step,
    /// The engine the service serves by default. It runs the same loop as
    /// [`ExecEngine::Step`]; a catalog run under this name still builds
    /// the kernel's op table, which nothing executes. The name stays
    /// because run keys, service bodies and fleet specs carry it
    /// (DESIGN.md §13).
    Compiled,
}

impl ExecEngine {
    /// Every engine, the default first.
    pub const ALL: [ExecEngine; 2] = [ExecEngine::Step, ExecEngine::Compiled];

    /// Canonical lowercase name, the one spelling used by service cache
    /// keys and bodies, fleet specs and `/metrics` labels.
    pub fn name(self) -> &'static str {
        match self {
            ExecEngine::Step => "step",
            ExecEngine::Compiled => "compiled",
        }
    }

    /// Parses an engine name (case-insensitive). The error is a
    /// human-readable reason naming the accepted spellings.
    pub fn parse(name: &str) -> Result<ExecEngine, String> {
        Self::ALL
            .into_iter()
            .find(|e| e.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("unknown engine '{name}' (want step|compiled)"))
    }
}

/// How much architectural state a backup persists.
///
/// The two scoped modes differ only in where their masks come from; the
/// simulator reads both from [`SystemConfig::checkpoint_plan`] and runs
/// no analysis itself. A scoped backup at a pc the plan's mask table does
/// not cover, or in a run with no plan at all, persists the full state
/// and traces a `backup_scope_fallback` warning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackupScope {
    /// Persist the full state image regardless of what is live.
    #[default]
    FullState,
    /// Persist only state that may still be read at the interruption
    /// point, as `nvp-analysis`' static backup liveness proves it; the
    /// repro catalog builds that plan for every `LiveOnly` run. Dead
    /// state is rewritten before any read on every path, so skipping it
    /// cannot change execution; the data-word portion of the backup cost
    /// scales with the live fraction.
    LiveOnly,
    /// Persist only state that is both live *and* provably written since
    /// the last checkpoint crossing (`live ∩ dirty`, `nvp-analysis`' dirty
    /// sets): clean state already persists from the previous crossing, so
    /// rewriting it buys nothing. The repro catalog supplies one
    /// synthesized plan per kernel × dimensions (`catalog::plan_for`).
    LiveDirty,
}

/// The per-pc backup masks a scoped backup reads, with the checkpoint
/// pcs they were cut at. The plan is data: its caller computes it (the
/// repro catalog: backup liveness for `LiveOnly`, the placement
/// `nvp-analysis`' checkpoint synthesis finds for `LiveDirty`) or writes
/// it by hand.
///
/// The plan only scopes backup *costs* — the program's resume markers
/// and recovery semantics are untouched, so a planned run must commit
/// outputs identical to a full-state run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CheckpointPlan {
    /// Checkpoint pcs, sorted (recorded in certificates). A `LiveOnly`
    /// plan has none.
    pub checkpoints: Vec<usize>,
    /// Per-pc backup masks (index = pc, bit per register): the live set
    /// for `LiveOnly`, `live ∩ dirty` for `LiveDirty`.
    pub masks: Vec<u16>,
}

/// System configuration (capacitor, policy, ablation knobs).
///
/// The energy model ([`nvp_isa::energy`]) and the backup reserve's safety
/// factor ([`RESERVE_SAFETY`]) are constants of the platform, not
/// configuration. The default capacitor and backup policy are the
/// platform's [`CAPACITOR_NJ`] and [`BACKUP_POLICY`], the budget the static
/// WCEC lints certify against.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// On-chip capacitor capacity.
    pub capacitor_capacity: Energy,
    /// Retention policy for backups / marked data.
    pub backup_policy: RetentionPolicy,
    /// How much state each backup persists.
    pub backup_scope: BackupScope,
    /// Stop after committing this many live-lane frames (None = run the
    /// whole trace).
    pub frames_limit: Option<u64>,
    /// Whether to record output frames in the report. Without it,
    /// [`RunReport::committed`] stays empty and every other report field
    /// is unchanged.
    pub record_outputs: bool,
    /// Maximum incidental SIMD width (1..=4; ablation knob, paper uses 4).
    pub max_simd_lanes: u8,
    /// Resume-buffer parking slots (1..=3; ablation knob, paper uses a
    /// 4-entry buffer = 3 parked + 1 live).
    pub park_slots: u8,
    /// RNG seed for retention decay.
    pub seed: u64,
    /// Maximum wall-clock age of an incidental run's live frame data.
    /// When a restore finds the frame older than this, its relevance has
    /// lapsed ("importance of data drops over time", Section 3.1) and
    /// recovery rolls *forward* to the newest buffered frame, parking the
    /// old work for incidental recomputation from the frame's resume
    /// marker. Restores within the deadline resume in place like a
    /// conventional NVP. Defaults to 20,000 ticks (2 s); other modes
    /// never roll forward and ignore it.
    pub staleness: Ticks,
    /// Engine the run names; both run the one metered loop, so results
    /// are identical either way (see [`ExecEngine`]).
    pub exec_engine: ExecEngine,
    /// The per-pc masks that scope `LiveOnly` and `LiveDirty` backups,
    /// shared rather than copied. `None` leaves every pc uncovered: each
    /// scoped backup then persists the full state and traces a
    /// `backup_scope_fallback` warning. `FullState` ignores the plan.
    pub checkpoint_plan: Option<Arc<CheckpointPlan>>,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            capacitor_capacity: Energy::from_nj(CAPACITOR_NJ),
            backup_policy: BACKUP_POLICY,
            backup_scope: BackupScope::default(),
            frames_limit: None,
            record_outputs: true,
            max_simd_lanes: 4,
            park_slots: 3,
            seed: 0x5EED,
            staleness: Ticks(20_000),
            exec_engine: ExecEngine::default(),
            checkpoint_plan: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Off,
    Running,
    Done,
}

/// The system-level simulator.
#[derive(Debug)]
pub struct SystemSim {
    spec: KernelSpec,
    /// Input frames, shared immutably: a sweep running many configurations
    /// of the same workload clones the `Arc`, not the pixel data.
    frames: Arc<Vec<Vec<i32>>>,
    mode: ExecMode,
    /// The bitwidth governor of the `Dynamic` and `Incidental` modes.
    governor: Option<Governor>,
    cfg: SystemConfig,
    vm: Vm,
    cap: Capacitor,
    phase: Phase,
    started: bool,
    controller: ResumeController,
    active_inputs: Vec<u64>,
    next_input: u64,
    outage_start: u64,
    /// Tick at which the live frame's data was loaded (staleness clock).
    live_loaded_at: u64,
    /// Full-scope backup cost, backup reserve and start threshold by the
    /// live lane's bitwidth (index 1..=8). Each depends only on the mode,
    /// the configuration and that bitwidth, so all three are priced once
    /// at construction.
    backup_cost_by_bits: [Energy; 9],
    reserve_by_bits: [Energy; 9],
    start_threshold_by_bits: [Energy; 9],
    /// Per-class instruction energies at the last-seen approximation
    /// configuration, the one source both engines price instructions
    /// from (recomputed whenever the configuration changes).
    class_cache: Option<(ApproxConfig, [Energy; 6])>,
    rng: SmallRng,
    report: RunReport,
}

impl SystemSim {
    /// Creates a simulator for `spec` over `frames` (cycled if the run
    /// outlasts them).
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty, any frame has the wrong length, or
    /// `mode` has a bitwidth outside 1..=8 or an inverted range.
    pub fn new(
        spec: KernelSpec,
        frames: impl Into<Arc<Vec<Vec<i32>>>>,
        mode: ExecMode,
        cfg: SystemConfig,
    ) -> Self {
        let frames = frames.into();
        assert!(!frames.is_empty(), "need at least one input frame");
        for f in frames.iter() {
            assert_eq!(f.len(), spec.input_len(), "frame length mismatch");
        }
        let governor = match mode {
            ExecMode::Dynamic(lo, hi) | ExecMode::Incidental(lo, hi) => Some(Governor::new(lo, hi)),
            _ => None,
        };
        let mut vm = Vm::new(spec.program.clone(), spec.mem_words);
        *vm.mem_mut() = spec.build_memory();
        vm.seed_noise(cfg.seed ^ 0xA1);
        let cap = Capacitor::new(cfg.capacitor_capacity);
        let backup_factor = match mode {
            ExecMode::Incidental(..) => INCIDENTAL_BACKUP_FACTOR,
            _ => 1.0,
        };
        let quantum = energy::representative_instr(&Self::threshold_cfg(mode))
            * (RUN_QUANTUM_TICKS * CYCLES_PER_TICK) as f64;
        let mut backup_cost_by_bits = [Energy::ZERO; 9];
        let mut reserve_by_bits = [Energy::ZERO; 9];
        let mut start_threshold_by_bits = [Energy::ZERO; 9];
        for bits in 1..=FULL_BITS as usize {
            let backup = energy::backup_energy(cfg.backup_policy, bits as u8) * backup_factor;
            let reserve = backup * RESERVE_SAFETY;
            // A threshold above the capacitor would deadlock the system;
            // clamp to what the hardware can actually bank (expensive
            // configurations like 4-SIMD end up pinned near the top — the
            // paper's "highest threshold" baseline).
            let start =
                (reserve + energy::restore_energy() + quantum).min(cfg.capacitor_capacity * 0.95);
            backup_cost_by_bits[bits] = backup;
            reserve_by_bits[bits] = reserve;
            start_threshold_by_bits[bits] = start;
        }
        assert!(
            (1..=4).contains(&cfg.max_simd_lanes),
            "max_simd_lanes must be 1..=4"
        );
        let controller = ResumeController::with_capacity(cfg.park_slots as usize);
        let rng = SmallRng::seed_from_u64(cfg.seed);
        SystemSim {
            spec,
            frames,
            mode,
            governor,
            cfg,
            vm,
            cap,
            phase: Phase::Off,
            started: false,
            controller,
            active_inputs: Vec::new(),
            next_input: 0,
            outage_start: 0,
            live_loaded_at: 0,
            backup_cost_by_bits,
            reserve_by_bits,
            start_threshold_by_bits,
            class_cache: None,
            rng,
            report: RunReport::default(),
        }
    }

    /// Checks a pre-compiled op table against this simulator's kernel.
    /// The caller compiles it (`nvp_repro::catalog::compiled_for`
    /// compiles each kernel once, with the interval analysis' hints). No
    /// engine runs the table any more (see [`ExecEngine::Compiled`]), so
    /// it is not kept; the call stays for the callers that share one
    /// compilation per kernel.
    ///
    /// # Panics
    ///
    /// Panics if the table was compiled for a different program length or
    /// data-memory size than this simulator's kernel.
    pub fn set_compiled(&mut self, compiled: Arc<CompiledProgram>) {
        assert_eq!(
            compiled.len(),
            self.spec.program.len(),
            "compiled table does not match the kernel program"
        );
        assert_eq!(
            compiled.mem_words(),
            self.spec.mem_words,
            "compiled table does not match the kernel memory size"
        );
    }

    fn is_incidental(&self) -> bool {
        matches!(self.mode, ExecMode::Incidental(..))
    }

    /// Approximation configuration to assume when sizing the start
    /// threshold (Figure 9's per-mode thresholds). Governed modes size
    /// it for their minimum width.
    fn threshold_cfg(mode: ExecMode) -> ApproxConfig {
        match mode {
            ExecMode::Precise => ApproxConfig::default(),
            ExecMode::Fixed(bits) => ApproxConfig::fixed(bits),
            ExecMode::Dynamic(minbits, _) => ApproxConfig::fixed(minbits),
            ExecMode::Simd4 => ApproxConfig {
                lanes: 4,
                ..Default::default()
            },
            ExecMode::Incidental(floor, _) => ApproxConfig {
                ac_en: true,
                lanes: 2,
                alu_bits: [8, floor, floor, floor],
                ..Default::default()
            },
        }
    }

    fn live_data_bits(&self) -> u8 {
        let cfg = self.vm.approx();
        cfg.effective_alu_bits(0)
    }

    fn live_bits_index(&self) -> usize {
        self.live_data_bits().clamp(1, FULL_BITS) as usize
    }

    fn backup_cost(&self) -> Energy {
        self.backup_cost_by_bits[self.live_bits_index()]
    }

    fn reserve(&self) -> Energy {
        self.reserve_by_bits[self.live_bits_index()]
    }

    fn start_threshold(&self) -> Energy {
        self.start_threshold_by_bits[self.live_bits_index()]
    }

    fn approx_span(&self) -> (usize, usize) {
        (
            self.spec.input.start as usize,
            self.spec.output.end as usize,
        )
    }

    fn input_frame(&self, index: u64) -> &[i32] {
        &self.frames[(index as usize) % self.frames.len()]
    }

    /// Loads `index` into memory version `version`.
    ///
    /// The frame arrives from the sensor buffer, which already sits in NVM
    /// at full precision; only *stores* performed by the running program
    /// are subject to memory-bit truncation.
    fn load_frame(&mut self, index: u64, version: usize) {
        let data = self.input_frame(index).to_vec();
        let spec = &self.spec;
        spec.load_input(self.vm.mem_mut(), version, &data);
        spec.clear_output(self.vm.mem_mut(), version);
    }

    fn initial_start(&mut self) {
        self.started = true;
        self.live_loaded_at = self.outage_start;
        if let ExecMode::Fixed(bits) = self.mode {
            self.vm.set_approx(ApproxConfig::fixed(bits));
        }
        self.load_next_frames();
    }

    /// Loads the next input frame(s) and restarts at the resume marker:
    /// four frames on the SIMD-4 baseline's lanes, otherwise one on the
    /// live lane plus backlog frames on free incidental lanes.
    fn load_next_frames(&mut self) {
        let lanes = if self.mode == ExecMode::Simd4 { 4 } else { 1 };
        let mut c = self.vm.approx();
        c.lanes = lanes;
        self.vm.set_approx(c);
        self.active_inputs.clear();
        for version in 0..lanes as usize {
            self.load_frame(self.next_input, version);
            self.active_inputs.push(self.next_input);
            self.next_input += 1;
        }
        self.fill_backlog_lanes();
        self.vm.set_pc(0);
    }

    /// Bitwidth control (the approximation control unit): applies a
    /// governed width to the governed lanes. Nothing else writes those
    /// lanes' bits, so the run loop calls this only when the width moves.
    fn apply_governed_bits(&mut self, bits: u8) {
        let mut c = self.vm.approx();
        if self.is_incidental() {
            c.ac_en = true;
            // The live lane stays precise; old-frame lanes are governed.
            c.alu_bits = [FULL_BITS, bits, bits, bits];
            c.mem_bits = [FULL_BITS, bits, bits, bits];
        } else {
            c.ac_en = bits < FULL_BITS;
            c.alu_bits[0] = bits;
            c.mem_bits[0] = bits;
        }
        self.vm.set_approx(c);
    }

    fn do_backup(&mut self, tick: u64, cursor: &mut FlushCursor, tracer: &mut dyn Tracer) {
        emit(tracer, || Event::PowerEmergency {
            tick,
            level_nj: self.cap.level().as_nj(),
            reserve_nj: self.reserve().as_nj(),
        });
        let full = self.backup_cost();
        let pc = self.vm.pc();
        // Scoped modes back up the fraction of data state their plan's
        // per-pc mask keeps; a pc the mask table does not cover degrades
        // to a full-state backup with a traced warning (graceful
        // degradation beats silently under-persisting).
        let frac = match self.cfg.backup_scope {
            BackupScope::FullState => None,
            BackupScope::LiveOnly | BackupScope::LiveDirty => self
                .cfg
                .checkpoint_plan
                .as_ref()
                .and_then(|plan| plan.masks.get(pc))
                .map(|&mask| f64::from(mask.count_ones()) / NUM_REGS as f64),
        };
        if frac.is_none() && self.cfg.backup_scope != BackupScope::FullState {
            emit(tracer, || Event::BackupScopeFallback {
                tick,
                pc: pc as u64,
            });
        }
        let (cost, saved, live_fraction) = match frac {
            None => (full, Energy::ZERO, 1.0),
            Some(frac) => {
                // Scale the data-word portion of the backup by the kept
                // fraction at the interruption point. The reserve is still
                // sized for the full cost, so the scoped cost always fits
                // (`scoped <= full`).
                let bits = self.live_data_bits().clamp(1, FULL_BITS);
                let mut scoped = energy::backup_energy_scoped(self.cfg.backup_policy, bits, frac);
                if self.is_incidental() {
                    scoped = scoped * INCIDENTAL_BACKUP_FACTOR;
                }
                (scoped, full - scoped, frac)
            }
        };
        self.report.energy_backup_saved += saved;
        let (income, compute) = (self.report.energy_income, self.report.energy_compute);
        emit(tracer, || cursor.flush(tick, income, compute));
        self.cap.drain_up_to(cost);
        self.report.energy_backup += cost;
        self.report.backups += 1;
        self.outage_start = tick;
        self.phase = Phase::Off;
        emit(tracer, || Event::Backup {
            tick,
            cost_nj: cost.as_nj(),
            saved_nj: saved.as_nj(),
            live_fraction,
            bits: self.live_data_bits(),
        });
        emit(tracer, || Event::OutageStart { tick });
    }

    /// Parks every active lane (roll-forward decision at restore time).
    /// Parked frames are recomputed from the resume marker (pc 0).
    fn park_all(&mut self, tick: u64, tracer: &mut dyn Tracer) {
        let lanes = self.vm.approx().lanes as usize;
        // Active lanes 1..k already own their version planes.
        for l in 1..lanes {
            let entry = PendingFrame {
                input_index: self.active_inputs[l],
                regs: self.vm.regfile().version_values(l),
                version: l,
            };
            emit(tracer, || entry.park_event(tick));
            if let Some(evicted) = self.controller.park(entry) {
                self.report.frames_abandoned += 1;
                emit(tracer, || evicted.abandon_event(tick));
            }
        }
        // Park the live lane into a free plane (evicting the oldest parked
        // frame if necessary).
        let version = match self.controller.free_version() {
            Some(v) => v,
            None => {
                let ev = self
                    .controller
                    .evict_oldest()
                    .expect("full controller has an oldest entry");
                self.report.frames_abandoned += 1;
                emit(tracer, || ev.abandon_event(tick));
                ev.version
            }
        };
        let (a, b) = self.approx_span();
        self.vm.mem_mut().copy_region_version(a, b, 0, version);
        let entry = PendingFrame {
            input_index: self.active_inputs[0],
            regs: self.vm.regfile().version_values(0),
            version,
        };
        emit(tracer, || entry.park_event(tick));
        if let Some(evicted) = self.controller.park(entry) {
            self.report.frames_abandoned += 1;
            emit(tracer, || evicted.abandon_event(tick));
        }
        let mut c = self.vm.approx();
        c.lanes = 1;
        self.vm.set_approx(c);
        self.active_inputs.clear();
    }

    /// Fills free SIMD lanes with buffered backlog frames (Section 2.1:
    /// inputs are "buffered frame-by-frame, with no data dependencies
    /// between them", and far more arrive than the NVP can process — the
    /// incidental lanes work through that backlog at reduced precision).
    fn fill_backlog_lanes(&mut self) {
        if !self.is_incidental() {
            return;
        }
        let max = (self.cfg.max_simd_lanes as usize).min(1 + PARK_SLOTS);
        loop {
            let lanes = self.vm.approx().lanes as usize;
            if lanes >= max || lanes > PARK_SLOTS {
                break;
            }
            let parked: Vec<usize> = self.controller.pending().map(|p| p.version).collect();
            let target = lanes;
            if parked.contains(&target) {
                // Relocate the parked plane occupying our lane slot to a
                // free higher version.
                let Some(cand) = (lanes + 1..=PARK_SLOTS).find(|v| !parked.contains(v)) else {
                    break; // every remaining plane is parked
                };
                let (a, b) = self.approx_span();
                self.vm.mem_mut().swap_region_versions(a, b, target, cand);
                self.vm.regfile_mut().swap_versions(target, cand);
                self.controller.reassign_version(target, cand);
            }
            let idx = self.next_input;
            self.next_input += 1;
            self.load_frame(idx, target);
            // The backlog lane shares the live lane's control flow from the
            // frame start, so seed its registers from lane 0.
            let live = self.vm.regfile().version_values(0);
            self.vm.regfile_mut().set_version_values(target, live);
            self.active_inputs.push(idx);
            let mut c = self.vm.approx();
            c.lanes = (lanes + 1) as u8;
            self.vm.set_approx(c);
        }
    }

    fn do_restore(&mut self, tick: u64, cursor: &mut FlushCursor, tracer: &mut dyn Tracer) {
        let cost = energy::restore_energy();
        self.cap.drain_up_to(cost);
        self.report.energy_restore += cost;
        self.report.restores += 1;
        let (income, compute) = (self.report.energy_income, self.report.energy_compute);
        emit(tracer, || cursor.flush(tick, income, compute));
        if !self.started {
            self.initial_start();
            self.phase = Phase::Running;
            emit(tracer, || Event::Restore {
                tick,
                cost_nj: cost.as_nj(),
                outage_ticks: 0,
                rolled_forward: false,
                cold: true,
            });
            return;
        }
        let outage = Ticks(tick.saturating_sub(self.outage_start));
        emit(tracer, || Event::OutageEnd {
            tick,
            duration: outage.0,
        });
        self.apply_decay(outage, tick, tracer);
        let mut rolled_forward = false;
        let age = Ticks(tick.saturating_sub(self.live_loaded_at));
        if self.is_incidental() && age > self.cfg.staleness {
            // The live data's relevance has lapsed: park everything and
            // roll forward to the newest buffered frame.
            rolled_forward = true;
            self.park_all(tick, tracer);
            self.live_loaded_at = tick;
            self.load_next_frames();
        }
        // Otherwise resume in place (roll-back), active lanes intact.
        self.phase = Phase::Running;
        emit(tracer, || Event::Restore {
            tick,
            cost_nj: cost.as_nj(),
            outage_ticks: outage.0,
            rolled_forward,
            cold: false,
        });
    }

    fn apply_decay(&mut self, outage: Ticks, tick: u64, tracer: &mut dyn Tracer) {
        let (a, b) = self.approx_span();
        let versions: Vec<usize> = if self.is_incidental() {
            // Parked planes and the still-active lanes both sit in NVM
            // during the outage.
            let mut v: Vec<usize> = (0..self.vm.approx().lanes as usize).collect();
            v.extend(self.controller.pending().map(|p| p.version));
            v.sort_unstable();
            v.dedup();
            v
        } else {
            (0..self.vm.approx().lanes as usize).collect()
        };
        if versions.is_empty() {
            return;
        }
        let fails = decay_region_traced(
            self.vm.mem_mut(),
            a,
            b,
            &versions,
            self.cfg.backup_policy,
            outage,
            &mut self.rng,
            tick,
            tracer,
        );
        for (acc, f) in self.report.retention_failures.iter_mut().zip(fails) {
            *acc += f;
        }
    }

    /// Attempts incidental SIMD merges: parked frames wait at the resume
    /// marker, so they can join only while the live lane is at pc 0.
    fn try_merge(&mut self, tick: u64, tracer: &mut dyn Tracer) {
        let lanes = self.vm.approx().lanes as usize;
        let max_lanes = (self.cfg.max_simd_lanes as usize).min(1 + PARK_SLOTS);
        if lanes >= max_lanes || self.controller.is_empty() || self.vm.pc() != 0 {
            return;
        }
        let matches = self.controller.take_matches(max_lanes - lanes);
        let mut lanes = lanes;
        let (a, b) = self.approx_span();
        for entry in matches {
            let target = lanes; // next free lane == its version index
            if entry.version != target {
                self.vm
                    .mem_mut()
                    .swap_region_versions(a, b, entry.version, target);
                self.vm.regfile_mut().swap_versions(entry.version, target);
                self.controller.reassign_version(target, entry.version);
            }
            self.vm.regfile_mut().set_version_values(target, entry.regs);
            self.active_inputs.push(entry.input_index);
            emit(tracer, || Event::Merge {
                tick,
                lane: target as u8,
                input_index: entry.input_index,
                pc: 0,
            });
            lanes += 1;
            self.report.merges += 1;
        }
        let mut c = self.vm.approx();
        c.lanes = lanes as u8;
        self.vm.set_approx(c);
    }

    /// Commits all active lanes at a `frame_done` marker and loads the next
    /// frame(s).
    fn commit_frames(&mut self, tick: u64, tracer: &mut dyn Tracer) {
        self.live_loaded_at = tick;
        let lanes = self.vm.approx().lanes as usize;
        for l in 0..lanes {
            let input_index = self.active_inputs[l];
            if self.cfg.record_outputs {
                self.report.committed.push(CommittedFrame {
                    input_index,
                    lane: l as u8,
                    commit_tick: Ticks(tick),
                    output: self.spec.read_output(self.vm.mem(), l),
                    precision: self.spec.read_output_precision(self.vm.mem(), l),
                });
            }
            let incidental = !(l == 0 || matches!(self.mode, ExecMode::Simd4));
            if incidental {
                self.report.incidental_frames += 1;
            } else {
                self.report.frames_committed += 1;
            }
            emit(tracer, || Event::FrameCommitted {
                tick,
                lane: l as u8,
                input_index,
                incidental,
            });
        }
        if let Some(limit) = self.cfg.frames_limit {
            if self.report.frames_committed >= limit {
                self.phase = Phase::Done;
                return;
            }
        }
        self.load_next_frames();
    }

    /// Per-class energies at `cfg`, memoized across epochs (the energy
    /// formula walks every lane with a fractional power; the configuration
    /// mostly survives from one tick to the next).
    fn class_energies(&mut self, cfg: &ApproxConfig) -> [Energy; 6] {
        if let Some((cached, table)) = &self.class_cache {
            if cached == cfg {
                return *table;
            }
        }
        let table = energy::class_prices(cfg);
        self.class_cache = Some((*cfg, table));
        table
    }

    /// The prices and reserve of the live configuration, with `budget`
    /// cycles to spend: what one metered run is priced with.
    fn meter(&mut self, budget: u64) -> Meter {
        let cfg = self.vm.approx();
        Meter {
            prices: self.class_energies(&cfg),
            reserve: self.reserve(),
            budget,
            stop_at_resume: self.is_incidental(),
        }
    }

    /// One powered tick: metered runs of instructions until the tick's
    /// cycle budget is spent, each run ending in a reason this dispatches
    /// on (a frame commit, a merge probe at the resume marker, a backup).
    fn run_tick(&mut self, tick: u64, cursor: &mut FlushCursor, tracer: &mut dyn Tracer) {
        self.report.on_ticks += 1;
        let bits = self.live_data_bits().min(8) as usize;
        self.report.bit_utilization[bits] += 1;
        let incidental = self.is_incidental();
        let mut cycles = 0u64;
        while cycles < CYCLES_PER_TICK {
            // Parked frames merge only at the resume marker, pc 0
            // (`try_merge`'s own guard).
            if incidental && self.vm.pc() == 0 {
                self.try_merge(tick, tracer);
            }
            // A merge or a frame commit can change the configuration, so
            // the prices, reserve and lanes are read afresh after every
            // stop (the price table is memoized).
            let meter = self.meter(CYCLES_PER_TICK - cycles);
            let lanes = u64::from(self.vm.approx().lanes);
            let run = self
                .vm
                .run_metered(&mut self.cap, &mut self.report.energy_compute, &meter)
                .expect("kernel programs must not fault");
            cycles += run.cycles;
            self.report.instructions_retired += run.retired;
            self.report.forward_progress += run.retired * lanes;
            match run.stop {
                MeterStop::Budget | MeterStop::ResumePoint => {}
                MeterStop::Brownout => {
                    self.do_backup(tick, cursor, tracer);
                    return;
                }
                // Running off the end is treated as frame completion
                // (defensive: programs end with frame_done and halt).
                MeterStop::FrameDone | MeterStop::OffEnd => {
                    self.commit_frames(tick, tracer);
                    if self.phase == Phase::Done {
                        return;
                    }
                }
                MeterStop::Halted => {
                    // Programs end with frame_done; halt only occurs when a
                    // frame limit stopped commit processing. Treat as done.
                    self.phase = Phase::Done;
                    return;
                }
            }
        }
    }

    /// Runs the simulation over `profile` and returns the report.
    pub fn run(self, profile: &PowerProfile) -> RunReport {
        self.run_traced(profile, &mut NoopTracer)
    }

    /// Runs the simulation, emitting structured events into `tracer`.
    ///
    /// Event ordering contract (relied upon by `nvp-trace` and the
    /// ordering-invariant tests):
    ///
    /// - power emergency: `power_emergency`, an optional
    ///   `backup_scope_fallback` (scoped backup whose mask table does not
    ///   cover the interruption pc), `energy_flush`, `backup`,
    ///   `outage_start` — all at the same tick;
    /// - recovery: `energy_flush`, `outage_end`, zero or more
    ///   `retention_decay`, zero or more `frame_parked` /
    ///   `frame_abandoned` (roll-forward only), then `restore`;
    /// - run end: a final `energy_flush` followed by `run_end` carrying the
    ///   report's totals, which makes every complete trace self-checking.
    pub fn run_traced(mut self, profile: &PowerProfile, tracer: &mut dyn Tracer) -> RunReport {
        let mut cursor = FlushCursor::new();
        let mut monitor = VoltageMonitor::new();
        // The width last applied to the governed lanes; `None` until the
        // first governed tick.
        let mut applied: Option<u8> = None;
        for (t, power) in profile.iter() {
            if self.phase == Phase::Done {
                break;
            }
            let income = frontend::convert_tick(power);
            let banked = self.cap.charge(income);
            self.report.energy_income += banked;
            self.cap.leak_tick();
            self.report.total_ticks += 1;
            if let Some(g) = self.governor {
                let bits = g.bits_for(self.cap.fill(), power.as_uw()).min(FULL_BITS);
                let prev = applied.replace(bits);
                if prev != Some(bits) {
                    self.apply_governed_bits(bits);
                    if let Some(from_bits) = prev {
                        emit(tracer, || Event::GovernorSwitch {
                            tick: t.0,
                            from_bits,
                            to_bits: bits,
                        });
                    }
                }
            }
            match self.phase {
                Phase::Off => {
                    self.report.bit_utilization[0] += 1;
                    let threshold = self.start_threshold();
                    if let Some(up) = monitor.observe(self.cap.level(), threshold) {
                        emit(tracer, || Event::ThresholdCross {
                            tick: t.0,
                            level_nj: self.cap.level().as_nj(),
                            threshold_nj: threshold.as_nj(),
                            up,
                        });
                    }
                    if self.cap.level() >= threshold {
                        self.do_restore(t.0, &mut cursor, tracer);
                        if self.phase == Phase::Running {
                            self.run_tick(t.0, &mut cursor, tracer);
                            // restore consumed the tick's utilization slot
                            self.report.bit_utilization[0] -= 1;
                        }
                    }
                }
                Phase::Running => self.run_tick(t.0, &mut cursor, tracer),
                Phase::Done => {}
            }
        }
        let final_tick = self.report.total_ticks;
        let (income, compute) = (self.report.energy_income, self.report.energy_compute);
        emit(tracer, || cursor.flush(final_tick, income, compute));
        let report = self.report;
        emit(tracer, || Event::RunEnd {
            tick: final_tick,
            income_nj: report.energy_income.as_nj(),
            compute_nj: report.energy_compute.as_nj(),
            backup_nj: report.energy_backup.as_nj(),
            restore_nj: report.energy_restore.as_nj(),
            saved_nj: report.energy_backup_saved.as_nj(),
            backups: report.backups,
            restores: report.restores,
            frames: report.frames_committed + report.incidental_frames,
            forward_progress: report.forward_progress,
        });
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_kernels::KernelId;
    use nvp_power::Power;

    fn small_frames(id: KernelId, w: usize, h: usize, n: usize) -> Vec<Vec<i32>> {
        (0..n).map(|i| id.make_input(w, h, 40 + i as u64)).collect()
    }

    fn steady(uw: f64, seconds: f64) -> PowerProfile {
        PowerProfile::constant(Power::from_uw(uw), Ticks::from_seconds(seconds))
    }

    /// The plan the repro catalog hands a `scope` run of `spec`: backup
    /// liveness for `LiveOnly`, the synthesized placement for `LiveDirty`.
    fn catalog_plan(scope: BackupScope, spec: &KernelSpec) -> Option<Arc<CheckpointPlan>> {
        let plan = match scope {
            BackupScope::FullState => return None,
            BackupScope::LiveOnly => {
                let live = nvp_analysis::BackupLiveness::compute(&spec.program);
                CheckpointPlan {
                    checkpoints: Vec::new(),
                    masks: (0..spec.program.len()).map(|pc| live.live_at(pc)).collect(),
                }
            }
            BackupScope::LiveDirty => {
                let opts = nvp_analysis::CkptOptions::for_kernel(spec);
                let cfg = nvp_analysis::Cfg::build(&spec.program);
                let placement = nvp_analysis::synthesize(&spec.program, &cfg, &opts).synthesized;
                CheckpointPlan {
                    checkpoints: placement.checkpoints.iter().map(|&(pc, _)| pc).collect(),
                    masks: placement.masks,
                }
            }
        };
        Some(Arc::new(plan))
    }

    #[test]
    fn steady_power_completes_frames_precisely() {
        let id = KernelId::Sobel;
        let spec = id.spec(8, 8);
        let frames = small_frames(id, 8, 8, 2);
        let golden0 = id.golden(&frames[0], 8, 8);
        let sim = SystemSim::new(spec, frames, ExecMode::Precise, SystemConfig::default());
        let rep = sim.run(&steady(500.0, 5.0));
        assert!(
            rep.frames_committed >= 2,
            "committed {}",
            rep.frames_committed
        );
        assert_eq!(rep.backups, 0, "steady power must not back up");
        let first = &rep.outputs_for(0)[0];
        assert_eq!(first.output, golden0);
    }

    #[test]
    fn bursty_power_backs_up_and_still_completes() {
        let id = KernelId::Median;
        let spec = id.spec(16, 16);
        let frames = small_frames(id, 16, 16, 1);
        let golden = id.golden(&frames[0], 16, 16);
        // Power alternates: 12 ticks on at 800 µW, 138 ticks dead — each
        // charge cycle funds only a fraction of the ~40k-instruction frame.
        let pattern: Vec<f64> = (0..100_000)
            .map(|i| if i % 150 < 12 { 800.0 } else { 0.0 })
            .collect();
        let profile = PowerProfile::from_uw(pattern);
        let cfg = SystemConfig {
            frames_limit: Some(1),
            ..Default::default()
        };
        let sim = SystemSim::new(spec, frames, ExecMode::Precise, cfg);
        let rep = sim.run(&profile);
        assert!(rep.backups > 0, "bursty power must cause emergencies");
        assert_eq!(rep.restores, rep.backups + 1); // +1 cold start
        assert_eq!(rep.frames_committed, 1);
        // Roll-back recovery at full retention is exact.
        assert_eq!(rep.outputs_for(0)[0].output, golden);
    }

    #[test]
    fn lower_bits_give_more_forward_progress() {
        let id = KernelId::Sobel;
        let frames = small_frames(id, 8, 8, 1);
        let profile = nvp_power::synth::WatchProfile::P1.synthesize_seconds(2.0);
        let fp_at = |bits: u8| {
            let cfg = SystemConfig {
                record_outputs: false,
                ..Default::default()
            };
            let sim = SystemSim::new(id.spec(8, 8), frames.clone(), ExecMode::Fixed(bits), cfg);
            sim.run(&profile).forward_progress
        };
        let fp8 = fp_at(8);
        let fp1 = fp_at(1);
        assert!(
            fp1 as f64 > fp8 as f64 * 1.4,
            "1-bit FP {fp1} should well exceed 8-bit FP {fp8}"
        );
    }

    #[test]
    fn incidental_rolls_forward_and_merges() {
        let id = KernelId::Tiff2Bw;
        let spec = id.spec(8, 8);
        let frames = small_frames(id, 8, 8, 6);
        // Enough power to run, with periodic dropouts to force roll-forward.
        let pattern: Vec<f64> = (0..60_000)
            .map(|i| if i % 120 < 45 { 700.0 } else { 0.0 })
            .collect();
        let profile = PowerProfile::from_uw(pattern);
        let cfg = SystemConfig {
            staleness: Ticks(20),
            ..Default::default()
        };
        let sim = SystemSim::new(spec, frames, ExecMode::Incidental(2, 8), cfg);
        let rep = sim.run(&profile);
        assert!(rep.backups > 0);
        assert!(rep.merges > 0, "expected at least one incidental merge");
        assert!(
            rep.incidental_frames > 0,
            "expected incidental frame commits"
        );
    }

    #[test]
    fn live_only_backup_scope_saves_energy_same_results() {
        // Same kernel, same bursty power, full retention, Precise mode:
        // LiveOnly must commit the identical (golden) output while
        // spending strictly less backup energy.
        let id = KernelId::Median;
        let run = |scope: BackupScope| {
            let spec = id.spec(16, 16);
            let frames = small_frames(id, 16, 16, 1);
            let pattern: Vec<f64> = (0..100_000)
                .map(|i| if i % 150 < 12 { 800.0 } else { 0.0 })
                .collect();
            let cfg = SystemConfig {
                frames_limit: Some(1),
                backup_scope: scope,
                checkpoint_plan: catalog_plan(scope, &spec),
                ..Default::default()
            };
            let sim = SystemSim::new(spec, frames, ExecMode::Precise, cfg);
            sim.run(&PowerProfile::from_uw(pattern))
        };
        let full = run(BackupScope::FullState);
        let live = run(BackupScope::LiveOnly);
        assert!(full.backups > 0, "need emergencies to compare scopes");
        assert!(live.backups > 0);
        assert_eq!(
            full.outputs_for(0)[0].output,
            live.outputs_for(0)[0].output,
            "backup scope must not change committed results"
        );
        assert_eq!(
            live.outputs_for(0)[0].output,
            id.golden(&small_frames(id, 16, 16, 1)[0], 16, 16)
        );
        assert_eq!(full.energy_backup_saved, Energy::ZERO);
        assert!(live.energy_backup_saved > Energy::ZERO);
        let avg_full = full.energy_backup.as_nj() / full.backups as f64;
        let avg_live = live.energy_backup.as_nj() / live.backups as f64;
        assert!(
            avg_live < avg_full,
            "live-only backups must be cheaper on average: {avg_live} !< {avg_full}"
        );
    }

    #[test]
    fn live_dirty_backup_scope_beats_live_only_on_bursty() {
        // Bursty power, full retention, Precise mode: LiveDirty must
        // commit the identical (golden) output while saving strictly more
        // backup energy than LiveOnly — the dirty intersection can only
        // shrink the mask.
        let id = KernelId::Median;
        let run = |scope: BackupScope| {
            let spec = id.spec(16, 16);
            let frames = small_frames(id, 16, 16, 1);
            let pattern: Vec<f64> = (0..100_000)
                .map(|i| if i % 150 < 12 { 800.0 } else { 0.0 })
                .collect();
            let cfg = SystemConfig {
                frames_limit: Some(1),
                backup_scope: scope,
                checkpoint_plan: catalog_plan(scope, &spec),
                ..Default::default()
            };
            let sim = SystemSim::new(spec, frames, ExecMode::Precise, cfg);
            sim.run(&PowerProfile::from_uw(pattern))
        };
        let full = run(BackupScope::FullState);
        let live = run(BackupScope::LiveOnly);
        let dirty = run(BackupScope::LiveDirty);
        assert!(full.backups > 0, "need emergencies to compare scopes");
        let golden = id.golden(&small_frames(id, 16, 16, 1)[0], 16, 16);
        for (name, rep) in [("full", &full), ("live", &live), ("dirty", &dirty)] {
            assert_eq!(
                rep.outputs_for(0)[0].output,
                golden,
                "{name}: backup scope must not change committed results"
            );
        }
        assert!(live.energy_backup_saved > Energy::ZERO);
        assert!(
            dirty.energy_backup_saved > live.energy_backup_saved,
            "live∩dirty must save more than live alone: {} !> {}",
            dirty.energy_backup_saved.as_nj(),
            live.energy_backup_saved.as_nj()
        );
    }

    #[test]
    fn scoped_backup_scopes_are_output_identical_across_profiles() {
        // All three scopes, five watch profiles. Cheaper backups leave more
        // residual energy, so the emergency *schedule* legitimately shifts;
        // what must not change is the committed output values (Precise mode
        // is deterministic) and the ledger: spend + saved must equal what
        // the same backups would have cost at full scope. With a single
        // lane and Precise bits the full cost per backup is a constant, so
        // the implied per-backup full cost must match the reference run's.
        let id = KernelId::Tiff2Bw;
        let spec = id.spec(8, 8);
        let (live_plan, dirty_plan) = (
            catalog_plan(BackupScope::LiveOnly, &spec),
            catalog_plan(BackupScope::LiveDirty, &spec),
        );
        for profile in nvp_power::synth::WatchProfile::ALL {
            let trace = profile.synthesize_seconds(2.0);
            let run = |scope: BackupScope, plan: Option<Arc<CheckpointPlan>>| {
                let cfg = SystemConfig {
                    backup_scope: scope,
                    checkpoint_plan: plan,
                    max_simd_lanes: 1,
                    ..Default::default()
                };
                SystemSim::new(
                    id.spec(8, 8),
                    small_frames(id, 8, 8, 2),
                    ExecMode::Precise,
                    cfg,
                )
                .run(&trace)
            };
            let full = run(BackupScope::FullState, None);
            let live = run(BackupScope::LiveOnly, live_plan.clone());
            let dirty = run(BackupScope::LiveDirty, dirty_plan.clone());
            assert!(full.backups > 0, "{profile:?}: need emergencies");
            let frames = small_frames(id, 8, 8, 2);
            let full_per_backup = full.energy_backup.as_nj() / full.backups as f64;
            for (name, rep) in [("live", &live), ("dirty", &dirty)] {
                assert!(
                    rep.frames_committed > 0,
                    "{name}@{profile:?}: scoped run made no progress"
                );
                for c in &rep.committed {
                    let golden = id.golden(&frames[c.input_index as usize % frames.len()], 8, 8);
                    assert_eq!(
                        c.output, golden,
                        "{name}@{profile:?}: scope changed frame {} output",
                        c.input_index
                    );
                }
                // Ledger reconciliation: spend + saved == backups × the
                // constant full-scope cost per backup.
                let implied = (rep.energy_backup.as_nj() + rep.energy_backup_saved.as_nj())
                    / rep.backups as f64;
                assert!(
                    (implied - full_per_backup).abs() < 1e-9,
                    "{name}@{profile:?}: ledger does not reconcile: \
                     implied {implied} nJ/backup vs full {full_per_backup}"
                );
                assert!(
                    rep.energy_backup_saved > Energy::ZERO,
                    "{name}@{profile:?}: scoped backups saved nothing"
                );
            }
        }
    }

    #[test]
    fn missing_masks_fall_back_to_full_state_with_traced_warning() {
        // An (erroneous) empty mask table, or no plan at all, must not
        // change results: every scoped backup degrades to full state, and
        // the trace says so.
        let id = KernelId::Median;
        let run = |plan: Option<Arc<CheckpointPlan>>, scope: BackupScope| {
            let spec = id.spec(16, 16);
            let frames = small_frames(id, 16, 16, 1);
            let pattern: Vec<f64> = (0..100_000)
                .map(|i| if i % 150 < 12 { 800.0 } else { 0.0 })
                .collect();
            let cfg = SystemConfig {
                frames_limit: Some(1),
                backup_scope: scope,
                checkpoint_plan: plan,
                ..Default::default()
            };
            let mut sink = nvp_trace::VecSink::default();
            let rep = SystemSim::new(spec, frames, ExecMode::Precise, cfg)
                .run_traced(&PowerProfile::from_uw(pattern), &mut sink);
            (rep, sink.events)
        };
        let empty_plan = CheckpointPlan {
            checkpoints: Vec::new(),
            masks: Vec::new(),
        };
        let (full, full_events) = run(None, BackupScope::FullState);
        assert!(full.backups > 0);
        let empty_plan = Some(Arc::new(empty_plan));
        for scope in [BackupScope::LiveOnly, BackupScope::LiveDirty] {
            for plan in [empty_plan.clone(), None] {
                let what = if plan.is_some() {
                    format!("{scope:?}, empty plan")
                } else {
                    format!("{scope:?}, no plan")
                };
                let (degraded, degraded_events) = run(plan, scope);
                assert_eq!(degraded.backups, full.backups, "{what}");
                assert_eq!(
                    degraded.outputs_for(0)[0].output,
                    full.outputs_for(0)[0].output,
                    "{what}"
                );
                // Degraded backups cost exactly what full-state ones do.
                assert_eq!(degraded.energy_backup, full.energy_backup, "{what}");
                assert_eq!(degraded.energy_backup_saved, Energy::ZERO, "{what}");
                let fallbacks = degraded_events
                    .iter()
                    .filter(|e| matches!(e, Event::BackupScopeFallback { .. }))
                    .count();
                assert_eq!(
                    fallbacks as u64, degraded.backups,
                    "{what}: every scoped backup must trace its degradation"
                );
            }
        }
        assert!(
            !full_events
                .iter()
                .any(|e| matches!(e, Event::BackupScopeFallback { .. })),
            "full-state backups are not degradations"
        );
    }

    #[test]
    fn retention_policy_records_failures() {
        let id = KernelId::Median;
        let spec = id.spec(8, 8);
        let frames = small_frames(id, 8, 8, 1);
        // Long outages (≥ 500 ticks) expire linear low bits.
        let pattern: Vec<f64> = (0..50_000)
            .map(|i| if i % 700 < 60 { 800.0 } else { 0.0 })
            .collect();
        let profile = PowerProfile::from_uw(pattern);
        let cfg = SystemConfig {
            backup_policy: RetentionPolicy::Linear,
            ..Default::default()
        };
        let sim = SystemSim::new(spec, frames, ExecMode::Precise, cfg);
        let rep = sim.run(&profile);
        assert!(rep.total_retention_failures() > 0);
        // Low bits fail more often than high bits under linear shaping.
        assert!(rep.retention_failures[0] >= rep.retention_failures[7]);
    }

    #[test]
    fn simd4_has_higher_threshold_and_less_on_time() {
        let id = KernelId::Tiff2Bw;
        let frames = small_frames(id, 8, 8, 8);
        let profile = nvp_power::synth::WatchProfile::P2.synthesize_seconds(3.0);
        let run = |mode| {
            let cfg = SystemConfig {
                record_outputs: false,
                ..Default::default()
            };
            SystemSim::new(id.spec(8, 8), frames.clone(), mode, cfg).run(&profile)
        };
        let precise = run(ExecMode::Precise);
        let simd4 = run(ExecMode::Simd4);
        assert!(
            simd4.system_on_fraction() < precise.system_on_fraction(),
            "4-SIMD on-time {:.3} should be below precise {:.3}",
            simd4.system_on_fraction(),
            precise.system_on_fraction()
        );
    }

    #[test]
    fn dynamic_mode_tracks_bit_utilization() {
        let id = KernelId::Sobel;
        let frames = small_frames(id, 8, 8, 2);
        let profile = nvp_power::synth::WatchProfile::P1.synthesize_seconds(2.0);
        let cfg = SystemConfig {
            record_outputs: false,
            ..Default::default()
        };
        let sim = SystemSim::new(id.spec(8, 8), frames, ExecMode::Dynamic(1, 8), cfg);
        let rep = sim.run(&profile);
        let running: u64 = rep.bit_utilization[1..].iter().sum();
        assert_eq!(running, rep.on_ticks);
        assert_eq!(rep.bit_utilization[0] + running, rep.total_ticks);
        // The governor should have visited more than one width.
        let distinct = rep.bit_utilization[1..].iter().filter(|&&c| c > 0).count();
        assert!(distinct > 1, "utilization {:?}", rep.bit_utilization);
    }

    #[test]
    fn frames_limit_stops_early() {
        let id = KernelId::Tiff2Bw;
        let frames = small_frames(id, 8, 8, 1);
        let cfg = SystemConfig {
            frames_limit: Some(3),
            ..Default::default()
        };
        let sim = SystemSim::new(id.spec(8, 8), frames, ExecMode::Precise, cfg);
        let rep = sim.run(&steady(800.0, 10.0));
        assert_eq!(rep.frames_committed, 3);
        assert!(rep.total_ticks < 100_000);
    }

    /// Every mode the simulator runs: each exercises a distinct
    /// threshold configuration and (incidental) the backup factor.
    fn every_mode() -> Vec<ExecMode> {
        let mut modes = vec![ExecMode::Precise, ExecMode::Simd4];
        for bits in 1..=FULL_BITS {
            modes.push(ExecMode::Fixed(bits));
            modes.push(ExecMode::Dynamic(bits, FULL_BITS));
            modes.push(ExecMode::Incidental(bits, FULL_BITS));
        }
        modes
    }

    #[test]
    fn per_bitwidth_pricing_matches_the_direct_formula() {
        // The tables replace a per-check computation; pin them against
        // that computation, in its original operation order, bit for bit.
        let id = KernelId::Sobel;
        let policies = [
            RetentionPolicy::FullRetention,
            RetentionPolicy::Linear,
            RetentionPolicy::Log,
            RetentionPolicy::Parabola,
        ];
        let (mut clamped, mut unclamped) = (0, 0);
        for mode in every_mode() {
            for policy in policies {
                // At the default 3.5 µJ the run quantum alone exceeds the
                // capacitor, so every threshold clamps; 50 µJ leaves it
                // unclamped.
                for cap_uj in [3.5, 50.0] {
                    let cfg = SystemConfig {
                        capacitor_capacity: Energy::from_uj(cap_uj),
                        backup_policy: policy,
                        ..Default::default()
                    };
                    let capacity = cfg.capacitor_capacity;
                    let mut sim =
                        SystemSim::new(id.spec(8, 8), small_frames(id, 8, 8, 1), mode, cfg);
                    for bits in 1..=FULL_BITS {
                        let mut backup = energy::backup_energy(policy, bits);
                        if matches!(mode, ExecMode::Incidental(..)) {
                            backup = backup * INCIDENTAL_BACKUP_FACTOR;
                        }
                        let reserve = backup * RESERVE_SAFETY;
                        let quantum = energy::representative_instr(&SystemSim::threshold_cfg(mode))
                            * (RUN_QUANTUM_TICKS * CYCLES_PER_TICK) as f64;
                        let raw = reserve + energy::restore_energy() + quantum;
                        let start = raw.min(capacity * 0.95);
                        if raw > start {
                            clamped += 1;
                        } else {
                            unclamped += 1;
                        }
                        let b = bits as usize;
                        let what = format!("{mode:?} {policy:?} {cap_uj} µJ at {bits} bits");
                        for (name, memo, direct) in [
                            ("backup", sim.backup_cost_by_bits[b], backup),
                            ("reserve", sim.reserve_by_bits[b], reserve),
                            ("start", sim.start_threshold_by_bits[b], start),
                        ] {
                            assert_eq!(
                                memo.as_nj().to_bits(),
                                direct.as_nj().to_bits(),
                                "{name}: {what}"
                            );
                        }
                        // The accessors index by the live lane's width.
                        sim.vm.set_approx(ApproxConfig::fixed(bits));
                        assert_eq!(sim.reserve().as_nj().to_bits(), reserve.as_nj().to_bits());
                        assert_eq!(
                            sim.start_threshold().as_nj().to_bits(),
                            start.as_nj().to_bits()
                        );
                        assert_eq!(
                            sim.backup_cost().as_nj().to_bits(),
                            backup.as_nj().to_bits()
                        );
                    }
                }
            }
        }
        assert!(
            clamped > 0 && unclamped > 0,
            "both threshold branches must be pinned: {clamped} clamped, {unclamped} not"
        );
    }

    #[test]
    fn class_table_matches_instr_energy_at_every_reachable_config() {
        // Governors set lane 0 (dynamic) or lanes 1–3 (incidental) to one
        // width, lane changes set 1–4 lanes, and a program may clear
        // AC_EN: this grid covers every configuration a run can price.
        let id = KernelId::Sobel;
        let mut sim = SystemSim::new(
            id.spec(8, 8),
            small_frames(id, 8, 8, 1),
            ExecMode::Precise,
            SystemConfig::default(),
        );
        for ac_en in [false, true] {
            for lanes in 1..=4u8 {
                for live in 1..=FULL_BITS {
                    for old in 1..=FULL_BITS {
                        let cfg = ApproxConfig {
                            ac_en,
                            lanes,
                            alu_bits: [live, old, old, old],
                            mem_bits: [live, old, old, old],
                        };
                        // Twice: a recomputed table, then the memoized one.
                        for _ in 0..2 {
                            let table = sim.class_energies(&cfg);
                            for class in nvp_isa::InstrClass::ALL {
                                assert_eq!(
                                    table[class.index()].as_nj().to_bits(),
                                    energy::instr_energy(class, &cfg).as_nj().to_bits(),
                                    "{class:?} at {cfg:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one input frame")]
    fn empty_frames_panic() {
        let id = KernelId::Sobel;
        SystemSim::new(
            id.spec(8, 8),
            Vec::new(),
            ExecMode::Precise,
            SystemConfig::default(),
        );
    }
}
