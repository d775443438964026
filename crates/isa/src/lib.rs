//! NVP instruction-set substrate: a behavioural model of the paper's
//! modified 8051-class nonvolatile processor (Section 4, Figure 6).
//!
//! The original evaluation runs a modified 8051 RTL in Modelsim. This crate
//! provides the equivalent *architectural* machine: a steppable register VM
//! whose execution can be interrupted (and backed up) at any instruction
//! boundary, extended with the paper's microarchitectural features:
//!
//! * a 16-register file where each register holds **four versions** (SIMD
//!   lanes / frame generations) plus per-register approximation (AC) bits,
//! * a bitwidth-configurable **approximate ALU** (keep the upper N bits,
//!   randomize the rest — the gradient-VDD model of Gupta/Ye cited in
//!   Section 8.1) and **approximate memory** (truncate low bits on store),
//! * up to **4-way incidental SIMD**: one instruction stream applied to as
//!   many data versions as are active, with per-lane bitwidth,
//! * versioned NVM data memory (via [`nvp_nvm::VersionedMemory`]).
//!
//! Modules: [`instr`] (the ISA), [`program`] (builder/assembler),
//! [`regfile`], [`approx`] (bit-level approximation), [`vm`] (the
//! interpreter).
//!
//! # Example
//!
//! ```
//! use nvp_isa::program::ProgramBuilder;
//! use nvp_isa::instr::Reg;
//! use nvp_isa::vm::Vm;
//!
//! // r1 = 2 + 3
//! let mut b = ProgramBuilder::new();
//! b.ldi(Reg(0), 2).ldi(Reg(1), 3).add(Reg(1), Reg(0), Reg(1)).halt();
//! let mut vm = Vm::new(b.build().unwrap(), 16);
//! vm.run_to_halt(1_000).unwrap();
//! assert_eq!(vm.reg(Reg(1), 0), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod compiled;
pub mod encoding;
pub mod energy;
pub mod instr;
pub mod program;
pub mod regfile;
pub mod vm;

pub use approx::{alu_approximate, alu_error_bound, mem_error_bound, mem_truncate, ApproxConfig};
pub use compiled::{ChainEvent, CompileHints, CompiledProgram};
pub use encoding::{decode_program, encode_program, DecodeError};
pub use energy::{ClassEnergies, EnergyModel};
pub use instr::{Instr, InstrClass, Reg, NUM_REGS};
pub use program::{Label, Program, ProgramBuilder, ProgramError};
pub use regfile::RegFile;
pub use vm::{StepEvent, Vm, VmError};
