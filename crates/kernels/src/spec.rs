//! Kernel descriptors: memory layout, programs, goldens and input
//! generation for the ten testbenches.
//!
//! # Memory layout convention
//!
//! Every kernel's data memory is laid out as
//!
//! ```text
//! [0 .. tables_end)        constant tables (compiler-emitted ROM data)
//! [input.start .. end)     the input frame  — the `incidental` variable
//! [output.start .. end)    the output frame
//! ```
//!
//! The approximable region declared to the ISA (the `incidental` pragma's
//! storage scope) covers input and output; constant tables are always
//! precise. Tables are replicated into all four memory versions so every
//! SIMD lane can read them.

use crate::{fft, image, integral, jpeg, median, quality, sobel, susan, tiff};
use nvp_isa::Program;
use nvp_nvm::VersionedMemory;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Which value domain a kernel's output lives in, selecting the right
/// MSE/PSNR variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QualityDomain {
    /// 8-bit image output; compare with [`crate::quality::mse`]/[`crate::quality::psnr`].
    Clamped,
    /// Wide-range output (integral image, FFT spectrum); compare with
    /// [`crate::quality::mse_raw`]/[`crate::quality::psnr_raw`].
    Raw,
}

/// The ten testbenches of Figure 28.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelId {
    /// Sobel edge detection.
    Sobel,
    /// 3×3 median filter.
    Median,
    /// Integral image (summed-area table).
    Integral,
    /// SUSAN corner detection (simplified USAN response).
    SusanCorners,
    /// SUSAN edge detection.
    SusanEdges,
    /// SUSAN structure-preserving smoothing.
    SusanSmoothing,
    /// JPEG encode — block motion estimation (the approximated stage).
    JpegEncode,
    /// TIFF color → grayscale conversion.
    Tiff2Bw,
    /// TIFF RGB → premultiplied RGBA conversion.
    Tiff2Rgba,
    /// Fixed-point radix-2 FFT.
    Fft,
}

impl KernelId {
    /// All testbenches, in the order of Figure 28's x-axis.
    pub const ALL: [KernelId; 10] = [
        KernelId::Sobel,
        KernelId::Median,
        KernelId::Integral,
        KernelId::SusanCorners,
        KernelId::SusanEdges,
        KernelId::SusanSmoothing,
        KernelId::JpegEncode,
        KernelId::Tiff2Bw,
        KernelId::Tiff2Rgba,
        KernelId::Fft,
    ];

    /// The three kernels used by the Section 8.1 quality study.
    pub const QUALITY_TRIO: [KernelId; 3] = [KernelId::Sobel, KernelId::Median, KernelId::Integral];

    /// The testbench name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            KernelId::Sobel => "sobel",
            KernelId::Median => "median",
            KernelId::Integral => "integral",
            KernelId::SusanCorners => "susan.corners",
            KernelId::SusanEdges => "susan.edges",
            KernelId::SusanSmoothing => "susan.smoothing",
            KernelId::JpegEncode => "jpeg.encode.mb",
            KernelId::Tiff2Bw => "tiff2bw",
            KernelId::Tiff2Rgba => "tiff2rgba",
            KernelId::Fft => "FFT",
        }
    }

    /// Output comparison domain.
    pub fn quality_domain(self) -> QualityDomain {
        match self {
            KernelId::Integral | KernelId::Fft | KernelId::JpegEncode => QualityDomain::Raw,
            _ => QualityDomain::Clamped,
        }
    }

    /// `(MSE, PSNR)` of `candidate` against `reference` in the kernel's
    /// [`quality_domain`](Self::quality_domain).
    pub fn score(self, reference: &[i32], candidate: &[i32]) -> (f64, f64) {
        match self.quality_domain() {
            QualityDomain::Clamped => (
                quality::mse(reference, candidate),
                quality::psnr(reference, candidate),
            ),
            QualityDomain::Raw => (
                quality::mse_raw(reference, candidate),
                quality::psnr_raw(reference, candidate),
            ),
        }
    }

    /// Builds the one-frame ISA program and layout for a `width × height`
    /// frame.
    ///
    /// # Panics
    ///
    /// Panics on dimensions a kernel cannot handle (e.g. FFT requires
    /// `width·height` to be a power of two ≥ 8; JPEG requires multiples of
    /// its 8-pixel block).
    pub fn spec(self, width: usize, height: usize) -> KernelSpec {
        match self {
            KernelId::Sobel => sobel::spec(width, height),
            KernelId::Median => median::spec(width, height),
            KernelId::Integral => integral::spec(width, height),
            KernelId::SusanCorners => susan::spec(susan::Variant::Corners, width, height),
            KernelId::SusanEdges => susan::spec(susan::Variant::Edges, width, height),
            KernelId::SusanSmoothing => susan::spec(susan::Variant::Smoothing, width, height),
            KernelId::JpegEncode => jpeg::spec(width, height),
            KernelId::Tiff2Bw => tiff::spec_bw(width, height),
            KernelId::Tiff2Rgba => tiff::spec_rgba(width, height),
            KernelId::Fft => fft::spec(width, height),
        }
    }

    /// Full-precision host reference with identical integer semantics.
    ///
    /// `input` must be exactly the kernel's input region contents.
    pub fn golden(self, input: &[i32], width: usize, height: usize) -> Vec<i32> {
        match self {
            KernelId::Sobel => sobel::golden(input, width, height),
            KernelId::Median => median::golden(input, width, height),
            KernelId::Integral => integral::golden(input, width, height),
            KernelId::SusanCorners => susan::golden(susan::Variant::Corners, input, width, height),
            KernelId::SusanEdges => susan::golden(susan::Variant::Edges, input, width, height),
            KernelId::SusanSmoothing => {
                susan::golden(susan::Variant::Smoothing, input, width, height)
            }
            KernelId::JpegEncode => jpeg::golden(input, width, height),
            KernelId::Tiff2Bw => tiff::golden_bw(input, width, height),
            KernelId::Tiff2Rgba => tiff::golden_rgba(input, width, height),
            KernelId::Fft => fft::golden(input, width, height),
        }
    }

    /// Smallest representative frame dimensions this kernel accepts, used
    /// by tests and the `nvp-lint` driver (FFT needs a power-of-two signal,
    /// JPEG motion estimation needs whole 8-pixel blocks).
    pub fn min_dims(self) -> (usize, usize) {
        match self {
            KernelId::Fft => (8, 4),
            KernelId::JpegEncode => (16, 8),
            _ => (8, 8),
        }
    }

    /// Registers the compiler asserts are safe for control flow and
    /// addressing despite carrying approximation-derived values (a
    /// bitmask). SUSAN indexes its reciprocal table with a count clamped
    /// into `0..=9` before use; JPEG motion estimation *deliberately* lets
    /// the approximate SAD steer the best-vector comparison — the branch
    /// picks among equally-safe outputs, degrading only compressed size
    /// (Section 8.6's quality knob).
    pub fn sanitized_regs(self) -> u16 {
        match self {
            KernelId::SusanCorners | KernelId::SusanEdges | KernelId::SusanSmoothing => 1 << 7,
            KernelId::JpegEncode => (1 << 10) | (1 << 11),
            _ => 0,
        }
    }

    /// The governor operating range `(minbits, maxbits)` this kernel
    /// declares, checked statically by `nvp-lint`'s bitwidth pass: at
    /// `minbits` no unsanitized branch operand or address may deviate
    /// from the exact run. Every kernel keeps control flow and
    /// addressing in precise (or explicitly sanitized) registers, so the
    /// full `1..=8` range is safe — and `nvp-lint` warns (`NVP-W003`) if
    /// a kernel ever declares a floor above what the analysis proves.
    pub fn declared_bits(self) -> (u8, u8) {
        (1, 8)
    }

    /// Generates a deterministic, kernel-appropriate input frame.
    pub fn make_input(self, width: usize, height: usize, seed: u64) -> Vec<i32> {
        match self {
            KernelId::Tiff2Bw | KernelId::Tiff2Rgba => {
                image::RgbImage::synthetic(width, height, seed).to_words()
            }
            KernelId::JpegEncode => jpeg::make_input(width, height, seed),
            KernelId::Fft => fft::make_input(width, height, seed),
            _ => image::Image::texture(width, height, seed).to_words(),
        }
    }
}

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully-built kernel: program plus memory map.
#[derive(Debug, Clone)]
pub struct KernelSpec {
    /// Which testbench this is.
    pub id: KernelId,
    /// Frame width in pixels (FFT: flattened signal factor).
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// The one-frame program (starts with `mark_resume`, ends with
    /// `frame_done; halt`). Shared behind an [`Arc`] so that cloning a
    /// spec — and every simulation run built from it — reuses one
    /// immutable instruction stream instead of deep-copying it.
    pub program: Arc<Program>,
    /// Total data-memory words required.
    pub mem_words: usize,
    /// Constant tables: `(base address, contents)`.
    pub tables: Vec<(u32, Vec<i32>)>,
    /// Input-frame word range.
    pub input: Range<u32>,
    /// Output-frame word range.
    pub output: Range<u32>,
}

impl KernelSpec {
    /// Input length in words.
    pub fn input_len(&self) -> usize {
        (self.input.end - self.input.start) as usize
    }

    /// Output length in words.
    pub fn output_len(&self) -> usize {
        (self.output.end - self.output.start) as usize
    }

    /// Allocates a data memory and installs the constant tables into every
    /// version plane.
    pub fn build_memory(&self) -> VersionedMemory {
        let mut mem = VersionedMemory::new(self.mem_words);
        for (base, data) in &self.tables {
            for (i, &v) in data.iter().enumerate() {
                for version in 0..nvp_nvm::NUM_VERSIONS {
                    mem.write(*base as usize + i, version, v, 8);
                }
            }
        }
        mem
    }

    /// Loads an input frame into the given memory version.
    ///
    /// # Panics
    ///
    /// Panics if `frame.len()` does not match the input region.
    pub fn load_input(&self, mem: &mut VersionedMemory, version: usize, frame: &[i32]) {
        assert_eq!(frame.len(), self.input_len(), "input frame length mismatch");
        for (i, &v) in frame.iter().enumerate() {
            mem.write(self.input.start as usize + i, version, v, 8);
        }
    }

    /// Zeroes the output region of a memory version (frame reset).
    pub fn clear_output(&self, mem: &mut VersionedMemory, version: usize) {
        for a in self.output.clone() {
            mem.write(a as usize, version, 0, 0);
        }
    }

    /// Reads the output frame from the given memory version.
    pub fn read_output(&self, mem: &VersionedMemory, version: usize) -> Vec<i32> {
        self.output
            .clone()
            .map(|a| mem.read(a as usize, version))
            .collect()
    }

    /// Per-element output precision tags from the given memory version.
    pub fn read_output_precision(&self, mem: &VersionedMemory, version: usize) -> Vec<u8> {
        self.output
            .clone()
            .map(|a| mem.precision(a as usize, version))
            .collect()
    }
}

/// Common layout builder used by the kernel modules: tables at 0, then
/// input, then output, plus a small scratch margin.
pub(crate) fn layout(
    id: KernelId,
    width: usize,
    height: usize,
    tables: Vec<(u32, Vec<i32>)>,
    input_len: usize,
    output_len: usize,
    program: Program,
) -> KernelSpec {
    let tables_end: u32 = tables
        .iter()
        .map(|(b, d)| b + d.len() as u32)
        .max()
        .unwrap_or(0);
    let input = tables_end..tables_end + input_len as u32;
    let output = input.end..input.end + output_len as u32;
    KernelSpec {
        id,
        width,
        height,
        program: Arc::new(program),
        mem_words: output.end as usize,
        tables,
        input,
        output,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        assert_eq!(KernelId::Sobel.name(), "sobel");
        assert_eq!(KernelId::JpegEncode.name(), "jpeg.encode.mb");
        assert_eq!(KernelId::ALL.len(), 10);
    }

    #[test]
    fn quality_domains() {
        assert_eq!(KernelId::Sobel.quality_domain(), QualityDomain::Clamped);
        assert_eq!(KernelId::Integral.quality_domain(), QualityDomain::Raw);
        assert_eq!(KernelId::Fft.quality_domain(), QualityDomain::Raw);
    }

    #[test]
    fn display_names() {
        for k in KernelId::ALL {
            assert!(!k.to_string().is_empty());
        }
    }

    #[test]
    fn kernel_static_profiles_are_sane() {
        use nvp_isa::Instr;
        for id in KernelId::ALL {
            let (w, h) = id.min_dims();
            let spec = id.spec(w, h);
            let p = &spec.program;
            let backward_branches = p
                .iter()
                .filter(|&(pc, i)| match i {
                    Instr::Jmp(t)
                    | Instr::Brz(_, t)
                    | Instr::Brnz(_, t)
                    | Instr::Brlt(_, _, t)
                    | Instr::Brge(_, _, t) => (t as usize) <= pc,
                    _ => false,
                })
                .count();
            let resume_marks = p
                .iter()
                .filter(|(_, i)| matches!(i, Instr::MarkResume(_)))
                .count();
            assert!(backward_branches >= 1, "{id} has loops");
            assert_eq!(resume_marks, 1, "{id} has one resume marker");
            assert!(p.len() >= 10, "{id}");
        }
    }
}
