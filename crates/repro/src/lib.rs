//! Reproduction harness for the MICRO'17 incidental-computing evaluation.
//!
//! Each function in [`experiments`] regenerates one table or figure of the
//! paper as a printable [`Table`] (also exportable as CSV by the `repro`
//! binary). Absolute numbers come from our simulator calibration, not the
//! authors' testbed; the *shapes* — orderings, crossover bitwidths,
//! improvement factors — are the reproduction targets recorded in
//! `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod experiments;
pub mod key;
pub mod sweep;
pub mod table;

pub use table::Table;

use nvp_kernels::KernelId;

/// Experiment scale and run configuration: full (paper-like) or quick
/// (CI/tests), plus the sweep width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Power-trace length in seconds.
    pub trace_seconds: f64,
    /// Image edge length in pixels.
    pub img: usize,
    /// Number of distinct input frames to cycle.
    pub frames: usize,
    /// Worker threads for experiment sweeps: 0 = auto (hardware width),
    /// 1 = serial reference path.
    pub jobs: usize,
}

impl Scale {
    /// Paper-like scale (10 s traces, 24×24 frames).
    pub fn full() -> Scale {
        Scale {
            trace_seconds: 10.0,
            img: 24,
            frames: 6,
            jobs: 0,
        }
    }

    /// Fast scale for CI and benchmarking.
    pub fn quick() -> Scale {
        Scale {
            trace_seconds: 1.5,
            img: 12,
            frames: 2,
            jobs: 0,
        }
    }

    /// Same scale with an explicit sweep worker count.
    pub fn with_jobs(self, jobs: usize) -> Scale {
        Scale { jobs, ..self }
    }

    /// The worker count sweeps will actually use (resolves 0 = auto).
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.jobs
        }
    }
}

/// Frame dimensions used for each kernel at a given image scale.
///
/// FFT uses a power-of-two signal length; JPEG motion estimation needs
/// multiples of its 8-pixel block.
pub fn dims(id: KernelId, img: usize) -> (usize, usize) {
    match id {
        KernelId::Fft => {
            let n = (img * img).next_power_of_two().clamp(32, 256);
            (n / 8, 8)
        }
        KernelId::JpegEncode => {
            let e = (img / 8).max(2) * 8;
            (e, e)
        }
        _ => (img.max(8), img.max(8)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_respect_kernel_constraints() {
        for img in [8, 12, 24, 32] {
            let (w, h) = dims(KernelId::Fft, img);
            assert!((w * h).is_power_of_two());
            let (w, h) = dims(KernelId::JpegEncode, img);
            assert_eq!(w % 8, 0);
            assert_eq!(h % 8, 0);
            let (w, h) = dims(KernelId::Sobel, img);
            assert!(w >= 8 && h >= 8);
        }
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::quick().trace_seconds < Scale::full().trace_seconds);
        assert!(Scale::quick().img < Scale::full().img);
    }
}
