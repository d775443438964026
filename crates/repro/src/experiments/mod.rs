//! One function per paper table/figure.
//!
//! Naming follows the paper: `fig15` regenerates Figure 15, `table2`
//! Table 2, and the unnumbered Section 2.2 / 3.2 / 7 results get named
//! functions (`waitcompute`, `backup_cost`, `frametime`).

pub mod ckptx;
pub mod dynamicw;
pub mod nvmx;
pub mod overall;
pub mod powerx;
pub mod progress;
pub mod quality;
pub mod racx;
pub mod retention;
pub mod visual;
pub mod wcecx;

pub use ckptx::ckpt;
pub use dynamicw::{fig18, fig19, fig20, fig21};
pub use nvmx::{fig4, fig5};
pub use overall::{
    ablate_buffer, ablate_simd, backup_cost, fig28, fig9, frametime, table2, waitcompute,
};
pub use powerx::{fig2, fig3};
pub use progress::{fig15, fig16};
pub use quality::{fig12, fig14, safebits};
pub use racx::fig27;
pub use retention::{fig22, fig24, fig25};
pub use visual::images;
pub use wcecx::wcec;

pub use crate::sweep::traced;

use crate::catalog::{self, RunRequest};
use crate::sweep::{capture_active, capture_append};
use crate::{Scale, Table};
use nvp_kernels::KernelId;
use nvp_power::synth::WatchProfile;
use nvp_sim::{ExecEngine, ExecMode, RunReport};
use nvp_trace::{Event, JsonlBufSink, Tracer};
use std::sync::Arc;

pub(crate) use crate::catalog::{cached_spec, synth_profile, Frames};

/// Short stable tag for a mode, used in trace run labels.
fn mode_tag(mode: &ExecMode) -> &'static str {
    match mode {
        ExecMode::Precise => "precise",
        ExecMode::Fixed(_) => "fixed",
        ExecMode::Dynamic(..) => "dynamic",
        ExecMode::Simd4 => "simd4",
        ExecMode::Incidental(..) => "incidental",
    }
}

/// Builds (or fetches) the cycled input-frame set for a kernel at scale
/// (thin [`Scale`]-shaped wrapper over [`catalog::frames_for`]).
pub(crate) fn make_frames(id: KernelId, scale: Scale) -> Frames {
    catalog::frames_for(id, scale.img, scale.frames)
}

/// The request an experiment run starts from: `id` at `scale` under
/// `mode` over `profile`'s canonical trace on the Step engine, outputs
/// not recorded, and [`RunRequest::default`] for everything else. (The
/// default request names Compiled; both engines run one loop, and the
/// run memo keys on the name.)
pub(crate) fn base(
    id: KernelId,
    scale: Scale,
    profile: WatchProfile,
    mode: ExecMode,
) -> RunRequest {
    RunRequest {
        kernel: id,
        img: scale.img,
        frames: scale.frames,
        trace_seconds: scale.trace_seconds,
        profile,
        mode,
        engine: ExecEngine::Step,
        ..RunRequest::default()
    }
}

/// Runs `req` through the catalog's run memo, so a request another
/// experiment already ran is not simulated again. Inside a [`traced`]
/// capture it always simulates, appending a labelled trace to the
/// capture: a memo hit would have no events to give.
pub(crate) fn run(req: &RunRequest) -> Arc<RunReport> {
    if !capture_active() {
        return catalog::simulate_memoized(req);
    }
    let mut sink = JsonlBufSink::new();
    let label = format!("{:?}/{:?}/{}", req.kernel, req.profile, mode_tag(&req.mode));
    sink.record(&Event::RunStart { tick: 0, label });
    let report = catalog::simulate_traced(req, &mut sink);
    capture_append(&sink.into_string());
    Arc::new(report)
}

/// Every experiment in paper order; used by `repro all`.
///
/// Figures 19, 21 and 24 score outputs, so their runs record them, and a
/// recording run seeds the run memo for its output-free twin. They are
/// made first, so Figures 15, 18 and 22 find those runs in the memo
/// instead of simulating them again. Their tables still come out, and
/// inside a [`traced`] capture their traces still land, in paper order:
/// a `repro all --trace` file equals the traces of its experiments run
/// one by one.
pub fn all(scale: Scale) -> Vec<Table> {
    all_with_ablation(scale, false)
}

/// A figure made ahead of its paper position, with the trace text it
/// captured when made inside a capture.
fn early(make: impl FnOnce() -> Vec<Table>) -> (Vec<Table>, String) {
    if capture_active() {
        traced(make)
    } else {
        (make(), String::new())
    }
}

/// Puts a figure made by [`early`] back at its paper position: appends
/// its trace text to the capture and hands back its tables.
fn in_place((tables, text): (Vec<Table>, String)) -> Vec<Table> {
    capture_append(&text);
    tables
}

/// [`all`], ending with Figure 28's ablation columns when `ablate` (`repro
/// all --ablate`).
pub fn all_with_ablation(scale: Scale, ablate: bool) -> Vec<Table> {
    let recorded_fig19 = early(|| fig19(scale));
    let recorded_fig21 = early(|| fig21(scale));
    let recorded_fig24 = early(|| fig24(scale));
    let mut out = Vec::new();
    out.extend(fig2(scale));
    out.extend(fig3(scale));
    out.extend(fig4());
    out.extend(fig5());
    out.extend(waitcompute(scale));
    out.extend(backup_cost(scale));
    out.extend(fig9(scale));
    out.extend(fig12(scale));
    out.extend(fig14(scale));
    out.extend(safebits(scale));
    out.extend(wcec(scale));
    out.extend(ckpt(scale));
    out.extend(fig15(scale));
    out.extend(fig16(scale));
    out.extend(fig18(scale));
    out.extend(in_place(recorded_fig19));
    out.extend(fig20(scale));
    out.extend(in_place(recorded_fig21));
    out.extend(fig22(scale));
    out.extend(in_place(recorded_fig24));
    out.extend(fig25(scale));
    out.extend(fig27(scale));
    out.extend(table2(scale));
    out.extend(frametime(scale));
    out.extend(fig28(scale, ablate));
    out
}
