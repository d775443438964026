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
pub use racx::{fig27, recompute};
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

/// How `repro NAME` makes an experiment.
#[derive(Debug, Clone, Copy)]
pub enum Make {
    /// Tables from the scale and `--ablate` (only Figure 28 reads it).
    Tables(fn(Scale, bool) -> Vec<Table>),
    /// [`images`], which writes PGM files under `--out` rather than
    /// returning tables; the `repro` binary runs it.
    Images,
}

/// Where `repro all` makes an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InAll {
    /// `repro all` does not run it.
    No,
    /// At its place in the table.
    InOrder,
    /// Before everything else, to seed the run memo; its tables and
    /// trace still land at its place in the table.
    First,
}

/// One row of [`EXPERIMENTS`].
#[derive(Debug)]
pub struct Experiment {
    /// The name `repro` takes.
    pub name: &'static str,
    /// Other names for the same experiment (a figure another one covers).
    pub aliases: &'static [&'static str],
    /// Where `repro all` makes it.
    pub in_all: InAll,
    /// What it runs.
    pub make: Make,
    /// The one-line description `repro list` prints.
    pub about: &'static str,
}

/// Declares [`EXPERIMENTS`], one row per experiment: its name and
/// aliases, where `repro all` makes it, what it runs, its description.
macro_rules! experiments {
    ($(
        $name:literal $(| $alias:literal)*:
            $in_all:ident, $make:ident $(($run:expr))?, $about:literal;
    )*) => {
        /// Every experiment, in paper order: `repro list` prints this
        /// table, `repro NAME` looks names up in it ([`find`]) and
        /// [`all`] walks it.
        pub const EXPERIMENTS: &[Experiment] = &[$(
            Experiment {
                name: $name,
                aliases: &[$($alias),*],
                in_all: InAll::$in_all,
                make: Make::$make $(($run))?,
                about: $about,
            },
        )*];
    };
}

experiments! {
    "fig2": InOrder, Tables(|s, _| fig2(s)), "watch power profiles";
    "fig3": InOrder, Tables(|s, _| fig3(s)), "outage duration statistics";
    "fig4": InOrder, Tables(|_, _| fig4()), "STT-RAM write current vs retention";
    "fig5": InOrder, Tables(|_, _| fig5()), "retention-time shaping policies";
    "waitcompute": InOrder, Tables(|s, _| waitcompute(s)), "Section 2.2 NVP vs wait-compute";
    "backup-cost": InOrder, Tables(|s, _| backup_cost(s)),
        "Section 3.2 backup rate and energy share";
    "fig9": InOrder, Tables(|s, _| fig9(s)), "timing behaviour of the four NVP variants";
    "fig12" | "fig11": InOrder, Tables(|s, _| fig12(s)),
        "approximate-ALU quality (covers figs 11-12)";
    "fig14" | "fig13": InOrder, Tables(|s, _| fig14(s)),
        "approximate-memory quality (covers figs 13-14)";
    "safebits": InOrder, Tables(|s, _| safebits(s)),
        "statically-proven safe bitwidths (nvp-lint --bitwidth)";
    "wcec": InOrder, Tables(|s, _| wcec(s)), "per-region WCEC certificates (nvp-lint --energy)";
    "ckpt": InOrder, Tables(|s, _| ckpt(s)),
        "checkpoint placement synthesis and backup scopes (nvp-lint --checkpoint)";
    "fig15": InOrder, Tables(|s, _| fig15(s)), "forward progress vs bitwidth";
    "fig16": InOrder, Tables(|s, _| fig16(s)), "backup count vs bitwidth";
    "fig18" | "fig17": InOrder, Tables(|s, _| fig18(s)),
        "dynamic bitwidth utilization (covers figs 17-18)";
    "fig19": First, Tables(|s, _| fig19(s)), "dynamic bitwidth quality";
    "fig20": InOrder, Tables(|s, _| fig20(s)), "dynamic bitwidth forward progress";
    "fig21": First, Tables(|s, _| fig21(s)), "minbits=4 dynamic vs 7-bit fixed";
    "fig22": InOrder, Tables(|s, _| fig22(s)), "retention failures per bit and policy";
    "fig24" | "fig23": First, Tables(|s, _| fig24(s)),
        "quality vs retention policy (covers figs 23-24)";
    "fig25": InOrder, Tables(|s, _| fig25(s)), "FP improvement from retention shaping";
    "fig27" | "fig26": InOrder, Tables(|s, _| fig27(s)),
        "recompute-and-combine (covers figs 26-27)";
    "table2": InOrder, Tables(|s, _| table2(s)), "fine-tuned QoS policies";
    "frametime": InOrder, Tables(|s, _| frametime(s)), "Section 7 seconds per frame";
    "fig28": InOrder, Tables(fig28), "overall incidental FP gain (add --ablate for breakdown)";
    "ablate-simd": No, Tables(|s, _| ablate_simd(s)), "ablation: SIMD width cap";
    "ablate-buffer": No, Tables(|s, _| ablate_buffer(s)), "ablation: resume-buffer depth";
    "images": No, Images, "PGM dumps of the visual figures 11/13/17/26 (use --out DIR)";
}

/// The experiment `repro NAME` runs: the one named `name`, or aliased so.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS
        .iter()
        .find(|e| e.name == name || e.aliases.contains(&name))
}

/// Every [`EXPERIMENTS`] row `repro all` runs, in table order.
///
/// Figures 19, 21 and 24 score outputs, so their runs record them, and a
/// recording run seeds the run memo for its output-free twin. They are
/// made first ([`InAll::First`]), so Figures 15, 18 and 22 find those
/// runs in the memo instead of simulating them again. Their tables still
/// come out, and inside a [`traced`] capture their traces still land, at
/// their place in the table: a `repro all --trace` file equals the
/// traces of its experiments run one by one.
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
    let make = |e: &Experiment| match e.make {
        Make::Tables(make) => make(scale, ablate),
        Make::Images => panic!("`repro all` writes no images"),
    };
    let mut first = EXPERIMENTS
        .iter()
        .filter(|e| e.in_all == InAll::First)
        .map(|e| early(|| make(e)))
        .collect::<Vec<_>>()
        .into_iter();
    let mut out = Vec::new();
    for e in EXPERIMENTS {
        match e.in_all {
            InAll::No => {}
            InAll::InOrder => out.extend(make(e)),
            InAll::First => out.extend(in_place(first.next().expect("made first"))),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_aliases_are_unique() {
        let mut names: Vec<&str> = EXPERIMENTS
            .iter()
            .flat_map(|e| std::iter::once(e.name).chain(e.aliases.iter().copied()))
            .collect();
        let len = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), len, "a name or alias is declared twice");
    }

    #[test]
    fn every_alias_resolves_to_its_figure() {
        let aliases: Vec<(&str, &str)> = EXPERIMENTS
            .iter()
            .flat_map(|e| e.aliases.iter().map(move |&a| (a, e.name)))
            .collect();
        assert_eq!(
            aliases,
            [
                ("fig11", "fig12"),
                ("fig13", "fig14"),
                ("fig17", "fig18"),
                ("fig23", "fig24"),
                ("fig26", "fig27"),
            ]
        );
        for (alias, name) in aliases {
            assert_eq!(find(alias).map(|e| e.name), Some(name));
        }
        assert!(find("all").is_none() && find("fig1").is_none());
    }

    /// The figures `repro all` runs, with their aliases, come out with
    /// ascending numbers, and the rows it skips come after all of them.
    #[test]
    fn all_runs_its_rows_in_paper_order() {
        let in_all = EXPERIMENTS
            .iter()
            .take_while(|e| e.in_all != InAll::No)
            .count();
        assert!(EXPERIMENTS[in_all..].iter().all(|e| e.in_all == InAll::No));
        let figures: Vec<u32> = EXPERIMENTS[..in_all]
            .iter()
            .flat_map(|e| e.aliases.iter().rev().chain([&e.name]))
            .filter_map(|n| n.strip_prefix("fig")?.parse().ok())
            .collect();
        assert!(figures.windows(2).all(|w| w[0] < w[1]), "{figures:?}");
        assert_eq!(figures.len(), 23);
    }

    #[test]
    fn exactly_figures_19_21_and_24_are_made_first() {
        let first: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|e| e.in_all == InAll::First)
            .map(|e| e.name)
            .collect();
        assert_eq!(first, ["fig19", "fig21", "fig24"]);
    }
}
