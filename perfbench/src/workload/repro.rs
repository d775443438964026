//! `repro`: the paper reproduction itself, `repro all` at full scale on
//! two sweep workers with the default engine. It has no seed input.

use super::{secs, Iteration};
use crate::golden::{fnv1a64, golden, hex};
use crate::metrics::EXPERIMENTS;
use nvp_power::synth::WatchProfile;
use nvp_repro::experiments as e;
use nvp_repro::{catalog, Scale, Table};
use std::hint::black_box;
use std::time::Instant;

/// The scale `repro all` runs at here.
fn scale() -> Scale {
    Scale::full().with_jobs(2)
}

/// Runs one experiment function of `all` by name.
fn experiment(name: &str, scale: Scale) -> Vec<Table> {
    match name {
        "fig2" => e::fig2(scale),
        "fig3" => e::fig3(scale),
        "fig4" => e::fig4(),
        "fig5" => e::fig5(),
        "waitcompute" => e::waitcompute(scale),
        "backup_cost" => e::backup_cost(scale),
        "fig9" => e::fig9(scale),
        "fig12" => e::fig12(scale),
        "fig14" => e::fig14(scale),
        "safebits" => e::safebits(scale),
        "wcec" => e::wcec(scale),
        "ckpt" => e::ckpt(scale),
        "fig15" => e::fig15(scale),
        "fig16" => e::fig16(scale),
        "fig18" => e::fig18(scale),
        "fig19" => e::fig19(scale),
        "fig20" => e::fig20(scale),
        "fig21" => e::fig21(scale),
        "fig22" => e::fig22(scale),
        "fig24" => e::fig24(scale),
        "fig25" => e::fig25(scale),
        "fig27" => e::fig27(scale),
        "table2" => e::table2(scale),
        "frametime" => e::frametime(scale),
        "fig28" => e::fig28(scale, false),
        other => panic!("unknown experiment {other}"),
    }
}

/// Digest of the tables exactly as `repro all` prints them.
pub fn tables_digest(tables: &[Table]) -> u64 {
    let rendered: String = tables.iter().map(ToString::to_string).collect();
    fnv1a64(rendered.as_bytes())
}

/// One `repro all`. The traced variant first synthesizes the five watch
/// traces (`power.synth_s`), then calls each experiment function of
/// `all` in order under its own timer (`repro.<name>_s`).
pub fn iteration(traced: bool) -> Iteration {
    let mut it = Iteration::default();
    let t0 = Instant::now();
    let tables = if traced {
        let t = Instant::now();
        for profile in WatchProfile::ALL {
            black_box(catalog::synth_profile(profile, scale().trace_seconds));
        }
        it.layer("power.synth_s", secs(t));
        let mut tables = Vec::new();
        for name in EXPERIMENTS {
            let t = Instant::now();
            tables.extend(experiment(name, scale()));
            it.layer(format!("repro.{name}_s"), secs(t));
        }
        tables
    } else {
        e::all(scale())
    };
    it.wall_s = secs(t0);
    let digest = tables_digest(&tables);
    it.digest = hex(digest);
    it.attempted = 1;
    match golden().repro {
        Some(pinned) if pinned == digest => {}
        pinned => it.fail(format!(
            "repro tables digest {} differs from golden {}",
            hex(digest),
            pinned.map_or("(none)".to_string(), hex)
        )),
    }
    it
}

/// The golden `repro` line.
pub fn record() -> String {
    format!("repro {}\n", hex(tables_digest(&e::all(scale()))))
}
