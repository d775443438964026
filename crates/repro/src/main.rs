//! `repro` — regenerate the tables and figures of *Incidental Computing on
//! IoT Nonvolatile Processors* (MICRO-50, 2017).
//!
//! ```text
//! repro <experiment>... [--quick] [--jobs N] [--csv DIR] [--ablate] [--trace FILE]
//! repro list
//! ```

use nvp_repro::experiments;
use nvp_repro::{Scale, Table};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const EXPERIMENTS: &[(&str, &str)] = &[
    ("fig2", "watch power profiles"),
    ("fig3", "outage duration statistics"),
    ("fig4", "STT-RAM write current vs retention"),
    ("fig5", "retention-time shaping policies"),
    ("fig9", "timing behaviour of the four NVP variants"),
    ("fig12", "approximate-ALU quality (covers figs 11-12)"),
    ("fig14", "approximate-memory quality (covers figs 13-14)"),
    (
        "safebits",
        "statically-proven safe bitwidths (nvp-lint --bitwidth)",
    ),
    (
        "wcec",
        "per-region WCEC certificates and block-engine equivalence (nvp-lint --energy)",
    ),
    (
        "ckpt",
        "checkpoint placement synthesis and backup scopes (nvp-lint --checkpoint)",
    ),
    ("fig15", "forward progress vs bitwidth"),
    ("fig16", "backup count vs bitwidth"),
    ("fig18", "dynamic bitwidth utilization (covers figs 17-18)"),
    ("fig19", "dynamic bitwidth quality"),
    ("fig20", "dynamic bitwidth forward progress"),
    ("fig21", "minbits=4 dynamic vs 7-bit fixed"),
    ("fig22", "retention failures per bit and policy"),
    ("fig24", "quality vs retention policy (covers figs 23-24)"),
    ("fig25", "FP improvement from retention shaping"),
    ("fig27", "recompute-and-combine (covers figs 26-27)"),
    (
        "fig28",
        "overall incidental FP gain (add --ablate for breakdown)",
    ),
    ("table2", "fine-tuned QoS policies"),
    ("waitcompute", "Section 2.2 NVP vs wait-compute"),
    ("backup-cost", "Section 3.2 backup rate and energy share"),
    ("frametime", "Section 7 seconds per frame"),
    (
        "images",
        "PGM dumps of the visual figures 11/13/17/26 (use --out DIR)",
    ),
    ("ablate-simd", "ablation: SIMD width cap"),
    ("ablate-buffer", "ablation: resume-buffer depth"),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }
    let mut names: Vec<String> = Vec::new();
    let mut quick = false;
    let mut jobs = 0usize; // 0 = auto (available parallelism)
    let mut csv_dir: Option<PathBuf> = None;
    let mut out_dir = PathBuf::from("figures");
    let mut trace_path: Option<PathBuf> = None;
    let mut ablate = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--ablate" => ablate = true,
            "--jobs" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => jobs = n,
                _ => {
                    eprintln!("--jobs requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--csv" => match it.next() {
                Some(d) => csv_dir = Some(PathBuf::from(d)),
                None => {
                    eprintln!("--csv requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => match it.next() {
                Some(p) => trace_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--trace requires a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match it.next() {
                Some(d) => out_dir = PathBuf::from(d),
                None => {
                    eprintln!("--out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            "list" => {
                for (n, d) in EXPERIMENTS {
                    println!("{n:<14} {d}");
                }
                return ExitCode::SUCCESS;
            }
            other => names.push(other.to_string()),
        }
    }
    if names.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }
    let scale = if quick { Scale::quick() } else { Scale::full() }.with_jobs(jobs);
    let mut trace_file = match &trace_path {
        None => None,
        Some(p) => match std::fs::File::create(p) {
            Ok(f) => Some((f, p)),
            Err(e) => {
                eprintln!("cannot create trace file {}: {e}", p.display());
                return ExitCode::FAILURE;
            }
        },
    };

    let mut tables: Vec<Table> = Vec::new();
    for name in &names {
        let run = || -> Result<Vec<Table>, String> {
            if name == "images" {
                return experiments::images(scale, &out_dir)
                    .map_err(|e| format!("image dump failed: {e}"));
            }
            run_experiment(name, scale, ablate)
                .ok_or_else(|| format!("unknown experiment '{name}' — try `repro list`"))
        };
        // Each experiment's runs are captured in order and written to the
        // trace file before the next experiment starts.
        let result = match &mut trace_file {
            None => run(),
            Some((file, p)) => {
                let (result, text) = experiments::traced(run);
                if let Err(e) = file.write_all(text.as_bytes()) {
                    eprintln!("cannot write trace file {}: {e}", p.display());
                    return ExitCode::FAILURE;
                }
                result
            }
        };
        match result {
            Ok(t) => tables.extend(t),
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    for t in &tables {
        print!("{t}");
        if let Some(dir) = &csv_dir {
            if let Err(e) = t.write_csv(dir) {
                eprintln!("failed to write CSV for {}: {e}", t.name);
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(dir) = &csv_dir {
        eprintln!("\nCSV written to {}", dir.display());
    }
    if let Some(p) = &trace_path {
        eprintln!(
            "trace written to {} (inspect with `nvp-trace summarize`)",
            p.display()
        );
    }
    ExitCode::SUCCESS
}

fn run_experiment(name: &str, scale: Scale, ablate: bool) -> Option<Vec<Table>> {
    use experiments as e;
    Some(match name {
        "all" => e::all_with_ablation(scale, ablate),
        "fig2" => e::fig2(scale),
        "fig3" => e::fig3(scale),
        "fig4" => e::fig4(),
        "fig5" => e::fig5(),
        "fig9" => e::fig9(scale),
        "fig11" | "fig12" => e::fig12(scale),
        "fig13" | "fig14" => e::fig14(scale),
        "safebits" => e::safebits(scale),
        "wcec" => e::wcec(scale),
        "ckpt" => e::ckpt(scale),
        "fig15" => e::fig15(scale),
        "fig16" => e::fig16(scale),
        "fig17" | "fig18" => e::fig18(scale),
        "fig19" => e::fig19(scale),
        "fig20" => e::fig20(scale),
        "fig21" => e::fig21(scale),
        "fig22" => e::fig22(scale),
        "fig23" | "fig24" => e::fig24(scale),
        "fig25" => e::fig25(scale),
        "fig26" | "fig27" => e::fig27(scale),
        "fig28" => e::fig28(scale, ablate),
        "table2" => e::table2(scale),
        "waitcompute" => e::waitcompute(scale),
        "backup-cost" => e::backup_cost(scale),
        "frametime" => e::frametime(scale),
        "ablate-simd" => e::ablate_simd(scale),
        "ablate-buffer" => e::ablate_buffer(scale),
        _ => return None,
    })
}

fn usage() {
    eprintln!("repro — regenerate the MICRO'17 incidental-computing evaluation");
    eprintln!();
    eprintln!(
        "usage: repro <experiment>... [--quick] [--jobs N] [--csv DIR] [--out DIR] [--ablate] [--trace FILE]"
    );
    eprintln!("       repro list");
    eprintln!();
    eprintln!(
        "  --jobs N      worker threads for parameter sweeps (default: all cores; 1 = serial)"
    );
    eprintln!();
    eprintln!("run `repro list` for the experiment catalogue");
}
