//! `repro` — regenerate the tables and figures of *Incidental Computing on
//! IoT Nonvolatile Processors* (MICRO-50, 2017).
//!
//! ```text
//! repro <experiment>... [--quick] [--jobs N] [--csv DIR] [--ablate] [--trace FILE]
//! repro list
//! ```

use nvp_repro::experiments::{self, InAll, Make};
use nvp_repro::{Scale, Table};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

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
                for e in experiments::EXPERIMENTS {
                    let mut line = format!("{:<14} {}", e.name, e.about);
                    for alias in e.aliases {
                        line += &format!("  [alias {alias}]");
                    }
                    if e.in_all == InAll::No {
                        line += "  [not run by `repro all`]";
                    }
                    println!("{line}");
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
            if name == "all" {
                return Ok(experiments::all_with_ablation(scale, ablate));
            }
            match experiments::find(name).map(|e| e.make) {
                Some(Make::Tables(make)) => Ok(make(scale, ablate)),
                Some(Make::Images) => experiments::images(scale, &out_dir)
                    .map_err(|e| format!("image dump failed: {e}")),
                None => Err(format!("unknown experiment '{name}' — try `repro list`")),
            }
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
