//! `nvp-fleet` — fleet-scale scenario runner.
//!
//! ```text
//! nvp-fleet run --spec FILE [--jobs N] [--out FILE] [--snapshot FILE] [--stop-after-chunks K]
//! nvp-fleet resume --snapshot FILE [--jobs N] [--out FILE] [--snapshot-out FILE]
//! nvp-fleet report --snapshot FILE
//! ```
//!
//! `run` executes a scenario spec to completion and prints the aggregate
//! report (or pauses at a chunk boundary with `--stop-after-chunks`,
//! writing the resumable state to `--snapshot`). `resume` continues from a
//! snapshot and is guaranteed to produce the byte-identical report the
//! uninterrupted run would have. `report` re-renders a finished
//! snapshot without simulating anything.

use nvp_fleet::{
    decode_snapshot, encode_snapshot, run_chunks, FleetAggregate, Progress, RunOptions, RunStatus,
    ScenarioSpec,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("usage: nvp-fleet <run|resume|report> [options]");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "run" => cmd_run(&args[1..]),
        "resume" => cmd_resume(&args[1..]),
        "report" => cmd_report(&args[1..]),
        other => Err(format!(
            "unknown command '{other}' (want run|resume|report)"
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("nvp-fleet: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Minimal `--flag value` argument scanner.
fn flag<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    let mut found = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            match it.next() {
                Some(v) => found = Some(v.as_str()),
                None => return Err(format!("{name} wants a value")),
            }
        }
    }
    Ok(found)
}

fn parse_jobs(args: &[String]) -> Result<usize, String> {
    match flag(args, "--jobs")? {
        None => Ok(1),
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|j| (1..=256).contains(j))
            .ok_or_else(|| format!("--jobs '{v}' must be 1..=256")),
    }
}

fn write_or_print(path: Option<&str>, content: &str, what: &str) -> Result<(), String> {
    match path {
        None => {
            print!("{content}");
            Ok(())
        }
        Some(p) => std::fs::write(p, content).map_err(|e| format!("writing {what} to {p}: {e}")),
    }
}

fn progress_printer(quiet: bool) -> impl FnMut(Progress) {
    move |p: Progress| {
        if !quiet && (p.chunks_done.is_multiple_of(16) || p.chunks_done == p.chunks) {
            eprintln!(
                "chunk {}/{} · {} devices · {} cells",
                p.chunks_done, p.chunks, p.devices_done, p.distinct_cells
            );
        }
    }
}

fn finish(
    mut agg: FleetAggregate,
    jobs: usize,
    stop_after_chunks: Option<u64>,
    out: Option<&str>,
    snapshot: Option<&str>,
) -> Result<(), String> {
    let opts = RunOptions {
        jobs,
        stop_after_chunks,
    };
    let Ok(status) = run_chunks(&mut agg, opts, progress_printer(false));
    match status {
        RunStatus::Complete => {
            if let Some(path) = snapshot {
                std::fs::write(path, encode_snapshot(&agg))
                    .map_err(|e| format!("writing snapshot to {path}: {e}"))?;
            }
            write_or_print(out, &agg.render_report(), "report")
        }
        RunStatus::Paused => {
            let path = snapshot
                .ok_or("paused by --stop-after-chunks but no --snapshot path to persist to")?;
            std::fs::write(path, encode_snapshot(&agg))
                .map_err(|e| format!("writing snapshot to {path}: {e}"))?;
            eprintln!(
                "paused at chunk {}/{} · snapshot written to {path}",
                agg.next_chunk,
                agg.spec.chunks()
            );
            Ok(())
        }
    }
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let spec_path = flag(args, "--spec")?.ok_or("run wants --spec FILE")?;
    let text =
        std::fs::read_to_string(spec_path).map_err(|e| format!("reading spec {spec_path}: {e}"))?;
    let spec = ScenarioSpec::parse(&text).map_err(|e| e.to_string())?;
    eprintln!(
        "job {} · {} devices · {} chunks · ≤{} cells",
        spec.job_id(),
        spec.devices,
        spec.chunks(),
        spec.distinct_cells()
    );
    let stop = match flag(args, "--stop-after-chunks")? {
        None => None,
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| format!("--stop-after-chunks '{v}' must be an integer"))?,
        ),
    };
    finish(
        FleetAggregate::new(spec),
        parse_jobs(args)?,
        stop,
        flag(args, "--out")?,
        flag(args, "--snapshot")?,
    )
}

fn cmd_resume(args: &[String]) -> Result<(), String> {
    let snap_path = flag(args, "--snapshot")?.ok_or("resume wants --snapshot FILE")?;
    let text = std::fs::read_to_string(snap_path)
        .map_err(|e| format!("reading snapshot {snap_path}: {e}"))?;
    let agg = decode_snapshot(&text).map_err(|e| e.to_string())?;
    eprintln!(
        "job {} · resuming at chunk {}/{}",
        agg.spec.job_id(),
        agg.next_chunk,
        agg.spec.chunks()
    );
    finish(
        agg,
        parse_jobs(args)?,
        None,
        flag(args, "--out")?,
        flag(args, "--snapshot-out")?,
    )
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let snap_path = flag(args, "--snapshot")?.ok_or("report wants --snapshot FILE")?;
    let text = std::fs::read_to_string(snap_path)
        .map_err(|e| format!("reading snapshot {snap_path}: {e}"))?;
    let agg = decode_snapshot(&text).map_err(|e| e.to_string())?;
    if !agg.is_complete() {
        return Err(format!(
            "snapshot is mid-run ({}/{} chunks); use `nvp-fleet resume` to finish it",
            agg.next_chunk,
            agg.spec.chunks()
        ));
    }
    write_or_print(flag(args, "--out")?, &agg.render_report(), "report")
}
