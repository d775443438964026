//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! perfbench --workload repro|serve|fleet|all --seed N --seconds S --trace 0|1
//! perfbench --record-golden [FLEET_SEEDS]
//! ```
//!
//! Every iteration of a workload runs in a fresh child process (this same
//! executable with `--child`), so memos start cold and peak RSS is per
//! workload. Untraced runs (`--trace 0`) repeat iterations until the next
//! one would overrun `--seconds`, and report medians of the end-to-end
//! metrics. Traced runs (`--trace 1`) run one traced iteration of each
//! workload for the per-layer breakdown, plus one untraced iteration of
//! the named workload for `trace_overhead`. The last stdout line is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`. See
//! README.md for what each workload and metric means.

mod client;
mod golden;
mod inputs;
mod metrics;
mod stats;
mod workload;

use nvp_serve::json::Json;
use stats::{median, Summary};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

const WORKLOADS: [&str; 3] = ["repro", "serve", "fleet"];

/// Process-start samples per untraced run (set-up is reported as their
/// median plus the median workload set-up).
const START_SAMPLES: usize = 31;

/// Nanoseconds since the Unix epoch (comparable across processes).
fn unix_ns() -> f64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_nanos() as f64
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed wants an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds wants a positive number")?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (repro|serve|fleet|all)"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let started_ns = unix_ns();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--child") => return child(&argv[1..], started_ns),
        Some("--record-golden") => return record(&argv[1..]),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// `--child WORKLOAD SEED 0|1`, or `--child noop`: one iteration in this
/// process, printed as one JSON line.
fn child(argv: &[String], started_ns: f64) -> ExitCode {
    let mut fields = vec![("started_ns", Json::Num(started_ns))];
    if let [workload, seed, traced] = argv {
        let seed: u64 = seed.parse().expect("parent passes a valid seed");
        let traced = traced == "1";
        let it = match workload.as_str() {
            "repro" => workload::repro::iteration(traced),
            "serve" => workload::serve::iteration(seed, traced),
            "fleet" => workload::fleet::iteration(seed, traced),
            other => panic!("unknown child workload {other}"),
        };
        fields.push(("iteration", it.to_json()));
    }
    println!("{}", Json::obj(fields).render());
    ExitCode::SUCCESS
}

/// `--record-golden [FLEET_SEEDS]`: prints `golden.txt` for this commit.
fn record(argv: &[String]) -> ExitCode {
    let fleet_seeds: u64 = argv.first().map_or(0, |s| s.parse().expect("seed count"));
    print!(
        "# perfbench golden digests (FNV-1a 64); regenerate only when outputs are meant to change:\n\
         # perfbench --record-golden {fleet_seeds} > golden.txt\n"
    );
    print!("{}", workload::repro::record());
    print!("{}", workload::serve::record());
    print!("{}", workload::fleet::record(0..fleet_seeds));
    ExitCode::SUCCESS
}

/// A child's report: when it started, and its iteration (if any).
struct ChildOut {
    start_s: f64,
    iteration: Option<Json>,
}

/// Runs this executable as a child and parses its JSON line.
fn spawn_child(args: &[&str]) -> Result<ChildOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let spawned_ns = unix_ns();
    let out = Command::new(exe)
        .arg("--child")
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    let doc = Json::parse(line).map_err(|e| format!("child {args:?} printed bad JSON: {e}"))?;
    let started = doc
        .get("started_ns")
        .and_then(Json::as_f64)
        .ok_or("child omitted started_ns")?;
    Ok(ChildOut {
        start_s: (started - spawned_ns) / 1e9,
        iteration: doc.get("iteration").cloned(),
    })
}

/// Runs one iteration of `workload` in a fresh process.
fn run_iteration(workload: &str, seed: u64, traced: bool) -> Result<Json, String> {
    let seed = seed.to_string();
    spawn_child(&[workload, &seed, if traced { "1" } else { "0" }])?
        .iteration
        .ok_or_else(|| "child printed no iteration".to_string())
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// Correctness totals over iterations.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    digests: BTreeMap<String, Vec<String>>,
}

impl Tally {
    fn add(&mut self, workload: &str, doc: &Json) {
        self.attempted += num(doc, "attempted") as u64;
        self.failed += num(doc, "failed") as u64;
        for e in doc.get("errors").and_then(Json::as_array).unwrap_or(&[]) {
            eprintln!("perfbench: {workload}: {}", e.as_str().unwrap_or("?"));
        }
        let digest = doc.get("digest").and_then(Json::as_str).unwrap_or_default();
        self.digests
            .entry(workload.to_string())
            .or_default()
            .push(digest.to_string());
    }

    /// Every iteration of a workload must produce the same output.
    fn agree(&self) -> bool {
        self.digests.iter().all(|(workload, ds)| {
            let same = ds.windows(2).all(|w| w[0] == w[1]);
            if !same {
                eprintln!("perfbench: {workload}: iterations disagree on output digest {ds:?}");
            }
            same
        })
    }
}

/// Untraced iterations of one workload until the next would overrun
/// `seconds`; returns `(metric, value, unit)` rows, end-to-end metrics
/// first.
fn untraced(
    workload: &str,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let starts = (0..START_SAMPLES)
        .map(|_| spawn_child(&["noop"]).map(|c| c.start_s))
        .collect::<Result<Vec<f64>, String>>()?;
    let began = Instant::now();
    let mut longest = 0.0f64;
    let mut docs = Vec::new();
    loop {
        let t = Instant::now();
        docs.push(run_iteration(workload, seed, false)?);
        longest = longest.max(t.elapsed().as_secs_f64());
        if began.elapsed().as_secs_f64() + longest > seconds {
            break;
        }
    }
    for doc in &docs {
        tally.add(workload, doc);
    }
    println!(
        "{workload}: {} iterations in fresh processes; process start p50 {:.6} s over {START_SAMPLES} spawns",
        docs.len(),
        median(&starts)
    );
    let col = |key: &str| docs.iter().map(|d| num(d, key)).collect::<Vec<f64>>();
    let walls: Vec<String> = col("wall_s").iter().map(|w| format!("{w:.3}")).collect();
    println!("{workload}: wall_s per iteration: {}", walls.join(" "));
    let mut rows = vec![
        (
            "setup_s".to_string(),
            median(&starts) + median(&col("setup_s")),
            "s",
        ),
        ("wall_s".to_string(), median(&col("wall_s")), "s"),
        ("peak_rss_mb".to_string(), median(&col("peak_rss_mb")), "MB"),
    ];
    // Per-operation latencies pooled over iterations (serve's phases).
    for (phase, key) in [("miss", "miss_ms"), ("hit", "hit_ms")] {
        let samples: Vec<f64> = docs
            .iter()
            .filter_map(|d| d.get("samples")?.get(key)?.as_array())
            .flatten()
            .filter_map(Json::as_f64)
            .collect();
        let Some(s) = Summary::of(&samples) else {
            continue;
        };
        println!("{workload}: {phase} latency {}", s.describe("ms"));
        rows.push((format!("{phase}_p50_ms"), s.p50, "ms"));
        if let Some((q, v)) = s.tail {
            rows.push((
                format!("{phase}_{}_ms", stats::percentile_label(q)),
                v,
                "ms",
            ));
        }
        rows.push((
            format!("{phase}_rps"),
            median(&col(&format!("{phase}_rps"))),
            "1/s",
        ));
    }
    Ok(rows)
}

/// One untraced iteration of each named workload, then one traced
/// iteration of every workload. Returns every per-layer metric, with
/// `trace_overhead` (traced ÷ untraced `wall_s`) per named workload —
/// prefixed `<workload>.` when there is more than one.
fn traced(
    names: &[&str],
    seed: u64,
    tally: &mut Tally,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let mut plain = BTreeMap::new();
    for &w in names {
        let doc = run_iteration(w, seed, false)?;
        tally.add(w, &doc);
        plain.insert(w, num(&doc, "wall_s"));
    }
    let mut layers = BTreeMap::new();
    let mut overheads = Vec::new();
    for w in WORKLOADS {
        let doc = run_iteration(w, seed, true)?;
        tally.add(w, &doc);
        if let Some(Json::Obj(fields)) = doc.get("layers") {
            for (name, value) in fields {
                layers.insert(name.clone(), value.as_f64().unwrap_or(f64::NAN));
            }
        }
        if let Some(untraced_wall) = plain.get(w) {
            let name = if names.len() == 1 {
                "trace_overhead".to_string()
            } else {
                format!("{w}.trace_overhead")
            };
            overheads.push((name, num(&doc, "wall_s") / untraced_wall, "ratio"));
        }
    }
    let mut rows = Vec::new();
    for (name, unit) in metrics::per_layer() {
        if name == "trace_overhead" {
            rows.append(&mut overheads);
            continue;
        }
        let value = *layers
            .get(&name)
            .ok_or(format!("traced run produced no {name}"))?;
        rows.push((name, value, unit));
    }
    Ok(rows)
}

/// Runs the named workload (or all three), prints every metric as a
/// line, then the result object. `Ok(())` whenever a result was printed.
fn run(args: &Args) -> Result<(), String> {
    let all = args.workload == "all";
    let names: Vec<&str> = if all {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut tally = Tally::default();
    let mut rows: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        for row in traced(&names, args.seed, &mut tally)? {
            println!("{:<32} {:>16.6} {}", row.0, row.1, row.2);
            rows.push(row);
        }
        println!(
            "fail_ratio {:.6}",
            tally.failed as f64 / tally.attempted.max(1) as f64
        );
    } else {
        for w in names {
            let (attempted, failed) = (tally.attempted, tally.failed);
            for (name, value, unit) in untraced(w, args.seed, args.seconds, &mut tally)? {
                println!("{w}: {name:<14} {value:>14.6} {unit}");
                // A single workload's result holds exactly the end-to-end
                // metrics; the extra serve latencies are printed above.
                // With `all`, names carry the workload so they stay unique.
                if all {
                    rows.push((format!("{w}.{name}"), value, unit));
                } else if metrics::END_TO_END.iter().any(|(n, _)| *n == name) {
                    rows.push((name, value, unit));
                }
            }
            let fail_ratio =
                (tally.failed - failed) as f64 / (tally.attempted - attempted).max(1) as f64;
            println!("{w}: fail_ratio     {fail_ratio:>14.6} ratio");
        }
    }
    if let Some((name, value, _)) = rows
        .iter()
        .find(|(n, v, _)| !stats::valid_name(n) || !v.is_finite())
    {
        return Err(format!("metric {name} = {value} is not reportable"));
    }
    let correct = tally.failed == 0 && tally.agree();
    let metrics = rows
        .iter()
        .map(|(name, value, unit)| {
            let metric = Json::obj(vec![
                ("value", Json::Num(*value)),
                ("unit", Json::str(*unit)),
            ]);
            (name.clone(), metric)
        })
        .collect();
    let doc = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", doc.render());
    Ok(())
}
