//! `nvp-serve` CLI: `serve` runs the HTTP service.

use nvp_serve::server::{Server, ServerConfig};
use nvp_serve::signal;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("--help") | Some("-h") | None => {
            print_usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown subcommand '{other}'");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "nvp-serve: HTTP service over the incidental-computing simulator\n\
         \n\
         USAGE:\n\
         \u{20}   nvp-serve serve [--port P] [--jobs N] [--queue N] [--cache N] [--deadline-ms MS]\n\
         \n\
         `serve` prints `listening on 127.0.0.1:PORT` (ephemeral port under --port 0)\n\
         and drains cleanly on SIGTERM or POST /shutdown."
    );
}

/// Pulls `--flag value` out of an argument list, complaining on
/// unparseable values.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(pos) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let value = args
        .get(pos + 1)
        .ok_or_else(|| format!("{name} needs a value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("{name}: cannot parse '{value}'"))
}

/// The most simulation workers `--jobs` may ask for (`nvp-fleet`'s bound).
const MAX_JOBS: usize = 256;

/// Parses `serve`'s flags into a config. Starts nothing: the worker pool
/// is built later, by `Server::bind`.
fn parse_serve(args: &[String]) -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
    if let Some(port) = flag::<u16>(args, "--port")? {
        config.port = port;
    }
    if let Some(jobs) = flag::<String>(args, "--jobs")? {
        config.workers = jobs
            .parse()
            .ok()
            .filter(|j| (1..=MAX_JOBS).contains(j))
            .ok_or_else(|| format!("--jobs '{jobs}' must be 1..={MAX_JOBS}"))?;
    }
    if let Some(queue) = positive::<usize>(args, "--queue")? {
        config.queue = queue;
    }
    if let Some(cache) = positive::<usize>(args, "--cache")? {
        config.cache = cache;
    }
    if let Some(ms) = positive::<u64>(args, "--deadline-ms")? {
        config.read_deadline = Duration::from_millis(ms);
    }
    Ok(config)
}

/// [`flag`] for a count that must be at least 1. No upper bound: nothing
/// these flags size is allocated up front.
fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(
    args: &[String],
    name: &str,
) -> Result<Option<T>, String> {
    match flag::<T>(args, name)? {
        Some(v) if v < T::from(1) => Err(format!("{name} must be at least 1")),
        v => Ok(v),
    }
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let config = match parse_serve(args) {
        Ok(config) => config,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    signal::install();
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The ephemeral-port contract: scripts parse this exact line.
    println!("listening on {}", server.addr());
    server.run();
    eprintln!("drained, exiting");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs(value: &str) -> Result<usize, String> {
        let args = ["--jobs", value].map(String::from);
        parse_serve(&args).map(|config| config.workers)
    }

    #[test]
    fn jobs_must_be_within_one_to_256() {
        assert_eq!(jobs("1"), Ok(1));
        assert_eq!(jobs("256"), Ok(256));
        for bad in ["0", "257", "1000000", "-1", "x"] {
            assert_eq!(jobs(bad), Err(format!("--jobs '{bad}' must be 1..=256")));
        }
    }

    #[test]
    fn queue_cache_and_deadline_must_be_at_least_one() {
        for name in ["--queue", "--cache", "--deadline-ms"] {
            let parse = |value: &str| parse_serve(&[name, value].map(String::from));
            assert_eq!(
                parse("0").map(|_| ()),
                Err(format!("{name} must be at least 1"))
            );
            let config = parse("1").expect("1 is accepted");
            let got = match name {
                "--queue" => config.queue as u64,
                "--cache" => config.cache as u64,
                _ => config.read_deadline.as_millis() as u64,
            };
            assert_eq!(got, 1, "{name} 1");
        }
    }
}
