//! Pins the bytes of the four `nvp-lint --json` artifacts and of
//! `nvp-lint`'s stdout in every mode.
//!
//! The `--energy` and `--checkpoint` certificates print the platform
//! budget (`capacity_nj`, `reserve_safety`) and every `usable_nj`, so a
//! change to the platform constants or to the lint's arithmetic shows up
//! here even when the artifact still parses. Each artifact comes from a
//! verbose run, as the CI lint jobs make it. The text tables are pinned
//! separately, verbose and not, so a change to what a mode prints fails
//! too, not only a change to what it writes.
//!
//! A digest change means an output changed; if that is intended, rerun
//! the test and copy the printed digest.

use std::path::{Path, PathBuf};
use std::process::Command;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// (digest, length in bytes) of some output.
type Pin = (u64, usize);

/// Per mode flag: the `-v --json` artifact, the `-v --json` stdout (its
/// `report written to PATH` line dropped, since PATH is a temp path),
/// and the stdout of a plain run (no `-v`, no `--json`).
const PINS: [(Option<&str>, Pin, Pin, Pin); 4] = [
    (
        None,
        (0x0cbb_d52f_ed78_758d, 3_380),
        (0xfab4_52ce_b717_ec62, 1_902),
        (0x1fa1_36d4_28c3_d3fa, 1_091),
    ),
    (
        Some("--bitwidth"),
        (0x76c1_f798_a2ef_0ba9, 9_028),
        (0x6df9_d51b_4128_9195, 4_256),
        (0x0c63_86e6_eb15_a1cb, 4_255),
    ),
    (
        Some("--energy"),
        (0xd501_24a9_7ce0_d07d, 78_890),
        (0x9d67_b35f_039d_014a, 5_381),
        (0x4af2_cfb9_e3d5_0879, 3_974),
    ),
    (
        Some("--checkpoint"),
        (0x4cb4_ba34_47b6_53b3, 34_792),
        (0x3876_5d06_e063_c42a, 8_320),
        (0x1045_7ae4_d7ab_4333, 6_998),
    ),
];

/// Runs `nvp-lint` with `args`, asserting exit 0; returns its stdout.
fn lint(name: &str, args: &[&str], json: Option<&Path>) -> Vec<u8> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_nvp-lint"));
    cmd.args(args);
    if let Some(path) = json {
        cmd.arg("--json").arg(path);
    }
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "nvp-lint {name} exited {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Compares `bytes` against `pin`, recording a mismatch in `failures`.
fn check(failures: &mut Vec<String>, what: &str, bytes: &[u8], (digest, len): Pin) {
    let got = fnv1a64(bytes);
    if (got, bytes.len()) != (digest, len) {
        failures.push(format!(
            "{what}: digest {got:#018x} ({} B), pinned {digest:#018x} ({len} B)",
            bytes.len()
        ));
    }
}

#[test]
fn lint_json_artifacts_are_pinned() {
    let dir = std::env::temp_dir().join(format!("nvp-lint-artifacts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut failures = Vec::new();
    for (mode, artifact, verbose_stdout, plain_stdout) in PINS {
        let name = mode.unwrap_or("--default").trim_start_matches('-');
        let path: PathBuf = dir.join(format!("{name}.json"));
        let args: Vec<&str> = std::iter::once("-v").chain(mode).collect();
        let stdout = lint(name, &args, Some(&path));
        let written = format!("report written to {}\n", path.display());
        let text = String::from_utf8(stdout).unwrap();
        assert!(text.contains(&written), "{name}: no `{written}` line");
        let text = text.replacen(&written, "", 1);
        check(
            &mut failures,
            &format!("{name} -v stdout"),
            text.as_bytes(),
            verbose_stdout,
        );
        check(
            &mut failures,
            &format!("{name} artifact"),
            &std::fs::read(&path).unwrap(),
            artifact,
        );
        let plain: Vec<&str> = mode.into_iter().collect();
        let stdout = lint(name, &plain, None);
        check(
            &mut failures,
            &format!("{name} stdout"),
            &stdout,
            plain_stdout,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        failures.is_empty(),
        "lint outputs changed:\n{}",
        failures.join("\n")
    );
}
