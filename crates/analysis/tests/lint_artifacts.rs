//! Pins the bytes of the four `nvp-lint --json` artifacts.
//!
//! The `--energy` and `--checkpoint` certificates print the platform
//! budget (`capacity_nj`, `reserve_safety`) and every `usable_nj`, so a
//! change to the platform constants or to the lint's arithmetic shows up
//! here even when the artifact still parses. Each mode runs verbose, as
//! the CI lint jobs do.
//!
//! A digest change means an artifact changed; if that is intended, rerun
//! the test and copy the printed digest.

use std::path::PathBuf;
use std::process::Command;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// (mode flag, artifact digest, artifact length in bytes).
const ARTIFACTS: [(Option<&str>, u64, usize); 4] = [
    (None, 0x0cbb_d52f_ed78_758d, 3_380),
    (Some("--bitwidth"), 0x76c1_f798_a2ef_0ba9, 9_028),
    (Some("--energy"), 0xd501_24a9_7ce0_d07d, 78_890),
    (Some("--checkpoint"), 0x4cb4_ba34_47b6_53b3, 34_792),
];

#[test]
fn lint_json_artifacts_are_pinned() {
    let dir = std::env::temp_dir().join(format!("nvp-lint-artifacts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut failures = Vec::new();
    for (mode, want_digest, want_len) in ARTIFACTS {
        let name = mode.unwrap_or("--default").trim_start_matches('-');
        let path: PathBuf = dir.join(format!("{name}.json"));
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_nvp-lint"));
        cmd.arg("-v").args(mode).arg("--json").arg(&path);
        let out = cmd.output().unwrap();
        assert!(
            out.status.success(),
            "nvp-lint {name} exited {}:\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let bytes = std::fs::read(&path).unwrap();
        let digest = fnv1a64(&bytes);
        if (digest, bytes.len()) != (want_digest, want_len) {
            failures.push(format!(
                "{name}: digest {digest:#018x} ({} B), pinned {want_digest:#018x} ({want_len} B)",
                bytes.len()
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        failures.is_empty(),
        "lint artifacts changed:\n{}",
        failures.join("\n")
    );
}
