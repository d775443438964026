//! The `repro` binary's flags, end to end.

use std::process::Command;

fn repro(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("tables are UTF-8")
}

/// Byte offset of the last table's `=== title ===` line.
fn last_table_start(text: &str) -> usize {
    text.rfind("=== ").expect("at least one table")
}

#[test]
fn all_with_ablate_ends_with_the_ablated_fig28_table() {
    let plain = repro(&["all", "--quick", "--jobs", "2"]);
    let ablated = repro(&["all", "--quick", "--jobs", "2", "--ablate"]);
    let (head, last) = ablated.split_at(last_table_start(&ablated));
    let header = last.lines().nth(1).expect("column header line");
    assert!(
        last.starts_with("=== Figure 28") && header.contains("backup-only"),
        "last table of `all --ablate` lacks the ablation columns:\n{last}"
    );
    assert!(header.contains("simd-only"), "{header}");
    // Everything before Figure 28 is the plain run's output, and the plain
    // run's Figure 28 has no ablation columns.
    let (plain_head, plain_last) = plain.split_at(last_table_start(&plain));
    assert_eq!(head, plain_head);
    assert!(plain_last.starts_with("=== Figure 28"));
    assert!(!plain_last.contains("backup-only"), "{plain_last}");
}

#[test]
fn an_alias_runs_its_figure() {
    assert_eq!(repro(&["fig11", "--quick"]), repro(&["fig12", "--quick"]));
}
