//! Golden-output regression test for the PUF figure: fig11's stdout
//! must match the checked-in snapshot.
//!
//! fig11 exercises the controller's hot paths — cached compiled
//! programs, the live full-row write (each challenge row is re-written
//! per evaluation) and the counter-keyed noise engine — so any
//! deviation from the replay-everything semantics shows up as a diff
//! here.
//!
//! Regenerate (only for an intentional, understood behavior change):
//!
//! ```text
//! cargo build --release -p fracdram-experiments
//! cargo run --release -p fracdram-experiments --bin regen-goldens
//! ```

use std::process::Command;

#[test]
fn fig11_puf_slice_matches_pre_cache_snapshot() {
    let expected = include_str!("golden/fig11_small.txt");
    let output = Command::new(env!("CARGO_BIN_EXE_fig11_puf_hd"))
        .args(["--challenges", "8", "--jobs", "1"])
        .output()
        .expect("fig11_puf_hd binary runs");
    assert!(
        output.status.success(),
        "fig11_puf_hd failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    assert_eq!(
        stdout, expected,
        "fig11 stdout drifted from the pre-cache golden snapshot"
    );
}
