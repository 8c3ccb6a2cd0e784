//! The `figures` CLI refuses an id it does not know before it runs
//! anything, so a script that names a removed figure fails.

use std::process::Command;

#[test]
fn an_unknown_id_exits_2_before_running_anything() {
    // `abl07` was the adaptive-admission ablation; it no longer exists.
    // `fig10` is valid, but nothing runs: the bad id is found first.
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["fig10", "abl07"])
        .output()
        .expect("spawn the figures binary");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "ran something: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"abl07\""), "{stderr}");
}
