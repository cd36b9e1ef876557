//! `reproduce` accepts only the selectors it knows: a typo or a removed
//! table is a usage error, not an empty run that exits 0.

use std::process::Command;

fn reproduce(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce")).args(args).output().expect("run reproduce")
}

#[test]
fn unknown_selector_is_a_usage_error_naming_the_known_ones() {
    for args in [&["widearea"][..], &["tabel3", "quick"][..]] {
        let out = reproduce(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("table3"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn known_selector_runs_only_that_table() {
    let out = reproduce(&["quick", "figure1"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[figure1]"), "{stdout}");
    assert!(!stdout.contains("[table1]"), "{stdout}");
}
