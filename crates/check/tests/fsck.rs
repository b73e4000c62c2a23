//! `aion-fsck` end to end: the binary's exit status and output on a
//! generated database, on one whose snapshot file or log was damaged after
//! it was written, and on `gen` arguments it must refuse.

use std::path::Path;
use std::process::{Command, Output};
use tempfile::tempdir;
use timestore::TimeStoreConfig;

fn fsck(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_aion-fsck"))
        .args(args)
        .output()
        .unwrap()
}

fn generate(db: &Path) {
    let out = fsck(&[
        "gen",
        db.to_str().unwrap(),
        "--scale",
        "0.001",
        "--seed",
        "42",
    ]);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn generated_database_is_clean_at_every_level() {
    let dir = tempdir().unwrap();
    let db = dir.path().join("db");
    generate(&db);
    for level in ["quick", "deep", "full"] {
        let out = fsck(&["check", db.to_str().unwrap(), "--level", level]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{level}:\n{stdout}");
        assert!(stdout.contains(": clean\n"), "{level}:\n{stdout}");
    }
}

#[test]
fn damaged_snapshot_file_is_reported_although_open_deletes_it() {
    let dir = tempdir().unwrap();
    let db = dir.path().join("db");
    generate(&db);
    // The seam the stores write through, reached without a dependency of
    // its own.
    let vfs = TimeStoreConfig::default().vfs;
    let snapdir = db.join("timestore").join("snapshots");
    let files = vfs.read_dir(&snapdir).unwrap();
    let [(name, _)] = files.as_slice() else {
        panic!("one snapshot file expected: {files:?}");
    };
    let path = snapdir.join(name);
    let mut bytes = vfs.read(&path).unwrap();
    for b in &mut bytes[1000..1004] {
        *b ^= 0xff;
    }
    vfs.write(&path, &bytes).unwrap();

    let out = fsck(&["check", db.to_str().unwrap(), "--level", "full"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains(&format!(
            "timestore repair/snapshot: deleted snapshot file {name}"
        )),
        "{stdout}"
    );
    // The repair is made once: the next check of the same copy is clean.
    let out = fsck(&["check", db.to_str().unwrap(), "--level", "full"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
}

#[test]
fn damaged_log_is_refused_below_the_durable_end_and_truncated_without_it() {
    let dir = tempdir().unwrap();
    let db = dir.path().join("db");
    generate(&db);
    let vfs = TimeStoreConfig::default().vfs;
    let log = db.join("timestore").join("timestore.log");
    let synced = vfs.read(&log).unwrap();

    // Mid-log damage below the recorded durable end: open refuses, and the
    // log keeps its length.
    let mut bytes = synced.clone();
    let mid = bytes.len() / 2;
    for b in &mut bytes[mid..mid + 4] {
        *b ^= 0xff;
    }
    vfs.write(&log, &bytes).unwrap();
    let out = fsck(&["check", db.to_str().unwrap(), "--level", "full"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(stderr.contains("durable end"), "{stderr}");
    assert_eq!(vfs.read(&log).unwrap().len(), bytes.len());

    // Without the durable-end record, bytes past the last frame are a
    // torn tail: truncated and reported once.
    vfs.write(&log, &synced).unwrap();
    vfs.remove_file(&db.join("timestore").join("timestore.log.durable"))
        .unwrap();
    let mut torn = synced.clone();
    torn.extend_from_slice(&[9, 0, 0, 0, 1, 2]);
    vfs.write(&log, &torn).unwrap();
    let out = fsck(&["check", db.to_str().unwrap(), "--level", "full"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("timestore repair/log-tail"), "{stdout}");
    let out = fsck(&["check", db.to_str().unwrap(), "--level", "full"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert_eq!(vfs.read(&log).unwrap(), synced);
}

#[test]
fn gen_refuses_a_scale_that_is_not_a_positive_number() {
    let dir = tempdir().unwrap();
    for scale in ["inf", "0", "-1"] {
        let db = dir.path().join(format!("db{scale}"));
        let out = fsck(&["gen", db.to_str().unwrap(), "--scale", scale]);
        assert_eq!(out.status.code(), Some(2), "--scale {scale}: {out:?}");
    }
}
