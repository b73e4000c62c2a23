//! `aion-fsck` end to end: the binary's exit status and output on a
//! generated database, on one whose snapshot file, log or lineage file was
//! damaged after it was written, and on `gen` arguments it must refuse.

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
    for level in ["quick", "full"] {
        let out = fsck(&["check", db.to_str().unwrap(), "--level", level]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{level}:\n{stdout}");
        assert!(stdout.contains(": clean\n"), "{level}:\n{stdout}");
        // The one snapshot file `gen` writes, by what it holds: its parts
        // add up to its length, and it is the newest, holding every run it
        // names inline.
        let line = stdout
            .lines()
            .find_map(|l| l.strip_prefix("snapshot bytes: 1 files, "))
            .unwrap_or_else(|| panic!("{level}:\n{stdout}"));
        let numbers: Vec<u64> = line
            .split(|c: char| !c.is_ascii_digit())
            .filter_map(|n| n.parse().ok())
            .collect();
        let [total, nodes, patches, 0, rels, manifests, newest, runs, 0] = numbers[..] else {
            panic!("{line}");
        };
        assert!(nodes > 0 && rels > 0 && manifests > 0 && runs > 0, "{line}");
        assert_eq!(total, nodes + patches + rels + manifests, "{line}");
        assert_eq!(newest, manifests, "{line}");
    }
}

#[test]
fn flipped_neighbour_flag_is_caught_by_full_only() {
    let dir = tempdir().unwrap();
    let db = dir.path().join("db");
    generate(&db);
    // Raw slotted-page layout (`btree::layout`): a leaf page has type byte
    // 1, ncells (u16 LE) at 2 and its slot directory at 16; a leaf cell
    // starts `varint head`, `head = (vlen << 1 | overflow) << 5 | slen`
    // for a suffix under 31 bytes, then the key's suffix and the value.
    // Only a neighbour entry that records a deletion has a one-byte value,
    // its deleted flag `1`: a one-byte head `2 << 5 | slen`. Clearing its
    // value length to 0 leaves a well-formed empty value, an addition.
    let (page_size, path) = (pagestore::PAGE_SIZE, db.join("lineage.db"));
    let vfs = TimeStoreConfig::default().vfs;
    let mut file = vfs.read(&path).unwrap();
    let u16_at = |b: &[u8], off: usize| usize::from(u16::from_le_bytes([b[off], b[off + 1]]));
    let field = (1..file.len() / page_size)
        .map(|p| p * page_size)
        .filter(|&base| file[base] == 1)
        .flat_map(|base| (0..u16_at(&file, base + 2)).map(move |i| (base, i)))
        .map(|(base, i)| base + u16_at(&file, base + 16 + i * 2))
        .find(|&cell| {
            let slen = usize::from(file[cell] & 31);
            file[cell] >> 5 == 2 && slen < 31 && file[cell + 1 + slen] == 1
        })
        .expect("a neighbour entry that records a deletion");
    file[field] &= 31;
    vfs.write(&path, &file).unwrap();

    let out = fsck(&["check", db.to_str().unwrap(), "--level", "quick"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    let out = fsck(&["check", db.to_str().unwrap(), "--level", "full"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    let line = stdout
        .lines()
        .find(|l| l.contains("cross-store differential: "))
        .unwrap_or_else(|| panic!("no differential line:\n{stdout}"));
    assert!(
        ["out-neighbours key", "in-neighbours key"]
            .iter()
            .any(|index| line.contains(index))
            && line.contains("the store holds [], its rebuild")
            && line.ends_with("holds [1]"),
        "{line}"
    );
    assert!(!vfs.exists(&db.join("lineage.db.rebuild")));
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
