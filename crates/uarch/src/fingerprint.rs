//! The digest behind [`crate::core_fingerprint`]: `build.rs` includes this
//! file and compiles the digest in; the crate builds it only for its tests.
//!
//! A cached cell is a pure function of its key text, which carries its
//! inputs, and of the code that decides what it stores: the [`SOURCES`].
//! A source that is missing, or a tree that holds no `.rs` file, is an
//! error, which fails the build: hashing nothing would give every such
//! build one constant namespace, and cells cached by other code would
//! replay.

use std::path::Path;

/// What the digest covers, relative to `crates/`: the simulator and
/// everything it runs (the `src/` trees of `isa`, `compiler`, `uarch`,
/// `core` and `nisec`), the workloads and their inputs, and the one file
/// that simulates, checks and stores a perf cell.
pub const SOURCES: [&str; 7] = [
    "isa/src",
    "compiler/src",
    "uarch/src",
    "core/src",
    "nisec/src",
    "workloads/src",
    "bench/src/cellcache.rs",
];

/// The digest of the [`SOURCES`] under `crates`, as 32 hex digits: two
/// FNV-1a-64 lanes (the hash of `levioso_support::cache::stable_hash_hex`)
/// over every `.rs` file in path order, each framed as its relative path,
/// a NUL, its length and its bytes.
pub fn digest(crates: &Path) -> Result<String, String> {
    let mut files = Vec::new();
    for source in SOURCES {
        let found = files.len();
        collect(crates, source, &mut files)?;
        if files.len() == found {
            return Err(format!("{} holds no .rs file", crates.join(source).display()));
        }
    }
    files.sort();
    let mut lanes = [0xcbf2_9ce4_8422_2325_u64, 0x6c62_272e_07bb_0142];
    for rel in &files {
        let bytes = std::fs::read(crates.join(rel)).map_err(|e| format!("{rel}: {e}"))?;
        let len = (bytes.len() as u64).to_le_bytes();
        let parts: [&[u8]; 4] = [rel.as_bytes(), &[0], &len, &bytes];
        for part in parts {
            for lane in &mut lanes {
                for &b in part {
                    *lane = (*lane ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    Ok(format!("{:016x}{:016x}", lanes[0], lanes[1]))
}

/// Appends the path, relative to `crates`, of `crates/<rel>` if it is a
/// `.rs` file, or of every `.rs` file under it if it is a directory.
fn collect(crates: &Path, rel: &str, files: &mut Vec<String>) -> Result<(), String> {
    let path = crates.join(rel);
    let fail = |e: std::io::Error| format!("{}: {e}", path.display());
    if !std::fs::metadata(&path).map_err(fail)?.is_dir() {
        if rel.ends_with(".rs") {
            files.push(rel.to_string());
        }
        return Ok(());
    }
    for entry in std::fs::read_dir(&path).map_err(fail)? {
        let name = entry.map_err(fail)?.file_name();
        let name = name.to_str().ok_or_else(|| format!("{rel}: non-UTF-8 name {name:?}"))?;
        collect(crates, &format!("{rel}/{name}"), files)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use levioso_support::TempDir;
    use std::fs;

    #[test]
    fn core_fingerprint_is_the_digest_of_the_source_on_disk() {
        let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("crates/");
        let digest = digest(crates).expect("every source exists");
        assert_eq!(crate::core_fingerprint(), format!("core-{digest}"));
    }

    /// Every source under a fresh temp dir: a `lib.rs` in each tree, and
    /// each file source itself.
    fn sources(tag: &str) -> TempDir {
        let root = TempDir::new(std::env::temp_dir(), &format!("levioso-fingerprint-{tag}"));
        for source in SOURCES {
            let mut file = root.path().join(source);
            if !source.ends_with(".rs") {
                file.push("lib.rs");
            }
            fs::create_dir_all(file.parent().unwrap()).unwrap();
            fs::write(&file, format!("//! {source}\n")).unwrap();
        }
        root
    }

    #[test]
    fn an_edit_or_a_rename_moves_the_digest_and_a_revert_restores_it() {
        let root = sources("edit");
        let src = root.path().join("core/src");
        fs::create_dir_all(src.join("sub")).unwrap();
        fs::write(src.join("sub/a.rs"), "fn a() {}\n").unwrap();
        let base = digest(root.path()).unwrap();
        assert_eq!(base.len(), 32);
        assert_eq!(digest(root.path()).unwrap(), base, "deterministic");

        fs::write(src.join("sub/a.rs"), "fn a() { }\n").unwrap();
        assert_ne!(digest(root.path()).unwrap(), base, "a content edit in a nested module");
        fs::write(src.join("sub/a.rs"), "fn a() {}\n").unwrap();
        assert_eq!(digest(root.path()).unwrap(), base, "the revert");

        fs::rename(src.join("sub/a.rs"), src.join("sub/b.rs")).unwrap();
        assert_ne!(digest(root.path()).unwrap(), base, "a renamed file");
        fs::rename(src.join("sub/b.rs"), src.join("sub/a.rs")).unwrap();

        // The workloads tree and the perf cell's file source count too; the
        // rest of bench does not.
        for file in ["workloads/src/lib.rs", "bench/src/cellcache.rs"] {
            let path = root.path().join(file);
            let text = fs::read(&path).unwrap();
            fs::write(&path, "fn edit() {}\n").unwrap();
            assert_ne!(digest(root.path()).unwrap(), base, "an edit to {file}");
            fs::write(&path, text).unwrap();
        }
        fs::write(src.join("notes.md"), "not code").unwrap();
        fs::write(root.path().join("bench/src/lib.rs"), "fn other() {}\n").unwrap();
        assert_eq!(digest(root.path()).unwrap(), base, "only .rs files of the sources count");
    }

    #[test]
    fn a_missing_source_or_a_tree_without_rust_source_is_an_error() {
        let root = sources("missing");
        fs::remove_dir_all(root.path().join("nisec/src")).unwrap();
        let err = digest(root.path()).unwrap_err();
        assert!(err.contains("nisec"), "{err}");

        let root = sources("missing-file");
        fs::remove_file(root.path().join("bench/src/cellcache.rs")).unwrap();
        let err = digest(root.path()).unwrap_err();
        assert!(err.contains("cellcache.rs"), "{err}");

        let root = sources("empty");
        fs::remove_file(root.path().join("isa/src/lib.rs")).unwrap();
        fs::write(root.path().join("isa/src/README.md"), "not code").unwrap();
        let err = digest(root.path()).unwrap_err();
        assert!(err.contains("isa/src holds no .rs file"), "{err}");
    }
}
