//! The digest behind [`crate::core_fingerprint`]: `build.rs` includes this
//! file and compiles the digest in; the crate builds it only for its tests.
//!
//! A cached cell is a pure function of its key text, which carries its
//! inputs, and of the code that simulates it: the `src/` trees of the
//! [`TREES`]. A tree that is missing or holds no `.rs` file is an error,
//! which fails the build: hashing nothing would give every such build one
//! constant namespace, and cells cached by another simulator would replay.

use std::path::Path;

/// The crates, relative to `crates/`, whose `src/` trees the digest covers.
pub const TREES: [&str; 5] = ["isa", "compiler", "uarch", "core", "nisec"];

/// The digest of the [`TREES`] under `crates`, as 32 hex digits: two
/// FNV-1a-64 lanes (the hash of `levioso_support::cache::stable_hash_hex`)
/// over every `.rs` file in path order, each framed as its relative path,
/// a NUL, its length and its bytes.
pub fn digest(crates: &Path) -> Result<String, String> {
    let mut files = Vec::new();
    for tree in TREES {
        let found = files.len();
        collect(crates, &format!("{tree}/src"), &mut files)?;
        if files.len() == found {
            return Err(format!("{}/src holds no .rs file", crates.join(tree).display()));
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

/// Appends the path, relative to `crates`, of every `.rs` file under
/// `crates/<rel>`.
fn collect(crates: &Path, rel: &str, files: &mut Vec<String>) -> Result<(), String> {
    let dir = crates.join(rel);
    let fail = |e: std::io::Error| format!("{}: {e}", dir.display());
    for entry in std::fs::read_dir(&dir).map_err(fail)? {
        let entry = entry.map_err(fail)?;
        let name = entry.file_name();
        let name = name.to_str().ok_or_else(|| format!("{rel}: non-UTF-8 name {name:?}"))?;
        let path = format!("{rel}/{name}");
        if entry.file_type().map_err(fail)?.is_dir() {
            collect(crates, &path, files)?;
        } else if name.ends_with(".rs") {
            files.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    #[test]
    fn core_fingerprint_is_the_digest_of_the_source_on_disk() {
        let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("crates/");
        let digest = digest(crates).expect("the five source trees exist");
        assert_eq!(crate::core_fingerprint(), format!("core-{digest}"));
    }

    /// The five trees under a fresh temp dir, one `lib.rs` each.
    fn trees(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("levioso-fingerprint-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        for tree in TREES {
            fs::create_dir_all(root.join(tree).join("src")).unwrap();
            fs::write(root.join(tree).join("src/lib.rs"), format!("//! {tree}\n")).unwrap();
        }
        root
    }

    #[test]
    fn an_edit_or_a_rename_moves_the_digest_and_a_revert_restores_it() {
        let root = trees("edit");
        let src = root.join("core/src");
        fs::create_dir_all(src.join("sub")).unwrap();
        fs::write(src.join("sub/a.rs"), "fn a() {}\n").unwrap();
        let base = digest(&root).unwrap();
        assert_eq!(base.len(), 32);
        assert_eq!(digest(&root).unwrap(), base, "deterministic");

        fs::write(src.join("sub/a.rs"), "fn a() { }\n").unwrap();
        assert_ne!(digest(&root).unwrap(), base, "a content edit in a nested module");
        fs::write(src.join("sub/a.rs"), "fn a() {}\n").unwrap();
        assert_eq!(digest(&root).unwrap(), base, "the revert");

        fs::rename(src.join("sub/a.rs"), src.join("sub/b.rs")).unwrap();
        assert_ne!(digest(&root).unwrap(), base, "a renamed file");
        fs::rename(src.join("sub/b.rs"), src.join("sub/a.rs")).unwrap();

        fs::write(src.join("notes.md"), "not code").unwrap();
        assert_eq!(digest(&root).unwrap(), base, "only .rs files count");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_missing_tree_or_one_without_rust_source_is_an_error() {
        let root = trees("missing");
        fs::remove_dir_all(root.join("nisec/src")).unwrap();
        let err = digest(&root).unwrap_err();
        assert!(err.contains("nisec"), "{err}");
        fs::remove_dir_all(&root).unwrap();

        let root = trees("empty");
        fs::remove_file(root.join("isa/src/lib.rs")).unwrap();
        fs::write(root.join("isa/src/README.md"), "not code").unwrap();
        let err = digest(&root).unwrap_err();
        assert!(err.contains("isa/src holds no .rs file"), "{err}");
        fs::remove_dir_all(&root).unwrap();
    }
}
