//! Scratch directories for tests that remove themselves.

use std::path::{Path, PathBuf};

/// An empty directory that is removed, with everything in it, when the
/// value drops: at the end of the test that made it, also when the test
/// fails, since a panic unwinds through the drop.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates the empty directory `<parent>/<name>-<pid>`, first removing
    /// whatever a killed earlier run left there. Integration tests pass
    /// `env!("CARGO_TARGET_TMPDIR")`, unit tests `std::env::temp_dir()`.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    pub fn new(parent: impl AsRef<Path>, name: &str) -> TempDir {
        let dir = parent.as_ref().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        TempDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failing_test_leaves_no_directory() {
        let mut made = PathBuf::new();
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let dir = TempDir::new(std::env::temp_dir(), "levioso-tempdir-test");
            std::fs::create_dir(dir.path().join("sub")).unwrap();
            made = dir.path().to_path_buf();
            panic!("the test fails");
        }));
        assert!(failed.is_err() && !made.as_os_str().is_empty());
        assert!(!made.exists(), "{} outlived its test", made.display());
    }
}
