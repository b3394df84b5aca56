//! Test support: temporary directories that clean up after themselves.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh, empty directory under the system temp dir, removed with
/// everything in it when dropped — except while the thread panics, so a
/// failing test leaves its files behind for inspection. It derefs to its
/// [`Path`].
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `<temp>/<prefix>-<pid>-<n>`, where `n` numbers this
    /// process's temp dirs, replacing any leftover of that name.
    ///
    /// # Panics
    ///
    /// Panics when the directory cannot be created.
    pub fn new(prefix: &str) -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("{prefix}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}
