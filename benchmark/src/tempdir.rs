//! Self-cleaning scratch directories inside the benchmark's own `out/`.

use std::path::{Path, PathBuf};

/// The benchmark's directory: where `cargo run` says the manifest is, or
/// `benchmark/` under the current directory when run as a bare binary.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmark"))
}

/// Where trace files, detail files and scratch stores go (git-ignored).
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// A directory unique to this process and label, removed on drop — which
/// also runs while a panic unwinds.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(label: &str) -> std::io::Result<TempDir> {
        let path = out_dir().join(format!("tmp-{}-{label}", std::process::id()));
        // A previous process with this pid may have been killed mid-run.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

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
    fn removed_on_drop_and_on_panic() {
        let kept = {
            let dir = TempDir::new("unit-drop").unwrap();
            assert!(dir.path().is_dir());
            dir.path().to_path_buf()
        };
        assert!(!kept.exists());

        let seen = std::sync::Mutex::new(None);
        let result = std::panic::catch_unwind(|| {
            let dir = TempDir::new("unit-panic").unwrap();
            *seen.lock().unwrap() = Some(dir.path().to_path_buf());
            panic!("mid-run failure");
        });
        assert!(result.is_err());
        let path = seen.lock().unwrap().take().unwrap();
        assert!(!path.exists());
    }
}
