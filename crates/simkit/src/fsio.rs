//! Crash-safe artifact writes.
//!
//! Every artifact emitter in the workspace (scenario reports, metrics
//! JSONL, Chrome traces, fuzz repros, campaign checkpoints at rotation
//! time) funnels through [`atomic_write`]: the bytes land in a
//! temporary file in the destination directory and are `rename`d into
//! place, so a process killed mid-write can never leave a truncated
//! artifact under the final name — readers see either the old complete
//! file or the new complete file, nothing in between.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-process sequence for temporary names, so threads writing the
/// same `path` at once never share (and steal) one temporary file.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `bytes` to `path` atomically: create parent directories,
/// write `path` + a unique `.tmp-<pid>-<seq>` suffix in the same directory
/// (same filesystem, so the rename is atomic), flush, then rename over
/// `path`. On error the temporary file is removed.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp-{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.flush()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_replaces() {
        let dir = std::env::temp_dir().join(format!("moon-fsio-{}", std::process::id()));
        let path = dir.join("nested/artifact.json");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer body").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer body");
        // No temporary litter left behind.
        let names: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from("artifact.json")]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_of_one_path_all_succeed() {
        let dir = std::env::temp_dir().join(format!("moon-fsio-race-{}", std::process::id()));
        let path = dir.join("shared.trace");
        std::thread::scope(|s| {
            for t in 0..8u8 {
                let path = &path;
                s.spawn(move || {
                    for _ in 0..50 {
                        atomic_write(path, &[t; 64]).unwrap();
                    }
                });
            }
        });
        let body = std::fs::read(&path).unwrap();
        assert_eq!(body.len(), 64);
        assert!(body.iter().all(|&b| b == body[0]));
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from("shared.trace")]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
