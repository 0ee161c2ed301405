//! Crash-safe artifact writes.
//!
//! Every artifact emitter in the workspace (scenario reports, metrics
//! JSONL, Chrome traces, fuzz repros, campaign checkpoints at rotation
//! time) funnels through [`atomic_write`]: the bytes land in a
//! temporary file in the destination directory and are `rename`d into
//! place, so a process killed mid-write can never leave a truncated
//! artifact under the final name — readers see either the old complete
//! file or the new complete file, nothing in between. A destination
//! that exists and is not a regular file (`--out /dev/null`, a FIFO) is
//! written in place instead: renaming over it would replace the device
//! or pipe with a regular file.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-process sequence for temporary names, so threads writing the
/// same `path` at once never share (and steal) one temporary file.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `bytes` to `path` atomically: create parent directories,
/// write `path` + a unique `.tmp-<pid>-<seq>` suffix in the same directory
/// (same filesystem, so the rename is atomic), flush, then rename over
/// `path`. On error the temporary file is removed. An existing
/// non-regular `path` (device, FIFO) is written directly.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if std::fs::metadata(path).is_ok_and(|m| !m.is_file()) {
        return std::fs::write(path, bytes);
    }
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

    #[cfg(unix)]
    #[test]
    fn fifo_destination_is_written_through_not_replaced() {
        use std::os::unix::fs::FileTypeExt;
        let dir = std::env::temp_dir().join(format!("moon-fsio-fifo-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fifo = dir.join("pipe");
        let made = std::process::Command::new("mkfifo")
            .arg(&fifo)
            .status()
            .expect("run mkfifo");
        assert!(made.success(), "mkfifo failed");
        // Opening a FIFO for reading blocks until a writer opens it, so
        // the reader runs on its own thread.
        let reader = {
            let fifo = fifo.clone();
            std::thread::spawn(move || std::fs::read(fifo).unwrap())
        };
        atomic_write(&fifo, b"through the pipe").unwrap();
        let still_fifo = std::fs::symlink_metadata(&fifo)
            .unwrap()
            .file_type()
            .is_fifo();
        assert!(still_fifo, "the FIFO was replaced by a regular file");
        assert_eq!(reader.join().unwrap(), b"through the pipe");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
