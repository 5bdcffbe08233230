//! Crash-safe file writes.
//!
//! `std::fs::write` truncates the destination before writing, so a crash
//! (or a full disk) mid-write leaves a short file that later *parses* —
//! as garbage. For checked-in baselines, versioned reports, and cache
//! entries that other runs trust byte-for-byte, that silent corruption is
//! worse than losing the write. [`write_atomic`] writes to a temporary
//! sibling in the same directory and renames it into place: readers see
//! either the old bytes or the complete new bytes, never a prefix.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic discriminator so concurrent writers in one process never
/// collide on the temp name (the pid alone distinguishes processes).
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A uniquely named temporary file beside its destination: write the
/// bytes to [`path`](TempSibling::path), then [`commit`](TempSibling::commit)
/// renames them into place. Dropping it uncommitted — an error return or a
/// panic — removes the temporary, so the destination is whole or untouched.
pub struct TempSibling {
    tmp: PathBuf,
    dest: PathBuf,
    committed: bool,
}

impl TempSibling {
    /// Names (but does not create) the temporary for `dest`, in `dest`'s
    /// directory so the rename never crosses a filesystem.
    pub fn new(dest: &Path) -> std::io::Result<TempSibling> {
        let file_name = dest.file_name().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("not a writable file path: {}", dest.display()),
            )
        })?;
        let tmp_name = format!(
            ".{}.tmp.{}.{}",
            file_name.to_string_lossy(),
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed),
        );
        Ok(TempSibling {
            tmp: dest.with_file_name(tmp_name),
            dest: dest.to_path_buf(),
            committed: false,
        })
    }

    /// Where to write.
    pub fn path(&self) -> &Path {
        &self.tmp
    }

    /// Renames the temporary over the destination.
    pub fn commit(mut self) -> std::io::Result<()> {
        std::fs::rename(&self.tmp, &self.dest)?;
        self.committed = true;
        Ok(())
    }
}

impl Drop for TempSibling {
    fn drop(&mut self) {
        if !self.committed {
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

/// Writes `contents` to `path` atomically: the bytes land in a
/// [`TempSibling`], are flushed, and are renamed over `path`. On any error
/// the temporary file is removed and `path` is left untouched.
pub fn write_atomic(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let tmp = TempSibling::new(path)?;
    let mut f = File::create(tmp.path())?;
    f.write_all(contents)?;
    // Push the bytes to the device before the rename makes them
    // visible; a rename of an unflushed file can still surface a
    // truncated entry after power loss.
    f.sync_all()?;
    tmp.commit()
}

/// Streams an artifact into `path` whole or not at all: `write` fills a
/// buffered [`TempSibling`], which is renamed over `path` only once
/// `write` and the flush succeed. No `fsync`: for files a rerun
/// regenerates (traces, metrics), whole-or-absent is enough.
pub fn write_replacing(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let tmp = TempSibling::new(path)?;
    let mut w = BufWriter::new(File::create(tmp.path())?);
    write(&mut w)?;
    w.flush()?;
    drop(w);
    tmp.commit()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "aputil_fsio_{tag}_{}_{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn tmp_siblings(d: &Path) -> Vec<std::ffi::OsString> {
        std::fs::read_dir(d)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains(".tmp."))
            .collect()
    }

    #[test]
    fn writes_and_replaces() {
        let d = temp_dir("basic");
        let p = d.join("out.json");
        write_atomic(&p, b"first").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"first");
        write_atomic(&p, b"second, longer contents").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"second, longer contents");
        // No temp droppings left behind.
        assert!(tmp_siblings(&d).is_empty(), "{:?}", tmp_siblings(&d));
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn failure_leaves_the_old_file_intact() {
        let d = temp_dir("fail");
        let p = d.join("keep.json");
        write_atomic(&p, b"precious").unwrap();
        // Writing *through* an existing file as if it were a directory
        // must fail without touching the original.
        let bad = p.join("child.json");
        assert!(write_atomic(&bad, b"x").is_err());
        assert_eq!(std::fs::read(&p).unwrap(), b"precious");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn a_write_that_fails_mid_stream_leaves_the_destination_whole() {
        let d = temp_dir("stream");
        let p = d.join("trace.json");
        write_replacing(&p, |w| w.write_all(b"{\"old\":1}")).unwrap();
        let failed = write_replacing(&p, |w| {
            // Far past the buffer, so part of it reached the temporary.
            w.write_all(&[b'x'; 1 << 16])?;
            Err(std::io::Error::other("disk full"))
        });
        assert_eq!(failed.unwrap_err().to_string(), "disk full");
        assert_eq!(std::fs::read(&p).unwrap(), b"{\"old\":1}");
        assert!(tmp_siblings(&d).is_empty(), "{:?}", tmp_siblings(&d));
        write_replacing(&p, |w| w.write_all(b"new")).unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"new");
        assert!(tmp_siblings(&d).is_empty());
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn an_uncommitted_temporary_is_removed_even_by_a_panic() {
        let d = temp_dir("drop");
        let dest = d.join("out.bin");
        let caught = std::panic::catch_unwind(|| {
            let tmp = TempSibling::new(&dest).unwrap();
            std::fs::write(tmp.path(), b"half").unwrap();
            assert!(tmp.path().exists());
            panic!("writer died");
        });
        assert!(caught.is_err());
        assert_eq!(std::fs::read_dir(&d).unwrap().count(), 0, "nothing left");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn bare_relative_filename_works() {
        let d = temp_dir("cwd");
        let p = d.join("bare.txt");
        // Exercise the no-parent branch via a path with an empty parent.
        write_atomic(Path::new(&p), b"ok").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"ok");
        std::fs::remove_dir_all(&d).unwrap();
    }
}
