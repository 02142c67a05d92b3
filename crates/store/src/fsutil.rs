//! Filesystem primitives the durability story rests on: atomic file
//! publication and explicit fsync points.
//!
//! A file is *published* by writing to a temporary sibling, fsyncing it,
//! renaming it into place, and fsyncing the directory so the rename itself is
//! durable. Readers therefore never observe a partially written snapshot or
//! manifest — a crash leaves either the old file or the new one.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::error::StoreError;

/// Extension of the temporary sibling a file is written to before its rename.
const TMP_EXTENSION: &str = "tmp";

/// Fsyncs `dir` so a completed rename/create/remove within it is durable.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    let d = File::open(dir).map_err(|e| StoreError::io_at(dir, e))?;
    d.sync_all().map_err(|e| StoreError::io_at(dir, e))
}

/// Atomically publishes `bytes` at `path` (tmp + fsync + rename + dir fsync).
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = write_tmp(path, bytes)?;
    commit_tmp(&tmp, path)
}

/// First half of [`write_atomic`]: `bytes` written and fsynced into the
/// `.tmp` sibling of `path`, which is returned. Nothing is visible at
/// `path` yet; a crash here leaves an orphan for [`remove_stale_tmp`].
pub(crate) fn write_tmp(path: &Path, bytes: &[u8]) -> Result<PathBuf, StoreError> {
    let tmp = path.with_extension(TMP_EXTENSION);
    let mut f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)
        .map_err(|e| StoreError::io_at(&tmp, e))?;
    f.write_all(bytes).map_err(|e| StoreError::io_at(&tmp, e))?;
    f.sync_all().map_err(|e| StoreError::io_at(&tmp, e))?;
    Ok(tmp)
}

/// Second half of [`write_atomic`]: renames `tmp` over `path` and fsyncs
/// the directory so the rename is durable.
pub(crate) fn commit_tmp(tmp: &Path, path: &Path) -> Result<(), StoreError> {
    fs::rename(tmp, path).map_err(|e| StoreError::io_at(path, e))?;
    sync_dir(&parent_of(path)?)
}

/// Deletes every `*.tmp` file in `dir`: what [`write_tmp`] leaves behind
/// when the process dies before [`commit_tmp`]. Only call while no
/// publication into `dir` is in progress.
pub(crate) fn remove_stale_tmp(dir: &Path) -> Result<(), StoreError> {
    let mut removed = false;
    for entry in fs::read_dir(dir).map_err(|e| StoreError::io_at(dir, e))? {
        let path = entry.map_err(|e| StoreError::io_at(dir, e))?.path();
        if path.extension().is_some_and(|ext| ext == TMP_EXTENSION) {
            fs::remove_file(&path).map_err(|e| StoreError::io_at(&path, e))?;
            removed = true;
        }
    }
    if removed {
        sync_dir(dir)?;
    }
    Ok(())
}

/// The containing directory of `path` (defined for every path the store
/// constructs, since all store files live inside the store directory).
pub(crate) fn parent_of(path: &Path) -> Result<PathBuf, StoreError> {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => Ok(p.to_path_buf()),
        _ => Ok(PathBuf::from(".")),
    }
}

/// Reads a whole file, tagging errors with the path.
pub(crate) fn read_file(path: &Path) -> Result<Vec<u8>, StoreError> {
    fs::read(path).map_err(|e| StoreError::io_at(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_atomic_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!(
            "jss-fsutil-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("MANIFEST");
        write_atomic(&path, b"one").unwrap();
        write_atomic(&path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        assert!(!path.with_extension("tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_tmp_files_are_removed_and_nothing_else() {
        let dir = std::env::temp_dir().join(format!("jss-fsutil-stale-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        // A publication that died between write_tmp and commit_tmp.
        let orphan = write_tmp(&dir.join("snap-00000000000000000007.jss"), b"half").unwrap();
        write_atomic(&dir.join("MANIFEST"), b"root").unwrap();
        assert!(orphan.exists());
        remove_stale_tmp(&dir).unwrap();
        assert!(!orphan.exists());
        assert_eq!(fs::read(dir.join("MANIFEST")).unwrap(), b"root");
        fs::remove_dir_all(&dir).unwrap();
    }
}
