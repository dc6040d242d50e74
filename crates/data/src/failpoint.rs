//! Filesystem indirection for crash-consistency testing.
//!
//! Every artifact, manifest, sidecar and delta write funnels its
//! filesystem effects through the [`LayoutWriter`] trait so tests can
//! substitute a
//! [`FailpointWriter`] that dies — with a torn, truncated final write —
//! at any chosen byte boundary. The crash-consistency harness sweeps
//! the budget over every boundary of a rewrite and asserts the layout
//! on disk is always either the complete old state or the complete
//! new state, never a mix.
//!
//! Production code uses [`FsWriter`], a zero-cost passthrough to
//! `std::fs`. The protocol that makes torn writes safe is the caller's
//! job (new bytes under a name no reader holds, committed with one
//! rename: [`LayoutWriter::replace`] for a single file); this module
//! only makes the failure points injectable.

use std::fs;
use std::io;
use std::path::Path;

/// The filesystem surface a layout rewrite is allowed to use.
///
/// Implementations may fail any call; callers must sequence their
/// writes so that an arbitrary failure prefix leaves a loadable
/// layout (all-old or all-new).
pub trait LayoutWriter {
    /// Writes `bytes` to `path`, replacing any existing file.
    ///
    /// # Errors
    /// Propagates I/O failures; a failing implementation may leave a
    /// truncated file behind (a torn write), as a real crash would.
    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Atomically renames `from` onto `to` (the commit point).
    ///
    /// # Errors
    /// Propagates I/O failures. Implementations never tear a rename:
    /// it either fully happens or not at all, matching POSIX rename.
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes `path`. Callers treat failures as best-effort cleanup
    /// (stale files are harmless; the manifest names the live set).
    ///
    /// # Errors
    /// Propagates I/O failures.
    fn remove_file(&mut self, path: &Path) -> io::Result<()>;

    /// Replaces `path` with `bytes`: writes `<path>.tmp`, then renames
    /// it onto `path`. A crash leaves the old or the new file at `path`.
    ///
    /// # Errors
    /// Propagates I/O failures of either step.
    fn replace(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = Path::new(&tmp);
        self.write_file(tmp, bytes)?;
        self.rename(tmp, path)
    }
}

/// The production writer: a passthrough to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct FsWriter;

impl LayoutWriter for FsWriter {
    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&mut self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }
}

/// A writer that simulates a crash partway through a layout rewrite.
///
/// It carries a byte budget. Each `write_file` spends the file's
/// length; the write that would exceed the remaining budget is *torn*
/// — only the affordable prefix reaches the disk — and fails. Renames
/// and removals spend one unit each and, being atomic, either happen
/// (budget available) or don't. Once the budget is exhausted every
/// subsequent call fails, like a process that is gone.
///
/// Sweeping the initial budget from 0 to the total cost of a rewrite
/// exercises a kill at every byte boundary of every file plus every
/// metadata operation.
#[derive(Debug)]
pub struct FailpointWriter {
    budget: usize,
    dead: bool,
}

impl FailpointWriter {
    /// A writer that dies after `budget` bytes (metadata ops cost 1).
    pub fn new(budget: usize) -> FailpointWriter {
        FailpointWriter {
            budget,
            dead: false,
        }
    }

    /// True once a call has failed; everything after is refused.
    pub fn died(&self) -> bool {
        self.dead
    }

    /// Budget not yet spent. A crash-consistency sweep runs once with
    /// a huge budget to measure a rewrite's total cost
    /// (`initial - remaining`), then replays it at every budget below.
    pub fn remaining(&self) -> usize {
        self.budget
    }

    fn crash(&mut self) -> io::Error {
        self.dead = true;
        io::Error::other("failpoint: simulated crash")
    }
}

impl LayoutWriter for FailpointWriter {
    fn write_file(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.dead {
            return Err(self.crash());
        }
        if bytes.len() > self.budget {
            // Torn write: the affordable prefix lands, then the crash.
            let torn = &bytes[..self.budget];
            self.budget = 0;
            fs::write(path, torn)?;
            return Err(self.crash());
        }
        self.budget -= bytes.len();
        fs::write(path, bytes)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        if self.dead || self.budget == 0 {
            return Err(self.crash());
        }
        self.budget -= 1;
        fs::rename(from, to)
    }

    fn remove_file(&mut self, path: &Path) -> io::Result<()> {
        if self.dead || self.budget == 0 {
            return Err(self.crash());
        }
        self.budget -= 1;
        fs::remove_file(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sgla-failpoint-{}-{name}", std::process::id()))
    }

    #[test]
    fn fs_writer_roundtrips() {
        let a = tmp("a");
        let b = tmp("b");
        let mut w = FsWriter;
        w.write_file(&a, b"hello").unwrap();
        w.rename(&a, &b).unwrap();
        assert_eq!(fs::read(&b).unwrap(), b"hello");
        w.remove_file(&b).unwrap();
        assert!(!b.exists());
    }

    #[test]
    fn replace_commits_by_rename() {
        let path = tmp("replace");
        fs::write(&path, b"old").unwrap();
        let held = fs::File::open(&path).unwrap();
        // A torn write lands in the temp file; `path` keeps the old bytes.
        assert!(FailpointWriter::new(2).replace(&path, b"new!").is_err());
        assert_eq!(fs::read(&path).unwrap(), b"old");
        FsWriter.replace(&path, b"new!").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new!");
        // A reader that opened the old file still reads the old bytes.
        let mut old = String::new();
        io::Read::read_to_string(&mut &held, &mut old).unwrap();
        assert_eq!(old, "old");
        fs::remove_file(&path).ok();
        fs::remove_file(tmp("replace.tmp")).ok();
    }

    #[test]
    fn failpoint_tears_the_overbudget_write() {
        let path = tmp("torn");
        let mut w = FailpointWriter::new(3);
        let err = w.write_file(&path, b"hello").unwrap_err();
        assert!(err.to_string().contains("failpoint"));
        assert_eq!(fs::read(&path).unwrap(), b"hel");
        assert!(w.died());
        // Everything after the crash fails without touching the disk.
        assert!(w.write_file(&path, b"x").is_err());
        assert_eq!(fs::read(&path).unwrap(), b"hel");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn failpoint_full_budget_behaves_like_fs() {
        let a = tmp("full-a");
        let b = tmp("full-b");
        let mut w = FailpointWriter::new(5 + 1 + 1);
        w.write_file(&a, b"hello").unwrap();
        w.rename(&a, &b).unwrap();
        assert_eq!(fs::read(&b).unwrap(), b"hello");
        w.remove_file(&b).unwrap();
        assert!(!w.died());
        // Budget is now exactly zero: the next metadata op crashes and
        // the rename never happens.
        let c = tmp("full-c");
        fs::write(&c, b"x").unwrap();
        assert!(w.rename(&c, &a).is_err());
        assert!(c.exists() && !a.exists());
        fs::remove_file(&c).ok();
    }
}
