//! Minimal Linux readiness-API bindings for the evented backend.
//!
//! Direct `extern "C"` declarations against the libc the Rust standard
//! library already links — `epoll_create1`/`epoll_ctl`/`epoll_wait`,
//! `eventfd`, and `fcntl(F_SETFL, O_NONBLOCK)` — wrapped in three safe
//! types ([`Epoll`], [`EventFd`], [`set_nonblocking`]). This is the
//! entire unsafe surface of the crate (the crate root carries
//! `#![deny(unsafe_code)]`; this module opts out), kept deliberately
//! tiny: every wrapper owns its fd, translates `-1` into
//! `io::Error::last_os_error()`, and closes on drop.

#![allow(unsafe_code)]

use std::io;
use std::os::unix::io::RawFd;

/// `struct epoll_event`. The kernel ABI packs it on x86-64 (the
/// `__EPOLL_PACKED` attribute in the UAPI headers) and aligns it
/// naturally everywhere else.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EpollEvent {
    /// Readiness mask (`EPOLLIN` | `EPOLLOUT` | ...).
    pub events: u32,
    /// Caller-owned token, reported back verbatim.
    pub token: u64,
}

pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
pub(crate) const EPOLLERR: u32 = 0x008;
pub(crate) const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write half (half-close); surfaced so the loop
/// can reap connections that will never send another request.
pub(crate) const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;
const F_GETFL: i32 = 3;
const F_SETFL: i32 = 4;
const O_NONBLOCK: i32 = 0o4000;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
    fn close(fd: i32) -> i32;
    fn read(fd: i32, buf: *mut core::ffi::c_void, count: usize) -> isize;
    fn write(fd: i32, buf: *const core::ffi::c_void, count: usize) -> isize;
}

fn check(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Marks `fd` nonblocking (`fcntl F_SETFL O_NONBLOCK`), preserving the
/// other status flags.
pub(crate) fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: fcntl on a caller-owned fd with integer arguments only.
    let flags = check(unsafe { fcntl(fd, F_GETFL, 0) })?;
    check(unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) })?;
    Ok(())
}

/// An owned epoll instance (level-triggered registrations only).
#[derive(Debug)]
pub(crate) struct Epoll {
    fd: RawFd,
}

impl Epoll {
    pub(crate) fn new() -> io::Result<Epoll> {
        // SAFETY: plain syscall, no pointers.
        let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, token };
        // SAFETY: `ev` is a live, properly laid out epoll_event for
        // the duration of the call; the kernel copies it.
        check(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` for `events`, tagging readiness with `token`.
    pub(crate) fn add(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Replaces the interest set of a registered `fd`.
    pub(crate) fn modify(&self, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregisters `fd` (best effort on close paths).
    pub(crate) fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits up to `timeout_ms` for readiness, filling `events`.
    /// `EINTR` reports as zero events rather than an error.
    pub(crate) fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: the kernel writes at most `events.len()` entries
        // into the caller's live slice.
        let n = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len().min(i32::MAX as usize) as i32,
                timeout_ms,
            )
        };
        match check(n) {
            Ok(n) => Ok(n as usize),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: closing an fd this type exclusively owns.
        unsafe { close(self.fd) };
    }
}

/// A nonblocking eventfd: the cross-thread doorbell that wakes the
/// event loop out of `epoll_wait` when executor threads finish work
/// (or shutdown is requested).
#[derive(Debug)]
pub(crate) struct EventFd {
    fd: RawFd,
}

impl EventFd {
    pub(crate) fn new() -> io::Result<EventFd> {
        // SAFETY: plain syscall, no pointers.
        let fd = check(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    pub(crate) fn as_raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Rings the doorbell. Best effort: a full counter (`EAGAIN`)
    /// already guarantees a pending wakeup.
    pub(crate) fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writes 8 bytes from a live stack value.
        unsafe { write(self.fd, (&raw const one).cast(), 8) };
    }

    /// Drains the counter so level-triggered epoll stops reporting it.
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: reads at most 8 bytes into a live stack buffer.
        unsafe { read(self.fd, buf.as_mut_ptr().cast(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: closing an fd this type exclusively owns.
        unsafe { close(self.fd) };
    }
}

// ---------------------------------------------------------------------
// Memory mapping (out-of-core artifact serving).

const PROT_READ: i32 = 0x1;
const MAP_PRIVATE: i32 = 0x02;

/// `madvise` advice values accepted by [`Mmap::advise`]. The full
/// vocabulary is declared even though the serving paths only issue
/// RANDOM (on open) and DONTNEED (residency hints): callers choose the
/// policy, this module only names the constants.
pub(crate) const MADV_RANDOM: i32 = 1;
#[allow(dead_code)]
pub(crate) const MADV_SEQUENTIAL: i32 = 2;
#[allow(dead_code)]
pub(crate) const MADV_WILLNEED: i32 = 3;
pub(crate) const MADV_DONTNEED: i32 = 4;

extern "C" {
    fn mmap(
        addr: *mut core::ffi::c_void,
        length: usize,
        prot: i32,
        flags: i32,
        fd: i32,
        offset: i64,
    ) -> *mut core::ffi::c_void;
    fn munmap(addr: *mut core::ffi::c_void, length: usize) -> i32;
    fn madvise(addr: *mut core::ffi::c_void, length: usize, advice: i32) -> i32;
}

/// A read-only, private memory mapping of a whole file, unmapped on
/// drop. The RAII twin of [`Epoll`]/[`EventFd`] for the out-of-core
/// artifact path: all pointer arithmetic stays inside this type, and
/// everything above it sees only safe `&[u8]` / `&[f64]` borrows tied
/// to the map's lifetime.
#[derive(Debug)]
pub(crate) struct Mmap {
    ptr: *mut core::ffi::c_void,
    len: usize,
}

// SAFETY: the mapping is read-only (PROT_READ, MAP_PRIVATE, file open
// read-only) and immutable for its whole lifetime provided nobody
// rewrites the mapped file in place: every writer in the workspace
// replaces files by rename (`crate::publish`), which leaves the mapped
// inode as it was, and operators replace artifacts with `mv`. So shared
// references to it may cross threads freely; the raw pointer is owned,
// not aliased mutably.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps all of `file` read-only. Fails on empty files (a zero
    /// length `mmap` is EINVAL) and on any syscall error.
    pub(crate) fn map_file(file: &std::fs::File) -> io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "file too large to map"))?;
        if len == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cannot map an empty file",
            ));
        }
        // SAFETY: NULL hint, length checked nonzero, read-only private
        // mapping of an fd the caller owns; the kernel picks the
        // address. MAP_FAILED is (void*)-1, checked below.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap { ptr, len })
    }

    /// Length of the mapping in bytes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The mapped file as a byte slice.
    pub(crate) fn as_slice(&self) -> &[u8] {
        // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
        // bytes for as long as `self` lives; the file is opened
        // read-only and mapped privately, so the contents cannot be
        // mutated behind the borrow.
        unsafe { std::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len) }
    }

    /// Borrows `count` `f64`s starting at byte `offset`, without
    /// copying. `None` unless the range is in bounds and 8-byte
    /// aligned — the v5 codec guarantees 64-byte-aligned sections, so
    /// a miss here means a corrupt or misproduced file, never UB.
    pub(crate) fn f64_slice(&self, offset: usize, count: usize) -> Option<&[f64]> {
        let bytes = count.checked_mul(8)?;
        let end = offset.checked_add(bytes)?;
        if end > self.len {
            return None;
        }
        // SAFETY: range checked in bounds above; alignment checked
        // here; the mapping is immutable and outlives the borrow; any
        // bit pattern is a valid f64.
        let ptr = unsafe { self.ptr.cast::<u8>().add(offset) };
        if !(ptr as usize).is_multiple_of(std::mem::align_of::<f64>()) {
            return None;
        }
        Some(unsafe { std::slice::from_raw_parts(ptr.cast::<f64>(), count) })
    }

    /// Applies `madvise` advice to the whole mapping (best effort —
    /// advice is a hint; errors are returned for observability, not
    /// correctness).
    pub(crate) fn advise(&self, advice: i32) -> io::Result<()> {
        // SAFETY: advising the exact live mapping this type owns.
        check(unsafe { madvise(self.ptr, self.len, advice) })?;
        Ok(())
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        // SAFETY: unmapping the exact mapping this type exclusively
        // owns; no borrows can outlive self (lifetimes above).
        unsafe { munmap(self.ptr, self.len) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_wakes_epoll_and_drains() {
        let epoll = Epoll::new().unwrap();
        let efd = EventFd::new().unwrap();
        epoll.add(efd.as_raw_fd(), EPOLLIN, 7).unwrap();
        let mut events = [EpollEvent::default(); 4];
        // Nothing pending: times out empty.
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        efd.wake();
        efd.wake();
        let n = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        assert_eq!({ events[0].token }, 7);
        assert_ne!({ events[0].events } & EPOLLIN, 0);
        // Drained: level-triggered readiness clears.
        efd.drain();
        assert_eq!(epoll.wait(&mut events, 0).unwrap(), 0);
        // Interest can be rewritten and removed.
        epoll
            .modify(efd.as_raw_fd(), EPOLLIN | EPOLLOUT, 9)
            .unwrap();
        epoll.delete(efd.as_raw_fd()).unwrap();
    }

    #[test]
    fn mmap_reads_file_and_borrows_aligned_f64s() {
        let dir = std::env::temp_dir().join(format!("sgla-mmap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("map.bin");
        let vals = [1.5f64, -2.25, 0.0, 1e300];
        let mut raw = vec![0u8; 64]; // 64 bytes of padding, then f64s
        for v in vals {
            raw.extend_from_slice(&v.to_le_bytes());
        }
        std::fs::write(&path, &raw).unwrap();
        let map = Mmap::map_file(&std::fs::File::open(&path).unwrap()).unwrap();
        assert_eq!(map.len(), raw.len());
        assert_eq!(map.as_slice(), &raw[..]);
        let got = map.f64_slice(64, 4).unwrap();
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // Out of bounds and misaligned borrows are refused, not UB.
        assert!(map.f64_slice(64, 5).is_none());
        assert!(map.f64_slice(61, 1).is_none());
        assert!(map.f64_slice(usize::MAX, 1).is_none());
        // Advice is accepted on a live mapping.
        map.advise(MADV_RANDOM).unwrap();
        map.advise(MADV_WILLNEED).unwrap();
        map.advise(MADV_SEQUENTIAL).unwrap();
        map.advise(MADV_DONTNEED).unwrap();
        drop(map);
        // Empty files cannot be mapped.
        let empty = dir.join("empty.bin");
        std::fs::write(&empty, b"").unwrap();
        assert!(Mmap::map_file(&std::fs::File::open(&empty).unwrap()).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn set_nonblocking_applies() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        use std::os::unix::io::AsRawFd;
        set_nonblocking(listener.as_raw_fd()).unwrap();
        // Accept on an idle nonblocking listener must not hang.
        let err = listener.accept().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }
}
