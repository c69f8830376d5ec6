//! `poll(2)`: block until one of a set of file descriptors is ready.
//!
//! Event loops over non-blocking sockets (afta-serve's reactor) need a
//! way to sleep until a socket is readable or writable instead of
//! sweeping every socket on a timer.  `std` exposes no readiness call,
//! and this workspace takes no platform crates, so this module declares
//! the one C function it needs and wraps it safely: [`poll`] takes a
//! slice of [`PollFd`]s, retries `EINTR`, and records in each entry
//! what is ready, for [`PollFd::ready`] to test.
//!
//! **Platform assumption.**  The module is compiled for
//! `target_os = "linux"` only, the one platform CI and the benchmark
//! run on.  The `POLL*` bit values, the `struct pollfd` layout (checked
//! at compile time below) and `nfds_t = unsigned long` are those of
//! Linux's `<poll.h>` under both glibc and musl; another target has to
//! restate them before it can enable this module.  `std` already links
//! the C library, so the declaration downloads and links nothing new.
//!
//! This and [`ring`](crate::ring) are the crate's only modules that use
//! `unsafe`.  Here it is the single foreign call in [`poll`].
//!
//! ```
//! use std::io::Write;
//! use std::os::fd::AsRawFd;
//! use std::os::unix::net::UnixStream;
//! use std::time::Duration;
//! use afta_eventbus::poll::{poll, PollFd, POLLIN};
//!
//! let (mut tx, rx) = UnixStream::pair().unwrap();
//! tx.write_all(b"!").unwrap();
//! let mut fds = [PollFd::new(rx.as_raw_fd(), POLLIN)];
//! assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 1);
//! assert!(fds[0].ready(POLLIN));
//! ```

#![allow(unsafe_code)]

use std::ffi::{c_int, c_short, c_ulong};
use std::io;
use std::os::fd::RawFd;
use std::time::{Duration, Instant};

/// Readable: there is data to read, or a listener has a connection to
/// accept (`POLLIN` = 0x001 in Linux's `<poll.h>`).
pub const POLLIN: i16 = 0x001;
/// Writable: a write will not block (`POLLOUT` = 0x004).
pub const POLLOUT: i16 = 0x004;
/// An error is pending on the descriptor; reported in `revents` even
/// when not asked for (`POLLERR` = 0x008).
pub const POLLERR: i16 = 0x008;
/// The peer hung up; reported in `revents` even when not asked for
/// (`POLLHUP` = 0x010).
pub const POLLHUP: i16 = 0x010;
/// The descriptor is not open; reported in `revents` even when not
/// asked for (`POLLNVAL` = 0x020).
pub const POLLNVAL: i16 = 0x020;

/// `nfds_t`, the type of `poll`'s length argument: `unsigned long` on
/// Linux in both glibc and musl.
#[allow(non_camel_case_types)]
type nfds_t = c_ulong;

/// One entry of a [`poll`] set: Linux's `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

// `struct pollfd` is `{ int fd; short events; short revents; }`: the
// foreign call reads and writes the slice with exactly this layout.
const _: () = assert!(std::mem::size_of::<PollFd>() == 8);

impl PollFd {
    /// Watches `fd` for the `events` bits ([`POLLIN`], [`POLLOUT`]).
    /// A negative `fd` is skipped by the kernel and never reported.
    #[must_use]
    pub fn new(fd: RawFd, events: i16) -> Self {
        Self {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether the last [`poll`] reported any of the `mask` bits for
    /// this entry.
    #[must_use]
    pub fn ready(&self, mask: i16) -> bool {
        self.revents & mask != 0
    }
}

extern "C" {
    #[link_name = "poll"]
    fn sys_poll(fds: *mut PollFd, nfds: nfds_t, timeout: c_int) -> c_int;
}

/// Blocks until at least one entry of `fds` is ready or `timeout`
/// passes (`None` waits indefinitely, `Some(Duration::ZERO)` only
/// checks), then returns how many entries are ready ([`PollFd::ready`]
/// tells which).  A wait interrupted by a signal resumes with the time
/// that is left.  Timeouts round up to whole milliseconds; one too
/// large for the clock waits indefinitely.
///
/// # Errors
///
/// The `poll(2)` error, e.g. `EINVAL` when `fds` is longer than the
/// process's open-file limit.
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let nfds =
        nfds_t::try_from(fds.len()).map_err(|_| io::Error::from(io::ErrorKind::InvalidInput))?;
    let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
    loop {
        let wait_ms = match deadline {
            None => -1,
            Some(deadline) => {
                let left = deadline.saturating_duration_since(Instant::now());
                let ms = left.as_nanos().div_ceil(1_000_000);
                c_int::try_from(ms).unwrap_or(c_int::MAX)
            }
        };
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `nfds` `PollFd`s, and `PollFd` is `repr(C)` with the layout of
        // `struct pollfd` (the size is asserted above), so the kernel
        // reads and writes only memory this borrow owns, and it writes
        // nothing but the `revents` fields.  The descriptors are plain
        // integers to `poll`: a closed or stale one is reported as
        // `POLLNVAL`, not dereferenced, so no fd value can make the
        // call unsound.
        let n = unsafe { sys_poll(fds.as_mut_ptr(), nfds, wait_ms) };
        if let Ok(ready) = usize::try_from(n) {
            return Ok(ready);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    fn pair() -> (UnixStream, UnixStream) {
        UnixStream::pair().expect("socketpair")
    }

    #[test]
    fn nothing_is_ready_before_a_write() {
        let (_tx, rx) = pair();
        let mut fds = [PollFd::new(rx.as_raw_fd(), POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).expect("poll"), 0);
        assert!(!fds[0].ready(POLLIN | POLLOUT | POLLHUP | POLLERR));
    }

    #[test]
    fn a_write_makes_the_peer_readable() {
        let (mut tx, rx) = pair();
        tx.write_all(b"x").expect("write");
        let mut fds = [PollFd::new(rx.as_raw_fd(), POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).expect("poll"), 1);
        assert!(fds[0].ready(POLLIN));
        assert!(!fds[0].ready(POLLOUT | POLLHUP | POLLERR));
    }

    #[test]
    fn an_empty_socket_is_writable() {
        let (tx, _rx) = pair();
        let mut fds = [PollFd::new(tx.as_raw_fd(), POLLOUT)];
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).expect("poll"), 1);
        assert!(fds[0].ready(POLLOUT));
    }

    #[test]
    fn a_dropped_peer_hangs_up() {
        let (tx, rx) = pair();
        drop(tx);
        // POLLHUP is reported without being asked for.
        let mut fds = [PollFd::new(rx.as_raw_fd(), 0)];
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).expect("poll"), 1);
        assert!(fds[0].ready(POLLHUP));
    }

    #[test]
    fn a_timeout_returns_after_waiting() {
        let (_tx, rx) = pair();
        let mut fds = [PollFd::new(rx.as_raw_fd(), POLLIN)];
        let started = Instant::now();
        assert_eq!(
            poll(&mut fds, Some(Duration::from_millis(20))).expect("poll"),
            0
        );
        assert!(started.elapsed() >= Duration::from_millis(20));
    }
}
