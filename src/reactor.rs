//! A thin, dependency-free readiness abstraction over Linux `epoll`.
//!
//! The serve transport (`src/serve_reactor.rs`) needs exactly four
//! primitives: create an interest set, (de)register file descriptors with
//! read/write interest, block until something is ready or a deadline passes,
//! and be woken from another thread. This module provides them over raw
//! `epoll_*`/`eventfd` syscalls declared directly against the C runtime the
//! Rust standard library already links — no third-party crates, matching the
//! workspace's zero-dependency rule.
//!
//! On non-Linux targets the same API compiles but [`Poller::new`] fails with
//! [`std::io::ErrorKind::Unsupported`], so the workspace still builds
//! everywhere while `sdd serve` itself is Linux-only (it reports the typed
//! error at startup).
//!
//! This is the **only** module in the crate allowed to contain `unsafe`
//! code (the crate root carries `#![deny(unsafe_code)]`); the unsafety is
//! confined to the FFI declarations and calls below, each of which passes
//! kernel-owned buffers it fully initializes.
#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// One readiness notification: the registered token plus the directions
/// that are now actionable. Error and hang-up conditions are folded into
/// *both* directions — the owner's next `read`/`write` observes the actual
/// failure, which keeps error handling in one place.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the file descriptor was registered under.
    pub token: u64,
    /// A `read` (or `accept`) would make progress.
    pub readable: bool,
    /// A `write` would make progress.
    pub writable: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{Event, RawFd};
    use std::fs::File;
    use std::io::{self, Read, Write};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
    use std::time::Duration;

    // The kernel ABI constants and the epoll event record. On x86-64 the
    // kernel declares `struct epoll_event` packed; everywhere else it has
    // natural alignment.
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o200_0000;
    const EFD_CLOEXEC: i32 = 0o200_0000;
    const EFD_NONBLOCK: i32 = 0o4000;

    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    // Declared against the C runtime std already links; no `libc` crate.
    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
    }

    /// Converts a `-1` syscall result into the thread's `errno` error.
    fn check(result: i32) -> io::Result<i32> {
        if result < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(result)
        }
    }

    /// An epoll interest set.
    pub struct Poller {
        epoll: OwnedFd,
        /// Kernel-filled scratch for `epoll_wait`, reused across calls.
        buffer: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Self> {
            // SAFETY: epoll_create1 takes no pointers; a valid fd (or -1)
            // comes back, and ownership transfers to the OwnedFd.
            let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Self {
                // SAFETY: `fd` is a freshly created descriptor we own.
                epoll: unsafe { OwnedFd::from_raw_fd(fd) },
                buffer: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, interest: Option<(u64, bool, bool)>) -> io::Result<()> {
            let mut event = EpollEvent { events: 0, data: 0 };
            if let Some((token, readable, writable)) = interest {
                event.data = token;
                if readable {
                    event.events |= EPOLLIN | EPOLLRDHUP;
                }
                if writable {
                    event.events |= EPOLLOUT;
                }
            }
            // SAFETY: `event` is a live, fully initialized record for the
            // duration of the call; the kernel copies it and keeps nothing.
            check(unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd, &mut event) }).map(|_| ())
        }

        pub fn register(&self, fd: RawFd, token: u64, r: bool, w: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, Some((token, r, w)))
        }

        pub fn reregister(&self, fd: RawFd, token: u64, r: bool, w: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, Some((token, r, w)))
        }

        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, None)
        }

        /// Blocks until readiness or the timeout (`None` = forever),
        /// appending one [`Event`] per ready descriptor. Returns the number
        /// of events delivered; `0` means the deadline passed quietly.
        pub fn wait(
            &mut self,
            out: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let millis: i32 = match timeout {
                None => -1,
                // Round up so a 0.4ms deadline does not busy-spin at 0ms.
                Some(t) => i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX),
            };
            let capacity = i32::try_from(self.buffer.len()).unwrap_or(i32::MAX);
            let count = loop {
                // SAFETY: the buffer holds `capacity` initialized records;
                // the kernel overwrites at most that many.
                let n = unsafe {
                    epoll_wait(
                        self.epoll.as_raw_fd(),
                        self.buffer.as_mut_ptr(),
                        capacity,
                        millis,
                    )
                };
                match check(n) {
                    Ok(n) => break usize::try_from(n).unwrap_or(0),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for record in &self.buffer[..count] {
                // Copy out of the (possibly packed) record before use.
                let bits = record.events;
                let token = record.data;
                let trouble = bits & (EPOLLERR | EPOLLHUP) != 0;
                out.push(Event {
                    token,
                    readable: trouble || bits & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: trouble || bits & EPOLLOUT != 0,
                });
            }
            Ok(count)
        }
    }

    /// A cross-thread wakeup: an `eventfd` registered with the poller.
    /// Cheap to signal from any thread; coalesces bursts into one event.
    pub struct Waker {
        event: File,
    }

    impl Waker {
        pub fn new() -> io::Result<Self> {
            // SAFETY: eventfd takes no pointers; ownership of the returned
            // descriptor transfers to the File.
            let fd = check(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
            // SAFETY: `fd` is a freshly created descriptor we own.
            Ok(Self {
                event: unsafe { File::from_raw_fd(fd) },
            })
        }

        pub fn fd(&self) -> RawFd {
            self.event.as_raw_fd()
        }

        /// Signals the poller; safe to call from any thread, any number of
        /// times — the counter coalesces until [`drain`](Self::drain).
        pub fn wake(&self) {
            let _ = (&self.event).write(&1u64.to_ne_bytes());
        }

        /// Clears the pending signal so the next `wake` fires a new event.
        pub fn drain(&self) {
            let mut count = [0u8; 8];
            let _ = (&self.event).read(&mut count);
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::{Event, RawFd};
    use std::io;
    use std::time::Duration;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "epoll reactor is only available on Linux",
        ))
    }

    /// Stub interest set: constructing one always fails, so the methods
    /// below are unreachable — they exist to keep the API identical.
    pub struct Poller {}

    impl Poller {
        pub fn new() -> io::Result<Self> {
            unsupported()
        }

        pub fn register(&self, _fd: RawFd, _token: u64, _r: bool, _w: bool) -> io::Result<()> {
            unsupported()
        }

        pub fn reregister(&self, _fd: RawFd, _token: u64, _r: bool, _w: bool) -> io::Result<()> {
            unsupported()
        }

        pub fn deregister(&self, _fd: RawFd) -> io::Result<()> {
            unsupported()
        }

        pub fn wait(
            &mut self,
            _out: &mut Vec<Event>,
            _timeout: Option<Duration>,
        ) -> io::Result<usize> {
            unsupported()
        }
    }

    /// Stub waker mirroring the Linux API.
    pub struct Waker {}

    impl Waker {
        pub fn new() -> io::Result<Self> {
            unsupported()
        }

        pub fn fd(&self) -> RawFd {
            -1
        }

        pub fn wake(&self) {}

        pub fn drain(&self) {}
    }
}

/// A readiness interest set: file descriptors registered under tokens, and
/// a blocking [`wait`](Self::wait) that reports which are actionable.
///
/// Level-triggered: a descriptor that stays ready keeps being reported, so
/// owners adjust interest (via [`reregister`](Self::reregister)) instead of
/// tracking edge state.
pub struct Poller {
    inner: sys::Poller,
}

impl Poller {
    /// Creates an empty interest set.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::Unsupported`] off Linux; otherwise the OS error.
    pub fn new() -> io::Result<Self> {
        Ok(Self {
            inner: sys::Poller::new()?,
        })
    }

    /// Adds `fd` under `token` with the given read/write interest.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_ctl` failure (e.g. the fd is already present).
    pub fn register(
        &self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.inner.register(fd, token, readable, writable)
    }

    /// Replaces the interest of an already-registered `fd`.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_ctl` failure (e.g. the fd was never added).
    pub fn reregister(
        &self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.inner.reregister(fd, token, readable, writable)
    }

    /// Removes `fd` from the interest set.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_ctl` failure.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.inner.deregister(fd)
    }

    /// Blocks until at least one registered descriptor is ready or the
    /// timeout elapses (`None` waits indefinitely); ready descriptors are
    /// appended to `out`. Interrupted waits (`EINTR`) are retried
    /// internally.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_wait` failure.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        self.inner.wait(out, timeout)
    }
}

/// A cross-thread wakeup channel for a [`Poller`]: register
/// [`fd`](Self::fd) read-interest under a reserved token, then any thread
/// holding the waker can force `wait` to return.
pub struct Waker {
    inner: sys::Waker,
}

impl Waker {
    /// Creates the wakeup channel.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::Unsupported`] off Linux; otherwise the OS error.
    pub fn new() -> io::Result<Self> {
        Ok(Self {
            inner: sys::Waker::new()?,
        })
    }

    /// The descriptor to register with the poller (read interest).
    #[must_use]
    pub fn fd(&self) -> RawFd {
        self.inner.fd()
    }

    /// Forces the poller's `wait` to return. Signals coalesce: any number
    /// of wakes before a [`drain`](Self::drain) deliver one event.
    pub fn wake(&self) {
        self.inner.wake();
    }

    /// Consumes the pending signal after its event was observed.
    pub fn drain(&self) {
        self.inner.drain();
    }

    /// Joins a thread that may still be signalling this waker, **then**
    /// drains the coalesced signal, returning the join result.
    ///
    /// The order is the point: draining before the join races the waking
    /// thread — a wake landing after the drain re-signals the poller, and
    /// any quiescence check that follows flakes. Tear-down paths that stop
    /// a waking thread should go through this helper instead of
    /// open-coding `join` + `drain`, so the ordering cannot regress
    /// file-by-file.
    ///
    /// # Errors
    ///
    /// Propagates the joined thread's panic payload, exactly like
    /// [`std::thread::JoinHandle::join`].
    pub fn join_then_drain<T>(&self, handle: std::thread::JoinHandle<T>) -> std::thread::Result<T> {
        let result = handle.join();
        self.drain();
        result
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::{Duration, Instant};

    #[test]
    fn waker_wakes_an_idle_poller_across_threads() {
        let mut poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.register(waker.fd(), 7, true, false).unwrap();

        let remote = std::sync::Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            remote.wake();
            remote.wake(); // coalesces with the first
        });

        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1, "one coalesced wake event");
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        // Join before draining: the second wake must have landed (and
        // coalesced) before the drain, or it would re-signal afterwards.
        // The helper owns that ordering so no test re-introduces the race.
        waker.join_then_drain(handle).unwrap();

        // Drained: the next wait times out quietly.
        events.clear();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0, "no events after drain: {events:?}");
    }

    #[test]
    fn join_then_drain_never_leaves_a_residual_signal() {
        // The race this guards: a wake issued between a drain and the
        // waking thread's exit re-signals the poller, so a quiescence
        // check after tear-down observes a phantom event. Iterate with an
        // unsynchronized late waker; the helper's join-before-drain order
        // must absorb every wake.
        let mut poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.register(waker.fd(), 3, true, false).unwrap();
        for _ in 0..50 {
            let remote = std::sync::Arc::clone(&waker);
            let handle = std::thread::spawn(move || {
                remote.wake();
                std::thread::yield_now();
                remote.wake(); // deliberately racing the tear-down
            });
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            waker.join_then_drain(handle).unwrap();
            events.clear();
            let n = poller
                .wait(&mut events, Some(Duration::from_millis(1)))
                .unwrap();
            assert_eq!(n, 0, "phantom wake after join_then_drain: {events:?}");
        }
    }

    #[test]
    fn timeout_expires_without_events() {
        let mut poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.register(waker.fd(), 1, true, false).unwrap();
        let start = Instant::now();
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert_eq!(n, 0);
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn socket_readiness_and_interest_changes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut poller = Poller::new().unwrap();
        poller
            .register(listener.as_raw_fd(), 10, true, false)
            .unwrap();

        let mut client = TcpStream::connect(addr).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 10 && e.readable),
            "listener became acceptable: {events:?}"
        );
        let (server, _) = listener.accept().unwrap();

        // A connected stream is immediately writable; after dropping write
        // interest it stops being reported.
        poller
            .register(server.as_raw_fd(), 11, false, true)
            .unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 11 && e.writable));
        poller
            .reregister(server.as_raw_fd(), 11, true, false)
            .unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(
            events.iter().all(|e| e.token != 11),
            "write interest dropped: {events:?}"
        );

        // Incoming bytes surface as read readiness under the new interest.
        client.write_all(b"DIAG\n").unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 11 && e.readable));
        poller.deregister(server.as_raw_fd()).unwrap();
    }
}
