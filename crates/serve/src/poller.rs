//! A minimal std-only readiness poller.
//!
//! The event-loop server needs one primitive: "block until any of these
//! sockets is readable/writable". std does not expose one, and this workspace
//! takes no external dependencies, so this module declares the handful of
//! libc entry points itself (std already links libc; these are declarations,
//! not a new dependency). Two backends share one interface:
//!
//! - **epoll** on Linux: O(ready) wakeups, the interest set lives in the
//!   kernel. This is what carries ten-thousand-subscriber fan-in.
//! - **poll(2)** everywhere else on unix (and selectable on Linux for
//!   tests): the interest set is rebuilt into a `pollfd` array per wait —
//!   O(registered) per wakeup, fine for hundreds of connections and
//!   portable to every unix.
//!
//! Both are **level-triggered**: an event keeps firing while the condition
//! holds, so a connection handler that stops mid-backlog is re-woken rather
//! than wedged. Non-unix targets get neither, which is why the server half
//! of this crate is `#[cfg(unix)]`.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Which readiness conditions a registration asks to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest: the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Read + write interest: a connection with a non-empty write queue.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness event delivered by [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// The token the fd was registered under.
    pub token: usize,
    /// The fd is readable (or has a pending hangup/error to observe via
    /// `read`).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
}

/// The poller handle: registrations keyed by raw fd, events labeled by
/// caller-chosen tokens.
#[derive(Debug)]
pub(crate) struct Poller {
    imp: Imp,
}

#[derive(Debug)]
enum Imp {
    #[cfg(target_os = "linux")]
    Epoll(epoll::EpollPoller),
    // On Linux the fallback is only constructed by tests; elsewhere it is
    // the only backend.
    #[cfg_attr(all(target_os = "linux", not(test)), allow(dead_code))]
    Poll(pollfd::PollPoller),
}

impl Poller {
    /// Opens the best backend for this target: epoll on Linux, poll(2)
    /// elsewhere.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            Ok(Poller {
                imp: Imp::Epoll(epoll::EpollPoller::new()?),
            })
        }
        #[cfg(not(target_os = "linux"))]
        {
            Self::new_poll_fallback()
        }
    }

    /// Opens the portable poll(2) backend unconditionally. Exists so the
    /// fallback path is exercised by tests on Linux too, not only on the
    /// platforms that need it.
    #[cfg_attr(all(target_os = "linux", not(test)), allow(dead_code))]
    pub fn new_poll_fallback() -> io::Result<Poller> {
        Ok(Poller {
            imp: Imp::Poll(pollfd::PollPoller::new()),
        })
    }

    /// `true` if this poller runs on the epoll backend.
    #[cfg(test)]
    pub fn is_epoll(&self) -> bool {
        match &self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(_) => true,
            Imp::Poll(_) => false,
        }
    }

    /// Starts watching `fd` under `token`. One registration per fd.
    pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(p) => p.register(fd, token, interest),
            Imp::Poll(p) => p.register(fd, token, interest),
        }
    }

    /// Changes the interest set of an existing registration.
    pub fn reregister(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(p) => p.reregister(fd, token, interest),
            Imp::Poll(p) => p.reregister(fd, token, interest),
        }
    }

    /// Stops watching `fd`. Call **before** closing the fd.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(p) => p.deregister(fd),
            Imp::Poll(p) => p.deregister(fd),
        }
    }

    /// Blocks until at least one registered fd is ready (or the timeout
    /// elapses), appending events to `out` (which is cleared first).
    /// `None` blocks indefinitely. EINTR retries internally.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        match &mut self.imp {
            #[cfg(target_os = "linux")]
            Imp::Epoll(p) => p.wait(out, timeout),
            Imp::Poll(p) => p.wait(out, timeout),
        }
    }
}

/// Clamps a timeout to the `int` milliseconds both syscalls take
/// (`-1` = infinite), rounding up so a 100µs timeout is not a busy-wait.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(t) => {
            let ms = t.as_millis().min(i32::MAX as u128) as i32;
            if ms == 0 && !t.is_zero() {
                1
            } else {
                ms
            }
        }
    }
}

#[cfg(target_os = "linux")]
mod epoll {
    use super::{timeout_ms, Event, Interest};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    // The epoll ABI, declared directly: std links libc, so these resolve
    // without any external crate.
    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// The kernel's `struct epoll_event`. x86-64 packs it to match the
    /// 32-bit layout; every other architecture uses natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP;
        if interest.readable {
            m |= EPOLLIN;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }

    #[derive(Debug)]
    pub(super) struct EpollPoller {
        epfd: RawFd,
        scratch: Vec<EpollEvent>,
    }

    impl std::fmt::Debug for EpollEvent {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            let events = self.events;
            let data = self.data;
            f.debug_struct("EpollEvent")
                .field("events", &events)
                .field("data", &data)
                .finish()
        }
    }

    impl EpollPoller {
        pub fn new() -> io::Result<EpollPoller> {
            // SAFETY: `epoll_create1` takes a flag word and touches no
            // caller memory; a negative return is turned into an error.
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(EpollPoller {
                epfd,
                scratch: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token as u64,
            };
            // SAFETY: `ev` is a live, correctly laid out `epoll_event` for the
            // whole call, and the kernel only reads it. `self.epfd` is open
            // until `drop`.
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
        }

        pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn reregister(
            &mut self,
            fd: RawFd,
            token: usize,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: as in `ctl`. `EPOLL_CTL_DEL` ignores the event, but
            // kernels before 2.6.9 require it to be non-null.
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
        }

        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let n = loop {
                // SAFETY: the kernel writes at most `maxevents` =
                // `scratch.len()` events into `scratch`, which is exclusively
                // borrowed for the call; `len()` fits in an `i32` because the
                // buffer only doubles from 1024 when completely filled.
                let ret = unsafe {
                    epoll_wait(
                        self.epfd,
                        self.scratch.as_mut_ptr(),
                        self.scratch.len() as i32,
                        timeout_ms(timeout),
                    )
                };
                match cvt(ret) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for ev in &self.scratch[..n] {
                let events = ev.events;
                out.push(Event {
                    token: ev.data as usize,
                    // Error/hangup conditions surface as readability so the
                    // handler's next `read` observes them.
                    readable: events & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                    writable: events & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            // A full scratch buffer means more events may be pending; grow so
            // a huge ready set cannot starve high-numbered fds.
            if n == self.scratch.len() {
                self.scratch
                    .resize(n * 2, EpollEvent { events: 0, data: 0 });
            }
            Ok(())
        }
    }

    impl Drop for EpollPoller {
        fn drop(&mut self) {
            // SAFETY: `epfd` came from `epoll_create1`, is owned by this
            // poller alone and is closed exactly once, here.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

mod pollfd {
    use super::{timeout_ms, Event, Interest};
    use std::collections::HashMap;
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    /// `nfds_t`: `unsigned long` on Linux and Solarish systems, `unsigned
    /// int` on macOS, the BSDs and Android — where this backend is the only
    /// one.
    #[cfg(any(target_os = "linux", target_os = "illumos", target_os = "solaris"))]
    #[allow(non_camel_case_types)]
    type nfds_t = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "illumos", target_os = "solaris")))]
    #[allow(non_camel_case_types)]
    type nfds_t = std::ffi::c_uint;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    /// The portable `struct pollfd`.
    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: nfds_t, timeout: i32) -> i32;
    }

    fn mask(interest: Interest) -> i16 {
        let mut m = 0;
        if interest.readable {
            m |= POLLIN;
        }
        if interest.writable {
            m |= POLLOUT;
        }
        m
    }

    /// The fallback backend: the interest table lives in userspace and is
    /// rebuilt into a `pollfd` array per wait.
    #[derive(Debug)]
    pub(super) struct PollPoller {
        registered: HashMap<RawFd, (usize, Interest)>,
        scratch: Vec<(PollFd, usize)>,
    }

    impl PollPoller {
        pub fn new() -> PollPoller {
            PollPoller {
                registered: HashMap::new(),
                scratch: Vec::new(),
            }
        }

        pub fn register(&mut self, fd: RawFd, token: usize, interest: Interest) -> io::Result<()> {
            if self.registered.insert(fd, (token, interest)).is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            Ok(())
        }

        pub fn reregister(
            &mut self,
            fd: RawFd,
            token: usize,
            interest: Interest,
        ) -> io::Result<()> {
            match self.registered.get_mut(&fd) {
                Some(slot) => {
                    *slot = (token, interest);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            match self.registered.remove(&fd) {
                Some(_) => Ok(()),
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
        }

        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            self.scratch.clear();
            for (&fd, &(token, interest)) in &self.registered {
                self.scratch.push((
                    PollFd {
                        fd,
                        events: mask(interest),
                        revents: 0,
                    },
                    token,
                ));
            }
            // `poll` needs a contiguous pollfd array; split the parallel
            // token list off rather than interleave.
            let mut fds: Vec<PollFd> = self.scratch.iter().map(|(p, _)| *p).collect();
            loop {
                // SAFETY: `fds` is a contiguous, exclusively borrowed array
                // of `fds.len()` `#[repr(C)]` pollfd entries; the kernel
                // writes only their `revents`. The count is the number of
                // registered fds, far below `nfds_t::MAX`.
                let ret =
                    unsafe { poll(fds.as_mut_ptr(), fds.len() as nfds_t, timeout_ms(timeout)) };
                if ret >= 0 {
                    break;
                }
                let e = io::Error::last_os_error();
                if e.kind() != io::ErrorKind::Interrupted {
                    return Err(e);
                }
            }
            for (pfd, (_, token)) in fds.iter().zip(&self.scratch) {
                let re = pfd.revents;
                if re == 0 {
                    continue;
                }
                out.push(Event {
                    token: *token,
                    readable: re & (POLLIN | POLLERR | POLLHUP) != 0,
                    writable: re & (POLLOUT | POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    fn exercise(mut poller: Poller) {
        let (mut a, mut b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();

        // Nothing to read yet: a zero timeout returns no events.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 7 || !e.readable));

        // A write on the peer makes it readable.
        a.write_all(b"ping").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        let ev = events
            .iter()
            .find(|e| e.token == 7)
            .expect("readable event");
        assert!(ev.readable);
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 4);

        // Level-triggered write interest fires while the buffer has room.
        poller
            .reregister(b.as_raw_fd(), 7, Interest::READ_WRITE)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        let ev = events
            .iter()
            .find(|e| e.token == 7)
            .expect("writable event");
        assert!(ev.writable);

        // Peer hangup surfaces as readability (read returns Ok(0)).
        drop(a);
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == 7).expect("hangup event");
        assert!(ev.readable);
        assert_eq!(b.read(&mut buf).unwrap(), 0, "EOF after hangup");

        poller.deregister(b.as_raw_fd()).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn default_backend_delivers_readiness() {
        let poller = Poller::new().unwrap();
        #[cfg(target_os = "linux")]
        assert!(poller.is_epoll(), "Linux must get the epoll backend");
        exercise(poller);
    }

    #[test]
    fn poll_fallback_delivers_readiness() {
        let poller = Poller::new_poll_fallback().unwrap();
        assert!(!poller.is_epoll());
        exercise(poller);
    }
}
