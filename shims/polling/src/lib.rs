//! Vendored offline stand-in exposing the `polling` API subset used by the
//! workspace: a readiness poller with oneshot interest semantics, backed by
//! epoll(7) on Linux and poll(2) on other Unix platforms.
//!
//! Semantics mirrored from the real crate:
//! - Interest is **oneshot**: after a source is reported ready once it must be
//!   re-armed with [`Poller::modify`] before further events are delivered.
//! - [`Poller::notify`] wakes a concurrent [`Poller::wait`] call exactly once;
//!   the wakeup is not reported as a user event.
//! - Keys are caller-chosen `usize` values; `usize::MAX` is reserved for the
//!   internal notifier.

use std::time::Duration;

/// Interest in readiness events for one source, tagged with a caller key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub key: usize,
    pub readable: bool,
    pub writable: bool,
}

impl Event {
    pub fn readable(key: usize) -> Event {
        Event {
            key,
            readable: true,
            writable: false,
        }
    }

    pub fn writable(key: usize) -> Event {
        Event {
            key,
            readable: false,
            writable: true,
        }
    }

    pub fn all(key: usize) -> Event {
        Event {
            key,
            readable: true,
            writable: true,
        }
    }

    pub fn none(key: usize) -> Event {
        Event {
            key,
            readable: false,
            writable: false,
        }
    }
}

/// Buffer of events filled by [`Poller::wait`]. It also owns the raw
/// kernel-facing array `wait` fills, so a poll loop that reuses one
/// `Events` pays for that array once, not per call.
#[derive(Debug, Default)]
pub struct Events {
    inner: Vec<Event>,
    raw: sys::RawEvents,
}

impl Events {
    pub fn new() -> Events {
        Events::default()
    }

    pub fn clear(&mut self) {
        self.inner.clear();
    }

    pub fn len(&self) -> usize {
        self.inner.len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.inner.iter().copied()
    }
}

const NOTIFY_KEY: usize = usize::MAX;

fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        // Round up so a 100µs timeout does not busy-spin as 0ms.
        Some(d) => d
            .as_millis()
            .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0))
            .min(i32::MAX as u128) as i32,
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{timeout_ms, Event, Events, NOTIFY_KEY};
    use std::io;
    use std::os::unix::io::{AsRawFd, RawFd};
    use std::time::Duration;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLONESHOT: u32 = 1 << 30;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    // On x86-64 the kernel's struct epoll_event is packed; elsewhere it uses
    // natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy, Debug)]
    pub(super) struct EpollEvent {
        events: u32,
        data: u64,
    }

    /// The array `epoll_wait` writes into; sized on first use.
    pub(super) type RawEvents = Vec<EpollEvent>;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// epoll-backed readiness poller with oneshot interest.
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
        event_fd: RawFd,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            let event_fd = match cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) }) {
                Ok(fd) => fd,
                Err(e) => {
                    unsafe { close(epfd) };
                    return Err(e);
                }
            };
            let poller = Poller { epfd, event_fd };
            // The notifier is level-triggered and never disarmed; wait()
            // drains it and filters it out of the user-visible events.
            let mut ev = EpollEvent {
                events: EPOLLIN,
                data: NOTIFY_KEY as u64,
            };
            cvt(unsafe { epoll_ctl(poller.epfd, EPOLL_CTL_ADD, poller.event_fd, &mut ev) })?;
            Ok(poller)
        }

        fn ctl(&self, op: i32, fd: RawFd, interest: Event) -> io::Result<()> {
            let mut flags = EPOLLONESHOT | EPOLLERR | EPOLLHUP | EPOLLRDHUP;
            if interest.readable {
                flags |= EPOLLIN;
            }
            if interest.writable {
                flags |= EPOLLOUT;
            }
            let mut ev = EpollEvent {
                events: flags,
                data: interest.key as u64,
            };
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
        }

        pub fn add(&self, source: &impl AsRawFd, interest: Event) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, source.as_raw_fd(), interest)
        }

        pub fn modify(&self, source: &impl AsRawFd, interest: Event) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, source.as_raw_fd(), interest)
        }

        pub fn delete(&self, source: &impl AsRawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, source.as_raw_fd(), &mut ev) })
                .map(|_| ())
        }

        pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
            const CAP: usize = 1024;
            if events.raw.len() < CAP {
                events.raw.resize(CAP, EpollEvent { events: 0, data: 0 });
            }
            let raw = &mut events.raw;
            let n = loop {
                let ret = unsafe {
                    epoll_wait(self.epfd, raw.as_mut_ptr(), CAP as i32, timeout_ms(timeout))
                };
                if ret >= 0 {
                    break ret as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            let before = events.inner.len();
            for ev in events.raw.iter().take(n) {
                let key = ev.data as usize;
                if key == NOTIFY_KEY {
                    let mut buf = [0u8; 8];
                    unsafe { read(self.event_fd, buf.as_mut_ptr(), buf.len()) };
                    continue;
                }
                let flags = ev.events;
                events.inner.push(Event {
                    key,
                    readable: flags & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                    writable: flags & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(events.inner.len() - before)
        }

        pub fn notify(&self) -> io::Result<()> {
            let one = 1u64.to_ne_bytes();
            let ret = unsafe { write(self.event_fd, one.as_ptr(), one.len()) };
            // EAGAIN means a previous notification is still pending, which is
            // just as good as delivering a new one.
            if ret < 0 {
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::WouldBlock {
                    return Err(err);
                }
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.event_fd);
                close(self.epfd);
            }
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    use super::{timeout_ms, Event, Events, NOTIFY_KEY};
    use std::collections::HashMap;
    use std::io::{self, Read, Write};
    use std::os::unix::io::{AsRawFd, RawFd};
    use std::os::unix::net::UnixStream;
    use std::sync::Mutex;
    use std::time::Duration;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// `poll(2)` rebuilds its descriptor list per call; nothing to keep.
    #[derive(Debug, Default)]
    pub(super) struct RawEvents;

    /// poll(2)-backed fallback with emulated oneshot interest.
    #[derive(Debug)]
    pub struct Poller {
        sources: Mutex<HashMap<RawFd, Event>>,
        wake_rx: Mutex<UnixStream>,
        wake_tx: Mutex<UnixStream>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let (tx, rx) = UnixStream::pair()?;
            rx.set_nonblocking(true)?;
            tx.set_nonblocking(true)?;
            Ok(Poller {
                sources: Mutex::new(HashMap::new()),
                wake_rx: Mutex::new(rx),
                wake_tx: Mutex::new(tx),
            })
        }

        pub fn add(&self, source: &impl AsRawFd, interest: Event) -> io::Result<()> {
            let mut sources = self.sources.lock().unwrap();
            if sources.insert(source.as_raw_fd(), interest).is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd registered",
                ));
            }
            drop(sources);
            self.notify()
        }

        pub fn modify(&self, source: &impl AsRawFd, interest: Event) -> io::Result<()> {
            let mut sources = self.sources.lock().unwrap();
            match sources.get_mut(&source.as_raw_fd()) {
                Some(slot) => *slot = interest,
                None => return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            }
            drop(sources);
            self.notify()
        }

        pub fn delete(&self, source: &impl AsRawFd) -> io::Result<()> {
            self.sources.lock().unwrap().remove(&source.as_raw_fd());
            Ok(())
        }

        pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
            let rx = self.wake_rx.lock().unwrap();
            let mut fds = vec![PollFd {
                fd: rx.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            }];
            let keys: Vec<(RawFd, Event)> = {
                let sources = self.sources.lock().unwrap();
                sources.iter().map(|(fd, ev)| (*fd, *ev)).collect()
            };
            for (fd, ev) in &keys {
                let mut flags = 0;
                if ev.readable {
                    flags |= POLLIN;
                }
                if ev.writable {
                    flags |= POLLOUT;
                }
                fds.push(PollFd {
                    fd: *fd,
                    events: flags,
                    revents: 0,
                });
            }
            let n = loop {
                let ret = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms(timeout)) };
                if ret >= 0 {
                    break ret;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            if n == 0 {
                return Ok(0);
            }
            if fds[0].revents != 0 {
                let mut buf = [0u8; 64];
                let mut rx = rx;
                while matches!(rx.read(&mut buf), Ok(n) if n > 0) {}
            }
            let before = events.inner.len();
            let mut sources = self.sources.lock().unwrap();
            for (slot, (fd, ev)) in fds[1..].iter().zip(keys.iter()) {
                if slot.revents == 0 {
                    continue;
                }
                let _ = NOTIFY_KEY;
                events.inner.push(Event {
                    key: ev.key,
                    readable: slot.revents & (POLLIN | POLLERR | POLLHUP) != 0,
                    writable: slot.revents & (POLLOUT | POLLERR | POLLHUP) != 0,
                });
                // Emulate oneshot: disarm until the caller re-arms.
                if let Some(slot) = sources.get_mut(fd) {
                    *slot = Event::none(slot.key);
                }
            }
            Ok(events.inner.len() - before)
        }

        pub fn notify(&self) -> io::Result<()> {
            let mut tx = self.wake_tx.lock().unwrap();
            match tx.write(&[1u8]) {
                Ok(_) => Ok(()),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
                Err(e) => Err(e),
            }
        }
    }
}

#[cfg(not(unix))]
compile_error!("the vendored polling shim supports only Unix platforms");

pub use sys::Poller;

#[allow(dead_code)]
fn _assert_traits() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Poller>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn reports_readable_and_respects_oneshot() {
        let poller = Poller::new().unwrap();
        let (mut tx, rx) = pair();
        rx.set_nonblocking(true).unwrap();
        poller.add(&rx, Event::readable(7)).unwrap();

        let mut events = Events::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .unwrap();
        assert_eq!(n, 0, "no data yet");

        tx.write_all(b"hi").unwrap();
        events.clear();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);
        let ev = events.iter().next().unwrap();
        assert_eq!(ev.key, 7);
        assert!(ev.readable);

        // Oneshot: without re-arming, the still-readable socket is silent.
        events.clear();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert_eq!(n, 0);

        // Re-arm and the event fires again.
        poller.modify(&rx, Event::readable(7)).unwrap();
        events.clear();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(n, 1);

        let mut buf = [0u8; 8];
        let mut rx = rx;
        assert_eq!(rx.read(&mut buf).unwrap(), 2);
        poller.delete(&rx).unwrap();
    }

    #[test]
    fn notify_wakes_wait_without_user_event() {
        let poller = std::sync::Arc::new(Poller::new().unwrap());
        let waker = std::sync::Arc::clone(&poller);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.notify().unwrap();
        });
        let mut events = Events::new();
        let started = Instant::now();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(n, 0, "notify must not surface a user event");
        assert!(started.elapsed() < Duration::from_secs(5));
        handle.join().unwrap();
    }

    #[test]
    fn timeout_expires() {
        let poller = Poller::new().unwrap();
        let mut events = Events::new();
        let started = Instant::now();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert_eq!(n, 0);
        assert!(started.elapsed() >= Duration::from_millis(25));
    }
}
