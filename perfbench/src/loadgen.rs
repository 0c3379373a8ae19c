//! Open-loop load generator for `mppmd`.
//!
//! One thread drives every connection: it writes each request when it
//! falls due and reads responses while it is still sending, so neither
//! side can end up blocked writing into a full socket buffer while the
//! other waits for it. Sockets are non-blocking and the thread sleeps in
//! `ppoll(2)`, which wakes on the next due time or the first readable
//! byte. Each request's latency runs from its due time, so a stall also
//! charges the requests queued behind it, and the generator records how
//! late it ran.

use std::io::{self, Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::time::Duration;

use mppm_obs::Span;

use crate::host;
use crate::spans::Tracer;

/// One request of a schedule.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Due time, from the start of the drive.
    pub due: Duration,
    /// Index of the connection it goes out on.
    pub conn: usize,
    /// The request frame, without its newline. Its `id` must be its
    /// index in the schedule plus one.
    pub line: String,
    /// Whether the benchmark's tracer times this request's send.
    pub traced: bool,
}

/// The response to one planned request.
#[derive(Debug, Clone)]
pub struct Reply {
    /// From the request's due time to the read that returned its
    /// response.
    pub latency: Duration,
    pub line: String,
}

/// Everything a drive observed.
#[derive(Debug)]
pub struct Driven {
    /// Replies by schedule index.
    pub replies: Vec<Reply>,
    /// Largest gap between a request's due time and its hand-off.
    pub late_max: Duration,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

/// Sleeps until a socket is readable (or writable, where `want_write`)
/// or `timeout` passes.
fn wait(streams: &[UnixStream], want_write: &[bool], timeout: Duration) -> io::Result<()> {
    let mut fds: Vec<PollFd> = streams
        .iter()
        .zip(want_write)
        .map(|(s, &w)| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN | if w { POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `#[repr(C)]` structs with the field types of `struct pollfd`, `ts`
    // has the layout of `struct timespec` on 64-bit Linux and outlives
    // the call, and a null sigmask leaves the signal mask unchanged.
    let rc = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

/// The `id` member of a response frame.
fn reply_id(line: &str) -> Option<u64> {
    let rest = &line[line.find("\"id\":")? + 5..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Sends `schedule` (sorted by due time) over `streams` and collects one
/// reply per request. Gives up `grace` after the last due time.
///
/// # Errors
///
/// Socket errors, a reply that matches no sent request, or replies
/// still missing after the grace period.
pub fn drive(
    streams: &[UnixStream],
    schedule: &[Planned],
    grace: Duration,
    tracer: Option<(&Tracer, &Span)>,
) -> io::Result<Driven> {
    for s in streams {
        s.set_nonblocking(true)?;
    }
    let n = schedule.len();
    let give_up = schedule.last().map_or(Duration::ZERO, |p| p.due) + grace;
    let mut out: Vec<Vec<u8>> = vec![Vec::new(); streams.len()];
    let mut inbuf: Vec<Vec<u8>> = vec![Vec::new(); streams.len()];
    let mut replies: Vec<Option<Reply>> = vec![None; n];
    let mut chunk = vec![0u8; 1 << 16];
    let (mut next, mut done, mut late_max) = (0, 0, Duration::ZERO);
    let start = host::now();
    while done < n {
        let now = start.elapsed();
        while next < n && schedule[next].due <= now {
            let planned = &schedule[next];
            let mut hand_off = || {
                let buf = &mut out[planned.conn];
                buf.extend_from_slice(planned.line.as_bytes());
                buf.push(b'\n');
                flush(&streams[planned.conn], buf)
            };
            match tracer {
                Some((t, root)) if planned.traced => t.time(root, "server:send", |_| hand_off())?,
                _ => hand_off()?,
            }
            late_max = late_max.max(now - planned.due);
            next += 1;
        }
        for (c, stream) in streams.iter().enumerate() {
            flush(stream, &mut out[c])?;
            loop {
                match (&*stream).read(&mut chunk) {
                    Ok(0) => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "daemon hung up",
                        ))
                    }
                    Ok(k) => {
                        let at = start.elapsed();
                        inbuf[c].extend_from_slice(&chunk[..k]);
                        let mut consumed = 0;
                        while let Some(pos) = inbuf[c][consumed..].iter().position(|&b| b == b'\n')
                        {
                            let line = String::from_utf8_lossy(&inbuf[c][consumed..consumed + pos])
                                .into_owned();
                            consumed += pos + 1;
                            let idx = reply_id(&line)
                                .and_then(|id| usize::try_from(id).ok()?.checked_sub(1))
                                .filter(|&i| i < next && replies[i].is_none())
                                .ok_or_else(|| {
                                    io::Error::new(
                                        io::ErrorKind::InvalidData,
                                        format!("unexpected reply {line}"),
                                    )
                                })?;
                            replies[idx] = Some(Reply {
                                latency: at.saturating_sub(schedule[idx].due),
                                line,
                            });
                            done += 1;
                        }
                        inbuf[c].drain(..consumed);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }
        if done == n {
            break;
        }
        let now = start.elapsed();
        if now > give_up {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("{} of {n} replies missing after the grace period", n - done),
            ));
        }
        let timeout = match schedule.get(next) {
            Some(p) => p.due.saturating_sub(now),
            None => give_up - now,
        };
        if !timeout.is_zero() {
            let want_write: Vec<bool> = out.iter().map(|b| !b.is_empty()).collect();
            wait(streams, &want_write, timeout)?;
        }
    }
    for s in streams {
        s.set_nonblocking(false)?;
    }
    Ok(Driven {
        replies: replies
            .into_iter()
            .map(|r| r.expect("every reply arrived"))
            .collect(),
        late_max,
    })
}

/// Writes as much of `buf` as the socket takes now, keeping the rest.
fn flush(stream: &UnixStream, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut written = 0;
    while written < buf.len() {
        match (&*stream).write(&buf[written..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "daemon stopped reading",
                ))
            }
            Ok(k) => written += k,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    buf.drain(..written);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mppm_server::protocol::PROTOCOL_VERSION;

    #[test]
    fn reply_ids_parse() {
        assert_eq!(reply_id("{\"v\":1,\"id\":42,\"ok\":true}"), Some(42));
        assert_eq!(reply_id("{\"v\":1}"), None);
    }

    /// A burst far larger than the socket buffers, written before any
    /// reply is read by a naive client, completes because replies are
    /// read while requests are still going out.
    #[test]
    fn a_burst_larger_than_the_socket_buffer_completes() {
        let dir = std::env::temp_dir().join(format!("perfbench-loadgen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("d.sock");
        let config = mppm_server::ServerConfig {
            socket: socket.clone(),
            store_root: Some(dir.join("store")),
            response_cache_cap: 16,
        };
        let daemon = std::thread::spawn(move || mppm_server::serve(&config));
        let connect = || {
            for _ in 0..500 {
                if let Ok(s) = UnixStream::connect(&socket) {
                    return s;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            panic!("daemon did not come up");
        };
        let streams = [connect(), connect()];
        let per_conn = 20_000;
        let schedule: Vec<Planned> = (0..2 * per_conn)
            .map(|i| Planned {
                due: Duration::ZERO,
                conn: i % 2,
                line: format!(
                    "{{\"v\":{PROTOCOL_VERSION},\"id\":{},\"kind\":\"ping\"}}",
                    i + 1
                ),
                traced: false,
            })
            .collect();
        let request_bytes: usize = schedule.iter().map(|p| p.line.len() + 1).sum::<usize>() / 2;
        assert!(
            request_bytes > 512 * 1024,
            "burst of {request_bytes} bytes per connection"
        );
        let driven = drive(&streams, &schedule, Duration::from_secs(60), None).unwrap();
        assert_eq!(driven.replies.len(), schedule.len());
        assert!(driven
            .replies
            .iter()
            .all(|r| r.line.contains("\"pong\":true")));

        let mut stop = connect();
        writeln!(
            stop,
            "{{\"v\":{PROTOCOL_VERSION},\"id\":1,\"kind\":\"shutdown\"}}"
        )
        .unwrap();
        drop(streams);
        daemon.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
