//! Load drivers: an open loop (requests due on a fixed schedule, timed
//! from when they were due) and a closed loop (each connection sends its
//! next request when the previous one completes).
//!
//! Both hand out request indices from one shared counter, so the
//! request stream is a fixed sequence however the connections
//! interleave.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// When one request was due, sent and answered, in ns from the phase
/// start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timing {
    pub due_ns: u64,
    pub send_ns: u64,
    pub recv_ns: u64,
}

impl Timing {
    /// Latency as the user sees it: from when the request was due, so a
    /// stall also counts against the requests queued behind it.
    pub fn latency_ns(&self) -> u64 {
        self.recv_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator sent the request.
    pub fn lateness_ns(&self) -> u64 {
        self.send_ns.saturating_sub(self.due_ns)
    }
}

/// Due time of request `i` at `rate` requests per second.
pub fn due_ns(i: usize, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate) as u64
}

/// One request's record: its index, timing, and what the caller's
/// closure returned.
pub struct Record<T> {
    pub index: usize,
    pub timing: Timing,
    pub out: T,
}

/// Open loop: request `i` is due at `i / rate` seconds; `connections`
/// workers take the next index when free, wait until it is due, and run
/// `call`. Stops issuing once the next request would be due after
/// `duration`.
pub fn open_loop<C, T: Send>(
    connections: usize,
    rate: f64,
    duration: Duration,
    connect: impl Fn(usize) -> C + Sync,
    call: impl Fn(&mut C, usize) -> T + Sync,
) -> Vec<Record<T>> {
    let total = (duration.as_secs_f64() * rate) as usize;
    run(connections, total, Some(rate), None, connect, call)
}

/// Closed loop: `connections` workers each send the next request as soon
/// as their previous one completes, until `duration` has passed. Due
/// time is when the worker became free, so lateness is the generator's
/// own gap between a response and the next send.
pub fn closed_loop<C, T: Send>(
    connections: usize,
    duration: Duration,
    connect: impl Fn(usize) -> C + Sync,
    call: impl Fn(&mut C, usize) -> T + Sync,
) -> Vec<Record<T>> {
    run(connections, usize::MAX, None, Some(duration), connect, call)
}

fn run<C, T: Send>(
    connections: usize,
    total: usize,
    rate: Option<f64>,
    deadline: Option<Duration>,
    connect: impl Fn(usize) -> C + Sync,
    call: impl Fn(&mut C, usize) -> T + Sync,
) -> Vec<Record<T>> {
    let next = AtomicUsize::new(0);
    let records = Mutex::new(Vec::new());
    let start = Instant::now();
    let ns = |t: Instant| t.duration_since(start).as_nanos() as u64;
    std::thread::scope(|scope| {
        for conn in 0..connections {
            let (next, records, connect, call) = (&next, &records, &connect, &call);
            scope.spawn(move || {
                let mut state = connect(conn);
                let mut local = Vec::new();
                let mut free_ns = ns(Instant::now());
                loop {
                    if deadline.is_some_and(|d| start.elapsed() >= d) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let due = match rate {
                        Some(r) => {
                            let due = due_ns(i, r);
                            let now = ns(Instant::now());
                            if due > now {
                                std::thread::sleep(Duration::from_nanos(due - now));
                            }
                            due
                        }
                        None => free_ns,
                    };
                    let send_ns = ns(Instant::now());
                    let out = call(&mut state, i);
                    let recv_ns = ns(Instant::now());
                    free_ns = recv_ns;
                    local.push(Record {
                        index: i,
                        timing: Timing {
                            due_ns: due,
                            send_ns,
                            recv_ns,
                        },
                        out,
                    });
                }
                records.lock().expect("record lock").extend(local);
            });
        }
    });
    let mut out = records.into_inner().expect("record lock");
    out.sort_by_key(|r| r.index);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One connection served by a virtual clock: each request is sent at
    /// max(due, previous answer) and takes `service[i]` ns.
    fn simulate(rate: f64, service: &[u64]) -> Vec<Timing> {
        let mut free = 0;
        service
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let due = due_ns(i, rate);
                let send = due.max(free);
                free = send + s;
                Timing {
                    due_ns: due,
                    send_ns: send,
                    recv_ns: free,
                }
            })
            .collect()
    }

    #[test]
    fn due_times_follow_the_rate() {
        assert_eq!(due_ns(0, 100.0), 0);
        assert_eq!(due_ns(1, 100.0), 10_000_000);
        assert_eq!(due_ns(250, 1000.0), 250_000_000);
    }

    #[test]
    fn a_stall_counts_against_the_requests_queued_behind_it() {
        // 100 rps (10 ms apart); request 1 stalls for 35 ms.
        let ms = 1_000_000;
        let t = simulate(100.0, &[ms, 35 * ms, ms, ms, ms]);
        let lat: Vec<u64> = t.iter().map(|t| t.latency_ns() / ms).collect();
        let late: Vec<u64> = t.iter().map(|t| t.lateness_ns() / ms).collect();
        // Request 2 was due at 20 ms but sent at 45 ms: 25 ms late, and
        // its latency counts from 20 ms.
        assert_eq!(late, vec![0, 0, 25, 16, 7]);
        assert_eq!(lat, vec![1, 35, 26, 17, 8]);
        // Timing from the send instead would hide the stall.
        assert!(t[2].recv_ns - t[2].send_ns < t[2].latency_ns());
    }

    #[test]
    fn open_loop_issues_the_scheduled_count_in_order() {
        let records = open_loop(2, 2000.0, Duration::from_millis(50), |_| (), |_, i| i * 2);
        assert_eq!(records.len(), 100);
        for (k, r) in records.iter().enumerate() {
            assert_eq!((r.index, r.out), (k, 2 * k));
            assert_eq!(r.timing.due_ns, due_ns(k, 2000.0));
            assert!(r.timing.send_ns + 1 >= r.timing.due_ns);
            assert!(r.timing.recv_ns >= r.timing.send_ns);
        }
    }

    #[test]
    fn closed_loop_stops_at_the_deadline() {
        let start = Instant::now();
        let records = closed_loop(
            2,
            Duration::from_millis(30),
            |_| (),
            |_, _| std::thread::sleep(Duration::from_millis(1)),
        );
        assert!(!records.is_empty());
        assert!(start.elapsed() < Duration::from_secs(2));
        let indices: Vec<usize> = records.iter().map(|r| r.index).collect();
        assert_eq!(indices, (0..records.len()).collect::<Vec<_>>());
    }
}
