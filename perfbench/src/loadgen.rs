//! The benchmark's open-loop load generator.
//!
//! Requests are due on a fixed schedule whatever the server does. At
//! most `conns` connections are in flight (one per generator thread); a
//! thread takes the next due request when it is free, so a stalled
//! server delays later sends. Every request is timed from when it was
//! due, which charges that delay to the requests that suffered it, and
//! the generator reports how late it sent (`lag`). Raw latency samples
//! are kept; nothing is bucketed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One planned request.
#[derive(Clone, Debug)]
pub struct Planned {
    /// When the request is due, seconds after the phase starts.
    pub due_s: f64,
    /// `POST /run` body.
    pub body: String,
}

/// What happened to one request.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Due time, seconds after the phase origin.
    pub due_s: f64,
    /// Send time, seconds after the phase origin.
    pub sent_s: f64,
    /// Completion time, seconds after the phase origin.
    pub done_s: f64,
    /// HTTP status; 0 for a transport error.
    pub status: u16,
    /// Response body (or the transport error message).
    pub body: String,
}

impl Outcome {
    /// Latency from the due time in ms; a failed request is infinite.
    pub fn latency_ms(&self) -> f64 {
        if self.status == 200 {
            (self.done_s - self.due_s) * 1e3
        } else {
            f64::INFINITY
        }
    }

    /// How late the generator sent, in ms.
    pub fn lag_ms(&self) -> f64 {
        (self.sent_s - self.due_s) * 1e3
    }
}

/// Evenly spaced due times for `n` requests at `rate` per second.
pub fn even_schedule(n: usize, rate: f64) -> Vec<f64> {
    (0..n).map(|i| i as f64 / rate).collect()
}

/// Send every planned `POST /run` to `addr` on schedule over at most
/// `conns` connections and return the outcomes in plan order.
pub fn open_loop(addr: &str, plan: &[Planned], conns: usize, timeout_ms: u64) -> Vec<Outcome> {
    // A short lead so every thread is parked before the first due time.
    let origin = Instant::now() + Duration::from_millis(20);
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Outcome)>> = Mutex::new(Vec::with_capacity(plan.len()));
    std::thread::scope(|s| {
        for _ in 0..conns.max(1) {
            s.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = plan.get(i) else { break };
                    let due = origin + Duration::from_secs_f64(p.due_s);
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let res =
                        mtvp_serve::http_request(addr, "POST", "/run", Some(&p.body), timeout_ms);
                    let done = Instant::now();
                    let since = |t: Instant| t.saturating_duration_since(origin).as_secs_f64();
                    let (status, body) = res.unwrap_or_else(|e| (0, e));
                    mine.push((
                        i,
                        Outcome {
                            due_s: p.due_s,
                            sent_s: since(sent),
                            done_s: since(done),
                            status,
                            body,
                        },
                    ));
                }
                results.lock().expect("results lock").extend(mine);
            });
        }
    });
    let mut all = results.into_inner().expect("results lock");
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, o)| o).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_timed_from_the_due_time() {
        let o = Outcome {
            due_s: 1.0,
            sent_s: 1.004,
            done_s: 1.010,
            status: 200,
            body: String::new(),
        };
        assert!((o.latency_ms() - 10.0).abs() < 1e-9);
        assert!((o.lag_ms() - 4.0).abs() < 1e-9);
        let failed = Outcome { status: 503, ..o };
        assert!(failed.latency_ms().is_infinite());
        assert_eq!(even_schedule(3, 4.0), [0.0, 0.25, 0.5]);
    }
}
