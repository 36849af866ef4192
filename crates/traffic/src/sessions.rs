//! Poisson session (call) arrivals with exponential holding times.

use mtnet_sim::{RngStream, SimDuration, SimTime};

/// A session lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEvent {
    /// A new call starts (admission should be attempted).
    Start {
        /// Monotone session index.
        session: u64,
        /// Holding time if admitted.
        duration: SimDuration,
    },
}

/// Generates Poisson call arrivals with exponential holding times — the
/// classic Erlang offered-load model used for blocking-probability
/// experiments (paper §3.2 factor 3: "the resources of BS").
///
/// ```
/// use mtnet_traffic::SessionProcess;
/// use mtnet_sim::{RngStream, SimTime};
/// let mut calls = SessionProcess::new(0.5, 120.0); // 0.5 calls/s, 2 min mean
/// assert!((calls.offered_erlangs() - 60.0).abs() < 1e-9);
/// let mut rng = RngStream::derive(1, "calls");
/// let (t, ev) = calls.next_session(SimTime::ZERO, &mut rng);
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SessionProcess {
    arrival_rate: f64,
    mean_holding_secs: f64,
    next_index: u64,
}

impl SessionProcess {
    /// Creates a process with `arrival_rate` calls per second and
    /// `mean_holding_secs` mean call duration.
    ///
    /// # Panics
    ///
    /// Panics on non-positive parameters.
    pub fn new(arrival_rate: f64, mean_holding_secs: f64) -> Self {
        assert!(
            arrival_rate > 0.0 && mean_holding_secs > 0.0,
            "bad session parameters"
        );
        SessionProcess {
            arrival_rate,
            mean_holding_secs,
            next_index: 0,
        }
    }

    /// Offered load in Erlangs (`rate × holding`).
    pub fn offered_erlangs(&self) -> f64 {
        self.arrival_rate * self.mean_holding_secs
    }

    /// Draws the next session start after `now`. Returns the start time and
    /// the event (carrying the holding time).
    pub fn next_session(&mut self, now: SimTime, rng: &mut RngStream) -> (SimTime, SessionEvent) {
        let gap = rng.exponential(1.0 / self.arrival_rate);
        let duration = rng.exponential(self.mean_holding_secs);
        let session = self.next_index;
        self.next_index += 1;
        (
            now + SimDuration::from_secs_f64(gap),
            SessionEvent::Start {
                session,
                duration: SimDuration::from_secs_f64(duration),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erlang_load() {
        assert_eq!(SessionProcess::new(2.0, 30.0).offered_erlangs(), 60.0);
    }

    #[test]
    fn arrival_rate_statistics() {
        let mut p = SessionProcess::new(10.0, 5.0);
        let mut r = RngStream::derive(2, "sess");
        let mut t = SimTime::ZERO;
        let n = 20_000;
        for _ in 0..n {
            let (next, _) = p.next_session(t, &mut r);
            t = next;
        }
        let rate = n as f64 / (t - SimTime::ZERO).as_secs_f64();
        assert!((rate - 10.0).abs() < 0.3, "measured rate {rate}");
    }

    #[test]
    fn holding_time_statistics() {
        let mut p = SessionProcess::new(1.0, 7.0);
        let mut r = RngStream::derive(3, "hold");
        let n = 20_000;
        let mut total = 0.0;
        for _ in 0..n {
            let (_, SessionEvent::Start { duration, .. }) = p.next_session(SimTime::ZERO, &mut r);
            total += duration.as_secs_f64();
        }
        let mean = total / n as f64;
        assert!((mean - 7.0).abs() < 0.2, "mean holding {mean}");
    }

    #[test]
    fn session_indices_monotone() {
        let mut p = SessionProcess::new(1.0, 1.0);
        let mut r = RngStream::derive(4, "idx");
        let mut last = None;
        for _ in 0..10 {
            let (_, SessionEvent::Start { session, .. }) = p.next_session(SimTime::ZERO, &mut r);
            if let Some(prev) = last {
                assert_eq!(session, prev + 1);
            }
            last = Some(session);
        }
    }

    #[test]
    #[should_panic(expected = "bad session parameters")]
    fn parameter_validation() {
        SessionProcess::new(0.0, 1.0);
    }
}
