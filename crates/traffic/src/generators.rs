//! Packet-arrival generators for multimedia flows.

use mtnet_sim::{RngStream, SimDuration};

/// One generated packet arrival: the gap since the previous packet and the
/// payload size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Inter-arrival gap.
    pub gap: SimDuration,
    /// Payload size in bytes.
    pub bytes: u32,
}

/// A source of packet arrivals. Implementations draw all randomness from
/// the provided stream, so flows are independently reproducible.
pub trait ArrivalProcess {
    /// Produces the next arrival.
    fn next_arrival(&mut self, rng: &mut RngStream) -> Arrival;
}

/// Constant-bit-rate traffic: fixed packet size at fixed intervals.
/// Models telephony voice (G.711-style) and is the most
/// handoff-loss-sensitive workload in the reproduction.
#[derive(Debug, Clone, Copy)]
pub struct Cbr {
    interval: SimDuration,
    bytes: u32,
}

impl Cbr {
    /// Creates a CBR source emitting `bytes` every `interval`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or `bytes` is zero.
    pub fn new(interval: SimDuration, bytes: u32) -> Self {
        assert!(!interval.is_zero(), "interval must be positive");
        assert!(bytes > 0, "packet size must be positive");
        Cbr { interval, bytes }
    }

    /// 64 kbit/s voice: 160-byte frames every 20 ms.
    pub fn voice() -> Self {
        Cbr::new(SimDuration::from_millis(20), 160)
    }
}

impl ArrivalProcess for Cbr {
    fn next_arrival(&mut self, _rng: &mut RngStream) -> Arrival {
        Arrival {
            gap: self.interval,
            bytes: self.bytes,
        }
    }
}

/// Exponential on/off VBR traffic: bursts of CBR packets (talkspurts /
/// video GOPs) separated by silent gaps. The standard packet-voice/video
/// model of the Mobile-IP era evaluations.
#[derive(Debug, Clone, Copy)]
pub struct OnOffVbr {
    /// Packet spacing while ON.
    interval: SimDuration,
    bytes: u32,
    mean_on: f64,
    mean_off: f64,
    /// Remaining ON time before the next silence, in seconds.
    on_remaining: f64,
}

impl OnOffVbr {
    /// Creates an on/off source: while ON, emits `bytes` every `interval`;
    /// ON periods are exponential with mean `mean_on_secs`, OFF periods
    /// exponential with mean `mean_off_secs`.
    ///
    /// # Panics
    ///
    /// Panics on non-positive parameters.
    pub fn new(interval: SimDuration, bytes: u32, mean_on_secs: f64, mean_off_secs: f64) -> Self {
        assert!(!interval.is_zero() && bytes > 0, "bad packet parameters");
        assert!(
            mean_on_secs > 0.0 && mean_off_secs > 0.0,
            "bad on/off means"
        );
        OnOffVbr {
            interval,
            bytes,
            mean_on: mean_on_secs,
            mean_off: mean_off_secs,
            on_remaining: 0.0,
        }
    }

    /// A 384 kbit/s-peak video source with 1 s talkspurts and 0.5 s gaps:
    /// 480-byte packets every 10 ms while ON.
    pub fn video() -> Self {
        OnOffVbr::new(SimDuration::from_millis(10), 480, 1.0, 0.5)
    }
}

impl ArrivalProcess for OnOffVbr {
    fn next_arrival(&mut self, rng: &mut RngStream) -> Arrival {
        let step = self.interval.as_secs_f64();
        if self.on_remaining >= step {
            self.on_remaining -= step;
            return Arrival {
                gap: self.interval,
                bytes: self.bytes,
            };
        }
        // Burst exhausted: silence, then a fresh burst starts.
        let off = rng.exponential(self.mean_off);
        self.on_remaining = rng.exponential(self.mean_on);
        Arrival {
            gap: SimDuration::from_secs_f64(self.on_remaining.mul_add(0.0, off) + step),
            bytes: self.bytes,
        }
    }
}

/// Heavy-tailed web/data traffic: Pareto-distributed burst sizes fetched at
/// link pace, separated by exponential think times. Supplies the
/// "mobile Internet" background load of the paper's §1 motivation.
#[derive(Debug, Clone, Copy)]
pub struct ParetoWeb {
    /// Mean think time between fetches, seconds.
    mean_think: f64,
    /// Pareto scale (minimum burst) in bytes.
    min_burst: f64,
    /// Pareto shape; 1 < alpha <= 2 gives the heavy tail seen in traffic
    /// studies.
    alpha: f64,
    /// MTU-sized packets the burst is chopped into.
    mtu: u32,
    /// Bytes still to emit from the current burst.
    burst_remaining: u64,
    /// Packet spacing within a burst.
    in_burst_gap: SimDuration,
}

impl ParetoWeb {
    /// Creates a web source.
    ///
    /// # Panics
    ///
    /// Panics on non-positive parameters or `alpha <= 1` (infinite mean).
    pub fn new(mean_think_secs: f64, min_burst_bytes: f64, alpha: f64, mtu: u32) -> Self {
        assert!(
            mean_think_secs > 0.0 && min_burst_bytes > 0.0 && mtu > 0,
            "bad parameters"
        );
        assert!(alpha > 1.0, "alpha must exceed 1 for a finite mean");
        ParetoWeb {
            mean_think: mean_think_secs,
            min_burst: min_burst_bytes,
            alpha,
            mtu,
            burst_remaining: 0,
            in_burst_gap: SimDuration::from_millis(2),
        }
    }

    /// Typical browsing: 10 s think time, 12 KiB minimum page, alpha 1.5,
    /// 1400-byte packets.
    pub fn browsing() -> Self {
        ParetoWeb::new(10.0, 12.0 * 1024.0, 1.5, 1400)
    }

    /// Mean burst size in bytes.
    fn mean_burst_bytes(&self) -> f64 {
        self.min_burst * self.alpha / (self.alpha - 1.0)
    }
}

impl ArrivalProcess for ParetoWeb {
    fn next_arrival(&mut self, rng: &mut RngStream) -> Arrival {
        if self.burst_remaining == 0 {
            let think = rng.exponential(self.mean_think);
            // Cap single bursts at 100x the mean so one astronomically rare
            // draw cannot dominate an entire experiment run.
            let cap = self.mean_burst_bytes() * 100.0;
            let burst = rng.pareto(self.min_burst, self.alpha).min(cap);
            self.burst_remaining = burst as u64;
            let bytes = self.burst_remaining.min(u64::from(self.mtu)) as u32;
            self.burst_remaining -= u64::from(bytes);
            return Arrival {
                gap: SimDuration::from_secs_f64(think),
                bytes,
            };
        }
        let bytes = self.burst_remaining.min(u64::from(self.mtu)) as u32;
        self.burst_remaining -= u64::from(bytes);
        Arrival {
            gap: self.in_burst_gap,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> RngStream {
        RngStream::derive(17, "traffic-test")
    }

    #[test]
    fn cbr_is_perfectly_regular() {
        let mut c = Cbr::voice();
        let mut r = rng();
        for _ in 0..100 {
            let a = c.next_arrival(&mut r);
            assert_eq!(a.gap, SimDuration::from_millis(20));
            assert_eq!(a.bytes, 160);
        }
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn cbr_zero_interval_rejected() {
        Cbr::new(SimDuration::ZERO, 100);
    }

    #[test]
    fn onoff_long_run_rate_close_to_mean() {
        let mut v = OnOffVbr::video();
        let mut r = rng();
        let mut total_bits = 0.0;
        let mut total_secs = 0.0;
        for _ in 0..200_000 {
            let a = v.next_arrival(&mut r);
            total_bits += f64::from(a.bytes) * 8.0;
            total_secs += a.gap.as_secs_f64();
        }
        let measured = total_bits / total_secs;
        // 384 kbit/s while ON, ON for 1 s of every 1.5 s on average.
        let expected = 384_000.0 * 1.0 / (1.0 + 0.5);
        let err = (measured - expected).abs() / expected;
        assert!(
            err < 0.1,
            "measured {measured:.0} vs expected {expected:.0}"
        );
    }

    #[test]
    fn onoff_has_bursts_and_gaps() {
        let mut v = OnOffVbr::video();
        let mut r = rng();
        let gaps: Vec<f64> = (0..10_000)
            .map(|_| v.next_arrival(&mut r).gap.as_secs_f64())
            .collect();
        let short = gaps.iter().filter(|&&g| g < 0.011).count();
        let long = gaps.iter().filter(|&&g| g > 0.1).count();
        assert!(
            short > 5_000,
            "expected mostly in-burst packets, got {short}"
        );
        assert!(long > 50, "expected some silences, got {long}");
    }

    #[test]
    #[should_panic(expected = "bad on/off means")]
    fn onoff_bad_means_rejected() {
        OnOffVbr::new(SimDuration::from_millis(10), 100, 0.0, 1.0);
    }

    #[test]
    fn pareto_bursts_chop_into_mtu() {
        let mut w = ParetoWeb::browsing();
        let mut r = rng();
        // First arrival opens a burst after a think time.
        let first = w.next_arrival(&mut r);
        assert!(first.gap.as_secs_f64() > 0.01, "think time expected");
        assert!(first.bytes <= 1400);
        // Continuation packets come fast.
        let mut saw_continuation = false;
        for _ in 0..50 {
            let a = w.next_arrival(&mut r);
            assert!(a.bytes <= 1400);
            if a.gap == SimDuration::from_millis(2) {
                saw_continuation = true;
            }
        }
        assert!(saw_continuation, "bursts should span multiple packets");
    }

    #[test]
    fn pareto_mean_burst_formula() {
        let w = ParetoWeb::new(1.0, 1000.0, 2.0, 500);
        assert_eq!(w.mean_burst_bytes(), 2000.0);
    }

    #[test]
    fn pareto_min_burst_respected() {
        let mut w = ParetoWeb::new(0.1, 5000.0, 1.5, 10_000);
        let mut r = rng();
        // Burst opener carries min(burst, mtu); burst >= 5000 so the opener
        // is at least min_burst when mtu allows.
        let a = w.next_arrival(&mut r);
        assert!(a.bytes >= 5000);
    }

    #[test]
    #[should_panic(expected = "alpha must exceed 1")]
    fn pareto_alpha_validation() {
        ParetoWeb::new(1.0, 100.0, 1.0, 100);
    }

    #[test]
    fn generators_deterministic_per_stream() {
        let run = || {
            let mut v = OnOffVbr::video();
            let mut r = RngStream::derive(5, "det");
            (0..100)
                .map(|_| v.next_arrival(&mut r).gap.as_nanos())
                .sum::<u64>()
        };
        assert_eq!(run(), run());
    }
}
