//! Token-bucket bandwidth throttle for the device's uplink thread.
//!
//! The paper evaluates under network conditions "simulated by setting upload
//! bandwidth limits at 10 Mbps and 40 Mbps" on the router. On loopback we
//! reproduce that by pacing the sender: each outgoing message consumes
//! tokens refilled at the configured rate, so the engine experiences the
//! same transfer times a capped uplink would impose.

use std::time::{Duration, Instant};

/// A token bucket metering outgoing bytes at a fixed rate.
///
/// # Example
///
/// ```
/// use gcode_engine::Throttle;
///
/// let mut t = Throttle::mbps(40.0);
/// // A 5 KB message at 40 Mbps should take about a millisecond.
/// let wait = t.consume(5_000);
/// assert!(wait <= std::time::Duration::from_millis(2));
/// ```
#[derive(Debug)]
pub struct Throttle {
    bytes_per_sec: f64,
    capacity_bytes: f64,
    tokens: f64,
    last_refill: Instant,
}

impl Throttle {
    /// Creates a throttle for `mbps` megabits per second with a burst
    /// capacity of 32 KiB.
    pub fn mbps(mbps: f64) -> Self {
        Self::new(mbps * 1e6 / 8.0, 32.0 * 1024.0)
    }

    /// Creates a throttle from raw bytes/second and burst capacity.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not strictly positive.
    pub fn new(bytes_per_sec: f64, capacity_bytes: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "throttle rate must be positive");
        Self { bytes_per_sec, capacity_bytes, tokens: capacity_bytes, last_refill: Instant::now() }
    }

    /// Accounts for `bytes` leaving now and returns how long the caller
    /// should sleep before actually writing them. This function does not
    /// sleep itself so it stays testable; use [`Throttle::pace`] in the
    /// uplink thread.
    pub fn consume(&mut self, bytes: usize) -> Duration {
        let now = Instant::now();
        let elapsed = now.duration_since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + elapsed * self.bytes_per_sec).min(self.capacity_bytes);
        self.tokens -= bytes as f64;
        if self.tokens >= 0.0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(-self.tokens / self.bytes_per_sec)
        }
    }

    /// Consumes and actually sleeps out the debt — call before each write.
    pub fn pace(&mut self, bytes: usize) {
        let wait = self.consume(bytes);
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_within_capacity_is_free() {
        let mut t = Throttle::new(1_000_000.0, 10_000.0);
        assert_eq!(t.consume(5_000), Duration::ZERO);
    }

    #[test]
    fn debt_accumulates_past_capacity() {
        let mut t = Throttle::new(1_000_000.0, 1_000.0);
        t.consume(1_000); // drain the bucket
        let wait = t.consume(500_000);
        // 500 KB at 1 MB/s ≈ 0.5 s of debt.
        assert!(wait >= Duration::from_millis(400), "got {wait:?}");
        assert!(wait <= Duration::from_millis(600), "got {wait:?}");
    }

    #[test]
    fn rate_round_trips() {
        let t = Throttle::mbps(40.0);
        assert!((t.bytes_per_sec * 8.0 / 1e6 - 40.0).abs() < 1e-9);
    }

    #[test]
    fn tokens_refill_over_time() {
        let mut t = Throttle::new(10_000_000.0, 1_000.0);
        t.consume(1_000);
        std::thread::sleep(Duration::from_millis(5));
        // 5 ms at 10 MB/s refills ~50 KB, capped at capacity — next small
        // send is free again.
        assert_eq!(t.consume(900), Duration::ZERO);
    }

    #[test]
    fn slower_rate_means_longer_wait() {
        let mut slow = Throttle::new(1_000_000.0, 100.0);
        let mut fast = Throttle::new(10_000_000.0, 100.0);
        slow.consume(100);
        fast.consume(100);
        let ws = slow.consume(100_000);
        let wf = fast.consume(100_000);
        assert!(ws > wf);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = Throttle::new(0.0, 100.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mbps_rejected() {
        let _ = Throttle::mbps(0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn negative_rate_rejected() {
        let _ = Throttle::new(-1.0, 100.0);
    }

    #[test]
    fn burst_capacity_exhaustion_grows_debt_monotonically() {
        // Once the bucket is dry, every further consume deepens the debt:
        // each successive wait must cover everything still owed.
        let mut t = Throttle::new(1_000_000.0, 1_000.0);
        assert_eq!(t.consume(1_000), Duration::ZERO, "burst within capacity is free");
        let mut last = Duration::ZERO;
        for _ in 0..4 {
            let wait = t.consume(100_000);
            assert!(wait > last, "debt must deepen: {wait:?} after {last:?}");
            last = wait;
        }
        // Total owed ≈ 400 KB at 1 MB/s ≈ 0.4 s (minus the instants the
        // loop itself consumed).
        assert!(last >= Duration::from_millis(300), "got {last:?}");
    }

    #[test]
    fn refill_after_idle_is_capped_at_capacity() {
        // A long idle period must not bank more than one bucket of burst:
        // after the free capacity-sized send, the next byte owes time.
        let mut t = Throttle::new(1_000_000.0, 1_000.0);
        t.consume(1_000); // drain
        std::thread::sleep(Duration::from_millis(20)); // would refill 20 KB uncapped
        assert_eq!(t.consume(1_000), Duration::ZERO, "one bucket is free after idle");
        let wait = t.consume(10_000);
        assert!(wait > Duration::ZERO, "beyond capacity the idle credit is gone");
    }

    #[test]
    fn paced_transfer_takes_expected_wall_time() {
        // 200 KB at 8 Mbps (= 1 MB/s) should take ≈ 0.2 s.
        let mut t = Throttle::new(1_000_000.0, 1_024.0);
        let start = Instant::now();
        for _ in 0..20 {
            t.pace(10_000);
        }
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(150), "got {elapsed:?}");
        assert!(elapsed <= Duration::from_millis(400), "got {elapsed:?}");
    }
}
