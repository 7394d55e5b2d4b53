//! Wireless link model between device and edge.

use serde::{Deserialize, Serialize};

/// A point-to-point wireless link with limited uplink bandwidth.
///
/// The paper simulates network conditions by capping router upload bandwidth
/// at 10 or 40 Mbps; transfer time of a `Communicate` op is
/// `bytes / bandwidth + rtt/2` (one direction), matching the LUT entry
/// construction in Sec. 3.5 ("calculable based on the transfer data size and
/// the available network bandwidth").
///
/// # Example
///
/// ```
/// use gcode_hardware::Link;
///
/// let fast = Link::mbps(40.0);
/// let slow = Link::mbps(10.0);
/// assert!(fast.transfer_time(1_000_000) < slow.transfer_time(1_000_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Uplink/downlink bandwidth in megabits per second.
    pub bandwidth_mbps: f64,
    /// Round-trip time in seconds.
    pub rtt_s: f64,
    /// Compression ratio achieved on transmitted tensors
    /// (compressed = original / ratio). 1.0 disables compression.
    pub compression_ratio: f64,
}

impl Link {
    /// A link with the given bandwidth, 4 ms RTT and a 1.6× ratio on
    /// transmitted tensors (the paper uses zlib). The engine's float codec
    /// measures ~1.88× on the post-ReLU activations it ships — at or above
    /// this default, which `gcode-engine`'s tests hold it to; per-workload
    /// modeled-vs-measured figures are in `docs/BENCHMARKS.md`.
    pub fn mbps(bandwidth_mbps: f64) -> Self {
        Self { bandwidth_mbps, rtt_s: 4e-3, compression_ratio: 1.6 }
    }

    /// The paper's good-network condition (≤ 40 Mbps).
    pub fn wifi_40mbps() -> Self {
        Self::mbps(40.0)
    }

    /// Bytes actually sent on the wire after compression.
    pub fn wire_bytes(&self, payload_bytes: usize) -> f64 {
        payload_bytes as f64 / self.compression_ratio.max(1e-9)
    }

    /// One-way transfer time in seconds for `payload_bytes` of app data.
    pub fn transfer_time(&self, payload_bytes: usize) -> f64 {
        let bits = self.wire_bytes(payload_bytes) * 8.0;
        self.rtt_s / 2.0 + bits / (self.bandwidth_mbps * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_inverse_with_bandwidth() {
        let t10 = Link::mbps(10.0).transfer_time(4_000_000);
        let t40 = Link::wifi_40mbps().transfer_time(4_000_000);
        // Payload-dominated: close to 4x apart.
        assert!(t10 / t40 > 3.5 && t10 / t40 < 4.1);
    }

    #[test]
    fn rtt_floors_small_transfers() {
        let l = Link::wifi_40mbps();
        assert!(l.transfer_time(0) >= l.rtt_s / 2.0);
    }

    #[test]
    fn compression_shrinks_wire_traffic() {
        let mut l = Link::wifi_40mbps();
        let with = l.transfer_time(1_000_000);
        l.compression_ratio = 1.0;
        let without = l.transfer_time(1_000_000);
        assert!(with < without);
    }

    #[test]
    fn known_value_40mbps() {
        let mut l = Link::wifi_40mbps();
        l.compression_ratio = 1.0;
        l.rtt_s = 0.0;
        // 5 MB at 40 Mbps = 1 second.
        let t = l.transfer_time(5_000_000);
        assert!((t - 1.0).abs() < 1e-9);
    }
}
