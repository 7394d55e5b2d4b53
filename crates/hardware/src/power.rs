//! Device-side power model, including the LTE-style communication power
//! model of Huang et al. (MobiSys'12) that the paper cites for `E_comm`.

use crate::Link;
use serde::{Deserialize, Serialize};

/// Power model for a wireless radio: `P = alpha * throughput + beta`.
///
/// Huang et al. fit this linear form for LTE/WiFi radios; the paper plugs it
/// into `E_total = E_idle + E_run + E_comm` (Sec. 3.5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Throughput-proportional transmit power coefficient, W per Mbps.
    pub alpha_w_per_mbps: f64,
    /// Baseline radio power while transmitting, W.
    pub beta_w: f64,
    /// Radio power while receiving, W (reception is cheaper than transmit).
    pub rx_power_w: f64,
}

impl PowerModel {
    /// WiFi radio parameters in the range Huang et al. report.
    pub fn wifi() -> Self {
        Self { alpha_w_per_mbps: 0.28, beta_w: 0.6, rx_power_w: 1.0 }
    }

    /// Transmit power at a given throughput.
    fn tx_power(&self, throughput_mbps: f64) -> f64 {
        self.alpha_w_per_mbps * throughput_mbps + self.beta_w
    }

    /// Energy to transmit `bits` at `throughput_mbps`.
    fn comm_energy(&self, bits: f64, throughput_mbps: f64) -> f64 {
        if bits <= 0.0 {
            return 0.0;
        }
        let seconds = bits / (throughput_mbps * 1e6);
        self.tx_power(throughput_mbps) * seconds
    }

    /// Energy for the device to *send* `payload_bytes` over `link`
    /// (compression included) and then *receive* `recv_bytes` back.
    ///
    /// # Example
    ///
    /// ```
    /// use gcode_hardware::{Link, PowerModel};
    ///
    /// let pm = PowerModel::wifi();
    /// let e = pm.device_comm_energy(&Link::wifi_40mbps(), 1_000_000, 0);
    /// assert!(e > 0.0);
    /// ```
    pub fn device_comm_energy(&self, link: &Link, sent_bytes: usize, recv_bytes: usize) -> f64 {
        let tx_bits = link.wire_bytes(sent_bytes) * 8.0;
        let rx_bits = link.wire_bytes(recv_bytes) * 8.0;
        let tx = self.comm_energy(tx_bits, link.bandwidth_mbps);
        let rx_seconds = rx_bits / (link.bandwidth_mbps * 1e6);
        tx + self.rx_power_w * rx_seconds
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::wifi()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_power_linear_in_throughput() {
        let pm = PowerModel::wifi();
        let p10 = pm.tx_power(10.0);
        let p40 = pm.tx_power(40.0);
        assert!((p40 - p10 - 30.0 * pm.alpha_w_per_mbps).abs() < 1e-12);
    }

    #[test]
    fn zero_bits_zero_energy() {
        let pm = PowerModel::wifi();
        assert_eq!(pm.comm_energy(0.0, 40.0), 0.0);
    }

    #[test]
    fn slower_links_cost_more_energy_per_byte() {
        // Same payload: a slower link transmits longer; even though tx power
        // is lower, the fixed beta term makes total energy higher.
        let pm = PowerModel::wifi();
        let e10 = pm.comm_energy(8e6, 10.0);
        let e40 = pm.comm_energy(8e6, 40.0);
        assert!(e10 > e40);
    }

    #[test]
    fn device_comm_energy_counts_both_directions() {
        let pm = PowerModel::wifi();
        let link = Link::wifi_40mbps();
        let tx_only = pm.device_comm_energy(&link, 1_000_000, 0);
        let both = pm.device_comm_energy(&link, 1_000_000, 1_000_000);
        assert!(both > tx_only);
    }
}
