//! Traffic accounting used by the network-overhead experiment (§6.7).

/// Per-node traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeStats {
    /// Packets sent (including ones the loss model later dropped).
    pub tx_packets: u64,
    /// Bytes sent.
    pub tx_bytes: u64,
    /// Packets received.
    pub rx_packets: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Packets dropped by the loss model on links where this node was the sender.
    pub dropped: u64,
}

impl NodeStats {
    /// Average sending rate in kilobits per second over `duration_us`
    /// microseconds of simulated time.
    pub fn tx_kbps(&self, duration_us: u64) -> f64 {
        if duration_us == 0 {
            return 0.0;
        }
        let bits = self.tx_bytes as f64 * 8.0;
        let seconds = duration_us as f64 / 1_000_000.0;
        bits / seconds / 1000.0
    }
}

/// A labelled traffic comparison row, e.g. "bare-hw" vs "avmm-rsa768"
/// (paper §6.7 reports 22 kbps vs 215.5 kbps).
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficReport {
    /// Configuration label.
    pub label: String,
    /// Measured statistics.
    pub stats: NodeStats,
    /// Duration of the measurement in simulated microseconds.
    pub duration_us: u64,
}

impl TrafficReport {
    /// Sending rate in kbps.
    pub fn kbps(&self) -> f64 {
        self.stats.tx_kbps(self.duration_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kbps_computation() {
        let stats = NodeStats {
            tx_bytes: 125_000, // 1 Mbit
            tx_packets: 100,
            ..Default::default()
        };
        // Over one second: 1000 kbps.
        assert!((stats.tx_kbps(1_000_000) - 1000.0).abs() < 1e-9);
        assert_eq!(stats.tx_kbps(0), 0.0);
    }

    #[test]
    fn traffic_report_rate() {
        let report = TrafficReport {
            label: "avmm-rsa768".to_string(),
            stats: NodeStats {
                tx_bytes: 26_937, // ~215.5 kbps over 1 s
                ..Default::default()
            },
            duration_us: 1_000_000,
        };
        assert!((report.kbps() - 215.496).abs() < 0.01);
    }
}
