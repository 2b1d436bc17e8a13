//! TCP transfer-time model: Cardwell-style slow start for short flows
//! ("short TCP transfers are dominated by latency", §7.1 citing \[8\])
//! combined with the PFTK steady-state throughput model (\[37\]) that the
//! paper's CDN study uses to pick replicas for large files.

use inano_model::{LatencyMs, LossRate};

/// Maximum segment size in bytes.
pub const MSS: f64 = 1460.0;
/// Initial congestion window in segments.
pub const INIT_CWND: f64 = 4.0;
/// Receiver-window cap in segments.
pub const MAX_CWND: f64 = 64.0;
/// Delayed-ACK factor `b` in the PFTK formula.
const B_ACK: f64 = 2.0;

/// PFTK steady-state throughput in bytes/second for a path with round
/// trip `rtt` and loss rate `p` (equation from Padhye et al., simplified
/// full model; capped by the receiver window).
pub fn pftk_throughput(rtt: LatencyMs, loss: LossRate) -> f64 {
    let rtt_s = (rtt.ms() / 1000.0).max(1e-4);
    let p = loss.rate();
    if p <= 0.0 {
        return MAX_CWND * MSS / rtt_s;
    }
    let rto = (4.0 * rtt_s).max(0.2); // typical RTO floor of 200 ms
    let term1 = rtt_s * (2.0 * B_ACK * p / 3.0).sqrt();
    let term2 = rto * (3.0 * (3.0 * B_ACK * p / 8.0).sqrt()).min(1.0) * p * (1.0 + 32.0 * p * p);
    let rate = MSS / (term1 + term2);
    rate.min(MAX_CWND * MSS / rtt_s)
}

/// Expected transfer time in seconds for `bytes` over a path with RTT
/// `rtt` and loss `loss`:
///
/// * connection setup (one RTT);
/// * loss-free slow start from [`INIT_CWND`], doubling per round, until
///   either the transfer completes or the window reaches what the PFTK
///   rate sustains;
/// * the remainder at the PFTK steady-state rate.
pub fn transfer_time_secs(bytes: f64, rtt: LatencyMs, loss: LossRate) -> f64 {
    let rtt_s = (rtt.ms() / 1000.0).max(1e-4);
    let mut remaining = (bytes / MSS).ceil().max(1.0); // segments
    let mut time = rtt_s; // SYN/SYN-ACK

    let steady_rate = pftk_throughput(rtt, loss); // bytes/s
    let steady_cwnd = (steady_rate * rtt_s / MSS).max(1.0);

    // Slow start: each round sends cwnd segments and costs one RTT.
    let mut cwnd = INIT_CWND;
    while remaining > 0.0 && cwnd < steady_cwnd.min(MAX_CWND) {
        let sent = cwnd.min(remaining);
        remaining -= sent;
        time += rtt_s;
        cwnd *= 2.0;
    }
    if remaining > 0.0 {
        time += remaining * MSS / steady_rate;
    }
    time
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_flows_dominated_by_latency() {
        // A 30KB transfer: halving RTT should roughly halve the time,
        // regardless of (small) loss.
        let t_fast = transfer_time_secs(30_000.0, LatencyMs::new(20.0), LossRate::ZERO);
        let t_slow = transfer_time_secs(30_000.0, LatencyMs::new(200.0), LossRate::ZERO);
        assert!(t_slow > 5.0 * t_fast, "{t_slow} vs {t_fast}");
    }

    #[test]
    fn loss_hurts_large_flows_more_than_small() {
        let small_clean = transfer_time_secs(30_000.0, LatencyMs::new(50.0), LossRate::ZERO);
        let small_lossy = transfer_time_secs(30_000.0, LatencyMs::new(50.0), LossRate::new(0.02));
        let large_clean = transfer_time_secs(1_500_000.0, LatencyMs::new(50.0), LossRate::ZERO);
        let large_lossy =
            transfer_time_secs(1_500_000.0, LatencyMs::new(50.0), LossRate::new(0.02));
        let small_penalty = small_lossy / small_clean;
        let large_penalty = large_lossy / large_clean;
        assert!(
            large_penalty > small_penalty * 1.5,
            "large {large_penalty} vs small {small_penalty}"
        );
    }

    #[test]
    fn pftk_decreases_with_loss_and_rtt() {
        let base = pftk_throughput(LatencyMs::new(50.0), LossRate::new(0.01));
        assert!(pftk_throughput(LatencyMs::new(100.0), LossRate::new(0.01)) < base);
        assert!(pftk_throughput(LatencyMs::new(50.0), LossRate::new(0.05)) < base);
    }

    #[test]
    fn zero_loss_is_window_limited() {
        let rate = pftk_throughput(LatencyMs::new(100.0), LossRate::ZERO);
        assert!((rate - MAX_CWND * MSS / 0.1).abs() < 1.0);
    }

    #[test]
    fn transfer_time_is_monotone_in_size() {
        let rtt = LatencyMs::new(80.0);
        let loss = LossRate::new(0.01);
        let mut prev = 0.0;
        for kb in [1.0, 10.0, 100.0, 1000.0] {
            let t = transfer_time_secs(kb * 1000.0, rtt, loss);
            assert!(t > prev);
            prev = t;
        }
    }
}
