//! Disk timing model.
//!
//! The paper's testbed stores data on a 256 GB SATA SSD (§7). We model the
//! device with a fixed access latency plus sequential streaming bandwidth —
//! the two parameters that matter for page-granular reads. Cold-cache
//! experiments are dominated by this model; warm-cache experiments never
//! touch it for the resident tables.

/// Simulated seconds.
pub type Seconds = f64;

/// A simple latency + bandwidth storage device.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DiskModel {
    /// Sustained sequential read bandwidth, bytes/second.
    pub seq_read_bandwidth: f64,
    /// Per-request access latency in seconds (queueing + device).
    pub access_latency: Seconds,
}

impl DiskModel {
    /// SATA-SSD-class device matching the paper's testbed: ~500 MB/s
    /// sequential reads, 100 µs access latency.
    pub fn ssd() -> DiskModel {
        DiskModel {
            seq_read_bandwidth: 500.0e6,
            access_latency: 100.0e-6,
        }
    }

    /// An infinitely fast device (isolates CPU/FPGA effects in tests).
    pub fn instant() -> DiskModel {
        DiskModel {
            seq_read_bandwidth: f64::INFINITY,
            access_latency: 0.0,
        }
    }

    /// Time to read `bytes` in one request: one access latency, then
    /// bandwidth-bound. A page miss passes one page; a cold sequential
    /// table scan passes the whole table.
    pub fn read_time(&self, bytes: u64) -> Seconds {
        if bytes == 0 {
            return 0.0;
        }
        self.access_latency + bytes as f64 / self.seq_read_bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssd_reads_32kb_page() {
        let d = DiskModel::ssd();
        let t = d.read_time(32 * 1024);
        // 100 µs latency + 32 KiB / 500 MB/s ≈ 100 µs + 65.5 µs
        assert!(t > 100.0e-6 && t < 200.0e-6, "t = {t}");
    }

    #[test]
    fn sequential_beats_random() {
        let d = DiskModel::ssd();
        let pages = 1000u64;
        let page = 32 * 1024u64;
        let seq = d.read_time(pages * page);
        let random: f64 = (0..pages).map(|_| d.read_time(page)).sum();
        assert!(seq < random);
        assert!(seq >= (pages * page) as f64 / d.seq_read_bandwidth);
    }

    #[test]
    fn instant_disk_is_free() {
        let d = DiskModel::instant();
        assert_eq!(d.read_time(1 << 30), 0.0);
    }

    #[test]
    fn zero_bytes_cost_nothing() {
        assert_eq!(DiskModel::ssd().read_time(0), 0.0);
    }
}
