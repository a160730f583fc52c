//! Trace characterisation — reproduces Table I.

use crate::record::{Op, Trace};
use kdd_util::hash::FastSet;

/// The statistics Table I reports per workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceStats {
    /// Unique pages touched by any request.
    pub unique_total: u64,
    /// Unique pages touched by reads.
    pub unique_read: u64,
    /// Unique pages touched by writes.
    pub unique_write: u64,
    /// Read request count.
    pub read_requests: u64,
    /// Write request count.
    pub write_requests: u64,
}

impl TraceStats {
    /// Scan a trace and collect Table I statistics.
    pub fn compute(trace: &Trace) -> TraceStats {
        let mut read_pages: FastSet<u64> = FastSet::default();
        let mut write_pages: FastSet<u64> = FastSet::default();
        let mut s = TraceStats::default();
        for r in &trace.records {
            match r.op {
                Op::Read => {
                    s.read_requests += 1;
                    read_pages.extend(r.pages());
                }
                Op::Write => {
                    s.write_requests += 1;
                    write_pages.extend(r.pages());
                }
            }
        }
        s.unique_read = read_pages.len() as u64;
        s.unique_write = write_pages.len() as u64;
        write_pages.extend(read_pages);
        s.unique_total = write_pages.len() as u64;
        s
    }

    /// Read fraction of all requests (Table I's "Read Ratio"). Routed
    /// through [`kdd_obs::frac`] so the empty case is 0.0 uniformly.
    pub fn read_ratio(&self) -> f64 {
        kdd_obs::frac(self.read_requests, self.read_requests + self.write_requests)
    }

    /// Export as a JSON object for `kddtool stats --json`.
    pub fn export(&self, name: &str) -> kdd_obs::Json {
        use kdd_obs::Json;
        kdd_obs::json::obj(vec![
            ("workload", Json::Str(name.to_string())),
            ("unique_total", Json::Num(self.unique_total as f64)),
            ("unique_read", Json::Num(self.unique_read as f64)),
            ("unique_write", Json::Num(self.unique_write as f64)),
            ("read_requests", Json::Num(self.read_requests as f64)),
            ("write_requests", Json::Num(self.write_requests as f64)),
            ("read_ratio", Json::Num(self.read_ratio())),
        ])
    }

    /// Format as a Table I row: counts in thousands, like the paper, to
    /// three decimals, so a scaled-down trace's counts under 1 000 show.
    pub fn table_row(&self, name: &str) -> String {
        let k = |n: u64| n as f64 / 1000.0;
        format!(
            "{:<8} {:>8.3} {:>8.3} {:>8.3} {:>9.3} {:>9.3} {:>10.2}",
            name,
            k(self.unique_total),
            k(self.unique_read),
            k(self.unique_write),
            k(self.read_requests),
            k(self.write_requests),
            self.read_ratio()
        )
    }

    /// The Table I header matching [`TraceStats::table_row`].
    pub fn table_header() -> String {
        format!(
            "{:<8} {:>8} {:>8} {:>8} {:>9} {:>9} {:>10}",
            "Workload", "TotalK", "ReadK", "WriteK", "ReadReqK", "WriteReqK", "ReadRatio"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecord;
    use kdd_util::units::SimTime;

    fn rec(op: Op, lba: u64, len: u32) -> TraceRecord {
        TraceRecord { time: SimTime::ZERO, op, lba, len }
    }

    #[test]
    fn counts_unique_and_requests() {
        let mut t = Trace::new(4096);
        t.records = vec![
            rec(Op::Read, 0, 2),  // pages 0,1
            rec(Op::Read, 1, 1),  // page 1 again
            rec(Op::Write, 1, 2), // pages 1,2
            rec(Op::Write, 9, 1),
        ];
        let s = TraceStats::compute(&t);
        assert_eq!(s.read_requests, 2);
        assert_eq!(s.write_requests, 2);
        assert_eq!(s.unique_read, 2); // {0,1}
        assert_eq!(s.unique_write, 3); // {1,2,9}
        assert_eq!(s.unique_total, 4); // {0,1,2,9}
        assert!((s.read_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_trace() {
        let s = TraceStats::compute(&Trace::new(4096));
        assert_eq!(s.unique_total, 0);
        assert_eq!(s.read_ratio(), 0.0);
    }

    #[test]
    fn table_row_formats_thousands() {
        let s = TraceStats {
            unique_total: 993_000,
            unique_read: 331_000,
            unique_write: 966_000,
            read_requests: 1_339_000,
            write_requests: 5_628_000,
        };
        let row = s.table_row("Fin1");
        assert!(row.contains("993"));
        assert!(row.contains("0.19"));
        assert!(TraceStats::table_header().contains("Workload"));
    }

    #[test]
    fn table_row_shows_counts_under_a_thousand() {
        let s = TraceStats {
            unique_total: 812,
            unique_read: 5,
            unique_write: 807,
            read_requests: 40,
            write_requests: 160,
        };
        let row = s.table_row("fin2");
        let cols: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cols, ["fin2", "0.812", "0.005", "0.807", "0.040", "0.160", "0.20"]);
    }
}
