//! Crawl traces: the raw series behind every plot and table of Sec 4.
//!
//! One [`TracePoint`] is recorded after every GET. From the series the
//! harness derives the paper's two efficiency metrics:
//! requests-to-90 %-of-targets (Table 2) and non-target volume before 90 %
//! of target volume (Table 3), plus the Figure 4/7 curves.

/// Cumulative crawl state after one GET.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// GET + HEAD requests so far.
    pub requests: u64,
    pub head_requests: u64,
    /// Volume received from target responses, bytes.
    pub target_bytes: u64,
    /// Volume received from everything else (HTML, errors, headers).
    pub non_target_bytes: u64,
    /// Targets retrieved so far.
    pub targets: u64,
    /// Simulated elapsed seconds (politeness + transfer).
    pub elapsed_secs: f64,
}

/// The full per-request series of one crawl.
#[derive(Debug, Clone, Default)]
pub struct CrawlTrace {
    points: Vec<TracePoint>,
}

impl CrawlTrace {
    pub fn new() -> Self {
        CrawlTrace::default()
    }

    pub fn push(&mut self, p: TracePoint) {
        debug_assert!(
            self.points.last().is_none_or(|l| l.requests <= p.requests),
            "requests must be monotone"
        );
        self.points.push(p);
    }

    /// Re-records the last point in place: same request count, updated
    /// tallies (target-volume tagging re-attributes the bytes of the
    /// request the point describes). Pushes when the trace is empty.
    pub(crate) fn amend_last(&mut self, p: TracePoint) {
        match self.points.last_mut() {
            Some(last) => {
                debug_assert!(last.requests == p.requests, "amend must not change the x-axis");
                *last = p;
            }
            None => self.points.push(p),
        }
    }

    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub fn last(&self) -> Option<&TracePoint> {
        self.points.last()
    }

    /// Total targets retrieved by the end of the crawl.
    pub fn final_targets(&self) -> u64 {
        self.last().map_or(0, |p| p.targets)
    }

    /// Requests needed to reach `fraction` of `total_targets`; `None` if the
    /// crawl never got there (the paper prints `+∞`).
    pub fn requests_to_target_fraction(&self, total_targets: u64, fraction: f64) -> Option<u64> {
        if total_targets == 0 {
            return Some(0);
        }
        let want = (total_targets as f64 * fraction).ceil() as u64;
        self.points.iter().find(|p| p.targets >= want).map(|p| p.requests)
    }

    /// Non-target volume received before reaching `fraction` of
    /// `total_target_volume` bytes of targets; `None` if never reached.
    pub fn non_target_volume_to_target_volume_fraction(
        &self,
        total_target_volume: u64,
        fraction: f64,
    ) -> Option<u64> {
        if total_target_volume == 0 {
            return Some(0);
        }
        let want = (total_target_volume as f64 * fraction).ceil() as u64;
        self.points.iter().find(|p| p.target_bytes >= want).map(|p| p.non_target_bytes)
    }

    /// Down-samples the trace to ≤ `n` points for plotting (keeps endpoints).
    pub fn resampled(&self, n: usize) -> Vec<TracePoint> {
        if self.points.len() <= n || n < 2 {
            return self.points.clone();
        }
        let mut out = Vec::with_capacity(n);
        let step = (self.points.len() - 1) as f64 / (n - 1) as f64;
        for i in 0..n {
            let idx = (i as f64 * step).round() as usize;
            out.push(self.points[idx.min(self.points.len() - 1)]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(requests: u64, targets: u64, tb: u64, nb: u64) -> TracePoint {
        TracePoint {
            requests,
            head_requests: 0,
            target_bytes: tb,
            non_target_bytes: nb,
            targets,
            elapsed_secs: requests as f64,
        }
    }

    fn sample() -> CrawlTrace {
        let mut t = CrawlTrace::new();
        for i in 1..=100u64 {
            // Target every 4th request, 10 bytes per target, 5 per page.
            let targets = i / 4;
            t.push(pt(i, targets, targets * 10, (i - targets) * 5));
        }
        t
    }

    #[test]
    fn requests_to_fraction_basic() {
        let t = sample();
        // 25 total targets; 90% = 23 targets → first point with ≥ 23: i = 92.
        assert_eq!(t.requests_to_target_fraction(25, 0.9), Some(92));
        assert_eq!(t.requests_to_target_fraction(25, 1.0), Some(100));
    }

    #[test]
    fn unreached_fraction_is_none() {
        let t = sample();
        assert_eq!(t.requests_to_target_fraction(1000, 0.9), None);
    }

    #[test]
    fn zero_targets_is_trivially_reached() {
        let t = CrawlTrace::new();
        assert_eq!(t.requests_to_target_fraction(0, 0.9), Some(0));
    }

    #[test]
    fn volume_metric() {
        let t = sample();
        // Total target volume 250; 90% = 225 → targets ≥ 23 → i = 92,
        // non-target bytes = (92-23)*5 = 345.
        assert_eq!(t.non_target_volume_to_target_volume_fraction(250, 0.9), Some(345));
    }

    #[test]
    fn resample_keeps_endpoints() {
        let t = sample();
        let r = t.resampled(10);
        assert_eq!(r.len(), 10);
        assert_eq!(r[0], t.points()[0]);
        assert_eq!(*r.last().unwrap(), *t.points().last().unwrap());
    }

    #[test]
    fn resample_short_trace_is_identity() {
        let t = sample();
        let r = t.resampled(1000);
        assert_eq!(r.len(), t.len());
    }
}
