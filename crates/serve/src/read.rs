//! The simulated read workload and the staleness instrumentation.
//!
//! `ReadLoad` models the paper's "millions of users" end of the
//! pipeline: `readers` threads issue a seeded Zipf-distributed stream of
//! page reads against the [`SnapshotStore`] while the crawler refreshes
//! it, and every read samples the page's **age** — how many origin
//! epochs the served version lags the evolving site — off the
//! `StaleBoard`. The aggregate age distribution's p50/p99 are the
//! freshness-SLA metric ([`crate::ServeOutcome`]'s `staleness_p50`/`p99`).
//!
//! The vendored `rand` has no Zipf distribution, so [`Zipf`] hand-rolls
//! the standard CDF-inversion sampler: weights `i^-s` over ranks
//! `1..=n`, binary-searched per draw. Rank 0 maps to the store's slot 0
//! (first URL discovered), matching the head-heavy access pattern of
//! real read traffic landing on a crawled corpus.

use crate::store::SnapshotStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Seeded Zipf(s) sampler over ranks `0..n` via CDF inversion.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Panics if `n == 0`. `s = 0` degenerates to uniform.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over an empty support");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += (rank as f64).powf(-s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let x: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < x).min(self.cdf.len() - 1)
    }
}

/// Per-slot staleness marks, written by the serve runtime's oracle and
/// read (one relaxed load) by every reader at sample time. `0` = the stored
/// version matches the live origin; `m > 0` = it diverged when the origin
/// entered epoch `m`.
pub(crate) struct StaleBoard {
    marks: Vec<AtomicU64>,
}

impl StaleBoard {
    pub fn new(n: usize) -> Self {
        StaleBoard {
            marks: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Grows the board to `n` slots (new slots fresh). Requires `&mut`:
    /// only call between read phases.
    pub fn ensure(&mut self, n: usize) {
        while self.marks.len() < n {
            self.marks.push(AtomicU64::new(0));
        }
    }

    pub fn len(&self) -> usize {
        self.marks.len()
    }

    /// Marks `slot` stale as of `epoch` unless it already went stale
    /// earlier (the first divergence epoch is what ages are counted from).
    pub fn mark_stale(&self, slot: usize, epoch: u64) {
        let _ = self.marks[slot].compare_exchange(0, epoch, Relaxed, Relaxed);
    }

    pub fn mark_fresh(&self, slot: usize) {
        self.marks[slot].store(0, Relaxed);
    }

    /// Age-at-read in epochs: `0` when fresh, else how many epochs
    /// (inclusive) the stored copy has lagged the origin by `epoch_now`.
    pub fn age(&self, slot: usize, epoch_now: u64) -> u64 {
        match self.marks[slot].load(Relaxed) {
            0 => 0,
            m => epoch_now.saturating_sub(m) + 1,
        }
    }
}

/// Read workload knobs.
#[derive(Debug, Clone)]
pub struct ReadLoadConfig {
    /// Reader threads.
    pub readers: usize,
    /// Reads each thread issues per refresh epoch.
    pub reads_per_reader: usize,
    /// Zipf exponent of the popularity skew (0 = uniform).
    pub zipf_s: f64,
    /// Base seed; each thread derives its own stream from it.
    pub seed: u64,
}

impl Default for ReadLoadConfig {
    fn default() -> Self {
        ReadLoadConfig {
            readers: 2,
            reads_per_reader: 2_000,
            zipf_s: 1.1,
            seed: 0,
        }
    }
}

/// What a read phase measured.
#[derive(Debug, Clone, Default)]
pub struct ReadReport {
    pub reads: u64,
    /// Reads of URLs the store did not know (0 when sampling store URLs).
    pub misses: u64,
    pub wall_secs: f64,
    /// Achieved read throughput (reads / wall_secs).
    pub qps: f64,
    /// Histogram of age-at-read: `ages[a]` = reads that sampled age `a`.
    pub ages: Vec<u64>,
}

impl ReadReport {
    /// Folds in a *later* phase (the next epoch): walls add.
    pub fn merge(&mut self, other: &ReadReport) {
        self.fold(other, self.wall_secs + other.wall_secs);
    }

    /// Folds in a reader thread that ran *beside* this one: the phase
    /// lasted as long as its longest thread, so `qps` is the store's
    /// throughput rather than the per-thread mean.
    fn join(&mut self, other: &ReadReport) {
        self.fold(other, self.wall_secs.max(other.wall_secs));
    }

    fn fold(&mut self, other: &ReadReport, wall_secs: f64) {
        self.reads += other.reads;
        self.misses += other.misses;
        self.wall_secs = wall_secs;
        if self.ages.len() < other.ages.len() {
            self.ages.resize(other.ages.len(), 0);
        }
        for (a, n) in other.ages.iter().enumerate() {
            self.ages[a] += n;
        }
        self.qps = if self.wall_secs > 0.0 {
            self.reads as f64 / self.wall_secs
        } else {
            0.0
        };
    }

    /// The `q`-th percentile of the age-at-read distribution, in epochs.
    pub fn age_percentile(&self, q: f64) -> f64 {
        percentile_of(&self.ages, q)
    }
}

/// The `q`-th percentile (0..=1) of a count histogram indexed by value.
pub(crate) fn percentile_of(hist: &[u64], q: f64) -> f64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let want = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (age, n) in hist.iter().enumerate() {
        seen += n;
        if seen >= want {
            return age as f64;
        }
    }
    (hist.len() - 1) as f64
}

/// The simulated read workload. [`ReadLoad::run`] drives one phase on
/// the calling scope's threads and joins the per-thread reports on the
/// longest thread's wall.
pub(crate) struct ReadLoad {
    cfg: ReadLoadConfig,
}

impl ReadLoad {
    pub fn new(cfg: ReadLoadConfig) -> Self {
        ReadLoad { cfg }
    }

    /// One read phase against `store`, sampling ages off `board` at
    /// origin epoch `epoch_now`. Blocks until every reader thread drains
    /// its quota; call it concurrently with the refresh drive by spawning
    /// it on its own scope thread.
    pub fn run(&self, store: &SnapshotStore, board: &StaleBoard, epoch_now: u64) -> ReadReport {
        let urls = store.urls();
        if urls.is_empty() || self.cfg.readers == 0 || self.cfg.reads_per_reader == 0 {
            return ReadReport::default();
        }
        let zipf = Zipf::new(urls.len(), self.cfg.zipf_s);
        let mut merged = ReadReport::default();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.cfg.readers)
                .map(|t| {
                    let urls = &urls;
                    let zipf = &zipf;
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(
                            self.cfg.seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        );
                        let mut report = ReadReport::default();
                        let started = std::time::Instant::now();
                        for _ in 0..self.cfg.reads_per_reader {
                            let slot = zipf.sample(&mut rng);
                            report.reads += 1;
                            match store.read(&urls[slot]) {
                                None => report.misses += 1,
                                Some(v) => {
                                    debug_assert!(!v.url.is_empty());
                                    let age = if slot < board.len() {
                                        board.age(slot, epoch_now) as usize
                                    } else {
                                        0
                                    };
                                    if report.ages.len() <= age {
                                        report.ages.resize(age + 1, 0);
                                    }
                                    report.ages[age] += 1;
                                }
                            }
                        }
                        report.wall_secs = started.elapsed().as_secs_f64();
                        report
                    })
                })
                .collect();
            for h in handles {
                merged.join(&h.join().expect("reader thread panicked"));
            }
        });
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_httpsim::Body;

    #[test]
    fn zipf_is_head_heavy_and_deterministic() {
        let z = Zipf::new(100, 1.2);
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        let mut head = 0usize;
        for _ in 0..2_000 {
            let x = z.sample(&mut a);
            assert_eq!(x, z.sample(&mut b), "same seed, same stream");
            assert!(x < 100);
            if x < 10 {
                head += 1;
            }
        }
        // Top 10 % of ranks draw well over half the mass at s = 1.2.
        assert!(head > 1_000, "only {head}/2000 samples in the head");
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let z = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = [0u32; 4];
        for _ in 0..4_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 700), "uniform-ish: {counts:?}");
    }

    #[test]
    fn staleboard_ages() {
        let mut board = StaleBoard::new(2);
        assert_eq!(board.age(0, 5), 0);
        board.mark_stale(0, 3);
        board.mark_stale(0, 4); // keeps the earlier divergence epoch
        assert_eq!(board.age(0, 3), 1);
        assert_eq!(board.age(0, 5), 3);
        board.mark_fresh(0);
        assert_eq!(board.age(0, 5), 0);
        board.ensure(4);
        assert_eq!(board.len(), 4);
        assert_eq!(board.age(3, 9), 0, "grown slots start fresh");
    }

    #[test]
    fn percentiles_of_histogram() {
        // 90 reads at age 0, 9 at age 2, 1 at age 7.
        let mut hist = vec![0u64; 8];
        hist[0] = 90;
        hist[2] = 9;
        hist[7] = 1;
        assert_eq!(percentile_of(&hist, 0.5), 0.0);
        assert_eq!(percentile_of(&hist, 0.95), 2.0);
        assert_eq!(percentile_of(&hist, 0.999), 7.0);
        assert_eq!(percentile_of(&[], 0.5), 0.0);
    }

    #[test]
    fn concurrent_threads_join_on_the_longest_wall_sequential_phases_add() {
        let report = |reads, wall_secs| ReadReport {
            reads,
            wall_secs,
            ..ReadReport::default()
        };
        let mut concurrent = report(10, 1.0);
        concurrent.join(&report(30, 2.0));
        assert_eq!(concurrent.reads, 40);
        assert_eq!(concurrent.wall_secs, 2.0);
        assert_eq!(concurrent.qps, 20.0);
        let mut sequential = report(10, 1.0);
        sequential.merge(&report(30, 2.0));
        assert_eq!(sequential.wall_secs, 3.0);
        assert!((sequential.qps - 40.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn read_load_reports_reads_and_ages() {
        let store = SnapshotStore::new(0);
        for k in 0..5u64 {
            let body = Body::from(vec![k as u8; 8]);
            let hash = sb_revisit::fnv64(body.as_slice());
            store.commit(&format!("https://s/p{k}"), 200, body, hash);
        }
        let board = StaleBoard::new(5);
        board.mark_stale(0, 2);
        let load = ReadLoad::new(ReadLoadConfig {
            readers: 2,
            reads_per_reader: 500,
            zipf_s: 1.0,
            seed: 11,
        });
        let report = load.run(&store, &board, 4);
        assert_eq!(report.reads, 1_000);
        assert_eq!(report.misses, 0);
        assert!(report.qps > 0.0);
        // Slot 0 is the Zipf head and it is 3 epochs stale.
        assert!(report.ages.len() > 3);
        assert!(report.ages[3] > 0, "stale head sampled: {:?}", report.ages);
        assert!(report.age_percentile(0.99) >= report.age_percentile(0.5));
        assert_eq!(store.reads("https://s/p0") > 0, true);
    }
}
