//! All crawler strategies of Sec 4.3, over the shared engine:
//! the paper's `SB-CLASSIFIER`/`SB-ORACLE` and the six baselines.

mod focused;
mod omniscient;
mod queue;
mod sb;
mod tpoff;
mod tres;
mod value;

pub use focused::FocusedStrategy;
pub use omniscient::OmniscientStrategy;
pub use queue::{Discipline, QueueStrategy};
pub use sb::{SbConfig, SbStrategy};
pub use tpoff::TpOffStrategy;
pub use tres::TresStrategy;
pub use value::{finite_or_zero, ValueStrategy};

use sb_webgraph::UrlId;
use std::cmp::Ordering;

/// A max-heap entry of the priority frontiers (TP-OFF's group benefit,
/// FOCUSED's link score): the highest score first, FIFO among equal
/// scores. FOCUSED's `f32` scores widen exactly, so their order is kept.
#[derive(Debug)]
struct Entry {
    score: f64,
    /// Tie-break: the earlier push wins.
    seq: u64,
    id: UrlId,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score.total_cmp(&other.score).then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// An origin a strategy's `decide` must not reach: past SB's bootstrap, or
/// ever for FOCUSED.
#[cfg(test)]
struct NoOrigin;

#[cfg(test)]
impl sb_httpsim::HttpServer for NoOrigin {
    fn head(&self, url: &str) -> sb_httpsim::HeadResponse {
        panic!("HEAD {url} from decide")
    }

    fn get(&self, url: &str) -> sb_httpsim::Response {
        panic!("GET {url} from decide")
    }
}
