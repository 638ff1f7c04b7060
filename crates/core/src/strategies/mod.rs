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
