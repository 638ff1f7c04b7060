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
