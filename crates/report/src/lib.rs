//! `zerosim-report` — presentation utilities for paper-style output:
//! aligned text tables (with CSV export), terminal sparklines for
//! utilization patterns, scatter plots for trade-off figures, and the
//! paper's number formats.
//!
//! ```
//! use zerosim_report::{sparkline, Table};
//! let mut t = Table::new(vec!["config", "NVLink avg GBps"]);
//! t.row(vec!["PyTorch DDP".into(), "83.0".into()]);
//! println!("{}", t.render());
//! println!("{}", sparkline(&[60.0, 80.0, 95.0, 70.0], Some(100.0)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chart;
mod fmt;
mod table;

pub use chart::{downsample, scatter, sparkline};
pub use fmt::{billions, gb, gbps, tflops};
pub use table::Table;
