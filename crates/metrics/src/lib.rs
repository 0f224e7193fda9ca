//! # bneck-metrics
//!
//! Measurement and reporting utilities for the B-Neck experiments:
//!
//! * [`percentile`](mod@percentile) — order statistics (10th/90th percentile, median, mean)
//!   used by the error plots of Figure 7;
//! * [`timeseries`] — interval-binned packet counts used by Figures 6 and 8;
//! * [`error`] — relative-error distributions of assigned versus max-min
//!   rates, at the sources and at the bottleneck links (Experiment 3);
//! * [`report`] — plain-text table / CSV rendering used by the experiment
//!   binaries to print the series behind every figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod percentile;
pub mod report;
pub mod timeseries;

pub use error::{link_stress_errors, rate_errors, ErrorSample};
pub use percentile::{percentile, Summary};
pub use report::Table;
pub use timeseries::{PacketTimeSeries, SeriesRecorder};

/// Commonly used items, suitable for glob import.
pub mod prelude {
    pub use crate::error::{link_stress_errors, rate_errors, ErrorSample};
    pub use crate::percentile::{percentile, Summary};
    pub use crate::report::Table;
    pub use crate::timeseries::{PacketTimeSeries, SeriesRecorder};
}
