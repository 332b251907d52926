//! # oprofile — the baseline system-wide profiler
//!
//! A faithful model of OProfile 0.9.x, the system VIProf extends:
//!
//! * a **kernel driver** ([`driver::Driver`]) installed as the machine's
//!   NMI handler: programs the counters, and on each overflow resolves
//!   the interrupted PC against the current task's VMA list, classifies
//!   it (kernel text / mapped image / anonymous region) and pushes a
//!   compact sample into a ring buffer;
//! * a **userspace daemon** ([`daemon::Daemon`]) that wakes periodically,
//!   drains the buffer into the sample database and burns its own
//!   (sampled!) cycles — the main source of profiling overhead;
//! * **post-processing** ([`report::opreport`]) that aggregates samples
//!   by image and symbol, the way `opreport --symbols` does.
//!
//! The deliberate limitation the paper attacks is preserved: PCs inside
//! anonymous mappings (JIT code heaps) can only be logged as
//! `anon (range:0x…-0x…)`, and the boot image of a Java-in-Java VM shows
//! up as `RVM.code.image (no symbols)` (Figure 1, lower half). VIProf
//! plugs in through the [`anon::AnonExtension`] seam.

pub mod anon;
pub mod buffer;
pub mod config;
pub mod daemon;
pub mod driver;
pub mod faults;
pub mod governor;
pub mod report;
pub mod samples;
pub mod session;
pub mod supervisor;

pub use anon::{AnonExtension, AnonTable, JitClaim, NoExtension};
pub use buffer::RingBuffer;
pub use config::OpConfig;
pub use daemon::Daemon;
pub use driver::{Driver, DriverStats};
pub use faults::{DaemonFaultStats, DaemonFaults, DriverFaultStats, DriverFaults, FaultVerdict};
pub use governor::{DeadlineVerdict, Governor, GovernorConfig, GovernorDecision};
pub use report::{opreport, Report, ReportOptions, ReportRow};
pub use samples::{SampleAccumulator, SampleBucket, SampleDb, SampleOrigin};
pub use session::{
    Oprofile, SAMPLES_PATH, SAMPLE_JOURNAL_PATH, TELEMETRY_PATH, TIMELINE_PATH, TRACE_PATH,
};
pub use supervisor::{Supervisor, SupervisorConfig, SupervisorCounters, SupervisorStats};
