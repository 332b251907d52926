//! # viprof — Vertically Integrated Profiler
//!
//! The paper's contribution: a set of OProfile extensions that make
//! samples from dynamically generated (JIT) code and from a Java-in-Java
//! VM's boot image attributable to *methods*, unified with kernel,
//! native-library and VM-internal samples in one profile.
//!
//! The three mechanisms, mapped to modules:
//!
//! * **Runtime Profiler** ([`runtime`] + [`registry`]) — the VM
//!   registers its PID and heap boundaries; the extended NMI logging
//!   path consults the registration *before* the anonymous-region
//!   fallback and logs hits as `JIT.App` samples tagged with the current
//!   GC epoch (paper §3).
//! * **VM Agent** ([`agent`] + [`codemap`]) — hooks in the VM's
//!   compile/recompile path log fresh code bodies; the GC move hook only
//!   *flags* moved bodies; just before each collection the agent writes
//!   a partial code map for the ending epoch (§3.1).
//! * **Post-processing** ([`resolve`], [`bootmap`], [`engine`]) —
//!   samples are resolved against their epoch's code map, walking
//!   backwards through earlier maps until the most recent occupant of
//!   that address is found; boot-image samples are resolved through the
//!   VM build's `RVM.map` (§3.2).
//!
//! [`resolve`] only loads the maps. The one production resolution path
//! flattens each pid's epoch chain into a [`flatindex::FlatIndex`] (one
//! binary search per sample instead of a per-epoch walk) and resolves
//! contiguous shards of the sample database's sorted buckets on scoped
//! threads ([`engine::ResolutionEngine`]) — with results bit-identical
//! to the per-bucket walk kept as the test oracle in
//! `tests/support/oracle.rs`.
//!
//! [`session::Viprof`] wires everything together; [`callgraph`] adds the
//! cross-layer call-sequence profiles §4.2 mentions; [`xen`] implements
//! the §5 future work (hypervisor layer + multiple concurrent stacks,
//! XenoProf-style). The `viprof` binary post-processes exported
//! sessions offline, like `opreport` after `opcontrol --stop`.

pub mod agent;
pub mod bootmap;
pub mod callgraph;
pub mod codemap;
pub mod engine;
pub mod error;
pub mod faults;
pub mod flatindex;
pub mod live;
pub mod recover;
pub mod registry;
pub mod resolve;
pub mod runtime;
pub mod session;
pub mod xen;

pub use agent::{AgentCounters, AgentStats, MapFaultStats, MapFaults, VmAgent};
pub use bootmap::BootMap;
pub use callgraph::CallGraph;
pub use codemap::{CodeMapEntry, CodeMapSet, EpochMap, MapEntry, ParsedMap, Symbols, JIT_MAP_DIR};
pub use engine::{ResolutionEngine, ShardPoison};
pub use error::ViprofError;
pub use faults::{ChurnSchedule, FaultPlan, FaultReport};
pub use flatindex::FlatIndex;
pub use live::{LiveEngine, LiveSpec};
pub use recover::{recover_codemaps, recover_sample_db, PidRecovery, RecoveredDb, RecoveryReport};
pub use registry::{JitRegistry, RegisterOutcome, SharedRegistry};
pub use resolve::{IncarnationSummary, ResolutionQuality, ResolveOptions, ViprofResolver};
pub use runtime::ViprofExtension;
pub use session::{
    FileDigest, ReportSpec, SessionBuilder, SessionReport, Viprof, SESSION_MANIFEST,
    SESSION_META_IMAGES, SESSION_META_PROCESSES,
};
pub use xen::{DomainId, DomainTable, Hypervisor, XenScheduler};
