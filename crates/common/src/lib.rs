//! Common kernel types shared by every layer of the REACH active OODBMS.
//!
//! This crate deliberately has no knowledge of storage, objects,
//! transactions or rules; it only provides the vocabulary the other
//! crates speak: strongly-typed identifiers, the unified error type,
//! the virtual clock used for temporal events, rule priorities, the
//! deterministic fault injector, the observability registry
//! ([`obs::MetricsRegistry`]) every layer records into, and the
//! schedule-perturbing synchronization layer ([`sync`]) all crates take
//! their locks from.

#![warn(missing_docs)]

pub mod clock;
pub mod error;
pub mod fault;
pub mod ids;
pub mod metrics;
pub mod obs;
pub mod priority;
pub mod rng;
pub mod sync;

pub use clock::{Clock, TimePoint, VirtualClock};
pub use error::{ReachError, Result};
pub use fault::{FaultInjector, FaultMode, FaultPlan, FaultPoint, WriteOutcome};
pub use ids::{
    shard_of, ClassId, EventTypeId, IdGen, MethodId, ObjectId, PageId, RuleId, Timestamp, TxnId,
};
pub use metrics::{Counter, Histogram, HistogramSnapshot};
pub use obs::{MetricsRegistry, MetricsSnapshot, Stage, StageSnapshot};
pub use priority::Priority;
pub use rng::{announce_seed, seed_from_env, SplitMix64};
