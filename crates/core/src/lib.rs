//! `reach-core` — the REACH active layer: the paper's primary
//! contribution, integrated with the Open OODB substrate.
//!
//! The layer decomposes exactly as §6 prescribes:
//!
//! * [`event`] — the event model: primitive event types (method,
//!   state-change, flow-control, temporal) and event occurrences with
//!   their parameters (§3.1);
//! * [`coupling`] — the six coupling modes and the **Table 1** validity
//!   matrix of (event category × coupling mode) (§3.2);
//! * [`algebra`] — the composition algebra: sequence, conjunction,
//!   disjunction, negation, closure, history, with validity intervals
//!   (§3.1, §3.3);
//! * [`compositor`] — the "many small compositors": one automaton
//!   instance per (composite type, scope key), fed asynchronously,
//!   garbage-collected when its lifespan ends (§6.3);
//! * [`consumption`] — the SNOOP consumption policies: recent,
//!   chronicle, continuous, cumulative (§3.4);
//! * [`rule`] — ECA rules: priorities, couplings, condition and action
//!   closures (the compiled form of §6.1's rule language);
//! * [`eca`] — the ECA-managers: one per event type, holding the rules
//!   it fires and the composite managers it feeds (§6.3, Figure 2);
//! * [`engine`] — rule firing: serial ring-sequence and parallel
//!   sibling-subtransaction execution, the deferred queue, the four
//!   detached variants with their commit dependencies (§6.4);
//! * [`temporal`] — absolute/periodic/relative temporal events and the
//!   milestone mechanism for time-constrained processing;
//! * [`history`] — distributed per-manager event histories with the
//!   post-commit global history collector (§6.3);
//! * [`reach`] — [`reach::ReachSystem`], the assembled active OODBMS.

pub mod algebra;
pub mod compositor;
pub mod consumption;
pub mod coupling;
pub mod eca;
pub mod engine;
pub mod event;
pub mod history;
pub mod oracle;
pub mod reach;
pub mod rule;
pub mod temporal;

pub use algebra::{CompositionScope, Correlation, EventExpr, Lifespan};
pub use consumption::ConsumptionPolicy;
pub use coupling::{supported, CouplingMode, EventCategory};
pub use engine::{
    DeadLetter, ExecutionStrategy, FiringListener, FiringNotice, RetryPolicy, TieBreak,
};
pub use event::{EventData, EventOccurrence, EventSpec, PrimitiveEvent};
pub use reach::{ReachConfig, ReachSystem};
pub use rule::{Rule, RuleBuilder, RuleCtx};
