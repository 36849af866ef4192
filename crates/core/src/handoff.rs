//! The handoff strategy of §3.2: mobile-controlled tier selection from
//! three factors (speed, signal power, BS resources) plus the five-case
//! classification of Figs 3.2–3.4.

mod classify;
mod decision;

pub use classify::{classify, HandoffType};
pub use decision::{
    Candidate, CurrentAttachment, DecisionConfig, HandoffDecision, HandoffEngine, HandoffFactors,
    StayGuard,
};
