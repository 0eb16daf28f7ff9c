//! The SWAT reproduction's benchmark, as a library so that its tests can
//! run the workloads at smoke size.
//!
//! The benchmark drives the program from outside, through its public API
//! only ([`api`] holds every call). Four workloads cover the serving
//! simulator's kernel (`steady-long`, `decode-backlog`), its elastic
//! controls (`elastic-cells`) and the paper's fused attention datapath
//! (`datapath`). An untraced run reports set-up time, run time and peak
//! memory; a traced run reports per-layer times from spans around each
//! call and from [`clock::HookClock`], a `TraceSink` that timestamps every
//! kernel hook.

pub mod api;
pub mod check;
pub mod clock;
pub mod harness;
pub mod spans;
pub mod workloads;
