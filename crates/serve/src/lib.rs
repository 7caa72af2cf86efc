//! # simt-omp-serve — the multi-tenant launch service
//!
//! Everything below the launch boundary (bytecode engine, memory model,
//! virtual timeline) is fast and deterministic; this crate is the traffic
//! layer above it: N client handles submit kernel jobs against a fleet of
//! simulated devices, and the service amortizes, schedules, and accounts
//! for them. It is the serving-side analogue of what the paper's runtime
//! does per kernel — pay setup once, make the steady-state path cheap.
//!
//! The moving parts, one module each:
//!
//! * [`spec`] — [`JobSpec`]/[`JobKind`] (what tenants submit) and
//!   [`PlanKey`] (how plans are content-addressed);
//! * [`plan`] — the **warm-plan cache**: compile → simtlint → flat
//!   lowering once per [`PlanKey`], shared via `Arc` behind one
//!   read-mostly lock so warm launches never serialize;
//! * [`queue`] — **admission control**: bounded per-tenant queues with
//!   typed backpressure, micro-job coalescing sealed in submission order,
//!   and a deficit-round-robin drain for per-tenant fairness;
//! * [`dispatch`] — **isolated per-unit execution** on scratch devices of
//!   the unit's keyed backend;
//! * [`service`] — the [`LaunchService`] itself: workers that take units
//!   from admission in drain order under its one lock, and the
//!   deterministic fold: per-job [`service::JobReport`]s with
//!   bit-identical stats and virtual latencies under any worker count
//!   (the DESIGN §11 contract extended to the service layer, see DESIGN
//!   §16).

pub mod dispatch;
pub mod plan;
pub mod queue;
pub mod service;
pub mod spec;

pub use plan::{build_warm_plan, PlanCache, WarmPlan};
pub use service::{percentile, Client, JobReport, LaunchService, ServiceConfig, ServiceReport};
pub use spec::{JobKind, JobSpec, PlanKernel, PlanKey, SubmitError};
