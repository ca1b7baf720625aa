//! # malnet-core — the MalNet measurement pipeline
//!
//! The paper's primary contribution: a binary-centric, timeliness-focused
//! dynamic-analysis pipeline that turns a daily feed of IoT malware
//! binaries into network-level intelligence. This crate orchestrates the
//! substrates (`malnet-sandbox`, `malnet-netsim`, `malnet-intel`,
//! `malnet-botgen`'s world) into the five datasets of Table 1 and all of
//! the paper's analyses.
//!
//! * [`c2detect`] — C2 address extraction from capture bytes (CnCHunter's
//!   ~90%-precision traffic heuristics, §2.1).
//! * [`ddos`] — DDoS command extraction: protocol profilers + the
//!   100-pps behavioural heuristic (§2.5), with cross-verification.
//! * [`prober`] — the D-PC2 active-probing study: subnet × port sweeps
//!   on a 4-hour cadence with banner filtering and weaponized-malware
//!   engagement checks (§2.3b).
//! * [`pipeline`] — the daily loop: collect, vet, activate, extract,
//!   cross-validate with the intelligence feeds, track liveness. One
//!   submodule per owner: the plan, epochs and reduce; contained
//!   activation; restricted sessions ([`pipeline::restricted_sandbox`]);
//!   liveness; and the sub-seed streams
//!   ([`pipeline::seed_inventory`]).
//! * [`chaos`] — deterministic fault plans (link loss, DNS failures,
//!   C2 downtime, binary mutation, worker panics, syscall-boundary
//!   emulator faults) and the graceful-degradation discipline behind
//!   the D-Health section.
//! * [`datasets`] — D-Samples, D-C2s, D-PC2, D-Exploits, D-DDOS.
//! * [`stats`] — CDFs, distributions and the text renderers used by the
//!   table/figure regeneration harness.
//! * [`analysis`] — one function per paper table/figure.
//! * [`eval`] — the evaluation harness comparing pipeline measurements
//!   against world ground truth (precision/recall of the instruments).
//!
//! The pipeline treats the world as a black box: it reads the feed
//! (binaries + hashes + publish days + AV verdicts) and interacts with
//! the simulated Internet; ground truth is only touched by [`eval`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod c2detect;
pub mod chaos;
pub mod datasets;
pub mod ddos;
pub mod eval;
mod par;
pub mod pipeline;
pub mod prober;
pub mod stats;

pub use chaos::FaultPlan;
pub use datasets::Datasets;
pub use pipeline::{Pipeline, PipelineOpts};
