//! # malnet-intel — threat-intelligence feed simulation
//!
//! The paper measures the *effectiveness of threat intelligence* (§3.3):
//! it queries VirusTotal's 89 vendor feeds twice per C2 address (on the
//! discovery day and months later) and quantifies same-day misses
//! (Table 3), per-vendor coverage (Table 7, Appendix D) and per-C2
//! vendor counts (Figure 7). It also uses AV-engine corroboration (≥ 5
//! engines) and YARA/AVClass2 labels to vet the corpus (§2.2).
//!
//! This crate substitutes the VT API with calibrated models:
//!
//! * [`feeds`] — the vendor universe (89 feeds, 44 of which ever flag an
//!   IoT C2), per-vendor coverage thresholds, and per-address reporting
//!   lags. The pipeline queries it exactly like VT: "is this address
//!   flagged malicious on day D, and by whom?".
//! * [`labeling`] — YARA-style family rules over binary bytes and an
//!   AVClass2 mock over the YARA label that reproduces the paper's
//!   observed quirk (Mozi samples mislabeled as Mirai).
//! * [`engines`] — AV detection-count model for the ≥ 5-engine
//!   corroboration rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engines;
pub mod feeds;
pub mod labeling;

pub use feeds::{FeedParams, VendorDb, Verdict};
pub use labeling::{avclass2_label, yara_label};
