//! AV-engine corroboration model.
//!
//! The corpus-vetting rule (§2.2) requires ≥ 5 of the ~75 AV engines to
//! flag a file as malware. Real IoT malware is detected broadly but not
//! unanimously; the model draws a per-sample engine count with a small
//! chance of a low-consensus file (which the pipeline then drops,
//! exercising the filter).
//!
//! The draw is a **pure function of `(seed, day, sample_id)`**: each
//! sample gets its own [`sub_seed`]-derived generator under
//! `DOMAIN_AV_ENGINES`, so the count does not depend on how many
//! samples were scanned before it. That is what lets the pipeline's
//! day-epoch shards each carry their own `EngineModel` and still produce
//! byte-identical datasets after the epoch merge.

use malnet_prng::rngs::StdRng;
use malnet_prng::{sub_seed, Rng, SeedableRng};

/// Engines on the scanning service (paper: 75 as of Aug 2022).
pub const TOTAL_ENGINES: usize = 75;

/// Sub-seed domain for per-sample AV-consensus draws. Lives in the
/// workspace-wide `0x5eed_…` family whose uniqueness `malnet-lint`
/// checks across crates.
const DOMAIN_AV_ENGINES: u64 = 0x5eed_0000_0000_0009;

/// The seed of one sample's AV-consensus RNG stream. Public so the
/// pipeline's seed-collision audit can enumerate it alongside every
/// other sub-seed a study draws.
pub fn engine_seed(master: u64, day: u32, sample_id: u64) -> u64 {
    sub_seed(master ^ DOMAIN_AV_ENGINES, day, sample_id)
}

/// Per-sample AV consensus model.
#[derive(Debug, Clone)]
pub struct EngineModel {
    seed: u64,
    /// Fraction of genuinely-malicious files that still fall below the
    /// 5-engine bar (fresh packers, rare families).
    pub low_consensus_rate: f64,
}

impl EngineModel {
    /// Default model: ~2% of real malware scores below the bar on day 0.
    pub fn new(seed: u64) -> Self {
        EngineModel {
            seed,
            low_consensus_rate: 0.02,
        }
    }

    /// Draw the number of engines flagging one malware sample — a pure
    /// function of `(seed, day, sample_id)`.
    pub fn detections_for_malware(&self, day: u32, sample_id: u64) -> u32 {
        let mut rng = StdRng::seed_from_u64(engine_seed(self.seed, day, sample_id));
        if rng.gen_bool(self.low_consensus_rate) {
            rng.gen_range(0..5)
        } else {
            rng.gen_range(12..56)
        }
    }

    /// The paper's corroboration rule.
    pub fn passes_bar(count: u32) -> bool {
        count >= 5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn most_malware_passes_the_bar() {
        let m = EngineModel::new(3);
        let n = 2000u64;
        let pass = (0..n)
            .filter(|&id| EngineModel::passes_bar(m.detections_for_malware(0, id)))
            .count();
        let rate = pass as f64 / n as f64;
        assert!((0.95..1.0).contains(&rate), "{rate}");
    }

    #[test]
    fn counts_stay_in_engine_range() {
        let m = EngineModel::new(4);
        for id in 0..500u64 {
            let c = m.detections_for_malware(7, id);
            assert!(c as usize <= TOTAL_ENGINES);
        }
    }

    #[test]
    fn draw_is_pure_per_coordinates() {
        let m = EngineModel::new(9);
        // Same (day, sample) → same count no matter the call order; the
        // epoch shards rely on exactly this.
        let a = m.detections_for_malware(3, 41);
        let _ = m.detections_for_malware(5, 12);
        assert_eq!(a, m.detections_for_malware(3, 41));
    }

    #[test]
    fn bar_is_five() {
        assert!(!EngineModel::passes_bar(4));
        assert!(EngineModel::passes_bar(5));
    }
}
