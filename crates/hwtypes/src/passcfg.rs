//! Compile-pass configuration shared by both compiled simulation paths.
//!
//! The gate-level netlist optimizer (`scflow-gate`) and the RTL bytecode
//! optimizer (`scflow-rtl`) run the same conceptual pipeline — constant
//! sweep, common-subexpression elimination, dead-cone elimination, and a
//! cache-aware re-layout of the value storage. [`PassConfig`] names that
//! pipeline once, at the bottom of the crate stack, so every layer that
//! must agree on "which program is this" — the simulation service's
//! compile cache, snapshot design identities, content hashes — can fold
//! the *same* configuration word into its key. Optimized and unoptimized
//! artifacts must never alias.

use crate::Fnv64;

/// Which passes the compile pipelines run between construction and
/// execution. The default (`PassConfig::off()`) runs nothing and is
/// byte-for-byte the historical behaviour of both compilers.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PassConfig {
    /// Propagate and sweep constants (tied nets, folded subexpressions).
    pub const_sweep: bool,
    /// Share identical gate cones / bytecode subexpressions.
    pub cse: bool,
    /// Remove cones that cannot reach an observed output, a memory port
    /// or the scan chain.
    pub dce: bool,
    /// Re-layout value storage for cache locality (level-packed net
    /// numbering at gate level, compacted temp slots at RTL level).
    pub relayout: bool,
}

impl PassConfig {
    /// No passes: the identity pipeline (the default).
    #[must_use]
    pub fn off() -> Self {
        PassConfig::default()
    }

    /// The pipeline for an `SCFLOW_OPT` level: `0` runs nothing, `1`
    /// runs constant sweep + CSE + DCE, `2` adds the storage re-layout.
    /// Levels above 2 behave as 2.
    #[must_use]
    pub fn for_level(level: u8) -> Self {
        PassConfig {
            const_sweep: level >= 1,
            cse: level >= 1,
            dce: level >= 1,
            relayout: level >= 2,
        }
    }

    /// Reads `SCFLOW_OPT` (an integer level; unset, empty or unparsable
    /// values mean level 0).
    #[must_use]
    pub fn from_env() -> Self {
        let level = std::env::var("SCFLOW_OPT")
            .ok()
            .and_then(|v| v.trim().parse::<u8>().ok())
            .unwrap_or(0);
        PassConfig::for_level(level)
    }

    /// `true` if any pass runs.
    #[must_use]
    pub fn any(&self) -> bool {
        self.const_sweep || self.cse || self.dce || self.relayout
    }

    /// A stable 64-bit tag of this configuration, folded into content
    /// hashes, cache keys and snapshot design identities so artifacts
    /// compiled under different pass configurations never alias. The
    /// all-off configuration tags to a fixed non-zero word (not 0, so a
    /// key that *forgot* to fold the tag is distinguishable).
    #[must_use]
    pub fn stable_tag(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str("pass-config-v1");
        h.write_u8(u8::from(self.const_sweep));
        h.write_u8(u8::from(self.cse));
        h.write_u8(u8::from(self.dce));
        h.write_u8(u8::from(self.relayout));
        h.finish()
    }
}

impl std::fmt::Display for PassConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.any() {
            return f.write_str("off");
        }
        let mut first = true;
        for (on, name) in [
            (self.const_sweep, "const"),
            (self.cse, "cse"),
            (self.dce, "dce"),
            (self.relayout, "relayout"),
        ] {
            if on {
                if !first {
                    f.write_str("+")?;
                }
                f.write_str(name)?;
                first = false;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels() {
        assert!(!PassConfig::for_level(0).any());
        let l1 = PassConfig::for_level(1);
        assert!(l1.const_sweep && l1.cse && l1.dce && !l1.relayout);
        let l2 = PassConfig::for_level(2);
        assert!(l2.relayout);
        assert_eq!(PassConfig::for_level(7), PassConfig::for_level(2));
    }

    #[test]
    fn tags_distinct() {
        let tags = [0u8, 1, 2].map(|l| PassConfig::for_level(l).stable_tag());
        assert_ne!(tags[0], tags[1]);
        assert_ne!(tags[1], tags[2]);
        assert_ne!(tags[0], 0);
    }

    #[test]
    fn display() {
        assert_eq!(PassConfig::off().to_string(), "off");
        assert_eq!(
            PassConfig::for_level(2).to_string(),
            "const+cse+dce+relayout"
        );
    }
}
