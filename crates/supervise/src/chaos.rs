//! The `HOLISTIC_CHAOS` fault-injection hook.
//!
//! CI's chaos-smoke job runs `table2_bench` with
//! `HOLISTIC_CHAOS="panic-every=1,budget-ms=30000"` (every feasibility
//! decision panics) and with `"budget-ms=1"` (cells run out of time),
//! exercising the supervisor's isolation, retry, classification and
//! degradation paths without any test-only code in the binaries.

use std::time::Duration;

use holistic_checker::{ChaosConfig, CheckerConfig};

/// Parsed chaos directives.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ChaosOptions {
    /// Panic on every Nth feasibility decision (0 = off); forwarded to
    /// [`ChaosConfig::panic_every`].
    pub panic_every: u64,
    /// Override the checker's wall-clock budget, in milliseconds.
    pub budget_ms: Option<u64>,
}

impl ChaosOptions {
    /// Reads `HOLISTIC_CHAOS` from the environment. `None` when unset
    /// or empty; panics on a malformed value (CI misconfiguration
    /// should be loud, not silently ignored).
    pub fn from_env() -> Option<ChaosOptions> {
        let raw = std::env::var("HOLISTIC_CHAOS").ok()?;
        if raw.trim().is_empty() {
            return None;
        }
        match ChaosOptions::parse(&raw) {
            Ok(opts) => Some(opts),
            Err(e) => panic!("malformed HOLISTIC_CHAOS={raw:?}: {e}"),
        }
    }

    /// Parses a directive string: comma-separated `key=value` pairs
    /// with keys `panic-every` (u64) and `budget-ms` (u64).
    pub fn parse(s: &str) -> Result<ChaosOptions, String> {
        let mut opts = ChaosOptions::default();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {part:?}"))?;
            let value: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("{key}: expected an integer, got {value:?}"))?;
            match key.trim() {
                "panic-every" => opts.panic_every = value,
                "budget-ms" => opts.budget_ms = Some(value),
                other => return Err(format!("unknown chaos key {other:?}")),
            }
        }
        Ok(opts)
    }

    /// Applies the directives to a checker configuration.
    pub fn apply(&self, config: &mut CheckerConfig) {
        if self.panic_every > 0 {
            config.chaos = ChaosConfig {
                panic_every: self.panic_every,
            };
        }
        if let Some(ms) = self.budget_ms {
            config.time_budget = Some(Duration::from_millis(ms));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_directives() {
        let opts = ChaosOptions::parse("panic-every=40, budget-ms=50").unwrap();
        assert_eq!(opts.panic_every, 40);
        assert_eq!(opts.budget_ms, Some(50));
        let mut cfg = CheckerConfig::default();
        opts.apply(&mut cfg);
        assert_eq!(cfg.chaos.panic_every, 40);
        assert_eq!(cfg.time_budget, Some(Duration::from_millis(50)));
    }

    #[test]
    fn rejects_malformed_directives() {
        assert!(ChaosOptions::parse("panic-every").is_err());
        assert!(ChaosOptions::parse("panic-every=x").is_err());
        assert!(ChaosOptions::parse("frobnicate=1").is_err());
        assert_eq!(ChaosOptions::parse("").unwrap(), ChaosOptions::default());
    }
}
