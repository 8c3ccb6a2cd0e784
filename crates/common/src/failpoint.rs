//! Shared failpoint / fault-injection registry.
//!
//! Named points in the engine (`"durability.append"`, `"durability.fsync"`,
//! …) consult the process-global registry on every hit. A point is normally
//! off; tests and the simulator arm it with a [`FailAction`] — fail with an
//! injected I/O error, tear a write after N bytes, or fire probabilistically
//! — optionally limited to a hit count (`err*3` fires on the first three
//! hits, then disarms).
//!
//! Points are also scriptable from the environment so whole test suites and
//! the sim explorer can run under faults without code changes:
//!
//! ```text
//! ORTHRUS_FAILPOINTS="durability.fsync=err;durability.append=torn:7*1"
//! ```
//!
//! Grammar: `name=action[*count]`, entries separated by `;` (or `,`).
//! Actions: `off`, `err`, `torn:<keep-bytes>`, `maybe:<pct>`.
//!
//! Every hit is counted even when the point is off, so tests can assert a
//! code path was actually reached. The registry never decides *randomness*
//! itself: `Maybe(pct)` is returned to the hit site, which rolls against
//! its own (deterministic, in the simulator) RNG.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Environment variable consulted on first [`global`] access.
pub const FAILPOINTS_ENV: &str = "ORTHRUS_FAILPOINTS";

/// What an armed failpoint does when hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Fail the operation with an injected error.
    Err,
    /// Fire with the given percent probability — the *hit site* rolls the
    /// dice (against the sim scheduler's seeded RNG when simulated).
    Maybe(u32),
    /// Tear the write: persist only the first `keep` bytes of the frame,
    /// then fail — the on-disk state a crash mid-write leaves behind.
    Torn(u64),
}

#[derive(Debug, Default)]
struct PointState {
    action: Option<FailAction>,
    /// Remaining firings before the point disarms; `None` = unlimited.
    remaining: Option<u64>,
    hits: u64,
}

/// A set of named failpoints. One process-global instance ([`global`]) is
/// shared by the engine; tests may also build private registries.
#[derive(Debug, Default)]
pub struct FailpointRegistry {
    /// Poison is ignored: every update is one field store, insert or
    /// clear, and a hit site must not die of another thread's panic.
    points: Mutex<HashMap<String, PointState>>,
}

impl FailpointRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    fn points(&self) -> MutexGuard<'_, HashMap<String, PointState>> {
        self.points.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arm `name` with `action`, firing at most `count` times (`None` =
    /// every hit until cleared).
    pub fn configure(&self, name: &str, action: FailAction, count: Option<u64>) {
        let mut points = self.points();
        let p = points.entry(name.to_string()).or_default();
        p.action = Some(action);
        p.remaining = count;
    }

    /// Disarm a single point (its hit counter survives).
    pub fn disarm(&self, name: &str) {
        let mut points = self.points();
        if let Some(p) = points.get_mut(name) {
            p.action = None;
            p.remaining = None;
        }
    }

    /// Disarm every point and forget all hit counters.
    pub fn clear(&self) {
        self.points().clear();
    }

    /// Record a hit on `name` and return the armed action, if any. A
    /// count-limited point decrements per returned action and disarms at
    /// zero.
    pub fn hit(&self, name: &str) -> Option<FailAction> {
        let mut points = self.points();
        // The name is copied once, when the point is first seen: a hit
        // site on a commit path allocates nothing afterwards.
        let p = match points.get_mut(name) {
            Some(p) => p,
            None => points.entry(name.to_string()).or_default(),
        };
        p.hits += 1;
        let action = p.action?;
        match &mut p.remaining {
            Some(0) => {
                p.action = None;
                None
            }
            Some(n) => {
                *n -= 1;
                if *n == 0 {
                    p.remaining = Some(0);
                }
                Some(action)
            }
            None => Some(action),
        }
    }

    /// How many times `name` has been hit (armed or not).
    pub fn hits(&self, name: &str) -> u64 {
        self.points().get(name).map_or(0, |p| p.hits)
    }

    /// Parse and apply a script like
    /// `"durability.fsync=err;durability.append=torn:7*1"`.
    pub fn script(&self, spec: &str) -> Result<(), String> {
        for entry in spec.split([';', ',']) {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (name, rhs) = entry
                .split_once('=')
                .ok_or_else(|| format!("failpoint entry without '=': {entry:?}"))?;
            let (action_str, count) = match rhs.split_once('*') {
                Some((a, n)) => {
                    let n: u64 = n
                        .parse()
                        .map_err(|_| format!("bad failpoint count in {entry:?}"))?;
                    (a, Some(n))
                }
                None => (rhs, None),
            };
            let action = match action_str.split_once(':') {
                None => match action_str {
                    "off" => {
                        self.disarm(name.trim());
                        continue;
                    }
                    "err" => FailAction::Err,
                    other => return Err(format!("unknown failpoint action {other:?}")),
                },
                Some(("torn", keep)) => FailAction::Torn(
                    keep.parse()
                        .map_err(|_| format!("bad torn byte count in {entry:?}"))?,
                ),
                Some(("maybe", pct)) => FailAction::Maybe(
                    pct.parse()
                        .map_err(|_| format!("bad maybe percentage in {entry:?}"))?,
                ),
                Some((other, _)) => return Err(format!("unknown failpoint action {other:?}")),
            };
            self.configure(name.trim(), action, count);
        }
        Ok(())
    }

    /// Apply the [`FAILPOINTS_ENV`] script, if set.
    pub fn script_from_env(&self) -> Result<(), String> {
        match std::env::var(FAILPOINTS_ENV) {
            Ok(spec) => self.script(&spec),
            Err(_) => Ok(()),
        }
    }
}

/// The process-global registry. The [`FAILPOINTS_ENV`] script is applied
/// once, on first access.
pub fn global() -> &'static FailpointRegistry {
    static GLOBAL: OnceLock<FailpointRegistry> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let reg = FailpointRegistry::new();
        if let Err(why) = reg.script_from_env() {
            eprintln!("warning: ignoring malformed {FAILPOINTS_ENV}: {why}");
        }
        reg
    })
}

/// Build an `io::Error` marked as injected by a failpoint.
pub fn injected_io_error(point: &str) -> std::io::Error {
    std::io::Error::other(format!("injected failpoint: {point}"))
}

/// Whether an `io::Error` came from [`injected_io_error`] — crash-point
/// harnesses treat injected failures as scripted crashes, real ones as
/// bugs.
pub fn is_injected(e: &std::io::Error) -> bool {
    e.to_string().contains("injected failpoint:")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_by_default_but_counts_hits() {
        let reg = FailpointRegistry::new();
        assert_eq!(reg.hit("p"), None);
        assert_eq!(reg.hit("p"), None);
        assert_eq!(reg.hits("p"), 2);
        assert_eq!(reg.hits("other"), 0);
    }

    #[test]
    fn count_limited_point_disarms() {
        let reg = FailpointRegistry::new();
        reg.configure("p", FailAction::Err, Some(2));
        assert_eq!(reg.hit("p"), Some(FailAction::Err));
        assert_eq!(reg.hit("p"), Some(FailAction::Err));
        assert_eq!(reg.hit("p"), None);
        assert_eq!(reg.hits("p"), 3);
    }

    #[test]
    fn unlimited_point_fires_until_disarmed() {
        let reg = FailpointRegistry::new();
        reg.configure("p", FailAction::Torn(7), None);
        for _ in 0..5 {
            assert_eq!(reg.hit("p"), Some(FailAction::Torn(7)));
        }
        reg.disarm("p");
        assert_eq!(reg.hit("p"), None);
        assert_eq!(reg.hits("p"), 6, "hits survive disarm");
    }

    #[test]
    fn script_grammar_round_trips() {
        let reg = FailpointRegistry::new();
        reg.script("a=err; b=torn:7*1, c=maybe:25 ;;")
            .expect("valid script");
        assert_eq!(reg.hit("a"), Some(FailAction::Err));
        assert_eq!(reg.hit("b"), Some(FailAction::Torn(7)));
        assert_eq!(reg.hit("b"), None, "count-limited");
        assert_eq!(reg.hit("c"), Some(FailAction::Maybe(25)));
        reg.script("a=off").expect("off is valid");
        assert_eq!(reg.hit("a"), None);
    }

    #[test]
    fn script_rejects_garbage() {
        let reg = FailpointRegistry::new();
        assert!(reg.script("no-equals-sign").is_err());
        assert!(reg.script("p=explode").is_err());
        assert!(reg.script("p=torn:notanumber").is_err());
        assert!(reg.script("p=err*NaN").is_err());
    }
}
