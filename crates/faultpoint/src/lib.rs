//! **faultpoint** — deterministic, zero-dependency fault injection.
//!
//! A serving stack earns its resilience claims by injecting the
//! failures on purpose. This crate provides *named fail points*: a call
//! to [`inject`] (or the [`fail_point!`] macro) marks a place where a
//! chaos test may deterministically inject a **panic**, an **error**
//! (reported back to the caller to map into its own error type) or a
//! **delay**. The workspace registers points at the engine dispatch
//! loop, pool region execution, and the snapshot write/rename
//! boundaries — the catalog lives in `docs/RESILIENCE.md`.
//!
//! # Cost when disabled
//!
//! Fault injection is off unless configured, and the disabled path is
//! **one relaxed atomic load** (after a one-time environment check on
//! the very first evaluation in the process). No locks, no clock reads,
//! no allocation — fail points are safe to leave in hot paths.
//!
//! # Determinism
//!
//! Every decision is a pure function of `(seed, point name, rule index,
//! hit index)`: the n-th evaluation of a given point fires or not
//! regardless of wall clock, thread timing, or scheduling. Two runs
//! with the same seed and the same per-point evaluation counts inject
//! the same faults; CI sweeps seeds to vary the pattern.
//!
//! # Configuration
//!
//! Two routes install a [`Plan`]:
//!
//! - the `GRAPHHD_FAULTS` environment variable (registered in
//!   `docs/ENV.md`), read once on first evaluation — the route the CI
//!   chaos matrix uses;
//! - a [`FaultGuard`], which a test holds for its *whole* body. The
//!   plan is process-global, so a guard takes a process-wide lock (one
//!   guarded test runs at a time) and starts with nothing armed;
//!   [`FaultGuard::arm`] parses the same grammar and installs it, and
//!   [`FaultGuard::disarm`] clears it again. Because the lock is held
//!   across the fault-free phases too, no test's clean phase can run
//!   while a sibling test's plan is armed. Dropping the guard restores
//!   the environment-derived plan.
//!
//! The grammar is a `;`-separated list of `key=value` clauses:
//!
//! ```text
//! seed=42;engine.dispatch=30%panic;snapshot.write=error;pool.region=10%delay(2)
//! ```
//!
//! - `seed=<u64>` — the deterministic seed (default 0);
//! - `<point>=<percent>%<action>` — arm `<point>` to perform
//!   `<action>` on `<percent>` percent of evaluations (the percent
//!   prefix is optional and defaults to 100);
//! - `<action>` is `panic`, `error`, or `delay(<millis>)`.
//!
//! Repeating a point adds another rule; rules are evaluated in order
//! and the first that fires wins.
//!
//! # Examples
//!
//! ```
//! use faultpoint::FaultGuard;
//!
//! let guard = FaultGuard::acquire();
//! // Nothing armed yet: the point is inert.
//! assert!(!faultpoint::inject("doc.example"));
//!
//! // Arm it at 100% error, then lift the plan again.
//! guard.arm("seed=1;doc.example=error").expect("valid spec");
//! assert!(faultpoint::inject("doc.example"));
//! guard.disarm();
//! assert!(!faultpoint::inject("doc.example"));
//! ```

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Environment variable carrying the process-wide fault plan (see the
/// crate docs for the grammar). Read once, on the first fail-point
/// evaluation; a [`FaultGuard`] overrides it for its lifetime.
pub const FAULTS_ENV: &str = "GRAPHHD_FAULTS";

/// What an armed fail point does when its rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Panic with a message naming the point
    /// (`faultpoint: injected panic at ...`). Simulates a crash of the
    /// executing thread.
    Panic,
    /// Report an injected failure: [`inject`] returns `true` and the
    /// caller maps it into its own error type.
    Error,
    /// Sleep for the given number of milliseconds, then proceed.
    /// Simulates a stall (slow disk, scheduling hiccup).
    Delay(u64),
}

/// One armed rule: fire `action` on `percent`% of the evaluations of
/// `point`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Rule {
    point: String,
    percent: u8,
    action: Action,
}

/// A parsed fault plan: the deterministic seed plus the armed rules.
/// Parse one with [`Plan::parse`]; install it via [`FaultGuard::arm`]
/// or the `GRAPHHD_FAULTS` environment variable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Plan {
    /// Seed mixed into every fire/skip decision.
    pub seed: u64,
    rules: Vec<Rule>,
}

/// A malformed fault specification, with the offending clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The clause that failed to parse.
    pub clause: String,
    /// What was wrong with it.
    pub reason: &'static str,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "bad fault clause `{}`: {}", self.clause, self.reason)
    }
}

impl std::error::Error for ParseError {}

impl Plan {
    /// Parses a fault specification (see the crate docs for the
    /// grammar). The empty string parses to the inert default plan.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] naming the first malformed clause.
    pub fn parse(spec: &str) -> Result<Self, ParseError> {
        let mut plan = Plan::default();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let err = |reason| ParseError {
                clause: clause.to_string(),
                reason,
            };
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| err("expected `key=value`"))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                plan.seed = value.parse().map_err(|_| err("seed must be a u64"))?;
                continue;
            }
            if key.is_empty() {
                return Err(err("empty point name"));
            }
            let (percent, action) = match value.split_once('%') {
                Some((pct, action)) => {
                    let pct: u8 = pct
                        .trim()
                        .parse()
                        .map_err(|_| err("percent must be an integer 0..=100"))?;
                    if pct > 100 {
                        return Err(err("percent must be an integer 0..=100"));
                    }
                    (pct, action.trim())
                }
                None => (100, value),
            };
            let action = if action == "panic" {
                Action::Panic
            } else if action == "error" {
                Action::Error
            } else if let Some(ms) = action
                .strip_prefix("delay(")
                .and_then(|rest| rest.strip_suffix(')'))
            {
                Action::Delay(
                    ms.trim()
                        .parse()
                        .map_err(|_| err("delay needs integer milliseconds"))?,
                )
            } else {
                return Err(err("action must be panic, error, or delay(<ms>)"));
            };
            plan.rules.push(Rule {
                point: key.to_string(),
                percent,
                action,
            });
        }
        Ok(plan)
    }

    /// Whether the plan arms any point at all.
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.rules.is_empty()
    }
}

/// An installed plan plus one evaluation counter per rule (rules on the
/// same point share the point's hit sequence; see [`decision`]).
#[derive(Debug)]
struct ActivePlan {
    plan: Plan,
    /// Hit counter per *distinct point name*, indexed by `point_index`.
    hits: Vec<(String, AtomicU64)>,
}

impl ActivePlan {
    fn new(plan: Plan) -> Self {
        let mut hits: Vec<(String, AtomicU64)> = Vec::new();
        for rule in &plan.rules {
            if !hits.iter().any(|(name, _)| name == &rule.point) {
                hits.push((rule.point.clone(), AtomicU64::new(0)));
            }
        }
        Self { plan, hits }
    }
}

/// Tri-state activation flag: the hot path is a single relaxed load.
const UNINIT: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

static FLAG: AtomicU8 = AtomicU8::new(UNINIT);
static STATE: Mutex<Option<ActivePlan>> = Mutex::new(None);
/// Held by every live [`FaultGuard`], so guarded scopes never overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn state_lock() -> MutexGuard<'static, Option<ActivePlan>> {
    // A panic while holding this lock is an injected panic by design;
    // the plan itself is never left half-written, so recover the guard.
    STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Installs `plan` as the process-wide active plan (`None` reverts to
/// "nothing configured").
fn install(plan: Option<Plan>) {
    let mut state = state_lock();
    match plan {
        Some(plan) if !plan.is_inert() => {
            *state = Some(ActivePlan::new(plan));
            FLAG.store(ON, Ordering::Relaxed);
        }
        _ => {
            *state = None;
            FLAG.store(OFF, Ordering::Relaxed);
        }
    }
}

/// The plan the environment declares, if `GRAPHHD_FAULTS` is set and
/// parses. A malformed value is treated as absent rather than panicking
/// in whatever innocent code evaluated the first fail point.
fn plan_from_env() -> Option<Plan> {
    let spec = std::env::var(FAULTS_ENV).ok()?;
    Plan::parse(&spec).ok()
}

/// The seed declared by `GRAPHHD_FAULTS`, if any. Chaos tests use this
/// to let the CI matrix steer their in-process seed sweep.
#[must_use]
pub fn env_seed() -> Option<u64> {
    plan_from_env().map(|plan| plan.seed)
}

/// Whether any fail point is currently armed.
#[must_use]
pub fn active() -> bool {
    inject("faultpoint.noop");
    FLAG.load(Ordering::Relaxed) == ON
}

/// SplitMix64 — the statistically solid 64-bit mixer; enough for
/// fire/skip decisions and dependency-free.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over the point name, so the per-point decision streams are
/// decorrelated without any global registration step.
fn fnv1a(name: &str) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for byte in name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Pure fire/skip decision for rule `rule_index` at evaluation
/// `hit` of `point` under `seed` and `percent`.
fn decision(seed: u64, point: &str, rule_index: usize, hit: u64, percent: u8) -> bool {
    if percent == 0 {
        return false;
    }
    let mixed = splitmix64(seed ^ fnv1a(point) ^ (rule_index as u64) << 56 ^ hit);
    mixed % 100 < u64::from(percent)
}

/// Evaluates the named fail point.
///
/// Disabled (the default): returns `false` after a single relaxed
/// atomic load. Armed: consults the active [`Plan`] — a firing
/// [`Action::Panic`] panics here, [`Action::Delay`] sleeps here and
/// returns `false`, and [`Action::Error`] returns `true`, which the
/// caller maps into its own error type (see [`fail_point!`]).
///
/// # Panics
///
/// When an armed rule with [`Action::Panic`] fires — that is the
/// feature.
#[inline]
pub fn inject(point: &str) -> bool {
    // Hot path: a single relaxed load when fault injection is off.
    if FLAG.load(Ordering::Relaxed) == OFF {
        return false;
    }
    inject_cold(point)
}

#[cold]
fn inject_cold(point: &str) -> bool {
    if FLAG.load(Ordering::Relaxed) == UNINIT {
        // First evaluation in the process: adopt the environment plan.
        // A FaultGuard may later replace it.
        install(plan_from_env());
        if FLAG.load(Ordering::Relaxed) == OFF {
            return false;
        }
    }
    let fired = {
        let state = state_lock();
        let Some(active) = state.as_ref() else {
            return false;
        };
        let Some((_, counter)) = active.hits.iter().find(|(name, _)| name == point) else {
            return false;
        };
        let hit = counter.fetch_add(1, Ordering::Relaxed);
        let seed = active.plan.seed;
        active
            .plan
            .rules
            .iter()
            .enumerate()
            .filter(|(_, rule)| rule.point == point)
            .find(|(index, rule)| decision(seed, point, *index, hit, rule.percent))
            .map(|(_, rule)| rule.action)
        // The state lock is released before acting: a panic or a sleep
        // must not wedge other points.
    };
    match fired {
        None => false,
        Some(Action::Error) => true,
        Some(Action::Delay(ms)) => {
            std::thread::sleep(Duration::from_millis(ms));
            false
        }
        Some(Action::Panic) => {
            panic!("faultpoint: injected panic at `{point}`")
        }
    }
}

/// Evaluates a fail point and, if an error was injected, returns
/// `Err($err)` from the enclosing function. Panics and delays happen
/// inside the evaluation itself.
///
/// ```
/// fn save() -> Result<(), String> {
///     faultpoint::fail_point!("doc.save", "injected".to_string());
///     Ok(())
/// }
/// assert!(save().is_ok());
/// ```
#[macro_export]
macro_rules! fail_point {
    ($point:expr, $err:expr) => {
        if $crate::inject($point) {
            return Err($err);
        }
    };
}

/// Exclusive hold on the process-wide fault plan, for the lifetime of
/// a test.
///
/// [`acquire`](Self::acquire) blocks until no other guard is alive, then
/// installs an empty plan. The holder arms and disarms plans through
/// the guard; dropping it restores the environment-derived plan. A test
/// takes one guard before anything that evaluates a fail point — its
/// setup and fault-free phases included — so a sibling test's plan can
/// never fire inside it.
pub struct FaultGuard {
    _serial: MutexGuard<'static, ()>,
}

impl std::fmt::Debug for FaultGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultGuard").finish_non_exhaustive()
    }
}

impl FaultGuard {
    /// Waits for every other guard to drop, then takes the hold with
    /// nothing armed.
    #[must_use]
    pub fn acquire() -> Self {
        // A test that panicked while holding the serial lock has already
        // reported its failure; later tests proceed with a clean install.
        let serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        install(None);
        Self { _serial: serial }
    }

    /// Parses `spec` and installs it as the active plan, replacing any
    /// plan this guard armed before.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] for a malformed spec; the active plan is
    /// left unchanged.
    pub fn arm(&self, spec: &str) -> Result<(), ParseError> {
        install(Some(Plan::parse(spec)?));
        Ok(())
    }

    /// Lifts the active plan: every fail point is inert again.
    pub fn disarm(&self) {
        install(None);
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        install(plan_from_env());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_round_trips() {
        let plan = Plan::parse(
            "seed=7; engine.dispatch=30%panic; snapshot.write=error; pool.region=delay(3)",
        )
        .expect("valid spec");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(plan.rules[0].percent, 30);
        assert_eq!(plan.rules[0].action, Action::Panic);
        assert_eq!(plan.rules[1].percent, 100);
        assert_eq!(plan.rules[1].action, Action::Error);
        assert_eq!(plan.rules[2].action, Action::Delay(3));
        assert!(Plan::parse("").expect("empty is inert").is_inert());
    }

    #[test]
    fn grammar_rejects_malformed_clauses() {
        for bad in [
            "seed=abc",
            "point",
            "=panic",
            "p=150%panic",
            "p=x%panic",
            "p=explode",
            "p=delay(soon)",
        ] {
            assert!(Plan::parse(bad).is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn decisions_are_deterministic_and_respect_percent() {
        // 0% never fires, 100% always fires, and a mid percent fires a
        // plausible fraction — identically on every evaluation order.
        for seed in 1..=5u64 {
            assert!(!decision(seed, "p", 0, 0, 0));
            assert!(decision(seed, "p", 0, 0, 100));
            let fired: usize = (0..1000)
                .filter(|&hit| decision(seed, "p", 0, hit, 30))
                .count();
            assert!(
                (150..450).contains(&fired),
                "seed {seed}: {fired}/1000 at 30%"
            );
            for hit in 0..100 {
                assert_eq!(
                    decision(seed, "p", 0, hit, 30),
                    decision(seed, "p", 0, hit, 30)
                );
            }
        }
    }

    #[test]
    fn error_injection_is_scoped_by_arm_and_disarm() {
        let guard = FaultGuard::acquire();
        assert!(!inject("test.scoped"));
        guard.arm("seed=1;test.scoped=error").expect("valid spec");
        assert!(inject("test.scoped"));
        assert!(!inject("test.other"), "unarmed points stay inert");
        guard.disarm();
        assert!(!inject("test.scoped"));
        assert!(guard.arm("test.scoped=explode").is_err());
        assert!(!inject("test.scoped"), "a malformed spec arms nothing");
    }

    #[test]
    fn a_disarmed_guard_never_observes_another_threads_plan() {
        use std::sync::mpsc;
        use std::thread;
        // A thread that wants to arm while this guard is held must wait
        // for it: nothing it arms is visible here.
        let guard = FaultGuard::acquire();
        let (armed_tx, armed_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let other = thread::spawn(move || {
            let guard = FaultGuard::acquire();
            guard.arm("seed=1;test.leak=error").expect("valid spec");
            armed_tx.send(()).expect("receiver alive");
            release_rx.recv().expect("sender alive");
            assert!(inject("test.leak"), "the arming guard sees its plan");
        });
        assert!(
            armed_rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "another guard armed while this one was held"
        );
        assert!(!inject("test.leak"), "plan leaked into a held guard");
        drop(guard);
        // Once the other guard has armed, a new guard starts disarmed
        // whenever it gets the hold.
        armed_rx.recv().expect("other thread armed");
        release_tx.send(()).expect("receiver alive");
        let guard = FaultGuard::acquire();
        assert!(!inject("test.leak"), "plan leaked into a new guard");
        drop(guard);
        other.join().expect("other thread saw its own plan");
    }

    #[test]
    fn panic_injection_panics_with_the_point_name() {
        let guard = FaultGuard::acquire();
        guard.arm("seed=1;test.panics=panic").expect("valid spec");
        let result = std::panic::catch_unwind(|| inject("test.panics"));
        let payload = result.expect_err("must panic");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("test.panics"), "message: {message}");
    }

    #[test]
    fn delay_injection_sleeps_then_proceeds() {
        let guard = FaultGuard::acquire();
        guard.arm("seed=1;test.delay=delay(5)").expect("valid spec");
        let started = std::time::Instant::now();
        assert!(!inject("test.delay"));
        assert!(started.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn first_matching_rule_wins_on_stacked_points() {
        let guard = FaultGuard::acquire();
        guard
            .arm("seed=1;test.stacked=0%panic;test.stacked=error")
            .expect("valid spec");
        // The 0% panic rule never fires; the error rule always does.
        for _ in 0..10 {
            assert!(inject("test.stacked"));
        }
    }

    #[test]
    fn fail_point_macro_returns_the_mapped_error() {
        fn op() -> Result<u32, &'static str> {
            fail_point!("test.macro", "injected");
            Ok(42)
        }
        let guard = FaultGuard::acquire();
        assert_eq!(op(), Ok(42));
        guard.arm("seed=1;test.macro=error").expect("valid spec");
        assert_eq!(op(), Err("injected"));
    }
}
