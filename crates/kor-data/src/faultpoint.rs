//! Deterministic fault injection for crash-safety tests.
//!
//! A *fault point* is a named place in the code (today: the mutation
//! journal's append path and the serve request loop) that consults this
//! registry before proceeding. Arming a point makes its Nth execution
//! fail in a chosen way — return an injected I/O error, write a torn
//! record and die, crash outright, or panic — so the crash-recovery
//! batteries can hit the exact byte-level windows the journal's
//! torn-tail tolerance is about, repeatably.
//!
//! Points are armed either programmatically with [`arm`] (in-process
//! tests) or through the `KOR_FAULTPOINT` environment variable
//! (child-process and CI smoke tests): a comma-separated list of
//! `name:action[:nth][@id=ID]` specs, e.g.
//!
//! ```text
//! KOR_FAULTPOINT=journal-append:torn:3,serve-request:panic@id=victim
//! ```
//!
//! `nth` defaults to 1 and counts executions of that point
//! process-wide; the fault fires on exactly the Nth hit and never
//! again, so a retry after an injected error goes through. An `@id=ID`
//! predicate narrows the spec to executions on behalf of one target —
//! the request id at `serve-request` (a string id verbatim, any other
//! id as its JSON text), the record epoch at `journal-append` and
//! `journal-synced` — and `nth` then counts only those, so the fault
//! lands on the intended request whatever the worker count or
//! schedule. An unarmed process pays one mutex lock plus an empty-vec
//! scan per point — the registry is not on any per-query path.

use std::fmt;
use std::io;
use std::sync::{Mutex, OnceLock};

/// Environment variable holding fault-point specs for a process.
pub const ENV_VAR: &str = "KOR_FAULTPOINT";

/// What an armed fault point does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Abort the process on the spot (no unwinding, no flushing) —
    /// `kill -9` as seen from inside.
    Crash,
    /// Write only a prefix of the pending record, flush that much, then
    /// abort — a torn tail exactly as a mid-write power cut leaves one.
    /// Only meaningful at write-path points; elsewhere it acts like
    /// [`FaultAction::Crash`].
    Torn,
    /// Make the operation fail with an injected [`io::Error`] instead
    /// of performing it. The process survives.
    IoError,
    /// Panic with the point's name, for exercising `catch_unwind`
    /// isolation.
    Panic,
}

impl FaultAction {
    fn parse(s: &str) -> Result<FaultAction, String> {
        match s {
            "crash" => Ok(FaultAction::Crash),
            "torn" => Ok(FaultAction::Torn),
            "io-error" => Ok(FaultAction::IoError),
            "panic" => Ok(FaultAction::Panic),
            other => Err(format!(
                "unknown fault action {other:?} (expected crash, torn, io-error, or panic)"
            )),
        }
    }

    /// The spec spelling of this action.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultAction::Crash => "crash",
            FaultAction::Torn => "torn",
            FaultAction::IoError => "io-error",
            FaultAction::Panic => "panic",
        }
    }
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

struct ArmedPoint {
    name: String,
    action: FaultAction,
    nth: u64,
    /// Only executions on behalf of this target id count (`@id=…`).
    id: Option<String>,
    hits: u64,
}

fn registry() -> &'static Mutex<Vec<ArmedPoint>> {
    static REGISTRY: OnceLock<Mutex<Vec<ArmedPoint>>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut points = Vec::new();
        if let Ok(specs) = std::env::var(ENV_VAR) {
            for spec in specs.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                match parse_spec(spec) {
                    Ok(point) => points.push(point),
                    // A typo in the env var must not silently disarm a
                    // crash test; be loud on stderr and keep going.
                    Err(e) => eprintln!("kor: ignoring fault point {spec:?}: {e}"),
                }
            }
        }
        Mutex::new(points)
    })
}

fn parse_spec(spec: &str) -> Result<ArmedPoint, String> {
    let (spec, id) = match spec.split_once('@') {
        None => (spec, None),
        Some((head, predicate)) => match predicate.strip_prefix("id=") {
            Some(id) if !id.is_empty() => (head, Some(id.to_string())),
            _ => return Err(format!("predicate must be id=ID, got {predicate:?}")),
        },
    };
    let mut parts = spec.split(':');
    let name = parts.next().unwrap_or_default();
    if name.is_empty() {
        return Err("empty fault point name".into());
    }
    let action = FaultAction::parse(parts.next().ok_or("missing action")?)?;
    let nth = match parts.next() {
        None => 1,
        Some(n) => n
            .parse::<u64>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("nth must be a positive integer, got {n:?}"))?,
    };
    if parts.next().is_some() {
        return Err("too many ':' fields (expected name:action[:nth][@id=ID])".into());
    }
    Ok(ArmedPoint {
        name: name.to_string(),
        action,
        nth,
        id,
        hits: 0,
    })
}

/// Arms a fault point from a `name:action[:nth][@id=ID]` spec, exactly as the
/// [`ENV_VAR`] variable would. Used by in-process tests; multiple arms
/// of the same name stack (each keeps its own hit counter).
pub fn arm(spec: &str) -> Result<(), String> {
    let point = parse_spec(spec)?;
    registry().lock().unwrap().push(point);
    Ok(())
}

/// Records one execution of the named point on behalf of target `id`
/// (if the point has one) and reports the action to take, if this hit is
/// the one an armed spec targets. Each armed spec fires exactly once, on
/// its Nth matching hit.
pub fn hit(name: &str, id: Option<&str>) -> Option<FaultAction> {
    let mut points = registry().lock().unwrap();
    for p in points.iter_mut() {
        if p.name == name && p.id.as_deref().is_none_or(|want| id == Some(want)) {
            p.hits += 1;
            if p.hits == p.nth {
                return Some(p.action);
            }
        }
    }
    None
}

/// The error an [`FaultAction::IoError`] injection produces.
pub fn injected_error(name: &str) -> io::Error {
    io::Error::other(format!("injected fault at point {name:?}"))
}

/// Kills the process the way a power cut would: a note on stderr (so
/// test logs show the fault fired, not a mystery death), then `abort` —
/// no unwinding, no destructors, no buffered-write flushing.
pub fn die(name: &str) -> ! {
    eprintln!("kor: fault point {name:?} firing: aborting process");
    std::process::abort();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_points_never_fire() {
        for _ in 0..100 {
            assert_eq!(hit("test-unarmed-point", None), None);
        }
    }

    #[test]
    fn fires_exactly_on_the_nth_hit_and_once() {
        arm("test-nth-point:io-error:3").unwrap();
        assert_eq!(hit("test-nth-point", None), None);
        assert_eq!(hit("test-nth-point", Some("any")), None);
        assert_eq!(hit("test-nth-point", None), Some(FaultAction::IoError));
        // Fired once; later hits (a retry, say) pass.
        assert_eq!(hit("test-nth-point", None), None);
    }

    #[test]
    fn id_predicate_fires_only_for_its_target() {
        arm("test-id-point:panic:2@id=victim").unwrap();
        // Other targets, and executions without one, neither fire nor
        // count toward nth.
        for _ in 0..5 {
            assert_eq!(hit("test-id-point", Some("alive")), None);
            assert_eq!(hit("test-id-point", None), None);
        }
        assert_eq!(hit("test-id-point", Some("victim")), None);
        assert_eq!(hit("test-id-point", Some("alive")), None);
        assert_eq!(
            hit("test-id-point", Some("victim")),
            Some(FaultAction::Panic)
        );
        assert_eq!(hit("test-id-point", Some("victim")), None);
    }

    #[test]
    fn specs_parse_strictly() {
        for bad in [
            "",
            ":panic",
            "p",
            "p:demolish",
            "p:panic:0",
            "p:panic:-1",
            "p:panic:two",
            "p:panic:1:extra",
            "p:panic@",
            "p:panic@id=",
            "p:panic@epoch=3",
            "p:panic:0@id=x",
        ] {
            assert!(arm(bad).is_err(), "spec {bad:?} should be rejected");
        }
        for (action, parsed) in [
            ("crash", FaultAction::Crash),
            ("torn", FaultAction::Torn),
            ("io-error", FaultAction::IoError),
            ("panic", FaultAction::Panic),
        ] {
            assert_eq!(FaultAction::parse(action), Ok(parsed));
            assert_eq!(parsed.as_str(), action);
        }
    }

    #[test]
    fn injected_errors_name_the_point() {
        let e = injected_error("some-point");
        assert!(e.to_string().contains("some-point"));
    }
}
