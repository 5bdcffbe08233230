//! RON serialization of fault schedules.
//!
//! Same hand-rolled dialect as the fuzzer's reproducers: nested structs,
//! enums with named fields, integers, `//` comments, trailing commas. All
//! times are written as integer nanoseconds (`*_ns`) so specs stay exact
//! and diff-able.

use crate::spec::{FaultEvent, FaultKind, FaultSpec, RecoveryParams};
use aputil::ron::Lexer;
use aputil::{CellId, SimTime};
use std::fmt::Write as _;

/// Renders a schedule as RON text; [`from_ron`] parses it back exactly.
pub fn to_ron(spec: &FaultSpec) -> String {
    let mut s = String::new();
    s.push_str("(\n");
    match spec.seed {
        None => s.push_str("    seed: None,\n"),
        Some(seed) => {
            let _ = writeln!(s, "    seed: Some({seed}),");
        }
    }
    let _ = writeln!(
        s,
        "    recovery: (ack_timeout_ns: {}, backoff_cap_ns: {}, max_retries: {}),",
        spec.recovery.ack_timeout.as_nanos(),
        spec.recovery.backoff_cap.as_nanos(),
        spec.recovery.max_retries,
    );
    s.push_str("    events: [\n");
    for e in &spec.events {
        let kind = e.kind;
        let _ = writeln!(
            s,
            "        (from_ns: {}, until_ns: {}, kind: {kind}),",
            e.from.as_nanos(),
            e.until.as_nanos(),
        );
    }
    s.push_str("    ],\n)\n");
    s
}

/// The RON form of the fault, as [`to_ron`] writes it.
impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FaultKind::LinkDown { from, to } => {
                write!(f, "LinkDown(from: {}, to: {})", from.index(), to.index())
            }
            FaultKind::Delay { src, dst, extra } => write!(
                f,
                "Delay(src: {}, dst: {}, extra_ns: {})",
                src.index(),
                dst.index(),
                extra.as_nanos()
            ),
            FaultKind::Corrupt { src, dst, count } => write!(
                f,
                "Corrupt(src: {}, dst: {}, count: {count})",
                src.index(),
                dst.index()
            ),
            FaultKind::Crash { cell } => write!(f, "Crash(cell: {})", cell.index()),
            FaultKind::BnetDown => f.write_str("BnetDown()"),
        }
    }
}

/// Parses RON text produced by [`to_ron`] (or hand-written in the same
/// dialect) back into a schedule.
///
/// # Errors
///
/// A message with the byte offset of the first syntax problem.
pub fn from_ron(text: &str) -> Result<FaultSpec, String> {
    let mut p = Lexer::new(text, "fault spec parse error");
    let spec = spec(&mut p)?;
    p.end()?;
    Ok(spec)
}

/// `name: int` pairs inside `( ... )`, any order, trailing comma ok.
fn int_fields(p: &mut Lexer) -> Result<Vec<(String, u64)>, String> {
    p.eat(b'(')?;
    let mut out = Vec::new();
    while !p.peek(b')') {
        let name = p.word()?;
        p.eat(b':')?;
        out.push((name, p.int()?));
        p.comma();
    }
    p.eat(b')')?;
    Ok(out)
}

fn spec(p: &mut Lexer) -> Result<FaultSpec, String> {
    p.eat(b'(')?;
    let mut seed = None;
    let mut recovery = RecoveryParams::default();
    let mut events = None;
    while !p.peek(b')') {
        let name = p.word()?;
        p.eat(b':')?;
        match name.as_str() {
            "seed" => match p.word()?.as_str() {
                "None" => {}
                "Some" => {
                    p.eat(b'(')?;
                    seed = Some(p.int()?);
                    p.eat(b')')?;
                }
                w => return Err(p.err(&format!("expected None/Some, got `{w}`"))),
            },
            "recovery" => {
                let at = p.pos();
                for (field, v) in int_fields(p)? {
                    match field.as_str() {
                        "ack_timeout_ns" => recovery.ack_timeout = SimTime::from_nanos(v),
                        "backoff_cap_ns" => recovery.backoff_cap = SimTime::from_nanos(v),
                        "max_retries" => recovery.max_retries = v as u32,
                        other => {
                            return Err(p.err_at(at, &format!("unknown recovery field `{other}`")))
                        }
                    }
                }
            }
            "events" => events = Some(self::events(p)?),
            other => return Err(p.err(&format!("unknown field `{other}`"))),
        }
        p.comma();
    }
    p.eat(b')')?;
    Ok(FaultSpec {
        seed,
        recovery,
        events: events.ok_or_else(|| p.err("missing events"))?,
    })
}

fn events(p: &mut Lexer) -> Result<Vec<FaultEvent>, String> {
    p.eat(b'[')?;
    let mut out = Vec::new();
    while !p.peek(b']') {
        out.push(event(p)?);
        p.comma();
    }
    p.eat(b']')?;
    Ok(out)
}

fn event(p: &mut Lexer) -> Result<FaultEvent, String> {
    p.eat(b'(')?;
    let (mut from, mut until, mut kind) = (None, None, None);
    while !p.peek(b')') {
        let name = p.word()?;
        p.eat(b':')?;
        match name.as_str() {
            "from_ns" => from = Some(SimTime::from_nanos(p.int()?)),
            "until_ns" => until = Some(SimTime::from_nanos(p.int()?)),
            "kind" => kind = Some(self::kind(p)?),
            other => return Err(p.err(&format!("unknown event field `{other}`"))),
        }
        p.comma();
    }
    p.eat(b')')?;
    Ok(FaultEvent {
        from: from.ok_or_else(|| p.err("event missing from_ns"))?,
        until: until.ok_or_else(|| p.err("event missing until_ns"))?,
        kind: kind.ok_or_else(|| p.err("event missing kind"))?,
    })
}

fn kind(p: &mut Lexer) -> Result<FaultKind, String> {
    let variant = p.word()?;
    let at = p.pos();
    let fields = int_fields(p)?;
    let get = |name: &str| -> Result<u64, String> {
        fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| p.err_at(at, &format!("{variant} needs field `{name}`")))
    };
    Ok(match variant.as_str() {
        "LinkDown" => FaultKind::LinkDown {
            from: CellId::new(get("from")? as u32),
            to: CellId::new(get("to")? as u32),
        },
        "Delay" => FaultKind::Delay {
            src: CellId::new(get("src")? as u32),
            dst: CellId::new(get("dst")? as u32),
            extra: SimTime::from_nanos(get("extra_ns")?),
        },
        "Corrupt" => FaultKind::Corrupt {
            src: CellId::new(get("src")? as u32),
            dst: CellId::new(get("dst")? as u32),
            count: get("count")? as u32,
        },
        "Crash" => FaultKind::Crash {
            cell: CellId::new(get("cell")? as u32),
        },
        "BnetDown" => FaultKind::BnetDown,
        other => return Err(format!("unknown fault kind `{other}`")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_random_specs() {
        for seed in 0..40 {
            for survivable in [true, false] {
                let spec = FaultSpec::random(seed, 16, survivable);
                let text = to_ron(&spec);
                let back = from_ron(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
                assert_eq!(spec, back, "seed {seed} round-trip\n{text}");
            }
        }
    }

    #[test]
    fn parses_hand_written_dialect() {
        let text = r#"
            // one transient outage plus a corrupted packet
            (
                seed: None,
                recovery: (ack_timeout_ns: 1000, max_retries: 3),
                events: [
                    (from_ns: 100, until_ns: 900, kind: LinkDown(to: 2, from: 1)),
                    (from_ns: 0, until_ns: 500, kind: Corrupt(src: 0, dst: 3, count: 1)),
                    (from_ns: 50, until_ns: 60, kind: BnetDown()),
                ],
            )
        "#;
        let spec = from_ron(text).unwrap();
        assert_eq!(spec.seed, None);
        assert_eq!(spec.recovery.max_retries, 3);
        assert_eq!(spec.recovery.ack_timeout.as_nanos(), 1000);
        // Unspecified recovery fields keep their defaults.
        assert_eq!(
            spec.recovery.backoff_cap,
            RecoveryParams::default().backoff_cap
        );
        assert_eq!(spec.events.len(), 3);
        assert!(matches!(
            spec.events[0].kind,
            FaultKind::LinkDown { from, to } if from.index() == 1 && to.index() == 2
        ));
        assert!(spec.is_survivable());
    }

    #[test]
    fn reports_errors_with_position() {
        assert!(from_ron("(seed: x)").unwrap_err().contains("byte"));
        assert!(
            from_ron("(events: [(from_ns: 1, until_ns: 2, kind: Nope())])")
                .unwrap_err()
                .contains("unknown fault kind")
        );
        assert!(from_ron("(seed: None)")
            .unwrap_err()
            .contains("missing events"));
    }
}
