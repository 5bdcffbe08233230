//! Standalone RON-style reproducers.
//!
//! Every shrunk failure is emitted as a small, human-editable text file
//! (`tests/corpus/*.ron` at the repository root) that [`from_ron`] parses
//! back into the exact [`FuzzProgram`]. Hand-rolled on purpose: the
//! workspace is offline, and the subset needed here — nested structs,
//! enums with named fields, integer/bool/string literals, `//` comments,
//! trailing commas — is small.

use crate::program::{Action, FuzzProgram, StrideMode};
use aputil::ron::Lexer;
use std::fmt::Write as _;

/// Renders a program as RON text.
pub fn to_ron(p: &FuzzProgram) -> String {
    let mut s = String::new();
    s.push_str("(\n");
    let _ = writeln!(s, "    seed: {},", p.seed);
    let _ = writeln!(s, "    ncells: {},", p.ncells);
    let _ = writeln!(s, "    region: {},", p.region);
    match &p.expect_error {
        None => s.push_str("    expect_error: None,\n"),
        Some(e) => {
            let _ = writeln!(s, "    expect_error: Some(\"{e}\"),");
        }
    }
    s.push_str("    rounds: [\n");
    for round in &p.rounds {
        s.push_str("        [\n");
        for a in round {
            let _ = writeln!(s, "            {},", action_ron(a));
        }
        s.push_str("        ],\n");
    }
    s.push_str("    ],\n)\n");
    s
}

fn action_ron(a: &Action) -> String {
    match a {
        Action::Put {
            src,
            dst,
            src_off,
            item,
            count,
            extra,
            mode,
            flag_send,
            flag_recv,
            ack,
        } => format!(
            "Put(src: {src}, dst: {dst}, src_off: {src_off}, item: {item}, count: {count}, \
             extra: {extra}, mode: {mode:?}, flag_send: {flag_send}, flag_recv: {flag_recv}, \
             ack: {ack})"
        ),
        Action::Get {
            owner,
            reader,
            src_off,
            item,
            count,
            extra,
            mode,
            flag_send,
            flag_recv,
        } => format!(
            "Get(owner: {owner}, reader: {reader}, src_off: {src_off}, item: {item}, \
             count: {count}, extra: {extra}, mode: {mode:?}, flag_send: {flag_send}, \
             flag_recv: {flag_recv})"
        ),
        Action::Send {
            src,
            dst,
            src_off,
            bytes,
        } => format!("Send(src: {src}, dst: {dst}, src_off: {src_off}, bytes: {bytes})"),
        Action::Bcast { root, bytes } => format!("Bcast(root: {root}, bytes: {bytes})"),
        Action::RStore {
            src,
            owner,
            bytes,
            pattern,
        } => format!("RStore(src: {src}, owner: {owner}, bytes: {bytes}, pattern: {pattern})"),
        Action::RLoad {
            reader,
            owner,
            off,
            bytes,
        } => format!("RLoad(reader: {reader}, owner: {owner}, off: {off}, bytes: {bytes})"),
        Action::Work { cell, flops } => format!("Work(cell: {cell}, flops: {flops})"),
        Action::BadPutEmpty { src, dst } => format!("BadPutEmpty(src: {src}, dst: {dst})"),
        Action::BadPutOverlap { src, dst } => format!("BadPutOverlap(src: {src}, dst: {dst})"),
        Action::BadGetMismatch { reader, owner } => {
            format!("BadGetMismatch(reader: {reader}, owner: {owner})")
        }
    }
}

/// Parses RON text produced by [`to_ron`] (or hand-written in the same
/// dialect) back into a program.
///
/// # Errors
///
/// A message with the byte offset of the first syntax problem.
pub fn from_ron(text: &str) -> Result<FuzzProgram, String> {
    let mut p = Lexer::new(text, "ron parse error");
    let prog = program(&mut p)?;
    p.end()?;
    Ok(prog)
}

/// One parsed `name: value` field.
enum Val {
    Int(i64),
    Word(String),
}

/// `name: value` pairs inside `( ... )`, any order, trailing comma ok.
fn fields(p: &mut Lexer) -> Result<Vec<(String, Val)>, String> {
    p.eat(b'(')?;
    let mut out = Vec::new();
    while !p.peek(b')') {
        let name = p.word()?;
        p.eat(b':')?;
        let val = if p.at_int() {
            Val::Int(p.int()?)
        } else {
            Val::Word(p.word()?)
        };
        out.push((name, val));
        p.comma();
    }
    p.eat(b')')?;
    Ok(out)
}

fn program(p: &mut Lexer) -> Result<FuzzProgram, String> {
    p.eat(b'(')?;
    let (mut seed, mut ncells, mut region) = (None, None, None);
    let mut expect_error = None;
    let mut rounds = None;
    while !p.peek(b')') {
        let name = p.word()?;
        p.eat(b':')?;
        match name.as_str() {
            "seed" => seed = Some(p.int::<i64>()? as u64),
            "ncells" => ncells = Some(p.int::<i64>()? as u32),
            "region" => region = Some(p.int::<i64>()? as u64),
            "expect_error" => match p.word()?.as_str() {
                "None" => {}
                "Some" => {
                    p.eat(b'(')?;
                    expect_error = Some(p.string()?);
                    p.eat(b')')?;
                }
                w => return Err(p.err(&format!("expected None/Some, got `{w}`"))),
            },
            "rounds" => rounds = Some(self::rounds(p)?),
            other => return Err(p.err(&format!("unknown field `{other}`"))),
        }
        p.comma();
    }
    p.eat(b')')?;
    Ok(FuzzProgram {
        seed: seed.ok_or_else(|| p.err("missing seed"))?,
        ncells: ncells.ok_or_else(|| p.err("missing ncells"))?,
        region: region.ok_or_else(|| p.err("missing region"))?,
        expect_error,
        rounds: rounds.ok_or_else(|| p.err("missing rounds"))?,
    })
}

fn rounds(p: &mut Lexer) -> Result<Vec<Vec<Action>>, String> {
    p.eat(b'[')?;
    let mut rounds = Vec::new();
    while !p.peek(b']') {
        p.eat(b'[')?;
        let mut round = Vec::new();
        while !p.peek(b']') {
            round.push(action(p)?);
            p.comma();
        }
        p.eat(b']')?;
        rounds.push(round);
        p.comma();
    }
    p.eat(b']')?;
    Ok(rounds)
}

fn action(p: &mut Lexer) -> Result<Action, String> {
    let variant = p.word()?;
    let at = p.pos();
    let fields = fields(p)?;
    let get = |name: &str| -> Result<i64, String> {
        fields
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| match v {
                Val::Int(i) => Some(*i),
                Val::Word(_) => None,
            })
            .ok_or_else(|| p.err_at(at, &format!("{variant} needs integer field `{name}`")))
    };
    let get_word = |name: &str| -> Result<&str, String> {
        fields
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| match v {
                Val::Word(w) => Some(w.as_str()),
                Val::Int(_) => None,
            })
            .ok_or_else(|| p.err_at(at, &format!("{variant} needs word field `{name}`")))
    };
    let mode = |w: &str| -> Result<StrideMode, String> {
        match w {
            "Contig" => Ok(StrideMode::Contig),
            "Stride" => Ok(StrideMode::Stride),
            "SendStride" => Ok(StrideMode::SendStride),
            "RecvStride" => Ok(StrideMode::RecvStride),
            other => Err(format!("unknown stride mode `{other}`")),
        }
    };
    Ok(match variant.as_str() {
        "Put" => Action::Put {
            src: get("src")? as u32,
            dst: get("dst")? as u32,
            src_off: get("src_off")? as u32,
            item: get("item")? as u32,
            count: get("count")? as u32,
            extra: get("extra")? as u32,
            mode: mode(get_word("mode")?)?,
            flag_send: get("flag_send")? as i8,
            flag_recv: get("flag_recv")? as i8,
            ack: get_word("ack")? == "true",
        },
        "Get" => Action::Get {
            owner: get("owner")? as u32,
            reader: get("reader")? as u32,
            src_off: get("src_off")? as u32,
            item: get("item")? as u32,
            count: get("count")? as u32,
            extra: get("extra")? as u32,
            mode: mode(get_word("mode")?)?,
            flag_send: get("flag_send")? as i8,
            flag_recv: get("flag_recv")? as i8,
        },
        "Send" => Action::Send {
            src: get("src")? as u32,
            dst: get("dst")? as u32,
            src_off: get("src_off")? as u32,
            bytes: get("bytes")? as u32,
        },
        "Bcast" => Action::Bcast {
            root: get("root")? as u32,
            bytes: get("bytes")? as u32,
        },
        "RStore" => Action::RStore {
            src: get("src")? as u32,
            owner: get("owner")? as u32,
            bytes: get("bytes")? as u32,
            pattern: get("pattern")? as u32,
        },
        "RLoad" => Action::RLoad {
            reader: get("reader")? as u32,
            owner: get("owner")? as u32,
            off: get("off")? as u32,
            bytes: get("bytes")? as u32,
        },
        "Work" => Action::Work {
            cell: get("cell")? as u32,
            flops: get("flops")? as u32,
        },
        "BadPutEmpty" => Action::BadPutEmpty {
            src: get("src")? as u32,
            dst: get("dst")? as u32,
        },
        "BadPutOverlap" => Action::BadPutOverlap {
            src: get("src")? as u32,
            dst: get("dst")? as u32,
        },
        "BadGetMismatch" => Action::BadGetMismatch {
            reader: get("reader")? as u32,
            owner: get("owner")? as u32,
        },
        other => return Err(format!("unknown action `{other}`")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::gen_program;

    #[test]
    fn round_trips_generated_programs() {
        for seed in 0..50 {
            let p = gen_program(seed, 7);
            let text = to_ron(&p);
            let back = from_ron(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
            assert_eq!(p, back, "seed {seed} round-trip\n{text}");
        }
    }

    #[test]
    fn parses_hand_written_dialect() {
        let text = r#"
            // a comment
            (
                seed: 7, ncells: 3, region: 4096,
                expect_error: Some("overlap"),
                rounds: [[
                    BadPutOverlap(dst: 1, src: 0),
                    Work(cell: 2, flops: 10),
                ]],
            )
        "#;
        let p = from_ron(text).unwrap();
        assert_eq!(p.ncells, 3);
        assert_eq!(p.expect_error.as_deref(), Some("overlap"));
        assert_eq!(p.total_actions(), 2);
    }

    #[test]
    fn reports_errors_with_position() {
        let err = from_ron("(seed: x)").unwrap_err();
        assert!(err.contains("byte"), "err: {err}");
        assert!(from_ron("(seed: 1, ncells: 2, rounds: [])")
            .unwrap_err()
            .contains("missing region"));
    }
}
