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
            Val::Int(p.int(&name)?)
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
            "seed" => seed = Some(p.int(&name)?),
            "ncells" => ncells = Some(p.int(&name)?),
            "region" => region = Some(p.int(&name)?),
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

/// One action's parsed field list, read back field by field.
struct Fields<'a> {
    p: &'a Lexer<'a>,
    /// Where the list starts, for errors.
    at: usize,
    variant: &'a str,
    vals: Vec<(String, Val)>,
}

impl Fields<'_> {
    fn find(&self, name: &str) -> Option<&Val> {
        self.vals.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Integer field `name`, narrowed to its own width.
    fn int<T: TryFrom<i64>>(&self, name: &str) -> Result<T, String> {
        let Some(&Val::Int(v)) = self.find(name) else {
            let what = format!("{} needs integer field `{name}`", self.variant);
            return Err(self.p.err_at(self.at, &what));
        };
        self.p.fit(self.at, name, v)
    }

    fn word(&self, name: &str) -> Result<&str, String> {
        match self.find(name) {
            Some(Val::Word(w)) => Ok(w),
            _ => {
                let what = format!("{} needs word field `{name}`", self.variant);
                Err(self.p.err_at(self.at, &what))
            }
        }
    }
}

fn action(p: &mut Lexer) -> Result<Action, String> {
    let variant = p.word()?;
    let at = p.pos();
    let vals = fields(p)?;
    let f = Fields {
        p,
        at,
        variant: &variant,
        vals,
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
            src: f.int("src")?,
            dst: f.int("dst")?,
            src_off: f.int("src_off")?,
            item: f.int("item")?,
            count: f.int("count")?,
            extra: f.int("extra")?,
            mode: mode(f.word("mode")?)?,
            flag_send: f.int("flag_send")?,
            flag_recv: f.int("flag_recv")?,
            ack: f.word("ack")? == "true",
        },
        "Get" => Action::Get {
            owner: f.int("owner")?,
            reader: f.int("reader")?,
            src_off: f.int("src_off")?,
            item: f.int("item")?,
            count: f.int("count")?,
            extra: f.int("extra")?,
            mode: mode(f.word("mode")?)?,
            flag_send: f.int("flag_send")?,
            flag_recv: f.int("flag_recv")?,
        },
        "Send" => Action::Send {
            src: f.int("src")?,
            dst: f.int("dst")?,
            src_off: f.int("src_off")?,
            bytes: f.int("bytes")?,
        },
        "Bcast" => Action::Bcast {
            root: f.int("root")?,
            bytes: f.int("bytes")?,
        },
        "RStore" => Action::RStore {
            src: f.int("src")?,
            owner: f.int("owner")?,
            bytes: f.int("bytes")?,
            pattern: f.int("pattern")?,
        },
        "RLoad" => Action::RLoad {
            reader: f.int("reader")?,
            owner: f.int("owner")?,
            off: f.int("off")?,
            bytes: f.int("bytes")?,
        },
        "Work" => Action::Work {
            cell: f.int("cell")?,
            flops: f.int("flops")?,
        },
        "BadPutEmpty" => Action::BadPutEmpty {
            src: f.int("src")?,
            dst: f.int("dst")?,
        },
        "BadPutOverlap" => Action::BadPutOverlap {
            src: f.int("src")?,
            dst: f.int("dst")?,
        },
        "BadGetMismatch" => Action::BadGetMismatch {
            reader: f.int("reader")?,
            owner: f.int("owner")?,
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

    #[test]
    fn integers_are_read_at_their_field_width_never_wrapped() {
        let put = "Put(src: 0, dst: 1, src_off: 0, item: 8, count: 1, extra: 0, \
                   mode: Contig, flag_send: 300, flag_recv: -1, ack: false)";
        let prog = |head: &str, action: &str| format!("({head}, rounds: [[{action}]])");
        let base = "seed: 1, ncells: 2, region: 4096";
        for (text, field, width) in [
            (prog("seed: -1, ncells: 2, region: 4096", ""), "seed", "u64"),
            (
                prog("seed: 1, ncells: 4294967296, region: 4096", ""),
                "ncells",
                "u32",
            ),
            (prog(base, put), "flag_send", "i8"),
            (prog(base, "Work(cell: -1, flops: 1)"), "cell", "u32"),
            (
                prog(base, "Send(src: 0, dst: 1, src_off: 0, bytes: 4294967296)"),
                "bytes",
                "u32",
            ),
        ] {
            let err = from_ron(&text).unwrap_err();
            let want = format!("`{field}` needs an integer that fits {width}");
            assert!(err.contains(&want), "{text}: {err}");
        }
        let ok = prog(base, &put.replace("300", "-128"));
        let p = from_ron(&ok).unwrap();
        assert!(matches!(
            p.rounds[0][0],
            Action::Put {
                flag_send: -128,
                flag_recv: -1,
                ..
            }
        ));
    }
}
