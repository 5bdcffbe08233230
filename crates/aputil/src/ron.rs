//! Lexer for the workspace's hand-rolled RON dialect: nested structs,
//! enums with named fields, integer and string literals, `//` comments,
//! trailing commas. The fault-schedule and fuzz-reproducer grammars each
//! build their own productions on it; every error carries the grammar's
//! prefix and the byte offset of the problem.

use std::str::FromStr;

/// A cursor over RON text.
pub struct Lexer<'a> {
    s: &'a [u8],
    i: usize,
    prefix: &'static str,
}

impl<'a> Lexer<'a> {
    /// Starts at the beginning of `text`; `prefix` opens every error
    /// message (e.g. `"fault spec parse error"`).
    pub fn new(text: &'a str, prefix: &'static str) -> Lexer<'a> {
        Lexer {
            s: text.as_bytes(),
            i: 0,
            prefix,
        }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.i
    }

    /// An error message located at byte `at`.
    pub fn err_at(&self, at: usize, what: &str) -> String {
        format!("{} at byte {at}: {what}", self.prefix)
    }

    /// An error message located at the cursor.
    pub fn err(&self, what: &str) -> String {
        self.err_at(self.i, what)
    }

    /// Advances over the bytes `ok` accepts and returns them.
    fn take(&mut self, ok: impl Fn(u8) -> bool) -> &'a [u8] {
        let start = self.i;
        while self.s.get(self.i).is_some_and(|&c| ok(c)) {
            self.i += 1;
        }
        &self.s[start..self.i]
    }

    /// Skips whitespace and `//` comments.
    pub fn ws(&mut self) {
        self.take(|c| c.is_ascii_whitespace());
        while self.s[self.i..].starts_with(b"//") {
            self.take(|c| c != b'\n');
            self.take(|c| c.is_ascii_whitespace());
        }
    }

    /// Whether the next significant byte is `c`.
    pub fn peek(&mut self, c: u8) -> bool {
        self.ws();
        self.s.get(self.i) == Some(&c)
    }

    /// Consumes the byte `c` or fails.
    pub fn eat(&mut self, c: u8) -> Result<(), String> {
        if !self.peek(c) {
            return Err(self.err(&format!("expected `{}`", c as char)));
        }
        self.i += 1;
        Ok(())
    }

    /// Consumes a separating comma if one is next (trailing commas are
    /// allowed everywhere).
    pub fn comma(&mut self) {
        let _ = self.eat(b',');
    }

    /// Whether the next significant byte starts an integer literal.
    pub fn at_int(&mut self) -> bool {
        self.peek(b'-') || self.s.get(self.i).is_some_and(u8::is_ascii_digit)
    }

    /// An identifier: ASCII letters, digits and `_`.
    pub fn word(&mut self) -> Result<String, String> {
        self.ws();
        let word = self.take(|c| c.is_ascii_alphanumeric() || c == b'_');
        if word.is_empty() {
            return Err(self.err("expected identifier"));
        }
        Ok(String::from_utf8_lossy(word).into_owned())
    }

    /// The integer literal of field `field`, read at `T`'s width: a
    /// value `T` cannot hold is an error naming the field, never a
    /// wrapped number. A sign is accepted where `T` has one.
    pub fn int<T: FromStr>(&mut self, field: &str) -> Result<T, String> {
        self.ws();
        let start = self.i;
        self.i += usize::from(self.s.get(start) == Some(&b'-'));
        self.take(|c| c.is_ascii_digit());
        let text = std::str::from_utf8(&self.s[start..self.i]).ok();
        text.and_then(|t| t.parse().ok()).ok_or_else(|| {
            self.i = start;
            self.err(&not_fitting::<T>(field))
        })
    }

    /// Like [`Lexer::int`], for a value read wider than its field: `v`
    /// narrowed to `T`, or an error at `at` naming the field.
    pub fn fit<T: TryFrom<V>, V: Copy + std::fmt::Display>(
        &self,
        at: usize,
        field: &str,
        v: V,
    ) -> Result<T, String> {
        T::try_from(v)
            .map_err(|_| self.err_at(at, &format!("{}, got {v}", not_fitting::<T>(field))))
    }

    /// A `"`-quoted string without escapes.
    pub fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let out = String::from_utf8_lossy(self.take(|c| c != b'"')).into_owned();
        self.eat(b'"')?;
        Ok(out)
    }

    /// Fails unless only whitespace and comments remain.
    pub fn end(&mut self) -> Result<(), String> {
        self.ws();
        if self.i < self.s.len() {
            return Err(self.err("trailing input"));
        }
        Ok(())
    }
}

fn not_fitting<T>(field: &str) -> String {
    format!(
        "`{field}` needs an integer that fits {}",
        std::any::type_name::<T>()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_the_dialect_and_locates_errors() {
        let text = "// note\n( seed: 18446744073709551615, off: -3, s: \"a b\", ) x";
        let mut p = Lexer::new(text, "ron parse error");
        p.eat(b'(').unwrap();
        assert_eq!(p.word().unwrap(), "seed");
        p.eat(b':').unwrap();
        assert_eq!(p.int::<u64>("seed").unwrap(), u64::MAX);
        p.comma();
        assert_eq!((p.word().unwrap().as_str(), p.eat(b':')), ("off", Ok(())));
        assert!(p.at_int());
        // A sign is an error where the target type has none.
        let err = "ron parse error at byte 43: `off` needs an integer that fits u64";
        assert_eq!(p.int::<u64>("off").unwrap_err(), err);
        assert_eq!(p.int::<i64>("off").unwrap(), -3);
        let err = "ron parse error at byte 43: `off` needs an integer that fits u8, got -3";
        assert_eq!(p.fit::<u8, i64>(43, "off", -3).unwrap_err(), err);
        assert_eq!(p.fit::<u8, u64>(43, "off", 255), Ok(255));
        p.comma();
        assert_eq!((p.word().unwrap().as_str(), p.eat(b':')), ("s", Ok(())));
        assert!(!p.at_int());
        assert_eq!(p.string().unwrap(), "a b");
        p.comma();
        let err = "ron parse error at byte 57: expected `]`";
        assert_eq!(p.eat(b']').unwrap_err(), err);
        p.eat(b')').unwrap();
        let err = "ron parse error at byte 59: trailing input";
        assert_eq!(p.end().unwrap_err(), err);
    }
}
