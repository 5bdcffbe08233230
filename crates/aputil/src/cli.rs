//! One strict command-line flag parser for the workspace's binaries.
//!
//! A command declares the flags it accepts as groups of [`Flag`]s and its
//! positional arguments by name; [`parse`] checks an argv against that
//! declaration and hands back typed accessors. Nothing is guessed: an
//! unknown flag, a flag the command does not list, a missing value (end
//! of argv, or a following `--token`), a repeated flag and a wrong
//! positional count are all [`UsageError`]s naming the offender, and
//! flags and positionals may come in any order. Typed reads
//! ([`Args::value`], [`Args::list`]) name the flag and the offending text.

use std::fmt;
use std::str::FromStr;

/// One declared flag: `--name` (a switch) or `--name METAVAR`.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    /// The flag as typed, including the leading `--`.
    pub name: &'static str,
    /// Placeholder for the value in usage text; `None` for a switch.
    pub metavar: Option<&'static str>,
    /// One line of help, printed with every usage error.
    pub help: &'static str,
}

impl Flag {
    /// Declares a flag the way usage text spells it: `"--json"` is a
    /// switch, `"--bytes N"` takes one value.
    pub const fn new(spec: &'static str, help: &'static str) -> Flag {
        let b = spec.as_bytes();
        let mut i = 0;
        while i < b.len() && b[i] != b' ' {
            i += 1;
        }
        let (name, rest) = spec.split_at(i);
        let metavar = match rest.len() {
            0 => None,
            _ => Some(rest.split_at(1).1),
        };
        Flag {
            name,
            metavar,
            help,
        }
    }

    fn spec(&self) -> String {
        match self.metavar {
            Some(m) => format!("{} {m}", self.name),
            None => self.name.to_string(),
        }
    }
}

/// Why an argv does not fit a command's declaration; the message names
/// the offending flag and text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A parsed argv: the flags that were given and the positionals, in order.
#[derive(Debug)]
pub struct Args {
    accepted: Vec<Flag>,
    given: Vec<(&'static str, String)>,
    positionals: Vec<String>,
}

/// Checks `argv` against the accepted flag `groups` and the named
/// `positionals` (a name in `[brackets]` is optional; optional names
/// follow the required ones).
pub fn parse(
    argv: &[String],
    groups: &[&[Flag]],
    positionals: &[&str],
) -> Result<Args, UsageError> {
    let accepted: Vec<Flag> = groups.iter().flat_map(|g| g.iter().copied()).collect();
    let mut given: Vec<(&'static str, String)> = Vec::new();
    let mut found = Vec::new();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            found.push(arg.clone());
            continue;
        }
        let flag = accepted
            .iter()
            .find(|f| f.name == arg)
            .ok_or_else(|| UsageError(format!("{arg} is not a flag of this command")))?;
        if given.iter().any(|(name, _)| *name == flag.name) {
            return Err(UsageError(format!("{arg} given more than once")));
        }
        let value = match flag.metavar {
            None => String::new(),
            Some(metavar) => it
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| UsageError(format!("{arg} needs a value ({metavar})")))?
                .clone(),
        };
        given.push((flag.name, value));
    }
    let required = positionals.iter().filter(|p| !p.starts_with('[')).count();
    if !(required..=positionals.len()).contains(&found.len()) {
        let expected = match positionals {
            [] => "no positional arguments".to_string(),
            names => names.join(" "),
        };
        let got = found.len();
        return Err(UsageError(format!(
            "expected {expected}, got {got} positional argument(s)"
        )));
    }
    Ok(Args {
        accepted,
        given,
        positionals: found,
    })
}

impl Args {
    /// The declaration and, if given, the text of `name`. Asking for a
    /// flag the command never declared is a bug in the command table,
    /// not in the user's input.
    fn raw(&self, name: &str) -> (&Flag, Option<&str>) {
        let flag = self
            .accepted
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("command reads {name} but does not declare it"));
        let text = self.given.iter().find(|(n, _)| *n == name);
        (flag, text.map(|(_, v)| v.as_str()))
    }

    /// Whether the command declares the flag at all.
    pub fn accepts(&self, name: &str) -> bool {
        self.accepted.iter().any(|f| f.name == name)
    }

    /// Whether the flag was given (switch or value flag alike).
    pub fn switch(&self, name: &str) -> bool {
        self.raw(name).1.is_some()
    }

    /// The flag's value parsed as `T`, `None` when the flag is absent.
    pub fn value<T: FromStr>(&self, name: &str) -> Result<Option<T>, UsageError>
    where
        T::Err: fmt::Display,
    {
        let (flag, text) = self.raw(name);
        text.map(|text| parse_as(flag, text)).transpose()
    }

    /// [`value`](Self::value) for a flag the command cannot run without.
    pub fn required<T: FromStr>(&self, name: &str) -> Result<T, UsageError>
    where
        T::Err: fmt::Display,
    {
        let missing = || UsageError(format!("missing required {}", self.raw(name).0.spec()));
        self.value(name)?.ok_or_else(missing)
    }

    /// The flag's value split on commas, each element parsed as `T`.
    pub fn list<T: FromStr>(&self, name: &str) -> Result<Option<Vec<T>>, UsageError>
    where
        T::Err: fmt::Display,
    {
        let (flag, text) = self.raw(name);
        text.map(|text| text.split(',').map(|item| parse_as(flag, item)).collect())
            .transpose()
    }

    /// The `i`-th positional argument, if that many were given.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }
}

fn parse_as<T: FromStr>(flag: &Flag, text: &str) -> Result<T, UsageError>
where
    T::Err: fmt::Display,
{
    text.parse().map_err(|why: T::Err| {
        let metavar = flag.metavar.unwrap_or("no value");
        let name = flag.name;
        UsageError(format!("{name} takes {metavar}, got '{text}' ({why})"))
    })
}

/// An integer checked against `LO..=HI` as it is parsed, so a count or
/// an index read from the command line can never reach a constructor
/// that asserts the same range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ranged<const LO: u32, const HI: u32>(pub u32);

impl<const LO: u32, const HI: u32> FromStr for Ranged<LO, HI> {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        s.parse()
            .ok()
            .filter(|n| (LO..=HI).contains(n))
            .map(Ranged)
            .ok_or_else(|| format!("expected a whole number in {LO}..={HI}"))
    }
}

/// A `computation_factor` multiplier: a finite number in `(0, Factor::MAX]`.
/// The models scale computation time by it, so a negative, NaN or huge
/// factor would reach the assert in `SimTime::from_micros_f64`. The CLI
/// checks it as the flag is parsed, and the job server as a request is
/// read, both here.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Factor(pub f64);

impl Factor {
    /// The largest factor accepted.
    pub const MAX: f64 = 1000.0;

    /// `f` as a factor; `None` unless finite and in `(0, MAX]`.
    pub fn new(f: f64) -> Option<Factor> {
        (f.is_finite() && f > 0.0 && f <= Self::MAX).then_some(Factor(f))
    }
}

impl FromStr for Factor {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        s.parse()
            .ok()
            .and_then(Factor::new)
            .ok_or_else(|| format!("expected a finite number in (0, {}]", Factor::MAX))
    }
}

/// Usage text generated from a declaration: one synopsis line, then one
/// help line per flag. `command` is everything before the arguments,
/// e.g. `"repro fig7"`.
pub fn usage(command: &str, positionals: &[&str], groups: &[&[Flag]]) -> String {
    let specs: Vec<(String, &str)> = groups
        .iter()
        .flat_map(|g| g.iter().map(|f| (f.spec(), f.help)))
        .collect();
    let mut s = format!("usage: {command}");
    for p in positionals {
        s.push_str(&format!(" {p}"));
    }
    for (spec, _) in &specs {
        s.push_str(&format!(" [{spec}]"));
    }
    s.push('\n');
    let width = specs.iter().map(|(spec, _)| spec.len()).max().unwrap_or(0);
    for (spec, help) in &specs {
        s.push_str(&format!("  {spec:width$}  {help}\n"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const GROUPS: &[&[Flag]] = &[
        &[
            Flag::new("--bytes N", "message size"),
            Flag::new("--json", "machine-readable output"),
        ],
        &[Flag::new("--sizes N,..", "machine sizes")],
    ];

    fn parse_words(words: &[&str], positionals: &[&str]) -> Result<Args, UsageError> {
        let argv: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        parse(&argv, GROUPS, positionals)
    }

    /// The rejection's message, which must name every `needle`.
    fn rejected(words: &[&str], positionals: &[&str], needles: &[&str]) {
        let msg = parse_words(words, positionals).unwrap_err().to_string();
        for n in needles {
            assert!(msg.contains(n), "{words:?}: '{msg}' must name {n}");
        }
    }

    #[test]
    fn flags_and_positionals_parse_in_any_order() {
        for words in [
            ["a.json", "b.json", "--bytes", "10", "--json"],
            ["--bytes", "10", "a.json", "--json", "b.json"],
            ["--json", "a.json", "b.json", "--bytes", "10"],
        ] {
            let args = parse_words(&words, &["BASE", "CUR"]).unwrap();
            assert_eq!(args.value::<u64>("--bytes"), Ok(Some(10)));
            assert!(args.switch("--json") && !args.switch("--sizes"));
            assert!(args.accepts("--sizes") && !args.accepts("--ascii"));
            let got = [args.positional(0), args.positional(1), args.positional(2)];
            assert_eq!(got, [Some("a.json"), Some("b.json"), None]);
        }
    }

    #[test]
    fn every_rejection_class_names_the_offender() {
        // Unknown, and known elsewhere but not listed by this command.
        rejected(&["--byts", "10"], &[], &["--byts is not a flag"]);
        let unlisted = parse(&["--sizes".to_string()], &GROUPS[..1], &[]);
        assert!(unlisted.unwrap_err().0.contains("--sizes is not a flag"));
        // Missing value: end of argv, or a following `--token`.
        rejected(&["--bytes"], &[], &["--bytes", "needs a value (N)"]);
        rejected(&["--bytes", "--json"], &[], &["--bytes", "needs a value"]);
        // Repeated.
        rejected(&["--json", "--json"], &[], &["--json", "more than once"]);
        rejected(&["--bytes", "1", "--bytes", "2"], &[], &["--bytes"]);
        // Positional arity, both ways.
        let names = ["TRACE", "[WORKLOAD]"];
        assert!(parse_words(&["t"], &names).is_ok() && parse_words(&["t", "w"], &names).is_ok());
        rejected(&[], &names, &["TRACE [WORKLOAD]", "got 0"]);
        rejected(&["t", "w", "x"], &names, &["TRACE [WORKLOAD]", "got 3"]);
        rejected(&["stray"], &[], &["no positional arguments"]);
    }

    #[test]
    fn typed_reads_name_the_flag_and_the_text() {
        let args = parse_words(&["--bytes", "many", "--sizes", "4,big"], &[]).unwrap();
        let err = args.value::<u64>("--bytes").unwrap_err().to_string();
        assert!(err.contains("--bytes takes N, got 'many'"), "{err}");
        let err = args.list::<u32>("--sizes").unwrap_err().to_string();
        assert!(err.contains("--sizes") && err.contains("'big'"), "{err}");
        // A single dash is a value: negative numbers stay expressible.
        let ok = parse_words(&["--bytes", "-3", "--sizes", "4,8"], &[]).unwrap();
        assert_eq!(ok.value::<i64>("--bytes"), Ok(Some(-3)));
        assert_eq!(ok.list::<u32>("--sizes"), Ok(Some(vec![4, 8])));
        let none = parse_words(&[], &[]).unwrap();
        assert_eq!(none.value::<u64>("--bytes"), Ok(None));
        let err = none.required::<u64>("--bytes").unwrap_err().to_string();
        assert_eq!(err, "missing required --bytes N");
    }

    #[test]
    fn ranged_values_reject_both_ends() {
        type Cells = Ranged<1, 65536>;
        assert_eq!("1".parse::<Cells>(), Ok(Ranged(1)));
        assert_eq!("65536".parse::<Cells>(), Ok(Ranged(65536)));
        for bad in ["0", "65537", "70000", "-1", "many", ""] {
            let err = bad.parse::<Cells>().unwrap_err();
            assert!(err.contains("1..=65536"), "{bad}: {err}");
        }
        let args = parse_words(&["--bytes", "0"], &[]).unwrap();
        let err = args.value::<Cells>("--bytes").unwrap_err().to_string();
        assert!(err.contains("--bytes") && err.contains("'0'"), "{err}");
    }

    #[test]
    fn usage_is_generated_from_the_declaration() {
        let text = usage("repro fig7", &["TRACE"], GROUPS);
        assert!(text.starts_with("usage: repro fig7 TRACE [--bytes N] [--json] [--sizes N,..]\n"));
        assert!(text.contains("  --bytes N     message size\n"), "{text}");
    }

    #[test]
    #[should_panic(expected = "does not declare")]
    fn reading_an_undeclared_flag_is_a_table_bug() {
        parse_words(&[], &[]).unwrap().switch("--nope");
    }
}
