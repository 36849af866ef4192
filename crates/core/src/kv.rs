//! The one reader and writer of the workspace's `header` +
//! `key = value` line records: scenario specs here, and the sweep
//! store's run, lease and quarantine files in `mtnet-bench`.
//!
//! A record type declares its fields **once**, in a `static`
//! [`Record`] table: key, typed accessor, value [`Kind`] with its legal
//! range, and [`Presence`] (required on input, rendered always / only
//! when not the default / never). Rendering, parsing, single-key
//! assignment, the per-key range checks and the key list are the
//! generic loops below, so a key cannot be rendered but not parsed,
//! or parsed but not range-checked. The line format itself is fixed:
//! the header is the first non-blank line, blank lines are skipped,
//! the first `=` splits key from value (values may contain `=`), both
//! sides are trimmed, a repeated key's last value wins, integers parse
//! at the width of the field they land in, and every error that
//! belongs to a line carries its 1-based number.

use std::fmt::Write as _;
use std::ops::RangeInclusive;

/// A parse, assignment or range error: which line (1-based; 0 when the
/// error belongs to no single line) and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// 1-based line number within the parsed text, 0 when not line-bound.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            f.write_str(&self.message)
        }
    }
}

impl std::error::Error for Error {}

/// A not-line-bound [`Error`].
pub fn err(message: impl Into<String>) -> Error {
    Error {
        line: 0,
        message: message.into(),
    }
}

/// Read and write access to one field of `T`; built by [`lens!`](crate::lens).
pub struct Lens<T, X>(pub fn(&T) -> &X, pub fn(&mut T) -> &mut X);

/// The [`Lens`] of a field path: `lens!(pid)`, `lens!(faults.eclipses)`.
#[macro_export]
macro_rules! lens {
    ($($path:tt)+) => {
        $crate::kv::Lens(|r| &r.$($path)+, |r| &mut r.$($path)+)
    };
}

/// The legal values of a float field. Every variant excludes NaN and
/// the infinities, so a parsed record always equals its own re-parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Real {
    /// Any finite number.
    Finite,
    /// Finite and `>= 0`.
    NonNegative,
    /// Finite and `> 0`.
    Positive,
}

/// A field's value syntax, where it lives in the record, and its range.
pub enum Kind<T: 'static> {
    /// The rest of the line, verbatim.
    Raw(Lens<T, String>),
    /// One double-quoted string (see [`quote`]).
    Quoted(Lens<T, String>),
    /// A decimal integer within the range.
    U32(Lens<T, u32>, RangeInclusive<u32>),
    /// A decimal integer.
    U64(Lens<T, u64>),
    /// Sixteen hex digits.
    Hex64(Lens<T, u64>),
    /// A float, rendered round-trip exact.
    F64(Lens<T, f64>, Real),
    /// `on` / `off`.
    Switch(Lens<T, bool>),
    /// `none`, or milliseconds at or above the minimum.
    Millis(Lens<T, Option<u64>>, u64),
    /// A composite value with its own parse/render pair; `grammar` is
    /// both its documentation and its error message.
    Codec {
        /// The value's form, as shown to a user who got it wrong.
        grammar: &'static str,
        /// Parses and assigns; `None` on any deviation from `grammar`.
        parse: fn(&mut T, &str) -> Option<()>,
        /// Renders the current value.
        text: fn(&T) -> String,
    },
}

impl<T> Kind<T> {
    /// Parses `value` and assigns it (range checks are [`Kind::in_range`]).
    fn assign(&self, rec: &mut T, value: &str) -> Option<()> {
        match self {
            Kind::Raw(at) => *at.1(rec) = value.to_string(),
            Kind::Quoted(at) => {
                let [one] = <[String; 1]>::try_from(tokens(value)?).ok()?;
                *at.1(rec) = one;
            }
            Kind::U32(at, _) => *at.1(rec) = value.parse().ok()?,
            Kind::U64(at) => *at.1(rec) = value.parse().ok()?,
            Kind::Hex64(at) => *at.1(rec) = u64::from_str_radix(value, 16).ok()?,
            Kind::F64(at, _) => *at.1(rec) = value.parse().ok()?,
            Kind::Switch(at) => {
                *at.1(rec) = match value {
                    "on" | "true" => true,
                    "off" | "false" => false,
                    _ => return None,
                }
            }
            Kind::Millis(at, _) => {
                *at.1(rec) = match value {
                    "none" => None,
                    ms => Some(ms.parse().ok()?),
                }
            }
            Kind::Codec { parse, .. } => parse(rec, value)?,
        }
        Some(())
    }

    /// The field's current value in the line format.
    fn text(&self, rec: &T) -> String {
        match self {
            Kind::Raw(at) => at.0(rec).clone(),
            Kind::Quoted(at) => quote(at.0(rec)),
            Kind::U32(at, _) => at.0(rec).to_string(),
            Kind::U64(at) => at.0(rec).to_string(),
            Kind::Hex64(at) => format!("{:016x}", at.0(rec)),
            Kind::F64(at, _) => format!("{:?}", at.0(rec)),
            Kind::Switch(at) => if *at.0(rec) { "on" } else { "off" }.into(),
            Kind::Millis(at, _) => at.0(rec).map_or_else(|| "none".into(), |ms| ms.to_string()),
            Kind::Codec { text, .. } => text(rec),
        }
    }

    /// Whether the current value lies in the declared range.
    fn in_range(&self, rec: &T) -> bool {
        match self {
            Kind::U32(at, range) => range.contains(at.0(rec)),
            Kind::F64(at, real) => {
                let v = *at.0(rec);
                v.is_finite()
                    && match real {
                        Real::Finite => true,
                        Real::NonNegative => v >= 0.0,
                        Real::Positive => v > 0.0,
                    }
            }
            Kind::Millis(at, min) => at.0(rec).unwrap_or(*min) >= *min,
            _ => true,
        }
    }

    /// The value syntax and range, for error messages and the key table
    /// of EXPERIMENTS.md.
    pub fn describe(&self) -> String {
        match self {
            Kind::Raw(_) => "text".into(),
            Kind::Quoted(_) => "quoted string".into(),
            Kind::U32(_, r) if *r == (0..=u32::MAX) => "integer".into(),
            Kind::U32(_, r) if *r.end() == u32::MAX => format!("integer >= {}", r.start()),
            Kind::U32(_, r) => format!("integer {}..={}", r.start(), r.end()),
            Kind::U64(_) => "integer".into(),
            Kind::Hex64(_) => "16 hex digits".into(),
            Kind::F64(_, Real::Finite) => "finite number".into(),
            Kind::F64(_, Real::NonNegative) => "finite number >= 0".into(),
            Kind::F64(_, Real::Positive) => "finite number > 0".into(),
            Kind::Switch(_) => "on | off".into(),
            Kind::Millis(_, min) => format!("milliseconds >= {min} | none"),
            Kind::Codec { grammar, .. } => (*grammar).into(),
        }
    }
}

/// Whether a field must appear on input and when it is rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Presence {
    /// Must appear on input; always rendered.
    Required,
    /// Optional on input (the record's `init` value stands); always
    /// rendered.
    Always,
    /// Optional on input; rendered only when it differs from the `init`
    /// value, so texts written before the key existed stay canonical.
    NonDefault,
    /// Accepted on input, never rendered (an assignment-only key).
    Never,
}

/// One declared field of a record.
pub struct Field<T: 'static> {
    /// The key, as spelled in the text.
    pub key: &'static str,
    /// Input and rendering policy.
    pub presence: Presence,
    /// Value syntax, accessor and range.
    pub kind: Kind<T>,
}

/// Shorthand constructor that keeps a field table one line per key.
pub const fn field<T>(key: &'static str, presence: Presence, kind: Kind<T>) -> Field<T> {
    Field {
        key,
        presence,
        kind,
    }
}

/// A record type's whole declaration.
pub struct Record<T: 'static> {
    /// The header line.
    pub header: &'static str,
    /// Whether `#` lines are comments (hand-written files) or errors
    /// (machine-written ones).
    pub comments: bool,
    /// The record before any line is read: the defaults of optional
    /// fields, and what [`Presence::NonDefault`] compares against.
    pub init: fn() -> T,
    /// The `key = value` fields, in rendering order (at most 64).
    pub fields: &'static [Field<T>],
    /// Lines that are not `key = value`: a line starting with the prefix
    /// goes, minus the prefix and untrimmed, to the handler (`None`
    /// rejects it). Tried before the `=` split.
    #[allow(clippy::type_complexity)]
    pub blocks: &'static [(&'static str, fn(&mut T, &str) -> Option<()>)],
}

impl<T> Record<T> {
    /// `key must be <kind>, got <value>`, when `f`'s value is out of range.
    fn check_field(f: &Field<T>, rec: &T) -> Result<(), Error> {
        if f.kind.in_range(rec) {
            return Ok(());
        }
        let (kind, got) = (f.kind.describe(), f.kind.text(rec));
        Err(err(format!("{} must be {kind}, got {got}", f.key)))
    }

    /// Range-checks every field — for records whose fields are public
    /// and may have been written without [`Record::set`].
    pub fn check(&self, rec: &T) -> Result<(), Error> {
        self.fields
            .iter()
            .try_for_each(|f| Self::check_field(f, rec))
    }

    /// Applies one `key = value` assignment and range-checks it.
    pub fn set(&self, rec: &mut T, key: &str, value: &str) -> Result<(), Error> {
        self.set_from(0, rec, key, value).map(|_| ())
    }

    /// [`Record::set`], returning the field's index. The key search
    /// starts at field `hint` and wraps, so a text in rendering order
    /// finds each key at the first probe.
    fn set_from(&self, hint: usize, rec: &mut T, key: &str, value: &str) -> Result<usize, Error> {
        let n = self.fields.len();
        let mut probes = (hint..n).chain(0..hint.min(n));
        let i = probes
            .find(|&i| self.fields[i].key == key)
            .ok_or_else(|| err(format!("unknown key {key:?}")))?;
        let f = &self.fields[i];
        if f.kind.assign(rec, value).is_none() {
            let kind = f.kind.describe();
            return Err(err(format!("{key} must be {kind}, got {value:?}")));
        }
        Self::check_field(f, rec).map(|()| i)
    }

    /// Renders the header and every field its [`Presence`] shows.
    pub fn render(&self, rec: &T) -> String {
        let base = (self.init)();
        let mut out = format!("{}\n", self.header);
        for f in self.fields {
            let text = f.kind.text(rec);
            let shown = match f.presence {
                Presence::Required | Presence::Always => true,
                Presence::NonDefault => text != f.kind.text(&base),
                Presence::Never => false,
            };
            if shown {
                let _ = writeln!(out, "{} = {text}", f.key);
            }
        }
        out
    }

    /// Parses a text: `Err`, never a panic, on anything that is not a
    /// well-formed record with every required key present.
    pub fn parse(&self, text: &str) -> Result<T, Error> {
        let skip = |l: &str| l.is_empty() || (self.comments && l.starts_with('#'));
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.trim_end_matches('\r')))
            .filter(|(_, l)| !skip(l.trim_start()));
        match lines.next() {
            Some((_, l)) if l.trim() == self.header => {}
            Some((line, l)) => {
                let message = format!("expected header {:?}, got {:?}", self.header, l.trim());
                return Err(Error { line, message });
            }
            None => return Err(err(format!("empty text, expected {:?}", self.header))),
        }
        let mut rec = (self.init)();
        let (mut seen, mut next) = (0u64, 0);
        for (line, raw) in lines {
            let at = |message: String| Error { line, message };
            if let Some((prefix, absorb)) = self.blocks.iter().find(|(p, _)| raw.starts_with(p)) {
                absorb(&mut rec, &raw[prefix.len()..])
                    .ok_or_else(|| at(format!("malformed line {raw:?}")))?;
                continue;
            }
            let (key, value) = raw
                .split_once('=')
                .ok_or_else(|| at(format!("expected key = value, got {:?}", raw.trim())))?;
            let i = self
                .set_from(next, &mut rec, key.trim(), value.trim())
                .map_err(|e| at(e.message))?;
            seen |= 1 << i;
            next = i + 1;
        }
        let absent =
            |(i, f): &(usize, &Field<T>)| f.presence == Presence::Required && seen & (1 << i) == 0;
        match self.fields.iter().enumerate().find(absent) {
            Some((_, f)) => Err(err(format!("missing key {:?}", f.key))),
            None => Ok(rec),
        }
    }
}

/// Quotes a string for the line format (`"` and `\` escaped).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        if c == '"' || c == '\\' {
            out.push('\\');
        }
        out.push(c);
    }
    out.push('"');
    out
}

/// Splits a value into whitespace-separated tokens, honoring quoting;
/// `None` on a bad escape or an unterminated quote.
pub fn tokens(value: &str) -> Option<Vec<String>> {
    let mut out = Vec::new();
    let mut chars = value.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '"' {
            chars.next();
            let mut tok = String::new();
            loop {
                match chars.next() {
                    Some('\\') => match chars.next() {
                        Some(e @ ('"' | '\\')) => tok.push(e),
                        _ => return None,
                    },
                    Some('"') => break,
                    Some(c) => tok.push(c),
                    None => return None,
                }
            }
            out.push(tok);
        } else {
            let mut tok = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_whitespace() {
                    break;
                }
                tok.push(c);
                chars.next();
            }
            out.push(tok);
        }
    }
    Some(out)
}
