//! First divergence between two fingerprint dumps.
//!
//! `experiments --fingerprints PATH` writes one block per run: a
//! `== <experiment> run <i> ==` header, then the run's
//! `SimReport::fingerprint` lines (`events=…`, `flow N: sent=… recv=…`,
//! `signaling: loc=…`, …). Two dumps of the same suite must be
//! byte-identical at any thread or shard count; when they are not,
//! [`first_divergence`] names where they part — the run, the section
//! (top-level key or `flow N`), the field and both values — instead of a
//! byte offset.

use std::fmt;

/// Where two dumps first disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// 1-based line number of the first differing line (for a dump that
    /// ends early: the first line it lacks).
    pub line: usize,
    /// `(experiment, run index)` of the last header at or before `line`.
    pub run: Option<(String, usize)>,
    /// What differs.
    pub kind: DiffKind,
}

/// The shape of a [`Divergence`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffKind {
    /// Same section and field names, one value differs.
    Field {
        /// Top-level key (`events`) or line label (`flow 4`, `signaling`).
        section: String,
        /// The `key=` inside the section; empty for a single-valued line.
        field: String,
        /// Value in the first dump.
        a: String,
        /// Value in the second dump.
        b: String,
    },
    /// The lines differ in shape (another section, other field names, a
    /// header): both shown whole.
    Line {
        /// The first dump's line.
        a: String,
        /// The second dump's line.
        b: String,
    },
    /// One dump ends where the other goes on.
    Ended {
        /// Which dump ended: `'A'` (the first) or `'B'`.
        short: char,
        /// The other dump's line at that position.
        next: String,
    },
}

/// Compares two dumps line by line; `None` when they are identical.
pub fn first_divergence(a: &str, b: &str) -> Option<Divergence> {
    let (mut la, mut lb) = (a.lines(), b.lines());
    let mut run = None;
    for line in 1.. {
        let kind = match (la.next(), lb.next()) {
            (None, None) => return None,
            (None, Some(next)) => DiffKind::Ended {
                short: 'A',
                next: next.to_owned(),
            },
            (Some(next), None) => DiffKind::Ended {
                short: 'B',
                next: next.to_owned(),
            },
            (Some(x), Some(y)) if x == y => {
                if let Some(header) = parse_header(x) {
                    run = Some(header);
                }
                continue;
            }
            (Some(x), Some(y)) => diff_lines(x, y),
        };
        return Some(Divergence { line, run, kind });
    }
    unreachable!("`1..` is unbounded")
}

/// `== E11 run 3 ==` → `("E11", 3)`.
fn parse_header(line: &str) -> Option<(String, usize)> {
    let inner = line.strip_prefix("== ")?.strip_suffix(" ==")?;
    let (exp, index) = inner.split_once(" run ")?;
    Some((exp.to_owned(), index.parse().ok()?))
}

/// A fingerprint line as `(section, [(field, value)])`: `label: k=v …`
/// or `label: value`, and a bare `key=value` as section `key`.
fn split_line(line: &str) -> (&str, Vec<(&str, &str)>) {
    if let Some((label, rest)) = line.split_once(": ") {
        let fields = rest
            .split_whitespace()
            .map(|tok| tok.split_once('=').unwrap_or(("", tok)))
            .collect();
        (label, fields)
    } else if let Some((key, value)) = line.split_once('=') {
        (key, vec![("", value)])
    } else {
        (line, Vec::new())
    }
}

fn diff_lines(x: &str, y: &str) -> DiffKind {
    let ((sx, fx), (sy, fy)) = (split_line(x), split_line(y));
    let same_shape =
        sx == sy && fx.len() == fy.len() && fx.iter().zip(&fy).all(|((kx, _), (ky, _))| kx == ky);
    if same_shape {
        if let Some(((field, a), (_, b))) = fx.iter().zip(&fy).find(|((_, a), (_, b))| a != b) {
            return DiffKind::Field {
                section: sx.to_owned(),
                field: (*field).to_owned(),
                a: (*a).to_owned(),
                b: (*b).to_owned(),
            };
        }
    }
    DiffKind::Line {
        a: x.to_owned(),
        b: y.to_owned(),
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}", self.line)?;
        if let Some((exp, i)) = &self.run {
            write!(f, ", {exp} run {i}")?;
        }
        match &self.kind {
            DiffKind::Field {
                section,
                field,
                a,
                b,
            } => {
                write!(f, ", {section}")?;
                if !field.is_empty() {
                    write!(f, ", {field}")?;
                }
                write!(f, ": A={a} B={b}")
            }
            DiffKind::Line { a, b } => write!(f, ": A has `{a}`, B has `{b}`"),
            DiffKind::Ended { short, next } => {
                let other = if *short == 'A' { 'B' } else { 'A' };
                write!(f, ": {short} ends, {other} has: {next}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_one, Effort, RunOptions};

    /// `dump` with line `index` (0-based) replaced, or dropped for `None`.
    fn with_line(dump: &str, index: usize, new: Option<&str>) -> String {
        let mut out = String::new();
        for (i, line) in dump.lines().enumerate() {
            match (i == index, new) {
                (false, _) => out.push_str(line),
                (true, Some(new)) => out.push_str(new),
                (true, None) => continue,
            }
            out.push('\n');
        }
        out
    }

    /// Index of the first line starting with `prefix` after line `from`.
    fn find(dump: &str, from: usize, prefix: &str) -> usize {
        from + dump
            .lines()
            .skip(from)
            .position(|l| l.starts_with(prefix))
            .expect(prefix)
    }

    #[test]
    fn names_the_run_section_and_field_of_a_real_dump() {
        let opts = RunOptions {
            threads: 1,
            ..RunOptions::new(Effort::Quick, 42)
        };
        let dump = run_one("E11", opts).expect("known id").fingerprint_dump();
        assert_eq!(first_divergence(&dump, &dump), None);

        // One field flipped: run 2's `flow 4` line, its `recv=` value.
        let flow4 = find(&dump, find(&dump, 0, "== E11 run 2 =="), "flow 4: ");
        let line = dump.lines().nth(flow4).unwrap();
        let recv = line
            .split_whitespace()
            .find(|t| t.starts_with("recv="))
            .unwrap();
        let flipped = with_line(&dump, flow4, Some(&line.replacen(recv, "recv=999999", 1)));
        let d = first_divergence(&dump, &flipped).expect("differs");
        assert_eq!(d.line, flow4 + 1);
        assert_eq!(d.run, Some(("E11".into(), 2)));
        assert_eq!(
            d.kind,
            DiffKind::Field {
                section: "flow 4".into(),
                field: "recv".into(),
                a: recv["recv=".len()..].into(),
                b: "999999".into(),
            }
        );
        let text = d.to_string();
        assert!(
            text.starts_with(&format!("line {}, E11 run 2, flow 4, recv: A=", flow4 + 1)),
            "{text}"
        );

        // One line dropped: run 1's `signaling:` line goes missing, so its
        // slot holds the line after it.
        let signaling = find(&dump, find(&dump, 0, "== E11 run 1 =="), "signaling: ");
        let d = first_divergence(&dump, &with_line(&dump, signaling, None)).expect("differs");
        assert_eq!(d.line, signaling + 1);
        assert_eq!(d.run, Some(("E11".into(), 1)));
        let next = dump.lines().nth(signaling + 1).unwrap();
        assert!(
            matches!(&d.kind, DiffKind::Line { a, b } if a.starts_with("signaling: ") && b == next)
        );
    }

    #[test]
    fn an_early_end_is_a_difference() {
        let a = "== E1 run 0 ==\nevents=5\n\n== E1 run 1 ==\nevents=6\n";
        let b = "== E1 run 0 ==\nevents=5\n\n";
        let d = first_divergence(a, b).expect("differs");
        assert_eq!(d.line, 4);
        assert_eq!(d.run, Some(("E1".into(), 0)));
        assert_eq!(
            d.to_string(),
            "line 4, E1 run 0: B ends, A has: == E1 run 1 =="
        );
        let d = first_divergence(b, a).expect("differs");
        assert!(d.to_string().ends_with("A ends, B has: == E1 run 1 =="));
    }

    #[test]
    fn a_bare_key_is_its_own_section() {
        let d = first_divergence("events=5\n", "events=6\n").expect("differs");
        assert_eq!(d.to_string(), "line 1, events: A=5 B=6");
    }
}
