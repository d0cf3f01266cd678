//! The line reader under every text input: topology specs here, fault
//! schedules and request traces in `radar-sim`. One rule for all three
//! (`docs/simulation-manual.md`, "Text inputs"): `#` starts a comment
//! that runs to the end of the line, a line holding nothing else is
//! skipped, the rest is whitespace-separated words, and lines are
//! numbered from 1 as they sit in the text, skipped ones included.

use std::fmt;

/// A line that holds words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line<'a> {
    /// 1-based line number in the text.
    pub number: usize,
    /// The line without its comment and surrounding blanks; never empty.
    pub content: &'a str,
}

impl<'a> Line<'a> {
    /// The line's whitespace-separated words.
    pub fn words(&self) -> std::str::SplitWhitespace<'a> {
        self.content.split_whitespace()
    }

    /// `kind` as an error on this line.
    pub fn error<K>(&self, kind: K) -> LineError<K> {
        LineError {
            line: self.number,
            kind,
        }
    }
}

/// The lines of `text` that hold words, in order.
///
/// # Examples
///
/// ```
/// let text = "# header\nnode a eu  # west\n\nlink a b\n";
/// let lines: Vec<_> = radar_simnet::text::lines(text)
///     .map(|l| (l.number, l.content))
///     .collect();
/// assert_eq!(lines, [(2, "node a eu"), (4, "link a b")]);
/// ```
pub fn lines(text: &str) -> impl Iterator<Item = Line<'_>> {
    text.lines().enumerate().filter_map(|(i, raw)| {
        let content = raw.split_once('#').map_or(raw, |(before, _)| before).trim();
        (!content.is_empty()).then_some(Line {
            number: i + 1,
            content,
        })
    })
}

/// An error on one line of a text input; it displays as
/// `line N: <kind>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineError<K> {
    /// 1-based line number.
    pub line: usize,
    /// What is wrong on that line.
    pub kind: K,
}

impl<K: fmt::Display> fmt::Display for LineError<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.kind)
    }
}

impl<K: fmt::Debug + fmt::Display> std::error::Error for LineError<K> {}
