//! The line half of the strict text codec: the one framing under
//! `nautix-replay`, `nautix-stats` and `nautix-stream`.
//!
//! A document is an exact header line naming format and version, `key
//! value` lines in a fixed order (a nested document contributes its header
//! and terminator as literal lines), a terminator line, then nothing but
//! blank lines. A wrong header, a missing, reordered or duplicated key,
//! truncation, or anything after the terminator is an error; nothing is
//! default-filled. Lines end in `\n` alone: a stray `\r` stays in its
//! value and fails there.
//!
//! Values are the caller's business (`nautix_des::text` spells them),
//! except that this crate's own formats carry only `u64`s, so the reader
//! has that case built in under the same rule: a value is accepted only if
//! it re-encodes to the bytes it was read from.

use std::iter::{Peekable, Zip};
use std::ops::RangeFrom;
use std::str::Split;

/// Builds one document.
pub struct Writer(String);

impl Writer {
    /// Start a document with its header line.
    pub fn new(header: &str) -> Writer {
        let mut w = Writer(String::with_capacity(1024));
        w.line(header);
        w
    }

    /// A literal line: a nested document's header or terminator.
    pub fn line(&mut self, line: &str) {
        self.0.push_str(line);
        self.0.push('\n');
    }

    /// One `key value` line.
    pub fn kv(&mut self, key: &str, value: &str) {
        self.0.push_str(key);
        self.0.push(' ');
        self.line(value);
    }

    /// Close the document with its terminator line.
    pub fn finish(mut self, terminator: &str) -> String {
        self.line(terminator);
        self.0
    }
}

/// Reads one document, strictly and in order. `what` names the format in
/// errors (`replay`, `snapshot`, `stream`).
pub struct Reader<'a> {
    what: &'a str,
    /// `(1-based number, line)`.
    lines: Peekable<Zip<RangeFrom<usize>, Split<'a, char>>>,
}

impl<'a> Reader<'a> {
    /// Open `text`, which must start with exactly `header`.
    pub fn new(text: &'a str, what: &'a str, header: &str) -> Result<Reader<'a>, String> {
        // The final `\n` ends the last line; it does not start another.
        let body = text.strip_suffix('\n').unwrap_or(text);
        let mut r = Reader {
            what,
            lines: (1..).zip(body.split('\n')).peekable(),
        };
        match r.next(header)? {
            (_, h) if h == header => Ok(r),
            (_, h) => Err(format!(
                "unknown {what} version: expected `{header}`, got `{h}`"
            )),
        }
    }

    /// The next line with its number; `wanted` is what it should be.
    fn next(&mut self, wanted: &str) -> Result<(usize, &'a str), String> {
        let missing = || format!("truncated {}: missing `{wanted}`", self.what);
        self.lines.next().ok_or_else(missing)
    }

    /// The next line, which must be exactly `line`.
    pub fn literal(&mut self, line: &str) -> Result<(), String> {
        match self.next(line)? {
            (_, got) if got == line => Ok(()),
            (n, got) => Err(format!("line {n}: expected `{line}`, got `{got}`")),
        }
    }

    /// The value of the next line, which must carry exactly `key`.
    pub fn take(&mut self, key: &str) -> Result<&'a str, String> {
        let (n, line) = self.next(key)?;
        let (k, v) = line
            .split_once(' ')
            .ok_or_else(|| format!("line {n}: expected `{key} <value>`, got `{line}`"))?;
        if k != key {
            return Err(format!(
                "line {n}: expected key `{key}`, got `{k}` (keys are ordered)"
            ));
        }
        Ok(v)
    }

    /// [`Reader::take`] if the next line carries `key`, `None` (nothing
    /// consumed) if it does not: the repeated rows of a table.
    pub fn take_if(&mut self, key: &str) -> Option<&'a str> {
        let (k, v) = self.lines.peek()?.1.split_once(' ')?;
        (k == key).then(|| {
            self.lines.next();
            v
        })
    }

    /// [`Reader::take`] plus [`parse_u64`].
    pub fn u64(&mut self, key: &str) -> Result<u64, String> {
        let v = self.take(key)?;
        parse_u64(v).ok_or_else(|| format!("`{key}` value `{v}` is not a u64 in plain decimal"))
    }

    /// Require the terminator line and nothing but blank lines after it.
    pub fn finish(mut self, terminator: &str) -> Result<(), String> {
        self.literal(terminator)?;
        match self.lines.find(|(_, l)| !l.trim().is_empty()) {
            None => Ok(()),
            Some((n, line)) => Err(format!(
                "line {n}: trailing garbage after `{terminator}`: `{line}`"
            )),
        }
    }
}

/// A `u64` in the one spelling `to_string` gives it: `+5`, `007`, ` 5` and
/// `5 ` all parse with `str::parse` or a `trim`, and none is accepted.
pub fn parse_u64(s: &str) -> Option<u64> {
    s.parse().ok().filter(|v: &u64| v.to_string() == s)
}
