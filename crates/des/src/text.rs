//! The value half of the strict text codec: how `nautix-replay` files and
//! the fragments they share with the `NAUTIX_*` variables (layer tables,
//! fault plans, topologies) spell their values. The line framing around
//! them is `nautix_stats::text`. A type states its spelling once by
//! implementing [`Value`]; splitting, number parsing and the rejection of
//! near-miss spellings live here and nowhere else.
//!
//! **One rule, applied in [`Value::decode`] alone: a value is accepted
//! only if it re-encodes to the bytes it was read from.** `+5`, `007`,
//! `1X1`, ` flat`, a twelve-field fault plan that means `off` — each parses
//! to *something* and each is refused, so two accepted texts are equal iff
//! their values are. Human-facing parsers (`NAUTIX_THREADS`,
//! `NAUTIX_TOPOLOGY`, …) `trim()` and then call the same `decode`.

/// A value with exactly one text spelling.
pub trait Value: Sized {
    /// The canonical spelling.
    fn encode(&self) -> String;

    /// Structural parse: split, match tags, range-check. It may accept a
    /// spelling [`Value::encode`] would never write (`str::parse` takes
    /// `+5`); callers use [`Value::decode`], which does not.
    fn parse(s: &str) -> Result<Self, String>;

    /// Strict inverse of [`Value::encode`]: [`Value::parse`], then the
    /// canonical check.
    fn decode(s: &str) -> Result<Self, String> {
        let v = Self::parse(s)?;
        match v.encode() {
            canonical if canonical == s => Ok(v),
            canonical => Err(format!("`{s}` is not canonical (write `{canonical}`)")),
        }
    }
}

/// One field of a composite value: [`Value::parse`] with the field's name
/// in front of any error. Not `decode`: the composite's own `decode`
/// re-encodes the whole spelling, its fields included.
pub fn field<T: Value>(s: &str, what: &str) -> Result<T, String> {
    T::parse(s).map_err(|e| format!("{what}: {e}"))
}

/// Split `s` on `sep` into exactly `N` parts; `what` names the thing being
/// split in the error.
pub fn split<'a, const N: usize>(
    s: &'a str,
    sep: char,
    what: &str,
) -> Result<[&'a str; N], String> {
    let parts: Vec<&str> = s.split(sep).collect();
    parts.try_into().map_err(|parts: Vec<&str>| {
        let n = parts.len();
        format!("{what}: expected {N} `{sep}`-separated fields, got {n} in `{s}`")
    })
}

/// Decode a fieldless enum from the list of its variants: the one whose
/// spelling is `s`. Encoding stays an exhaustive `match` (a new variant
/// without a spelling does not compile) with no mirror `match` to drift.
pub fn tag<T: Value + Copy>(s: &str, what: &str, all: &[T]) -> Result<T, String> {
    all.iter()
        .copied()
        .find(|v| v.encode() == s)
        .ok_or_else(|| {
            let names: Vec<String> = all.iter().map(T::encode).collect();
            format!("{what}: expected one of {}, got `{s}`", names.join("/"))
        })
}

macro_rules! int_values {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn encode(&self) -> String {
                self.to_string()
            }

            fn parse(s: &str) -> Result<Self, String> {
                s.parse()
                    .map_err(|_| format!("`{s}` is not a {}", stringify!($t)))
            }
        }
    )*};
}
int_values!(u8, u32, u64, usize);

/// `on` | `off`.
impl Value for bool {
    fn encode(&self) -> String {
        if *self { "on" } else { "off" }.into()
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "on" => Ok(true),
            "off" => Ok(false),
            _ => Err(format!("expected `on` or `off`, got `{s}`")),
        }
    }
}

/// `none` | `<value>`.
impl<T: Value> Value for Option<T> {
    fn encode(&self) -> String {
        self.as_ref().map_or_else(|| "none".into(), T::encode)
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "none" => Ok(None),
            _ => T::parse(s).map(Some),
        }
    }
}

/// Comma-separated list; the empty string is the empty list.
impl<T: Value> Value for Vec<T> {
    fn encode(&self) -> String {
        self.iter().map(T::encode).collect::<Vec<_>>().join(",")
    }

    fn parse(s: &str) -> Result<Self, String> {
        if s.is_empty() {
            return Ok(Vec::new());
        }
        s.split(',').map(T::parse).collect()
    }
}
