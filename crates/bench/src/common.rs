//! Shared harness plumbing: scales, CSV output, and series types.

use std::fmt::Display;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// How big an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced CPU counts / sweep densities: seconds per figure. Used by
    /// tests.
    Quick,
    /// The paper's configuration (full Phi, full sweeps).
    Paper,
}

impl Scale {
    /// Parse `repro_all`'s arguments (program name excluded): `--paper`
    /// selects [`Scale::Paper`], any other `-flag` is an error, and
    /// everything else is returned as positional arguments for the caller
    /// to judge. Nothing is ignored: a mistyped flag must not run the
    /// quick scale and report success.
    pub fn parse_args(args: &[String]) -> Result<(Scale, Vec<&str>), String> {
        let mut scale = Scale::Quick;
        let mut positional = Vec::new();
        for a in args {
            match a.as_str() {
                "--paper" => scale = Scale::Paper,
                flag if flag.starts_with('-') => {
                    return Err(format!("unknown flag `{flag}` (the only flag is --paper)"))
                }
                name => positional.push(name),
            }
        }
        Ok((scale, positional))
    }
}

/// Where result CSVs land.
pub fn out_dir() -> PathBuf {
    let p = std::env::var("NAUTIX_RESULTS").unwrap_or_else(|_| "results".to_string());
    let path = PathBuf::from(p);
    fs::create_dir_all(&path).expect("create results dir");
    path
}

/// Write a CSV of displayable rows.
pub fn write_csv<R, C>(path: &Path, header: &[&str], rows: R)
where
    R: IntoIterator<Item = Vec<C>>,
    C: Display,
{
    let mut f = fs::File::create(path).unwrap_or_else(|e| panic!("create {path:?}: {e}"));
    writeln!(f, "{}", header.join(",")).unwrap();
    for row in rows {
        let line: Vec<String> = row.into_iter().map(|c| c.to_string()).collect();
        writeln!(f, "{}", line.join(",")).unwrap();
    }
}

/// Format a float compactly for CSV/console output.
pub fn f(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

/// Print a banner line for console output.
pub fn banner(title: &str) {
    println!("== {title} ==");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join("nautix_csv_test");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.csv");
        write_csv(&p, &["a", "b"], vec![vec![1, 2], vec![3, 4]]);
        let s = fs::read_to_string(&p).unwrap();
        assert_eq!(s, "a,b\n1,2\n3,4\n");
    }

    #[test]
    fn arguments_parse_strictly() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(Scale::parse_args(&[]), Ok((Scale::Quick, vec![])));
        assert_eq!(
            Scale::parse_args(&args(&["a", "--paper", "b"])),
            Ok((Scale::Paper, vec!["a", "b"]))
        );
        // The typo that used to run quick scale and report success.
        assert!(Scale::parse_args(&args(&["--papr"])).is_err());
        assert!(Scale::parse_args(&args(&["--quick"])).is_err());
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(0.5), "0.500");
        assert_eq!(f(12345.6789), "12345.7");
    }
}
