//! # cyclesteal-bench
//!
//! Shared plumbing for the experiment regenerators (the `E*`/table benches
//! listed in DESIGN.md §4) and the criterion performance benches.
//!
//! Every E-series bench prints its table to stdout **and** appends it to
//! `target/experiments/<name>.txt`, which is what EXPERIMENTS.md quotes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// Directory where experiment outputs are archived.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// A sink that mirrors every line to stdout and to
/// `target/experiments/<name>.txt` (truncated at construction).
pub struct Report {
    file: fs::File,
}

impl Report {
    /// Opens (and truncates) the named experiment report.
    pub fn new(name: &str) -> Report {
        let path = experiments_dir().join(format!("{name}.txt"));
        let file = fs::File::create(&path).expect("create experiment report");
        Report { file }
    }

    /// Writes one line to both sinks.
    pub fn line(&mut self, s: impl AsRef<str>) {
        let s = s.as_ref();
        println!("{s}");
        writeln!(self.file, "{s}").expect("write experiment report");
    }

    /// Writes a multi-line block to both sinks.
    pub fn block(&mut self, s: impl AsRef<str>) {
        for line in s.as_ref().lines() {
            self.line(line);
        }
    }
}

/// Standard setup charge used throughout the E-series (everything scales
/// with `U/c`, so `c = 1` loses no generality).
pub const C: f64 = 1.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_writes_both_sinks() {
        let mut r = Report::new("selftest");
        r.line("hello");
        r.block("a\nb");
        let text = fs::read_to_string(experiments_dir().join("selftest.txt")).unwrap();
        assert_eq!(text, "hello\na\nb\n");
    }
}
