//! The `key=value` clause reader behind the line-oriented plan grammars
//! (`tiger_faults::FaultPlan::parse`, `tiger_workgen::WorkloadPlan::parse`).
//!
//! A plan is one clause per line; a clause is a verb, perhaps a target,
//! then `key=value` arguments. [`clauses`] walks the lines and [`Args`]
//! reads one clause's arguments — and rejects what the clause did not
//! understand: a key given twice, or a key no reader asked for, is an
//! error naming the key, never a silently ignored typo.

/// The clauses of `text`: every line that is neither blank nor a `#`
/// comment, trimmed, with its 1-based line number.
pub fn clauses(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines().enumerate().filter_map(|(i, raw)| {
        let line = raw.trim();
        (!line.is_empty() && !line.starts_with('#')).then_some((i + 1, line))
    })
}

/// The `key=value` arguments of one clause, e.g. `prob=0.3 from=2s`.
/// Reading an argument takes it; [`Args::finish`] fails on any left over.
pub struct Args<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Args<'a> {
    /// Splits each token at its first `=`.
    pub fn new(toks: &[&'a str]) -> Result<Self, String> {
        let mut pairs: Vec<(&str, &str)> = Vec::with_capacity(toks.len());
        for t in toks {
            let (k, v) = t
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {t:?}"))?;
            if pairs.iter().any(|&(seen, _)| seen == k) {
                return Err(format!("argument {k}= given twice"));
            }
            pairs.push((k, v));
        }
        Ok(Args { pairs })
    }

    /// Takes the value of a required argument.
    pub fn get(&mut self, key: &str) -> Result<&'a str, String> {
        self.opt(key)
            .ok_or_else(|| format!("missing required argument {key}="))
    }

    /// Takes the value of an optional argument.
    pub fn opt(&mut self, key: &str) -> Option<&'a str> {
        let at = self.pairs.iter().position(|&(k, _)| k == key)?;
        Some(self.pairs.remove(at).1)
    }

    /// Ends the clause: every argument must have been read.
    pub fn finish(self) -> Result<(), String> {
        match self.pairs.first() {
            None => Ok(()),
            Some((k, _)) => Err(format!("unknown argument {k}=")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clauses_skip_blanks_and_comments_and_keep_line_numbers() {
        let got: Vec<_> = clauses("\n# c\n  a x=1  \n\n\tb\n").collect();
        assert_eq!(got, [(3, "a x=1"), (5, "b")]);
    }

    #[test]
    fn args_reject_what_no_reader_took() {
        let mut args = Args::new(&["a=1", "b=2", "c=x=y"]).expect("well formed");
        assert_eq!(args.get("b"), Ok("2"));
        assert_eq!(args.opt("b"), None, "reading takes the argument");
        assert_eq!(args.opt("c"), Some("x=y"), "split at the first =");
        assert_eq!(args.get("z").unwrap_err(), "missing required argument z=");
        assert_eq!(args.finish().unwrap_err(), "unknown argument a=");
        assert!(Args::new(&[]).expect("empty").finish().is_ok());
        assert!(Args::new(&["bare"]).is_err());
        let twice = Args::new(&["at=9s", "at=12s"]).err().expect("duplicate");
        assert_eq!(twice, "argument at= given twice");
    }
}
