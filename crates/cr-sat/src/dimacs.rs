//! DIMACS CNF import/export.
//!
//! Handy for debugging encodings against external solvers and for the test
//! suite's crafted instances.

use crate::cnf::Cnf;
use crate::lit::Lit;

/// Errors raised while parsing DIMACS text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DimacsError {
    /// The `p cnf <vars> <clauses>` header is missing or malformed.
    BadHeader(String),
    /// A token was not an integer.
    BadToken(String),
    /// A clause was not terminated by `0`.
    UnterminatedClause,
}

impl std::fmt::Display for DimacsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DimacsError::BadHeader(l) => write!(f, "bad DIMACS header: {l}"),
            DimacsError::BadToken(t) => write!(f, "bad DIMACS token: {t}"),
            DimacsError::UnterminatedClause => write!(f, "clause not terminated by 0"),
        }
    }
}

impl std::error::Error for DimacsError {}

/// Parses DIMACS CNF text into a [`Cnf`]. Comment lines (`c …`) are skipped;
/// the header is validated but the declared counts are advisory.
pub fn parse(text: &str) -> Result<Cnf, DimacsError> {
    let mut cnf = Cnf::new();
    let mut declared_vars: Option<u32> = None;
    let mut current: Vec<Lit> = Vec::new();
    let mut saw_clause_tokens = false;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('p') {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            if parts.len() != 3 || parts[0] != "cnf" {
                return Err(DimacsError::BadHeader(line.to_string()));
            }
            declared_vars = Some(
                parts[1]
                    .parse::<u32>()
                    .map_err(|_| DimacsError::BadHeader(line.to_string()))?,
            );
            continue;
        }
        for tok in line.split_whitespace() {
            let code: i64 = tok
                .parse()
                .map_err(|_| DimacsError::BadToken(tok.to_string()))?;
            saw_clause_tokens = true;
            match Lit::from_dimacs(code) {
                Some(lit) => current.push(lit),
                None => {
                    cnf.add_clause(std::mem::take(&mut current));
                }
            }
        }
    }
    if !current.is_empty() {
        return Err(DimacsError::UnterminatedClause);
    }
    if let Some(v) = declared_vars {
        cnf.ensure_vars(v);
    }
    let _ = saw_clause_tokens;
    Ok(cnf)
}

/// Serialises a [`Cnf`] to DIMACS text.
pub fn write(cnf: &Cnf) -> String {
    let mut out = String::new();
    out.push_str(&format!("p cnf {} {}\n", cnf.num_vars(), cnf.num_clauses()));
    for clause in cnf.clauses() {
        for lit in clause {
            out.push_str(&lit.to_dimacs().to_string());
            out.push(' ');
        }
        out.push_str("0\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{SolveResult, Solver};

    #[test]
    fn parse_write_round_trip() {
        let text = "c example\np cnf 3 2\n1 -2 0\n2 3 0\n";
        let cnf = parse(text).unwrap();
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(cnf.num_clauses(), 2);
        let round = parse(&write(&cnf)).unwrap();
        assert_eq!(
            round.clauses().collect::<Vec<_>>(),
            cnf.clauses().collect::<Vec<_>>()
        );
    }

    #[test]
    fn parsed_formula_is_solvable() {
        let cnf = parse("p cnf 2 2\n1 2 0\n-1 0\n").unwrap();
        let mut s = Solver::from_cnf(&cnf);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn errors_are_reported() {
        assert!(matches!(
            parse("p cnf x 2\n"),
            Err(DimacsError::BadHeader(_))
        ));
        assert!(matches!(
            parse("p cnf 1 1\n1 q 0\n"),
            Err(DimacsError::BadToken(_))
        ));
        assert!(matches!(
            parse("p cnf 1 1\n1"),
            Err(DimacsError::UnterminatedClause)
        ));
    }

    #[test]
    fn multiline_clauses_supported() {
        let cnf = parse("p cnf 3 1\n1\n2\n3 0\n").unwrap();
        assert_eq!(cnf.num_clauses(), 1);
        assert_eq!(cnf.clause(0).len(), 3);
    }
}
