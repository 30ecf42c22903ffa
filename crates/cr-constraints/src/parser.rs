//! Text syntax for constraints, mirroring the paper's Fig. 3.
//!
//! Currency constraints (ASCII rendition of `∀t1,t2 (ω → t1 ≺_Ar t2)`):
//!
//! ```text
//! phi1: forall t1,t2 (t1[status] = "working" && t2[status] = "retired" -> t1 <[status] t2)
//! phi4: t1[kids] < t2[kids] -> t1 <[kids] t2
//! phi5: t1 <[status] t2 -> t1 <[job] t2
//! ```
//!
//! The `forall t1,t2` prefix, outer parentheses and the `name:` label are
//! optional. The Unicode spellings `∧`, `→` and `≺attr` are accepted.
//!
//! Constant CFDs (one LHS pattern, one or more RHS pairs — a multi-RHS line
//! expands into one CFD per RHS attribute, which is how the CAREER dataset's
//! `affiliation → city, country` dependency is represented):
//!
//! ```text
//! psi1: (AC = 213 -> city = "LA")
//! (affiliation = "UoE" -> city = "Edinburgh", country = "UK")
//! ```
//!
//! Multi-constraint files: one constraint per line; blank lines and `#`
//! comments are skipped ([`parse_currency_file`], [`parse_cfd_file`]).

use std::sync::Arc;

use cr_types::{Schema, Value};

use crate::cfd::ConstantCfd;
use crate::currency::CurrencyConstraint;
use crate::error::ConstraintError;
use crate::op::CompOp;
use crate::predicate::{Predicate, TupleRef};

// ---------------------------------------------------------------- lexer --

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Num(String),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Colon,
    Arrow,
    And,
    Prec, // ≺
    Op(String),
}

#[derive(Clone, Debug)]
struct SpannedTok {
    tok: Tok,
    offset: usize,
}

fn lex(input: &str) -> Result<Vec<SpannedTok>, ConstraintError> {
    let mut out = Vec::new();
    let bytes: Vec<char> = input.chars().collect();
    let mut i = 0;
    // Track byte offset for error messages.
    let mut offset = 0;
    let advance = |c: char| c.len_utf8();
    while i < bytes.len() {
        let c = bytes[i];
        let start = offset;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
                offset += advance(c);
            }
            '(' => {
                out.push(SpannedTok {
                    tok: Tok::LParen,
                    offset: start,
                });
                i += 1;
                offset += 1;
            }
            ')' => {
                out.push(SpannedTok {
                    tok: Tok::RParen,
                    offset: start,
                });
                i += 1;
                offset += 1;
            }
            '[' => {
                out.push(SpannedTok {
                    tok: Tok::LBracket,
                    offset: start,
                });
                i += 1;
                offset += 1;
            }
            ']' => {
                out.push(SpannedTok {
                    tok: Tok::RBracket,
                    offset: start,
                });
                i += 1;
                offset += 1;
            }
            ',' => {
                out.push(SpannedTok {
                    tok: Tok::Comma,
                    offset: start,
                });
                i += 1;
                offset += 1;
            }
            ':' => {
                out.push(SpannedTok {
                    tok: Tok::Colon,
                    offset: start,
                });
                i += 1;
                offset += 1;
            }
            '∧' => {
                out.push(SpannedTok {
                    tok: Tok::And,
                    offset: start,
                });
                i += 1;
                offset += advance(c);
            }
            '→' => {
                out.push(SpannedTok {
                    tok: Tok::Arrow,
                    offset: start,
                });
                i += 1;
                offset += advance(c);
            }
            '≺' => {
                out.push(SpannedTok {
                    tok: Tok::Prec,
                    offset: start,
                });
                i += 1;
                offset += advance(c);
            }
            '&' => {
                if bytes.get(i + 1) == Some(&'&') {
                    i += 2;
                    offset += 2;
                } else {
                    i += 1;
                    offset += 1;
                }
                out.push(SpannedTok {
                    tok: Tok::And,
                    offset: start,
                });
            }
            '-' => {
                if bytes.get(i + 1) == Some(&'>') {
                    out.push(SpannedTok {
                        tok: Tok::Arrow,
                        offset: start,
                    });
                    i += 2;
                    offset += 2;
                } else if bytes.get(i + 1).is_some_and(|d| d.is_ascii_digit()) {
                    let (tok, len) = lex_number(&bytes[i..]);
                    out.push(SpannedTok { tok, offset: start });
                    i += len;
                    offset += len;
                } else {
                    return Err(ConstraintError::parse("stray '-'", start));
                }
            }
            '"' => {
                let mut s = String::new();
                let mut j = i + 1;
                let mut consumed = 1;
                let mut closed = false;
                while j < bytes.len() {
                    let d = bytes[j];
                    consumed += advance(d);
                    j += 1;
                    if d == '"' {
                        closed = true;
                        break;
                    }
                    if d == '\\' && j < bytes.len() {
                        let e = bytes[j];
                        consumed += advance(e);
                        j += 1;
                        s.push(e);
                    } else {
                        s.push(d);
                    }
                }
                if !closed {
                    return Err(ConstraintError::parse("unterminated string literal", start));
                }
                out.push(SpannedTok {
                    tok: Tok::Str(s),
                    offset: start,
                });
                offset += consumed;
                i = j;
            }
            '<' | '>' | '=' | '!' => {
                let mut op = String::from(c);
                if bytes.get(i + 1) == Some(&'=') || (c == '<' && bytes.get(i + 1) == Some(&'>')) {
                    op.push(bytes[i + 1]);
                    i += 2;
                    offset += 2;
                } else {
                    i += 1;
                    offset += 1;
                }
                if op == "!" {
                    return Err(ConstraintError::parse("stray '!'", start));
                }
                out.push(SpannedTok {
                    tok: Tok::Op(op),
                    offset: start,
                });
            }
            d if d.is_ascii_digit() => {
                let (tok, len) = lex_number(&bytes[i..]);
                out.push(SpannedTok { tok, offset: start });
                i += len;
                offset += len;
            }
            d if d.is_alphanumeric() || d == '_' => {
                let mut s = String::new();
                let mut consumed = 0;
                let mut j = i;
                while j < bytes.len()
                    && (bytes[j].is_alphanumeric() || bytes[j] == '_' || bytes[j] == '/')
                {
                    s.push(bytes[j]);
                    consumed += advance(bytes[j]);
                    j += 1;
                }
                out.push(SpannedTok {
                    tok: Tok::Ident(s),
                    offset: start,
                });
                i = j;
                offset += consumed;
            }
            other => {
                return Err(ConstraintError::parse(
                    format!("unexpected character `{other}`"),
                    start,
                ));
            }
        }
    }
    Ok(out)
}

/// Lexes a number starting at `chars[0]` (possibly `-`); returns the token
/// and character count consumed.
fn lex_number(chars: &[char]) -> (Tok, usize) {
    let mut s = String::new();
    let mut i = 0;
    if chars[0] == '-' {
        s.push('-');
        i = 1;
    }
    while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
        s.push(chars[i]);
        i += 1;
    }
    (Tok::Num(s), i)
}

// --------------------------------------------------------------- parser --

struct Parser<'a> {
    toks: Vec<SpannedTok>,
    pos: usize,
    schema: &'a Schema,
}

impl<'a> Parser<'a> {
    fn new(schema: &'a Schema, input: &str) -> Result<Self, ConstraintError> {
        Ok(Parser {
            toks: lex(input)?,
            pos: 0,
            schema,
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn peek_at(&self, ahead: usize) -> Option<&Tok> {
        self.toks.get(self.pos + ahead).map(|t| &t.tok)
    }

    fn offset(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|t| t.offset)
            .unwrap_or_else(|| self.toks.last().map(|t| t.offset + 1).unwrap_or(0))
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|t| t.tok.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, tok: &Tok, what: &str) -> Result<(), ConstraintError> {
        let off = self.offset();
        match self.bump() {
            Some(t) if &t == tok => Ok(()),
            got => Err(ConstraintError::parse(
                format!("expected {what}, found {got:?}"),
                off,
            )),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// `name ':'` prefix if present (identifier not named t1/t2/forall).
    fn take_label(&mut self) -> Option<String> {
        if let (Some(Tok::Ident(name)), Some(Tok::Colon)) = (self.peek(), self.peek_at(1)) {
            let name = name.clone();
            self.pos += 2;
            Some(name)
        } else {
            None
        }
    }

    fn attr(&mut self, name: &str) -> Result<cr_types::AttrId, ConstraintError> {
        self.schema
            .attr_id(name)
            .ok_or_else(|| ConstraintError::UnknownAttribute(name.to_string()))
    }

    fn literal(&mut self) -> Result<Value, ConstraintError> {
        let off = self.offset();
        match self.bump() {
            Some(Tok::Str(s)) => Ok(Value::str(s)),
            Some(Tok::Num(n)) => Ok(Value::parse_token(&n)),
            Some(Tok::Ident(id)) if id.eq_ignore_ascii_case("null") => Ok(Value::Null),
            Some(Tok::Ident(id)) => Ok(Value::str(id)), // bare word constant
            got => Err(ConstraintError::parse(
                format!("expected a constant, found {got:?}"),
                off,
            )),
        }
    }

    /// Parses `t1` or `t2`.
    fn tuple_ref(&mut self) -> Result<TupleRef, ConstraintError> {
        let off = self.offset();
        match self.bump() {
            Some(Tok::Ident(id)) if id == "t1" => Ok(TupleRef::T1),
            Some(Tok::Ident(id)) if id == "t2" => Ok(TupleRef::T2),
            got => Err(ConstraintError::parse(
                format!("expected t1 or t2, found {got:?}"),
                off,
            )),
        }
    }

    /// Parses an order atom `t1 <[attr] t2` or `t1 ≺attr t2`, assuming the
    /// caller has already seen it coming. Returns the attribute.
    fn order_atom(&mut self) -> Result<cr_types::AttrId, ConstraintError> {
        let who = self.tuple_ref()?;
        let off = self.offset();
        if who != TupleRef::T1 {
            return Err(ConstraintError::parse(
                "order predicates read `t1 < t2`",
                off,
            ));
        }
        let attr = match self.bump() {
            Some(Tok::Op(op)) if op == "<" => {
                self.expect(&Tok::LBracket, "'[' after '<'")?;
                let off2 = self.offset();
                let name = match self.bump() {
                    Some(Tok::Ident(n)) => n,
                    got => {
                        return Err(ConstraintError::parse(
                            format!("expected attribute name, found {got:?}"),
                            off2,
                        ))
                    }
                };
                self.expect(&Tok::RBracket, "']' closing attribute")?;
                self.attr(&name)?
            }
            Some(Tok::Prec) => {
                let off2 = self.offset();
                let name = match self.bump() {
                    Some(Tok::Ident(n)) => n,
                    got => {
                        return Err(ConstraintError::parse(
                            format!("expected attribute name, found {got:?}"),
                            off2,
                        ))
                    }
                };
                self.attr(&name)?
            }
            got => {
                return Err(ConstraintError::parse(
                    format!("expected '<[' or '≺', found {got:?}"),
                    off,
                ))
            }
        };
        let off3 = self.offset();
        if self.tuple_ref()? != TupleRef::T2 {
            return Err(ConstraintError::parse(
                "order predicates read `t1 < t2`",
                off3,
            ));
        }
        Ok(attr)
    }

    /// True iff an order atom starts at the cursor.
    fn looks_like_order(&self) -> bool {
        matches!(self.peek(), Some(Tok::Ident(id)) if id == "t1")
            && match self.peek_at(1) {
                Some(Tok::Prec) => true,
                Some(Tok::Op(op)) if op == "<" => matches!(self.peek_at(2), Some(Tok::LBracket)),
                _ => false,
            }
    }

    /// Parses one premise conjunct.
    fn predicate(&mut self) -> Result<Predicate, ConstraintError> {
        if self.looks_like_order() {
            let attr = self.order_atom()?;
            return Ok(Predicate::Order { attr });
        }
        // `ti[attr] op rhs` or `literal op ti[attr]`.
        if matches!(self.peek(), Some(Tok::Ident(id)) if id == "t1" || id == "t2") {
            let tref = self.tuple_ref()?;
            self.expect(&Tok::LBracket, "'[' after tuple variable")?;
            let off = self.offset();
            let attr_name = match self.bump() {
                Some(Tok::Ident(n)) => n,
                got => {
                    return Err(ConstraintError::parse(
                        format!("expected attribute name, found {got:?}"),
                        off,
                    ))
                }
            };
            let attr = self.attr(&attr_name)?;
            self.expect(&Tok::RBracket, "']' closing attribute")?;
            let off = self.offset();
            let op = match self.bump() {
                Some(Tok::Op(op)) => CompOp::parse(&op)
                    .ok_or_else(|| ConstraintError::parse(format!("bad operator `{op}`"), off))?,
                got => {
                    return Err(ConstraintError::parse(
                        format!("expected comparison operator, found {got:?}"),
                        off,
                    ))
                }
            };
            // RHS: other tuple's same attribute, or a constant.
            if matches!(self.peek(), Some(Tok::Ident(id)) if id == "t1" || id == "t2") {
                let other = self.tuple_ref()?;
                self.expect(&Tok::LBracket, "'[' after tuple variable")?;
                let off2 = self.offset();
                let rhs_name = match self.bump() {
                    Some(Tok::Ident(n)) => n,
                    got => {
                        return Err(ConstraintError::parse(
                            format!("expected attribute name, found {got:?}"),
                            off2,
                        ))
                    }
                };
                self.expect(&Tok::RBracket, "']' closing attribute")?;
                if rhs_name != attr_name {
                    return Err(ConstraintError::parse(
                        "tuple comparisons must use the same attribute on both sides",
                        off2,
                    ));
                }
                match (tref, other) {
                    (TupleRef::T1, TupleRef::T2) => Ok(Predicate::TupleCmp { attr, op }),
                    (TupleRef::T2, TupleRef::T1) => Ok(Predicate::TupleCmp {
                        attr,
                        op: op.flip(),
                    }),
                    _ => Err(ConstraintError::parse(
                        "tuple comparison must relate t1 and t2",
                        off2,
                    )),
                }
            } else {
                let constant = self.literal()?;
                Ok(Predicate::ConstCmp {
                    tuple: tref,
                    attr,
                    op,
                    constant,
                })
            }
        } else {
            // `literal op ti[attr]` — flip into canonical form.
            let constant = self.literal()?;
            let off = self.offset();
            let op = match self.bump() {
                Some(Tok::Op(op)) => CompOp::parse(&op)
                    .ok_or_else(|| ConstraintError::parse(format!("bad operator `{op}`"), off))?,
                got => {
                    return Err(ConstraintError::parse(
                        format!("expected comparison operator, found {got:?}"),
                        off,
                    ))
                }
            };
            let tref = self.tuple_ref()?;
            self.expect(&Tok::LBracket, "'[' after tuple variable")?;
            let off2 = self.offset();
            let attr_name = match self.bump() {
                Some(Tok::Ident(n)) => n,
                got => {
                    return Err(ConstraintError::parse(
                        format!("expected attribute name, found {got:?}"),
                        off2,
                    ))
                }
            };
            self.expect(&Tok::RBracket, "']' closing attribute")?;
            let attr = self.attr(&attr_name)?;
            Ok(Predicate::ConstCmp {
                tuple: tref,
                attr,
                op: op.flip(),
                constant,
            })
        }
    }
}

/// Parses one currency constraint. See the module docs for the grammar.
pub fn parse_currency_constraint(
    schema: &Arc<Schema>,
    input: &str,
) -> Result<CurrencyConstraint, ConstraintError> {
    let mut p = Parser::new(schema, input)?;
    let name = p.take_label();
    // Optional `forall t1,t2` prefix.
    if matches!(p.peek(), Some(Tok::Ident(id)) if id == "forall") {
        p.bump();
        p.tuple_ref()?;
        p.expect(&Tok::Comma, "',' between t1 and t2")?;
        p.tuple_ref()?;
    }
    let parens = matches!(p.peek(), Some(Tok::LParen));
    if parens {
        p.bump();
    }
    let mut premises = Vec::new();
    loop {
        // The conclusion is also an order atom; detect `-> …` by trying the
        // arrow first.
        if matches!(p.peek(), Some(Tok::Arrow)) {
            break;
        }
        premises.push(p.predicate()?);
        match p.peek() {
            Some(Tok::And) => {
                p.bump();
            }
            Some(Tok::Arrow) => break,
            other => {
                let off = p.offset();
                return Err(ConstraintError::parse(
                    format!("expected '&&' or '->', found {other:?}"),
                    off,
                ));
            }
        }
    }
    p.expect(&Tok::Arrow, "'->'")?;
    let conclusion = p.order_atom()?;
    if parens {
        p.expect(&Tok::RParen, "')'")?;
    }
    if !p.at_end() {
        return Err(ConstraintError::parse("trailing input", p.offset()));
    }
    CurrencyConstraint::new(schema.clone(), name, premises, conclusion)
}

/// Parses one CFD line, expanding multiple RHS pairs into one CFD each.
pub fn parse_cfds(schema: &Arc<Schema>, input: &str) -> Result<Vec<ConstantCfd>, ConstraintError> {
    let mut p = Parser::new(schema, input)?;
    let name = p.take_label();
    let parens = matches!(p.peek(), Some(Tok::LParen));
    if parens {
        p.bump();
    }
    let mut lhs = Vec::new();
    loop {
        if matches!(p.peek(), Some(Tok::Arrow)) {
            break;
        }
        lhs.push(parse_pair(&mut p)?);
        match p.peek() {
            Some(Tok::Comma) => {
                p.bump();
            }
            Some(Tok::Arrow) => break,
            other => {
                let off = p.offset();
                return Err(ConstraintError::parse(
                    format!("expected ',' or '->', found {other:?}"),
                    off,
                ));
            }
        }
    }
    p.expect(&Tok::Arrow, "'->'")?;
    let mut rhs = vec![parse_pair(&mut p)?];
    while matches!(p.peek(), Some(Tok::Comma)) {
        p.bump();
        rhs.push(parse_pair(&mut p)?);
    }
    if parens {
        p.expect(&Tok::RParen, "')'")?;
    }
    if !p.at_end() {
        return Err(ConstraintError::parse("trailing input", p.offset()));
    }
    rhs.into_iter()
        .map(|r| ConstantCfd::new(schema.clone(), name.clone(), lhs.clone(), r))
        .collect()
}

fn parse_pair(p: &mut Parser<'_>) -> Result<(cr_types::AttrId, Value), ConstraintError> {
    let off = p.offset();
    let name = match p.bump() {
        Some(Tok::Ident(n)) => n,
        got => {
            return Err(ConstraintError::parse(
                format!("expected attribute name, found {got:?}"),
                off,
            ))
        }
    };
    let attr = p.attr(&name)?;
    let off2 = p.offset();
    match p.bump() {
        Some(Tok::Op(op)) if op == "=" || op == "==" => {}
        got => {
            return Err(ConstraintError::parse(
                format!("expected '=', found {got:?}"),
                off2,
            ))
        }
    }
    let value = p.literal()?;
    Ok((attr, value))
}

/// Parses a multi-line file of currency constraints (blank lines and `#`
/// comments skipped).
pub fn parse_currency_file(
    schema: &Arc<Schema>,
    input: &str,
) -> Result<Vec<CurrencyConstraint>, ConstraintError> {
    input
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| parse_currency_constraint(schema, l))
        .collect()
}

/// Parses a multi-line file of constant CFDs (blank lines and `#` comments
/// skipped); multi-RHS lines expand.
pub fn parse_cfd_file(
    schema: &Arc<Schema>,
    input: &str,
) -> Result<Vec<ConstantCfd>, ConstraintError> {
    let mut out = Vec::new();
    for line in input.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.extend(parse_cfds(schema, line)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<Schema> {
        Schema::new(
            "person",
            [
                "name", "status", "job", "kids", "city", "AC", "zip", "county",
            ],
        )
        .unwrap()
    }

    #[test]
    fn parses_phi1_with_label_and_forall() {
        let s = schema();
        let c = parse_currency_constraint(
            &s,
            r#"phi1: forall t1,t2 (t1[status] = "working" && t2[status] = "retired" -> t1 <[status] t2)"#,
        )
        .unwrap();
        assert_eq!(c.name(), Some("phi1"));
        assert_eq!(c.premises().len(), 2);
        assert_eq!(s.attr_name(c.conclusion_attr()), "status");
        assert!(c.is_comparison_only());
    }

    #[test]
    fn parses_phi4_tuple_comparison() {
        let s = schema();
        let c = parse_currency_constraint(&s, "t1[kids] < t2[kids] -> t1 <[kids] t2").unwrap();
        assert_eq!(
            c.premises(),
            &[Predicate::TupleCmp {
                attr: s.attr_id("kids").unwrap(),
                op: CompOp::Lt
            }]
        );
    }

    #[test]
    fn parses_phi5_order_premise() {
        let s = schema();
        let c = parse_currency_constraint(&s, "t1 <[status] t2 -> t1 <[job] t2").unwrap();
        assert_eq!(
            c.premises(),
            &[Predicate::Order {
                attr: s.attr_id("status").unwrap()
            }]
        );
        assert_eq!(s.attr_name(c.conclusion_attr()), "job");
        assert!(!c.is_comparison_only());
    }

    #[test]
    fn parses_phi8_two_order_premises() {
        let s = schema();
        let c =
            parse_currency_constraint(&s, "phi8: t1 <[city] t2 && t1 <[zip] t2 -> t1 <[county] t2")
                .unwrap();
        assert_eq!(c.premises().len(), 2);
        assert!(c.premises().iter().all(Predicate::is_order));
    }

    #[test]
    fn parses_unicode_spelling() {
        let s = schema();
        let c = parse_currency_constraint(
            &s,
            "t1[status] = \"retired\" ∧ t2[status] = \"deceased\" → t1 ≺status t2",
        )
        .unwrap();
        assert_eq!(c.premises().len(), 2);
        assert_eq!(s.attr_name(c.conclusion_attr()), "status");
    }

    #[test]
    fn flipped_constant_comparison_is_canonicalised() {
        let s = schema();
        let c = parse_currency_constraint(&s, "0 < t1[kids] -> t1 <[kids] t2").unwrap();
        assert_eq!(
            c.premises(),
            &[Predicate::ConstCmp {
                tuple: TupleRef::T1,
                attr: s.attr_id("kids").unwrap(),
                op: CompOp::Gt,
                constant: Value::int(0),
            }]
        );
    }

    #[test]
    fn reversed_tuple_comparison_flips_operator() {
        let s = schema();
        let c = parse_currency_constraint(&s, "t2[kids] > t1[kids] -> t1 <[kids] t2").unwrap();
        assert_eq!(
            c.premises(),
            &[Predicate::TupleCmp {
                attr: s.attr_id("kids").unwrap(),
                op: CompOp::Lt
            }]
        );
    }

    #[test]
    fn display_round_trips_through_parser() {
        let s = schema();
        for text in [
            r#"phi1: forall t1,t2 (t1[status] = "working" && t2[status] = "retired" -> t1 <[status] t2)"#,
            "t1[kids] < t2[kids] -> t1 <[kids] t2",
            "t1 <[city] t2 && t1 <[zip] t2 -> t1 <[county] t2",
        ] {
            let c = parse_currency_constraint(&s, text).unwrap();
            let again = parse_currency_constraint(&s, &c.to_string()).unwrap();
            assert_eq!(c.premises(), again.premises());
            assert_eq!(c.conclusion_attr(), again.conclusion_attr());
        }
    }

    #[test]
    fn parses_cfd_single_and_multi_rhs() {
        let s = schema();
        let single = parse_cfds(&s, r#"psi1: (AC = 213 -> city = "LA")"#).unwrap();
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].name(), Some("psi1"));
        let multi = parse_cfds(
            &s,
            r#"city = "LA", zip = 90058 -> county = "Vermont", AC = 213"#,
        )
        .unwrap();
        assert_eq!(multi.len(), 2);
        assert_eq!(multi[0].lhs().len(), 2);
    }

    #[test]
    fn parse_files_skip_comments() {
        let s = schema();
        let text = "# currency rules\n\nphi4: t1[kids] < t2[kids] -> t1 <[kids] t2\nt1 <[status] t2 -> t1 <[job] t2\n";
        let cs = parse_currency_file(&s, text).unwrap();
        assert_eq!(cs.len(), 2);
        let cfds = parse_cfd_file(&s, "# cfds\npsi: AC = 212 -> city = \"NY\"\n").unwrap();
        assert_eq!(cfds.len(), 1);
    }

    #[test]
    fn errors_carry_position_and_reason() {
        let s = schema();
        let err = parse_currency_constraint(&s, "t1[status] = -> t1 <[job] t2").unwrap_err();
        assert!(matches!(err, ConstraintError::Parse { .. }));
        let err = parse_currency_constraint(&s, "t1[nope] = 1 -> t1 <[job] t2").unwrap_err();
        assert!(matches!(err, ConstraintError::UnknownAttribute(a) if a == "nope"));
        let err = parse_currency_constraint(&s, "t1[kids] < t2[zip] -> t1 <[kids] t2").unwrap_err();
        assert!(matches!(err, ConstraintError::Parse { .. }));
        let err = parse_currency_constraint(&s, "t2 <[kids] t1 -> t1 <[kids] t2").unwrap_err();
        assert!(matches!(err, ConstraintError::Parse { .. }));
    }

    #[test]
    fn bare_word_constants_are_strings() {
        let s = schema();
        let c = parse_currency_constraint(&s, "t1[city] = NY -> t1 <[city] t2").unwrap();
        assert_eq!(
            c.premises(),
            &[Predicate::ConstCmp {
                tuple: TupleRef::T1,
                attr: s.attr_id("city").unwrap(),
                op: CompOp::Eq,
                constant: Value::str("NY"),
            }]
        );
    }
}
