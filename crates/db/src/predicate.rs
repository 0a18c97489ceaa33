//! Selection predicates — the `WHERE` clause of the query model.
//!
//! The paper's future-work section (§VIII) calls for "more complex
//! aggregate queries with … arbitrary select … predicates". This module
//! supplies the select half: a boolean predicate over a tuple's
//! attributes, composed from arithmetic comparisons with `AND`/`OR`/`NOT`.
//! Sampling-based evaluation filters sampled tuples through the predicate
//! and estimates aggregates over the qualifying sub-population (see
//! `digest-core`); the measured selectivity scales `SUM`/`COUNT`.

use crate::error::DbError;
use crate::expr::Expr;
use crate::tuple::{Schema, Tuple};
use crate::Result;
use std::fmt;

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=` (exact IEEE equality; use range predicates for tolerance)
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    // SQL `=` / `<>` compare exactly by definition; tolerance would
    // change predicate semantics.
    #[allow(clippy::float_cmp)]
    fn apply(self, l: f64, r: f64) -> bool {
        match self {
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
        }
    }
}

/// A boolean predicate over tuple attributes.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (the default `WHERE` clause).
    True,
    /// `lhs op rhs` over two arithmetic expressions.
    Cmp {
        /// The operator.
        op: CmpOp,
        /// Left expression.
        lhs: Expr,
        /// Right expression.
        rhs: Expr,
    },
    /// Logical conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Logical disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Logical negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Builds a comparison predicate.
    #[must_use]
    pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> Predicate {
        Predicate::Cmp { op, lhs, rhs }
    }

    /// Conjunction.
    #[must_use]
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// Disjunction.
    #[must_use]
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// Whether this is the trivial always-true predicate (lets the query
    /// engine skip the filtering path entirely).
    #[must_use]
    pub fn is_trivial(&self) -> bool {
        matches!(self, Predicate::True)
    }

    /// Evaluates the predicate against a tuple.
    ///
    /// # Errors
    ///
    /// Any expression-evaluation error (e.g. attribute out of range).
    pub fn eval(&self, tuple: &Tuple) -> Result<bool> {
        match self {
            Predicate::True => Ok(true),
            Predicate::Cmp { op, lhs, rhs } => Ok(op.apply(lhs.eval(tuple)?, rhs.eval(tuple)?)),
            Predicate::And(a, b) => Ok(a.eval(tuple)? && b.eval(tuple)?),
            Predicate::Or(a, b) => Ok(a.eval(tuple)? || b.eval(tuple)?),
            Predicate::Not(p) => Ok(!p.eval(tuple)?),
        }
    }

    /// [`Expr::same_bits`] lifted to predicates: two `same_bits`
    /// predicates select the same tuples and compare bit-identical
    /// operands.
    #[must_use]
    pub fn same_bits(&self, other: &Predicate) -> bool {
        match (self, other) {
            (Predicate::True, Predicate::True) => true,
            (
                Predicate::Cmp { op, lhs, rhs },
                Predicate::Cmp {
                    op: op2,
                    lhs: lhs2,
                    rhs: rhs2,
                },
            ) => op == op2 && lhs.same_bits(lhs2) && rhs.same_bits(rhs2),
            (Predicate::And(a1, b1), Predicate::And(a2, b2))
            | (Predicate::Or(a1, b1), Predicate::Or(a2, b2)) => {
                a1.same_bits(a2) && b1.same_bits(b2)
            }
            (Predicate::Not(x), Predicate::Not(y)) => x.same_bits(y),
            _ => false,
        }
    }

    /// Parses a predicate against a schema.
    ///
    /// Grammar (keywords case-insensitive):
    ///
    /// ```text
    /// pred    := term ('or' term)*
    /// term    := factor ('and' factor)*
    /// factor  := 'not' factor | '(' pred ')' | comparison | 'true' | 'false'
    /// comparison := expr ('<'|'<='|'>'|'>='|'='|'!=') expr
    /// ```
    ///
    /// # Errors
    ///
    /// [`DbError::ParseError`] on malformed input;
    /// [`DbError::UnknownAttribute`] for names outside the schema.
    pub fn parse(text: &str, schema: &Schema) -> Result<Predicate> {
        let mut p = PredParser {
            text,
            pos: 0,
            schema,
        };
        p.skip_ws();
        let pred = p.pred()?;
        p.skip_ws();
        if p.pos != p.text.len() {
            return Err(DbError::ParseError {
                position: p.pos,
                message: "unexpected trailing input".into(),
            });
        }
        Ok(pred)
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "true"),
            Predicate::Cmp { op, lhs, rhs } => write!(f, "{lhs} {} {rhs}", op.symbol()),
            Predicate::And(a, b) => write!(f, "({a} and {b})"),
            Predicate::Or(a, b) => write!(f, "({a} or {b})"),
            Predicate::Not(p) => write!(f, "not ({p})"),
        }
    }
}

struct PredParser<'a> {
    text: &'a str,
    pos: usize,
    schema: &'a Schema,
}

impl PredParser<'_> {
    fn skip_ws(&mut self) {
        let rest = &self.text.as_bytes()[self.pos..];
        let skipped = rest.iter().take_while(|c| c.is_ascii_whitespace()).count();
        self.pos += skipped;
    }

    /// Consumes a case-insensitive keyword followed by a non-word
    /// boundary.
    fn keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let rest = &self.text[self.pos..];
        if rest.len() >= kw.len() && rest[..kw.len()].eq_ignore_ascii_case(kw) {
            let boundary = rest.as_bytes().get(kw.len());
            let ok = !matches!(boundary, Some(c) if c.is_ascii_alphanumeric() || *c == b'_');
            if ok {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn pred(&mut self) -> Result<Predicate> {
        let mut lhs = self.term()?;
        while self.keyword("or") {
            lhs = lhs.or(self.term()?);
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<Predicate> {
        let mut lhs = self.factor()?;
        while self.keyword("and") {
            lhs = lhs.and(self.factor()?);
        }
        Ok(lhs)
    }

    fn factor(&mut self) -> Result<Predicate> {
        if self.keyword("not") {
            return Ok(self.factor()?.not());
        }
        if self.keyword("true") {
            return Ok(Predicate::True);
        }
        if self.keyword("false") {
            return Ok(Predicate::True.not());
        }
        self.skip_ws();
        if self.text.as_bytes().get(self.pos) == Some(&b'(') {
            // Ambiguity: '(' may open a boolean group or an arithmetic
            // expression. Try the boolean parse; fall back to comparison.
            let saved = self.pos;
            self.pos += 1;
            if let Ok(inner) = self.pred() {
                self.skip_ws();
                if self.text.as_bytes().get(self.pos) == Some(&b')') {
                    self.pos += 1;
                    return Ok(inner);
                }
            }
            self.pos = saved;
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Predicate> {
        let lhs = self.expr_until_cmp()?;
        self.skip_ws();
        let rest = &self.text.as_bytes()[self.pos..];
        let (op, len) = match rest {
            [b'<', b'=', ..] => (CmpOp::Le, 2),
            [b'>', b'=', ..] => (CmpOp::Ge, 2),
            [b'!', b'=', ..] => (CmpOp::Ne, 2),
            [b'<', b'>', ..] => (CmpOp::Ne, 2),
            [b'<', ..] => (CmpOp::Lt, 1),
            [b'>', ..] => (CmpOp::Gt, 1),
            [b'=', ..] => (CmpOp::Eq, 1),
            _ => {
                return Err(DbError::ParseError {
                    position: self.pos,
                    message: "expected comparison operator".into(),
                })
            }
        };
        self.pos += len;
        let rhs = self.expr_until_bool()?;
        Ok(Predicate::cmp(op, lhs, rhs))
    }

    /// Parses an arithmetic expression ending at a comparison operator.
    fn expr_until_cmp(&mut self) -> Result<Expr> {
        self.slice_expr(&["<", ">", "=", "!="])
    }

    /// Parses an arithmetic expression ending at a boolean keyword,
    /// closing paren, or end of input.
    fn expr_until_bool(&mut self) -> Result<Expr> {
        self.slice_expr(&[])
    }

    /// Finds the extent of the next arithmetic expression and delegates to
    /// [`Expr::parse`]. The extent ends at the first top-level comparison
    /// symbol (when `stops` includes them), boolean keyword, or
    /// unbalanced `)`.
    fn slice_expr(&mut self, stops: &[&str]) -> Result<Expr> {
        self.skip_ws();
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut depth = 0usize;
        let mut i = start;
        while i < bytes.len() {
            let c = bytes[i];
            match c {
                b'(' => depth += 1,
                b')' => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                b'<' | b'>' | b'=' | b'!' if depth == 0 && !stops.is_empty() => break,
                _ if depth == 0 && c.is_ascii_alphabetic() => {
                    // Boundary at boolean keywords.
                    let rest = &self.text[i..];
                    let word_len = rest
                        .bytes()
                        .take_while(|c| c.is_ascii_alphanumeric() || *c == b'_')
                        .count();
                    let word = &rest[..word_len];
                    if word.eq_ignore_ascii_case("and") || word.eq_ignore_ascii_case("or") {
                        break;
                    }
                    i += word_len;
                    continue;
                }
                _ => {}
            }
            i += 1;
        }
        let slice = self.text[start..i].trim_end();
        if slice.is_empty() {
            return Err(DbError::ParseError {
                position: start,
                message: "expected arithmetic expression".into(),
            });
        }
        let expr = Expr::parse(slice, self.schema).map_err(|e| match e {
            DbError::ParseError { position, message } => DbError::ParseError {
                position: start + position,
                message,
            },
            other => other,
        })?;
        self.pos = start + slice.len();
        Ok(expr)
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(["cpu", "memory", "storage"])
    }

    fn tuple(cpu: f64, memory: f64, storage: f64) -> Tuple {
        Tuple::new(vec![cpu, memory, storage])
    }

    #[test]
    fn same_bits_compares_structure_and_constant_bits() {
        let s = schema();
        let p = |text: &str| Predicate::parse(text, &s).unwrap();
        assert!(p("cpu > 1 and not memory < 2").same_bits(&p("cpu > 1 and not memory < 2")));
        assert!(!p("cpu > 1 and memory < 2").same_bits(&p("cpu > 1 or memory < 2")));
        assert!(!p("cpu > 1").same_bits(&p("cpu >= 1")));
        let zero = |c: f64| {
            Predicate::cmp(
                CmpOp::Gt,
                Expr::attr(&s, "cpu").unwrap() + Expr::constant(c),
                Expr::constant(0.0),
            )
        };
        assert_eq!(zero(0.0), zero(-0.0));
        assert!(!zero(0.0).same_bits(&zero(-0.0)));
        assert!(Predicate::True.same_bits(&Predicate::True));
        assert!(!Predicate::True.same_bits(&p("cpu > 1")));
    }

    #[test]
    fn trivial_predicate() {
        assert!(Predicate::True.eval(&tuple(0.0, 0.0, 0.0)).unwrap());
        assert!(Predicate::True.is_trivial());
        assert!(!Predicate::True.not().is_trivial());
    }

    #[test]
    fn comparisons() {
        let s = schema();
        let t = tuple(2.0, 8.0, 100.0);
        for (text, want) in [
            ("cpu < 3", true),
            ("cpu > 3", false),
            ("cpu <= 2", true),
            ("cpu >= 2.5", false),
            ("memory = 8", true),
            ("memory != 8", false),
            ("memory <> 9", true),
        ] {
            let p = Predicate::parse(text, &s).unwrap();
            assert_eq!(p.eval(&t).unwrap(), want, "{text}");
        }
    }

    #[test]
    fn boolean_combinators() {
        let s = schema();
        let t = tuple(2.0, 8.0, 100.0);
        for (text, want) in [
            ("cpu < 3 and memory > 4", true),
            ("cpu < 3 and memory > 9", false),
            ("cpu > 3 or storage >= 100", true),
            ("not cpu > 3", true),
            ("not (cpu < 3 and storage = 100)", false),
            ("cpu < 1 or cpu > 1 and memory = 8", true), // and binds tighter
        ] {
            let p = Predicate::parse(text, &s).unwrap();
            assert_eq!(p.eval(&t).unwrap(), want, "{text}");
        }
    }

    #[test]
    fn arithmetic_inside_predicates() {
        let s = schema();
        let t = tuple(2.0, 8.0, 100.0);
        let p = Predicate::parse("memory + storage > 100", &s).unwrap();
        assert!(p.eval(&t).unwrap());
        let p = Predicate::parse("(memory + storage) / 2 <= 54", &s).unwrap();
        assert!(p.eval(&t).unwrap());
        let p = Predicate::parse("cpu * cpu = 4", &s).unwrap();
        assert!(p.eval(&t).unwrap());
    }

    #[test]
    fn keyword_case_and_boundaries() {
        let s = Schema::new(["android", "orbit", "nothing"]);
        let t = Tuple::new(vec![1.0, 2.0, 3.0]);
        // Attribute names containing keyword prefixes must not confuse the
        // tokenizer.
        let p = Predicate::parse("android > 0 AND orbit < 5", &s).unwrap();
        assert!(p.eval(&t).unwrap());
        let p = Predicate::parse("nothing = 3 OR android = 99", &s).unwrap();
        assert!(p.eval(&t).unwrap());
        let p = Predicate::parse("NOT nothing = 3", &s).unwrap();
        assert!(!p.eval(&t).unwrap());
    }

    #[test]
    fn parse_errors() {
        let s = schema();
        assert!(Predicate::parse("", &s).is_err());
        assert!(Predicate::parse("cpu", &s).is_err());
        assert!(Predicate::parse("cpu <", &s).is_err());
        assert!(Predicate::parse("cpu < 3 and", &s).is_err());
        assert!(Predicate::parse("cpu < 3 extra", &s).is_err());
        assert!(Predicate::parse("disk < 3", &s).is_err());
        assert!(Predicate::parse("(cpu < 3", &s).is_err());
    }

    #[test]
    fn display_round_trips() {
        let s = schema();
        let p = Predicate::parse("not (cpu < 3 and memory > 4) or storage = 0", &s).unwrap();
        let shown = p.to_string();
        let reparsed = Predicate::parse(&shown, &s).unwrap();
        for values in [(2.0, 8.0, 100.0), (5.0, 2.0, 0.0), (1.0, 1.0, 1.0)] {
            let t = tuple(values.0, values.1, values.2);
            assert_eq!(p.eval(&t).unwrap(), reparsed.eval(&t).unwrap());
        }
    }

    #[test]
    fn eval_propagates_expression_errors() {
        let s = schema();
        let p = Predicate::parse("storage > 5", &s).unwrap();
        let narrow = Tuple::single(1.0);
        assert!(p.eval(&narrow).is_err());
    }
}
