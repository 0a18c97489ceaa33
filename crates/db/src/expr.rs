//! Arithmetic expressions over the relation's attributes.
//!
//! The query model is `SELECT op(expression) FROM R` where `expression` is
//! "an arithmetic expression involving the attributes of R" (paper §II) —
//! e.g. `SUM(memory + storage)` in the peer-to-peer computing example.
//! This module provides the expression AST, an evaluator against a tuple,
//! and a small recursive-descent parser (`+ − * /`, unary minus,
//! parentheses, numeric literals, attribute names) so examples can write
//! queries as text.

use crate::error::DbError;
use crate::tuple::{Schema, Tuple};
use crate::Result;
use std::fmt;
use std::sync::Arc;

/// A binary arithmetic operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (IEEE semantics; `x/0 = ±inf`).
    Div,
}

impl BinOp {
    fn apply(self, l: f64, r: f64) -> f64 {
        match self {
            BinOp::Add => l + r,
            BinOp::Sub => l - r,
            BinOp::Mul => l * r,
            BinOp::Div => l / r,
        }
    }

    fn symbol(self) -> char {
        match self {
            BinOp::Add => '+',
            BinOp::Sub => '-',
            BinOp::Mul => '*',
            BinOp::Div => '/',
        }
    }
}

/// An arithmetic expression over tuple attributes.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// The attribute at the given schema index.
    Attr {
        /// Schema index.
        index: usize,
        /// Attribute name, kept for display.
        name: Arc<str>,
    },
    /// A numeric literal.
    Const(f64),
    /// Unary negation.
    Neg(Box<Expr>),
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

impl Expr {
    /// An attribute reference resolved against a schema.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownAttribute`] if the name is not in the schema.
    pub fn attr(schema: &Schema, name: &str) -> Result<Expr> {
        let index = schema.index_of(name)?;
        Ok(Expr::Attr {
            index,
            name: name.into(),
        })
    }

    /// The attribute at schema index 0 — the common single-attribute case.
    #[must_use]
    pub fn first_attr(schema: &Schema) -> Expr {
        let name = schema.name(0).unwrap_or("a0");
        Expr::Attr {
            index: 0,
            name: name.into(),
        }
    }

    /// A numeric constant.
    #[must_use]
    pub fn constant(v: f64) -> Expr {
        Expr::Const(v)
    }

    /// Builds a binary node.
    #[must_use]
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Evaluates the expression against a tuple.
    ///
    /// # Errors
    ///
    /// [`DbError::AttributeIndexOutOfRange`] if the tuple is narrower than
    /// the expression expects.
    pub fn eval(&self, tuple: &Tuple) -> Result<f64> {
        match self {
            Expr::Attr { index, .. } => tuple.value(*index),
            Expr::Const(v) => Ok(*v),
            Expr::Neg(inner) => Ok(-inner.eval(tuple)?),
            Expr::Binary { op, lhs, rhs } => Ok(op.apply(lhs.eval(tuple)?, rhs.eval(tuple)?)),
        }
    }

    /// Structural equality with constants compared by bit pattern: two
    /// expressions that are `same_bits` evaluate to bit-identical values
    /// on every tuple. The derived `PartialEq` is too coarse for that,
    /// since it treats `0.0 == -0.0` (which `1 / (x * c)` tells apart)
    /// and `NaN != NaN`.
    #[must_use]
    pub fn same_bits(&self, other: &Expr) -> bool {
        match (self, other) {
            (Expr::Attr { index: i, .. }, Expr::Attr { index: j, .. }) => i == j,
            (Expr::Const(x), Expr::Const(y)) => x.to_bits() == y.to_bits(),
            (Expr::Neg(x), Expr::Neg(y)) => x.same_bits(y),
            (
                Expr::Binary { op, lhs, rhs },
                Expr::Binary {
                    op: op2,
                    lhs: lhs2,
                    rhs: rhs2,
                },
            ) => op == op2 && lhs.same_bits(lhs2) && rhs.same_bits(rhs2),
            _ => false,
        }
    }

    /// Parses an expression against a schema.
    ///
    /// Grammar: `expr := term (('+'|'-') term)*`,
    /// `term := factor (('*'|'/') factor)*`,
    /// `factor := '-' factor | number | attribute | '(' expr ')'`.
    ///
    /// # Errors
    ///
    /// [`DbError::ParseError`] on malformed input;
    /// [`DbError::UnknownAttribute`] for names outside the schema.
    pub fn parse(text: &str, schema: &Schema) -> Result<Expr> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            schema,
        };
        p.skip_ws();
        let e = p.expr()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(DbError::ParseError {
                position: p.pos,
                message: "unexpected trailing input".into(),
            });
        }
        Ok(e)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Attr { name, .. } => write!(f, "{name}"),
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Neg(e) => write!(f, "-({e})"),
            Expr::Binary { op, lhs, rhs } => write!(f, "({lhs} {} {rhs})", op.symbol()),
        }
    }
}

macro_rules! impl_expr_op {
    ($trait:ident, $method:ident, $op:expr) => {
        impl std::ops::$trait for Expr {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::binary($op, self, rhs)
            }
        }
    };
}

impl_expr_op!(Add, add, BinOp::Add);
impl_expr_op!(Sub, sub, BinOp::Sub);
impl_expr_op!(Mul, mul, BinOp::Mul);
impl_expr_op!(Div, div, BinOp::Div);

impl std::ops::Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Neg(Box::new(self))
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    schema: &'a Schema,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expr(&mut self) -> Result<Expr> {
        let mut lhs = self.term()?;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'+') => {
                    self.pos += 1;
                    lhs = Expr::binary(BinOp::Add, lhs, self.term()?);
                }
                Some(b'-') => {
                    self.pos += 1;
                    lhs = Expr::binary(BinOp::Sub, lhs, self.term()?);
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn term(&mut self) -> Result<Expr> {
        let mut lhs = self.factor()?;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'*') => {
                    self.pos += 1;
                    lhs = Expr::binary(BinOp::Mul, lhs, self.factor()?);
                }
                Some(b'/') => {
                    self.pos += 1;
                    lhs = Expr::binary(BinOp::Div, lhs, self.factor()?);
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn factor(&mut self) -> Result<Expr> {
        self.skip_ws();
        match self.peek() {
            Some(b'-') => {
                self.pos += 1;
                Ok(Expr::Neg(Box::new(self.factor()?)))
            }
            Some(b'(') => {
                self.pos += 1;
                let inner = self.expr()?;
                self.skip_ws();
                if self.peek() == Some(b')') {
                    self.pos += 1;
                    Ok(inner)
                } else {
                    Err(DbError::ParseError {
                        position: self.pos,
                        message: "expected ')'".into(),
                    })
                }
            }
            Some(c) if c.is_ascii_digit() || c == b'.' => self.number(),
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => self.attribute(),
            _ => Err(DbError::ParseError {
                position: self.pos,
                message: "expected number, attribute, '(' or '-'".into(),
            }),
        }
    }

    fn number(&mut self) -> Result<Expr> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E')
        {
            self.pos += 1;
            // Allow exponent signs directly after e/E.
            if matches!(self.bytes.get(self.pos - 1), Some(b'e' | b'E'))
                && matches!(self.peek(), Some(b'+' | b'-'))
            {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| DbError::ParseError {
                position: start,
                message: "non-UTF-8 bytes in numeric literal".into(),
            })?;
        text.parse::<f64>()
            .map(Expr::Const)
            .map_err(|_| DbError::ParseError {
                position: start,
                message: format!("invalid numeric literal `{text}`"),
            })
    }

    fn attribute(&mut self) -> Result<Expr> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
        {
            self.pos += 1;
        }
        let name =
            std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| DbError::ParseError {
                position: start,
                message: "non-UTF-8 bytes in attribute name".into(),
            })?;
        Expr::attr(self.schema, name)
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
        Schema::new(["cpu", "memory", "storage", "bandwidth"])
    }

    fn tuple() -> Tuple {
        Tuple::new(vec![2.0, 8.0, 100.0, 1.5])
    }

    #[test]
    fn eval_attribute_and_constant() {
        let s = schema();
        let e = Expr::attr(&s, "memory").unwrap();
        assert_eq!(e.eval(&tuple()).unwrap(), 8.0);
        assert_eq!(Expr::constant(3.5).eval(&tuple()).unwrap(), 3.5);
    }

    #[test]
    fn eval_composite() {
        let s = schema();
        let e = Expr::attr(&s, "memory").unwrap() + Expr::attr(&s, "storage").unwrap();
        assert_eq!(e.eval(&tuple()).unwrap(), 108.0);
    }

    #[test]
    fn same_bits_tells_signed_zeros_apart() {
        let s = schema();
        let pos = Expr::parse("memory * 0.0", &s).unwrap();
        let neg = Expr::binary(
            BinOp::Mul,
            Expr::attr(&s, "memory").unwrap(),
            Expr::constant(-0.0),
        );
        // The derived equality would let these share one truth pass…
        assert_eq!(pos, neg);
        assert!(!pos.same_bits(&neg));
        // …yet they evaluate to different bits, which `1 / e` exposes.
        let t = tuple();
        assert_ne!(
            pos.eval(&t).unwrap().to_bits(),
            neg.eval(&t).unwrap().to_bits()
        );
        let recip = |e: &Expr| Expr::binary(BinOp::Div, Expr::constant(1.0), e.clone());
        assert_eq!(recip(&pos).eval(&t).unwrap(), f64::INFINITY);
        assert_eq!(recip(&neg).eval(&t).unwrap(), f64::NEG_INFINITY);

        assert!(pos.same_bits(&Expr::parse("memory * 0", &s).unwrap()));
        // Constants match by bit pattern, so one NaN matches itself.
        let nan = Expr::constant(f64::NAN);
        assert_ne!(nan, nan.clone());
        assert!(nan.same_bits(&nan.clone()));
        assert!(!Expr::attr(&s, "cpu")
            .unwrap()
            .same_bits(&Expr::attr(&s, "memory").unwrap()));
    }

    #[test]
    fn parse_paper_example() {
        // SELECT SUM(memory + storage) FROM R — the expression part.
        let e = Expr::parse("memory + storage", &schema()).unwrap();
        assert_eq!(e.eval(&tuple()).unwrap(), 108.0);
    }

    #[test]
    fn parse_precedence() {
        let s = schema();
        let e = Expr::parse("cpu + memory * 2", &s).unwrap();
        assert_eq!(e.eval(&tuple()).unwrap(), 18.0);
        let e = Expr::parse("(cpu + memory) * 2", &s).unwrap();
        assert_eq!(e.eval(&tuple()).unwrap(), 20.0);
    }

    #[test]
    fn parse_unary_minus_and_division() {
        let s = schema();
        let e = Expr::parse("-memory / 4", &s).unwrap();
        assert_eq!(e.eval(&tuple()).unwrap(), -2.0);
        let e = Expr::parse("storage / (cpu - 2)", &s).unwrap();
        assert!(e.eval(&tuple()).unwrap().is_infinite());
    }

    #[test]
    fn parse_numeric_forms() {
        let s = schema();
        for (text, want) in [
            ("1.5", 1.5),
            ("2e3", 2000.0),
            ("1.5e-2", 0.015),
            (".5", 0.5),
        ] {
            let e = Expr::parse(text, &s).unwrap();
            assert_eq!(e.eval(&tuple()).unwrap(), want, "{text}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        let s = schema();
        assert!(matches!(
            Expr::parse("", &s),
            Err(DbError::ParseError { .. })
        ));
        assert!(matches!(
            Expr::parse("memory +", &s),
            Err(DbError::ParseError { .. })
        ));
        assert!(matches!(
            Expr::parse("(memory", &s),
            Err(DbError::ParseError { .. })
        ));
        assert!(matches!(
            Expr::parse("memory storage", &s),
            Err(DbError::ParseError { .. })
        ));
        assert!(matches!(
            Expr::parse("disk + 1", &s),
            Err(DbError::UnknownAttribute(_))
        ));
        assert!(matches!(
            Expr::parse("1..2", &s),
            Err(DbError::ParseError { .. })
        ));
    }

    #[test]
    fn display_round_trips_through_parser() {
        let s = schema();
        let e = Expr::parse("cpu + memory * (storage - 2) / bandwidth", &s).unwrap();
        let shown = e.to_string();
        let reparsed = Expr::parse(&shown, &s).unwrap();
        assert_eq!(reparsed.eval(&tuple()).unwrap(), e.eval(&tuple()).unwrap());
    }

    #[test]
    fn eval_detects_narrow_tuple() {
        let s = schema();
        let e = Expr::attr(&s, "bandwidth").unwrap();
        let narrow = Tuple::single(1.0);
        assert!(matches!(
            e.eval(&narrow),
            Err(DbError::AttributeIndexOutOfRange { .. })
        ));
    }

    #[test]
    fn first_attr_works_for_single_schema() {
        let s = Schema::single("temperature");
        let e = Expr::first_attr(&s);
        assert_eq!(e.eval(&Tuple::single(72.5)).unwrap(), 72.5);
        assert_eq!(e.to_string(), "temperature");
    }
}
