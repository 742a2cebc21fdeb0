//! Recursive-descent parser turning OpenQASM 2.0 source into a [`Circuit`].
//!
//! Supported language subset (everything the paper's benchmark circuits
//! need):
//!
//! * `OPENQASM 2.0;` header and `include "qelib1.inc";` (the standard
//!   library gates are built in; other includes are rejected).
//! * `qreg`/`creg` declarations; multiple quantum registers are flattened
//!   into one index space in declaration order.
//! * The `qelib1` gate set, applied to indexed qubits or broadcast over whole
//!   registers.
//! * User `gate` definitions with parameters, expanded at application time.
//!   As in OpenQASM 2.0, a gate body may call only built-in gates and gates
//!   defined before it, and a gate is defined once, so definitions cannot
//!   form a cycle; a chain of definitions may be at most
//!   [`MAX_GATE_DEPTH`] (128) deep, and one application of a definition
//!   may expand to at most [`MAX_GATE_EXPANSION`] (2²⁰) gates.
//! * Parameter expressions with `+ - * / ^`, unary minus, parentheses, `pi`,
//!   and the functions `sin cos tan exp ln sqrt`, at most
//!   [`MAX_EXPR_DEPTH`] (128) levels deep.
//! * `barrier` (ignored); `measure`/`reset`/`if` are rejected by [`parse`]
//!   (the equivalence checker works on unitary circuits) but tolerated by
//!   [`parse_lenient`], which records measurements and skips the rest.

use std::collections::HashMap;
use std::fmt;

use crate::circuit::Circuit;
use crate::gate::{Gate, GateKind};
use crate::qasm::lexer::{tokenize, LexError, Token, TokenKind};

/// Error produced when parsing OpenQASM source fails.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseQasmError {
    /// Human-readable description.
    pub message: String,
    /// 1-based source line (0 when the input ended unexpectedly).
    pub line: usize,
}

impl fmt::Display for ParseQasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QASM parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseQasmError {}

impl From<LexError> for ParseQasmError {
    fn from(e: LexError) -> Self {
        ParseQasmError {
            message: e.message,
            line: e.line,
        }
    }
}

/// Parses OpenQASM 2.0 source text into a [`Circuit`].
///
/// # Errors
///
/// Returns [`ParseQasmError`] on lexical errors, syntax errors, references to
/// undeclared registers or gates (a gate body may call only gates defined
/// before it), gate definitions or parameter expressions nested more than
/// 128 levels deep, and uses of unsupported features (`measure`, `reset`,
/// `if`, non-standard includes).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), qcirc::qasm::ParseQasmError> {
/// let src = r#"
/// OPENQASM 2.0;
/// include "qelib1.inc";
/// qreg q[2];
/// h q[0];
/// cx q[0], q[1];
/// "#;
/// let c = qcirc::qasm::parse(src)?;
/// assert_eq!(c.n_qubits(), 2);
/// assert_eq!(c.len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn parse(source: &str) -> Result<Circuit, ParseQasmError> {
    let tokens = tokenize(source)?;
    Ok(Parser::new(tokens, false).parse_program()?.circuit)
}

/// The result of [`parse_lenient`]: the unitary circuit plus everything the
/// lenient mode stripped.
#[derive(Debug, Clone, PartialEq)]
pub struct LenientParse {
    /// The unitary part of the program.
    pub circuit: Circuit,
    /// Final measurements `(qubit, classical bit)`, in program order.
    pub measurements: Vec<(usize, usize)>,
    /// Human-readable descriptions of skipped non-unitary statements
    /// (`reset`, `if`, …).
    pub skipped: Vec<String>,
}

/// Parses OpenQASM 2.0 leniently: `measure` statements are recorded (not
/// rejected), and other non-unitary statements (`reset`, `if`) are skipped
/// with a note in [`LenientParse::skipped`].
///
/// This is the entry point for real-world benchmark files, which typically
/// end in a measurement layer; equivalence checking operates on the unitary
/// prefix.
///
/// # Errors
///
/// Returns [`ParseQasmError`] on lexical/syntax errors and unknown gates —
/// lenient mode forgives non-unitary *statements*, not malformed input.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), qcirc::qasm::ParseQasmError> {
/// let src = "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\nmeasure q -> c;";
/// let parsed = qcirc::qasm::parse_lenient(src)?;
/// assert_eq!(parsed.circuit.len(), 1);
/// assert_eq!(parsed.measurements, vec![(0, 0), (1, 1)]);
/// # Ok(())
/// # }
/// ```
pub fn parse_lenient(source: &str) -> Result<LenientParse, ParseQasmError> {
    let tokens = tokenize(source)?;
    Parser::new(tokens, true).parse_program()
}

/// The deepest parameter expression the reader accepts, in levels: every
/// operator, function call, unary minus and pair of parentheses is one
/// level, so `-(a + b)` is three deep and an `n`-term sum `n − 1`. The
/// parser, the evaluator and the expression tree's drop each recurse once
/// per level; the bound keeps all three within a 2 MiB thread stack.
const MAX_EXPR_DEPTH: usize = 128;

/// The deepest chain of gate definitions the reader accepts: expanding a
/// gate recurses once per definition level, so the bound keeps expansion
/// within the same 2 MiB thread stack as [`MAX_EXPR_DEPTH`].
const MAX_GATE_DEPTH: usize = 128;

/// The most gates one application of a gate definition may expand to. A
/// body that calls the previous definition twice doubles the count per
/// level, so forty such lines would expand to 2³⁹ gates; the bound refuses
/// the definition that passes it instead. The largest definitions the
/// writer emits, the `mcx<k>` helpers, stay under it up to `k = 13`.
const MAX_GATE_EXPANSION: usize = 1 << 20;

/// A user-defined gate body: formal parameter names, formal qubit names, and
/// the raw statements to expand.
#[derive(Debug, Clone)]
struct GateDef {
    params: Vec<String>,
    qubits: Vec<String>,
    body: Vec<GateCall>,
    /// Definition levels its expansion recurses through: 1 when the body
    /// calls built-in gates only.
    depth: usize,
    /// Gates one application expands to: a built-in call counts 1, a call
    /// of a defined gate counts that gate's own total.
    gates: usize,
}

/// One gate application inside a gate body (operands are formal names).
#[derive(Debug, Clone)]
struct GateCall {
    name: String,
    args: Vec<Expr>,
    operands: Vec<String>,
    line: usize,
}

/// Parameter expression AST.
#[derive(Debug, Clone)]
enum Expr {
    Num(f64),
    Pi,
    Param(String),
    Neg(Box<Expr>),
    Bin(char, Box<Expr>, Box<Expr>),
    Fun(String, Box<Expr>),
}

impl Expr {
    fn eval(&self, env: &HashMap<String, f64>) -> Result<f64, String> {
        Ok(match self {
            Expr::Num(v) => *v,
            Expr::Pi => std::f64::consts::PI,
            Expr::Param(name) => *env
                .get(name)
                .ok_or_else(|| format!("unknown parameter '{name}'"))?,
            Expr::Neg(e) => -e.eval(env)?,
            Expr::Bin(op, a, b) => {
                let (a, b) = (a.eval(env)?, b.eval(env)?);
                match op {
                    '+' => a + b,
                    '-' => a - b,
                    '*' => a * b,
                    '/' => a / b,
                    '^' => a.powf(b),
                    _ => unreachable!("parser only produces + - * / ^"),
                }
            }
            Expr::Fun(name, e) => {
                let v = e.eval(env)?;
                match name.as_str() {
                    "sin" => v.sin(),
                    "cos" => v.cos(),
                    "tan" => v.tan(),
                    "exp" => v.exp(),
                    "ln" => v.ln(),
                    "sqrt" => v.sqrt(),
                    other => return Err(format!("unknown function '{other}'")),
                }
            }
        })
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Flattened quantum registers: name → (offset, size).
    qregs: HashMap<String, (usize, usize)>,
    qreg_order: Vec<String>,
    n_qubits: usize,
    /// Flattened classical registers (lenient mode): name → (offset, size).
    cregs: HashMap<String, (usize, usize)>,
    n_clbits: usize,
    gate_defs: HashMap<String, GateDef>,
    circuit_gates: Vec<Gate>,
    /// Expression levels the parser is currently inside.
    nesting: usize,
    lenient: bool,
    measurements: Vec<(usize, usize)>,
    skipped: Vec<String>,
}

impl Parser {
    fn new(tokens: Vec<Token>, lenient: bool) -> Self {
        Parser {
            tokens,
            pos: 0,
            qregs: HashMap::new(),
            qreg_order: Vec::new(),
            n_qubits: 0,
            cregs: HashMap::new(),
            n_clbits: 0,
            gate_defs: HashMap::new(),
            circuit_gates: Vec::new(),
            nesting: 0,
            lenient,
            measurements: Vec::new(),
            skipped: Vec::new(),
        }
    }

    fn error(&self, message: impl Into<String>) -> ParseQasmError {
        ParseQasmError {
            message: message.into(),
            line: self
                .tokens
                .get(self.pos.min(self.tokens.len().saturating_sub(1)))
                .map_or(0, |t| t.line),
        }
    }

    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn next(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos).map(|t| t.kind.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), ParseQasmError> {
        match self.next() {
            Some(ref k) if k == kind => Ok(()),
            Some(other) => Err(self.error(format!("expected '{kind}', found '{other}'"))),
            None => Err(self.error(format!("expected '{kind}', found end of input"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseQasmError> {
        match self.next() {
            Some(TokenKind::Ident(s)) => Ok(s),
            Some(other) => Err(self.error(format!("expected identifier, found '{other}'"))),
            None => Err(self.error("expected identifier, found end of input")),
        }
    }

    fn expect_int(&mut self) -> Result<u64, ParseQasmError> {
        match self.next() {
            Some(TokenKind::Int(v)) => Ok(v),
            Some(other) => Err(self.error(format!("expected integer, found '{other}'"))),
            None => Err(self.error("expected integer, found end of input")),
        }
    }

    fn parse_program(mut self) -> Result<LenientParse, ParseQasmError> {
        // Optional header.
        if matches!(self.peek(), Some(TokenKind::Ident(s)) if s == "OPENQASM") {
            self.next();
            match self.next() {
                Some(TokenKind::Real(_)) | Some(TokenKind::Int(_)) => {}
                _ => return Err(self.error("expected version number after OPENQASM")),
            }
            self.expect(&TokenKind::Semicolon)?;
        }
        while self.peek().is_some() {
            self.parse_statement()?;
        }
        if self.n_qubits == 0 {
            return Err(ParseQasmError {
                message: "no quantum register declared".into(),
                line: 0,
            });
        }
        let mut circuit = Circuit::new(self.n_qubits);
        for g in self.circuit_gates {
            circuit.try_push(g).map_err(|e| ParseQasmError {
                message: e.to_string(),
                line: 0,
            })?;
        }
        Ok(LenientParse {
            circuit,
            measurements: self.measurements,
            skipped: self.skipped,
        })
    }

    fn parse_statement(&mut self) -> Result<(), ParseQasmError> {
        let head = match self.peek() {
            Some(TokenKind::Ident(s)) => s.clone(),
            Some(other) => return Err(self.error(format!("expected statement, found '{other}'"))),
            None => return Ok(()),
        };
        match head.as_str() {
            "include" => {
                self.next();
                match self.next() {
                    Some(TokenKind::Str(path)) if path == "qelib1.inc" => {}
                    Some(TokenKind::Str(path)) => {
                        return Err(self.error(format!(
                            "only \"qelib1.inc\" is supported as include, found \"{path}\""
                        )))
                    }
                    _ => return Err(self.error("expected string after include")),
                }
                self.expect(&TokenKind::Semicolon)
            }
            "qreg" => {
                self.next();
                let name = self.expect_ident()?;
                self.expect(&TokenKind::LBracket)?;
                let size = self.expect_int()?;
                let n_qubits = usize::try_from(size)
                    .ok()
                    .and_then(|size| self.n_qubits.checked_add(size))
                    .filter(|&n| n <= Circuit::MAX_QUBITS)
                    .ok_or_else(|| {
                        self.error(format!(
                            "register '{name}[{size}]' makes the circuit wider than {} qubits",
                            Circuit::MAX_QUBITS
                        ))
                    })?;
                self.expect(&TokenKind::RBracket)?;
                self.expect(&TokenKind::Semicolon)?;
                if self.qregs.contains_key(&name) {
                    return Err(self.error(format!("register '{name}' declared twice")));
                }
                self.qregs
                    .insert(name.clone(), (self.n_qubits, n_qubits - self.n_qubits));
                self.qreg_order.push(name);
                self.n_qubits = n_qubits;
                Ok(())
            }
            "creg" => {
                // Classical registers are recorded (for lenient-mode
                // measurement bookkeeping) but carry no unitary semantics.
                self.next();
                let name = self.expect_ident()?;
                self.expect(&TokenKind::LBracket)?;
                let size = self.expect_int()?;
                let n_clbits = usize::try_from(size)
                    .ok()
                    .and_then(|size| self.n_clbits.checked_add(size))
                    .ok_or_else(|| self.error(format!("register '{name}[{size}]' is too wide")))?;
                self.expect(&TokenKind::RBracket)?;
                self.expect(&TokenKind::Semicolon)?;
                self.cregs
                    .insert(name, (self.n_clbits, n_clbits - self.n_clbits));
                self.n_clbits = n_clbits;
                Ok(())
            }
            "gate" => self.parse_gate_def(),
            "barrier" => {
                // Skip to the semicolon; barriers carry no unitary semantics.
                while let Some(k) = self.next() {
                    if k == TokenKind::Semicolon {
                        break;
                    }
                }
                Ok(())
            }
            "measure" if self.lenient => self.parse_measure(),
            "reset" | "if" if self.lenient => {
                let line = self.tokens.get(self.pos).map_or(0, |t| t.line);
                let mut text = String::new();
                while let Some(k) = self.next() {
                    if k == TokenKind::Semicolon {
                        break;
                    }
                    text.push_str(&k.to_string());
                    text.push(' ');
                }
                self.skipped
                    .push(format!("line {line}: skipped non-unitary '{}'", text.trim_end()));
                Ok(())
            }
            "measure" | "reset" | "if" | "opaque" => {
                Err(self.error(format!("'{head}' is not supported: equivalence checking operates on the unitary (measurement-free) part of circuits; use parse_lenient to strip measurements")))
            }
            _ => {
                let call = self.parse_gate_call()?;
                let env = HashMap::new();
                self.apply_call(&call, &env, &HashMap::new())
            }
        }
    }

    /// Parses `measure q[i] -> c[j];` or the whole-register broadcast
    /// `measure q -> c;`, recording the `(qubit, clbit)` pairs.
    fn parse_measure(&mut self) -> Result<(), ParseQasmError> {
        self.next(); // 'measure'
        let (q_name, q_idx) = self.parse_indexed_operand()?;
        self.expect(&TokenKind::Arrow)?;
        let (c_name, c_idx) = self.parse_indexed_operand()?;
        self.expect(&TokenKind::Semicolon)?;
        let &(q_off, q_size) = self
            .qregs
            .get(&q_name)
            .ok_or_else(|| self.error(format!("unknown quantum register '{q_name}'")))?;
        let &(c_off, c_size) = self
            .cregs
            .get(&c_name)
            .ok_or_else(|| self.error(format!("unknown classical register '{c_name}'")))?;
        match (q_idx, c_idx) {
            (Some(qi), Some(ci)) => {
                if qi >= q_size || ci >= c_size {
                    return Err(self.error("measurement index out of range".to_string()));
                }
                self.measurements.push((q_off + qi, c_off + ci));
            }
            (None, None) => {
                if q_size != c_size {
                    return Err(
                        self.error("broadcast measurement needs equal register sizes".to_string())
                    );
                }
                for i in 0..q_size {
                    self.measurements.push((q_off + i, c_off + i));
                }
            }
            _ => {
                return Err(
                    self.error("measurement must be fully indexed or fully broadcast".to_string())
                )
            }
        }
        Ok(())
    }

    /// Parses `name` or `name[idx]`, returning the raw parts.
    fn parse_indexed_operand(&mut self) -> Result<(String, Option<usize>), ParseQasmError> {
        let name = self.expect_ident()?;
        if matches!(self.peek(), Some(TokenKind::LBracket)) {
            self.next();
            let idx = self.expect_int()? as usize;
            self.expect(&TokenKind::RBracket)?;
            Ok((name, Some(idx)))
        } else {
            Ok((name, None))
        }
    }

    fn parse_gate_def(&mut self) -> Result<(), ParseQasmError> {
        self.next(); // 'gate'
        let name = self.expect_ident()?;
        if self.gate_defs.contains_key(&name) {
            return Err(self.error(format!("gate '{name}' is defined twice")));
        }
        let mut params = Vec::new();
        if matches!(self.peek(), Some(TokenKind::LParen)) {
            self.next();
            if !matches!(self.peek(), Some(TokenKind::RParen)) {
                loop {
                    params.push(self.expect_ident()?);
                    match self.next() {
                        Some(TokenKind::Comma) => continue,
                        Some(TokenKind::RParen) => break,
                        _ => return Err(self.error("expected ',' or ')' in parameter list")),
                    }
                }
            } else {
                self.next();
            }
        }
        let mut qubits = Vec::new();
        loop {
            qubits.push(self.expect_ident()?);
            match self.peek() {
                Some(TokenKind::Comma) => {
                    self.next();
                }
                Some(TokenKind::LBrace) => break,
                other => {
                    let msg = format!("expected ',' or '{{' in gate declaration, found {other:?}");
                    return Err(self.error(msg));
                }
            }
        }
        self.expect(&TokenKind::LBrace)?;
        let mut body = Vec::new();
        let (mut depth, mut gates) = (1, 0usize);
        while !matches!(self.peek(), Some(TokenKind::RBrace)) {
            if self.peek().is_none() {
                return Err(self.error("unterminated gate body"));
            }
            if matches!(self.peek(), Some(TokenKind::Ident(s)) if s == "barrier") {
                while let Some(k) = self.next() {
                    if k == TokenKind::Semicolon {
                        break;
                    }
                }
                continue;
            }
            let call = self.parse_gate_call()?;
            let error = |message| ParseQasmError {
                message,
                line: call.line,
            };
            let expanded = if builtin_gate(&call.name, &[], &[]).is_some() {
                1
            } else {
                let callee = self.gate_defs.get(&call.name).ok_or_else(|| {
                    error(format!(
                        "gate '{}' is used in gate '{name}' before it is defined",
                        call.name
                    ))
                })?;
                if callee.depth >= MAX_GATE_DEPTH {
                    return Err(error(format!(
                        "gate '{name}' nests gate definitions deeper than {MAX_GATE_DEPTH} levels"
                    )));
                }
                depth = depth.max(callee.depth + 1);
                callee.gates
            };
            gates = gates.saturating_add(expanded);
            if gates > MAX_GATE_EXPANSION {
                return Err(error(format!(
                    "gate '{name}' expands to more than {MAX_GATE_EXPANSION} gates"
                )));
            }
            body.push(call);
        }
        self.expect(&TokenKind::RBrace)?;
        self.gate_defs.insert(
            name,
            GateDef {
                params,
                qubits,
                body,
                depth,
                gates,
            },
        );
        Ok(())
    }

    /// Parses `name(exprs)? operand (, operand)* ;` where an operand is an
    /// identifier optionally followed by `[int]` (the index is folded into
    /// the operand string as `name[idx]`).
    fn parse_gate_call(&mut self) -> Result<GateCall, ParseQasmError> {
        let line = self.tokens.get(self.pos).map_or(0, |t| t.line);
        let name = self.expect_ident()?;
        let mut args = Vec::new();
        if matches!(self.peek(), Some(TokenKind::LParen)) {
            self.next();
            if !matches!(self.peek(), Some(TokenKind::RParen)) {
                loop {
                    args.push(self.parse_expr()?);
                    match self.next() {
                        Some(TokenKind::Comma) => continue,
                        Some(TokenKind::RParen) => break,
                        _ => return Err(self.error("expected ',' or ')' in argument list")),
                    }
                }
            } else {
                self.next();
            }
        }
        let mut operands = Vec::new();
        loop {
            let base = self.expect_ident()?;
            let operand = if matches!(self.peek(), Some(TokenKind::LBracket)) {
                self.next();
                let idx = self.expect_int()?;
                self.expect(&TokenKind::RBracket)?;
                format!("{base}[{idx}]")
            } else {
                base
            };
            operands.push(operand);
            match self.next() {
                Some(TokenKind::Comma) => continue,
                Some(TokenKind::Semicolon) => break,
                other => {
                    return Err(self.error(format!(
                        "expected ',' or ';' after gate operand, found {other:?}"
                    )))
                }
            }
        }
        Ok(GateCall {
            name,
            args,
            operands,
            line,
        })
    }

    // ---- expression parsing (precedence climbing) -------------------------
    //
    // Each parse returns the expression with its depth in levels (see
    // `MAX_EXPR_DEPTH`). `deeper` counts a level on the way up, so an
    // operator chain is bounded although the parser loops over it; `nested`
    // counts one on the way down, so parentheses and unary minuses are
    // bounded before their recursion can exhaust the stack.

    fn parse_expr(&mut self) -> Result<Expr, ParseQasmError> {
        Ok(self.parse_additive()?.0)
    }

    /// The depth of a node whose deepest child is `depth` levels deep.
    fn deeper(&self, depth: usize) -> Result<usize, ParseQasmError> {
        if depth >= MAX_EXPR_DEPTH {
            return Err(self.error(format!(
                "expression nested deeper than {MAX_EXPR_DEPTH} levels"
            )));
        }
        Ok(depth + 1)
    }

    /// Runs `parse` one level further down.
    fn nested(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<(Expr, usize), ParseQasmError>,
    ) -> Result<(Expr, usize), ParseQasmError> {
        self.nesting = self.deeper(self.nesting)?;
        let (expr, depth) = parse(self)?;
        self.nesting -= 1;
        Ok((expr, self.deeper(depth)?))
    }

    fn parse_additive(&mut self) -> Result<(Expr, usize), ParseQasmError> {
        let (mut lhs, mut depth) = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Plus) => '+',
                Some(TokenKind::Minus) => '-',
                _ => return Ok((lhs, depth)),
            };
            self.next();
            let (rhs, rhs_depth) = self.parse_multiplicative()?;
            depth = self.deeper(depth.max(rhs_depth))?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn parse_multiplicative(&mut self) -> Result<(Expr, usize), ParseQasmError> {
        let (mut lhs, mut depth) = self.parse_power()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Star) => '*',
                Some(TokenKind::Slash) => '/',
                _ => return Ok((lhs, depth)),
            };
            self.next();
            let (rhs, rhs_depth) = self.parse_power()?;
            depth = self.deeper(depth.max(rhs_depth))?;
            lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn parse_power(&mut self) -> Result<(Expr, usize), ParseQasmError> {
        let (base, base_depth) = self.parse_unary()?;
        if !matches!(self.peek(), Some(TokenKind::Caret)) {
            return Ok((base, base_depth));
        }
        self.next();
        // Right associative: the exponent is one level down.
        let (exp, depth) = self.nested(Self::parse_power)?;
        let depth = depth.max(self.deeper(base_depth)?);
        Ok((Expr::Bin('^', Box::new(base), Box::new(exp)), depth))
    }

    fn parse_unary(&mut self) -> Result<(Expr, usize), ParseQasmError> {
        if matches!(self.peek(), Some(TokenKind::Minus)) {
            self.next();
            let (e, depth) = self.nested(Self::parse_unary)?;
            return Ok((Expr::Neg(Box::new(e)), depth));
        }
        self.parse_atom()
    }

    fn parse_atom(&mut self) -> Result<(Expr, usize), ParseQasmError> {
        match self.next() {
            Some(TokenKind::Int(v)) => Ok((Expr::Num(v as f64), 0)),
            Some(TokenKind::Real(v)) => Ok((Expr::Num(v), 0)),
            Some(TokenKind::LParen) => {
                let inner = self.nested(Self::parse_additive)?;
                self.expect(&TokenKind::RParen)?;
                Ok(inner)
            }
            Some(TokenKind::Ident(s)) => {
                if s == "pi" {
                    return Ok((Expr::Pi, 0));
                }
                if matches!(self.peek(), Some(TokenKind::LParen))
                    && ["sin", "cos", "tan", "exp", "ln", "sqrt"].contains(&s.as_str())
                {
                    self.next();
                    let (e, depth) = self.nested(Self::parse_additive)?;
                    self.expect(&TokenKind::RParen)?;
                    return Ok((Expr::Fun(s, Box::new(e)), depth));
                }
                Ok((Expr::Param(s), 0))
            }
            other => Err(self.error(format!("expected expression, found {other:?}"))),
        }
    }

    // ---- gate application ---------------------------------------------------

    /// Resolves an operand string to concrete qubit indices.
    ///
    /// `formal_env` maps formal gate-body qubit names to concrete indices;
    /// at top level it is empty and names refer to registers.
    fn resolve_operand(
        &self,
        operand: &str,
        formal_env: &HashMap<String, usize>,
    ) -> Result<Operand, ParseQasmError> {
        if let Some(&q) = formal_env.get(operand) {
            return Ok(Operand::Single(q));
        }
        if let Some(idx_start) = operand.find('[') {
            let base = &operand[..idx_start];
            let idx: usize = operand[idx_start + 1..operand.len() - 1]
                .parse()
                .map_err(|_| self.error(format!("bad operand '{operand}'")))?;
            let &(offset, size) = self
                .qregs
                .get(base)
                .ok_or_else(|| self.error(format!("unknown register '{base}'")))?;
            if idx >= size {
                return Err(self.error(format!(
                    "index {idx} out of range for register '{base}' of size {size}"
                )));
            }
            Ok(Operand::Single(offset + idx))
        } else if let Some(&(offset, size)) = self.qregs.get(operand) {
            Ok(Operand::Register(offset, size))
        } else {
            Err(self.error(format!("unknown register or formal qubit '{operand}'")))
        }
    }

    fn apply_call(
        &mut self,
        call: &GateCall,
        param_env: &HashMap<String, f64>,
        formal_env: &HashMap<String, usize>,
    ) -> Result<(), ParseQasmError> {
        // Evaluate arguments in the enclosing parameter environment.
        let mut args = Vec::with_capacity(call.args.len());
        for a in &call.args {
            let value = a.eval(param_env).map_err(|m| ParseQasmError {
                message: m,
                line: call.line,
            })?;
            if !value.is_finite() {
                return Err(ParseQasmError {
                    message: format!("argument of '{}' evaluates to {value}", call.name),
                    line: call.line,
                });
            }
            args.push(value);
        }
        // Resolve operands; support register broadcast at top level.
        let operands: Vec<Operand> = call
            .operands
            .iter()
            .map(|o| self.resolve_operand(o, formal_env))
            .collect::<Result<_, _>>()?;

        let broadcast = operands
            .iter()
            .filter_map(|o| match o {
                Operand::Register(_, size) => Some(*size),
                Operand::Single(_) => None,
            })
            .max();
        match broadcast {
            None => {
                let qubits: Vec<usize> = operands
                    .iter()
                    .map(|o| match o {
                        Operand::Single(q) => *q,
                        Operand::Register(..) => unreachable!(),
                    })
                    .collect();
                self.apply_concrete(&call.name, &args, &qubits, call.line)
            }
            Some(size) => {
                for sizes in operands.iter().filter_map(|o| match o {
                    Operand::Register(_, s) => Some(*s),
                    Operand::Single(_) => None,
                }) {
                    if sizes != size {
                        return Err(self.error("broadcast registers must have equal size"));
                    }
                }
                for i in 0..size {
                    let qubits: Vec<usize> = operands
                        .iter()
                        .map(|o| match o {
                            Operand::Single(q) => *q,
                            Operand::Register(offset, _) => offset + i,
                        })
                        .collect();
                    self.apply_concrete(&call.name, &args, &qubits, call.line)?;
                }
                Ok(())
            }
        }
    }

    fn apply_concrete(
        &mut self,
        name: &str,
        args: &[f64],
        qubits: &[usize],
        line: usize,
    ) -> Result<(), ParseQasmError> {
        let err = |m: String| ParseQasmError { message: m, line };
        let repeated = (1..qubits.len()).any(|i| qubits[..i].contains(&qubits[i]));
        if repeated {
            return Err(err(format!("'{name}' needs distinct qubit operands")));
        }
        if let Some(gate) = builtin_gate(name, args, qubits) {
            self.circuit_gates.push(gate.map_err(err)?);
            return Ok(());
        }
        // User-defined gate: expand its body.
        let def = self
            .gate_defs
            .get(name)
            .cloned()
            .ok_or_else(|| err(format!("unknown gate '{name}'")))?;
        if def.params.len() != args.len() {
            return Err(err(format!(
                "gate '{name}' expects {} parameters, got {}",
                def.params.len(),
                args.len()
            )));
        }
        if def.qubits.len() != qubits.len() {
            return Err(err(format!(
                "gate '{name}' expects {} qubits, got {}",
                def.qubits.len(),
                qubits.len()
            )));
        }
        let param_env: HashMap<String, f64> = def
            .params
            .iter()
            .cloned()
            .zip(args.iter().copied())
            .collect();
        let formal_env: HashMap<String, usize> = def
            .qubits
            .iter()
            .cloned()
            .zip(qubits.iter().copied())
            .collect();
        for inner in &def.body {
            self.apply_call(inner, &param_env, &formal_env)?;
        }
        Ok(())
    }
}

/// The built-in gate `name` on `qubits` with parameters `args`, or `None`
/// if no built-in gate has that name. A wrong qubit or parameter count is
/// an error message.
fn builtin_gate(name: &str, args: &[f64], qubits: &[usize]) -> Option<Result<Gate, String>> {
    use std::f64::consts::FRAC_PI_2;
    use GateKind::{Phase, Rx, Ry, Rz, Sdg, Sx, Sxdg, Sy, Sydg, Tdg, H, I, S, T, U3, X, Y, Z};
    type Make = fn(&[f64], &[usize]) -> Gate;
    let (n, k, make): (usize, usize, Make) = match name {
        "id" => (1, 0, |_, q| Gate::single(I, q[0])),
        "u0" => (1, 1, |_, q| Gate::single(I, q[0])),
        "x" => (1, 0, |_, q| Gate::single(X, q[0])),
        "y" => (1, 0, |_, q| Gate::single(Y, q[0])),
        "z" => (1, 0, |_, q| Gate::single(Z, q[0])),
        "h" => (1, 0, |_, q| Gate::single(H, q[0])),
        "s" => (1, 0, |_, q| Gate::single(S, q[0])),
        "sdg" => (1, 0, |_, q| Gate::single(Sdg, q[0])),
        "t" => (1, 0, |_, q| Gate::single(T, q[0])),
        "tdg" => (1, 0, |_, q| Gate::single(Tdg, q[0])),
        "sx" => (1, 0, |_, q| Gate::single(Sx, q[0])),
        "sxdg" => (1, 0, |_, q| Gate::single(Sxdg, q[0])),
        "sy" => (1, 0, |_, q| Gate::single(Sy, q[0])),
        "sydg" => (1, 0, |_, q| Gate::single(Sydg, q[0])),
        "rx" => (1, 1, |a, q| Gate::single(Rx(a[0]), q[0])),
        "ry" => (1, 1, |a, q| Gate::single(Ry(a[0]), q[0])),
        "rz" => (1, 1, |a, q| Gate::single(Rz(a[0]), q[0])),
        "p" | "u1" => (1, 1, |a, q| Gate::single(Phase(a[0]), q[0])),
        "u2" => (1, 2, |a, q| Gate::single(U3(FRAC_PI_2, a[0], a[1]), q[0])),
        "u3" | "u" | "U" => (1, 3, |a, q| Gate::single(U3(a[0], a[1], a[2]), q[0])),
        "cx" | "CX" => (2, 0, |_, q| Gate::controlled(X, vec![q[0]], q[1])),
        "cy" => (2, 0, |_, q| Gate::controlled(Y, vec![q[0]], q[1])),
        "cz" => (2, 0, |_, q| Gate::controlled(Z, vec![q[0]], q[1])),
        "ch" => (2, 0, |_, q| Gate::controlled(H, vec![q[0]], q[1])),
        "crz" => (2, 1, |a, q| Gate::controlled(Rz(a[0]), vec![q[0]], q[1])),
        "cp" | "cu1" => (2, 1, |a, q| Gate::controlled(Phase(a[0]), vec![q[0]], q[1])),
        "ccx" => (3, 0, |_, q| Gate::controlled(X, vec![q[0], q[1]], q[2])),
        "ccz" => (3, 0, |_, q| Gate::controlled(Z, vec![q[0], q[1]], q[2])),
        "swap" => (2, 0, |_, q| Gate::swap(q[0], q[1])),
        "cswap" => (3, 0, |_, q| Gate::controlled_swap(vec![q[0]], q[1], q[2])),
        _ => return None,
    };
    Some(if qubits.len() != n {
        Err(format!("'{name}' expects {n} qubits, got {}", qubits.len()))
    } else if args.len() != k {
        Err(format!(
            "'{name}' expects {k} parameters, got {}",
            args.len()
        ))
    } else {
        Ok(make(args, qubits))
    })
}

enum Operand {
    Single(usize),
    Register(usize, usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;

    const HEADER: &str = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";

    fn parse_body(body: &str) -> Circuit {
        parse(&format!("{HEADER}{body}")).expect("parse failure")
    }

    #[test]
    fn parses_bell_pair() {
        let c = parse_body("qreg q[2];\nh q[0];\ncx q[0], q[1];");
        assert_eq!(c.n_qubits(), 2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.gates()[1].to_string(), "cx q[0], q[1]");
    }

    #[test]
    fn parses_parameter_expressions() {
        let c = parse_body("qreg q[1];\nrz(pi/2) q[0];\nrx(-pi) q[0];\nry(3*pi/4) q[0];");
        match c.gates()[0].kind() {
            GateKind::Rz(t) => assert!((t - std::f64::consts::FRAC_PI_2).abs() < 1e-12),
            k => panic!("expected Rz, got {k:?}"),
        }
        match c.gates()[1].kind() {
            GateKind::Rx(t) => assert!((t + std::f64::consts::PI).abs() < 1e-12),
            k => panic!("expected Rx, got {k:?}"),
        }
        match c.gates()[2].kind() {
            GateKind::Ry(t) => assert!((t - 3.0 * std::f64::consts::FRAC_PI_4).abs() < 1e-12),
            k => panic!("expected Ry, got {k:?}"),
        }
    }

    #[test]
    fn parses_functions_and_power() {
        let c = parse_body("qreg q[1];\np(cos(0)) q[0];\np(2^3) q[0];\np(sqrt(4)) q[0];");
        match c.gates()[0].kind() {
            GateKind::Phase(l) => assert!((l - 1.0).abs() < 1e-12),
            k => panic!("{k:?}"),
        }
        match c.gates()[1].kind() {
            GateKind::Phase(l) => assert!((l - 8.0).abs() < 1e-12),
            k => panic!("{k:?}"),
        }
        match c.gates()[2].kind() {
            GateKind::Phase(l) => assert!((l - 2.0).abs() < 1e-12),
            k => panic!("{k:?}"),
        }
    }

    #[test]
    fn multiple_registers_are_flattened() {
        let c = parse_body("qreg a[2];\nqreg b[3];\nx a[1];\nx b[0];");
        assert_eq!(c.n_qubits(), 5);
        assert_eq!(c.gates()[0].target(), 1);
        assert_eq!(c.gates()[1].target(), 2);
    }

    #[test]
    fn register_broadcast() {
        let c = parse_body("qreg q[3];\nh q;");
        assert_eq!(c.len(), 3);
        for (i, g) in c.gates().iter().enumerate() {
            assert_eq!(g.target(), i);
        }
    }

    #[test]
    fn user_defined_gate_expands() {
        let src = "qreg q[2];\ngate bell a, b { h a; cx a, b; }\nbell q[0], q[1];";
        let c = parse_body(src);
        assert_eq!(c.len(), 2);
        assert_eq!(c.gates()[0].to_string(), "h q[0]");
        assert_eq!(c.gates()[1].to_string(), "cx q[0], q[1]");
    }

    #[test]
    fn parameterized_user_gate() {
        let src = "qreg q[1];\ngate wiggle(a) x { rz(a/2) x; rz(-a/2) x; }\nwiggle(pi) q[0];";
        let c = parse_body(src);
        assert_eq!(c.len(), 2);
        match c.gates()[0].kind() {
            GateKind::Rz(t) => assert!((t - std::f64::consts::FRAC_PI_2).abs() < 1e-12),
            k => panic!("{k:?}"),
        }
    }

    #[test]
    fn nested_user_gates() {
        let src = "qreg q[2];\ngate inner a { h a; }\ngate outer a, b { inner a; cx a, b; }\nouter q[0], q[1];";
        let c = parse_body(src);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn barrier_is_ignored() {
        let c = parse_body("qreg q[2];\nh q[0];\nbarrier q;\ncx q[0], q[1];");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn creg_is_ignored_measure_rejected() {
        let c = parse_body("qreg q[1];\ncreg c[1];\nx q[0];");
        assert_eq!(c.len(), 1);
        let e = parse(&format!(
            "{HEADER}qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];"
        ))
        .unwrap_err();
        assert!(e.to_string().contains("measure"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse(&format!("{HEADER}qreg q[1];\nbad_gate q[0];")).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.to_string().contains("unknown gate"));
        for (body, message) in [
            ("cx q[1],q[1];", "distinct"),
            ("swap q[2],q[2];", "distinct"),
            ("ccx q[0],q[0],q[1];", "distinct"),
            ("cx q,q[1];", "distinct"),
            ("rz(0/0) q[0];", "NaN"),
            ("rz(1e999) q[0];", "inf"),
            ("rz(-1e999) q[0];", "-inf"),
            ("u3(0/0,0,0) q[0];", "NaN"),
            // Register widths: past the bound, and a sum that would wrap.
            ("qreg w[65532];", "wider than 65534"),
            (
                "qreg w[18446744073709551615];\nqreg b[3];\nh b[1];",
                "wider",
            ),
            ("qreg w[1000000000000];\nh w;", "wider"),
            ("creg c[18446744073709551615]; creg d[3];", "too wide"),
            // Gate definitions that would expand forever: a gate calling
            // itself, one calling a later gate, and a redefinition that
            // would close a cycle.
            ("gate g a { g a; }\ng q[0];", "before it is defined"),
            (
                "gate f a { g a; }\ngate g a { f a; }\nf q[0];",
                "before it is defined",
            ),
            (
                "gate f a { x a; } gate g a { f a; } gate f a { g a; }",
                "defined twice",
            ),
            // Expressions deeper than the stack allows.
            (
                &format!("rz({}1{}) q[0];", "(".repeat(100_000), ")".repeat(100_000)),
                "nested deeper",
            ),
            (
                &format!("rz({}1) q[0];", "-".repeat(200_000)),
                "nested deeper",
            ),
            (
                &format!("rz(1{}) q[0];", "+1".repeat(300_000)),
                "nested deeper",
            ),
            // A chain of definitions whose expansion is deeper than the
            // stack allows, and one that doubles per level.
            (&gate_chain(100_000, "1"), "deeper than"),
            (
                &format!("{} g39 q[0];", doubling_defs(40)),
                "expands to more than",
            ),
        ] {
            let e = parse(&format!("{HEADER}qreg q[3];\n{body}")).unwrap_err();
            assert_eq!(e.line, 4, "{body:.60}");
            assert!(e.to_string().contains(message), "{body:.60}: {e}");
        }
        let widest = format!("{HEADER}qreg q[65530];\nqreg r[4];\nh r[3];");
        assert_eq!(parse(&widest).unwrap().n_qubits(), Circuit::MAX_QUBITS);
        let e = parse(&format!("{HEADER}qreg q[70000];\nh q[0];")).unwrap_err();
        assert_eq!(e.line, 3);
        let e = parse_lenient(&format!("{HEADER}qreg a[65534];\nqreg b[1];")).unwrap_err();
        assert_eq!(e.line, 4);
    }

    /// `n` gate definitions on one line, each calling the one before
    /// twice: `g<i>` expands to `2ⁱ` gates.
    fn doubling_defs(n: usize) -> String {
        let mut src = "gate g0 a { x a; }".to_string();
        for i in 1..n {
            src.push_str(&format!(" gate g{i} a {{ g{0} a; g{0} a; }}", i - 1));
        }
        src
    }

    #[test]
    fn gate_expansion_is_bounded_where_a_gate_is_defined() {
        let source = |body: &str| format!("{HEADER}qreg q[1];\n{body}");
        // `g20` expands to exactly the bound, and defining it costs no
        // expansion; `g21` passes the bound at its second call.
        assert_eq!(1 << 20, MAX_GATE_EXPANSION);
        let accepted = format!("{} x q[0];", doubling_defs(21));
        assert_eq!(parse(&source(&accepted)).map(|c| c.len()), Ok(1));
        let e = parse(&source(&doubling_defs(22))).unwrap_err();
        assert!(e.to_string().contains("gate 'g21' expands"), "{e}");
        // A small doubling chain still expands exactly.
        let small = format!("{} g4 q[0];", doubling_defs(5));
        assert_eq!(parse(&source(&small)).map(|c| c.len()), Ok(16));
    }

    /// `n` gate definitions on one line, each calling the one before, and a
    /// call of the last; the first applies `rz(angle)`.
    fn gate_chain(n: usize, angle: &str) -> String {
        let mut src = format!("gate g0 a {{ rz({angle}) a; }}");
        for i in 1..n {
            src.push_str(&format!(" gate g{i} a {{ g{} a; }}", i - 1));
        }
        src + &format!(" g{} q[0];", n - 1)
    }

    #[test]
    fn the_deepest_accepted_inputs_fit_a_2_mib_stack() {
        let expressions = |depth: usize| {
            [
                format!("{}1{}", "(".repeat(depth), ")".repeat(depth)),
                format!("{}1", "-".repeat(depth)),
                format!("1{}", "+1".repeat(depth)),
                format!("{}1", "1^".repeat(depth)),
                format!("{}1{}", "sin(".repeat(depth), ")".repeat(depth)),
                format!(
                    "{}{}1{}",
                    "-".repeat(depth % 2),
                    "-(".repeat(depth / 2),
                    ")".repeat(depth / 2)
                ),
            ]
        };
        let parse_all = move || {
            let source = |body: &str| format!("{HEADER}qreg q[1];\n{body}");
            let deepest = expressions(MAX_EXPR_DEPTH);
            for (accepted, rejected) in deepest.iter().zip(expressions(MAX_EXPR_DEPTH + 1)) {
                assert!(
                    parse(&source(&format!("rz({accepted}) q[0];"))).is_ok(),
                    "{accepted:.40}"
                );
                let e = parse(&source(&format!("rz({rejected}) q[0];"))).unwrap_err();
                assert!(e.to_string().contains("nested deeper"), "{rejected:.40}");
            }
            // The deepest definition chain, evaluating the deepest sum at
            // its bottom.
            let chain = gate_chain(MAX_GATE_DEPTH, &deepest[2]);
            assert_eq!(parse(&source(&chain)).map(|c| c.len()), Ok(1));
            let e = parse(&source(&gate_chain(MAX_GATE_DEPTH + 1, "1"))).unwrap_err();
            assert!(e.to_string().contains("deeper than"), "{e}");
        };
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(parse_all)
            .expect("spawn a parser thread")
            .join()
            .expect("the deepest inputs overflowed a 2 MiB stack");
    }

    #[test]
    fn out_of_range_index_rejected() {
        let e = parse(&format!("{HEADER}qreg q[2];\nx q[5];")).unwrap_err();
        assert!(e.to_string().contains("out of range"));
    }

    #[test]
    fn unknown_register_rejected() {
        let e = parse(&format!("{HEADER}qreg q[2];\nx r[0];")).unwrap_err();
        assert!(e.to_string().contains("unknown register"));
    }

    #[test]
    fn u_gates_map_correctly() {
        let c = parse_body("qreg q[1];\nu1(0.3) q[0];\nu2(0.1,0.2) q[0];\nu3(1.0,2.0,3.0) q[0];");
        assert!(matches!(c.gates()[0].kind(), GateKind::Phase(_)));
        match c.gates()[1].kind() {
            GateKind::U3(t, _, _) => assert!((t - std::f64::consts::FRAC_PI_2).abs() < 1e-12),
            k => panic!("{k:?}"),
        }
        assert!(matches!(c.gates()[2].kind(), GateKind::U3(..)));
    }

    #[test]
    fn toffoli_and_fredkin() {
        let c = parse_body("qreg q[3];\nccx q[0], q[1], q[2];\ncswap q[0], q[1], q[2];");
        assert_eq!(c.gates()[0].controls().len(), 2);
        assert_eq!(c.gates()[1].to_string(), "cswap q[0], q[1], q[2]");
    }

    #[test]
    fn missing_qreg_is_an_error() {
        assert!(parse(HEADER).is_err());
    }

    #[test]
    fn lenient_records_indexed_measurements() {
        let src = format!(
            "{HEADER}qreg q[3];\ncreg c[3];\nh q[0];\nmeasure q[0] -> c[2];\nmeasure q[2] -> c[0];"
        );
        let parsed = parse_lenient(&src).unwrap();
        assert_eq!(parsed.circuit.len(), 1);
        assert_eq!(parsed.measurements, vec![(0, 2), (2, 0)]);
        assert!(parsed.skipped.is_empty());
    }

    #[test]
    fn lenient_broadcast_measurement() {
        let src = format!("{HEADER}qreg q[2];\ncreg c[2];\nx q;\nmeasure q -> c;");
        let parsed = parse_lenient(&src).unwrap();
        assert_eq!(parsed.measurements, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn lenient_skips_reset_with_note() {
        let src = format!("{HEADER}qreg q[1];\nh q[0];\nreset q[0];\nx q[0];");
        let parsed = parse_lenient(&src).unwrap();
        assert_eq!(parsed.circuit.len(), 2);
        assert_eq!(parsed.skipped.len(), 1);
        assert!(parsed.skipped[0].contains("reset"));
    }

    #[test]
    fn lenient_still_rejects_malformed_input() {
        let src = format!("{HEADER}qreg q[1];\ncreg c[2];\nmeasure q -> c;");
        let e = parse_lenient(&src).unwrap_err();
        assert!(e.to_string().contains("equal register sizes"));
        let src = format!("{HEADER}qreg q[1];\nmeasure q[0] -> c[0];");
        assert!(parse_lenient(&src).is_err(), "unknown creg must error");
    }

    #[test]
    fn strict_parse_still_rejects_measure_with_hint() {
        let src = format!("{HEADER}qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];");
        let e = parse(&src).unwrap_err();
        assert!(e.to_string().contains("parse_lenient"));
    }
}
