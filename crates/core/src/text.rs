//! Textual front end: a CSP-like concrete syntax for protocol specs.
//!
//! The paper's methodology (§2.3) has users *write* the rendezvous protocol
//! in CSP notation with direct addressing. This module provides that
//! surface: [`to_text`] renders a [`ProtocolSpec`] into a canonical textual
//! form and [`parse`] reads it back; `parse(to_text(s)) == s` for every
//! valid spec (round-trip tested, including property-based tests).
//!
//! # Grammar
//!
//! ```text
//! protocol  := "protocol" IDENT "{" msgs? home remote "}"
//! msgs      := "messages" IDENT ("," IDENT)* ";"
//! home      := "home" "{" decl* state* "}"
//! remote    := "remote" "{" decl* state* "}"
//! decl      := "var" IDENT ":" kind ":=" literal ";"
//! kind      := "node" | "int" | "bool" | "mask" | "unit"
//! state     := ("state" | "internal") IDENT "init"? "{" branch* "}"
//! branch    := ("when" expr)? action tag? payload? assigns? "->" IDENT ";"
//! action    := "tau"
//!            | "h" ("?" | "!") IDENT
//!            | "r" "(" peer ")" ("?" | "!") IDENT
//! peer      := "*" | "*" "->" IDENT | expr
//! tag       := "#" IDENT
//! payload   := "(" (expr | "bind" IDENT) ")"
//! assigns   := "{" (IDENT ":=" expr ";")* "}"
//! expr      := or; standard precedence with fully parenthesized output
//! atom      := INT | "true" | "false" | "self" | "r" INT | IDENT
//!            | "(" expr ")" | "mask" "(" INT ")"
//!            | ("empty" | "first") "(" expr ")"
//!            | ("has" | "madd" | "mdel") "(" expr "," expr ")"
//! ```
//!
//! A receive's payload binding is written `(bind x)`; a send's payload is
//! an expression `(e)`.

use crate::error::{CoreError, Result};
use crate::expr::Expr;
use crate::ids::{MsgType, RemoteId, StateId, SymbolTable, VarId};
use crate::process::{Branch, CommAction, Peer, Process, ProtocolSpec, State, StateKind, VarDecl};
use crate::value::Value;
use std::fmt::Write as _;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Renders `spec` into the canonical textual form accepted by [`parse`].
pub fn to_text(spec: &ProtocolSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "protocol {} {{", spec.name);
    if !spec.msgs.is_empty() {
        let names: Vec<&str> = spec.msgs.iter().map(|(_, n)| n).collect();
        let _ = writeln!(out, "  messages {};", names.join(", "));
    }
    render_process(spec, &spec.home, "home", &mut out);
    render_process(spec, &spec.remote, "remote", &mut out);
    out.push_str("}\n");
    out
}

fn render_process(spec: &ProtocolSpec, p: &Process, label: &str, out: &mut String) {
    let _ = writeln!(out, "  {label} {{");
    for v in &p.vars {
        let (kind, lit) = render_literal(v.init);
        let _ = writeln!(out, "    var {}: {kind} := {lit};", v.name);
    }
    for (si, st) in p.states.iter().enumerate() {
        let kw = match st.kind {
            StateKind::Communication => "state",
            StateKind::Internal => "internal",
        };
        let init = if si == p.initial.index() { " init" } else { "" };
        let _ = writeln!(out, "    {kw} {}{init} {{", st.name);
        for br in &st.branches {
            let target = p.state(br.target).map(|t| t.name.as_str()).unwrap_or("?");
            let _ = writeln!(out, "      {} -> {target};", render_branch(spec, p, br));
        }
        let _ = writeln!(out, "    }}");
    }
    let _ = writeln!(out, "  }}");
}

fn render_literal(v: Value) -> (&'static str, String) {
    match v {
        Value::Unit => ("unit", "()".to_string()),
        Value::Bool(b) => ("bool", b.to_string()),
        Value::Int(i) => ("int", i.to_string()),
        Value::Node(r) => ("node", format!("r{}", r.0)),
        Value::Mask(m) => ("mask", format!("mask({m})")),
    }
}

/// The name `p` declares for `v` (`?v<i>` for an id it does not declare).
pub(crate) fn var_name(p: &Process, v: VarId) -> String {
    p.vars.get(v.index()).map(|d| d.name.clone()).unwrap_or_else(|| format!("?v{}", v.0))
}

/// A branch of `p` as [`to_text`] writes it, up to its ` -> target;`:
/// guard, action, tag, payload and assignments, names resolved in `p`.
pub(crate) fn render_branch(spec: &ProtocolSpec, p: &Process, br: &Branch) -> String {
    let mut s = String::new();
    if let Some(g) = &br.guard {
        let _ = write!(s, "when {} ", render_expr(p, g));
    }
    match &br.action {
        CommAction::Tau => {
            s.push_str("tau");
            if let Some(t) = &br.tag {
                let _ = write!(s, " #{t}");
            }
        }
        CommAction::Send { to, msg, payload } => {
            match to {
                Peer::Home => s.push('h'),
                Peer::Remote(e) => {
                    let _ = write!(s, "r({})", render_expr(p, e));
                }
                Peer::AnyRemote { .. } => s.push_str("r(*)"),
            }
            let _ = write!(s, " ! {}", spec.msg_name(*msg));
            if let Some(t) = &br.tag {
                let _ = write!(s, " #{t}");
            }
            if let Some(e) = payload {
                let _ = write!(s, " ({})", render_expr(p, e));
            }
        }
        CommAction::Recv { from, msg, bind } => {
            match from {
                Peer::Home => s.push('h'),
                Peer::Remote(e) => {
                    let _ = write!(s, "r({})", render_expr(p, e));
                }
                Peer::AnyRemote { bind: None } => s.push_str("r(*)"),
                Peer::AnyRemote { bind: Some(v) } => {
                    let _ = write!(s, "r(* -> {})", var_name(p, *v));
                }
            }
            let _ = write!(s, " ? {}", spec.msg_name(*msg));
            if let Some(t) = &br.tag {
                let _ = write!(s, " #{t}");
            }
            if let Some(v) = bind {
                let _ = write!(s, " (bind {})", var_name(p, *v));
            }
        }
    }
    if !br.assigns.is_empty() {
        s.push_str(" { ");
        for (v, e) in &br.assigns {
            let _ = write!(s, "{} := {}; ", var_name(p, *v), render_expr(p, e));
        }
        s.push('}');
    }
    s
}

/// An expression as [`to_text`] writes it, variables named in `p`.
pub(crate) fn render_expr(p: &Process, e: &Expr) -> String {
    match e {
        Expr::Const(Value::Unit) => "unitlit".into(),
        Expr::Const(Value::Bool(b)) => b.to_string(),
        Expr::Const(Value::Int(i)) => i.to_string(),
        Expr::Const(Value::Node(r)) => format!("r{}", r.0),
        Expr::Const(Value::Mask(m)) => format!("mask({m})"),
        Expr::Var(v) => var_name(p, *v),
        Expr::SelfId => "self".into(),
        Expr::Not(a) => format!("!({})", render_expr(p, a)),
        Expr::And(a, b) => format!("({} && {})", render_expr(p, a), render_expr(p, b)),
        Expr::Or(a, b) => format!("({} || {})", render_expr(p, a), render_expr(p, b)),
        Expr::Eq(a, b) => format!("({} == {})", render_expr(p, a), render_expr(p, b)),
        Expr::Ne(a, b) => format!("({} != {})", render_expr(p, a), render_expr(p, b)),
        Expr::Lt(a, b) => format!("({} < {})", render_expr(p, a), render_expr(p, b)),
        Expr::Add(a, b) => format!("({} + {})", render_expr(p, a), render_expr(p, b)),
        Expr::Sub(a, b) => format!("({} - {})", render_expr(p, a), render_expr(p, b)),
        Expr::Mod(a, b) => format!("({} % {})", render_expr(p, a), render_expr(p, b)),
        Expr::MaskHas(a, b) => format!("has({}, {})", render_expr(p, a), render_expr(p, b)),
        Expr::MaskAdd(a, b) => format!("madd({}, {})", render_expr(p, a), render_expr(p, b)),
        Expr::MaskDel(a, b) => format!("mdel({}, {})", render_expr(p, a), render_expr(p, b)),
        Expr::MaskIsEmpty(a) => format!("empty({})", render_expr(p, a)),
        Expr::MaskFirst(a) => format!("first({})", render_expr(p, a)),
    }
}

// ---------------------------------------------------------------------------
// Lexing
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    Punct(&'static str),
    Eof,
}

struct Lexer {
    toks: Vec<(Tok, usize)>, // token + line (pre-scanned by the process parser)
    pos: usize,
}

const PUNCTS: [&str; 20] = [
    "->", ":=", "==", "!=", "&&", "||", "{", "}", "(", ")", ",", ";", ":", "?", "!", "*", "#", "<",
    "%", "+",
];

/// Splits `src` into tokens, one `char` at a time: identifiers are a
/// Unicode letter or `_` followed by letters, digits and `_`; any other
/// character outside the token set is a line-numbered error.
fn lex(src: &str) -> Result<Lexer> {
    let mut toks = Vec::new();
    let mut chars = src.char_indices().peekable();
    let mut line = 1;
    while let Some((i, c)) = chars.next() {
        if c == '\n' {
            line += 1;
            continue;
        }
        if c.is_whitespace() {
            continue;
        }
        let rest = &src[i..];
        if rest.starts_with("//") {
            while chars.next_if(|&(_, c)| c != '\n').is_some() {}
            continue;
        }
        if let Some(p) = PUNCTS.into_iter().find(|p| rest.starts_with(p)) {
            toks.push((Tok::Punct(p), line));
            // Every punctuator is ASCII: one char per byte.
            for _ in 1..p.len() {
                chars.next();
            }
            continue;
        }
        // The token begun at `i`, extended while `more` holds.
        let mut token = |more: fn(char) -> bool| {
            let mut end = i + c.len_utf8();
            while let Some((j, d)) = chars.next_if(|&(_, d)| more(d)) {
                end = j + d.len_utf8();
            }
            &src[i..end]
        };
        if c.is_ascii_digit() || c == '-' && rest[1..].starts_with(|d: char| d.is_ascii_digit()) {
            let n: i64 = token(|d| d.is_ascii_digit())
                .parse()
                .map_err(|_| CoreError::Builder(format!("line {line}: bad integer")))?;
            toks.push((Tok::Int(n), line));
        } else if c == '-' {
            toks.push((Tok::Punct("-"), line));
        } else if c.is_alphabetic() || c == '_' {
            toks.push((Tok::Ident(token(|d| d.is_alphanumeric() || d == '_').to_string()), line));
        } else {
            return Err(CoreError::Builder(format!("line {line}: unexpected character {c:?}")));
        }
    }
    toks.push((Tok::Eof, line));
    Ok(Lexer { toks, pos: 0 })
}

impl Lexer {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn line(&self) -> usize {
        self.toks[self.pos].1
    }

    fn next(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, p: &'static str) -> Result<()> {
        match self.next() {
            Tok::Punct(q) if q == p => Ok(()),
            other => Err(CoreError::Builder(format!(
                "line {}: expected `{p}`, found {other:?}",
                self.line()
            ))),
        }
    }

    fn try_punct(&mut self, p: &'static str) -> bool {
        if self.peek() == &Tok::Punct(p) {
            self.next();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Tok::Ident(s) => Ok(s),
            other => Err(CoreError::Builder(format!(
                "line {}: expected identifier, found {other:?}",
                self.line()
            ))),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<()> {
        let line = self.line();
        match self.next() {
            Tok::Ident(s) if s == kw => Ok(()),
            other => {
                Err(CoreError::Builder(format!("line {line}: expected `{kw}`, found {other:?}")))
            }
        }
    }

    fn try_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == kw) {
            self.next();
            true
        } else {
            false
        }
    }

    fn int(&mut self) -> Result<i64> {
        match self.next() {
            Tok::Int(n) => Ok(n),
            other => Err(CoreError::Builder(format!(
                "line {}: expected integer, found {other:?}",
                self.line()
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Parses the textual form back into a [`ProtocolSpec`]. The result is
/// *not* automatically validated; run [`crate::validate::validate`] (or use
/// [`parse_validated`]).
pub fn parse(src: &str) -> Result<ProtocolSpec> {
    let mut lx = lex(src)?;
    lx.keyword("protocol")?;
    let name = lx.ident()?;
    lx.eat_punct("{")?;

    let mut msgs = SymbolTable::new();
    if lx.try_keyword("messages") {
        loop {
            let m = lx.ident()?;
            msgs.intern(&m);
            if !lx.try_punct(",") {
                break;
            }
        }
        lx.eat_punct(";")?;
    }

    lx.keyword("home")?;
    let home = parse_process(&mut lx, "home", true, &mut msgs)?;
    lx.keyword("remote")?;
    let remote = parse_process(&mut lx, "remote", false, &mut msgs)?;
    lx.eat_punct("}")?;
    if lx.peek() != &Tok::Eof {
        return Err(CoreError::Builder(format!(
            "line {}: trailing input after protocol",
            lx.line()
        )));
    }
    Ok(ProtocolSpec { name, home, remote, msgs })
}

/// Parses and validates in one step.
pub fn parse_validated(src: &str) -> Result<ProtocolSpec> {
    let spec = parse(src)?;
    crate::validate::validate(&spec)?;
    Ok(spec)
}

struct Names {
    vars: Vec<String>,
    /// Each state's name and the line it is first mentioned on.
    states: Vec<(String, usize)>,
}

impl Names {
    fn var(&self, name: &str, line: usize) -> Result<VarId> {
        self.vars
            .iter()
            .position(|v| v == name)
            .map(|i| VarId(i as u32))
            .ok_or_else(|| CoreError::Builder(format!("line {line}: unknown variable `{name}`")))
    }

    fn state(&mut self, name: &str, line: usize) -> StateId {
        if let Some(i) = self.states.iter().position(|(s, _)| s == name) {
            StateId(i as u32)
        } else {
            self.states.push((name.to_string(), line));
            StateId((self.states.len() - 1) as u32)
        }
    }
}

fn parse_process(
    lx: &mut Lexer,
    pname: &str,
    is_home: bool,
    msgs: &mut SymbolTable,
) -> Result<Process> {
    lx.eat_punct("{")?;
    let mut vars: Vec<VarDecl> = Vec::new();
    while lx.try_keyword("var") {
        let name = lx.ident()?;
        lx.eat_punct(":")?;
        let kind = lx.ident()?;
        // '=' is not a punct; we reuse `:=`? No: grammar uses '='. Accept
        // either `=` via ident-free path: we lex `==` as one token, so a
        // single `=` never appears. Use `:=` instead in the canonical form?
        // The renderer emits `=`; add it here by accepting `==`? To keep the
        // lexer simple the canonical form uses `:=` for declarations too.
        lx.eat_punct(":=")?;
        let init = parse_literal(lx, &kind)?;
        lx.eat_punct(";")?;
        vars.push(VarDecl { name, init });
    }
    let mut names =
        Names { vars: vars.iter().map(|v| v.name.clone()).collect(), states: Vec::new() };
    // Pre-scan the block for state declarations so that StateIds follow
    // declaration order (matching the builder), not first-mention order —
    // forward references like `-> GS;` would otherwise renumber states.
    {
        let mut depth = 1usize;
        let mut i = lx.pos;
        while depth > 0 && i < lx.toks.len() {
            match &lx.toks[i].0 {
                Tok::Punct("{") => depth += 1,
                Tok::Punct("}") => depth -= 1,
                Tok::Ident(kw) if depth == 1 && (kw == "state" || kw == "internal") => {
                    if let Some((Tok::Ident(name), line)) = lx.toks.get(i + 1) {
                        names.state(name, *line);
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    let mut parsed: Vec<(StateId, State, bool)> = Vec::new();
    loop {
        let kind = if lx.try_keyword("state") {
            StateKind::Communication
        } else if lx.try_keyword("internal") {
            StateKind::Internal
        } else {
            break;
        };
        let line = lx.line();
        let sname = lx.ident()?;
        let sid = names.state(&sname, line);
        let is_init = lx.try_keyword("init");
        lx.eat_punct("{")?;
        let mut branches = Vec::new();
        while !lx.try_punct("}") {
            branches.push(parse_branch(lx, is_home, msgs, &mut names)?);
        }
        parsed.push((sid, State { name: sname, kind, branches }, is_init));
    }
    lx.eat_punct("}")?;

    // Assemble states in id order; forward references created placeholder
    // ids, so every id must be defined exactly once.
    let mut states: Vec<Option<State>> = vec![None; names.states.len()];
    let mut initial = None;
    for (sid, st, is_init) in parsed {
        if states[sid.index()].is_some() {
            return Err(CoreError::Builder(format!("{pname}: duplicate state `{}`", st.name)));
        }
        if is_init {
            if initial.is_some() {
                return Err(CoreError::Builder(format!("{pname}: two init states")));
            }
            initial = Some(sid);
        }
        states[sid.index()] = Some(st);
    }
    let states: Vec<State> = states
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            s.ok_or_else(|| {
                let (name, line) = &names.states[i];
                CoreError::Builder(format!(
                    "line {line}: {pname}: state `{name}` referenced but never defined"
                ))
            })
        })
        .collect::<Result<_>>()?;
    let initial = initial.ok_or_else(|| CoreError::Builder(format!("{pname}: no `init` state")))?;
    Ok(Process { name: pname.to_string(), states, vars, initial })
}

fn parse_literal(lx: &mut Lexer, kind: &str) -> Result<Value> {
    let line = lx.line();
    match kind {
        "int" => Ok(Value::Int(lx.int()?)),
        "bool" => {
            if lx.try_keyword("true") {
                Ok(Value::Bool(true))
            } else if lx.try_keyword("false") {
                Ok(Value::Bool(false))
            } else {
                Err(CoreError::Builder(format!("line {line}: expected bool literal")))
            }
        }
        "node" => {
            let id = lx.ident()?;
            parse_node_name(&id, line).map(Value::Node)
        }
        "mask" => {
            lx.keyword("mask")?;
            lx.eat_punct("(")?;
            let m = lx.int()?;
            lx.eat_punct(")")?;
            Ok(Value::Mask(m as u64))
        }
        "unit" => {
            lx.eat_punct("(")?;
            lx.eat_punct(")")?;
            Ok(Value::Unit)
        }
        other => Err(CoreError::Builder(format!("line {line}: unknown kind `{other}`"))),
    }
}

fn parse_node_name(id: &str, line: usize) -> Result<RemoteId> {
    if let Some(num) = id.strip_prefix('r') {
        if let Ok(n) = num.parse::<u32>() {
            return Ok(RemoteId(n));
        }
    }
    Err(CoreError::Builder(format!("line {line}: expected node literal like `r0`, got `{id}`")))
}

fn parse_branch(
    lx: &mut Lexer,
    is_home: bool,
    msgs: &mut SymbolTable,
    names: &mut Names,
) -> Result<Branch> {
    let guard = if lx.try_keyword("when") { Some(parse_expr(lx, names)?) } else { None };

    let line = lx.line();
    let mut tag = None;
    let action = if lx.try_keyword("tau") {
        if lx.try_punct("#") {
            tag = Some(lx.ident()?.into());
        }
        CommAction::Tau
    } else if lx.try_keyword("h") {
        if is_home {
            return Err(CoreError::Builder(format!("line {line}: `h` peer inside home")));
        }
        parse_comm(lx, Peer::Home, msgs, names, &mut tag)?
    } else if lx.try_keyword("r") {
        lx.eat_punct("(")?;
        let peer = if lx.try_punct("*") {
            let bind = if lx.try_punct("->") {
                let v = lx.ident()?;
                Some(names.var(&v, line)?)
            } else {
                None
            };
            Peer::AnyRemote { bind }
        } else {
            Peer::Remote(parse_expr(lx, names)?)
        };
        lx.eat_punct(")")?;
        parse_comm(lx, peer, msgs, names, &mut tag)?
    } else {
        return Err(CoreError::Builder(format!(
            "line {line}: expected an action (tau / h / r), found {:?}",
            lx.peek()
        )));
    };

    let mut assigns = Vec::new();
    if lx.try_punct("{") {
        while !lx.try_punct("}") {
            let line = lx.line();
            let v = lx.ident()?;
            let vid = names.var(&v, line)?;
            lx.eat_punct(":=")?;
            let e = parse_expr(lx, names)?;
            lx.eat_punct(";")?;
            assigns.push((vid, e));
        }
    }
    lx.eat_punct("->")?;
    let line = lx.line();
    let target_name = lx.ident()?;
    let target = names.state(&target_name, line);
    lx.eat_punct(";")?;
    Ok(Branch { guard, action, assigns, target, tag })
}

fn parse_comm(
    lx: &mut Lexer,
    peer: Peer,
    msgs: &mut SymbolTable,
    names: &mut Names,
    tag: &mut Option<Arc<str>>,
) -> Result<CommAction> {
    let line = lx.line();
    let is_send = if lx.try_punct("!") {
        true
    } else if lx.try_punct("?") {
        false
    } else {
        return Err(CoreError::Builder(format!("line {line}: expected `!` or `?`")));
    };
    let mname = lx.ident()?;
    let msg = MsgType(msgs.intern(&mname));
    if lx.try_punct("#") {
        *tag = Some(lx.ident()?.into());
    }
    if is_send {
        let payload = if lx.try_punct("(") {
            let e = parse_expr(lx, names)?;
            lx.eat_punct(")")?;
            Some(e)
        } else {
            None
        };
        Ok(CommAction::Send { to: peer, msg, payload })
    } else {
        let bind = if lx.try_punct("(") {
            lx.keyword("bind")?;
            let line = lx.line();
            let v = lx.ident()?;
            lx.eat_punct(")")?;
            Some(names.var(&v, line)?)
        } else {
            None
        };
        Ok(CommAction::Recv { from: peer, msg, bind })
    }
}

// Expression parsing with standard precedence.
fn parse_expr(lx: &mut Lexer, names: &Names) -> Result<Expr> {
    parse_or(lx, names)
}

fn parse_or(lx: &mut Lexer, names: &Names) -> Result<Expr> {
    let mut e = parse_and(lx, names)?;
    while lx.try_punct("||") {
        let rhs = parse_and(lx, names)?;
        e = Expr::Or(Box::new(e), Box::new(rhs));
    }
    Ok(e)
}

fn parse_and(lx: &mut Lexer, names: &Names) -> Result<Expr> {
    let mut e = parse_cmp(lx, names)?;
    while lx.try_punct("&&") {
        let rhs = parse_cmp(lx, names)?;
        e = Expr::And(Box::new(e), Box::new(rhs));
    }
    Ok(e)
}

fn parse_cmp(lx: &mut Lexer, names: &Names) -> Result<Expr> {
    let e = parse_arith(lx, names)?;
    if lx.try_punct("==") {
        let rhs = parse_arith(lx, names)?;
        Ok(Expr::Eq(Box::new(e), Box::new(rhs)))
    } else if lx.try_punct("!=") {
        let rhs = parse_arith(lx, names)?;
        Ok(Expr::Ne(Box::new(e), Box::new(rhs)))
    } else if lx.try_punct("<") {
        let rhs = parse_arith(lx, names)?;
        Ok(Expr::Lt(Box::new(e), Box::new(rhs)))
    } else {
        Ok(e)
    }
}

fn parse_arith(lx: &mut Lexer, names: &Names) -> Result<Expr> {
    let mut e = parse_unary(lx, names)?;
    loop {
        if lx.try_punct("+") {
            let rhs = parse_unary(lx, names)?;
            e = Expr::Add(Box::new(e), Box::new(rhs));
        } else if lx.try_punct("-") {
            let rhs = parse_unary(lx, names)?;
            e = Expr::Sub(Box::new(e), Box::new(rhs));
        } else if lx.try_punct("%") {
            let rhs = parse_unary(lx, names)?;
            e = Expr::Mod(Box::new(e), Box::new(rhs));
        } else {
            return Ok(e);
        }
    }
}

fn parse_unary(lx: &mut Lexer, names: &Names) -> Result<Expr> {
    if lx.try_punct("!") {
        let e = parse_unary(lx, names)?;
        return Ok(Expr::Not(Box::new(e)));
    }
    parse_atom(lx, names)
}

fn parse_atom(lx: &mut Lexer, names: &Names) -> Result<Expr> {
    let line = lx.line();
    if lx.try_punct("(") {
        let e = parse_expr(lx, names)?;
        lx.eat_punct(")")?;
        return Ok(e);
    }
    match lx.next() {
        Tok::Int(n) => Ok(Expr::int(n)),
        Tok::Ident(id) => match id.as_str() {
            "true" => Ok(Expr::bool(true)),
            "false" => Ok(Expr::bool(false)),
            "self" => Ok(Expr::SelfId),
            "unitlit" => Ok(Expr::Const(Value::Unit)),
            "mask" => {
                lx.eat_punct("(")?;
                let m = lx.int()?;
                lx.eat_punct(")")?;
                Ok(Expr::mask(m as u64))
            }
            "empty" => {
                lx.eat_punct("(")?;
                let e = parse_expr(lx, names)?;
                lx.eat_punct(")")?;
                Ok(Expr::MaskIsEmpty(Box::new(e)))
            }
            "first" => {
                lx.eat_punct("(")?;
                let e = parse_expr(lx, names)?;
                lx.eat_punct(")")?;
                Ok(Expr::MaskFirst(Box::new(e)))
            }
            "has" | "madd" | "mdel" => {
                lx.eat_punct("(")?;
                let a = parse_expr(lx, names)?;
                lx.eat_punct(",")?;
                let b = parse_expr(lx, names)?;
                lx.eat_punct(")")?;
                Ok(match id.as_str() {
                    "has" => Expr::MaskHas(Box::new(a), Box::new(b)),
                    "madd" => Expr::MaskAdd(Box::new(a), Box::new(b)),
                    _ => Expr::MaskDel(Box::new(a), Box::new(b)),
                })
            }
            other => {
                // A node literal (`r0`) or a variable name.
                if let Ok(node) = parse_node_name(other, line) {
                    if names.vars.iter().all(|v| v != other) {
                        return Ok(Expr::node(node));
                    }
                }
                names.var(other, line).map(Expr::Var)
            }
        },
        other => {
            Err(CoreError::Builder(format!("line {line}: expected expression, found {other:?}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProtocolBuilder;
    use crate::validate::validate;

    fn token_spec() -> ProtocolSpec {
        let mut b = ProtocolBuilder::new("token");
        let req = b.msg("req");
        let gr = b.msg("gr");
        let rel = b.msg("rel");
        let o = b.home_var("o", Value::Node(RemoteId(0)));
        let f = b.home_state("F");
        let g1 = b.home_state("G1");
        let e = b.home_state("E");
        b.home(f).recv_any(req).bind_sender(o).goto(g1);
        b.home(g1).send_to(Expr::Var(o), gr).goto(e);
        b.home(e).recv_exact(rel, Expr::Var(o)).goto(f);
        let i = b.remote_state("I");
        let rq = b.remote_state("RQ");
        let w = b.remote_state("W");
        let v = b.remote_state("V");
        b.remote(i).tau().tag("acquire").goto(rq);
        b.remote(rq).send(req).goto(w);
        b.remote(w).recv(gr).goto(v);
        b.remote(v).send(rel).goto(i);
        b.finish().unwrap()
    }

    #[test]
    fn token_round_trips() {
        let spec = token_spec();
        let text = to_text(&spec);
        let parsed = parse(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        assert_eq!(parsed, spec, "round-trip must be exact\n---\n{text}");
        validate(&parsed).unwrap();
    }

    #[test]
    fn rendered_text_is_stable() {
        let spec = token_spec();
        let text = to_text(&spec);
        let text2 = to_text(&parse(&text).unwrap());
        assert_eq!(text, text2);
    }

    #[test]
    fn parse_reports_unknown_variable() {
        let src = "protocol p { home { state H init { r(*) ? m (bind nope) -> H; } } remote { state R init { h ! m -> R; } } }";
        let err = parse(src).unwrap_err();
        assert!(err.to_string().contains("unknown variable"), "{err}");
    }

    #[test]
    fn parse_reports_missing_init() {
        let src = "protocol p { home { state H { r(*) ? m -> H; } } remote { state R init { h ! m -> R; } } }";
        let err = parse(src).unwrap_err();
        assert!(err.to_string().contains("no `init` state"), "{err}");
    }

    #[test]
    fn parse_reports_undefined_state() {
        let src = "protocol p { home { state H init { r(*) ? m -> GONE; } } remote { state R init { h ! m -> R; } } }";
        let err = parse(src).unwrap_err();
        assert!(err.to_string().contains("never defined"), "{err}");
    }

    #[test]
    fn parse_handles_comments_and_whitespace() {
        let src = r#"
// the smallest protocol
protocol p {
  messages m;
  home {
    state H init { r(*) ? m -> H; } // serve forever
  }
  remote {
    state R init { h ! m -> R; }
  }
}
"#;
        let spec = parse_validated(src).unwrap();
        assert_eq!(spec.name, "p");
        assert_eq!(spec.msgs.len(), 1);
    }

    #[test]
    fn expressions_round_trip_via_branch_guards() {
        let mut b = ProtocolBuilder::new("x");
        let m = b.msg("m");
        let s = b.home_var("s", Value::Mask(0));
        let d = b.home_var("d", Value::Int(0));
        let h = b.home_state("H");
        let guard = Expr::And(
            Box::new(Expr::Not(Box::new(Expr::MaskIsEmpty(Box::new(Expr::Var(s)))))),
            Box::new(Expr::Lt(Box::new(Expr::Var(d)), Box::new(Expr::int(3)))),
        );
        b.home(h)
            .when(guard)
            .recv_any(m)
            .assign(s, Expr::MaskAdd(Box::new(Expr::Var(s)), Box::new(Expr::node(RemoteId(1)))))
            .assign(d, Expr::add_mod(Expr::Var(d), Expr::int(1), 4))
            .goto(h);
        b.home(h).recv_any(m).goto(h);
        let r = b.remote_state("R");
        b.remote(r).send(m).payload(Expr::SelfId).goto(r);
        let spec = b.finish_unchecked().unwrap();
        let text = to_text(&spec);
        let parsed = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(parsed, spec, "\n{text}");
    }

    #[test]
    fn migratory_like_spec_round_trips_with_tags() {
        let mut b = ProtocolBuilder::new("tagged");
        let m = b.msg("m");
        let h = b.home_state("H");
        b.home(h).recv_any(m).goto(h);
        let r = b.remote_state("R");
        let r2 = b.remote_state("R2");
        b.remote(r).tau().tag("evict").goto(r2);
        b.remote(r2).send(m).goto(r);
        let spec = b.finish().unwrap();
        let text = to_text(&spec);
        assert!(text.contains("#evict"));
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn node_literal_vs_variable_disambiguation() {
        // A variable named `r1` shadows the node literal.
        let src = r#"
protocol p {
  home {
    var r1: int := 5;
    state H init { when (r1 == 5) r(*) ? m -> H; }
  }
  remote { state R init { h ! m -> R; } }
}
"#;
        let spec = parse(src).unwrap();
        let g = spec.home.states[0].branches[0].guard.as_ref().unwrap();
        assert_eq!(*g, Expr::eq(Expr::Var(VarId(0)), Expr::int(5)));
    }
}
