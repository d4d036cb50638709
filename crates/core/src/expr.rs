//! Side-effect-free expressions over a process's local variables.
//!
//! Expressions appear in three places: boolean guards on branches, message
//! payloads of output actions, and the right-hand sides of assignments. Per
//! the paper's communication model (§2.3) they may reference only constants
//! and local variables of the owning process — there is no shared state.

use crate::error::{CoreError, Result};
use crate::ids::{RemoteId, VarId};
use crate::value::{Env, Value};

/// An expression tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A literal constant.
    Const(Value),
    /// A local variable read.
    Var(VarId),
    /// The executing remote node's own identity (`Node`-valued). Only
    /// meaningful inside the remote template; evaluating it in the home
    /// process is an error.
    SelfId,
    /// Logical negation.
    Not(Box<Expr>),
    /// Logical conjunction (strict — both sides always evaluated).
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction (strict).
    Or(Box<Expr>, Box<Expr>),
    /// Equality on any pair of same-kind values.
    Eq(Box<Expr>, Box<Expr>),
    /// Inequality.
    Ne(Box<Expr>, Box<Expr>),
    /// Integer less-than.
    Lt(Box<Expr>, Box<Expr>),
    /// Integer addition.
    Add(Box<Expr>, Box<Expr>),
    /// Integer subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Integer remainder (Euclidean); used to keep data domains bounded for
    /// model checking, e.g. `(data + 1) % 4`.
    Mod(Box<Expr>, Box<Expr>),
    /// Node-set membership: `node ∈ mask`.
    MaskHas(Box<Expr>, Box<Expr>),
    /// Node-set insertion: `mask ∪ {node}`.
    MaskAdd(Box<Expr>, Box<Expr>),
    /// Node-set removal: `mask ∖ {node}`.
    MaskDel(Box<Expr>, Box<Expr>),
    /// Node-set emptiness test.
    MaskIsEmpty(Box<Expr>),
    /// The lowest-numbered node in a (non-empty) set; evaluating it on an
    /// empty set is an error. Used by directory protocols to pick the next
    /// sharer to invalidate.
    MaskFirst(Box<Expr>),
}

/// Evaluation context: the local environment plus, for remote processes,
/// the node's own identity.
#[derive(Debug, Clone, Copy)]
pub struct EvalCtx<'a> {
    /// Local variable environment.
    pub env: &'a Env,
    /// `Some(id)` when evaluating inside remote `id`; `None` in the home.
    pub self_id: Option<RemoteId>,
}

impl Expr {
    /// Convenience constructor for an integer constant.
    pub fn int(i: i64) -> Self {
        Expr::Const(Value::Int(i))
    }

    /// Convenience constructor for a boolean constant.
    pub fn bool(b: bool) -> Self {
        Expr::Const(Value::Bool(b))
    }

    /// Convenience constructor for a node constant.
    pub fn node(r: RemoteId) -> Self {
        Expr::Const(Value::Node(r))
    }

    /// Convenience constructor for equality.
    pub fn eq(a: Expr, b: Expr) -> Self {
        Expr::Eq(Box::new(a), Box::new(b))
    }

    /// Convenience constructor for a mask constant.
    pub fn mask(m: u64) -> Self {
        Expr::Const(Value::Mask(m))
    }

    /// Convenience constructor for `(a + b) % m`.
    pub fn add_mod(a: Expr, b: Expr, m: i64) -> Self {
        Expr::Mod(Box::new(Expr::Add(Box::new(a), Box::new(b))), Box::new(Expr::int(m)))
    }

    /// Evaluates the expression in `ctx`.
    pub fn eval(&self, ctx: EvalCtx<'_>) -> Result<Value> {
        match self {
            Expr::Const(v) => Ok(*v),
            Expr::Var(v) => ctx.env.get(v.index()).ok_or(CoreError::UnknownVar { var: *v }),
            Expr::SelfId => ctx.self_id.map(Value::Node).ok_or(CoreError::SelfIdInHome),
            Expr::Not(e) => {
                let b = Self::expect_bool(e.eval(ctx)?)?;
                Ok(Value::Bool(!b))
            }
            Expr::And(a, b) => {
                let x = Self::expect_bool(a.eval(ctx)?)?;
                let y = Self::expect_bool(b.eval(ctx)?)?;
                Ok(Value::Bool(x && y))
            }
            Expr::Or(a, b) => {
                let x = Self::expect_bool(a.eval(ctx)?)?;
                let y = Self::expect_bool(b.eval(ctx)?)?;
                Ok(Value::Bool(x || y))
            }
            Expr::Eq(a, b) => Ok(Value::Bool(a.eval(ctx)? == b.eval(ctx)?)),
            Expr::Ne(a, b) => Ok(Value::Bool(a.eval(ctx)? != b.eval(ctx)?)),
            Expr::Lt(a, b) => {
                let x = Self::expect_int(a.eval(ctx)?)?;
                let y = Self::expect_int(b.eval(ctx)?)?;
                Ok(Value::Bool(x < y))
            }
            Expr::Add(a, b) => {
                let x = Self::expect_int(a.eval(ctx)?)?;
                let y = Self::expect_int(b.eval(ctx)?)?;
                Ok(Value::Int(x.wrapping_add(y)))
            }
            Expr::Sub(a, b) => {
                let x = Self::expect_int(a.eval(ctx)?)?;
                let y = Self::expect_int(b.eval(ctx)?)?;
                Ok(Value::Int(x.wrapping_sub(y)))
            }
            Expr::Mod(a, b) => {
                let x = Self::expect_int(a.eval(ctx)?)?;
                let y = Self::expect_int(b.eval(ctx)?)?;
                if y == 0 {
                    return Err(CoreError::DivideByZero);
                }
                Ok(Value::Int(x.rem_euclid(y)))
            }
            Expr::MaskHas(m, n) => {
                let mask = Self::expect_mask(m.eval(ctx)?)?;
                let node = Self::expect_node(n.eval(ctx)?)?;
                Ok(Value::Bool(mask & (1u64 << (node.0 as u64 % 64)) != 0))
            }
            Expr::MaskAdd(m, n) => {
                let mask = Self::expect_mask(m.eval(ctx)?)?;
                let node = Self::expect_node(n.eval(ctx)?)?;
                Ok(Value::Mask(mask | (1u64 << (node.0 as u64 % 64))))
            }
            Expr::MaskDel(m, n) => {
                let mask = Self::expect_mask(m.eval(ctx)?)?;
                let node = Self::expect_node(n.eval(ctx)?)?;
                Ok(Value::Mask(mask & !(1u64 << (node.0 as u64 % 64))))
            }
            Expr::MaskIsEmpty(m) => {
                let mask = Self::expect_mask(m.eval(ctx)?)?;
                Ok(Value::Bool(mask == 0))
            }
            Expr::MaskFirst(m) => {
                let mask = Self::expect_mask(m.eval(ctx)?)?;
                if mask == 0 {
                    return Err(CoreError::TypeMismatch {
                        expected: "non-empty node set",
                        got: Value::Mask(0),
                    });
                }
                Ok(Value::Node(RemoteId(mask.trailing_zeros())))
            }
        }
    }

    /// Evaluates a boolean guard; `None` guards are treated as `true` by
    /// callers, this helper handles the `Some` case.
    pub fn eval_bool(&self, ctx: EvalCtx<'_>) -> Result<bool> {
        Self::expect_bool(self.eval(ctx)?)
    }

    /// Evaluates a node-valued expression (a peer designator like `r(o)`).
    pub fn eval_node(&self, ctx: EvalCtx<'_>) -> Result<RemoteId> {
        match self.eval(ctx)? {
            Value::Node(n) => Ok(n),
            other => Err(CoreError::TypeMismatch { expected: "node", got: other }),
        }
    }

    fn expect_bool(v: Value) -> Result<bool> {
        v.as_bool().ok_or(CoreError::TypeMismatch { expected: "bool", got: v })
    }

    fn expect_int(v: Value) -> Result<i64> {
        v.as_int().ok_or(CoreError::TypeMismatch { expected: "int", got: v })
    }

    fn expect_mask(v: Value) -> Result<u64> {
        v.as_mask().ok_or(CoreError::TypeMismatch { expected: "node set", got: v })
    }

    fn expect_node(v: Value) -> Result<RemoteId> {
        v.as_node().ok_or(CoreError::TypeMismatch { expected: "node", got: v })
    }

    /// Collects the variables read by this expression into `vars`.
    pub fn collect_vars(&self, vars: &mut Vec<VarId>) {
        match self {
            Expr::Const(_) | Expr::SelfId => {}
            Expr::Var(v) => vars.push(*v),
            Expr::Not(e) => e.collect_vars(vars),
            Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::Eq(a, b)
            | Expr::Ne(a, b)
            | Expr::Lt(a, b)
            | Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mod(a, b)
            | Expr::MaskHas(a, b)
            | Expr::MaskAdd(a, b)
            | Expr::MaskDel(a, b) => {
                a.collect_vars(vars);
                b.collect_vars(vars);
            }
            Expr::MaskIsEmpty(a) | Expr::MaskFirst(a) => a.collect_vars(vars),
        }
    }

    /// True when the expression commutes with every renaming of remote
    /// identities — the *scalarset* discipline of Murphi symmetry
    /// reduction. Two constructs break it: [`Expr::MaskFirst`], which
    /// picks the lowest-*numbered* node of a set and so distinguishes
    /// otherwise interchangeable remotes, and literals naming a specific
    /// node or non-empty node set. Protocols whose transition
    /// expressions are all equivariant have fully interchangeable
    /// remotes; `ccr-mc`'s symmetry reduction is sound exactly for
    /// those.
    pub fn is_equivariant(&self) -> bool {
        match self {
            Expr::Const(Value::Node(_)) => false,
            Expr::Const(Value::Mask(m)) => *m == 0,
            Expr::Const(_) | Expr::Var(_) | Expr::SelfId => true,
            Expr::MaskFirst(_) => false,
            Expr::Not(e) | Expr::MaskIsEmpty(e) => e.is_equivariant(),
            Expr::And(a, b)
            | Expr::Or(a, b)
            | Expr::Eq(a, b)
            | Expr::Ne(a, b)
            | Expr::Lt(a, b)
            | Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mod(a, b)
            | Expr::MaskHas(a, b)
            | Expr::MaskAdd(a, b)
            | Expr::MaskDel(a, b) => a.is_equivariant() && b.is_equivariant(),
        }
    }

    /// Returns the variable if this expression is exactly one variable read.
    pub fn as_single_var(&self) -> Option<VarId> {
        match self {
            Expr::Var(v) => Some(*v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(env: &Env) -> EvalCtx<'_> {
        EvalCtx { env, self_id: Some(RemoteId(1)) }
    }

    #[test]
    fn eval_arithmetic() {
        let env = Env::new(vec![Value::Int(5)]);
        let e = Expr::Add(Box::new(Expr::Var(VarId(0))), Box::new(Expr::int(2)));
        assert_eq!(e.eval(ctx(&env)).unwrap(), Value::Int(7));
        let m = Expr::add_mod(Expr::Var(VarId(0)), Expr::int(1), 4);
        assert_eq!(m.eval(ctx(&env)).unwrap(), Value::Int(2));
    }

    #[test]
    fn eval_logic_and_comparison() {
        let env = Env::new(vec![Value::Int(1), Value::Int(2)]);
        let lt = Expr::Lt(Box::new(Expr::Var(VarId(0))), Box::new(Expr::Var(VarId(1))));
        assert_eq!(lt.eval(ctx(&env)).unwrap(), Value::Bool(true));
        let combo =
            Expr::And(Box::new(lt.clone()), Box::new(Expr::Not(Box::new(Expr::bool(false)))));
        assert!(combo.eval_bool(ctx(&env)).unwrap());
        let or = Expr::Or(Box::new(Expr::bool(false)), Box::new(Expr::bool(true)));
        assert!(or.eval_bool(ctx(&env)).unwrap());
    }

    #[test]
    fn eval_self_id_only_in_remote() {
        let env = Env::new(vec![]);
        assert_eq!(
            Expr::SelfId.eval(EvalCtx { env: &env, self_id: Some(RemoteId(3)) }).unwrap(),
            Value::Node(RemoteId(3))
        );
        assert!(matches!(
            Expr::SelfId.eval(EvalCtx { env: &env, self_id: None }),
            Err(CoreError::SelfIdInHome)
        ));
    }

    #[test]
    fn eval_errors() {
        let env = Env::new(vec![Value::Unit]);
        assert!(matches!(Expr::Var(VarId(7)).eval(ctx(&env)), Err(CoreError::UnknownVar { .. })));
        let bad = Expr::Add(Box::new(Expr::Var(VarId(0))), Box::new(Expr::int(1)));
        assert!(matches!(bad.eval(ctx(&env)), Err(CoreError::TypeMismatch { .. })));
        let div = Expr::Mod(Box::new(Expr::int(1)), Box::new(Expr::int(0)));
        assert!(matches!(div.eval(ctx(&env)), Err(CoreError::DivideByZero)));
    }

    #[test]
    fn eval_node_rejects_non_node() {
        let env = Env::new(vec![Value::Int(0)]);
        assert!(Expr::Var(VarId(0)).eval_node(ctx(&env)).is_err());
        let env2 = Env::new(vec![Value::Node(RemoteId(4))]);
        assert_eq!(Expr::Var(VarId(0)).eval_node(ctx(&env2)).unwrap(), RemoteId(4));
    }

    #[test]
    fn collect_vars_and_single_var() {
        let e = Expr::Add(Box::new(Expr::Var(VarId(1))), Box::new(Expr::Var(VarId(2))));
        let mut vs = Vec::new();
        e.collect_vars(&mut vs);
        assert_eq!(vs, vec![VarId(1), VarId(2)]);
        assert_eq!(Expr::Var(VarId(5)).as_single_var(), Some(VarId(5)));
        assert_eq!(e.as_single_var(), None);
    }

    #[test]
    fn mask_operations() {
        let env = Env::new(vec![Value::Mask(0b110)]);
        let m = Expr::Var(VarId(0));
        let has1 = Expr::MaskHas(Box::new(m.clone()), Box::new(Expr::node(RemoteId(1))));
        let has0 = Expr::MaskHas(Box::new(m.clone()), Box::new(Expr::node(RemoteId(0))));
        assert_eq!(has1.eval(ctx(&env)).unwrap(), Value::Bool(true));
        assert_eq!(has0.eval(ctx(&env)).unwrap(), Value::Bool(false));
        let add = Expr::MaskAdd(Box::new(m.clone()), Box::new(Expr::node(RemoteId(0))));
        assert_eq!(add.eval(ctx(&env)).unwrap(), Value::Mask(0b111));
        let del = Expr::MaskDel(Box::new(m.clone()), Box::new(Expr::node(RemoteId(2))));
        assert_eq!(del.eval(ctx(&env)).unwrap(), Value::Mask(0b010));
        let first = Expr::MaskFirst(Box::new(m.clone()));
        assert_eq!(first.eval(ctx(&env)).unwrap(), Value::Node(RemoteId(1)));
        let empty = Expr::MaskIsEmpty(Box::new(Expr::mask(0)));
        assert_eq!(empty.eval(ctx(&env)).unwrap(), Value::Bool(true));
        let bad_first = Expr::MaskFirst(Box::new(Expr::mask(0)));
        assert!(bad_first.eval(ctx(&env)).is_err());
        let bad_type = Expr::MaskIsEmpty(Box::new(Expr::int(3)));
        assert!(bad_type.eval(ctx(&env)).is_err());
        let mut vs = Vec::new();
        Expr::MaskFirst(Box::new(Expr::Var(VarId(0)))).collect_vars(&mut vs);
        assert_eq!(vs, vec![VarId(0)]);
    }

    #[test]
    fn equivariance_flags_order_sensitive_constructs() {
        let var_mask = Expr::Var(VarId(0));
        assert!(Expr::MaskAdd(Box::new(var_mask.clone()), Box::new(Expr::SelfId)).is_equivariant());
        assert!(Expr::MaskIsEmpty(Box::new(var_mask.clone())).is_equivariant());
        assert!(Expr::mask(0).is_equivariant(), "the empty set names no node");
        assert!(!Expr::MaskFirst(Box::new(var_mask.clone())).is_equivariant());
        assert!(!Expr::node(RemoteId(0)).is_equivariant(), "node literal");
        assert!(!Expr::mask(0b10).is_equivariant(), "non-empty set literal");
        let nested =
            Expr::And(Box::new(Expr::bool(true)), Box::new(Expr::MaskFirst(Box::new(var_mask))));
        assert!(!nested.is_equivariant(), "order sensitivity propagates up");
    }
}
