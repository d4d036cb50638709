//! Property-based tests for the core IR: expression evaluation, value
//! encodings (one key per value: each value has one encoding, its
//! shortest, and nothing else decodes), and the textual round-trip over
//! randomly generated specs.

use ccr_core::builder::ProtocolBuilder;
use ccr_core::expr::{EvalCtx, Expr};
use ccr_core::ids::{RemoteId, StateId, VarId};
use ccr_core::process::{
    Branch, CommAction, Peer, Process, ProtocolSpec, State, StateKind, VarDecl,
};
use ccr_core::text::{parse, to_text};
use ccr_core::value::{Env, Value};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::Bool),
        (-100i64..100).prop_map(Value::Int),
        (0u32..8).prop_map(|n| Value::Node(RemoteId(n))),
        (0u64..256).prop_map(Value::Mask),
    ]
}

/// Values of every width: each short form's range and its edges, and the
/// long forms past them.
fn arb_wide_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Unit),
        any::<bool>().prop_map(Value::Bool),
        (-300i64..300).prop_map(Value::Int),
        any::<i64>().prop_map(Value::Int),
        (0u32..300).prop_map(|n| Value::Node(RemoteId(n))),
        (0u32..1 << 16).prop_map(|n| Value::Node(RemoteId(n))),
        (0u64..300).prop_map(Value::Mask),
        any::<u64>().prop_map(Value::Mask),
    ]
}

/// The one length `v`'s encoding may have: its shortest form's.
fn shortest_len(v: Value) -> usize {
    match v {
        Value::Unit | Value::Bool(_) => 1,
        Value::Int(i) if i8::try_from(i).is_ok() => 2,
        Value::Node(n) if n.0 < 256 => 2,
        Value::Mask(m) if m < 256 => 2,
        Value::Node(_) => 3,
        Value::Int(_) | Value::Mask(_) => 9,
    }
}

/// The long form of `v` (tag, then the fixed-width payload), whether or
/// not it is the one `encode` writes.
fn long_form(v: Value) -> Option<Vec<u8>> {
    let (tag, payload) = match v {
        Value::Int(i) => (3, i.to_le_bytes().to_vec()),
        Value::Node(n) => (4, (n.0 as u16).to_le_bytes().to_vec()),
        Value::Mask(m) => (5, m.to_le_bytes().to_vec()),
        _ => return None,
    };
    Some([vec![tag], payload].concat())
}

fn arb_expr(nvars: usize) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_value().prop_map(Expr::Const),
        Just(Expr::SelfId),
        (0..nvars.max(1)).prop_map(|v| Expr::Var(VarId(v as u32))),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Eq(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Ne(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Lt(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Mod(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::MaskHas(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::MaskAdd(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::MaskDel(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| Expr::MaskIsEmpty(Box::new(a))),
            inner.clone().prop_map(|a| Expr::MaskFirst(Box::new(a))),
            inner.prop_map(|a| Expr::Not(Box::new(a))),
        ]
    })
}

proptest! {
    /// Evaluation is total modulo `CoreError` (never panics) and
    /// deterministic.
    #[test]
    fn eval_is_total_and_deterministic(
        e in arb_expr(2),
        vals in proptest::collection::vec(arb_value(), 2),
        self_id in proptest::option::of(0u32..4),
    ) {
        let env = Env::new(vals);
        let ctx = EvalCtx { env: &env, self_id: self_id.map(RemoteId) };
        let a = e.eval(ctx);
        let b = e.eval(ctx);
        prop_assert_eq!(a, b);
    }

    /// Successful evaluations are stable under unrelated env growth... and
    /// mask operations agree with a reference set implementation.
    #[test]
    fn mask_ops_match_reference_sets(m in 0u64..256, n in 0u32..8) {
        let env = Env::new(vec![]);
        let ctx = EvalCtx { env: &env, self_id: None };
        let mexp = Expr::mask(m);
        let nexp = Expr::node(RemoteId(n));
        let mut set: std::collections::BTreeSet<u32> =
            (0..8).filter(|i| m & (1 << i) != 0).collect();

        let has = Expr::MaskHas(Box::new(mexp.clone()), Box::new(nexp.clone()));
        prop_assert_eq!(has.eval(ctx).unwrap(), Value::Bool(set.contains(&n)));

        let add = Expr::MaskAdd(Box::new(mexp.clone()), Box::new(nexp.clone()));
        set.insert(n);
        let expect: u64 = set.iter().map(|i| 1u64 << i).sum();
        prop_assert_eq!(add.eval(ctx).unwrap(), Value::Mask(expect));

        set.remove(&n);
        let del = Expr::MaskDel(Box::new(mexp.clone()), Box::new(nexp));
        let expect: u64 = set.iter().map(|i| 1u64 << i).sum();
        prop_assert_eq!(del.eval(ctx).unwrap(), Value::Mask(expect & !(1 << n)));

        let empty = Expr::MaskIsEmpty(Box::new(mexp.clone()));
        prop_assert_eq!(empty.eval(ctx).unwrap(), Value::Bool(m == 0));

        if m != 0 {
            let first = Expr::MaskFirst(Box::new(mexp));
            prop_assert_eq!(
                first.eval(ctx).unwrap(),
                Value::Node(RemoteId(m.trailing_zeros()))
            );
        }
    }

    /// Value encodings are injective.
    #[test]
    fn value_encoding_is_injective(a in arb_value(), b in arb_value()) {
        let (mut ea, mut eb) = (Vec::new(), Vec::new());
        a.encode(&mut ea);
        b.encode(&mut eb);
        prop_assert_eq!(a == b, ea == eb);
    }

    /// `Value::decode` inverts `encode`, reports the exact byte count
    /// consumed, and ignores trailing garbage.
    #[test]
    fn value_decode_roundtrips(
        v in arb_value(),
        suffix in proptest::collection::vec(any::<u8>(), 0..8),
    ) {
        let mut bytes = Vec::new();
        v.encode(&mut bytes);
        let encoded_len = bytes.len();
        bytes.extend_from_slice(&suffix);
        let (decoded, used) = Value::decode(&bytes).expect("well-formed encoding");
        prop_assert_eq!(decoded, v);
        prop_assert_eq!(used, encoded_len);
    }

    /// `Value::decode` is total on arbitrary bytes: it either rejects with
    /// `None` or yields a value whose encoding is exactly the bytes it
    /// read — no byte string but a value's one key decodes.
    #[test]
    fn value_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..24)) {
        if let Some((v, used)) = Value::decode(&bytes) {
            prop_assert!(used <= bytes.len());
            let mut re = Vec::new();
            v.encode(&mut re);
            prop_assert_eq!(&re[..], &bytes[..used], "a second encoding of {:?}", v);
        }
    }

    /// Every value, of every width, round-trips in its shortest form, which
    /// fits `Value::MAX_ENCODED_LEN`.
    #[test]
    fn every_value_round_trips_in_its_shortest_form(
        v in arb_wide_value(),
        suffix in proptest::collection::vec(any::<u8>(), 0..4),
    ) {
        let mut bytes = Vec::new();
        v.encode(&mut bytes);
        prop_assert_eq!(bytes.len(), shortest_len(v), "{:?} is not in its shortest form", v);
        prop_assert!(bytes.len() <= Value::MAX_ENCODED_LEN);
        let len = bytes.len();
        bytes.extend_from_slice(&suffix);
        prop_assert_eq!(Value::decode(&bytes), Some((v, len)));
    }

    /// A long form is the encoding of exactly the values that have no
    /// short one; for every other value it is refused.
    #[test]
    fn long_forms_of_short_values_are_refused(v in arb_wide_value()) {
        if let Some(long) = long_form(v) {
            let expected = (shortest_len(v) == long.len()).then_some((v, long.len()));
            prop_assert_eq!(Value::decode(&long), expected, "{:?}", v);
        }
    }

    /// An environment of any values round-trips within its bound.
    #[test]
    fn env_round_trips_within_its_bound(
        values in proptest::collection::vec(arb_wide_value(), 0..8),
    ) {
        let env = Env::new(values.clone());
        let mut bytes = Vec::new();
        env.encode(&mut bytes);
        prop_assert!(bytes.len() <= env.max_encoded_len());
        let mut back = Env::new(vec![]);
        prop_assert_eq!(back.decode_into(&bytes, values.len()), Some(bytes.len()));
        prop_assert_eq!(back, env);
    }

    /// `add_mod` keeps results in `[0, m)`.
    #[test]
    fn add_mod_stays_in_range(x in -50i64..50, y in -50i64..50, m in 1i64..20) {
        let env = Env::new(vec![]);
        let ctx = EvalCtx { env: &env, self_id: None };
        let e = Expr::add_mod(Expr::int(x), Expr::int(y), m);
        let v = e.eval(ctx).unwrap().as_int().unwrap();
        prop_assert!((0..m).contains(&v));
    }
}

// ---------------------------------------------------------------------------
// Textual round-trip over random specs
// ---------------------------------------------------------------------------

const STATE_NAMES: [&str; 4] = ["A", "B", "C", "D"];
const VAR_NAMES: [&str; 3] = ["x", "y", "z"];
const MSG_NAMES: [&str; 3] = ["alpha", "beta", "gamma"];

fn arb_guard(nvars: usize) -> impl Strategy<Value = Option<Expr>> {
    proptest::option::of(arb_expr(nvars))
}

fn arb_assigns(nvars: usize) -> impl Strategy<Value = Vec<(VarId, Expr)>> {
    proptest::collection::vec(
        ((0..nvars.max(1)).prop_map(|v| VarId(v as u32)), arb_expr(nvars)),
        0..2,
    )
}

/// Generates a structurally well-formed (not necessarily §2.4-valid) spec
/// for exercising the textual round-trip: every reference is in range and
/// names are unique, which is all the round-trip requires.
fn arb_spec() -> impl Strategy<Value = ProtocolSpec> {
    (1..=3usize, 0..=2usize, 0..=2usize, 1..=3usize, 1..=3usize, any::<u64>()).prop_flat_map(
        |(nm, hv, rv, hs, rs, seed)| {
            let home_branches = proptest::collection::vec(
                arb_home_branch(nm, hv, hs),
                proptest::collection::SizeRange::from(1..=2),
            );
            let remote_branches = proptest::collection::vec(
                arb_remote_branch(nm, rv, rs),
                proptest::collection::SizeRange::from(1..=2),
            );
            (
                proptest::collection::vec(home_branches, hs..=hs),
                proptest::collection::vec(remote_branches, rs..=rs),
            )
                .prop_map(move |(hbs, rbs)| assemble_spec(nm, hv, rv, hbs, rbs, seed))
        },
    )
}

fn arb_home_branch(nm: usize, nv: usize, ns: usize) -> impl Strategy<Value = Branch> {
    let action = prop_oneof![
        // recv_any with optional binds
        (0..nm, proptest::option::of(0..nv.max(1)), proptest::option::of(0..nv.max(1))).prop_map(
            move |(m, sb, pb)| CommAction::Recv {
                from: Peer::AnyRemote {
                    bind: if nv == 0 { None } else { sb.map(|v| VarId(v as u32)) }
                },
                msg: ccr_core::ids::MsgType(m as u32),
                bind: if nv == 0 { None } else { pb.map(|v| VarId(v as u32)) },
            }
        ),
        // send to a node expression
        (0..nm, arb_expr(nv), proptest::option::of(arb_expr(nv))).prop_map(|(m, peer, pl)| {
            CommAction::Send {
                to: Peer::Remote(peer),
                msg: ccr_core::ids::MsgType(m as u32),
                payload: pl,
            }
        }),
    ];
    (arb_guard(nv), action, arb_assigns(nv), 0..ns, proptest::option::of("[a-z]{1,4}")).prop_map(
        |(guard, action, assigns, tgt, tag)| Branch {
            guard,
            action,
            assigns,
            target: StateId(tgt as u32),
            tag: tag.map(Into::into),
        },
    )
}

fn arb_remote_branch(nm: usize, nv: usize, ns: usize) -> impl Strategy<Value = Branch> {
    let action = prop_oneof![
        Just(CommAction::Tau),
        (0..nm, proptest::option::of(arb_expr(nv))).prop_map(|(m, pl)| CommAction::Send {
            to: Peer::Home,
            msg: ccr_core::ids::MsgType(m as u32),
            payload: pl,
        }),
        (0..nm, proptest::option::of(0..nv.max(1))).prop_map(move |(m, b)| CommAction::Recv {
            from: Peer::Home,
            msg: ccr_core::ids::MsgType(m as u32),
            bind: if nv == 0 { None } else { b.map(|v| VarId(v as u32)) },
        }),
    ];
    (arb_guard(nv), action, arb_assigns(nv), 0..ns, proptest::option::of("[a-z]{1,4}")).prop_map(
        |(guard, action, assigns, tgt, tag)| Branch {
            guard,
            action,
            assigns,
            target: StateId(tgt as u32),
            tag: tag.map(Into::into),
        },
    )
}

fn assemble_spec(
    nm: usize,
    hv: usize,
    rv: usize,
    home_branches: Vec<Vec<Branch>>,
    remote_branches: Vec<Vec<Branch>>,
    seed: u64,
) -> ProtocolSpec {
    let mut msgs = ccr_core::ids::SymbolTable::new();
    for name in MSG_NAMES.iter().take(nm) {
        msgs.intern(name);
    }
    let mk_vars = |n: usize, seed: u64| -> Vec<VarDecl> {
        (0..n)
            .map(|i| VarDecl {
                name: VAR_NAMES[i].to_string(),
                init: match (seed >> i) % 3 {
                    0 => Value::Int(((seed >> (i * 2)) % 7) as i64),
                    1 => Value::Node(RemoteId(((seed >> i) % 4) as u32)),
                    _ => Value::Mask(seed % 16),
                },
            })
            .collect()
    };
    let mk_states = |branches: Vec<Vec<Branch>>, seed: u64| -> Vec<State> {
        branches
            .into_iter()
            .enumerate()
            .map(|(i, brs)| {
                // Internal states must hold only taus; keep it simple by
                // making everything a communication state except when all
                // branches are taus and the seed says so.
                let all_tau = brs.iter().all(|b| b.action.is_tau());
                let kind = if all_tau && (seed >> i) & 1 == 1 {
                    StateKind::Internal
                } else {
                    StateKind::Communication
                };
                State { name: STATE_NAMES[i].to_string(), kind, branches: brs }
            })
            .collect()
    };
    ProtocolSpec {
        name: "fuzzed".to_string(),
        home: Process {
            name: "home".to_string(),
            states: mk_states(home_branches, seed),
            vars: mk_vars(hv, seed),
            initial: StateId(0),
        },
        remote: Process {
            name: "remote".to_string(),
            states: mk_states(remote_branches, seed.rotate_left(8)),
            vars: mk_vars(rv, seed.rotate_left(16)),
            initial: StateId(0),
        },
        msgs,
    }
}

/// Branch targets generated above may exceed the actual state count when
/// proptest shrinks; clamp them so the rendered text resolves.
fn clamp_targets(spec: &mut ProtocolSpec) {
    let hn = spec.home.states.len() as u32;
    for st in &mut spec.home.states {
        for br in &mut st.branches {
            br.target = StateId(br.target.0 % hn);
        }
    }
    let rn = spec.remote.states.len() as u32;
    for st in &mut spec.remote.states {
        for br in &mut st.branches {
            br.target = StateId(br.target.0 % rn);
        }
    }
}

/// Variable references inside generated expressions may exceed the real
/// var count; rewrite them into range (or to a constant when there are no
/// vars at all).
fn clamp_expr(e: &mut Expr, nvars: usize) {
    match e {
        Expr::Var(v) => {
            if nvars == 0 {
                *e = Expr::int(0);
            } else {
                *v = VarId(v.0 % nvars as u32);
            }
        }
        Expr::Const(_) | Expr::SelfId => {}
        Expr::Not(a) | Expr::MaskIsEmpty(a) | Expr::MaskFirst(a) => clamp_expr(a, nvars),
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
            clamp_expr(a, nvars);
            clamp_expr(b, nvars);
        }
    }
}

fn clamp_vars(spec: &mut ProtocolSpec) {
    for (p, n) in [(&mut spec.home, 0usize), (&mut spec.remote, 0usize)] {
        let n = if n == 0 { p.vars.len() } else { n };
        for st in &mut p.states {
            for br in &mut st.branches {
                if let Some(g) = &mut br.guard {
                    clamp_expr(g, n);
                }
                match &mut br.action {
                    CommAction::Send { to, payload, .. } => {
                        if let Peer::Remote(e) = to {
                            clamp_expr(e, n);
                        }
                        if let Some(e) = payload {
                            clamp_expr(e, n);
                        }
                    }
                    CommAction::Recv { from, bind, .. } => {
                        if let Peer::AnyRemote { bind: sb } = from {
                            if let Some(v) = sb {
                                if n == 0 {
                                    *sb = None;
                                } else {
                                    *v = VarId(v.0 % n as u32);
                                }
                            }
                        }
                        if let Some(v) = bind {
                            if n == 0 {
                                *bind = None;
                            } else {
                                *v = VarId(v.0 % n as u32);
                            }
                        }
                    }
                    CommAction::Tau => {}
                }
                for (v, e) in &mut br.assigns {
                    if n == 0 {
                        br.guard = br.guard.take(); // no-op; assigns removed below
                    } else {
                        *v = VarId(v.0 % n as u32);
                    }
                    clamp_expr(e, n);
                }
                if n == 0 {
                    br.assigns.clear();
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    /// Any structurally well-formed spec round-trips exactly through the
    /// textual front end.
    #[test]
    fn text_round_trip(mut spec in arb_spec()) {
        clamp_targets(&mut spec);
        clamp_vars(&mut spec);
        let text = to_text(&spec);
        let parsed = parse(&text)
            .unwrap_or_else(|e| panic!("parse failed: {e}\n---\n{text}"));
        prop_assert_eq!(parsed, spec, "\n---\n{}", text);
    }
}

#[test]
fn builder_spec_round_trips_too() {
    // Sanity: a builder-made spec passes through the same machinery.
    let mut b = ProtocolBuilder::new("sanity");
    let m = b.msg("alpha");
    let h = b.home_state("A");
    b.home(h).recv_any(m).goto(h);
    let r = b.remote_state("A");
    b.remote(r).send(m).goto(r);
    let spec = b.finish().unwrap();
    assert_eq!(parse(&to_text(&spec)).unwrap(), spec);
}
