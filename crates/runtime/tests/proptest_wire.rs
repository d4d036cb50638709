//! Property-based tests for the wire codec and the state layouts built on
//! it: `Wire::decode` must invert `Wire::encode` exactly and must never
//! panic on arbitrary byte soup — it sits on the boundary where bytes from
//! a state store or an external tool re-enter typed code — and a state of
//! either executor, with ids and values of every width, must round-trip
//! through exactly one key that fits the executor's `max_encoded_len`.

use ccr_core::builder::ProtocolBuilder;
use ccr_core::encode::{Identity, Sink, SliceSink};
use ccr_core::expr::Expr;
use ccr_core::ids::{MsgType, RemoteId, StateId};
use ccr_core::inline::InlineVec;
use ccr_core::process::ProtocolSpec;
use ccr_core::refine::{refine, RefineOptions};
use ccr_core::value::{Env, Value};
use ccr_runtime::asynch::{
    AsyncConfig, AsyncState, AsyncSystem, BufEntry, HomePhase, HomeState, RemotePhase, RemoteState,
};
use ccr_runtime::rendezvous::{Local, RendezvousSystem, RvState};
use ccr_runtime::wire::{Link, Wire};
use ccr_runtime::{RuntimeError, TransitionSystem};
use proptest::prelude::*;

/// Values of every width: each short form's range and the long forms.
fn arb_value() -> impl Strategy<Value = Value> {
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

fn arb_wire() -> impl Strategy<Value = Wire> {
    prop_oneof![
        (0u32..200, proptest::option::of(arb_value()))
            .prop_map(|(m, val)| Wire::Req { msg: MsgType(m), val }),
        Just(Wire::Ack),
        Just(Wire::Nack),
    ]
}

proptest! {
    /// Decode inverts encode, reports the exact consumed length, and is
    /// indifferent to trailing bytes (messages are read from the front of
    /// a concatenated stream).
    #[test]
    fn wire_decode_roundtrips(
        w in arb_wire(),
        suffix in proptest::collection::vec(any::<u8>(), 0..12),
    ) {
        let mut bytes = Vec::new();
        w.encode(&mut bytes);
        let encoded_len = bytes.len();
        bytes.extend_from_slice(&suffix);
        let (decoded, used) = Wire::decode(&bytes).expect("well-formed encoding");
        prop_assert_eq!(decoded, w);
        prop_assert_eq!(used, encoded_len);
    }

    /// Arbitrary bytes either decode to a re-encodable message or fail
    /// with a structured error whose offset lies inside the input — never
    /// a panic, never an out-of-range offset.
    #[test]
    fn wire_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..32)) {
        match Wire::decode(&bytes) {
            Ok((w, used)) => {
                prop_assert!(used <= bytes.len());
                let mut re = Vec::new();
                w.encode(&mut re);
                prop_assert_eq!(&re[..], &bytes[..used], "a second encoding of {:?}", w);
            }
            Err(RuntimeError::Decode { offset, .. }) => {
                prop_assert!(offset <= bytes.len());
            }
            Err(e) => prop_assert!(false, "unexpected error kind: {e}"),
        }
    }

    /// A whole link queue encodes as a parseable stream: length byte, then
    /// back-to-back wire messages.
    #[test]
    fn link_encoding_is_a_parseable_stream(
        wires in proptest::collection::vec(arb_wire(), 0..6),
    ) {
        let mut link = ccr_runtime::wire::Link::new();
        for w in &wires {
            link.push(*w);
        }
        let mut bytes = Vec::new();
        link.encode(&mut bytes);
        prop_assert_eq!(bytes[0] as usize, wires.len());
        let mut at = 1;
        for w in &wires {
            let (decoded, used) = Wire::decode(&bytes[at..]).expect("stream element");
            prop_assert_eq!(&decoded, w);
            at += used;
        }
        prop_assert_eq!(at, bytes.len());
        prop_assert!(bytes.len() <= Link::max_encoded_len(wires.len()));
        let mut back = Link::new();
        prop_assert_eq!(back.decode_into(&bytes).ok(), Some(bytes.len()));
        prop_assert_eq!(back, link);
    }

    /// Any asynchronous state — every field drawn, ids below and above
    /// 128, values of every width, buffers and links up to their bounds —
    /// encodes within `max_encoded_len`, the slot path writes the same
    /// bytes, and they decode back to the state.
    #[test]
    fn async_states_round_trip_within_the_bound(
        n in 1u32..=3,
        words in proptest::collection::vec(any::<u64>(), 1..64),
        values in proptest::collection::vec(arb_value(), 1..16),
        wires in proptest::collection::vec(arb_wire(), 1..8),
    ) {
        let refined = refine(&spec(), &RefineOptions::default()).expect("the spec refines");
        let sys = AsyncSystem::new(&refined, n, AsyncConfig::default());
        let state = arbitrary_async(&sys, &mut Draws::new(&words, &values, &wires));
        let bytes = round_trip(&sys, &state);
        let mut back = sys.initial();
        prop_assert!(sys.decode_into(&bytes, &mut back));
        prop_assert_eq!(back, state);
    }

    /// The same for rendezvous states.
    #[test]
    fn rendezvous_states_round_trip_within_the_bound(
        n in 1u32..=4,
        words in proptest::collection::vec(any::<u64>(), 1..16),
        values in proptest::collection::vec(arb_value(), 1..16),
    ) {
        let spec = spec();
        let sys = RendezvousSystem::new(&spec, n);
        let mut draws = Draws::new(&words, &values, &[Wire::Ack]);
        let mut local = |vars: usize| Local { state: StateId(draws.id()), env: draws.env(vars) };
        let home = local(spec.home.vars.len());
        let remotes = (0..n).map(|_| local(spec.remote.vars.len())).collect();
        let state = RvState { home, remotes };
        let bytes = round_trip(&sys, &state);
        let mut back = sys.initial();
        prop_assert!(sys.decode_into(&bytes, &mut back));
        prop_assert_eq!(back, state);
    }

    /// A key whose ids are written one byte longer than their canonical
    /// form — ids are in every key: the home's phase has one — is
    /// refused, at either level.
    #[test]
    fn keys_with_longer_ids_are_refused(
        n in 1u32..=3,
        words in proptest::collection::vec(any::<u64>(), 1..64),
        values in proptest::collection::vec(arb_value(), 1..16),
        wires in proptest::collection::vec(arb_wire(), 1..8),
    ) {
        let refined = refine(&spec(), &RefineOptions::default()).expect("the spec refines");
        let sys = AsyncSystem::new(&refined, n, AsyncConfig::default());
        let state = arbitrary_async(&sys, &mut Draws::new(&words, &values, &wires));
        let mut longer = Overlong(Vec::new());
        sys.encode_renamed(&state, &Identity, &mut longer);
        prop_assert!(!sys.decode_into(&longer.0, &mut sys.initial()));

        let rv = RendezvousSystem::new(&refined.spec, n);
        let mut longer = Overlong(Vec::new());
        rv.encode_renamed(&rv.initial(), &Identity, &mut longer);
        prop_assert!(!rv.decode_into(&longer.0, &mut rv.initial()));
    }

    /// One key per state: bytes that decode as a state at all are that
    /// state's encoding. (A changed byte that still parses must re-encode
    /// to the changed bytes, so no state has a second, longer key.)
    #[test]
    fn a_state_has_one_key(
        words in proptest::collection::vec(any::<u64>(), 1..64),
        values in proptest::collection::vec(arb_value(), 1..16),
        wires in proptest::collection::vec(arb_wire(), 1..8),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let refined = refine(&spec(), &RefineOptions::default()).expect("the spec refines");
        let sys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
        let state = arbitrary_async(&sys, &mut Draws::new(&words, &values, &wires));
        let mut bytes = sys.encoded(&state);
        let at = at % bytes.len();
        bytes[at] = byte;
        let mut back = sys.initial();
        if sys.decode_into(&bytes, &mut back) {
            prop_assert_eq!(sys.encoded(&back), bytes);
        }
    }
}

/// A spec with a node, a mask and an integer at the home and an integer
/// at each remote, so every value slot has somewhere to live.
fn spec() -> ProtocolSpec {
    let mut b = ProtocolBuilder::new("widths");
    let req = b.msg("req");
    let gr = b.msg("gr");
    let o = b.home_var("o", Value::Node(RemoteId(0)));
    b.home_var("s", Value::Mask(0));
    b.home_var("d", Value::Int(0));
    b.remote_var("x", Value::Int(0));
    let f = b.home_state("F");
    let g = b.home_state("G");
    b.home(f).recv_any(req).bind_sender(o).goto(g);
    b.home(g).send_to(Expr::Var(o), gr).goto(f);
    let i = b.remote_state("I");
    let w = b.remote_state("W");
    b.remote(i).send(req).goto(w);
    b.remote(w).recv(gr).goto(i);
    b.finish().unwrap()
}

/// A sink that writes every id one byte longer than `Sink::put_id`
/// does: the same digits with the last one flagged, then a zero digit.
struct Overlong(Vec<u8>);

impl Sink for Overlong {
    fn put(&mut self, byte: u8) {
        self.0.push(byte);
    }

    fn put_all(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    fn put_id(&mut self, mut id: u32) {
        while id >= 0x80 {
            self.put(id as u8 | 0x80);
            id >>= 7;
        }
        self.put(id as u8 | 0x80);
        self.put(0);
    }
}

/// Draws the fields of an arbitrary state from proptest's random words,
/// values and wires, cycling through each.
struct Draws<'d> {
    words: std::iter::Cycle<std::slice::Iter<'d, u64>>,
    values: std::iter::Cycle<std::slice::Iter<'d, Value>>,
    wires: std::iter::Cycle<std::slice::Iter<'d, Wire>>,
}

impl<'d> Draws<'d> {
    fn new(words: &'d [u64], values: &'d [Value], wires: &'d [Wire]) -> Self {
        Draws {
            words: words.iter().cycle(),
            values: values.iter().cycle(),
            wires: wires.iter().cycle(),
        }
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.words.next().expect("at least one word") % bound
    }

    /// A state or remote id: one byte below 128 or a longer form.
    fn id(&mut self) -> u32 {
        let bound = if self.below(2) == 0 { 128 } else { 1 << 16 };
        self.below(bound) as u32
    }

    fn byte(&mut self) -> u32 {
        self.below(256) as u32
    }

    fn value(&mut self) -> Value {
        *self.values.next().expect("at least one value")
    }

    fn payload(&mut self) -> Option<Value> {
        (self.below(2) == 0).then(|| self.value())
    }

    fn env(&mut self, vars: usize) -> Env {
        (0..vars).map(|_| self.value()).collect()
    }

    fn link(&mut self, capacity: usize) -> Link {
        let mut link = Link::new();
        for _ in 0..self.below(capacity as u64 + 1) {
            link.push(*self.wires.next().expect("at least one wire"));
        }
        link
    }
}

/// An arbitrary state of `sys`, each bounded field within its bound.
fn arbitrary_async(sys: &AsyncSystem<'_>, d: &mut Draws<'_>) -> AsyncState {
    let config = sys.config();
    let home_phase = match d.below(2) {
        0 => HomePhase::At(StateId(d.id())),
        _ => HomePhase::Awaiting {
            state: StateId(d.id()),
            branch: d.byte(),
            target: RemoteId(d.id()),
        },
    };
    let buf_cap = config.home_buffer + config.unacked_allowance;
    let mut buf = InlineVec::new();
    for _ in 0..d.below(buf_cap as u64 + 1) {
        buf.push(BufEntry { from: RemoteId(d.id()), msg: MsgType(d.byte()), val: d.payload() });
    }
    let home = HomeState {
        phase: home_phase,
        env: d.env(sys.spec().home.vars.len()),
        buf,
        cursor: d.byte(),
    };
    let remotes = (0..sys.n())
        .map(|_| RemoteState {
            phase: match d.below(2) {
                0 => RemotePhase::At(StateId(d.id())),
                _ => RemotePhase::Awaiting { state: StateId(d.id()), branch: d.byte() },
            },
            env: d.env(sys.spec().remote.vars.len()),
            buf: (d.below(2) == 0).then(|| (MsgType(d.byte()), d.payload())),
            to_home: d.link(config.link_capacity),
            to_remote: d.link(config.link_capacity),
        })
        .collect();
    AsyncState { home, remotes }
}

/// Encodes `s` both ways, checks they agree within `max_encoded_len`, and
/// returns the key.
fn round_trip<T: TransitionSystem>(sys: &T, s: &T::State) -> Vec<u8> {
    let bytes = sys.encoded(s);
    let bound = sys.max_encoded_len().expect("both executors bound their keys");
    assert!(bytes.len() <= bound, "{} bytes past the bound of {bound}", bytes.len());
    let mut slot = vec![0xAA; bound];
    let mut sink = SliceSink::new(&mut slot);
    sys.encode_into(s, None, &mut sink);
    let written = sink.written();
    assert_eq!(&slot[..written], &bytes[..], "slot path vs Vec path");
    bytes
}
