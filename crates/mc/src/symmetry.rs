//! Symmetry reduction over the identical-remotes permutation group.
//!
//! Every protocol in the paper runs on a star topology: one home node and
//! `N` *interchangeable* remotes. Renaming the remotes by any permutation
//! `π` maps reachable states to reachable states and violations to
//! violations, so the reachable space splits into orbits of up to `N!`
//! equivalent states — and it suffices to explore one representative per
//! orbit. This module picks that representative *canonically*: the orbit
//! member with the lexicographically least [`TransitionSystem::encode`]
//! bytes.
//!
//! The [`Reduced`] wrapper plugs the reduction in under every check at
//! once. The sweep (`search::drive`, whose store indices are the
//! progress checker's CSR ids) identifies states solely through their
//! keys; `Reduced` delegates everything but the writer,
//! [`TransitionSystem::encode_into`], which it redirects to the canonical
//! representative's bytes — on whichever thread encodes.
//! Frontier states stay *concrete* (the first-discovered member of each
//! orbit), and recorded labels are real transitions fired from those
//! concrete states — so counterexample trails are genuine executions that
//! replay on the unreduced system, with no witness-permutation
//! bookkeeping.
//!
//! The representative is found by *sorting*: each remote gets an
//! id-independent signature (its local slice with `self`/`other` node
//! references abstracted), and the candidates are exactly the permutations
//! that sort the signature sequence. Unless some remote holds *another*
//! remote's id, remotes with equal signatures are interchangeable
//! outright, so canonicalizing is one sort and one encode, written from
//! the state under the renaming — no permuted state is built, nothing is
//! allocated. Otherwise the `Π gᵢ!` orderings of the equal-signature
//! groups are encoded and compared. See [`Symmetric`] for the contract and
//! `docs/symmetry.md` for the lemma, the soundness argument and the
//! fault-mode interaction (scripted per-link faults break symmetry;
//! `--symmetry auto` falls back to `off`).

use ccr_core::encode::{Identity, Perm, Renaming, Segment, Sink};
use ccr_core::ids::{MsgType, ProcessId, RemoteId};
use ccr_core::process::{CommAction, Peer, Process, ProtocolSpec};
use ccr_core::value::{Env, Value};
use ccr_metrics::Registry;
use ccr_runtime::asynch::{
    AsyncState, AsyncSystem, BufEntry, HomePhase, HomeState, RemotePhase, RemoteState,
};
use ccr_runtime::rendezvous::{Local, RendezvousSystem, RvState};
use ccr_runtime::wire::{Link, Wire};
use ccr_runtime::{Label, Origin, TransitionSystem, Written};
use std::cell::{Cell, RefCell};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// A transition system whose state carries `remote_count()` interchangeable
/// per-remote components, acted on by the symmetric group: `permute`
/// renames the remotes, `encode_renamed` writes the renamed state's bytes
/// without building it, and `signature` produces an id-independent
/// discriminator for one remote's slice.
///
/// The contract both implementations uphold (and the proptests check):
///
/// * **Action**: `permute(s, π)` relabels every remote-indexed component
///   and every remote-valued datum (`Value::Node`, `Value::Mask` bits,
///   buffer senders, `Awaiting` targets, link endpoints) by `π`, where
///   `π[i] = j` sends old remote `i` to new slot `j`. It is a group
///   action: permuting by `π` then `σ` equals permuting by `σ∘π`.
/// * **One layout**: `encode_renamed(s, π)` writes exactly
///   `encode(permute(s, π))`.
/// * **Equivariance**: `signature(permute(s, π), π[i]) == signature(s, i)`
///   — the signature never mentions a concrete remote id, only *self* /
///   *other* relationships, so it is constant along the orbit.
/// * **Exactness**: `signature` returns `true` unless the abstraction
///   forgot *which* other remote a value owned by remote `i` names. If it
///   returns `true` for every remote of `s`, any two remotes with equal
///   signatures can be swapped without changing `s`.
pub trait Symmetric: TransitionSystem {
    /// Number of remote processes in every state of this system.
    fn remote_count(&self) -> usize;

    /// Whether the remotes really are interchangeable: true iff every
    /// transition expression of the underlying protocol is equivariant
    /// (see [`spec_permutable`]). When this is false, permutations are
    /// *not* automorphisms of the transition graph and [`Reduced`]
    /// degrades to the identity — reduction of an asymmetric protocol
    /// would merge states with genuinely different futures.
    fn permutable(&self) -> bool;

    /// Applies the remote permutation `perm` (`perm[i]` = new index of old
    /// remote `i`) to `s`, producing the relabelled sibling state.
    fn permute(&self, s: &Self::State, perm: &[usize]) -> Self::State;

    /// Appends to `out` the first segment of the encoding of `s` renamed
    /// by `ren`, the home's, and ends it.
    fn encode_home(&self, s: &Self::State, ren: &impl Renaming, out: &mut impl Sink);

    /// Appends to `out` remote `i`'s segment of the encoding of `s`
    /// renamed by `ren` — the one it occupies in its new slot — and ends
    /// it. It depends on remote `i`'s slice alone, and on `ren` only
    /// through the remote ids that slice holds.
    fn encode_remote(&self, s: &Self::State, i: usize, ren: &impl Renaming, out: &mut impl Sink);

    /// Appends to `out` the encoding of `permute(s, ren)`, written
    /// straight from `s`: the home's segment, then the remotes' in their
    /// new order.
    fn encode_renamed(&self, s: &Self::State, ren: &impl Renaming, out: &mut impl Sink);

    /// Appends the part of remote `i`'s signature that reads its own
    /// slice of `s` to `out` (which is *not* cleared), and reports whether
    /// it is exact.
    fn remote_signature(&self, s: &Self::State, i: usize, out: &mut Vec<u8>) -> bool;

    /// Appends the part of remote `i`'s signature that reads the home's
    /// slice of `s` — how the home refers to `i` — and reports whether it
    /// is exact.
    fn home_signature(&self, s: &Self::State, i: usize, out: &mut Vec<u8>) -> bool;

    /// Appends an id-independent signature of remote `i` in `s` to `out`
    /// (which is *not* cleared) and reports whether it is exact: its
    /// [own part](Symmetric::remote_signature), then its
    /// [home part](Symmetric::home_signature). Equal signatures mark
    /// remotes that are possibly — if every signature of `s` is exact,
    /// certainly — interchangeable in `s`.
    fn signature(&self, s: &Self::State, i: usize, out: &mut Vec<u8>) -> bool {
        let own = self.remote_signature(s, i, out);
        self.home_signature(s, i, out) && own
    }
}

/// True when every branch of `p` (guard, peer designator, payload,
/// assignment right-hand sides) is equivariant under remote renaming.
fn process_permutable(p: &Process) -> bool {
    p.states.iter().flat_map(|st| &st.branches).all(|br| {
        let action_ok = match &br.action {
            CommAction::Send { to, payload, .. } => {
                let peer_ok = match to {
                    Peer::Remote(e) => e.is_equivariant(),
                    Peer::Home | Peer::AnyRemote { .. } => true,
                };
                peer_ok && payload.as_ref().is_none_or(|e| e.is_equivariant())
            }
            CommAction::Recv { from, .. } => match from {
                Peer::Remote(e) => e.is_equivariant(),
                Peer::Home | Peer::AnyRemote { .. } => true,
            },
            CommAction::Tau => true,
        };
        action_ok
            && br.guard.as_ref().is_none_or(|e| e.is_equivariant())
            && br.assigns.iter().all(|(_, e)| e.is_equivariant())
    })
}

/// The scalarset check: true when the spec's remotes are genuinely
/// interchangeable, i.e. no transition expression of either process
/// distinguishes remotes by their *number* — no `first(mask)` (which
/// picks the lowest-numbered member) and no literal naming a specific
/// node or non-empty node set. Initial variable values are exempt: they
/// fix one concrete initial state but do not shape the transition
/// *relation*, which is all an automorphism cares about.
///
/// Of the shipped specs, `invalidate.ccp` and `update.ccp` use
/// `first(...)` to walk their sharer sets in index order and are
/// therefore not reducible; the migratory family and `token.ccp` are.
pub fn spec_permutable(spec: &ProtocolSpec) -> bool {
    process_permutable(&spec.home) && process_permutable(&spec.remote)
}

/// Relabels every slot of an environment under a remote permutation.
fn permute_env(env: &Env, perm: &[usize]) -> Env {
    env.values().map(|v| v.renamed(perm)).collect()
}

/// Id-independent signature bytes of a value *owned by* remote `i`: node
/// references collapse to self/other markers and masks to (self-bit,
/// other-popcount), so the bytes are identical for every remote whose
/// slice looks the same up to renaming. Returns whether the bytes are
/// exact: only an *other* marker and a non-zero other-popcount forget
/// something (which other remote).
fn signature_value(v: Value, i: usize, n: usize, out: &mut Vec<u8>) -> bool {
    match v {
        Value::Node(r) if r.index() < n => {
            let own = r.index() == i;
            out.push(4);
            out.push(if own { 0xFF } else { 0xFE });
            own
        }
        Value::Mask(m) => {
            let low = Value::remote_bits(n);
            let others = ((m & low) & !(1u64 << i)).count_ones();
            out.push(5);
            out.push(((m >> i) & 1) as u8);
            out.push(others as u8);
            out.extend_from_slice(&(m & !low).to_le_bytes());
            others == 0
        }
        other => {
            other.encode(out);
            true
        }
    }
}

/// [`signature_value`] of an optional payload, behind a presence flag.
fn signature_payload(val: Option<Value>, i: usize, n: usize, out: &mut Vec<u8>) -> bool {
    out.push(val.is_some() as u8);
    val.is_none_or(|v| signature_value(v, i, n, out))
}

/// Signature bytes of how a *home-owned* value relates to remote `i`:
/// does it name `i`, another remote, or no remote at all. Pure relation,
/// no identity — equivariant by construction.
fn signature_home_ref(v: Value, i: usize, n: usize, out: &mut Vec<u8>) {
    match v {
        Value::Node(r) if r.index() < n => out.push(if r.index() == i { 1 } else { 2 }),
        Value::Mask(m) => {
            out.push(3);
            out.push(((m >> i) & 1) as u8);
        }
        _ => out.push(0),
    }
}

impl Symmetric for RendezvousSystem<'_> {
    fn remote_count(&self) -> usize {
        self.n() as usize
    }

    fn permutable(&self) -> bool {
        spec_permutable(self.spec())
    }

    fn permute(&self, s: &RvState, perm: &[usize]) -> RvState {
        let mut remotes = s.remotes.clone();
        for (i, r) in s.remotes.iter().enumerate() {
            remotes[perm[i]] = Local { state: r.state, env: permute_env(&r.env, perm) };
        }
        RvState {
            home: Local { state: s.home.state, env: permute_env(&s.home.env, perm) },
            remotes,
        }
    }

    #[inline]
    fn encode_renamed(&self, s: &RvState, ren: &impl Renaming, out: &mut impl Sink) {
        RendezvousSystem::encode_renamed(self, s, ren, out);
    }

    #[inline]
    fn encode_home(&self, s: &RvState, ren: &impl Renaming, out: &mut impl Sink) {
        RendezvousSystem::encode_local_renamed(&s.home, Segment::Home, ren, out);
    }

    #[inline]
    fn encode_remote(&self, s: &RvState, i: usize, ren: &impl Renaming, out: &mut impl Sink) {
        RendezvousSystem::encode_local_renamed(&s.remotes[i], Segment::Remote, ren, out);
    }

    fn remote_signature(&self, s: &RvState, i: usize, out: &mut Vec<u8>) -> bool {
        let n = s.remotes.len();
        let r = &s.remotes[i];
        let mut exact = true;
        out.extend_from_slice(&(r.state.0 as u16).to_le_bytes());
        for v in r.env.values() {
            exact &= signature_value(v, i, n, out);
        }
        exact
    }

    fn home_signature(&self, s: &RvState, i: usize, out: &mut Vec<u8>) -> bool {
        let n = s.remotes.len();
        for v in s.home.env.values() {
            signature_home_ref(v, i, n, out);
        }
        true
    }
}

impl Symmetric for AsyncSystem<'_> {
    fn remote_count(&self) -> usize {
        self.n() as usize
    }

    fn permutable(&self) -> bool {
        spec_permutable(self.spec())
    }

    fn permute(&self, s: &AsyncState, perm: &[usize]) -> AsyncState {
        let node = |r: RemoteId| RemoteId(perm[r.index()] as u32);
        let mut remotes = s.remotes.clone();
        for (i, r) in s.remotes.iter().enumerate() {
            remotes[perm[i]] = RemoteState {
                phase: r.phase,
                env: permute_env(&r.env, perm),
                buf: r.buf.map(|(m, v)| (m, v.map(|v| v.renamed(perm)))),
                to_home: permute_link(&r.to_home, perm),
                to_remote: permute_link(&r.to_remote, perm),
            };
        }
        AsyncState {
            home: HomeState {
                phase: match s.home.phase {
                    HomePhase::Awaiting { state, branch, target } => {
                        HomePhase::Awaiting { state, branch, target: node(target) }
                    }
                    at => at,
                },
                env: permute_env(&s.home.env, perm),
                // FIFO order is semantic (the C1 scan and victim-nack pick
                // by position), so entries keep their slots; only senders
                // and payloads are renamed.
                buf: s
                    .home
                    .buf
                    .iter()
                    .map(|e| BufEntry {
                        from: node(e.from),
                        val: e.val.map(|v| v.renamed(perm)),
                        ..*e
                    })
                    .collect(),
                cursor: s.home.cursor,
            },
            remotes,
        }
    }

    #[inline]
    fn encode_renamed(&self, s: &AsyncState, ren: &impl Renaming, out: &mut impl Sink) {
        AsyncSystem::encode_renamed(self, s, ren, out);
    }

    #[inline]
    fn encode_home(&self, s: &AsyncState, ren: &impl Renaming, out: &mut impl Sink) {
        self.encode_home_renamed(s, ren, out);
    }

    #[inline]
    fn encode_remote(&self, s: &AsyncState, i: usize, ren: &impl Renaming, out: &mut impl Sink) {
        self.encode_remote_renamed(&s.remotes[i], ren, out);
    }

    /// Remote `i`'s phase, variables, parked message and two links.
    fn remote_signature(&self, s: &AsyncState, i: usize, out: &mut Vec<u8>) -> bool {
        let n = s.remotes.len();
        let r = &s.remotes[i];
        let mut exact = true;
        match r.phase {
            RemotePhase::At(st) => {
                out.push(0);
                out.extend_from_slice(&(st.0 as u16).to_le_bytes());
            }
            RemotePhase::Awaiting { state, branch } => {
                out.push(1);
                out.extend_from_slice(&(state.0 as u16).to_le_bytes());
                out.push(branch as u8);
            }
        }
        for v in r.env.values() {
            exact &= signature_value(v, i, n, out);
        }
        match r.buf {
            Some((m, v)) => {
                out.push(1);
                out.push(m.0 as u8);
                exact &= signature_payload(v, i, n, out);
            }
            None => out.push(0),
        }
        for link in [&r.to_home, &r.to_remote] {
            out.push(link.len() as u8);
            for w in link.iter() {
                match w {
                    Wire::Req { msg, val } => {
                        out.push(1);
                        out.push(msg.0 as u8);
                        exact &= signature_payload(*val, i, n, out);
                    }
                    Wire::Ack => out.push(2),
                    Wire::Nack => out.push(3),
                }
            }
        }
        exact
    }

    /// Whether the home awaits remote `i`, the home-buffer entries `i`
    /// parked, and how the home's variables refer to `i`.
    fn home_signature(&self, s: &AsyncState, i: usize, out: &mut Vec<u8>) -> bool {
        let n = s.remotes.len();
        let mut exact = true;
        if let HomePhase::Awaiting { target, .. } = s.home.phase {
            out.push(if target.index() == i { 1 } else { 2 });
        } else {
            out.push(0);
        }
        for (pos, e) in s.home.buf.iter().enumerate() {
            if e.from.index() == i {
                out.push(pos as u8);
                out.push(e.msg.0 as u8);
                exact &= signature_payload(e.val, i, n, out);
            }
        }
        out.push(0xFD);
        for v in s.home.env.values() {
            signature_home_ref(v, i, n, out);
        }
        exact
    }
}

/// Rebuilds a link with every payload relabelled under `perm` (FIFO order
/// preserved — in-order delivery is semantic).
fn permute_link(link: &Link, perm: &[usize]) -> Link {
    let mut out = Link::new();
    for w in link.iter() {
        out.push(match w {
            Wire::Req { msg, val } => Wire::Req { msg: *msg, val: val.map(|v| v.renamed(perm)) },
            other => *other,
        });
    }
    out
}

/// What one canonicalization observed, for the orbit metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrbitSample {
    /// Sorting permutations whose encodings were compared: 1 when the
    /// signatures force the order or are all exact, `Π gᵢ!` over the
    /// equal-signature groups otherwise (up to `N!`).
    pub candidates: u64,
    /// Whether the canonical encoding differs from the state's own — i.e.
    /// the state was not already its orbit representative.
    pub moved: bool,
}

/// Walks every permutation of `order` that keeps each equal-signature
/// group within its positions (groups are contiguous after the sort;
/// `group_end[pos]` is one past the group containing `pos`), handing `f`
/// the old-index → new-index `perm` of each ordering, and the ordering.
fn for_each_sorting_perm(
    order: &mut [usize],
    group_end: &[usize],
    pos: usize,
    perm: &mut [usize],
    f: &mut impl FnMut(&[usize], &[usize]),
) {
    if pos == order.len() {
        invert(order, perm);
        f(perm, order);
        return;
    }
    for k in pos..group_end[pos] {
        order.swap(pos, k);
        for_each_sorting_perm(order, group_end, pos + 1, perm, f);
        order.swap(pos, k);
    }
}

/// Fills `perm` with the inverse of `order`: `perm[order[slot]] = slot`.
fn invert(order: &[usize], perm: &mut [usize]) {
    for (slot, &old) in order.iter().enumerate() {
        perm[old] = slot;
    }
}

/// Working memory of one canonicalization, kept per thread and reused so
/// that the steady state allocates nothing: the buffers stop growing at
/// the system's size (a few hundred bytes), and `group_end` to `best`
/// stay empty unless a state takes the inexact fallback.
#[derive(Default)]
struct Scratch {
    /// The remotes' signatures back to back: remote `i`'s own part ends
    /// at `splits[i]`, its home part at `ends[i]`.
    sigs: Vec<u8>,
    splits: Vec<usize>,
    ends: Vec<usize>,
    /// Whether every signature in `sigs` is exact.
    exact: bool,
    /// After [`Scratch::solve`], the winning sorting permutation:
    /// `order[slot]` is the remote placed in `slot`, `perm` its inverse.
    order: Vec<usize>,
    perm: Vec<usize>,
    group_end: Vec<usize>,
    best_order: Vec<usize>,
    cand: Vec<u8>,
    /// The winner's bytes, when more than one candidate was compared.
    best: Vec<u8>,
    /// The orbit of the state whose successors are being encoded.
    parent: Parent,
}

/// An expanded state's orbit, solved once for all of its successors
/// ([`Scratch::derive`]).
#[derive(Default)]
struct Parent {
    /// The expansion it was solved for ([`Origin::parent_id`]).
    id: Option<u64>,
    /// Whether its signatures are exact; if they are, they and its
    /// remotes' stable order by them.
    exact: bool,
    sigs: Vec<u8>,
    splits: Vec<usize>,
    ends: Vec<usize>,
    order: Vec<usize>,
    /// Its remotes' segments that no renaming changes, back to back:
    /// remote `i`'s is `bytes[a..b]` where `segs[i] == Some((a, b))`, and
    /// `None` where its slice holds a remote id.
    bytes: Vec<u8>,
    segs: Vec<Option<(usize, usize)>>,
    /// The slot each remote fills in its canonical key: the inverse of
    /// `order`.
    slots: Vec<usize>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Remote `i`'s signature among signatures laid out back to back, the
/// `k`-th ending at `ends[k]`.
fn sig_of<'a>(sigs: &'a [u8], ends: &[usize], i: usize) -> &'a [u8] {
    &sigs[if i == 0 { 0 } else { ends[i - 1] }..ends[i]]
}

/// Fills `order` with the remotes sorted by signature, ties broken by
/// index: the stable order, without the merge buffer a stable sort may
/// allocate.
fn sort_by_signature(order: &mut Vec<usize>, sigs: &[u8], ends: &[usize]) {
    order.clear();
    order.extend(0..ends.len());
    order.sort_unstable_by(|&a, &b| {
        sig_of(sigs, ends, a).cmp(sig_of(sigs, ends, b)).then(a.cmp(&b))
    });
}

/// A renaming that notes whether an encoder asked it about a remote: a
/// segment written without asking holds no remote id, so every renaming
/// writes it alike.
struct Noting<'a, R> {
    ren: &'a R,
    asked: Cell<bool>,
}

impl<R: Renaming> Renaming for Noting<'_, R> {
    fn remote(&self, r: RemoteId) -> RemoteId {
        self.asked.set(true);
        self.ren.remote(r)
    }

    fn value(&self, v: Value) -> Value {
        if matches!(v, Value::Node(_) | Value::Mask(_)) {
            self.asked.set(true);
        }
        self.ren.value(v)
    }

    fn source(&self, slot: usize) -> usize {
        self.ren.source(slot)
    }
}

impl Scratch {
    /// Signs every remote of `s` into `sigs`, `splits` and `ends`, and
    /// records in `exact` whether all signatures are.
    fn sign<T: Symmetric>(&mut self, sys: &T, s: &T::State) {
        let Scratch { sigs, splits, ends, .. } = self;
        sigs.clear();
        splits.clear();
        ends.clear();
        let mut exact = true;
        for i in 0..sys.remote_count() {
            exact &= sys.remote_signature(s, i, sigs);
            splits.push(sigs.len());
            exact &= sys.home_signature(s, i, sigs);
            ends.push(sigs.len());
        }
        self.exact = exact;
    }

    /// Finds the sorting permutation of `s`'s remotes whose renamed
    /// encoding is least and leaves it in `order`/`perm`.
    ///
    /// The stable sort by signature is that permutation outright when no
    /// two signatures are equal and when all are exact: then remotes with
    /// equal signatures swap without changing `s`, so every sorting
    /// permutation produces the same state (the lemma in
    /// `docs/symmetry.md`). Otherwise the orderings of the equal-signature
    /// groups are encoded and compared, and `best` keeps the least.
    ///
    /// `moved` needs no encoding of `s` itself. A sorting permutation that
    /// fixes `s` leaves the signature sequence as it is, which is then
    /// already sorted; so if the stable sort had to move a remote, no
    /// candidate equals `s`, and if it did not, the first candidate *is*
    /// `s` and the state moves iff a later one beats it.
    fn solve<T: Symmetric>(&mut self, sys: &T, s: &T::State) -> OrbitSample {
        self.sign(sys, s);
        let n = sys.remote_count();
        let Scratch { sigs, ends, exact, order, perm, group_end, best_order, cand, best, .. } =
            self;
        let sig = |i: usize| sig_of(sigs, ends, i);
        sort_by_signature(order, sigs, ends);
        perm.resize(n, 0);
        invert(order, perm);
        let unsorted = order.iter().enumerate().any(|(slot, &old)| slot != old);
        let tied = order.windows(2).any(|w| sig(w[0]) == sig(w[1]));
        if *exact || !tied {
            return OrbitSample { candidates: 1, moved: unsorted };
        }

        group_end.clear();
        while group_end.len() < n {
            let k = group_end.len();
            let e = (k + 1..n).find(|&e| sig(order[e]) != sig(order[k])).unwrap_or(n);
            group_end.resize(e, e);
        }
        let mut candidates = 0u64;
        let mut improved = false;
        for_each_sorting_perm(order, group_end, 0, perm, &mut |perm, order| {
            candidates += 1;
            cand.clear();
            sys.encode_renamed(s, &Perm::new(perm, order), cand);
            if candidates == 1 || *cand < *best {
                improved = candidates > 1;
                std::mem::swap(best, cand);
                best_order.clear();
                best_order.extend_from_slice(order);
            }
        });
        order.copy_from_slice(best_order);
        invert(order, perm);
        OrbitSample { candidates, moved: unsorted || improved }
    }

    /// Appends the canonical orbit representative's encoding to `out`,
    /// written by the one writer so that its segments are marked.
    fn canonical<T: Symmetric>(
        &mut self,
        sys: &T,
        s: &T::State,
        out: &mut impl Sink,
    ) -> OrbitSample {
        let sample = self.solve(sys, s);
        sys.encode_renamed(s, &Perm::new(&self.perm, &self.order), out);
        sample
    }

    /// Signs `from.parent` into `parent`, unless it holds that
    /// expansion's already, and — if every signature is exact, so that
    /// successors can be derived from it — sorts its remotes, which is
    /// then [`Scratch::solve`]'s answer, and sets aside the remote
    /// segments no renaming changes. An inexact parent is left at that:
    /// its successors take the full canonicalization.
    fn solve_parent<T: Symmetric>(&mut self, sys: &T, from: &Origin<'_, T::State>) {
        if self.parent.id == Some(from.parent_id) {
            return;
        }
        self.sign(sys, from.parent);
        let Scratch { sigs, splits, ends, exact, parent: p, .. } = self;
        p.id = Some(from.parent_id);
        p.exact = *exact;
        p.bytes.clear();
        p.segs.clear();
        if !p.exact {
            return;
        }
        std::mem::swap(&mut p.sigs, sigs);
        std::mem::swap(&mut p.splits, splits);
        std::mem::swap(&mut p.ends, ends);
        sort_by_signature(&mut p.order, &p.sigs, &p.ends);
        p.slots.resize(p.order.len(), 0);
        invert(&p.order, &mut p.slots);
        for i in 0..sys.remote_count() {
            let start = p.bytes.len();
            let noting = Noting { ren: &Identity, asked: Cell::new(false) };
            sys.encode_remote(from.parent, i, &noting, &mut p.bytes);
            if noting.asked.get() {
                p.bytes.truncate(start);
                p.segs.push(None);
            } else {
                p.segs.push(Some((start, p.bytes.len())));
            }
        }
    }

    /// Appends the canonical key of `s`, reached from `from.parent` by a
    /// step that wrote `from.written`, derived from the parent's orbit:
    /// only the written remotes are signed again (every remote's home part
    /// too, if the home was written), the order is the parent's with the
    /// written remotes moved to their new places (or, if the home was
    /// written, sorted once), and only the home's segment, the written
    /// remotes' and those holding a remote id are encoded again — the
    /// others are the parent's bytes, the very segments of the parent's
    /// canonical key, which `out` may take from it ([`Sink::reuse`]). Why
    /// that is [`Scratch::canonical`]'s key, and its sample, is argued in
    /// `docs/symmetry.md` ("Canonicalizing a successor from its parent").
    ///
    /// `None`, with nothing written, where the step takes the full
    /// canonicalization: a step that wrote more than two remotes, and an
    /// inexact signature of the parent or of `s`.
    fn derive<T: Symmetric>(
        &mut self,
        sys: &T,
        s: &T::State,
        from: &Origin<'_, T::State>,
        out: &mut impl Sink,
    ) -> Option<OrbitSample> {
        let written = from.written.remotes()?;
        self.solve_parent(sys, from);
        let n = sys.remote_count();
        let Scratch { sigs, ends, order, perm, parent: p, .. } = self;
        if !p.exact {
            return None;
        }
        let is_written = |i: usize| written.contains(&i);
        sigs.clear();
        ends.clear();
        if from.written.home() {
            let mut exact = true;
            for i in 0..n {
                if is_written(i) {
                    exact &= sys.remote_signature(s, i, sigs);
                } else {
                    let start = if i == 0 { 0 } else { p.ends[i - 1] };
                    sigs.extend_from_slice(&p.sigs[start..p.splits[i]]);
                }
                exact &= sys.home_signature(s, i, sigs);
                ends.push(sigs.len());
            }
            if !exact {
                return None;
            }
            sort_by_signature(order, sigs, ends);
        } else {
            // `sigs` holds the written remotes' signatures, in `written`
            // order; every other remote's is the parent's.
            for &i in written {
                if !sys.signature(s, i, sigs) {
                    return None;
                }
                ends.push(sigs.len());
            }
            let key = |i: usize| match written.iter().position(|&w| w == i) {
                Some(k) => (sig_of(sigs, ends, k), i),
                None => (sig_of(&p.sigs, &p.ends, i), i),
            };
            order.clear();
            order.extend(p.order.iter().copied().filter(|&i| !is_written(i)));
            for &i in written {
                let at = order.partition_point(|&j| key(j) < key(i));
                order.insert(at, i);
            }
        }
        perm.resize(n, 0);
        invert(order, perm);
        let ren = Perm::new(perm, order);
        sys.encode_home(s, &ren, out);
        for &i in order.iter() {
            match p.segs[i] {
                Some((a, b)) if !is_written(i) => {
                    if !out.reuse(1 + p.slots[i]) {
                        out.put_all(&p.bytes[a..b]);
                        out.end_segment(Segment::Remote);
                    }
                }
                _ => sys.encode_remote(s, i, &ren, out),
            }
        }
        let moved = order.iter().enumerate().any(|(slot, &old)| slot != old);
        Some(OrbitSample { candidates: 1, moved })
    }
}

/// Appends the canonical orbit representative's encoding of `s` to
/// `out`: derived from its parent's orbit where `from` allows
/// ([`Scratch::derive`]), by the full canonicalization otherwise.
fn canonical_into<T: Symmetric>(
    sys: &T,
    s: &T::State,
    from: Option<Origin<'_, T::State>>,
    out: &mut impl Sink,
) -> OrbitSample {
    SCRATCH.with_borrow_mut(|scratch| {
        match from.and_then(|from| scratch.derive(sys, s, &from, out)) {
            Some(sample) => sample,
            None => scratch.canonical(sys, s, out),
        }
    })
}

/// Encodes the canonical orbit representative of `s` into `out` (cleared
/// first, like [`TransitionSystem::encode`]) and reports what the search
/// over sorting permutations saw. Why the least encoding among the
/// sorting permutations is constant on the orbit, and canonicalizing
/// idempotent, is argued in `docs/symmetry.md` ("Orbit representation").
pub fn canonical_encode<T: Symmetric>(sys: &T, s: &T::State, out: &mut Vec<u8>) -> OrbitSample {
    out.clear();
    SCRATCH.with_borrow_mut(|scratch| scratch.canonical(sys, s, out))
}

/// The key [`Reduced`] derives for `s` from the orbit of the state it was
/// reached from, written into `out` (cleared first), and its sample;
/// `None`, with `out` empty, where the step takes the full
/// canonicalization instead. Bytes and sample must be
/// [`canonical_encode`]'s: [`Reduced::audited`] holds every derived key of
/// a sweep to that.
pub fn derived_encode<T: Symmetric>(
    sys: &T,
    s: &T::State,
    from: Origin<'_, T::State>,
    out: &mut Vec<u8>,
) -> Option<OrbitSample> {
    out.clear();
    let sample = SCRATCH.with_borrow_mut(|scratch| scratch.derive(sys, s, &from, out));
    if sample.is_none() {
        out.clear();
    }
    sample
}

/// The canonical orbit representative of `s` itself (the state whose
/// encoding [`canonical_encode`] produces). Primarily for tests; the
/// engines only ever need the canonical *bytes*.
pub fn canonicalize<T: Symmetric>(sys: &T, s: &T::State) -> T::State {
    SCRATCH.with_borrow_mut(|scratch| {
        scratch.solve(sys, s);
        sys.permute(s, &scratch.perm)
    })
}

/// Applies the remote permutation `perm` to `s` — a re-export of
/// [`Symmetric::permute`] as a free function, for the differential and
/// property tests.
pub fn apply_perm<T: Symmetric>(sys: &T, s: &T::State, perm: &[usize]) -> T::State {
    sys.permute(s, perm)
}

/// A [`TransitionSystem`] adapter that explores `T` modulo remote
/// symmetry: identical to the inner system except that its writer
/// ([`TransitionSystem::encode_into`], and so `encode`) produces the
/// canonical orbit representative's bytes, so every engine that
/// deduplicates on encodings (all of them) visits one state per orbit.
/// See the module docs for why frontiers and trails stay concrete.
pub struct Reduced<'a, T: Symmetric> {
    inner: &'a T,
    active: bool,
    canon_total: AtomicU64,
    moved_total: AtomicU64,
    candidates_total: AtomicU64,
    candidates_max: AtomicU64,
    audit: Option<Mutex<DeriveAudit>>,
}

/// What a [`Reduced::audited`] sweep saw of the keys it derived from a
/// parent's orbit, each held to [`canonical_encode`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeriveAudit {
    /// Keys asked for with the step that reached the state.
    pub steps: u64,
    /// Of those, the keys derived from the parent's orbit; the others
    /// took the full canonicalization.
    pub derived: u64,
    /// Derived keys of steps that wrote the home.
    pub home: u64,
    /// The first derived key whose bytes or sample were not the full
    /// canonicalization's.
    pub mismatch: Option<String>,
}

impl DeriveAudit {
    /// Derives the key of `s`, reached by the step `from`, and holds it to
    /// the full canonicalization.
    fn check<T: Symmetric>(&mut self, sys: &T, s: &T::State, from: Origin<'_, T::State>) {
        self.steps += 1;
        let (mut derived, mut full) = (Vec::new(), Vec::new());
        let Some(sample) = derived_encode(sys, s, from, &mut derived) else { return };
        self.derived += 1;
        self.home += from.written.home() as u64;
        let canonical = canonical_encode(sys, s, &mut full);
        if (sample, &derived) != (canonical, &full) && self.mismatch.is_none() {
            self.mismatch = Some(format!(
                "a step writing {:?} derived {derived:?} ({sample:?}), \
                 the full canonicalization is {full:?} ({canonical:?})",
                from.written
            ));
        }
    }
}

impl<'a, T: Symmetric> Reduced<'a, T> {
    /// Wraps `inner` with orbit-canonical encoding and fresh orbit
    /// counters. When the inner system is not [`Symmetric::permutable`]
    /// (its protocol uses order-sensitive primitives such as `first`),
    /// the wrapper is the *identity*: reduction of an asymmetric graph
    /// would be unsound, so none happens and [`Reduced::active`] reports
    /// it.
    pub fn new(inner: &'a T) -> Self {
        Self {
            inner,
            active: inner.permutable() && inner.remote_count() > 1,
            canon_total: AtomicU64::new(0),
            moved_total: AtomicU64::new(0),
            candidates_total: AtomicU64::new(0),
            candidates_max: AtomicU64::new(0),
            audit: None,
        }
    }

    /// [`Reduced::new`], and every key derived from a parent's orbit is
    /// derived a second time and compared with [`canonical_encode`]'s,
    /// bytes and sample ([`Reduced::audit`]). The keys the sweep stores,
    /// and so its reports, are [`Reduced::new`]'s.
    pub fn audited(inner: &'a T) -> Self {
        Self { audit: Some(Mutex::default()), ..Self::new(inner) }
    }

    /// What an [audited](Reduced::audited) wrapper's sweeps saw so far.
    pub fn audit(&self) -> Option<DeriveAudit> {
        self.audit.as_ref().map(|a| a.lock().expect("audit lock").clone())
    }

    /// The wrapped system.
    pub fn inner(&self) -> &'a T {
        self.inner
    }

    /// Whether encoding actually canonicalizes (false for non-permutable
    /// protocols and for `n <= 1`, where the wrapper is the identity).
    pub fn active(&self) -> bool {
        self.active
    }

    /// Canonicalizations performed so far.
    pub fn canon_total(&self) -> u64 {
        self.canon_total.load(Relaxed)
    }

    fn record(&self, sample: OrbitSample) {
        self.canon_total.fetch_add(1, Relaxed);
        self.candidates_total.fetch_add(sample.candidates, Relaxed);
        self.candidates_max.fetch_max(sample.candidates, Relaxed);
        if sample.moved {
            self.moved_total.fetch_add(1, Relaxed);
        }
    }

    /// Folds this wrapper's orbit counters into `reg`:
    /// `mc_symmetry_orbit_states_total` (canonicalizations),
    /// `mc_symmetry_orbit_moved_total` (states that were not already
    /// canonical), `mc_symmetry_orbit_candidates_total` (sorting
    /// permutations evaluated) and the `mc_symmetry_orbit_candidates_max`
    /// gauge. Call once after each reduced search phase.
    ///
    /// The counters count encodings wherever they ran. `exact` says they
    /// are the sweep's own: always without threads, and on a threaded
    /// search that ran to completion. A threaded search that stopped
    /// early leaves encodings its workers did ahead of the stop in them —
    /// how many depends on scheduling — so they are then registered
    /// nondeterministic.
    pub fn record_metrics(&self, reg: &Registry, exact: bool) {
        if !reg.enabled() {
            return;
        }
        let counter = |name: &str, help: &str, value: &AtomicU64| {
            let c = if exact { reg.counter(name, help) } else { reg.counter_nondet(name, help) };
            c.add(value.load(Relaxed));
        };
        counter(
            "mc_symmetry_orbit_states_total",
            "States canonicalized by symmetry reduction",
            &self.canon_total,
        );
        counter(
            "mc_symmetry_orbit_moved_total",
            "Canonicalized states that were not already orbit representatives",
            &self.moved_total,
        );
        counter(
            "mc_symmetry_orbit_candidates_total",
            "Sorting permutations evaluated across all canonicalizations",
            &self.candidates_total,
        );
        let (name, help) = (
            "mc_symmetry_orbit_candidates_max",
            "Largest sorting-permutation set met by one canonicalization",
        );
        let max = if exact { reg.gauge(name, help) } else { reg.gauge_nondet(name, help) };
        max.record_max(self.candidates_max.load(Relaxed));
    }
}

impl<T: Symmetric> TransitionSystem for Reduced<'_, T> {
    type State = T::State;

    fn initial(&self) -> T::State {
        self.inner.initial()
    }

    fn groups(&self) -> usize {
        self.inner.groups()
    }

    fn for_each_successor_in(
        &self,
        s: &T::State,
        scratch: &mut T::State,
        wanted: impl Fn(usize) -> bool,
        visit: impl FnMut(usize, Label, &T::State, Written) -> ControlFlow<()>,
    ) -> ccr_runtime::Result<()> {
        self.inner.for_each_successor_in(s, scratch, wanted, visit)
    }

    fn fire(
        &self,
        s: &mut T::State,
        scratch: &mut T::State,
        group: usize,
        ordinal: usize,
        dirty: &mut [bool],
    ) -> ccr_runtime::Result<Option<Label>> {
        self.inner.fire(s, scratch, group, ordinal, dirty)
    }

    /// With the step that reached `s`, the key is derived from the
    /// parent's orbit, solved once per expansion (`docs/symmetry.md`,
    /// "Canonicalizing a successor from its parent").
    fn encode_into(&self, s: &T::State, from: Option<Origin<'_, T::State>>, out: &mut impl Sink) {
        if !self.active {
            return self.inner.encode_into(s, from, out);
        }
        if let (Some(audit), Some(from)) = (&self.audit, from) {
            audit.lock().expect("audit lock").check(self.inner, s, from);
        }
        self.record(canonical_into(self.inner, s, from, out));
    }

    /// A key is the orbit's representative, not the member that was
    /// reached: the sweep has to keep that one itself.
    fn key_is_snapshot(&self) -> bool {
        !self.active && self.inner.key_is_snapshot()
    }

    fn snapshot_into(&self, s: &T::State, out: &mut Vec<u8>) {
        self.inner.snapshot_into(s, out);
    }

    /// Canonical bytes are the verbatim encoding of the orbit
    /// representative, which is itself a real state: the inner reader
    /// rebuilds it, and re-encoding canonicalizes to the same bytes
    /// (canonicalization is idempotent).
    fn restore_into(&self, bytes: &[u8], into: &mut T::State) -> bool {
        self.inner.restore_into(bytes, into)
    }

    fn link_occupancy(&self, s: &T::State, from: ProcessId, to: ProcessId) -> Option<u32> {
        self.inner.link_occupancy(s, from, to)
    }

    fn home_buffer_occupancy(&self, s: &T::State) -> Option<(u32, u32)> {
        self.inner.home_buffer_occupancy(s)
    }

    fn msg_name(&self, m: MsgType) -> String {
        self.inner.msg_name(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{explore_plain, Budget};
    use ccr_core::builder::ProtocolBuilder;
    use ccr_core::expr::Expr;

    fn token_spec() -> ccr_core::process::ProtocolSpec {
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
        let w = b.remote_state("W");
        let v = b.remote_state("V");
        b.remote(i).send(req).goto(w);
        b.remote(w).recv(gr).goto(v);
        b.remote(v).send(rel).goto(i);
        b.finish().unwrap()
    }

    #[test]
    fn canonical_encode_is_constant_on_an_orbit() {
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 3);
        // Reach an asymmetric state: remote 1 owns the token.
        let s0 = sys.initial();
        let mut out = Vec::new();
        sys.successors(&s0, &mut out).unwrap();
        let s = out
            .iter()
            .find(|(l, _)| l.actor == ProcessId::Remote(RemoteId(1)))
            .map(|(_, s)| s.clone())
            .unwrap();
        let mut base = Vec::new();
        canonical_encode(&sys, &s, &mut base);
        // Every permutation of the state canonicalizes to the same bytes.
        let perms: [[usize; 3]; 6] =
            [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        for p in &perms {
            let sibling = sys.permute(&s, p);
            let mut enc = Vec::new();
            canonical_encode(&sys, &sibling, &mut enc);
            assert_eq!(enc, base, "perm {p:?}");
        }
    }

    #[test]
    fn canonicalize_is_idempotent_and_matches_encoding() {
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 3);
        let s0 = sys.initial();
        let mut out = Vec::new();
        sys.successors(&s0, &mut out).unwrap();
        for (_, s) in &out {
            let c = canonicalize(&sys, s);
            let cc = canonicalize(&sys, &c);
            assert_eq!(sys.encoded(&c), sys.encoded(&cc), "idempotent");
            let mut enc = Vec::new();
            canonical_encode(&sys, s, &mut enc);
            assert_eq!(sys.encoded(&c), enc, "canonicalize agrees with canonical_encode");
        }
    }

    #[test]
    fn reduced_search_shrinks_the_token_space() {
        let spec = token_spec();
        let sys = RendezvousSystem::new(&spec, 3);
        let full = explore_plain(&sys, &Budget::default());
        let red = Reduced::new(&sys);
        let reduced = explore_plain(&red, &Budget::default());
        assert!(full.outcome.is_complete() && reduced.outcome.is_complete());
        assert!(reduced.states < full.states, "reduced {} vs full {}", reduced.states, full.states);
        assert!(red.canon_total() > 0, "orbit counters advance");
    }

    #[test]
    fn order_sensitive_spec_is_detected_and_left_unreduced() {
        // A home that walks its sharer set with first(s) — the scalarset
        // violation that makes invalidate.ccp/update.ccp irreducible.
        let mut b = ProtocolBuilder::new("ordered");
        let req = b.msg("req");
        let inv = b.msg("inv");
        let s = b.home_var("s", Value::Mask(0));
        let o = b.home_var("o", Value::Node(RemoteId(0)));
        let f = b.home_state("F");
        let g = b.home_state("G");
        b.home(f)
            .recv_any(req)
            .bind_sender(o)
            .assign(s, Expr::MaskAdd(Box::new(Expr::Var(s)), Box::new(Expr::Var(o))))
            .goto(g);
        b.home(g)
            .when(Expr::Not(Box::new(Expr::MaskIsEmpty(Box::new(Expr::Var(s))))))
            .send_to(Expr::MaskFirst(Box::new(Expr::Var(s))), inv)
            .assign(
                s,
                Expr::MaskDel(
                    Box::new(Expr::Var(s)),
                    Box::new(Expr::MaskFirst(Box::new(Expr::Var(s)))),
                ),
            )
            .goto(f);
        let i = b.remote_state("I");
        let w = b.remote_state("W");
        b.remote(i).send(req).goto(w);
        b.remote(w).recv(inv).goto(i);
        let spec = b.finish().unwrap();
        assert!(!spec_permutable(&spec), "first() must flag the spec");
        assert!(spec_permutable(&token_spec()), "token is scalarset-clean");

        let sys = RendezvousSystem::new(&spec, 3);
        let red = Reduced::new(&sys);
        assert!(!red.active(), "reduction must disable itself");
        let full = explore_plain(&sys, &Budget::default());
        let reduced = explore_plain(&red, &Budget::default());
        assert_eq!(reduced.states, full.states, "identity wrapper");
        assert_eq!(reduced.outcome, full.outcome);
        assert_eq!(red.canon_total(), 0, "no canonicalization happens");
    }
}
