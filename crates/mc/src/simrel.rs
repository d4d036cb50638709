//! The Equation 1 soundness check (paper §4).
//!
//! The paper argues refinement correctness via an abstraction function
//! `abs` from asynchronous to rendezvous configurations satisfying
//!
//! ```text
//! ∀ ql, ql' :  ql →l ql'  ⇒  abs(ql) = abs(ql')  ∨  abs(ql) →h abs(ql')
//! ```
//!
//! — every asynchronous step is either invisible at the rendezvous level
//! (*stutter*) or corresponds to exactly one rendezvous step. We verify
//! this over the entire reachable asynchronous state space: a machine-
//! checked instance of the paper's hand proof, run per protocol and per
//! configuration by the test suite and the soundness benchmark.
//!
//! An edge is judged on ids: every rendezvous state met — an image, or a
//! successor of one — is interned to a small id (the images are few: 120
//! for the 181,700 asynchronous states of migratory at n=5), and an edge
//! is a stutter when its ends' images have one id, else its target's must
//! be among the source image's successor ids, which are generated once per
//! distinct rendezvous state.
//!
//! On the concrete space an image is put together from the visited set's
//! segment ids ([`crate::store::Visited`]), never from a state the sweep
//! shows: `abs` maps each process on its own, and reads a few segments
//! for it —
//!
//! | the image of | reads | memo key |
//! |---|---|---|
//! | remote `i` | remote `i`'s segment (phase, variables, buffer, both links), and the home buffer's entries from `i` | the mail id of those entries, `1 + i`, remote `i`'s id |
//! | the home | the home's segment, and, while it is `Awaiting`, the awaited remote's segment | home id, 0, that remote's id (or none) |
//!
//! — so each process's image is memoized under its key, as the id of the
//! rendezvous segment it is, and a state's image is the tuple of its
//! processes' images, interned as any rendezvous state is. What a key
//! needs of the home segment beyond its id — whom the home awaits, and
//! per remote the *mail* id of the buffer's messages from it — is learnt
//! once per home segment. A remote's key names the mail rather than the
//! home segment, which is what keeps the memo small: the home segment
//! changes on most steps, the mail from one remote on few.
//!
//! A key the memo has not met has the state decoded once and `abs`
//! computed whole, which fills the memo: on migratory at n=5 (805 home
//! and 23 remote segments) the memo ends with 1,705 keys and Equation 1
//! decodes 1,621 states. The checker reads no state it is shown, so the
//! sweep takes its successors from the local-step table
//! ([`crate::steps`]). Only a violating edge has its two states decoded,
//! for its message.
//!
//! On a [`crate::symmetry::Reduced`] quotient an index names an orbit, and
//! the checker reads the states it is shown: `abs` of the member an edge
//! reached, once per edge. The image of an orbit's stored member is kept
//! by its index, and is the image of the edges out of it: the sweep
//! expands the member it stored.
//!
//! Checking the edges out of one member of each reachable orbit checks
//! every concrete edge up to a renaming of the remotes: both levels are
//! symmetric when the spec is permutable, and `abs` commutes with remote
//! renaming, `abs(π·q) = π·abs(q)` (`docs/symmetry.md`, "Equation 1 on
//! the quotient").

use crate::report::{Outcome, SimRelReport};
use crate::search::{record_search_run, Budget, Checker, Riding, Search, SearchObserver};
use crate::store::{StateStore, Visited};
use ccr_core::encode::{Identity, Segment, Sink};
use ccr_core::hash::FxBuild;
use ccr_metrics::Registry;
use ccr_runtime::abstraction::abs_into;
use ccr_runtime::asynch::{AsyncState, AsyncSystem, HomePhase};
use ccr_runtime::rendezvous::{RendezvousSystem, RvState};
use ccr_runtime::{Label, RuntimeError, TransitionSystem};
use ccr_trace::NullSink;
use std::collections::HashMap;
use std::sync::Mutex;

/// A home segment the memo has not met.
const UNKNOWN: u32 = u32::MAX;
/// A home at a state, awaiting no remote: in place of the awaited
/// remote's segment id in its key.
const AT: u32 = u32::MAX - 1;

/// The memo key of slot `slot`'s image (0 the home, `1 + i` remote `i`)
/// at the state whose segment ids are `ids` and whose home segment's
/// facts are `facts` ([`Images::homes`]).
#[inline]
fn part_key(ids: &[u32], facts: &[u32], slot: usize) -> (u32, u32, u32) {
    match slot {
        0 if facts[0] == AT => (ids[0], 0, AT),
        0 => (ids[0], 0, ids[1 + facts[0] as usize]),
        _ => (facts[slot], slot as u32, ids[slot]),
    }
}

/// The images Equation 1 judges edges by, and what puts them together.
struct Images<'a, 's> {
    async_sys: &'a AsyncSystem<'s>,
    rv_sys: &'a RendezvousSystem<'s>,
    /// The rendezvous states met so far — images, and successors of
    /// images — each the tuple of its processes' interned segments; a
    /// state's index is its id, and indexes the two tables below.
    ids: Visited,
    /// The states [`Images::intern`] has met, flat-encoded, and
    /// `interned[i]` the id of the `i`th: one lookup per state where
    /// `ids` takes one per segment.
    flat: StateStore,
    interned: Vec<u32>,
    rv_states: Vec<RvState>,
    /// `steps[a]`: the ids of `a`'s rendezvous successors, generated when
    /// an edge out of an `a`-state first fails to stutter.
    steps: Vec<Option<Vec<u32>>>,
    /// Per home segment id, `1 + n` facts, learnt when a state first
    /// shows it: the remote an `Awaiting` home awaits ([`AT`] when it
    /// awaits none, [`UNKNOWN`] before it is learnt), then per remote `i`
    /// the id in `mail` of the buffer's entries from `i`.
    homes: Vec<u32>,
    /// The home buffer's entries from one remote, their messages in
    /// order, interned: all a remote's image reads of the home segment.
    mail: StateStore,
    /// [`part_key`] → the id of that process's image among `ids`'
    /// segments of its kind.
    parts: HashMap<(u32, u32, u32), u32, FxBuild>,
    audit: Option<&'a ImageAudit>,
    // Reused across the whole sweep: one allocation each.
    rv_succs: Vec<(Label, RvState)>,
    /// `abs` of the state being judged, written in place; cloned into
    /// `rv_states` only when it is a new image.
    abs_buf: Option<RvState>,
    /// A stored state read back, and its key.
    decoded: Option<AsyncState>,
    key: Vec<u8>,
    buf: Vec<u8>,
    #[cfg(test)]
    abs_calls: usize,
}

impl<'a, 's> Images<'a, 's> {
    fn intern(&mut self, rv: &RvState) -> u32 {
        self.rv_sys.encode(rv, &mut self.buf);
        let (at, is_new) = self.flat.insert(&self.buf);
        if !is_new {
            return self.interned[at as usize];
        }
        let (id, is_new) = self.ids.insert_state(self.rv_sys, rv, None);
        if is_new {
            self.rv_states.push(rv.clone());
            self.steps.push(None);
        }
        self.interned.push(id);
        id
    }

    /// The id of `abs(q)`, computed whole.
    fn image_of(&mut self, q: &AsyncState) -> Result<u32, RuntimeError> {
        let mut image = self.abs_buf.take().unwrap_or_else(|| self.rv_sys.initial());
        let id = self.abs(q, &mut image).map(|()| self.intern(&image));
        self.abs_buf = Some(image);
        id
    }

    fn abs(&mut self, q: &AsyncState, image: &mut RvState) -> Result<(), RuntimeError> {
        #[cfg(test)]
        {
            self.abs_calls += 1;
        }
        abs_into(self.async_sys, q, image)
    }

    /// Stored state `idx` read back into `into`.
    fn decode_into(&mut self, store: &Visited, idx: u32, into: &mut AsyncState) -> bool {
        store.expand_into(idx, &mut self.key) && self.async_sys.restore_into(&self.key, into)
    }

    /// The id of the image of stored state `idx`, whose segment ids are
    /// `ids`, with the ids of its processes' images into `parts`. `like`
    /// is another state's ids, its processes' images' and its image's:
    /// a process whose key is the same there has the same image, and a
    /// state whose processes all do has that image.
    fn by_ids(
        &mut self,
        store: &Visited,
        idx: u32,
        ids: &[u32],
        like: Option<(&[u32], &[u32], u32)>,
        parts: &mut Vec<u32>,
    ) -> Result<u32, RuntimeError> {
        let id = if self.lookup(ids, like, parts) {
            match like {
                Some((_, like_parts, image)) if like_parts == &parts[..] => image,
                _ => self.image_of_parts(parts),
            }
        } else {
            self.fill(store, idx, ids, parts)?
        };
        if let Some(audit) = self.audit {
            self.check(audit, store, idx, id);
        }
        Ok(id)
    }

    /// The facts of the home segment of the state whose ids are `ids`,
    /// when the segment is learnt.
    #[inline]
    fn facts(&self, ids: &[u32]) -> Option<&[u32]> {
        let width = 1 + self.rv_sys.n() as usize;
        let at = *ids.first()? as usize * width;
        let facts = self.homes.get(at..at + width)?;
        (facts[0] != UNKNOWN).then_some(facts)
    }

    /// Every process's image at the state whose segment ids are `ids`,
    /// from `like` or the memo, into `parts`: false on a miss.
    #[inline]
    fn lookup(
        &self,
        ids: &[u32],
        like: Option<(&[u32], &[u32], u32)>,
        parts: &mut Vec<u32>,
    ) -> bool {
        parts.clear();
        let Some(facts) = self.facts(ids) else { return false };
        let like = like.and_then(|(ids, parts, _)| Some((ids, self.facts(ids)?, parts)));
        for slot in 0..ids.len() {
            let key = part_key(ids, facts, slot);
            let part = match like {
                Some((like, like_facts, like_parts)) if part_key(like, like_facts, slot) == key => {
                    like_parts[slot]
                }
                _ => match self.parts.get(&key) {
                    Some(&part) => part,
                    None => return false,
                },
            };
            parts.push(part);
        }
        true
    }

    /// A miss: state `idx` read back and its image computed whole, which
    /// fills the memo under the keys of `ids`.
    fn fill(
        &mut self,
        store: &Visited,
        idx: u32,
        ids: &[u32],
        parts: &mut Vec<u32>,
    ) -> Result<u32, RuntimeError> {
        let mut q = self.decoded.take().unwrap_or_else(|| self.async_sys.initial());
        let mut image = self.abs_buf.take().unwrap_or_else(|| self.rv_sys.initial());
        let abs = if self.decode_into(store, idx, &mut q) {
            self.abs(&q, &mut image)
        } else {
            Err(RuntimeError::Unabstractable { detail: "a stored state does not decode" })
        };
        let id = abs.map(|()| self.remember(ids, &q, &image, parts));
        self.decoded = Some(q);
        self.abs_buf = Some(image);
        id
    }

    /// The id of `image`, the image of `q`, whose segment ids are `ids`,
    /// with what the memo learns of it: the facts of its home segment,
    /// and its processes' images under their keys, into `parts`.
    fn remember(
        &mut self,
        ids: &[u32],
        q: &AsyncState,
        image: &RvState,
        parts: &mut Vec<u32>,
    ) -> u32 {
        let width = 1 + self.rv_sys.n() as usize;
        debug_assert_eq!((ids.len(), q.remotes.len() + 1), (width, width), "a key off the layout");
        let at = ids[0] as usize * width;
        if self.homes.len() < at + width {
            self.homes.resize(at + width, UNKNOWN);
        }
        let facts = &mut self.homes[at..at + width];
        facts[0] = match q.home.phase {
            HomePhase::At(_) => AT,
            HomePhase::Awaiting { target, .. } => target.0,
        };
        for (i, fact) in facts[1..].iter_mut().enumerate() {
            self.buf.clear();
            for e in q.home.buf.iter().filter(|e| e.from.index() == i) {
                self.buf.put_id(e.msg.0);
            }
            *fact = self.mail.insert(&self.buf).0;
        }
        parts.clear();
        for slot in 0..width {
            let (local, kind) = match slot {
                0 => (&image.home, Segment::Home),
                _ => (&image.remotes[slot - 1], Segment::Remote),
            };
            self.buf.clear();
            RendezvousSystem::encode_local_renamed(local, kind, &Identity, &mut self.buf);
            let (part, _) = self.ids.segments_mut(kind).insert(&self.buf);
            self.parts.insert(part_key(ids, &self.homes[at..at + width], slot), part);
            parts.push(part);
        }
        self.image_of_parts(parts)
    }

    /// The id of the image whose processes' images are `parts`.
    fn image_of_parts(&mut self, parts: &[u32]) -> u32 {
        let (id, is_new) = self.ids.insert_ids(parts);
        if is_new {
            let mut rv = self.rv_sys.initial();
            let read = self.ids.expand_into(id, &mut self.key)
                && self.rv_sys.restore_into(&self.key, &mut rv);
            debug_assert!(read, "an interned image reads back");
            self.rv_states.push(rv);
            self.steps.push(None);
        }
        id
    }

    /// Holds image `id`, which the memo gave stored state `idx`, to `abs`
    /// of the state read back.
    fn check(&mut self, audit: &ImageAudit, store: &Visited, idx: u32, id: u32) {
        let mut q = self.decoded.take().unwrap_or_else(|| self.async_sys.initial());
        let mut image = self.rv_sys.initial();
        let whole = if self.decode_into(store, idx, &mut q) {
            abs_into(self.async_sys, &q, &mut image).map_err(|e| e.to_string())
        } else {
            Err("the state does not decode".to_string())
        };
        self.decoded = Some(q);
        let memo = &self.rv_states[id as usize];
        let agree = whole.is_ok() && self.rv_sys.encoded(&image) == self.rv_sys.encoded(memo);
        audit.note(agree, || match whole {
            Ok(()) => format!("state {idx}: the memo gave {memo:?}, abs {image:?}"),
            Err(e) => format!("state {idx}: the memo gave {memo:?}, abs failed: {e}"),
        });
    }

    /// Whether `a ->h a2` is a rendezvous step.
    fn steps_to(&mut self, a: u32, a2: u32) -> Result<bool, RuntimeError> {
        if self.steps[a as usize].is_none() {
            let mut succs = std::mem::take(&mut self.rv_succs);
            self.rv_sys.successors(&self.rv_states[a as usize], &mut succs)?;
            let ids = succs.drain(..).map(|(_, r)| self.intern(&r)).collect();
            self.rv_succs = succs;
            self.steps[a as usize] = Some(ids);
        }
        Ok(self.steps[a as usize].as_ref().is_some_and(|ids| ids.contains(&a2)))
    }

    /// The memo's distinct keys and the bytes it holds, from its buffers'
    /// capacities (a hash map's slots count with one control byte each).
    fn memo_size(&self) -> (u64, u64) {
        let bytes = self.parts.capacity() * (std::mem::size_of::<((u32, u32, u32), u32)>() + 1)
            + self.homes.capacity() * std::mem::size_of::<u32>()
            + self.mail.approx_bytes();
        (self.parts.len() as u64, bytes as u64)
    }
}

/// The state being expanded, as its edges are judged.
#[derive(Default)]
struct Source {
    /// Its index, `u32::MAX` before the first.
    idx: u32,
    image: u32,
    /// On the concrete space, its segment ids and its processes' images'.
    ids: Vec<u32>,
    parts: Vec<u32>,
}

/// Equation 1 as a checker on the sweep: every edge must map to a
/// stutter or to a rendezvous step. A failing edge is an
/// [`Outcome::InvariantViolated`] carrying its description — the end of
/// a sweep this checker has to itself, a latched verdict on one it rides
/// ([`crate::search::Search::verify`]). It counts for itself, so its
/// report reads the same either way: states stored before the violating
/// edge's target, transitions up to and including that edge.
pub(crate) struct Equation1<'a, 's> {
    images: Images<'a, 's>,
    /// Whether a stored index names one state (the swept system's key is
    /// a snapshot): then images come from segment ids, and no state the
    /// sweep shows is read.
    by_ids: bool,
    /// On a quotient, `stored_images[i]`: the image id of stored state
    /// `i`'s member, computed by the edge that stored it.
    stored_images: Vec<u32>,
    src: Source,
    /// An edge target's segment ids and its processes' images'.
    dst_ids: Vec<u32>,
    dst_parts: Vec<u32>,
    stored: usize,
    transitions: usize,
    stutters: usize,
    mapped_steps: usize,
}

fn violated(edge: String) -> Option<Outcome> {
    Some(Outcome::InvariantViolated(edge))
}

impl<'a, 's> Equation1<'a, 's> {
    /// The checker for a sweep of `swept`: `async_sys` itself or its
    /// quotient. With `audit`, every image the memo gives is held to
    /// `abs` of the state read back.
    pub(crate) fn new(
        swept: &impl TransitionSystem,
        async_sys: &'a AsyncSystem<'s>,
        rv_sys: &'a RendezvousSystem<'s>,
        audit: Option<&'a ImageAudit>,
    ) -> Self {
        let mut ids = Visited::new();
        ids.learn(rv_sys);
        Equation1 {
            images: Images {
                async_sys,
                rv_sys,
                ids,
                flat: StateStore::new(),
                interned: Vec::new(),
                rv_states: Vec::new(),
                steps: Vec::new(),
                homes: Vec::new(),
                mail: StateStore::new(),
                parts: HashMap::default(),
                audit,
                rv_succs: Vec::new(),
                abs_buf: None,
                decoded: None,
                key: Vec::new(),
                buf: Vec::new(),
                #[cfg(test)]
                abs_calls: 0,
            },
            by_ids: swept.key_is_snapshot(),
            stored_images: Vec::new(),
            src: Source { idx: u32::MAX, ..Source::default() },
            dst_ids: Vec::new(),
            dst_parts: Vec::new(),
            stored: 0,
            transitions: 0,
            stutters: 0,
            mapped_steps: 0,
        }
    }

    /// The image id of the state being expanded, `idx`.
    fn source(&mut self, store: &Visited, idx: u32) -> Result<u32, RuntimeError> {
        if self.src.idx != idx {
            let src = &mut self.src;
            src.image = if self.by_ids {
                store.tuple_ids(idx, &mut src.ids);
                self.images.by_ids(store, idx, &src.ids, None, &mut src.parts)?
            } else {
                self.stored_images[idx as usize]
            };
            src.idx = idx;
        }
        Ok(self.src.image)
    }

    /// The image id of edge target `idx`, shown as `next`.
    fn target(
        &mut self,
        store: &Visited,
        idx: u32,
        next: &AsyncState,
    ) -> Result<u32, RuntimeError> {
        if !self.by_ids {
            return self.images.image_of(next);
        }
        store.tuple_ids(idx, &mut self.dst_ids);
        let like = Some((&self.src.ids[..], &self.src.parts[..], self.src.image));
        self.images.by_ids(store, idx, &self.dst_ids, like, &mut self.dst_parts)
    }

    /// State `idx`, shown as `shown`, as a violation names it.
    fn describe(&mut self, store: &Visited, idx: u32, shown: &AsyncState) -> String {
        if !self.by_ids {
            return format!("{shown:?}");
        }
        let mut q = self.images.async_sys.initial();
        if self.images.decode_into(store, idx, &mut q) {
            format!("{q:?}")
        } else {
            format!("(state {idx} does not decode)")
        }
    }

    /// The report of a sweep that `ended` this way, as far as this
    /// checker is concerned: its own verdict, or how the sweep ran out.
    pub(crate) fn report(&self, ended: Outcome) -> SimRelReport {
        let (complete, violation) = ending(ended);
        SimRelReport {
            async_states: self.stored,
            transitions_checked: self.transitions,
            stutters: self.stutters,
            mapped_steps: self.mapped_steps,
            complete,
            violation,
        }
    }

    /// Folds the image memo's size into `reg`.
    pub(crate) fn record(&self, reg: &Registry) {
        if !reg.enabled() {
            return;
        }
        let (keys, bytes) = self.images.memo_size();
        reg.gauge(
            "mc_equation1_memo_keys",
            "Distinct process keys held by the Equation 1 image memo of any run",
        )
        .record_max(keys);
        reg.gauge("mc_equation1_memo_bytes", "Bytes held by the Equation 1 image memo of any run")
            .record_max(bytes);
    }
}

/// How a sweep's ending reads in a [`SimRelReport`]: `(complete,
/// violation)`.
fn ending(ended: Outcome) -> (bool, Option<String>) {
    let complete = ended != Outcome::Unfinished;
    let violation = match ended {
        Outcome::InvariantViolated(edge) => Some(edge),
        Outcome::RuntimeFailure(_) => Some("async successor generation failed".into()),
        _ => None,
    };
    (complete, violation)
}

impl Riding<Equation1<'_, '_>> {
    /// The report of a rider on a sweep whose exploration ended as
    /// `explored`: the latched verdict if there is one, else the sweep's
    /// own ending — where a sweep the exploration cut short on a finding
    /// of its own is one Equation 1 did not finish.
    pub(crate) fn report(self, explored: &Outcome) -> SimRelReport {
        let ended = self.verdict.unwrap_or_else(|| match explored {
            swept @ (Outcome::Complete | Outcome::RuntimeFailure(_)) => swept.clone(),
            _ => Outcome::Unfinished,
        });
        self.checker.report(ended)
    }
}

impl<T: TransitionSystem<State = AsyncState>> Checker<T> for Equation1<'_, '_> {
    const CHECKS: bool = true;

    /// On the concrete space it reads segment ids off the visited set.
    fn reads_states(&self) -> bool {
        !self.by_ids
    }

    /// The root's image. Every other state's is computed by the edge that
    /// discovers it, which has the rule to name if `abs` fails.
    fn on_new(&mut self, store: &Visited, state: &AsyncState, idx: u32) -> Option<Outcome> {
        if idx != 0 {
            return None;
        }
        // Stored all the same.
        self.stored += 1;
        let image = if self.by_ids { self.source(store, idx) } else { self.images.image_of(state) };
        match image {
            Ok(image) => {
                self.stored_images.extend((!self.by_ids).then_some(image));
                None
            }
            Err(e) => violated(format!("abs failed on source state: {e}")),
        }
    }

    fn on_edge(
        &mut self,
        store: &Visited,
        src: u32,
        state: &AsyncState,
        label: &Label,
        dst: u32,
        next: &AsyncState,
        is_new: bool,
    ) -> Option<Outcome> {
        self.transitions += 1;
        let a = match self.source(store, src) {
            Ok(a) => a,
            Err(e) => return violated(format!("abs failed on source state: {e}")),
        };
        let a2 = match self.target(store, dst, next) {
            Ok(a2) => a2,
            Err(e) => return violated(format!("abs failed after rule {}: {e}", label.rule)),
        };
        if a == a2 {
            self.stutters += 1;
        } else {
            // Must be a single rendezvous step abs(q) ->h abs(q').
            match self.images.steps_to(a, a2) {
                Ok(true) => self.mapped_steps += 1,
                Ok(false) => {
                    let (q, q2) =
                        (self.describe(store, src, state), self.describe(store, dst, next));
                    let rv = &self.images.rv_states;
                    return violated(format!(
                        "async rule {} (actor {}) maps to an impossible rendezvous step:\n  abs(q)  = {:?}\n  abs(q') = {:?}\n  async q = {q}\n  async q' = {q2}",
                        label.rule, label.actor, rv[a as usize], rv[a2 as usize]
                    ));
                }
                Err(_) => return violated("rendezvous successor generation failed".into()),
            }
        }
        // Judged first, stored second: a violating edge's target is not
        // among the states examined.
        if is_new {
            self.stored += 1;
            self.stored_images.extend((!self.by_ids).then_some(a2));
        }
        None
    }
}

/// What an [`ImageAudit`] saw.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ImageAuditReport {
    /// Images the memo gave, each held to `abs` of its state.
    pub images: u64,
    /// Those that were not `abs` of the state.
    pub disagreements: u64,
    /// The first of them.
    pub first: Option<String>,
}

/// A test hook of Equation 1 on the concrete space
/// ([`Search::image_audit`](crate::search::Search::image_audit)): every
/// image the memo gives a state — of an expanded state or an edge
/// target, a hit or a miss — is held to `abs` of the state read back from
/// the visited set, computed whole. The sweep's reports are the
/// unaudited run's.
#[derive(Debug, Default)]
pub struct ImageAudit(Mutex<ImageAuditReport>);

impl ImageAudit {
    /// An audit that has seen nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// What the audit saw so far.
    pub fn report(&self) -> ImageAuditReport {
        self.0.lock().expect("audit lock").clone()
    }

    fn note(&self, agree: bool, first: impl FnOnce() -> String) {
        let mut report = self.0.lock().expect("audit lock");
        report.images += 1;
        if !agree {
            report.disagreements += 1;
            if report.first.is_none() {
                report.first = Some(first());
            }
        }
    }
}

/// Checks Equation 1 over the reachable states of `async_sys`, mapping into
/// `rv_sys` (which must be built over the same spec and remote count), on
/// a sweep of its own, unobserved.
pub fn check_simulation(
    async_sys: &AsyncSystem<'_>,
    rv_sys: &RendezvousSystem<'_>,
    budget: &Budget,
) -> SimRelReport {
    let mut null = NullSink;
    check_simulation_observed(async_sys, rv_sys, budget, &mut SearchObserver::new(&mut null))
}

/// [`check_simulation`] with the flight recorder's samples (timeline,
/// status, `--progress`) to `obs` while it sweeps, and the sweep folded into its
/// metrics. Nothing is concluded on the sink: the verdict is the report.
pub fn check_simulation_observed(
    async_sys: &AsyncSystem<'_>,
    rv_sys: &RendezvousSystem<'_>,
    budget: &Budget,
    obs: &mut SearchObserver<'_>,
) -> SimRelReport {
    let mut checker = Equation1::new(async_sys, async_sys, rv_sys, None);
    let run = Search::default().sweep(async_sys, budget, &mut checker, obs, None);
    let reg = &obs.telemetry().registry;
    record_search_run(reg, &run);
    checker.record(reg);
    checker.report(run.outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::inject_unsound;
    use crate::search::{drive, Inline};
    use ccr_core::builder::ProtocolBuilder;
    use ccr_core::expr::Expr;
    use ccr_core::ids::RemoteId;
    use ccr_core::process::ProtocolSpec;
    use ccr_core::refine::{refine, RefineOptions, ReqRepMode};
    use ccr_core::value::Value;
    use ccr_core::zoo::ZooSpec;
    use ccr_runtime::abstraction::abs;
    use ccr_runtime::asynch::AsyncConfig;

    /// Equation 1 as it was checked before the memo, kept as the
    /// reference the memoised checker must agree with: `abs` of the
    /// source once per expansion, `abs` of the target once per edge, the
    /// rendezvous successors regenerated for every edge that is not a
    /// stutter, everything compared by encoding.
    struct PerEdge<'a, 's> {
        async_sys: &'a AsyncSystem<'s>,
        rv_sys: &'a RendezvousSystem<'s>,
        a: Option<RvState>,
        rv_succs: Vec<(Label, RvState)>,
        a_buf: Vec<u8>,
        a2_buf: Vec<u8>,
        r_buf: Vec<u8>,
        stored: usize,
        transitions: usize,
        stutters: usize,
        mapped_steps: usize,
        abs_calls: usize,
    }

    impl<'s> Checker<AsyncSystem<'s>> for PerEdge<'_, 's> {
        fn on_new(&mut self, _store: &Visited, _state: &AsyncState, _idx: u32) -> Option<Outcome> {
            self.stored += 1;
            None
        }

        fn on_expand(&mut self, state: &AsyncState, _idx: u32) -> Option<Outcome> {
            self.abs_calls += 1;
            match abs(self.async_sys, state) {
                Ok(a) => {
                    self.rv_sys.encode(&a, &mut self.a_buf);
                    self.a = Some(a);
                    None
                }
                Err(e) => violated(format!("abs failed on source state: {e}")),
            }
        }

        fn on_edge(
            &mut self,
            _store: &Visited,
            _src: u32,
            state: &AsyncState,
            label: &Label,
            _dst: u32,
            next: &AsyncState,
            _is_new: bool,
        ) -> Option<Outcome> {
            self.transitions += 1;
            self.abs_calls += 1;
            let a = self.a.as_ref().expect("on_expand precedes the state's edges");
            let a2 = match abs(self.async_sys, next) {
                Ok(a2) => a2,
                Err(e) => return violated(format!("abs failed after rule {}: {e}", label.rule)),
            };
            self.rv_sys.encode(&a2, &mut self.a2_buf);
            if self.a_buf == self.a2_buf {
                self.stutters += 1;
                return None;
            }
            if self.rv_sys.successors(a, &mut self.rv_succs).is_err() {
                return violated("rendezvous successor generation failed".into());
            }
            let (rv_sys, r_buf, want) = (self.rv_sys, &mut self.r_buf, &self.a2_buf);
            if !self.rv_succs.iter().any(|(_, r)| {
                rv_sys.encode(r, r_buf);
                r_buf == want
            }) {
                return violated(format!(
                    "async rule {} (actor {}) maps to an impossible rendezvous step:\n  abs(q)  = {:?}\n  abs(q') = {:?}\n  async q = {:?}\n  async q' = {:?}",
                    label.rule, label.actor, a, a2, state, next
                ));
            }
            self.mapped_steps += 1;
            None
        }
    }

    /// The reference's report and how often it called `abs`.
    fn per_edge(
        async_sys: &AsyncSystem<'_>,
        rv_sys: &RendezvousSystem<'_>,
        budget: &Budget,
    ) -> (SimRelReport, usize) {
        let mut checker = PerEdge {
            async_sys,
            rv_sys,
            a: None,
            rv_succs: Vec::new(),
            a_buf: Vec::new(),
            a2_buf: Vec::new(),
            r_buf: Vec::new(),
            stored: 0,
            transitions: 0,
            stutters: 0,
            mapped_steps: 0,
            abs_calls: 0,
        };
        let mut null = NullSink;
        let mut obs = SearchObserver::new(&mut null);
        let src = Inline::new(async_sys, false);
        let run = drive(async_sys, budget, &mut checker, src, &mut obs, None);
        // A violating edge's target was stored by the sweep, but is not
        // among the states examined.
        let (complete, violation) = ending(run.outcome);
        let report = SimRelReport {
            async_states: checker.stored,
            transitions_checked: checker.transitions,
            stutters: checker.stutters,
            mapped_steps: checker.mapped_steps,
            complete,
            violation,
        };
        (report, checker.abs_calls)
    }

    /// What bounds a comparison: the spaces past it (invalidate and
    /// update at n=3) are compared on this prefix.
    const CAP: usize = 20_000;

    /// Memoised ≡ reference on `spec` as derived, and with the derivation
    /// broken the way `migratory_broken` is — so that the first violation
    /// and the counts it is reported with are compared too.
    fn assert_memo_is_the_reference(spec: &ProtocolSpec, n: u32) -> usize {
        let rv = RendezvousSystem::new(spec, n);
        let mut violations = 0;
        for inject in [false, true] {
            let mut refined = refine(spec, &RefineOptions::default()).unwrap();
            if inject && !inject_unsound(&mut refined) {
                continue;
            }
            let asys = AsyncSystem::new(&refined, n, AsyncConfig::default());
            let memoised = check_simulation(&asys, &rv, &Budget::states(CAP));
            let (reference, _) = per_edge(&asys, &rv, &Budget::states(CAP));
            assert_eq!(memoised, reference, "{} n={n} inject={inject}", spec.name);
            violations += usize::from(memoised.violation.is_some());
        }
        violations
    }

    fn shipped(name: &str) -> ProtocolSpec {
        let path = format!("{}/../../specs/{name}.ccp", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        ccr_core::text::parse_validated(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
    }

    #[test]
    fn memoised_abs_agrees_with_the_per_edge_reference_on_every_shipped_spec() {
        let mut violations = 0;
        for name in [
            "invalidate",
            "migratory",
            "migratory_broken",
            "migratory_gated",
            "token",
            "update",
            "zoo_chain",
            "zoo_unsound_pair",
        ] {
            let spec = shipped(name);
            for n in [2, 3] {
                violations += assert_memo_is_the_reference(&spec, n);
            }
        }
        assert!(violations > 0, "no comparison reached a violation");
    }

    #[test]
    fn memoised_abs_agrees_with_the_per_edge_reference_on_the_zoo() {
        let mut violations = 0;
        for index in 0..250 {
            let spec = ZooSpec::generate(1998, index).build().expect("zoo specs build");
            violations += assert_memo_is_the_reference(&spec, 2);
        }
        assert!(violations > 0, "no comparison reached a violation");
    }

    /// `abs` is called once per memo miss: at most once per distinct
    /// process key, far below once per stored state — and the sweep,
    /// which reads no state for Equation 1, decodes few.
    #[test]
    fn abs_is_called_at_most_once_per_memo_key() {
        let spec = shipped("migratory");
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let rv = RendezvousSystem::new(&spec, 4);
        let asys = AsyncSystem::new(&refined, 4, AsyncConfig::default());
        let mut checker = Equation1::new(&asys, &asys, &rv, None);
        let mut null = NullSink;
        let mut obs = SearchObserver::new(&mut null);
        let run = Search::default().sweep(&asys, &Budget::default(), &mut checker, &mut obs, None);
        let states = run.store.len();
        let restores = run.steps.restores;
        let report = checker.report(run.outcome);
        assert!(report.holds(), "{report:?}");
        assert_eq!(report.async_states, states);
        let (keys, _) = checker.images.memo_size();
        let calls = checker.images.abs_calls;
        assert!(calls as u64 <= keys, "{calls} calls of abs, {keys} keys");
        assert!(calls < states / 10, "{calls} calls of abs for {states} states");
        assert!(restores < states as u64 / 10, "{restores} of {states} states decoded");
        // The reference calls it once per expansion and once per edge.
        let (reference, calls) = per_edge(&asys, &rv, &Budget::default());
        assert_eq!(reference, report);
        assert_eq!(calls, report.async_states + report.transitions_checked);
        // Few images, each with its successors generated at most once.
        let images = &checker.images;
        assert!(images.rv_states.len() < report.async_states / 10, "{}", images.rv_states.len());
        assert!(images.steps.iter().flatten().count() <= images.rv_states.len());
    }

    /// On a quotient `abs` is called once for the root and once per edge,
    /// for the member the edge reached; an expansion reads its orbit's
    /// image off the index.
    #[test]
    fn abs_is_called_once_per_edge_on_the_quotient() {
        let spec = shipped("migratory");
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let rv = RendezvousSystem::new(&spec, 3);
        let asys = AsyncSystem::new(&refined, 3, AsyncConfig::default());
        let red = crate::symmetry::Reduced::new(&asys);
        let mut checker = Equation1::new(&red, &asys, &rv, None);
        let mut null = NullSink;
        let mut obs = SearchObserver::new(&mut null);
        let run = Search::default().sweep(&red, &Budget::default(), &mut checker, &mut obs, None);
        let report = checker.report(run.outcome);
        assert!(report.holds(), "{report:?}");
        assert_eq!(checker.images.abs_calls, 1 + report.transitions_checked);
    }

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
    fn equation_one_holds_for_token_optimized() {
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let rv = RendezvousSystem::new(&spec, 2);
        let asys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
        let r = check_simulation(&asys, &rv, &Budget::default());
        assert!(r.holds(), "{r:?}");
        assert!(r.stutters > 0);
        assert!(r.mapped_steps > 0);
    }

    #[test]
    fn equation_one_holds_for_token_unoptimized() {
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions { reqrep: ReqRepMode::Off }).unwrap();
        let rv = RendezvousSystem::new(&spec, 2);
        let asys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
        let r = check_simulation(&asys, &rv, &Budget::default());
        assert!(r.holds(), "{r:?}");
    }

    #[test]
    fn budget_limits_mark_incomplete() {
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let rv = RendezvousSystem::new(&spec, 2);
        let asys = AsyncSystem::new(&refined, 2, AsyncConfig::default());
        let r = check_simulation(&asys, &rv, &Budget::states(5));
        assert!(!r.complete);
        assert!(!r.holds());
    }

    #[test]
    fn larger_buffer_also_satisfies_equation_one() {
        let spec = token_spec();
        let refined = refine(&spec, &RefineOptions::default()).unwrap();
        let rv = RendezvousSystem::new(&spec, 2);
        let asys = AsyncSystem::new(&refined, 2, AsyncConfig::with_home_buffer(4));
        let r = check_simulation(&asys, &rv, &Budget::default());
        assert!(r.holds(), "{r:?}");
    }
}
