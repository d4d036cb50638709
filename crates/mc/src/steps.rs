//! The local-step table: successors of a state from the steps the sweep
//! has already taken, keyed by the segments each rule group reads.
//!
//! A stored state is the tuple of its key's interned segment ids
//! ([`crate::store::Visited`]), and a system that declares what its rule
//! groups read ([`TransitionSystem::group_reads`]) says that a group's
//! steps are a function of one or two of those ids. So once the sweep has
//! walked a group at some state, every later state with the same ids
//! there has the same steps: the same labels, writing the same new
//! segments into the same places. A successor's tuple is then its
//! parent's with one to three ids replaced — no state read back, no walk
//! and no encoding (DESIGN.md, "Rule groups").
//!
//! What a step of each group is recorded under, and as:
//!
//! | group reads | key | a step |
//! |---|---|---|
//! | [`GroupReads::Home`] | the home's id | label, new home id, up to two pushes `(j, wire)` |
//! | [`GroupReads::HomeAndRemote`]`(i)` | home id, `i`, remote `i`'s id | label, new home id, new remote id |
//! | [`GroupReads::Remote`]`(i)` | `i`, remote `i`'s id | label, new remote id |
//!
//! A push onto remote `j`'s home → remote link is resolved through a memo,
//! (remote segment id, wire) → segment id, that holds only pushes that
//! succeeded: one that would overflow the link misses, and its error comes
//! from the walk. The wire is what the push appended to the remote's
//! segment: the bytes of the new segment past the old one's length. A
//! group that reads the home and remote `i` has no step at all while
//! remote `i`'s segment says so (its home-bound link is empty), which is
//! a fact of that segment, learnt the first time it is walked.
//!
//! The first and third kinds live in dense arrays indexed by segment id;
//! the second, whose keys pair two ids, in a direct-mapped cache of 2^13
//! slots. Labels are interned as `u16` ids. Nothing is allocated per
//! lookup, and the arrays grow by doubling.

use crate::search::DynVisit;
use crate::store::StateStore;
use ccr_core::hash::FxBuild;
use ccr_metrics::Registry;
use ccr_runtime::{GroupReads, Label, TransitionSystem};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::ControlFlow;
use std::sync::Mutex;

/// A run index entry of a key no walk has recorded.
const UNKNOWN: u32 = u32::MAX;
/// A run index entry of a key walked and found to have no step.
const NO_STEPS: u32 = u32::MAX - 1;
/// The label field's top bit: this step is the last of its key's run.
const LAST: u16 = 1 << 15;
/// A push slot that holds none: of [`LocalSteps::push_sets`].
const NO_PUSH: u16 = u16::MAX;
/// What [`LocalSteps::mail`] knows of a remote segment: whether a group
/// that reads the home and that remote has any step while it is there.
const MAIL_UNKNOWN: u8 = 0;
const MAIL_NONE: u8 = 1;
const MAIL_SOME: u8 = 2;
/// Slots of the direct-mapped cache of steps keyed by the home and one
/// remote, 16 bytes each. Fixed by the resident set it costs: on
/// `invalidate.ccp` at n = 3 a sweep took about 0.47 of a walking sweep's
/// time with 2^13, 2^14 or 2^15 slots, each doubling 128 KB more
/// (EXPERIMENTS.md, "successors from a local-step table").
pub(crate) const CACHE_SLOTS: usize = 1 << 13;

/// A step of a group that reads the home alone.
#[derive(Debug, Clone, Copy)]
struct HomeStep {
    home: u32,
    /// The label id, [`LAST`] on the last step of a run.
    label: u16,
    /// Its pushes ([`LocalSteps::push_sets`]).
    pushes: u16,
}

/// A step of a group that reads one remote alone.
#[derive(Debug, Clone, Copy)]
struct RemoteStep {
    remote: u32,
    /// The label id, [`LAST`] on the last step of a run.
    label: u16,
}

/// A step as the table hands it out: its label id and the key positions
/// it writes, each with its new segment id.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Taken {
    pub(crate) label: u16,
    writes: [(u32, u32); 3],
    len: u8,
}

impl Taken {
    fn new(label: u16) -> Self {
        Taken { label: label & !LAST, writes: [(0, 0); 3], len: 0 }
    }

    fn write(&mut self, pos: usize, id: u32) {
        self.writes[self.len as usize] = (pos as u32, id);
        self.len += 1;
    }

    /// The positions written, with their new ids.
    pub(crate) fn writes(&self) -> &[(u32, u32)] {
        &self.writes[..self.len as usize]
    }
}

/// A step of the group being walked, noted as it comes.
#[derive(Debug, Clone, Copy)]
struct Noted {
    label: u16,
    home: u32,
    remote: u32,
    pushes: u16,
}

/// What the table did over one sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StepStats {
    /// Rule groups answered from the table.
    pub(crate) hits: u64,
    /// Rule groups with a key that were walked.
    pub(crate) misses: u64,
    /// States read back and decoded to be expanded.
    pub(crate) restores: u64,
    /// Steps the table held at the end.
    pub(crate) steps: u64,
    /// Bytes the table held at the end.
    pub(crate) bytes: u64,
}

impl StepStats {
    /// Folds the sweep's figures into `reg`: the table's size as gauges,
    /// its lookups and the sweep's restores as counters. Tagged
    /// nondeterministic, like the worker count: they say how the sweep
    /// got its successors — a threaded one keeps no table — not what it
    /// found.
    pub(crate) fn record(&self, reg: &Registry) {
        if !reg.enabled() {
            return;
        }
        reg.gauge_nondet("mc_local_steps", "Steps held by the local-step table of any run")
            .record_max(self.steps);
        reg.gauge_nondet("mc_local_step_bytes", "Bytes held by the local-step table of any run")
            .record_max(self.bytes);
        reg.counter_nondet(
            "mc_local_step_hits_total",
            "Rule groups whose steps came from the table",
        )
        .add(self.hits);
        reg.counter_nondet(
            "mc_local_step_misses_total",
            "Rule groups with a table key that were walked",
        )
        .add(self.misses);
        reg.counter_nondet("mc_sweep_restores_total", "States decoded to be expanded")
            .add(self.restores);
    }
}

/// The table of one sweep, which the sweep consults only where nothing
/// needs the states decoded (`search::drive`).
pub(crate) struct LocalSteps {
    /// Per rule group, what its steps read.
    reads: Vec<Option<GroupReads>>,
    /// Remotes: key positions `1..=remotes`.
    remotes: usize,
    labels: Vec<Label>,
    label_ids: HashMap<Label, u16, FxBuild>,
    /// Pushed messages, by their bytes.
    wire_ids: HashMap<Vec<u8>, u16, FxBuild>,
    /// Push id → (remote, wire id).
    pushes: Vec<(u32, u16)>,
    push_ids: HashMap<(u32, u16), u16, FxBuild>,
    /// The pushes of one home step, as push ids or [`NO_PUSH`], by id.
    push_sets: Vec<[u16; 2]>,
    push_set_ids: HashMap<[u16; 2], u16, FxBuild>,
    /// (remote segment id, wire id) → the segment id after the push.
    memo: HashMap<(u32, u16), u32, FxBuild>,
    /// Per home segment id, where its run starts in `home_steps`.
    home_runs: Vec<u32>,
    home_steps: Vec<HomeStep>,
    /// Per remote segment id and remote `i` (`id * remotes + i`), where
    /// its run starts in `remote_steps`.
    remote_runs: Vec<u32>,
    remote_steps: Vec<RemoteStep>,
    /// Per remote segment id, a `MAIL_*` fact.
    mail: Vec<u8>,
    /// Direct-mapped: `(!key, step)` of a group reading the home and one
    /// remote, packed by [`pack_key`] and [`pack_step`]; all zero when
    /// empty.
    cache: Vec<(u64, u64)>,
    /// The steps of the group being walked, and whether each so far could
    /// be recorded.
    noting: Vec<Noted>,
    recordable: bool,
    pub(crate) stats: StepStats,
}

impl LocalSteps {
    /// An empty table for a sweep of `sys`.
    pub(crate) fn new<T: TransitionSystem>(sys: &T) -> Self {
        let reads: Vec<_> = (0..sys.groups()).map(|g| sys.group_reads(g)).collect();
        let remotes = reads
            .iter()
            .flatten()
            .map(|r| match *r {
                GroupReads::Home => 0,
                GroupReads::HomeAndRemote(i) | GroupReads::Remote(i) => i + 1,
            })
            .max()
            .unwrap_or(0);
        LocalSteps {
            reads,
            remotes,
            labels: Vec::new(),
            label_ids: HashMap::default(),
            wire_ids: HashMap::default(),
            pushes: Vec::new(),
            push_ids: HashMap::default(),
            push_sets: Vec::new(),
            push_set_ids: HashMap::default(),
            memo: HashMap::default(),
            home_runs: Vec::new(),
            home_steps: Vec::new(),
            remote_runs: Vec::new(),
            remote_steps: Vec::new(),
            mail: Vec::new(),
            cache: Vec::new(),
            noting: Vec::new(),
            recordable: false,
            stats: StepStats::default(),
        }
    }

    /// The label of id `id`.
    pub(crate) fn label(&self, id: u16) -> &Label {
        &self.labels[id as usize]
    }

    /// The steps group `group` has at the state whose tuple of segment
    /// ids is `parent`, into `out` (cleared first), when the table holds
    /// them: true on a hit. False — a miss, or a group with no key — and
    /// the group is walked.
    pub(crate) fn lookup(&mut self, group: usize, parent: &[u32], out: &mut Vec<Taken>) -> bool {
        out.clear();
        let Some(reads) = self.reads[group] else { return false };
        let hit = match reads {
            GroupReads::Home => self.home_lookup(parent, out),
            GroupReads::HomeAndRemote(i) => {
                let remote = parent[1 + i];
                match self.mail.get(remote as usize).copied().unwrap_or(MAIL_UNKNOWN) {
                    MAIL_NONE => true,
                    MAIL_SOME => {
                        let key = pack_key(parent[0], i, remote);
                        match key.and_then(|key| self.cached(key)) {
                            Some((label, home, remote)) => {
                                let mut taken = Taken::new(label);
                                taken.write(0, home);
                                taken.write(1 + i, remote);
                                out.push(taken);
                                true
                            }
                            None => false,
                        }
                    }
                    _ => false,
                }
            }
            GroupReads::Remote(i) => {
                let run = self.remote_run(i, parent[1 + i]);
                run_steps(
                    &self.remote_steps,
                    run,
                    |s| s.label,
                    |s| {
                        let mut taken = Taken::new(s.label);
                        taken.write(1 + i, s.remote);
                        out.push(taken);
                    },
                )
            }
        };
        if hit {
            self.stats.hits += 1;
        } else {
            out.clear();
            self.stats.misses += 1;
        }
        hit
    }

    fn home_lookup(&self, parent: &[u32], out: &mut Vec<Taken>) -> bool {
        let run = self.home_runs.get(parent[0] as usize).copied().unwrap_or(UNKNOWN);
        let mut resolved = true;
        let known = run_steps(
            &self.home_steps,
            run,
            |s| s.label,
            |s| {
                let mut taken = Taken::new(s.label);
                taken.write(0, s.home);
                for &push in self.push_sets[s.pushes as usize].iter().filter(|&&p| p != NO_PUSH) {
                    let (j, wire) = self.pushes[push as usize];
                    let pos = 1 + j as usize;
                    match self.memo.get(&memo_key(parent[pos], wire)) {
                        Some(&id) => taken.write(pos, id),
                        None => resolved = false,
                    }
                }
                out.push(taken);
            },
        );
        known && resolved
    }

    fn remote_run(&self, i: usize, remote: u32) -> u32 {
        self.remote_runs.get(self.remote_key(i, remote)).copied().unwrap_or(UNKNOWN)
    }

    /// Where remote `i` at segment `remote` has its run in `remote_runs`.
    #[inline]
    fn remote_key(&self, i: usize, remote: u32) -> usize {
        remote as usize * self.remotes + i
    }

    fn cached(&self, key: u64) -> Option<(u16, u32, u32)> {
        let &(tag, step) = self.cache.get(slot(key))?;
        (tag == !key).then(|| unpack_step(step))
    }

    /// A walk of a group starts: its steps are noted as they come.
    pub(crate) fn begin(&mut self) {
        self.noting.clear();
        self.recordable = true;
    }

    /// The walk of `group` at the state whose ids are `parent` took the
    /// step `label` to the state whose ids are `next`; `remotes` is the
    /// table of remote segments they name. A step off what the group
    /// declares it writes, or past what the table's ids hold, leaves the
    /// group's run unrecorded.
    pub(crate) fn note(
        &mut self,
        group: usize,
        label: &Label,
        parent: &[u32],
        next: &[u32],
        remotes: &StateStore,
    ) {
        if !self.recordable {
            return;
        }
        let noted = self.noted(group, label, parent, next, remotes);
        match noted {
            Some(noted) => self.noting.push(noted),
            None => self.recordable = false,
        }
    }

    fn noted(
        &mut self,
        group: usize,
        label: &Label,
        parent: &[u32],
        next: &[u32],
        remotes: &StateStore,
    ) -> Option<Noted> {
        let reads = self.reads[group]?;
        // Everything outside what the group writes is the parent's; a
        // home step writes any remote, but only by a push.
        let writes = |pos: usize| match reads {
            GroupReads::Home => true,
            GroupReads::HomeAndRemote(i) => pos == 0 || pos == 1 + i,
            GroupReads::Remote(i) => pos == 1 + i,
        };
        if parent.len() != next.len()
            || (0..next.len()).any(|pos| !writes(pos) && next[pos] != parent[pos])
        {
            return None;
        }
        let label = self.label_id(label)?;
        let mut noted = Noted { label, home: next[0], remote: 0, pushes: 0 };
        match reads {
            GroupReads::Home => {
                let mut set = [NO_PUSH; 2];
                let mut pushes = set.iter_mut();
                for pos in (1..next.len()).filter(|&pos| next[pos] != parent[pos]) {
                    let (old, new) =
                        (remotes.key_bytes(parent[pos])?, remotes.key_bytes(next[pos])?);
                    let wire = new.get(old.len()..).filter(|w| !w.is_empty())?;
                    let wire = intern(&mut self.wire_ids, wire, NO_PUSH)?;
                    *pushes.next()? = self.push_id(pos as u32 - 1, wire)?;
                    self.memo.insert(memo_key(parent[pos], wire), next[pos]);
                }
                noted.pushes = self.push_set_id(set)?;
            }
            GroupReads::HomeAndRemote(i) | GroupReads::Remote(i) => noted.remote = next[1 + i],
        }
        Some(noted)
    }

    /// The walk of `group` at the state whose ids are `parent` came to
    /// its end, every step seen: its run is recorded.
    pub(crate) fn commit(&mut self, group: usize, parent: &[u32]) {
        let Some(reads) = self.reads[group] else { return };
        if !self.recordable {
            return;
        }
        match reads {
            GroupReads::Home => {
                let at = parent[0] as usize;
                if self.home_runs.get(at).is_none_or(|&run| run == UNKNOWN) {
                    let steps = self.noting.iter().map(|n| HomeStep {
                        home: n.home,
                        label: n.label,
                        pushes: n.pushes,
                    });
                    let run = push_run(&mut self.home_steps, steps, |s| &mut s.label);
                    set(&mut self.home_runs, at, run, UNKNOWN);
                }
            }
            GroupReads::HomeAndRemote(i) => {
                let remote = parent[1 + i];
                let fact = if self.noting.is_empty() { MAIL_NONE } else { MAIL_SOME };
                set(&mut self.mail, remote as usize, fact, MAIL_UNKNOWN);
                if let [n] = self.noting[..] {
                    if let (Some(key), Some(step)) =
                        (pack_key(parent[0], i, remote), pack_step(n.label, n.home, n.remote))
                    {
                        if self.cache.is_empty() {
                            self.cache = vec![(0, 0); CACHE_SLOTS];
                        }
                        self.cache[slot(key)] = (!key, step);
                    }
                }
            }
            GroupReads::Remote(i) => {
                let at = self.remote_key(i, parent[1 + i]);
                if self.remote_runs.get(at).is_none_or(|&run| run == UNKNOWN) {
                    let steps =
                        self.noting.iter().map(|n| RemoteStep { remote: n.remote, label: n.label });
                    let run = push_run(&mut self.remote_steps, steps, |s| &mut s.label);
                    set(&mut self.remote_runs, at, run, UNKNOWN);
                }
            }
        }
    }

    fn label_id(&mut self, label: &Label) -> Option<u16> {
        let id = intern(&mut self.label_ids, label, LAST)?;
        if id as usize == self.labels.len() {
            self.labels.push(label.clone());
        }
        Some(id)
    }

    fn push_id(&mut self, remote: u32, wire: u16) -> Option<u16> {
        let id = intern(&mut self.push_ids, &(remote, wire), NO_PUSH)?;
        if id as usize == self.pushes.len() {
            self.pushes.push((remote, wire));
        }
        Some(id)
    }

    fn push_set_id(&mut self, set: [u16; 2]) -> Option<u16> {
        let id = intern(&mut self.push_set_ids, &set, u16::MAX)?;
        if id as usize == self.push_sets.len() {
            self.push_sets.push(set);
        }
        Some(id)
    }

    /// The table's figures, its size as it stands.
    pub(crate) fn stats(&self) -> StepStats {
        let cached = self.cache.iter().filter(|&&(tag, _)| tag != 0).count();
        StepStats {
            steps: (self.home_steps.len() + self.remote_steps.len() + cached) as u64,
            bytes: self.bytes() as u64,
            ..self.stats
        }
    }

    /// Bytes held, from the buffers' capacities: a hash map's slots
    /// count with one control byte each.
    fn bytes(&self) -> usize {
        fn vec<V>(v: &Vec<V>) -> usize {
            v.capacity() * std::mem::size_of::<V>()
        }
        fn map<K, V>(m: &HashMap<K, V, FxBuild>) -> usize {
            m.capacity() * (std::mem::size_of::<(K, V)>() + 1)
        }
        vec(&self.labels)
            + map(&self.label_ids)
            + map(&self.wire_ids)
            + vec(&self.pushes)
            + map(&self.push_ids)
            + vec(&self.push_sets)
            + map(&self.push_set_ids)
            + map(&self.memo)
            + vec(&self.home_runs)
            + vec(&self.home_steps)
            + vec(&self.remote_runs)
            + vec(&self.remote_steps)
            + vec(&self.mail)
            + vec(&self.cache)
            + vec(&self.noting)
    }
}

/// The id of `key` in `ids`: its own, or the next one, below `limit`.
fn intern<K, Q>(ids: &mut HashMap<K, u16, FxBuild>, key: &Q, limit: u16) -> Option<u16>
where
    K: Borrow<Q> + Hash + Eq,
    Q: ?Sized + Hash + Eq + ToOwned<Owned = K>,
{
    if let Some(&id) = ids.get(key) {
        return Some(id);
    }
    let id = u16::try_from(ids.len()).ok().filter(|&id| id < limit)?;
    ids.insert(key.to_owned(), id);
    Some(id)
}

/// Calls `each` on every step of the run starting at `run` of `steps`,
/// whose label field says which is last; false when the run is
/// [`UNKNOWN`].
#[inline]
fn run_steps<S: Copy>(
    steps: &[S],
    run: u32,
    label: impl Fn(&S) -> u16,
    mut each: impl FnMut(&S),
) -> bool {
    match run {
        UNKNOWN => false,
        NO_STEPS => true,
        start => {
            for s in &steps[start as usize..] {
                each(s);
                if label(s) & LAST != 0 {
                    break;
                }
            }
            true
        }
    }
}

/// Appends `run` to `steps`, marking its last step, and returns the run's
/// index entry.
fn push_run<S>(
    steps: &mut Vec<S>,
    run: impl Iterator<Item = S>,
    label: impl Fn(&mut S) -> &mut u16,
) -> u32 {
    let start = steps.len();
    steps.extend(run);
    if steps.len() == start {
        return NO_STEPS;
    }
    if let Some(last) = steps.last_mut() {
        *label(last) |= LAST;
    }
    u32::try_from(start).ok().filter(|&s| s < NO_STEPS).unwrap_or(UNKNOWN)
}

/// `v[at] = value`, growing `v` with `fill` to reach it.
fn set<V: Copy>(v: &mut Vec<V>, at: usize, value: V, fill: V) {
    if v.len() <= at {
        v.resize(at + 1, fill);
    }
    v[at] = value;
}

/// A push of wire `wire` onto remote segment `remote`, as the memo keys it.
#[inline]
fn memo_key(remote: u32, wire: u16) -> (u32, u16) {
    (remote, wire)
}

/// A group reading the home and remote `i`, keyed as one word: the home
/// id, and the remote's id and `i` below 2^16 each. `None` past those.
#[inline]
fn pack_key(home: u32, i: usize, remote: u32) -> Option<u64> {
    let (i, remote) = (u16::try_from(i).ok()?, u16::try_from(remote).ok()?);
    Some(u64::from(home) << 32 | u64::from(remote) << 16 | u64::from(i))
}

/// Its step as one word: new home id, new remote id below 2^16, label.
#[inline]
fn pack_step(label: u16, home: u32, remote: u32) -> Option<u64> {
    let remote = u16::try_from(remote).ok()?;
    Some(u64::from(home) << 32 | u64::from(remote) << 16 | u64::from(label))
}

#[inline]
fn unpack_step(step: u64) -> (u16, u32, u32) {
    (step as u16, (step >> 32) as u32, (step >> 16) as u16 as u32)
}

/// The cache slot of `key`.
#[inline]
fn slot(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - CACHE_SLOTS.trailing_zeros())) as usize
}

/// What a [`StepAudit`] saw.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepAuditReport {
    /// Rule groups answered from the table and walked again.
    pub hits: u64,
    /// Steps of those compared.
    pub steps: u64,
    /// Groups whose walk did not give the table's steps.
    pub disagreements: u64,
    /// The first of them.
    pub first: Option<String>,
}

/// A test hook of the sweep
/// ([`Search::step_audit`](crate::search::Search::step_audit)): every
/// rule group the local-step table answers is walked again at the state
/// itself, and each step's label and successor key are compared with
/// the table's. The sweep's reports are the unaudited run's.
#[derive(Debug, Default)]
pub struct StepAudit(Mutex<StepAuditReport>);

impl StepAudit {
    /// An audit that has seen nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// What the audit saw so far.
    pub fn report(&self) -> StepAuditReport {
        self.0.lock().expect("audit lock").clone()
    }

    /// Group `group`'s steps at `state` by the walk: each label and its
    /// successor's key.
    pub(crate) fn walk<T: TransitionSystem>(
        sys: &T,
        state: &T::State,
        scratch: &mut T::State,
        group: usize,
    ) -> Result<Vec<(Label, Vec<u8>)>, String> {
        let mut walked = Vec::new();
        let wanted: &dyn Fn(usize) -> bool = &|g| g == group;
        let visit: &mut DynVisit<'_, T::State> = &mut |_, label, next, _| {
            walked.push((label, sys.encoded(next)));
            ControlFlow::Continue(())
        };
        sys.for_each_successor_in(state, scratch, wanted, visit).map_err(|e| e.to_string())?;
        Ok(walked)
    }

    /// Holds the table's steps for `group` at state `idx` — each label,
    /// and the key its successor was stored under — to `walked`.
    pub(crate) fn check(
        &self,
        idx: u32,
        group: usize,
        walked: Result<Vec<(Label, Vec<u8>)>, String>,
        taken: &[(&Label, Vec<u8>)],
    ) {
        let mut report = self.0.lock().expect("audit lock");
        report.hits += 1;
        report.steps += taken.len() as u64;
        let agree = walked.as_ref().is_ok_and(|walked| {
            walked.len() == taken.len()
                && walked.iter().zip(taken).all(|((l, key), (tl, tkey))| l == *tl && key == tkey)
        });
        if !agree {
            report.disagreements += 1;
            if report.first.is_none() {
                let step = |l: &Label| format!("{}:{}", l.actor, l.rule);
                let taken: Vec<_> = taken.iter().map(|(l, key)| (step(l), key)).collect();
                let walked = walked
                    .as_ref()
                    .map(|w| w.iter().map(|(l, key)| (step(l), key)).collect::<Vec<_>>());
                report.first = Some(format!(
                    "state {idx}, group {group}: the table gave {taken:?}, the walk {walked:?}"
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_words_read_back_and_refuse_what_does_not_fit() {
        let key = pack_key(0xFFFF_FFFE, 7, 0xFFFF).expect("fits");
        assert_ne!(!key, 0, "no key reads as an empty slot");
        assert_eq!(
            unpack_step(pack_step(0x7FFF, 123_456, 65_535).unwrap()),
            (0x7FFF, 123_456, 65_535)
        );
        assert_eq!(pack_key(1, 1 << 16, 0), None);
        assert_eq!(pack_key(1, 0, 1 << 16), None);
        assert_eq!(pack_step(0, 0, 1 << 16), None);
        assert!(slot(u64::MAX) < CACHE_SLOTS && slot(0) < CACHE_SLOTS);
    }

    #[test]
    fn runs_end_at_their_last_step() {
        let mut steps = Vec::new();
        let a = push_run(&mut steps, [RemoteStep { remote: 1, label: 0 }].into_iter(), |s| {
            &mut s.label
        });
        let none = push_run(&mut steps, std::iter::empty(), |s| &mut s.label);
        let b = push_run(
            &mut steps,
            [RemoteStep { remote: 2, label: 1 }, RemoteStep { remote: 3, label: 2 }].into_iter(),
            |s| &mut s.label,
        );
        let read = |run| {
            let mut seen = Vec::new();
            let known = run_steps(&steps, run, |s| s.label, |s| seen.push(s.remote));
            (known, seen)
        };
        assert_eq!(read(a), (true, vec![1]));
        assert_eq!(read(none), (true, vec![]));
        assert_eq!(read(b), (true, vec![2, 3]));
        assert_eq!(read(UNKNOWN), (false, vec![]));
    }
}
