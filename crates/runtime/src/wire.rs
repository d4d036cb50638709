//! Wire messages and the reliable in-order point-to-point network.
//!
//! The paper's communication model (§2.2): the network delivers messages
//! reliably and in order between each pair of nodes. The paper assumes
//! infinite buffering; for explicit-state model checking we bound each link
//! and *check* (rather than assume) that the bound is never exceeded — an
//! overflow surfaces as [`crate::RuntimeError::LinkOverflow`].

use ccr_core::encode::{Identity, Renaming, Sink, ID_MAX_ENCODED_LEN};
use ccr_core::ids::MsgType;
use ccr_core::ids::{ProcessId, RemoteId};
use ccr_core::inline::InlineVec;
use ccr_core::value::{Env, Value};
use serde::{Serialize, Serializer};

/// A message on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Wire {
    /// A request for rendezvous carrying the message type and payload.
    /// Optimized replies (`gr`, `ID`) also travel as `Req`s — their special
    /// status is a property of the receiver's state, not of the wire format.
    Req {
        /// The message type requested.
        msg: MsgType,
        /// Payload, if the rendezvous carries one.
        val: Option<Value>,
    },
    /// Positive acknowledgment: the rendezvous completed. (Also the
    /// filler of a [`Link`]'s unused inline slots, where it is never read.)
    #[default]
    Ack,
    /// Negative acknowledgment: the rendezvous failed; retransmit.
    Nack,
}

/// Encodes an optional payload as a presence flag and the value renamed
/// by `ren` — the form shared by wire requests, a remote's parked message
/// and the home's buffered requests.
#[inline(always)]
pub(crate) fn encode_payload(val: Option<Value>, ren: &impl Renaming, out: &mut impl Sink) {
    match val {
        Some(v) => {
            out.put(1);
            v.encode_renamed(ren, out);
        }
        None => out.put(0),
    }
}

impl Wire {
    /// True for `Req`.
    pub fn is_req(&self) -> bool {
        matches!(self, Wire::Req { .. })
    }

    /// The request's message type, if a request.
    pub fn req_msg(&self) -> Option<MsgType> {
        match self {
            Wire::Req { msg, .. } => Some(*msg),
            _ => None,
        }
    }

    /// Compact byte encoding for the state store.
    #[inline]
    pub fn encode(&self, out: &mut impl Sink) {
        self.encode_renamed(&Identity, out);
    }

    /// Upper bound on the encoded size of any wire message: a `Req` with
    /// a payload takes tag + msg + flag + one value.
    pub const MAX_ENCODED_LEN: usize = 3 + Value::MAX_ENCODED_LEN;

    /// [`Wire::encode`] with the payload renamed by `ren`.
    #[inline(always)]
    pub fn encode_renamed(&self, ren: &impl Renaming, out: &mut impl Sink) {
        match self {
            Wire::Req { msg, val } => {
                out.put(1);
                out.put(msg.0 as u8);
                encode_payload(*val, ren, out);
            }
            Wire::Ack => out.put(2),
            Wire::Nack => out.put(3),
        }
    }

    /// Inverse of [`Wire::encode`]: reads one message from the front of
    /// `bytes`, returning it and the number of bytes consumed.
    ///
    /// Truncated or corrupt input is a structured
    /// [`RuntimeError::Decode`](crate::RuntimeError::Decode), never a
    /// panic — decode sits on the boundary where bytes from a state store
    /// or an external tool re-enter typed code.
    pub fn decode(bytes: &[u8]) -> crate::Result<(Wire, usize)> {
        use crate::RuntimeError::Decode;
        let tag = *bytes.first().ok_or(Decode { detail: "empty input", offset: 0 })?;
        match tag {
            1 => {
                let msg =
                    *bytes.get(1).ok_or(Decode { detail: "missing message type", offset: 1 })?;
                let flag =
                    *bytes.get(2).ok_or(Decode { detail: "missing payload flag", offset: 2 })?;
                match flag {
                    0 => Ok((Wire::Req { msg: MsgType(msg as u32), val: None }, 3)),
                    1 => {
                        let (val, used) = Value::decode(&bytes[3..])
                            .ok_or(Decode { detail: "bad payload value", offset: 3 })?;
                        Ok((Wire::Req { msg: MsgType(msg as u32), val: Some(val) }, 3 + used))
                    }
                    _ => Err(Decode { detail: "bad payload flag", offset: 2 }),
                }
            }
            2 => Ok((Wire::Ack, 1)),
            3 => Ok((Wire::Nack, 1)),
            _ => Err(Decode { detail: "unknown wire tag", offset: 0 }),
        }
    }

    /// Short wire-format name for trace events: `"Req"`, `"Ack"` or
    /// `"Nack"`.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Wire::Req { .. } => "Req",
            Wire::Ack => "Ack",
            Wire::Nack => "Nack",
        }
    }
}

/// Messages a [`Link`] holds inline. No state of `invalidate.ccp` at n = 3
/// (636,456 of them) has more than two messages in flight on one link, and
/// every inline slot is copied with every successor; a fuller link
/// (`link_capacity` defaults to 4, the fault layer duplicates) spills to
/// the heap.
pub const LINK_INLINE: usize = 2;

/// One direction of a point-to-point link: a bounded FIFO queue.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Link {
    queue: InlineVec<Wire, LINK_INLINE>,
}

impl Link {
    /// Creates an empty link.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the link.
    pub fn clear(&mut self) {
        self.queue.clear();
    }

    /// Appends a message; the caller enforces the capacity bound.
    pub fn push(&mut self, w: Wire) {
        self.queue.push(w);
    }

    /// Removes and returns the head message.
    pub fn pop(&mut self) -> Option<Wire> {
        self.remove_at(0)
    }

    /// Peeks at the head message.
    pub fn head(&self) -> Option<&Wire> {
        self.queue.first()
    }

    /// Queue length.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if no messages are in flight.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Iterates over in-flight messages in delivery order.
    pub fn iter(&self) -> impl Iterator<Item = &Wire> {
        self.queue.iter()
    }

    /// Whether any in-flight message satisfies `pred`.
    pub fn any(&self, pred: impl FnMut(&Wire) -> bool) -> bool {
        self.queue.iter().any(pred)
    }

    /// The message at queue position `i` (0 = head), if in range.
    pub fn get(&self, i: usize) -> Option<&Wire> {
        self.queue.get(i)
    }

    /// Inserts a message at queue position `i ≤ len`, shifting later
    /// messages back. Used by the fault layer to resequence a recovered
    /// message into its original FIFO position.
    pub fn insert(&mut self, i: usize, w: Wire) {
        self.queue.insert(i, w);
    }

    /// Removes and returns the message at queue position `i`, if in range.
    /// Used by the fault layer to drop an in-flight message.
    pub fn remove_at(&mut self, i: usize) -> Option<Wire> {
        (i < self.queue.len()).then(|| self.queue.remove(i))
    }

    /// Swaps the messages at positions `i` and `j` (a reorder fault).
    pub fn swap(&mut self, i: usize, j: usize) {
        self.queue.swap(i, j);
    }

    /// Compact byte encoding for the state store.
    #[inline]
    pub fn encode(&self, out: &mut impl Sink) {
        self.encode_renamed(&Identity, out);
    }

    /// Upper bound on the encoded size of a link that never exceeds
    /// `capacity` in-flight messages (the checker errors with
    /// [`crate::RuntimeError::LinkOverflow`] before a fuller link is
    /// ever encoded).
    pub const fn max_encoded_len(capacity: usize) -> usize {
        1 + capacity * Wire::MAX_ENCODED_LEN
    }

    /// [`Link::encode`] with every payload renamed by `ren` (FIFO order
    /// kept — in-order delivery is semantic).
    #[inline(always)]
    pub fn encode_renamed(&self, ren: &impl Renaming, out: &mut impl Sink) {
        out.put(self.queue.len() as u8);
        for w in &self.queue {
            w.encode_renamed(ren, out);
        }
    }

    /// Inverse of [`Link::encode`]: reads one link from the front of
    /// `bytes` into this link, replacing its queue (nothing is allocated
    /// while the messages fit inline), and returns the number of bytes
    /// consumed. Truncated or corrupt input is a structured error, never a
    /// panic, and leaves the queue unspecified.
    pub fn decode_into(&mut self, bytes: &[u8]) -> crate::Result<usize> {
        use crate::RuntimeError::Decode;
        let len = *bytes.first().ok_or(Decode { detail: "missing link length", offset: 0 })?;
        self.clear();
        let mut off = 1;
        for _ in 0..len {
            let rest = bytes.get(off..).ok_or(Decode { detail: "truncated link", offset: off })?;
            let (w, used) = Wire::decode(rest)?;
            self.queue.push(w);
            off += used;
        }
        Ok(off)
    }
}

/// A cursor over encoded bytes; every `take` is `None` past the end.
pub(crate) struct Reader<'b> {
    bytes: &'b [u8],
    off: usize,
}

impl<'b> Reader<'b> {
    pub(crate) fn new(bytes: &'b [u8]) -> Self {
        Reader { bytes, off: 0 }
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.off)?;
        self.off += 1;
        Some(b)
    }

    pub(crate) fn u16(&mut self) -> Option<u16> {
        let b: [u8; 2] = self.bytes.get(self.off..self.off + 2)?.try_into().ok()?;
        self.off += 2;
        Some(u16::from_le_bytes(b))
    }

    /// An id as [`Sink::put_id`] writes it; `None` past the end, past
    /// [`ID_MAX_ENCODED_LEN`] bytes, or on a longer form of an id that
    /// has a shorter one (a last byte of 0 after the first).
    pub(crate) fn id(&mut self) -> Option<u32> {
        let mut id = 0;
        for shift in (0..ID_MAX_ENCODED_LEN as u32).map(|i| 7 * i) {
            let b = self.u8()?;
            id |= u32::from(b & 0x7F) << shift;
            if b < 0x80 {
                return (shift == 0 || b != 0).then_some(id);
            }
        }
        None
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        let b: [u8; 4] = self.bytes.get(self.off..self.off + 4)?.try_into().ok()?;
        self.off += 4;
        Some(u32::from_le_bytes(b))
    }

    pub(crate) fn wire(&mut self) -> Option<Wire> {
        let (w, used) = Wire::decode(self.rest()).ok()?;
        self.off += used;
        Some(w)
    }

    /// The unread bytes.
    fn rest(&self) -> &'b [u8] {
        self.bytes.get(self.off..).unwrap_or_default()
    }

    pub(crate) fn at_end(&self) -> bool {
        self.off == self.bytes.len()
    }

    /// An optional payload: a presence flag, then the value.
    pub(crate) fn payload(&mut self) -> Option<Option<Value>> {
        match self.u8()? {
            0 => Some(None),
            1 => {
                let (v, used) = Value::decode(self.rest())?;
                self.off += used;
                Some(Some(v))
            }
            _ => None,
        }
    }

    pub(crate) fn env(&mut self, env: &mut Env, vars: usize) -> Option<()> {
        self.off += env.decode_into(self.rest(), vars)?;
        Some(())
    }

    pub(crate) fn link(&mut self, link: &mut Link) -> Option<()> {
        self.off += link.decode_into(self.rest()).ok()?;
        Some(())
    }
}

/// Per-link occupancy high-water bookkeeping for the star topology.
///
/// The paper *assumes* infinitely buffered links; the executor bounds them
/// and checks the bound. `Network` records the highest occupancy each
/// directed link ever reached during a run, making the margin of the
/// [`crate::RuntimeError::LinkOverflow`] assumption observable instead of
/// binary (overflowed / didn't).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Network {
    /// High-water marks of the `remote i → home` links, indexed by `i`.
    to_home: Vec<u32>,
    /// High-water marks of the `home → remote i` links, indexed by `i`.
    to_remote: Vec<u32>,
}

impl Network {
    /// Empty bookkeeper; links are discovered lazily as they are observed.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(side: &mut Vec<u32>, i: usize) -> &mut u32 {
        if side.len() <= i {
            side.resize(i + 1, 0);
        }
        &mut side[i]
    }

    /// Records an observed occupancy of the directed link `from → to`.
    /// Links between two remotes do not exist in the star topology and are
    /// ignored.
    pub fn observe(&mut self, from: ProcessId, to: ProcessId, occupancy: u32) {
        let slot = match (from, to) {
            (ProcessId::Remote(r), ProcessId::Home) => Self::slot(&mut self.to_home, r.index()),
            (ProcessId::Home, ProcessId::Remote(r)) => Self::slot(&mut self.to_remote, r.index()),
            _ => return,
        };
        *slot = (*slot).max(occupancy);
    }

    /// The recorded high-water mark for `from → to` (0 if never observed).
    pub fn high_water(&self, from: ProcessId, to: ProcessId) -> u32 {
        match (from, to) {
            (ProcessId::Remote(r), ProcessId::Home) => {
                self.to_home.get(r.index()).copied().unwrap_or(0)
            }
            (ProcessId::Home, ProcessId::Remote(r)) => {
                self.to_remote.get(r.index()).copied().unwrap_or(0)
            }
            _ => 0,
        }
    }

    /// The maximum high-water mark over all links.
    pub fn max_high_water(&self) -> u32 {
        self.to_home.iter().chain(self.to_remote.iter()).copied().max().unwrap_or(0)
    }

    /// Iterates over `(from, to, high_water)` for every observed link.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, ProcessId, u32)> + '_ {
        let up = self
            .to_home
            .iter()
            .enumerate()
            .map(|(i, &hw)| (ProcessId::Remote(RemoteId(i as u32)), ProcessId::Home, hw));
        let down = self
            .to_remote
            .iter()
            .enumerate()
            .map(|(i, &hw)| (ProcessId::Home, ProcessId::Remote(RemoteId(i as u32)), hw));
        up.chain(down)
    }

    /// True when no link was ever observed.
    pub fn is_empty(&self) -> bool {
        self.to_home.is_empty() && self.to_remote.is_empty()
    }
}

/// Serializes as a flat object keyed by `"from->to"`, e.g.
/// `{"h->r0":2,"r0->h":1}`.
impl Serialize for Network {
    fn serialize(&self, s: &mut Serializer) {
        let mut entries: Vec<(String, u32)> =
            self.iter().map(|(from, to, hw)| (format!("{from}->{to}"), hw)).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut m = s.begin_map();
        for (k, hw) in &entries {
            m.entry(k, hw);
        }
        m.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_is_fifo() {
        let mut l = Link::new();
        assert!(l.is_empty());
        l.push(Wire::Ack);
        l.push(Wire::Nack);
        assert_eq!(l.len(), 2);
        assert_eq!(l.head(), Some(&Wire::Ack));
        assert_eq!(l.pop(), Some(Wire::Ack));
        assert_eq!(l.pop(), Some(Wire::Nack));
        assert_eq!(l.pop(), None);
    }

    #[test]
    fn wire_helpers() {
        let r = Wire::Req { msg: MsgType(3), val: Some(Value::Int(1)) };
        assert!(r.is_req());
        assert_eq!(r.req_msg(), Some(MsgType(3)));
        assert!(!Wire::Ack.is_req());
        assert_eq!(Wire::Nack.req_msg(), None);
    }

    #[test]
    fn encodings_distinguish_messages() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        Wire::Req { msg: MsgType(0), val: None }.encode(&mut a);
        Wire::Req { msg: MsgType(1), val: None }.encode(&mut b);
        assert_ne!(a, b);
        a.clear();
        Wire::Ack.encode(&mut a);
        b.clear();
        Wire::Nack.encode(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn network_high_water_tracks_maxima() {
        let r0 = ProcessId::Remote(RemoteId(0));
        let r2 = ProcessId::Remote(RemoteId(2));
        let h = ProcessId::Home;
        let mut net = Network::new();
        assert!(net.is_empty());
        net.observe(r0, h, 1);
        net.observe(r0, h, 3);
        net.observe(r0, h, 2);
        net.observe(h, r2, 4);
        net.observe(r0, r2, 99); // no remote-remote links in the star
        assert_eq!(net.high_water(r0, h), 3);
        assert_eq!(net.high_water(h, r2), 4);
        assert_eq!(net.high_water(h, r0), 0);
        assert_eq!(net.max_high_water(), 4);
        assert_eq!(net.iter().count(), 4, "r0..r2 downlinks materialized");
    }

    #[test]
    fn network_serializes_as_sorted_link_map() {
        let mut net = Network::new();
        net.observe(ProcessId::Remote(RemoteId(0)), ProcessId::Home, 2);
        net.observe(ProcessId::Home, ProcessId::Remote(RemoteId(0)), 1);
        assert_eq!(serde::json::to_string(&net), "{\"h->r0\":1,\"r0->h\":2}");
    }

    #[test]
    fn wire_decode_roundtrips_and_reports_offsets() {
        let wires = [
            Wire::Req { msg: MsgType(3), val: Some(Value::Int(1)) },
            Wire::Req { msg: MsgType(0), val: Some(Value::Node(RemoteId(2))) },
            Wire::Req { msg: MsgType(7), val: None },
            Wire::Ack,
            Wire::Nack,
        ];
        for w in wires {
            let mut buf = Vec::new();
            w.encode(&mut buf);
            assert_eq!(Wire::decode(&buf).unwrap(), (w, buf.len()));
        }
        // Truncations and corruptions are structured errors, not panics.
        assert!(matches!(Wire::decode(&[]), Err(crate::RuntimeError::Decode { offset: 0, .. })));
        assert!(matches!(
            Wire::decode(&[1, 3]),
            Err(crate::RuntimeError::Decode { offset: 2, .. })
        ));
        assert!(matches!(
            Wire::decode(&[1, 3, 9]),
            Err(crate::RuntimeError::Decode { offset: 2, .. })
        ));
        assert!(matches!(
            Wire::decode(&[1, 3, 1, 255]),
            Err(crate::RuntimeError::Decode { offset: 3, .. })
        ));
        assert!(Wire::decode(&[99]).is_err());
    }

    #[test]
    fn ids_read_back_and_longer_forms_are_refused() {
        for id in 0..1u32 << 16 {
            let mut buf = Vec::new();
            buf.put_id(id);
            let mut r = Reader::new(&buf);
            assert_eq!(r.id(), Some(id));
            assert!(r.at_end());
        }
        // 5 written as two and three bytes; four bytes; a truncated form.
        for bad in [&[0x85, 0][..], &[0x85, 0x80, 0], &[0x80, 0x80, 0x80, 1], &[0x80]] {
            assert_eq!(Reader::new(bad).id(), None, "{bad:?}");
        }
    }

    #[test]
    fn link_positional_ops() {
        let mut l = Link::new();
        l.push(Wire::Ack);
        l.push(Wire::Nack);
        l.insert(1, Wire::Req { msg: MsgType(1), val: None });
        assert_eq!(l.get(1).unwrap().req_msg(), Some(MsgType(1)));
        l.swap(0, 2);
        assert_eq!(l.head(), Some(&Wire::Nack));
        assert_eq!(l.remove_at(1), Some(Wire::Req { msg: MsgType(1), val: None }));
        assert_eq!(l.remove_at(5), None);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn link_any_and_iter() {
        let mut l = Link::new();
        l.push(Wire::Req { msg: MsgType(5), val: None });
        l.push(Wire::Ack);
        assert!(l.any(|w| w.req_msg() == Some(MsgType(5))));
        assert!(!l.any(|w| w.req_msg() == Some(MsgType(6))));
        assert_eq!(l.iter().count(), 2);
    }
}
