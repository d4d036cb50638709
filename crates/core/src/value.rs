//! Runtime values and variable environments.
//!
//! The value domain is deliberately small — the paper's protocols carry
//! either no payload, a node identity (the requester recorded by the home
//! node), or an abstract "data" token which we model as a small integer so
//! the model checker can verify data integrity with a bounded state space.

use crate::encode::{Identity, Renaming, Sink};
use crate::ids::RemoteId;
use crate::inline::InlineVec;
use std::fmt;

/// A runtime value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Value {
    /// The unit value (message with no payload).
    #[default]
    Unit,
    /// A boolean.
    Bool(bool),
    /// A small integer; used to model cache-line data abstractly.
    Int(i64),
    /// A node identity (e.g. the `o` owner variable of the migratory home).
    Node(RemoteId),
    /// A set of remote nodes as a bitmask (e.g. the sharer set of a
    /// write-invalidate directory). Supports up to 64 remotes.
    Mask(u64),
}

impl Value {
    /// Interprets the value as a boolean, if it is one.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Interprets the value as an integer, if it is one.
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(i),
            _ => None,
        }
    }

    /// Interprets the value as a node id, if it is one.
    pub fn as_node(self) -> Option<RemoteId> {
        match self {
            Value::Node(n) => Some(n),
            _ => None,
        }
    }

    /// Interprets the value as a node-set mask, if it is one.
    pub fn as_mask(self) -> Option<u64> {
        match self {
            Value::Mask(m) => Some(m),
            _ => None,
        }
    }

    /// Bit mask of the remotes `0..n` in a [`Value::Mask`], saturating
    /// at all-ones for `n >= 64`.
    pub fn remote_bits(n: usize) -> u64 {
        if n >= 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    /// The value with its remotes renamed by `perm` (`perm[i]` = new
    /// index of remote `i`): a node identity moves to its new index, the
    /// mask bits below `perm.len()` are permuted (higher bits pass
    /// through), everything else is untouched.
    pub fn renamed(self, perm: &[usize]) -> Value {
        let n = perm.len();
        match self {
            Value::Node(r) if r.index() < n => Value::Node(RemoteId(perm[r.index()] as u32)),
            Value::Mask(m) => {
                let mut out = m & !Self::remote_bits(n);
                for (b, &p) in perm.iter().enumerate() {
                    if m & (1u64 << b) != 0 {
                        out |= 1u64 << p;
                    }
                }
                Value::Mask(out)
            }
            other => other,
        }
    }

    /// Compact byte encoding used by the model checker's state store.
    #[inline]
    pub fn encode(self, out: &mut impl Sink) {
        self.encode_renamed(&Identity, out);
    }

    /// [`Value::encode`] of `ren.value(self)`. This is the one place the
    /// byte layout of a value is written down.
    ///
    /// Every value has exactly one encoding, its shortest: an `Int` in
    /// `i8` range, a `Node` or a `Mask` below 256 take a tag and one byte
    /// (the small forms are the common ones — data values, remote ids,
    /// sharer sets of up to eight remotes), and only larger ones take the
    /// long forms. [`Value::decode`] refuses a long form of a value that
    /// has a short one, so equal values are equal bytes and a state has
    /// one store key.
    // Always inlined, like every encoder below a system's: a sink handed
    // to an out-of-line callee has to live in memory, and its cursor is
    // then stored and reloaded around every call (measured: 13% of
    // `encode_into` on migratory n=4).
    #[inline(always)]
    pub fn encode_renamed(self, ren: &impl Renaming, out: &mut impl Sink) {
        match ren.value(self) {
            Value::Unit => out.put(0),
            Value::Bool(false) => out.put(1),
            Value::Bool(true) => out.put(2),
            Value::Int(i) => match i8::try_from(i) {
                Ok(b) => {
                    out.put(6);
                    out.put(b as u8);
                }
                Err(_) => {
                    out.put(3);
                    out.put_all(&i.to_le_bytes());
                }
            },
            Value::Node(n) => match u8::try_from(n.0) {
                Ok(b) => {
                    out.put(7);
                    out.put(b);
                }
                Err(_) => {
                    out.put(4);
                    out.put_all(&(n.0 as u16).to_le_bytes());
                }
            },
            Value::Mask(m) => match u8::try_from(m) {
                Ok(b) => {
                    out.put(8);
                    out.put(b);
                }
                Err(_) => {
                    out.put(5);
                    out.put_all(&m.to_le_bytes());
                }
            },
        }
    }

    /// Inverse of [`Value::encode`]: reads one value from the front of
    /// `bytes`, returning it and the number of bytes consumed, or `None`
    /// when the input is truncated, carries an unknown tag, or holds the
    /// long form of a value that has a short one (not an encoding
    /// [`Value::encode`] writes).
    pub fn decode(bytes: &[u8]) -> Option<(Value, usize)> {
        fn take<const N: usize>(bytes: &[u8]) -> Option<[u8; N]> {
            bytes.get(1..1 + N)?.try_into().ok()
        }
        let byte = || bytes.get(1).copied();
        let (v, used) = match *bytes.first()? {
            0 => (Value::Unit, 1),
            1 => (Value::Bool(false), 1),
            2 => (Value::Bool(true), 1),
            3 => (Value::Int(i64::from_le_bytes(take::<8>(bytes)?)), 9),
            4 => (Value::Node(RemoteId(u16::from_le_bytes(take::<2>(bytes)?) as u32)), 3),
            5 => (Value::Mask(u64::from_le_bytes(take::<8>(bytes)?)), 9),
            6 => (Value::Int(byte()? as i8 as i64), 2),
            7 => (Value::Node(RemoteId(byte()? as u32)), 2),
            8 => (Value::Mask(byte()? as u64), 2),
            _ => return None,
        };
        let long_form_of_short = match v {
            Value::Int(i) => used > 2 && i8::try_from(i).is_ok(),
            Value::Node(n) => used > 2 && n.0 < 256,
            Value::Mask(m) => used > 2 && m < 256,
            _ => false,
        };
        (!long_form_of_short).then_some((v, used))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Node(n) => write!(f, "{n}"),
            Value::Mask(m) => write!(f, "{{0b{m:b}}}"),
        }
    }
}

/// Variable slots an [`Env`] holds inline. The widest shipped process is
/// the `update.ccp` home with six variables (every remote has at most one);
/// a wider process spills to the heap and pays one allocation per copy.
pub const ENV_INLINE: usize = 6;

/// A variable environment: one value slot per declared variable of a process.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Env {
    slots: InlineVec<Value, ENV_INLINE>,
}

impl Env {
    /// Creates an environment from initial values.
    pub fn new(initial: Vec<Value>) -> Self {
        initial.into_iter().collect()
    }

    /// Reads variable `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<Value> {
        self.slots.get(idx).copied()
    }

    /// Writes variable `idx`. Returns `false` if out of range.
    #[inline]
    pub fn set(&mut self, idx: usize, v: Value) -> bool {
        match self.slots.get_mut(idx) {
            Some(slot) => {
                *slot = v;
                true
            }
            None => false,
        }
    }

    /// Number of variable slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the environment has no variables.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterates over the values.
    pub fn values(&self) -> impl Iterator<Item = Value> + '_ {
        self.slots.iter().copied()
    }

    /// Compact byte encoding used by the model checker's state store.
    #[inline]
    pub fn encode(&self, out: &mut impl Sink) {
        self.encode_renamed(&Identity, out);
    }

    /// [`Env::encode`] with every value renamed by `ren`.
    #[inline(always)]
    pub fn encode_renamed(&self, ren: &impl Renaming, out: &mut impl Sink) {
        for v in self.values() {
            v.encode_renamed(ren, out);
        }
    }

    /// Inverse of [`Env::encode`] for an environment of exactly `n`
    /// variables: reads `n` values from the front of `bytes` into this
    /// environment, replacing its slots (nothing is allocated while `n`
    /// fits inline), and returns the number of bytes consumed — or `None`
    /// when the input is truncated or corrupt, with the slots unspecified.
    /// The slot count is not part of the encoding — it comes from the
    /// process declaration, which the caller holds.
    pub fn decode_into(&mut self, bytes: &[u8], n: usize) -> Option<usize> {
        self.slots.clear();
        let mut off = 0;
        for _ in 0..n {
            let (v, used) = Value::decode(bytes.get(off..)?)?;
            self.slots.push(v);
            off += used;
        }
        Some(off)
    }
}

impl FromIterator<Value> for Env {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Self { slots: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_accessor_and_encoding() {
        assert_eq!(Value::Mask(0b101).as_mask(), Some(0b101));
        assert_eq!(Value::Int(1).as_mask(), None);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        Value::Mask(1).encode(&mut a);
        Value::Mask(2).encode(&mut b);
        assert_ne!(a, b);
        assert_eq!(Value::Mask(0b101).to_string(), "{0b101}");
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Node(RemoteId(2)).as_node(), Some(RemoteId(2)));
        assert_eq!(Value::Unit.as_bool(), None);
        assert_eq!(Value::Bool(true).as_int(), None);
        assert_eq!(Value::Int(1).as_node(), None);
    }

    #[test]
    fn env_get_set() {
        let mut e = Env::new(vec![Value::Int(0), Value::Unit]);
        assert_eq!(e.get(0), Some(Value::Int(0)));
        assert!(e.set(0, Value::Int(5)));
        assert_eq!(e.get(0), Some(Value::Int(5)));
        assert!(!e.set(9, Value::Unit));
        assert_eq!(e.get(9), None);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn value_encodings_are_distinct() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        Value::Bool(false).encode(&mut a);
        Value::Bool(true).encode(&mut b);
        assert_ne!(a, b);

        a.clear();
        b.clear();
        Value::Int(1).encode(&mut a);
        Value::Node(RemoteId(1)).encode(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn every_variant_reads_back_from_its_bytes() {
        let values = [
            Value::Unit,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(0),
            Value::Int(-128),
            Value::Int(127),
            Value::Int(1 << 40),
            Value::Int(i64::MIN),
            Value::Node(RemoteId(0)),
            Value::Node(RemoteId(255)),
            Value::Node(RemoteId(256)),
            Value::Node(RemoteId(65535)),
            Value::Mask(0),
            Value::Mask(255),
            Value::Mask(256),
            Value::Mask(u64::MAX),
        ];
        for v in values {
            let mut bytes = Vec::new();
            v.encode(&mut bytes);
            assert_eq!(Value::decode(&bytes), Some((v, bytes.len())), "{v:?}");
        }
        let env = Env::new(values.to_vec());
        let mut bytes = Vec::new();
        env.encode(&mut bytes);
        let mut back = Env::new(Vec::new());
        assert_eq!(back.decode_into(&bytes, values.len()), Some(bytes.len()));
        assert_eq!(back, env);
    }

    #[test]
    fn each_value_has_one_encoding_its_shortest() {
        let bytes = |v: Value| {
            let mut b = Vec::new();
            v.encode(&mut b);
            b
        };
        assert_eq!(bytes(Value::Node(RemoteId(3))), [7, 3]);
        assert_eq!(bytes(Value::Node(RemoteId(256))), [4, 0, 1]);
        assert_eq!(bytes(Value::Mask(0b101)), [8, 5]);
        assert_eq!(bytes(Value::Mask(256)).len(), 9);
        assert_eq!(bytes(Value::Int(-1)), [6, 0xFF]);
        // The long forms of values that have short ones decode to nothing.
        for long in [
            vec![4, 3, 0],
            vec![4, 255, 0],
            vec![5, 5, 0, 0, 0, 0, 0, 0, 0],
            vec![3, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF],
            vec![3, 127, 0, 0, 0, 0, 0, 0, 0],
        ] {
            assert_eq!(Value::decode(&long), None, "{long:?}");
        }
        for v in [Value::Node(RemoteId(256)), Value::Mask(256), Value::Int(128), Value::Int(-129)] {
            assert_eq!(Value::decode(&bytes(v)), Some((v, bytes(v).len())));
        }
    }

    #[test]
    fn renamed_moves_nodes_and_mask_bits() {
        let perm = [2usize, 0, 1];
        assert_eq!(Value::Node(RemoteId(0)).renamed(&perm), Value::Node(RemoteId(2)));
        assert_eq!(Value::Mask(0b011).renamed(&perm), Value::Mask(0b101));
        assert_eq!(Value::Int(7).renamed(&perm), Value::Int(7));
        // Names and bits past the remote count pass through.
        assert_eq!(Value::Node(RemoteId(3)).renamed(&perm), Value::Node(RemoteId(3)));
        assert_eq!(Value::Mask(0b1000).renamed(&perm), Value::Mask(0b1000));
    }

    #[test]
    fn env_encoding_reflects_contents() {
        let e1 = Env::new(vec![Value::Int(1)]);
        let e2 = Env::new(vec![Value::Int(2)]);
        let (mut b1, mut b2) = (Vec::new(), Vec::new());
        e1.encode(&mut b1);
        e2.encode(&mut b2);
        assert_ne!(b1, b2);
    }
}
