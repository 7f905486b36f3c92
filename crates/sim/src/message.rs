//! Message types of the DBFT binary consensus (paper Fig. 1 + Alg. 1).

use std::fmt;

/// A process identifier (`p₀ … pₙ₋₁`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcessId(pub usize);

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A set of binary values — the type of `contestants` and `qualifiers`
/// in Algorithm 1.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct ValueSet {
    bits: u8,
}

impl ValueSet {
    /// The empty set.
    pub fn empty() -> ValueSet {
        ValueSet::default()
    }

    /// The singleton `{v}`.
    ///
    /// # Panics
    ///
    /// Panics if `v > 1`.
    pub fn singleton(v: u8) -> ValueSet {
        let mut s = ValueSet::empty();
        s.insert(v);
        s
    }

    /// The full set `{0, 1}`.
    pub fn both() -> ValueSet {
        ValueSet { bits: 0b11 }
    }

    /// Inserts a value.
    ///
    /// # Panics
    ///
    /// Panics if `v > 1`.
    pub fn insert(&mut self, v: u8) {
        assert!(v <= 1, "binary value");
        self.bits |= 1 << v;
    }

    /// Whether `v` is in the set.
    pub fn contains(&self, v: u8) -> bool {
        v <= 1 && self.bits & (1 << v) != 0
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Whether `self ⊆ other`.
    pub fn subset_of(&self, other: &ValueSet) -> bool {
        self.bits & !other.bits == 0
    }

    /// Set union.
    pub fn union(&self, other: &ValueSet) -> ValueSet {
        ValueSet {
            bits: self.bits | other.bits,
        }
    }

    /// The single element, if the set is a singleton.
    pub fn as_singleton(&self) -> Option<u8> {
        match self.bits {
            0b01 => Some(0),
            0b10 => Some(1),
            _ => None,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Iterates over the values in the set.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        (0..=1).filter(|&v| self.contains(v))
    }
}

impl fmt::Display for ValueSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for v in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

/// A protocol message payload. Every message is tagged with its round
/// (the algorithms are communication-closed, §2 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Payload {
    /// `(BV, ⟨v, i⟩)` — a binary-value-broadcast message (Fig. 1).
    Bv {
        /// The round whose bv-broadcast instance this belongs to.
        round: u64,
        /// The binary value.
        value: u8,
    },
    /// `(aux, ⟨contestants, i⟩)` — the auxiliary message of Alg. 1,
    /// line 8.
    Aux {
        /// The round.
        round: u64,
        /// The sender's `contestants` snapshot.
        values: ValueSet,
    },
}

impl Payload {
    /// The round the payload belongs to.
    pub fn round(&self) -> u64 {
        match self {
            Payload::Bv { round, .. } | Payload::Aux { round, .. } => *round,
        }
    }
}

/// A message in flight.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Envelope {
    /// Sender.
    pub from: ProcessId,
    /// Receiver.
    pub to: ProcessId,
    /// Payload.
    pub payload: Payload,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_set_operations() {
        let mut s = ValueSet::empty();
        assert!(s.is_empty());
        s.insert(0);
        assert!(s.contains(0));
        assert!(!s.contains(1));
        assert_eq!(s.as_singleton(), Some(0));
        s.insert(1);
        assert_eq!(s, ValueSet::both());
        assert_eq!(s.as_singleton(), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn subset_and_union() {
        let zero = ValueSet::singleton(0);
        let both = ValueSet::both();
        assert!(zero.subset_of(&both));
        assert!(!both.subset_of(&zero));
        assert!(ValueSet::empty().subset_of(&zero));
        assert_eq!(zero.union(&ValueSet::singleton(1)), both);
    }

    #[test]
    fn display() {
        assert_eq!(ValueSet::both().to_string(), "{0,1}");
        assert_eq!(ValueSet::singleton(1).to_string(), "{1}");
        assert_eq!(ValueSet::empty().to_string(), "{}");
    }

    #[test]
    #[should_panic(expected = "binary value")]
    fn non_binary_rejected() {
        ValueSet::singleton(2);
    }
}
