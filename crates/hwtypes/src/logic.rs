//! Four-valued logic (`0`, `1`, `X`, `Z`) for gate-level simulation.

use crate::Bv;
use std::fmt;

/// A four-valued logic level, mirroring `sc_logic` / IEEE 1164's core values.
///
/// * `Zero` / `One` — driven binary values,
/// * `X` — unknown (conflict or uninitialised),
/// * `Z` — high impedance (undriven).
///
/// Gate evaluation uses the usual pessimistic tables: any `X` or `Z` input
/// yields `X` unless a controlling value decides the output (e.g.
/// `0 AND X = 0`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Logic {
    /// Driven low.
    Zero,
    /// Driven high.
    One,
    /// Unknown.
    #[default]
    X,
    /// High impedance.
    Z,
}

#[allow(clippy::should_implement_trait)] // four-valued `not`, deliberately inherent
impl Logic {
    /// Converts a `bool` to a driven logic level.
    #[inline]
    pub fn from_bool(b: bool) -> Self {
        if b {
            Logic::One
        } else {
            Logic::Zero
        }
    }

    /// `Some(bool)` when driven, `None` for `X`/`Z`.
    #[inline]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Logic::Zero => Some(false),
            Logic::One => Some(true),
            Logic::X | Logic::Z => None,
        }
    }

    /// `true` when the value is `0` or `1`.
    #[inline]
    pub fn is_known(self) -> bool {
        matches!(self, Logic::Zero | Logic::One)
    }

    /// Four-valued AND: `0` is controlling.
    #[inline]
    pub fn and(self, rhs: Logic) -> Logic {
        use Logic::*;
        match (self, rhs) {
            (Zero, _) | (_, Zero) => Zero,
            (One, One) => One,
            _ => X,
        }
    }

    /// Four-valued OR: `1` is controlling.
    #[inline]
    pub fn or(self, rhs: Logic) -> Logic {
        use Logic::*;
        match (self, rhs) {
            (One, _) | (_, One) => One,
            (Zero, Zero) => Zero,
            _ => X,
        }
    }

    /// Four-valued XOR: any unknown input makes the output unknown.
    #[inline]
    pub fn xor(self, rhs: Logic) -> Logic {
        match (self.to_bool(), rhs.to_bool()) {
            (Some(a), Some(b)) => Logic::from_bool(a ^ b),
            _ => Logic::X,
        }
    }

    /// Four-valued NOT.
    #[inline]
    pub fn not(self) -> Logic {
        match self {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
            _ => Logic::X,
        }
    }

    /// Wired resolution of two drivers on the same net.
    ///
    /// `Z` yields to any driver; conflicting driven values resolve to `X`.
    #[inline]
    pub fn resolve(self, rhs: Logic) -> Logic {
        use Logic::*;
        match (self, rhs) {
            (Z, v) | (v, Z) => v,
            (a, b) if a == b => a,
            _ => X,
        }
    }

    /// The character used in trace output (`0`, `1`, `x`, `z`).
    #[inline]
    pub fn to_char(self) -> char {
        match self {
            Logic::Zero => '0',
            Logic::One => '1',
            Logic::X => 'x',
            Logic::Z => 'z',
        }
    }
}

impl From<bool> for Logic {
    fn from(b: bool) -> Self {
        Logic::from_bool(b)
    }
}

impl fmt::Debug for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

/// A vector of four-valued logic levels (`sc_lv<W>` analogue), LSB first.
///
/// Used at the boundary between the two-valued RTL world ([`Bv`]) and the
/// four-valued gate-level simulator.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct LogicVec {
    bits: Vec<Logic>,
}

impl LogicVec {
    /// Creates a vector of `width` unknown (`X`) bits.
    pub fn unknown(width: usize) -> Self {
        LogicVec {
            bits: vec![Logic::X; width],
        }
    }

    /// Creates a vector from a two-valued bit vector.
    pub fn from_bv(value: Bv) -> Self {
        let bits = (0..value.width())
            .map(|i| Logic::from_bool(value.get(i)))
            .collect();
        LogicVec { bits }
    }

    /// The width in bits.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// Returns bit `index` (LSB = 0).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn get(&self, index: usize) -> Logic {
        self.bits[index]
    }

    /// Sets bit `index` (LSB = 0).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set(&mut self, index: usize, value: Logic) {
        self.bits[index] = value;
    }

    /// `true` when every bit is driven (`0` or `1`).
    pub fn is_known(&self) -> bool {
        self.bits.iter().all(|b| b.is_known())
    }

    /// Converts to a two-valued vector if every bit is known.
    pub fn to_bv(&self) -> Option<Bv> {
        if self.bits.is_empty() || self.bits.len() > 64 {
            return None;
        }
        let mut raw = 0u64;
        for (i, b) in self.bits.iter().enumerate() {
            match b.to_bool() {
                Some(true) => raw |= 1 << i,
                Some(false) => {}
                None => return None,
            }
        }
        Some(Bv::new(raw, self.bits.len() as u32))
    }

    /// Iterates over the bits, LSB first.
    pub fn iter(&self) -> std::slice::Iter<'_, Logic> {
        self.bits.iter()
    }
}

impl FromIterator<Logic> for LogicVec {
    fn from_iter<I: IntoIterator<Item = Logic>>(iter: I) -> Self {
        LogicVec {
            bits: iter.into_iter().collect(),
        }
    }
}

impl fmt::Debug for LogicVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // MSB-first, like waveform viewers print vectors.
        write!(f, "{}'b", self.bits.len())?;
        for b in self.bits.iter().rev() {
            write!(f, "{}", b.to_char())?;
        }
        Ok(())
    }
}

impl fmt::Display for LogicVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_truth_table() {
        use Logic::*;
        assert_eq!(Zero.and(X), Zero);
        assert_eq!(X.and(Zero), Zero);
        assert_eq!(One.and(One), One);
        assert_eq!(One.and(X), X);
        assert_eq!(Z.and(One), X);
    }

    #[test]
    fn or_truth_table() {
        use Logic::*;
        assert_eq!(One.or(X), One);
        assert_eq!(X.or(One), One);
        assert_eq!(Zero.or(Zero), Zero);
        assert_eq!(Zero.or(X), X);
        assert_eq!(Z.or(Zero), X);
    }

    #[test]
    fn xor_and_not() {
        use Logic::*;
        assert_eq!(One.xor(Zero), One);
        assert_eq!(One.xor(One), Zero);
        assert_eq!(One.xor(X), X);
        assert_eq!(X.not(), X);
        assert_eq!(Z.not(), X);
        assert_eq!(Zero.not(), One);
    }

    #[test]
    fn resolution() {
        use Logic::*;
        assert_eq!(Z.resolve(One), One);
        assert_eq!(Zero.resolve(Z), Zero);
        assert_eq!(One.resolve(Zero), X);
        assert_eq!(One.resolve(One), One);
        assert_eq!(Z.resolve(Z), Z);
    }

    #[test]
    fn vec_roundtrip() {
        let v = Bv::new(0b1011, 4);
        let lv = LogicVec::from_bv(v);
        assert!(lv.is_known());
        assert_eq!(lv.to_bv(), Some(v));
        assert_eq!(format!("{lv:?}"), "4'b1011");
    }

    #[test]
    fn vec_with_unknowns() {
        let mut lv = LogicVec::unknown(3);
        assert!(!lv.is_known());
        assert_eq!(lv.to_bv(), None);
        lv.set(0, Logic::One);
        lv.set(1, Logic::Zero);
        lv.set(2, Logic::One);
        assert_eq!(lv.to_bv().map(|b| b.as_u64()), Some(0b101));
    }

    #[test]
    fn vec_collect() {
        let lv: LogicVec = [Logic::One, Logic::Zero].into_iter().collect();
        assert_eq!(lv.width(), 2);
        assert_eq!(lv.get(0), Logic::One);
    }
}
