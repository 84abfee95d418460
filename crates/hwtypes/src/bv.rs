//! Runtime-width two-valued bit vectors.
//!
//! [`Bv`] is the value type flowing through the RTL interpreter: a payload of
//! up to 64 bits plus an explicit width. All arithmetic wraps modulo
//! `2^width`, exactly like a synthesised datapath of that width.

use crate::{mask, sign_extend, MAX_WIDTH};
use std::fmt;

/// A bit-vector value with a runtime width of 1..=64 bits.
///
/// `Bv` is `Copy` and cheap; it is the unit of data exchanged between nets,
/// registers and expressions in the interpreted RTL simulator.
///
/// # Example
///
/// ```
/// use scflow_hwtypes::Bv;
///
/// let a = Bv::new(0xFF, 8);
/// let b = Bv::new(1, 8);
/// assert_eq!(a.add(b).as_u64(), 0);        // wraps at 8 bits
/// assert_eq!(a.as_i64(), -1);              // signed view
/// assert_eq!(a.zext(12).as_u64(), 0xFF);   // zero extension
/// assert_eq!(a.sext(12).as_u64(), 0xFFF);  // sign extension
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Bv {
    bits: u64,
    width: u32,
}

#[allow(clippy::should_implement_trait)] // fluent IR-style value ops
impl Bv {
    /// Creates a bit vector of `width` bits holding the low `width` bits of
    /// `bits`.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `width > 64`.
    #[inline]
    pub fn new(bits: u64, width: u32) -> Self {
        assert!(
            (1..=MAX_WIDTH).contains(&width),
            "Bv width must be 1..=64, got {width}"
        );
        Bv {
            bits: bits & mask(width),
            width,
        }
    }

    /// Creates a bit vector from a signed value, truncating to `width` bits.
    #[inline]
    pub fn from_i64(value: i64, width: u32) -> Self {
        Bv::new(value as u64, width)
    }

    /// A single-bit vector holding `0` or `1`.
    #[inline]
    pub fn bit(value: bool) -> Self {
        Bv::new(u64::from(value), 1)
    }

    /// The all-zero vector of `width` bits.
    #[inline]
    pub fn zero(width: u32) -> Self {
        Bv::new(0, width)
    }

    /// The all-ones vector of `width` bits.
    #[inline]
    pub fn ones(width: u32) -> Self {
        Bv::new(u64::MAX, width)
    }

    /// The width in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The raw payload, zero-extended to 64 bits.
    #[inline]
    pub fn as_u64(&self) -> u64 {
        self.bits
    }

    /// The payload interpreted as a signed two's-complement number.
    #[inline]
    pub fn as_i64(&self) -> i64 {
        sign_extend(self.bits, self.width)
    }

    /// `true` if any bit is set (the Verilog truthiness of a vector).
    #[inline]
    pub fn any(&self) -> bool {
        self.bits != 0
    }

    /// Returns bit `index` (LSB = 0).
    ///
    /// # Panics
    ///
    /// Panics if `index >= width`.
    #[inline]
    pub fn get(&self, index: u32) -> bool {
        assert!(
            index < self.width,
            "bit {index} out of width {}",
            self.width
        );
        (self.bits >> index) & 1 == 1
    }

    /// Extracts the slice `[hi:lo]` (inclusive) as a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or `hi >= width`.
    #[inline]
    pub fn slice(&self, hi: u32, lo: u32) -> Bv {
        assert!(
            hi >= lo && hi < self.width,
            "bad slice [{hi}:{lo}] of {}",
            self.width
        );
        Bv::new(self.bits >> lo, hi - lo + 1)
    }

    /// Zero-extends (or truncates) to `width` bits.
    #[inline]
    pub fn zext(&self, width: u32) -> Bv {
        Bv::new(self.bits, width)
    }

    /// Sign-extends (or truncates) to `width` bits.
    #[inline]
    pub fn sext(&self, width: u32) -> Bv {
        Bv::from_i64(self.as_i64(), width)
    }

    /// Concatenates `self` above `low`: result is `{self, low}`.
    ///
    /// # Panics
    ///
    /// Panics if the combined width exceeds 64 bits.
    #[inline]
    pub fn concat(&self, low: Bv) -> Bv {
        let w = self.width + low.width;
        assert!(w <= MAX_WIDTH, "concat width {w} exceeds 64");
        Bv::new((self.bits << low.width) | low.bits, w)
    }

    /// Wrapping addition at the width of `self`.
    #[inline]
    pub fn add(&self, rhs: Bv) -> Bv {
        Bv::new(self.bits.wrapping_add(rhs.bits), self.width)
    }

    /// Wrapping subtraction at the width of `self`.
    #[inline]
    pub fn sub(&self, rhs: Bv) -> Bv {
        Bv::new(self.bits.wrapping_sub(rhs.bits), self.width)
    }

    /// Wrapping multiplication at the width of `self`.
    #[inline]
    pub fn mul(&self, rhs: Bv) -> Bv {
        Bv::new(self.bits.wrapping_mul(rhs.bits), self.width)
    }

    /// Signed wrapping multiplication at the width of `self`.
    #[inline]
    pub fn mul_signed(&self, rhs: Bv) -> Bv {
        Bv::from_i64(self.as_i64().wrapping_mul(rhs.as_i64()), self.width)
    }

    /// Two's-complement negation at the width of `self`.
    #[inline]
    pub fn neg(&self) -> Bv {
        Bv::new(self.bits.wrapping_neg(), self.width)
    }

    /// Bitwise NOT.
    #[inline]
    pub fn not(&self) -> Bv {
        Bv::new(!self.bits, self.width)
    }

    /// Bitwise AND.
    #[inline]
    pub fn and(&self, rhs: Bv) -> Bv {
        Bv::new(self.bits & rhs.bits, self.width)
    }

    /// Bitwise OR.
    #[inline]
    pub fn or(&self, rhs: Bv) -> Bv {
        Bv::new(self.bits | rhs.bits, self.width)
    }

    /// Bitwise XOR.
    #[inline]
    pub fn xor(&self, rhs: Bv) -> Bv {
        Bv::new(self.bits ^ rhs.bits, self.width)
    }

    /// Logical shift left by `amount` (zeros shifted in, result truncated).
    #[inline]
    pub fn shl(&self, amount: u32) -> Bv {
        if amount >= 64 {
            Bv::zero(self.width)
        } else {
            Bv::new(self.bits << amount, self.width)
        }
    }

    /// Logical shift right by `amount`.
    #[inline]
    pub fn shr(&self, amount: u32) -> Bv {
        if amount >= 64 {
            Bv::zero(self.width)
        } else {
            Bv::new(self.bits >> amount, self.width)
        }
    }

    /// Arithmetic (sign-preserving) shift right by `amount`.
    #[inline]
    pub fn sar(&self, amount: u32) -> Bv {
        let v = self.as_i64() >> amount.min(63);
        Bv::from_i64(v, self.width)
    }

    /// Unsigned comparison `self < rhs`.
    #[inline]
    pub fn lt(&self, rhs: Bv) -> bool {
        self.bits < rhs.bits
    }

    /// Signed comparison `self < rhs`.
    #[inline]
    pub fn lt_signed(&self, rhs: Bv) -> bool {
        self.as_i64() < rhs.as_i64()
    }
}

impl fmt::Debug for Bv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'h{:x}", self.width, self.bits)
    }
}

impl fmt::Display for Bv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'h{:x}", self.width, self.bits)
    }
}

impl fmt::LowerHex for Bv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.bits, f)
    }
}

impl fmt::Binary for Bv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.bits, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_masks() {
        assert_eq!(Bv::new(0x1FF, 8).as_u64(), 0xFF);
        assert_eq!(Bv::new(u64::MAX, 64).as_u64(), u64::MAX);
        assert_eq!(Bv::from_i64(-1, 4).as_u64(), 0xF);
    }

    #[test]
    #[should_panic]
    fn zero_width_rejected() {
        let _ = Bv::new(0, 0);
    }

    #[test]
    fn signed_view() {
        assert_eq!(Bv::new(0b1000, 4).as_i64(), -8);
        assert_eq!(Bv::new(0b0111, 4).as_i64(), 7);
    }

    #[test]
    fn arithmetic_wraps() {
        let a = Bv::new(0xFF, 8);
        assert_eq!(a.add(Bv::new(2, 8)).as_u64(), 1);
        assert_eq!(Bv::new(0, 8).sub(Bv::new(1, 8)).as_u64(), 0xFF);
        assert_eq!(Bv::new(16, 8).mul(Bv::new(16, 8)).as_u64(), 0);
        assert_eq!(Bv::new(1, 8).neg().as_u64(), 0xFF);
    }

    #[test]
    fn signed_multiply() {
        let a = Bv::from_i64(-3, 8);
        let b = Bv::from_i64(5, 8);
        assert_eq!(a.mul_signed(b).as_i64(), -15);
    }

    #[test]
    fn slicing_and_concat() {
        let v = Bv::new(0b1010_1100, 8);
        assert_eq!(v.slice(7, 4).as_u64(), 0b1010);
        assert_eq!(v.slice(3, 0).as_u64(), 0b1100);
        assert_eq!(v.slice(7, 4).concat(v.slice(3, 0)), v);
        assert!(v.get(2));
        assert!(!v.get(0));
    }

    #[test]
    fn extensions() {
        let v = Bv::new(0b1000, 4);
        assert_eq!(v.zext(8).as_u64(), 0b1000);
        assert_eq!(v.sext(8).as_u64(), 0b1111_1000);
        // truncation
        assert_eq!(Bv::new(0x1FF, 16).zext(8).as_u64(), 0xFF);
    }

    #[test]
    fn shifts() {
        let v = Bv::new(0b0110, 4);
        assert_eq!(v.shl(1).as_u64(), 0b1100);
        assert_eq!(v.shl(2).as_u64(), 0b1000);
        assert_eq!(v.shr(1).as_u64(), 0b0011);
        assert_eq!(Bv::new(0b1000, 4).sar(1).as_u64(), 0b1100);
        assert_eq!(v.shl(70).as_u64(), 0);
        assert_eq!(v.shr(70).as_u64(), 0);
    }

    #[test]
    fn comparisons() {
        let minus_one = Bv::from_i64(-1, 4);
        let one = Bv::new(1, 4);
        assert!(one.lt(minus_one)); // unsigned: 1 < 15
        assert!(minus_one.lt_signed(one)); // signed: -1 < 1
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Bv::new(0xAB, 8)), "8'hab");
        assert_eq!(format!("{:?}", Bv::bit(true)), "1'h1");
    }
}
