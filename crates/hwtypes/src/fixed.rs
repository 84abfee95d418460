//! Signed fixed-point values for coefficient quantisation.

use crate::sign_extend;
use std::fmt;

/// A signed fixed-point number with a runtime binary point.
///
/// `SFixed` stores a raw integer mantissa together with its total width and
/// the number of fractional bits — the shape in which the SRC's polyphase
/// filter coefficients are held in ROM after quantisation from their `f64`
/// design values.
///
/// # Example
///
/// ```
/// use scflow_hwtypes::SFixed;
///
/// // Quantise 0.5 to a Q1.15 coefficient:
/// let c = SFixed::from_f64(0.5, 16, 15);
/// assert_eq!(c.raw(), 1 << 14);
/// assert!((c.to_f64() - 0.5).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SFixed {
    raw: i64,
    width: u32,
    frac_bits: u32,
}

impl SFixed {
    /// Creates a fixed-point value from a raw mantissa.
    ///
    /// The mantissa is wrapped into the `width`-bit two's-complement range.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 64, or if `frac_bits >= width`
    /// plus sign bit cannot be represented (i.e. `frac_bits > width - 1`).
    pub fn from_raw(raw: i64, width: u32, frac_bits: u32) -> Self {
        assert!((1..=64).contains(&width), "SFixed width must be 1..=64");
        assert!(
            frac_bits < width,
            "frac_bits must leave room for the sign bit"
        );
        SFixed {
            raw: sign_extend(raw as u64, width),
            width,
            frac_bits,
        }
    }

    /// Quantises a real value to the nearest representable fixed-point
    /// value, saturating at the format limits.
    ///
    /// # Panics
    ///
    /// Panics on invalid `width`/`frac_bits` (see [`SFixed::from_raw`]) or a
    /// non-finite `value`.
    pub fn from_f64(value: f64, width: u32, frac_bits: u32) -> Self {
        assert!(value.is_finite(), "cannot quantise a non-finite value");
        assert!((1..=64).contains(&width) && frac_bits < width);
        let scale = (1u64 << frac_bits) as f64;
        let max = ((1i64 << (width - 1)) - 1) as f64;
        let min = -((1i64 << (width - 1)) as f64);
        let scaled = (value * scale).round().clamp(min, max);
        SFixed {
            raw: scaled as i64,
            width,
            frac_bits,
        }
    }

    /// The raw integer mantissa.
    #[inline]
    pub fn raw(&self) -> i64 {
        self.raw
    }

    /// Total width in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of fractional bits.
    #[inline]
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// The represented real value.
    #[inline]
    pub fn to_f64(&self) -> f64 {
        self.raw as f64 / (1u64 << self.frac_bits) as f64
    }

    /// The quantisation step of this format, `2^-frac_bits`.
    #[inline]
    pub fn ulp(&self) -> f64 {
        1.0 / (1u64 << self.frac_bits) as f64
    }

    /// Multiplies two fixed-point values exactly, producing a full-precision
    /// result of `width_a + width_b` bits and summed fractional bits.
    ///
    /// This is the semantics of a hardware multiplier feeding an
    /// accumulator, as used in the SRC's convolution datapath.
    ///
    /// # Panics
    ///
    /// Panics if the result width would exceed 64 bits.
    pub fn mul_full(&self, rhs: &SFixed) -> SFixed {
        let w = self.width + rhs.width;
        assert!(w <= 64, "full-precision product exceeds 64 bits");
        SFixed::from_raw(self.raw * rhs.raw, w, self.frac_bits + rhs.frac_bits)
    }

    /// Rounds toward nearest (ties away from zero) to a narrower format.
    ///
    /// # Panics
    ///
    /// Panics if the target format is invalid or wider in fractional bits
    /// than the source (this helper only discards precision).
    pub fn round_to(&self, width: u32, frac_bits: u32) -> SFixed {
        assert!(frac_bits <= self.frac_bits, "round_to only narrows");
        let drop = self.frac_bits - frac_bits;
        let rounded = if drop == 0 {
            self.raw
        } else {
            let half = 1i64 << (drop - 1);
            let adj = if self.raw >= 0 { half } else { -half };
            (self.raw + adj) >> drop
        };
        SFixed::from_raw(rounded, width, frac_bits)
    }
}

impl fmt::Debug for SFixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SFixed({}, Q{}.{})",
            self.to_f64(),
            self.width - self.frac_bits - 1,
            self.frac_bits
        )
    }
}

impl fmt::Display for SFixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantise_and_back() {
        let c = SFixed::from_f64(0.25, 16, 15);
        assert_eq!(c.raw(), 1 << 13);
        assert_eq!(c.to_f64(), 0.25);
        let n = SFixed::from_f64(-0.25, 16, 15);
        assert_eq!(n.raw(), -(1 << 13));
    }

    #[test]
    fn saturation() {
        let c = SFixed::from_f64(10.0, 16, 15);
        assert_eq!(c.raw(), i16::MAX as i64);
        let n = SFixed::from_f64(-10.0, 16, 15);
        assert_eq!(n.raw(), i16::MIN as i64);
    }

    #[test]
    fn quantisation_error_bounded() {
        let fmt_w = 16;
        let fmt_f = 15;
        for i in 0..100 {
            let v = (i as f64) / 101.0 - 0.5;
            let q = SFixed::from_f64(v, fmt_w, fmt_f);
            assert!((q.to_f64() - v).abs() <= q.ulp() / 2.0 + 1e-12, "value {v}");
        }
    }

    #[test]
    fn full_precision_multiply() {
        let a = SFixed::from_f64(0.5, 16, 15);
        let b = SFixed::from_f64(-0.5, 16, 15);
        let p = a.mul_full(&b);
        assert_eq!(p.width(), 32);
        assert_eq!(p.frac_bits(), 30);
        assert_eq!(p.to_f64(), -0.25);
    }

    #[test]
    fn rounding() {
        let p = SFixed::from_raw(0b110, 8, 2); // 1.5
        let r = p.round_to(8, 0);
        assert_eq!(r.raw(), 2); // ties away from zero
        let n = SFixed::from_raw(-0b110, 8, 2); // -1.5
        assert_eq!(n.round_to(8, 0).raw(), -2);
        let exact = SFixed::from_raw(0b100, 8, 2); // 1.0
        assert_eq!(exact.round_to(8, 1).raw(), 0b10);
    }

    #[test]
    #[should_panic]
    fn non_finite_rejected() {
        let _ = SFixed::from_f64(f64::NAN, 16, 15);
    }

    #[test]
    fn debug_format() {
        let c = SFixed::from_f64(0.5, 16, 15);
        assert_eq!(format!("{c:?}"), "SFixed(0.5, Q0.15)");
    }
}
