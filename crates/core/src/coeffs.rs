//! Polyphase filter design and the halved-symmetric coefficient ROM.

use crate::config::SrcConfig;

/// Designs the prototype lowpass as a Kaiser-windowed sinc, quantised to
/// Q1.14, with the global gain normalised so that the per-phase DC gain is
/// close to one and no phase overflows.
///
/// The prototype is symmetric (`h[i] == h[N-1-i]`), which is what lets the
/// hardware store only half of it — the paper: *"the iterator of the
/// polyphase filter hides the storage order of the coefficients and the
/// fact that only one half of the symmetrical impulse response is
/// stored"*.
pub fn design_prototype(cfg: &SrcConfig) -> Vec<i16> {
    let n = SrcConfig::prototype_len();
    let phases = SrcConfig::PHASES as f64;
    // Cutoff at the lower Nyquist frequency, normalised to the
    // phase-upsampled rate; a little margin for the transition band.
    let ratio = f64::from(cfg.in_rate.min(cfg.out_rate)) / f64::from(cfg.in_rate);
    let fc = 0.45 * ratio / phases;
    let beta = 8.0;

    let mid = (n as f64 - 1.0) / 2.0;
    let mut h: Vec<f64> = (0..n)
        .map(|i| {
            let x = i as f64 - mid;
            let sinc = if x.abs() < 1e-12 {
                1.0
            } else {
                (2.0 * std::f64::consts::PI * fc * x).sin() / (std::f64::consts::PI * x)
            };
            let w = kaiser(beta, x / (n as f64 / 2.0));
            sinc * w
        })
        .collect();

    // Normalise: the worst-case per-phase sum must fit Q1.14 and DC gain
    // per phase should be ~1.
    let mut max_phase_sum = 0.0f64;
    for p in 0..SrcConfig::PHASES {
        let s: f64 = (0..SrcConfig::TAPS)
            .map(|k| h[k * SrcConfig::PHASES + p])
            .sum();
        max_phase_sum = max_phase_sum.max(s.abs());
    }
    let scale = 1.0 / max_phase_sum;
    for v in &mut h {
        *v *= scale;
    }

    let q = (1i64 << SrcConfig::COEF_FRAC_BITS) as f64;
    let max = i64::from(i16::MAX);
    let min = i64::from(i16::MIN);
    let quantised: Vec<i16> = h
        .iter()
        .map(|&v| ((v * q).round() as i64).clamp(min, max) as i16)
        .collect();

    // Force exact symmetry after quantisation (rounding can break ties).
    let mut out = quantised;
    for i in 0..n / 2 {
        out[n - 1 - i] = out[i];
    }
    out
}

fn kaiser(beta: f64, x: f64) -> f64 {
    if x.abs() > 1.0 {
        return 0.0;
    }
    bessel_i0(beta * (1.0 - x * x).sqrt()) / bessel_i0(beta)
}

/// Modified Bessel function of the first kind, order zero (power series).
fn bessel_i0(x: f64) -> f64 {
    let mut sum = 1.0;
    let mut term = 1.0;
    let half = x / 2.0;
    for k in 1..40 {
        term *= (half / k as f64) * (half / k as f64);
        sum += term;
        if term < 1e-18 * sum {
            break;
        }
    }
    sum
}

/// The halved coefficient ROM: phases `0..PHASES/2`, each with `TAPS`
/// coefficients; the upper phases are derived by symmetry at read time.
///
/// # Example
///
/// ```
/// use scflow::{CoefficientRom, SrcConfig};
///
/// let rom = CoefficientRom::design(&SrcConfig::cd_to_dvd());
/// assert_eq!(rom.words().len(), 256); // 16 phases x 16 taps stored
/// // Symmetry: phase p tap k == phase 31-p tap 15-k.
/// assert_eq!(rom.coefficient(3, 5), rom.coefficient(28, 10));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoefficientRom {
    words: Vec<i16>,
}

impl CoefficientRom {
    /// Designs the prototype and extracts the stored half.
    pub fn design(cfg: &SrcConfig) -> Self {
        let proto = design_prototype(cfg);
        CoefficientRom::from_prototype(&proto)
    }

    /// Builds the ROM from a symmetric prototype of
    /// [`SrcConfig::prototype_len`] coefficients.
    ///
    /// # Panics
    ///
    /// Panics if the length is wrong or the prototype is not symmetric.
    pub fn from_prototype(proto: &[i16]) -> Self {
        let n = SrcConfig::prototype_len();
        assert_eq!(proto.len(), n, "prototype length");
        for i in 0..n / 2 {
            assert_eq!(proto[i], proto[n - 1 - i], "prototype must be symmetric");
        }
        let mut words = Vec::with_capacity(n / 2);
        for p in 0..SrcConfig::PHASES / 2 {
            for k in 0..SrcConfig::TAPS {
                words.push(proto[k * SrcConfig::PHASES + p]);
            }
        }
        CoefficientRom { words }
    }

    /// The stored half (`PHASES/2 * TAPS` words), phase-major.
    pub fn words(&self) -> &[i16] {
        &self.words
    }

    /// The ROM address holding `coefficient(phase, tap)` — the address
    /// arithmetic the hardware implements (symmetry folded in).
    ///
    /// # Panics
    ///
    /// Panics if `phase` or `tap` is out of range.
    pub fn address(phase: u32, tap: u32) -> u32 {
        assert!((phase as usize) < SrcConfig::PHASES);
        assert!((tap as usize) < SrcConfig::TAPS);
        let half = SrcConfig::PHASES as u32 / 2;
        let (p, k) = if phase < half {
            (phase, tap)
        } else {
            (
                SrcConfig::PHASES as u32 - 1 - phase,
                SrcConfig::TAPS as u32 - 1 - tap,
            )
        };
        p * SrcConfig::TAPS as u32 + k
    }

    /// Coefficient for `(phase, tap)`, resolving the halved storage.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn coefficient(&self, phase: u32, tap: u32) -> i16 {
        self.words[Self::address(phase, tap) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_is_symmetric_and_sized() {
        let proto = design_prototype(&SrcConfig::cd_to_dvd());
        assert_eq!(proto.len(), 512);
        for i in 0..256 {
            assert_eq!(proto[i], proto[511 - i]);
        }
    }

    #[test]
    fn per_phase_gain_close_to_unity() {
        let cfg = SrcConfig::cd_to_dvd();
        let proto = design_prototype(&cfg);
        let q = (1i64 << SrcConfig::COEF_FRAC_BITS) as f64;
        for p in 0..SrcConfig::PHASES {
            let s: i64 = (0..SrcConfig::TAPS)
                .map(|k| i64::from(proto[k * SrcConfig::PHASES + p]))
                .sum();
            let gain = s as f64 / q;
            assert!((0.80..=1.001).contains(&gain), "phase {p} gain {gain}");
        }
    }

    #[test]
    fn rom_matches_prototype_through_symmetry() {
        let cfg = SrcConfig::cd_to_dvd();
        let proto = design_prototype(&cfg);
        let rom = CoefficientRom::from_prototype(&proto);
        for p in 0..SrcConfig::PHASES as u32 {
            for k in 0..SrcConfig::TAPS as u32 {
                assert_eq!(
                    rom.coefficient(p, k),
                    proto[k as usize * SrcConfig::PHASES + p as usize],
                    "phase {p} tap {k}"
                );
            }
        }
    }

    #[test]
    fn rom_size_is_half() {
        let rom = CoefficientRom::design(&SrcConfig::cd_to_dvd());
        assert_eq!(rom.words().len(), SrcConfig::prototype_len() / 2);
    }

    #[test]
    fn no_coefficient_saturates() {
        let rom = CoefficientRom::design(&SrcConfig::dvd_to_cd());
        assert!(rom.words().iter().all(|&c| c > i16::MIN && c < i16::MAX));
    }

    #[test]
    fn bessel_sanity() {
        assert!((bessel_i0(0.0) - 1.0).abs() < 1e-12);
        // I0(1) = 1.2660658...
        assert!((bessel_i0(1.0) - 1.266_065_877_752_008).abs() < 1e-9);
    }
}
