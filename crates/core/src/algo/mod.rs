//! Level 0: the algorithmic model (the paper's C++ golden model).
//!
//! Mirrors the structure of the paper's Figure 3: a ring-buffer class with
//! pointer-like iterators ([`InputBuffer`]), a polyphase-coefficient class
//! whose iterator hides the halved symmetric storage
//! ([`PolyphaseFilter`]), and a free [`filter`] function that consumes
//! both iterators — deliberately a member of neither class, because "the
//! filter needs the samples from the input buffer in the same way it needs
//! the coefficients of the polyphase filter".

mod input_buffer;
mod polyphase;

pub use input_buffer::{InputBuffer, SampleIter};
pub use polyphase::{CoefIter, PolyphaseFilter};

use crate::config::SrcConfig;

/// One output sample: the convolution of the most recent samples with the
/// selected phase's impulse response.
///
/// Free function by design (see the module docs). The accumulator is
/// 36-bit exact; the result is the accumulator arithmetically shifted by
/// the coefficient fraction bits and truncated to 16 bits — the exact
/// semantics every refinement level reproduces.
pub fn filter(samples: SampleIter<'_>, coefs: CoefIter<'_>) -> i16 {
    let mut acc: i64 = 0;
    for (x, c) in samples.zip(coefs) {
        acc += i64::from(x) * i64::from(c);
    }
    // Keep the accumulator within the declared hardware width, then scale.
    let acc = wrap_to(acc, SrcConfig::ACC_BITS);
    (acc >> SrcConfig::COEF_FRAC_BITS) as i16
}

/// Wraps `v` into `bits`-bit two's complement (hardware truncation).
#[inline]
pub(crate) fn wrap_to(v: i64, bits: u32) -> i64 {
    let shift = 64 - bits;
    (v << shift) >> shift
}

/// The complete algorithmic sample-rate converter (golden model).
///
/// See the [crate-level quickstart](crate) for usage.
#[derive(Clone, Debug)]
pub struct AlgoSrc {
    cfg: SrcConfig,
    buffer: InputBuffer,
    coefs: PolyphaseFilter,
    acc: u32,
    /// Input samples carried between `process` calls (streaming support).
    carry: Vec<i16>,
    /// When `true`, the ring-buffer read path reproduces the golden-model
    /// corner-case bug the paper describes (an out-of-range raw buffer
    /// index that every simulator silently wraps — see
    /// [`InputBuffer::raw_index_mode`]).
    buggy: bool,
}

impl AlgoSrc {
    /// Creates a converter for the given configuration.
    pub fn new(cfg: &SrcConfig) -> Self {
        AlgoSrc {
            cfg: cfg.clone(),
            buffer: InputBuffer::new(),
            coefs: PolyphaseFilter::design(cfg),
            acc: 0,
            carry: Vec::new(),
            buggy: false,
        }
    }

    /// Enables the injected golden-model bug (for the bug-escape
    /// experiment).
    pub fn with_buffer_bug(mut self) -> Self {
        self.buggy = true;
        self.buffer.raw_index_mode(true);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &SrcConfig {
        &self.cfg
    }

    /// Pushes one input sample into the ring buffer.
    pub fn push_input(&mut self, sample: i16) {
        self.buffer.push(sample);
    }

    /// Produces the next output sample, telling the caller how many input
    /// samples it must supply first.
    ///
    /// Split API used by the event-driven models; most callers want
    /// [`process`](AlgoSrc::process).
    pub fn inputs_needed(&self) -> u32 {
        let (_, consume, _) = self.cfg.advance(self.acc);
        consume
    }

    /// Computes one output sample after the caller pushed
    /// [`inputs_needed`](AlgoSrc::inputs_needed) samples.
    pub fn output_sample(&mut self) -> i16 {
        let (acc, _, phase) = self.cfg.advance(self.acc);
        self.acc = acc;
        filter(self.buffer.iter_recent(), self.coefs.iter_phase(phase))
    }

    /// Runs the converter over an input block, producing all output
    /// samples whose required inputs are available.
    ///
    /// Streaming-safe: any trailing samples that cannot yet be consumed
    /// are carried over to the next call, so processing a stream in
    /// arbitrary chunks produces exactly the same output as one batch
    /// call.
    pub fn process(&mut self, input: &[i16]) -> Vec<i16> {
        self.carry.extend_from_slice(input);
        let mut out = Vec::new();
        let mut pos = 0usize;
        loop {
            let need = self.inputs_needed() as usize;
            if pos + need > self.carry.len() {
                break;
            }
            for i in pos..pos + need {
                self.buffer.push(self.carry[i]);
            }
            pos += need;
            out.push(self.output_sample());
        }
        self.carry.drain(..pos);
        out
    }

    /// Raw (pre-wrap) buffer indices observed while the injected bug is
    /// active; empty unless [`with_buffer_bug`](AlgoSrc::with_buffer_bug)
    /// was used. An index `>= SrcConfig::BUFFER` is the invalid access the
    /// paper's gate-level checking memory finally caught.
    pub fn raw_indices_seen(&self) -> Vec<u32> {
        self.buffer.raw_indices()
    }
}

/// A stereo pair of converters, as the car-multimedia hardware instantiates
/// them: left and right channels through independent SRC cores that share
/// one coefficient design.
///
/// # Example
///
/// ```
/// use scflow::{SrcConfig, algo::StereoSrc, stimulus};
///
/// let mut src = StereoSrc::new(&SrcConfig::cd_to_dvd());
/// let l = stimulus::sine(441, 997.0, 44_100.0, 9_000.0);
/// let r = stimulus::sine(441, 1499.0, 44_100.0, 9_000.0);
/// let (l48, r48) = src.process(&l, &r);
/// assert_eq!(l48.len(), r48.len());
/// ```
#[derive(Clone, Debug)]
pub struct StereoSrc {
    left: AlgoSrc,
    right: AlgoSrc,
}

impl StereoSrc {
    /// Creates a stereo converter pair for one configuration.
    pub fn new(cfg: &SrcConfig) -> Self {
        StereoSrc {
            left: AlgoSrc::new(cfg),
            right: AlgoSrc::new(cfg),
        }
    }

    /// Converts a block of each channel (streaming-safe, like
    /// [`AlgoSrc::process`]). Both channels always produce the same number
    /// of output samples because they share the accumulator schedule.
    pub fn process(&mut self, left: &[i16], right: &[i16]) -> (Vec<i16>, Vec<i16>) {
        (self.left.process(left), self.right.process(right))
    }

    /// The left-channel converter.
    pub fn left(&self) -> &AlgoSrc {
        &self.left
    }

    /// The right-channel converter.
    pub fn right(&self) -> &AlgoSrc {
        &self.right
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_count_tracks_rate_ratio() {
        let mut src = AlgoSrc::new(&SrcConfig::cd_to_dvd());
        let input: Vec<i16> = vec![0; 4410];
        let out = src.process(&input);
        // 4410 inputs at 44.1k = 0.1 s = ~4800 outputs at 48k.
        assert!((out.len() as i64 - 4800).abs() <= 2, "{}", out.len());
    }

    #[test]
    fn dc_signal_passes_with_unit_gain() {
        let mut src = AlgoSrc::new(&SrcConfig::cd_to_dvd());
        let input: Vec<i16> = vec![10000; 500];
        let out = src.process(&input);
        // After the filter settles, DC should pass with gain ~1 (within
        // coefficient quantisation).
        let settled = &out[100..];
        for &s in settled {
            assert!(
                (i32::from(s) - 10000).abs() < 2100,
                "DC sample {s} deviates"
            );
        }
        // Average should be closer than the per-sample bound.
        let avg: f64 = settled.iter().map(|&s| f64::from(s)).sum::<f64>() / settled.len() as f64;
        assert!((avg - 10000.0).abs() < 2000.0, "avg {avg}");
    }

    #[test]
    fn split_api_matches_process() {
        let cfg = SrcConfig::dvd_to_cd();
        let input: Vec<i16> = (0..500).map(|i| (i * 37 % 20011) as i16).collect();
        let mut a = AlgoSrc::new(&cfg);
        let batch = a.process(&input);

        let mut b = AlgoSrc::new(&cfg);
        let mut out = Vec::new();
        let mut pos = 0usize;
        loop {
            let need = b.inputs_needed() as usize;
            if pos + need > input.len() {
                break;
            }
            for &s in &input[pos..pos + need] {
                b.push_input(s);
            }
            pos += need;
            out.push(b.output_sample());
        }
        assert_eq!(batch, out);
    }

    #[test]
    fn buggy_variant_is_bit_identical_but_observes_invalid_indices() {
        let cfg = SrcConfig::dvd_to_cd(); // downsampling hits the corner
        let input: Vec<i16> = (0..4800)
            .map(|i| ((i * 131) % 9973) as i16 - 4000)
            .collect();
        let clean = AlgoSrc::new(&cfg).process(&input);
        let mut buggy_src = AlgoSrc::new(&cfg).with_buffer_bug();
        let buggy = buggy_src.process(&input);
        // The paper's point: simulation results stay correct...
        assert_eq!(clean, buggy);
        // ...but invalid raw addresses were issued.
        assert!(
            buggy_src.raw_indices_seen().iter().any(|&i| i >= 24),
            "corner case should produce an out-of-range raw index"
        );
    }

    #[test]
    fn wrap_to_behaves_like_hardware_truncation() {
        assert_eq!(wrap_to((1 << 35) - 1, 36), (1 << 35) - 1); // max fits
        assert_eq!(wrap_to(-1, 36), -1);
        assert_eq!(wrap_to(1 << 35, 36), -(1i64 << 35)); // overflow wraps
        assert_eq!(wrap_to((1 << 36) + 5, 36), 5);
    }
}
