//! Toggle coverage: which bits of which nets ever rose and fell.

use crate::metrics::MetricsRegistry;

/// Per-item detail is exported into a [`MetricsRegistry`] only up to
/// this many items; beyond it (large gate netlists) only the
/// aggregates go in, flagged by `<prefix>.detail_omitted`.
const DETAIL_LIMIT: usize = 512;

/// Cycle-boundary toggle-coverage collector.
///
/// Tracks, for a fixed list of items (RTL nets or gate cell outputs,
/// each up to 64 bits wide), which bits have been observed rising and
/// falling between consecutive samples, plus a total flip count per
/// item. A bit is *covered* once it has done both.
///
/// Sampling happens once per clock cycle on settled values, so any two
/// engines that agree on per-cycle settled state produce byte-identical
/// [`report`](ToggleCoverage::report)s — glitches under an event-driven
/// delay model deliberately don't count. Four-valued engines pass a
/// `known` mask; transitions are only counted between two known
/// samples of a bit, which keeps X-handling engine-independent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ToggleCoverage {
    names: Vec<String>,
    widths: Vec<u32>,
    prev_val: Vec<u64>,
    prev_known: Vec<u64>,
    rose: Vec<u64>,
    fell: Vec<u64>,
    flips: Vec<u64>,
    samples: u64,
}

fn width_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

impl ToggleCoverage {
    /// A collector over `(name, width)` items; the list is fixed for
    /// the collector's lifetime and its order defines the sample and
    /// report order.
    pub fn new(items: impl IntoIterator<Item = (String, u32)>) -> Self {
        let (names, widths): (Vec<_>, Vec<_>) = items.into_iter().unzip();
        let n = names.len();
        ToggleCoverage {
            names,
            widths,
            prev_val: vec![0; n],
            prev_known: vec![0; n],
            rose: vec![0; n],
            fell: vec![0; n],
            flips: vec![0; n],
            samples: 0,
        }
    }

    /// Takes one sample: `read(i)` returns the item's current settled
    /// value and a mask of which of its bits are known (two-valued
    /// engines pass `u64::MAX`). The first sample primes the collector;
    /// each later one accrues transitions against the previous sample.
    pub fn sample_with(&mut self, mut read: impl FnMut(usize) -> (u64, u64)) {
        let priming = self.samples == 0;
        for i in 0..self.names.len() {
            let mask = width_mask(self.widths[i]);
            let (val, known) = read(i);
            let (val, known) = (val & mask, known & mask);
            if !priming {
                let stable = known & self.prev_known[i];
                let rising = !self.prev_val[i] & val & stable;
                let falling = self.prev_val[i] & !val & stable;
                self.rose[i] |= rising;
                self.fell[i] |= falling;
                self.flips[i] += u64::from((rising | falling).count_ones());
            }
            self.prev_val[i] = val;
            self.prev_known[i] = known;
        }
        self.samples += 1;
    }

    /// Discards everything observed so far — transition masks, flip
    /// counts and the previous sample — returning the collector to its
    /// just-constructed state (the next sample primes it again). The
    /// tracked item list is fixed at construction and survives.
    ///
    /// Engines call this from their `reset()` so a recycled simulator
    /// instance never leaks a prior run's coverage into the next one.
    pub fn clear(&mut self) {
        self.prev_val.fill(0);
        self.prev_known.fill(0);
        self.rose.fill(0);
        self.fell.fill(0);
        self.flips.fill(0);
        self.samples = 0;
    }

    /// Number of tracked items.
    pub fn items(&self) -> usize {
        self.names.len()
    }

    /// Samples taken so far (including the priming one).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Item name.
    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// Item width in bits.
    pub fn width(&self, i: usize) -> u32 {
        self.widths[i]
    }

    /// Total bit transitions observed on item `i`.
    pub fn flips(&self, i: usize) -> u64 {
        self.flips[i]
    }

    /// Bits of item `i` that both rose and fell at least once.
    pub fn covered_mask(&self, i: usize) -> u64 {
        self.rose[i] & self.fell[i]
    }

    /// Total tracked bits.
    pub fn total_bits(&self) -> u64 {
        self.widths.iter().map(|&w| u64::from(w)).sum()
    }

    /// Bits that both rose and fell.
    pub fn covered_bits(&self) -> u64 {
        (0..self.names.len())
            .map(|i| u64::from(self.covered_mask(i).count_ones()))
            .sum()
    }

    /// All flips across all items.
    pub fn total_flips(&self) -> u64 {
        self.flips.iter().sum()
    }

    /// Covered bits over total bits, percent (0 when nothing tracked).
    pub fn percent(&self) -> f64 {
        let total = self.total_bits();
        if total == 0 {
            0.0
        } else {
            100.0 * self.covered_bits() as f64 / total as f64
        }
    }

    /// The coverage map, one line per item — the byte-comparable
    /// artefact the cross-engine differential tests pin:
    /// `name width flips rose fell` with masks in hex.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for i in 0..self.names.len() {
            out.push_str(&format!(
                "{} w{} flips={} rose={:x} fell={:x}\n",
                self.names[i], self.widths[i], self.flips[i], self.rose[i], self.fell[i],
            ));
        }
        out
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{}/{} bits covered ({:.1}%), {} flips over {} items, {} samples",
            self.covered_bits(),
            self.total_bits(),
            self.percent(),
            self.total_flips(),
            self.items(),
            self.samples,
        )
    }

    /// Words in [`save_state`](ToggleCoverage::save_state)'s vector, so
    /// a snapshot reader can check a stored length before allocating.
    #[must_use]
    pub fn state_len(&self) -> usize {
        1 + 5 * self.names.len()
    }

    /// The collector's observation state as a flat word vector —
    /// `samples` followed by the five per-item arrays — for engine
    /// snapshots. The tracked item list is structure, not state, and is
    /// not included; [`load_state`](ToggleCoverage::load_state) on a
    /// collector with the same item list restores the observations
    /// exactly.
    #[must_use]
    pub fn save_state(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.state_len());
        out.push(self.samples);
        out.extend_from_slice(&self.prev_val);
        out.extend_from_slice(&self.prev_known);
        out.extend_from_slice(&self.rose);
        out.extend_from_slice(&self.fell);
        out.extend_from_slice(&self.flips);
        out
    }

    /// Restores observation state captured by
    /// [`save_state`](ToggleCoverage::save_state) on a collector
    /// tracking the same item list. Returns `false` (leaving the
    /// collector untouched) when the word count does not match this
    /// collector's item list.
    pub fn load_state(&mut self, words: &[u64]) -> bool {
        let n = self.names.len();
        if words.len() != self.state_len() {
            return false;
        }
        self.samples = words[0];
        if n == 0 {
            return true;
        }
        let mut fields = words[1..].chunks_exact(n);
        for dst in [
            &mut self.prev_val,
            &mut self.prev_known,
            &mut self.rose,
            &mut self.fell,
            &mut self.flips,
        ] {
            dst.copy_from_slice(fields.next().expect("five fields"));
        }
        true
    }

    /// Registers the aggregates (and per-item flip counts, for item
    /// lists up to 512) under `prefix`. Metric names only depend on the
    /// tracked item list, so for a fixed design they are stable
    /// run-to-run.
    pub fn register_into(&self, reg: &mut MetricsRegistry, prefix: &str) {
        reg.set_counter(&format!("{prefix}.items"), self.items() as u64);
        reg.set_counter(&format!("{prefix}.bits"), self.total_bits());
        reg.set_counter(&format!("{prefix}.covered_bits"), self.covered_bits());
        reg.set_counter(&format!("{prefix}.flips"), self.total_flips());
        reg.set_counter(&format!("{prefix}.samples"), self.samples);
        if self.items() <= DETAIL_LIMIT {
            for i in 0..self.names.len() {
                reg.set_counter(
                    &format!("{prefix}.net.{}.flips", self.names[i]),
                    self.flips[i],
                );
            }
        } else {
            reg.set_counter(&format!("{prefix}.detail_omitted"), 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_full_toggles_only() {
        let mut cov = ToggleCoverage::new([("a".to_owned(), 2), ("b".to_owned(), 1)]);
        let mut vals = [(0b00u64, u64::MAX), (0, u64::MAX)];
        cov.sample_with(|i| vals[i]); // prime
        vals[0].0 = 0b01;
        cov.sample_with(|i| vals[i]); // a[0] rose
        assert_eq!(cov.covered_bits(), 0); // rose only — not covered yet
        vals[0].0 = 0b10;
        cov.sample_with(|i| vals[i]); // a[0] fell, a[1] rose
        assert_eq!(cov.covered_bits(), 1);
        assert_eq!(cov.flips(0), 3);
        assert_eq!(cov.flips(1), 0);
        assert!((cov.percent() - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_bits_do_not_toggle() {
        let mut cov = ToggleCoverage::new([("n".to_owned(), 1)]);
        cov.sample_with(|_| (0, 0)); // X
        cov.sample_with(|_| (1, 1)); // X → 1: not a transition
        cov.sample_with(|_| (0, 1)); // 1 → 0
        cov.sample_with(|_| (1, 1)); // 0 → 1
        assert_eq!(cov.flips(0), 2);
        assert_eq!(cov.covered_bits(), 1);
    }

    #[test]
    fn state_round_trips() {
        let mut cov = ToggleCoverage::new([("a".to_owned(), 4), ("b".to_owned(), 2)]);
        for v in [0u64, 5, 10, 5] {
            cov.sample_with(|i| (v >> i, u64::MAX));
        }
        let words = cov.save_state();
        let mut twin = ToggleCoverage::new([("a".to_owned(), 4), ("b".to_owned(), 2)]);
        assert!(twin.load_state(&words));
        assert_eq!(twin, cov);
        assert_eq!(twin.report(), cov.report());
        // A mismatched item list refuses and stays untouched.
        let mut other = ToggleCoverage::new([("a".to_owned(), 4)]);
        assert!(!other.load_state(&words));
        assert_eq!(other.samples(), 0);
    }

    #[test]
    fn report_is_deterministic() {
        let build = || {
            let mut cov = ToggleCoverage::new([("x".to_owned(), 4)]);
            for v in [0u64, 5, 10, 5] {
                cov.sample_with(|_| (v, u64::MAX));
            }
            cov
        };
        assert_eq!(build().report(), build().report());
        let mut reg = MetricsRegistry::new();
        build().register_into(&mut reg, "coverage.toggle.t");
        assert_eq!(reg.counter("coverage.toggle.t.net.x.flips"), Some(10));
    }
}
