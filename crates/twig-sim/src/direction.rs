//! Conditional-branch direction predictors.
//!
//! The paper's baseline uses a 64 KB TAGE-SC-L (Table 1). We provide a
//! TAGE-like predictor ([`TageLite`]: bimodal base plus four tagged tables
//! with geometric history lengths) that reaches high accuracy on the
//! synthetic workloads, a classic [`Gshare`] for comparison/ablation, and an
//! oracle for limit studies.

use twig_types::Addr;

use crate::config::DirectionPredictorKind;

/// A conditional-branch direction predictor.
///
/// This trait is sealed in spirit: the simulator constructs predictors via
/// [`build_predictor`] from a [`DirectionPredictorKind`]; external
/// implementations are possible but not required by any Twig experiment.
pub trait DirectionPredictor {
    /// Predicts the direction of the conditional branch at `pc`.
    fn predict(&mut self, pc: Addr) -> bool;
    /// Trains the predictor with the resolved direction.
    fn update(&mut self, pc: Addr, taken: bool);
    /// Short display name.
    fn name(&self) -> &'static str;
}

/// Builds the predictor selected by `kind`.
///
/// # Examples
///
/// ```
/// use twig_sim::{build_predictor, DirectionPredictorKind};
///
/// let mut p = build_predictor(DirectionPredictorKind::TageLite);
/// let pc = twig_types::Addr::new(0x400100);
/// for _ in 0..16 { p.update(pc, true); }
/// assert!(p.predict(pc));
/// ```
pub fn build_predictor(kind: DirectionPredictorKind) -> Box<dyn DirectionPredictor> {
    match kind {
        DirectionPredictorKind::Gshare { table_bits } => Box::new(Gshare::new(table_bits)),
        DirectionPredictorKind::TageLite => Box::new(TageLite::new()),
        DirectionPredictorKind::Perceptron { table_bits } => {
            Box::new(crate::perceptron::Perceptron::new(table_bits))
        }
        DirectionPredictorKind::Oracle => Box::new(Oracle),
    }
}

/// Saturating 2-bit counter helpers.
#[inline]
fn bump(counter: &mut u8, taken: bool) {
    if taken {
        *counter = (*counter + 1).min(3);
    } else {
        *counter = counter.saturating_sub(1);
    }
}

/// Classic gshare: global history XOR PC indexing a 2-bit counter table.
#[derive(Clone, Debug)]
pub struct Gshare {
    table: Vec<u8>,
    history: u64,
    mask: u64,
    history_bits: u32,
}

impl Gshare {
    /// Creates a gshare with `2^table_bits` counters.
    ///
    /// # Panics
    ///
    /// Panics if `table_bits` is 0 or greater than 28.
    pub fn new(table_bits: u32) -> Self {
        assert!((1..=28).contains(&table_bits));
        Gshare {
            table: vec![2; 1 << table_bits],
            history: 0,
            mask: (1 << table_bits) - 1,
            history_bits: table_bits.min(16),
        }
    }

    #[inline]
    fn index(&self, pc: Addr) -> usize {
        (((pc.raw() >> 1) ^ self.history) & self.mask) as usize
    }
}

impl DirectionPredictor for Gshare {
    fn predict(&mut self, pc: Addr) -> bool {
        self.table[self.index(pc)] >= 2
    }

    fn update(&mut self, pc: Addr, taken: bool) {
        let idx = self.index(pc);
        bump(&mut self.table[idx], taken);
        self.history = ((self.history << 1) | u64::from(taken))
            & ((1u64 << self.history_bits) - 1);
    }

    fn name(&self) -> &'static str {
        "gshare"
    }
}

/// A tagged geometric-history predictor in the TAGE family.
///
/// Four tagged tables with history lengths 8/16/32/64 over a bimodal base.
/// Entries carry a 10-bit tag, a 3-bit signed counter, and a useful bit;
/// allocation on mispredict follows the standard TAGE policy (allocate in a
/// longer-history table whose victim is not useful).
#[derive(Clone, Debug)]
pub struct TageLite {
    base: Vec<u8>,
    tables: Vec<TageTable>,
    history: u128,
    /// Memo of the last provider search: `(pc, history generation,
    /// result)`. The frontend resolves a conditional by calling `predict`
    /// and then `update` with the same PC and unchanged history, so the
    /// second (identical) search is served from here.
    provider_memo: Option<ProviderMemo>,
    /// Bumped whenever `history` changes, invalidating the memo.
    history_gen: u64,
    /// Per-table folded history, indexed like `tables`.
    folds: [Folds; TAGE_HISTORIES.len()],
}

/// `(pc, history generation, provider table/index if any)` — the cached
/// result of one provider search.
type ProviderMemo = (u64, u64, Option<(usize, usize)>);

#[derive(Clone, Debug)]
struct TageTable {
    entries: Vec<TageEntry>,
    mask: u64,
}

/// One table's history window (its last `TAGE_HISTORIES[t]` outcomes)
/// XOR-folded to the index and tag widths: bit `j` of the window lands on
/// bit `j % bits`. [`fold_push`] keeps both up to date on every outcome.
#[derive(Clone, Copy, Debug, Default)]
struct Folds {
    index: u64,
    tag: u64,
}

/// Advances a `len`-outcome window folded to `bits` bits past one outcome:
/// the fold rotates left by one, the new outcome enters at bit 0, and the
/// outcome `leaving` the window is cancelled at bit `len % bits`. Called
/// with constant `len` and `bits`, so the shifts compile to immediates.
#[inline(always)]
fn fold_push(fold: u64, bits: u32, len: u32, leaving: u64, taken: bool) -> u64 {
    let mut f = (fold << 1) | u64::from(taken);
    f ^= leaving << (len % bits);
    f ^= f >> bits;
    f & ((1u64 << bits) - 1)
}

#[derive(Clone, Copy, Debug, Default)]
struct TageEntry {
    tag: u16,
    /// Counter in `0..=7`; taken when >= 4.
    ctr: u8,
    useful: bool,
    valid: bool,
}

// Sized to the paper's 64 KB TAGE-SC-L class: a 64K-entry bimodal base
// (16 KB at 2 bits) plus 4 x 8K-entry tagged tables (~56 KB at 14 bits).
const TAGE_TABLE_BITS: u32 = 13;
const TAGE_TAG_BITS: u32 = 10;
const TAGE_BASE_BITS: u32 = 16;
const TAGE_HISTORIES: [u32; 4] = [8, 16, 32, 64];

impl TageLite {
    /// Creates the predictor with default geometry (~64 KB-class budget).
    pub fn new() -> Self {
        TageLite {
            base: vec![2; 1 << TAGE_BASE_BITS],
            tables: TAGE_HISTORIES
                .iter()
                .map(|_| TageTable {
                    entries: vec![TageEntry::default(); 1 << TAGE_TABLE_BITS],
                    mask: (1 << TAGE_TABLE_BITS) - 1,
                })
                .collect(),
            history: 0,
            provider_memo: None,
            history_gen: 0,
            folds: [Folds::default(); TAGE_HISTORIES.len()],
        }
    }

    /// The fold [`fold_push`] maintains, recomputed from the raw history
    /// (the reference the incremental folds are tested against).
    #[cfg(test)]
    fn folded_history(&self, bits: u32, out_bits: u32) -> u64 {
        // Every history window fits in 64 bits (`TAGE_HISTORIES` tops out
        // at 64), so the fold runs in native words rather than u128.
        debug_assert!(bits <= 64);
        let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
        let mut h = (self.history as u64) & mask;
        let out_mask = (1u64 << out_bits) - 1;
        let mut folded = 0u64;
        while h != 0 {
            folded ^= h & out_mask;
            h >>= out_bits;
        }
        folded
    }

    #[inline]
    fn table_index(&self, t: usize, pc: Addr) -> usize {
        let tab = &self.tables[t];
        let fh = self.folds[t].index;
        (((pc.raw() >> 1) ^ fh ^ (pc.raw() >> (TAGE_TABLE_BITS as u64 + 1))) & tab.mask) as usize
    }

    #[inline]
    fn table_tag(&self, t: usize, pc: Addr) -> u16 {
        let fh = self.folds[t].tag;
        ((((pc.raw() >> 1) ^ (fh << 1) ^ (pc.raw() >> 11)) & 0x3ff) as u16) | 0x400
    }

    /// Longest-matching tagged component, if any (memoized per
    /// `(pc, history)` so the predict → update pair searches once).
    fn provider(&mut self, pc: Addr) -> Option<(usize, usize)> {
        if let Some((memo_pc, gen, result)) = self.provider_memo {
            if memo_pc == pc.raw() && gen == self.history_gen {
                return result;
            }
        }
        let mut result = None;
        for t in (0..self.tables.len()).rev() {
            let idx = self.table_index(t, pc);
            let tag = self.table_tag(t, pc);
            let e = &self.tables[t].entries[idx];
            if e.valid && e.tag == tag {
                result = Some((t, idx));
                break;
            }
        }
        self.provider_memo = Some((pc.raw(), self.history_gen, result));
        result
    }

    #[inline]
    fn base_index(&self, pc: Addr) -> usize {
        ((pc.raw() >> 1) & ((1 << TAGE_BASE_BITS) - 1)) as usize
    }
}

impl Default for TageLite {
    fn default() -> Self {
        TageLite::new()
    }
}

impl DirectionPredictor for TageLite {
    fn predict(&mut self, pc: Addr) -> bool {
        match self.provider(pc) {
            Some((t, idx)) => self.tables[t].entries[idx].ctr >= 4,
            None => self.base[self.base_index(pc)] >= 2,
        }
    }

    fn update(&mut self, pc: Addr, taken: bool) {
        let provider = self.provider(pc);
        let predicted = match provider {
            Some((t, idx)) => self.tables[t].entries[idx].ctr >= 4,
            None => self.base[self.base_index(pc)] >= 2,
        };

        match provider {
            Some((t, idx)) => {
                let e = &mut self.tables[t].entries[idx];
                if taken {
                    e.ctr = (e.ctr + 1).min(7);
                } else {
                    e.ctr = e.ctr.saturating_sub(1);
                }
                if predicted == taken {
                    e.useful = true;
                }
            }
            None => {
                let idx = self.base_index(pc);
                bump(&mut self.base[idx], taken);
            }
        }

        // Allocate a longer-history entry on mispredict.
        if predicted != taken {
            let start = provider.map_or(0, |(t, _)| t + 1);
            for t in start..self.tables.len() {
                let idx = self.table_index(t, pc);
                let tag = self.table_tag(t, pc);
                let e = &mut self.tables[t].entries[idx];
                if !e.valid || !e.useful {
                    *e = TageEntry {
                        tag,
                        ctr: if taken { 4 } else { 3 },
                        useful: false,
                        valid: true,
                    };
                    break;
                }
                // Aging: failed allocation clears the useful bit.
                e.useful = false;
            }
        }

        for (fold, &len) in self.folds.iter_mut().zip(&TAGE_HISTORIES) {
            let leaving = ((self.history >> (len - 1)) & 1) as u64;
            fold.index = fold_push(fold.index, TAGE_TABLE_BITS, len, leaving, taken);
            fold.tag = fold_push(fold.tag, TAGE_TAG_BITS, len, leaving, taken);
        }
        self.history = (self.history << 1) | u128::from(taken);
        self.history_gen += 1;
    }

    fn name(&self) -> &'static str {
        "tage-lite"
    }
}

/// Perfect direction prediction (limit studies).
///
/// In the trace-driven simulator the "prediction" is compared against the
/// trace outcome, so a predictor that echoes the last trained outcome per PC
/// would still mispredict; the oracle is wired specially in the frontend,
/// and this type exists so `build_predictor` is total.
#[derive(Clone, Copy, Debug, Default)]
pub struct Oracle;

impl DirectionPredictor for Oracle {
    fn predict(&mut self, _pc: Addr) -> bool {
        true
    }

    fn update(&mut self, _pc: Addr, _taken: bool) {}

    fn name(&self) -> &'static str {
        "oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twig_proptest::prelude::*;

    fn a(v: u64) -> Addr {
        Addr::new(v)
    }

    fn accuracy(p: &mut dyn DirectionPredictor, stream: &[(u64, bool)]) -> f64 {
        let mut correct = 0usize;
        for &(pc, taken) in stream {
            if p.predict(a(pc)) == taken {
                correct += 1;
            }
            p.update(a(pc), taken);
        }
        correct as f64 / stream.len() as f64
    }

    fn biased_stream(n: usize) -> Vec<(u64, bool)> {
        // 16 branches, each strongly biased; deterministic pattern.
        (0..n)
            .map(|i| {
                let b = (i % 16) as u64;
                let taken = !b.is_multiple_of(3) ^ (i % 97 == 0); // rare flips
                (0x1000 + b * 6, taken)
            })
            .collect()
    }

    fn loop_stream(n: usize) -> Vec<(u64, bool)> {
        // One branch: taken 7 times, then not taken (8-iteration loop).
        (0..n).map(|i| (0x2000, i % 8 != 7)).collect()
    }

    #[test]
    fn gshare_learns_biased_branches() {
        let mut p = Gshare::new(14);
        let acc = accuracy(&mut p, &biased_stream(20_000));
        assert!(acc > 0.95, "gshare accuracy {acc}");
    }

    #[test]
    fn tage_learns_biased_branches() {
        let mut p = TageLite::new();
        let acc = accuracy(&mut p, &biased_stream(20_000));
        assert!(acc > 0.95, "tage accuracy {acc}");
    }

    #[test]
    fn tage_learns_loop_exit_pattern() {
        // The 8-iteration loop exit is history-predictable: TAGE should get
        // well above the 7/8 = 87.5% ceiling of a bimodal predictor.
        let mut p = TageLite::new();
        let acc = accuracy(&mut p, &loop_stream(40_000));
        assert!(acc > 0.95, "tage loop accuracy {acc}");
    }

    #[test]
    fn gshare_cannot_beat_ceiling_without_enough_history_value() {
        // Sanity: gshare also learns this loop (history-based), so check it
        // at least beats bimodal's ceiling.
        let mut p = Gshare::new(14);
        let acc = accuracy(&mut p, &loop_stream(40_000));
        assert!(acc > 0.875, "gshare loop accuracy {acc}");
    }

    #[test]
    fn build_predictor_dispatches() {
        assert_eq!(
            build_predictor(DirectionPredictorKind::Gshare { table_bits: 12 }).name(),
            "gshare"
        );
        assert_eq!(build_predictor(DirectionPredictorKind::TageLite).name(), "tage-lite");
        assert_eq!(
            build_predictor(DirectionPredictorKind::Perceptron { table_bits: 12 }).name(),
            "perceptron"
        );
        assert_eq!(build_predictor(DirectionPredictorKind::Oracle).name(), "oracle");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The incrementally kept folds equal the folds recomputed from the
        /// raw history after every update, past the point where the
        /// longest (64-outcome) window starts dropping outcomes.
        #[test]
        fn incremental_folds_match_the_reference(
            stream in prop::collection::vec((0u64..64, any::<bool>()), 1..400),
        ) {
            let mut p = TageLite::new();
            for &(branch, taken) in &stream {
                let pc = a(0x4000 + branch * 6);
                p.predict(pc);
                p.update(pc, taken);
                for (fold, &len) in p.folds.iter().zip(&TAGE_HISTORIES) {
                    prop_assert_eq!(fold.index, p.folded_history(len, TAGE_TABLE_BITS));
                    prop_assert_eq!(fold.tag, p.folded_history(len, TAGE_TAG_BITS));
                }
            }
        }
    }

    #[test]
    fn cold_predictions_are_weakly_not_taken_biased_but_defined() {
        let mut p = TageLite::new();
        // Must not panic and must return a boolean for unseen PCs.
        let _ = p.predict(a(0xdead_beef));
        let mut g = Gshare::new(10);
        let _ = g.predict(a(0xdead_beef));
    }
}
