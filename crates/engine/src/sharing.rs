//! The paper's cumulative resource-sharing levels (§4.1.3).

use std::fmt;

/// How the three shareable resources — **D**RAM bandwidth, page-table
/// **W**alkers, and the **T**LB — are distributed among cores.
///
/// Levels are cumulative: `+DW` shares DRAM *and* walkers, etc.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SharingLevel {
    /// Each workload monopolizes the *whole* chip's resources, running
    /// alone — the normalization baseline.
    Ideal,
    /// Everything split statically and equally: per-core channels, walkers
    /// and TLBs as in Table 2.
    Static,
    /// DRAM bandwidth shared; walkers and TLBs private.
    PlusD,
    /// DRAM bandwidth and walkers shared; TLBs private.
    PlusDw,
    /// Everything shared (the fully dynamic configuration).
    #[default]
    PlusDwt,
}

impl SharingLevel {
    /// All four co-run levels, in the order the paper plots them
    /// (`Ideal` excluded — it is the baseline, not a co-run configuration).
    pub const CO_RUN_LEVELS: [SharingLevel; 4] =
        [SharingLevel::Static, SharingLevel::PlusD, SharingLevel::PlusDw, SharingLevel::PlusDwt];

    /// `true` when DRAM channels are dynamically shared among cores.
    pub fn shares_dram(self) -> bool {
        !matches!(self, SharingLevel::Static)
    }

    /// `true` when page-table walkers form one shared pool.
    pub fn shares_ptw(self) -> bool {
        matches!(self, SharingLevel::Ideal | SharingLevel::PlusDw | SharingLevel::PlusDwt)
    }

    /// `true` when TLB capacity is shared chip-wide.
    pub fn shares_tlb(self) -> bool {
        matches!(self, SharingLevel::Ideal | SharingLevel::PlusDwt)
    }

    /// The paper's label for this level.
    pub fn label(self) -> &'static str {
        match self {
            SharingLevel::Ideal => "Ideal",
            SharingLevel::Static => "Static",
            SharingLevel::PlusD => "+D",
            SharingLevel::PlusDw => "+DW",
            SharingLevel::PlusDwt => "+DWT",
        }
    }

    /// The level whose [`label`](Self::label) matches `s`, ignoring ASCII
    /// case (`"+DWT"`, `"+dwt"` and `"ideal"` all parse).
    pub fn from_label(s: &str) -> Option<SharingLevel> {
        std::iter::once(SharingLevel::Ideal)
            .chain(SharingLevel::CO_RUN_LEVELS)
            .find(|l| l.label().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for SharingLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Split `total` channels into per-core contiguous subsets with the given
/// per-core counts (the static-partition mechanism of Figs. 9/10).
///
/// # Panics
///
/// Panics if the counts don't sum to `total` or any count is zero.
pub(crate) fn partition_channels(total: usize, counts: &[usize]) -> Vec<Vec<usize>> {
    assert_eq!(counts.iter().sum::<usize>(), total, "channel counts must sum to the total");
    assert!(counts.iter().all(|&c| c > 0), "every core needs at least one channel");
    let mut out = Vec::with_capacity(counts.len());
    let mut next = 0;
    for &c in counts {
        out.push((next..next + c).collect());
        next += c;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_semantics() {
        use SharingLevel::*;
        assert!(!Static.shares_dram() && !Static.shares_ptw() && !Static.shares_tlb());
        assert!(PlusD.shares_dram() && !PlusD.shares_ptw() && !PlusD.shares_tlb());
        assert!(PlusDw.shares_dram() && PlusDw.shares_ptw() && !PlusDw.shares_tlb());
        assert!(PlusDwt.shares_dram() && PlusDwt.shares_ptw() && PlusDwt.shares_tlb());
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(SharingLevel::PlusDw.to_string(), "+DW");
        assert_eq!(SharingLevel::Static.label(), "Static");
        assert_eq!(SharingLevel::CO_RUN_LEVELS.len(), 4);
    }

    #[test]
    fn labels_round_trip_in_either_case() {
        for l in std::iter::once(SharingLevel::Ideal).chain(SharingLevel::CO_RUN_LEVELS) {
            assert_eq!(SharingLevel::from_label(l.label()), Some(l));
            assert_eq!(SharingLevel::from_label(&l.label().to_uppercase()), Some(l));
            assert_eq!(SharingLevel::from_label(&l.label().to_lowercase()), Some(l));
        }
        assert_eq!(SharingLevel::from_label("+DWTX"), None);
        assert_eq!(SharingLevel::from_label(""), None);
    }

    #[test]
    fn partition_is_disjoint_and_complete() {
        let p = partition_channels(8, &[1, 7]);
        assert_eq!(p[0], vec![0]);
        assert_eq!(p[1], (1..8).collect::<Vec<_>>());
        let flat: Vec<usize> = p.into_iter().flatten().collect();
        assert_eq!(flat, (0..8).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "sum to the total")]
    fn partition_must_cover() {
        let _ = partition_channels(8, &[2, 2]);
    }
}
