//! Co-runner mapping search: assigning 2k workloads to k dual-core chips.
//!
//! The paper's §4.6 evaluates every eight-workload multiset drawn from the
//! benchmark zoo (`M(8,8) = 6435` sets) on four dual-core NPUs. For one
//! multiset, an *assignment* is a perfect matching of its 8 slots into 4
//! pairs; the predictor picks the matching with the best predicted score and
//! is compared against the oracle (best actual), the worst, and the
//! expected (mean over matchings, i.e. a random scheduler).

/// All perfect matchings of `n` elements (`n` even): for `n = 8`,
/// `7!! = 105` matchings.
///
/// ```
/// use mnpu_predict::mapping::perfect_matchings;
/// assert_eq!(perfect_matchings(4).len(), 3);
/// assert_eq!(perfect_matchings(8).len(), 105);
/// ```
///
/// # Panics
///
/// Panics if `n` is zero or odd.
pub fn perfect_matchings(n: usize) -> Vec<Vec<(usize, usize)>> {
    assert!(n > 0 && n.is_multiple_of(2), "need a positive even element count");
    let mut out = Vec::new();
    let mut used = vec![false; n];
    let mut current = Vec::with_capacity(n / 2);
    fn rec(
        used: &mut [bool],
        current: &mut Vec<(usize, usize)>,
        out: &mut Vec<Vec<(usize, usize)>>,
    ) {
        let Some(first) = used.iter().position(|&u| !u) else {
            out.push(current.clone());
            return;
        };
        used[first] = true;
        for second in first + 1..used.len() {
            if used[second] {
                continue;
            }
            used[second] = true;
            current.push((first, second));
            rec(used, current, out);
            current.pop();
            used[second] = false;
        }
        used[first] = false;
    }
    rec(&mut used, &mut current, &mut out);
    out
}

/// All multisets of size `k` over items `0..n`, as non-decreasing index
/// vectors. `M(n, k) = C(n+k-1, k)`; for `n = k = 8` that is 6435.
///
/// ```
/// use mnpu_predict::mapping::multisets;
/// assert_eq!(multisets(8, 2).len(), 36);  // the dual-core mixes
/// assert_eq!(multisets(8, 4).len(), 330); // the quad-core mixes
/// ```
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn multisets(n: usize, k: usize) -> Vec<Vec<usize>> {
    assert!(n > 0, "need at least one item");
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(k);
    fn rec(n: usize, k: usize, start: usize, current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if current.len() == k {
            out.push(current.clone());
            return;
        }
        for item in start..n {
            current.push(item);
            rec(n, k, item, current, out);
            current.pop();
        }
    }
    rec(n, k, 0, &mut current, &mut out);
    out
}

/// Per-workload slowdowns of running multiset `ws` under `matching`, where
/// `table(i, j)` returns the (slowdown of *i*, slowdown of *j*) when
/// benchmarks *i* and *j* share a dual-core chip.
///
/// The output is indexed by slot (same order as `ws`).
///
/// # Panics
///
/// Panics if the matching does not cover exactly the slots of `ws`.
pub fn matching_slowdowns(
    ws: &[usize],
    matching: &[(usize, usize)],
    table: &dyn Fn(usize, usize) -> (f64, f64),
) -> Vec<f64> {
    assert_eq!(matching.len() * 2, ws.len(), "matching must cover all slots");
    let mut slow = vec![0.0; ws.len()];
    for &(p, q) in matching {
        let (sp, sq) = table(ws[p], ws[q]);
        slow[p] = sp;
        slow[q] = sq;
    }
    assert!(slow.iter().all(|&s| s > 0.0), "matching left a slot unassigned");
    slow
}

/// Outcome of one multiset's mapping study under a higher-is-better score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappingOutcome {
    /// Best achievable score over all matchings (oracle scheduler).
    pub oracle: f64,
    /// Worst score over all matchings.
    pub worst: f64,
    /// Mean score over all matchings — the expected result of a random
    /// scheduler, used as the paper's "without mapping" baseline.
    pub expected: f64,
    /// Score of the matching the predictor chose.
    pub chosen: f64,
}

/// Run the mapping study for one multiset: evaluate every matching with the
/// *actual* pair table, pick the predictor's favourite with the *predicted*
/// table, and summarize.
///
/// `score` maps the eight slot slowdowns to a higher-is-better figure
/// (e.g. geomean of speedups for performance, Eq. 1 for fairness).
///
/// # Panics
///
/// Panics if `ws.len()` is odd or zero.
pub fn study_multiset(
    ws: &[usize],
    actual: &dyn Fn(usize, usize) -> (f64, f64),
    predicted: &dyn Fn(usize, usize) -> (f64, f64),
    score: &dyn Fn(&[f64]) -> f64,
) -> MappingOutcome {
    let matchings = perfect_matchings(ws.len());
    let mut oracle = f64::NEG_INFINITY;
    let mut worst = f64::INFINITY;
    let mut sum = 0.0;
    let mut best_pred = f64::NEG_INFINITY;
    let mut chosen = 0.0;
    for m in &matchings {
        let actual_score = score(&matching_slowdowns(ws, m, actual));
        oracle = oracle.max(actual_score);
        worst = worst.min(actual_score);
        sum += actual_score;
        let pred_score = score(&matching_slowdowns(ws, m, predicted));
        if pred_score > best_pred {
            best_pred = pred_score;
            chosen = actual_score;
        }
    }
    MappingOutcome { oracle, worst, expected: sum / matchings.len() as f64, chosen }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_counts_are_double_factorials() {
        assert_eq!(perfect_matchings(2).len(), 1);
        assert_eq!(perfect_matchings(4).len(), 3);
        assert_eq!(perfect_matchings(6).len(), 15);
        assert_eq!(perfect_matchings(8).len(), 105);
    }

    #[test]
    fn matchings_cover_all_elements_once() {
        for m in perfect_matchings(6) {
            let mut seen = [false; 6];
            for (a, b) in m {
                assert!(!seen[a] && !seen[b]);
                seen[a] = true;
                seen[b] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn multiset_counts_match_paper() {
        assert_eq!(multisets(8, 2).len(), 36);
        assert_eq!(multisets(8, 4).len(), 330);
        assert_eq!(multisets(8, 8).len(), 6435);
    }

    #[test]
    fn multisets_are_sorted_and_unique() {
        let ms = multisets(5, 3);
        for w in &ms {
            assert!(w.windows(2).all(|p| p[0] <= p[1]));
        }
        let set: std::collections::HashSet<_> = ms.iter().collect();
        assert_eq!(set.len(), ms.len());
    }

    /// A toy world where pairing equal items is free and pairing different
    /// items costs slowdown proportional to their distance.
    fn toy_table(i: usize, j: usize) -> (f64, f64) {
        let cost = 1.0 + (i as f64 - j as f64).abs() * 0.1;
        (cost, cost)
    }

    fn perf(slowdowns: &[f64]) -> f64 {
        let log: f64 = slowdowns.iter().map(|s| (1.0 / s).ln()).sum();
        (log / slowdowns.len() as f64).exp()
    }

    #[test]
    fn oracle_bounds_hold() {
        let ws = vec![0, 1, 2, 3, 4, 5, 6, 7];
        let out = study_multiset(&ws, &toy_table, &toy_table, &perf);
        assert!(out.oracle >= out.chosen);
        assert!(out.chosen >= out.worst);
        assert!(out.oracle >= out.expected && out.expected >= out.worst);
    }

    #[test]
    fn perfect_predictor_matches_oracle() {
        let ws = vec![0, 0, 1, 1, 5, 5, 7, 7];
        let out = study_multiset(&ws, &toy_table, &toy_table, &perf);
        assert!((out.chosen - out.oracle).abs() < 1e-12, "predictor = truth ⇒ oracle");
        // Pairing equal items gives slowdown 1.0 for everyone.
        assert!((out.oracle - 1.0).abs() < 1e-12);
    }

    #[test]
    fn useless_predictor_can_miss_oracle() {
        let ws = vec![0, 0, 1, 1, 5, 5, 7, 7];
        // Predictor that loves the *worst* matching.
        let anti = |i: usize, j: usize| {
            let (a, b) = toy_table(i, j);
            (2.0 - a.min(1.9), 2.0 - b.min(1.9))
        };
        let out = study_multiset(&ws, &toy_table, &anti, &perf);
        assert!(out.chosen < out.oracle);
    }

    #[test]
    fn slot_slowdowns_follow_table() {
        let ws = vec![2, 4];
        let s = matching_slowdowns(&ws, &[(0, 1)], &toy_table);
        assert_eq!(s.len(), 2);
        assert!((s[0] - 1.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_matching_rejected() {
        let _ = perfect_matchings(5);
    }
}
