//! Warm-start prefix sharing for sweep execution.
//!
//! The fig04-style sweeps run the *same* workload mix under several
//! sharing levels that differ **only** in MMU organization (`+D`, `+DW`,
//! `+DWT` all share DRAM; they disagree on walker and TLB sharing). The
//! engine's shadow-MMU machinery ([`mnpu_engine::Simulation::add_shadow_config`])
//! exploits that: one *representative* simulation runs the group while
//! per-variant shadow MMUs verify, cycle by cycle, that each variant would
//! have behaved identically so far. Each variant is then finished from its
//! last in-lockstep checkpoint instead of from cycle 0 — the shared prefix
//! is simulated once.
//!
//! This module decides *which* requests may share a prefix. The grouping
//! is purely an execution strategy: results are bit-exact either way (the
//! engine forks only checkpoints proven equivalent), which
//! `grouped_reports_match_solo_runs` fences. Set `MNPU_NO_PREFIX_SHARE=1`
//! to force every request down the independent path.

use mnpu_engine::{MemoryModel, ProbeMode, SharingLevel, SystemConfig};

/// One executable unit of a sweep plan: indices into the request list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepUnit {
    /// An independent simulation.
    Single(usize),
    /// Requests sharing one simulated prefix; the first is the
    /// representative, the rest are finished from forked checkpoints.
    Group(Vec<usize>),
}

/// Whether prefix sharing is enabled (`MNPU_NO_PREFIX_SHARE=1` disables).
pub fn prefix_share_enabled() -> bool {
    std::env::var_os("MNPU_NO_PREFIX_SHARE").is_none()
}

/// Whether `cfg` may participate in a prefix-sharing group at all.
///
/// The gate is conservative: the sharing level must be one where DRAM is
/// shared and only MMU organization varies (`+D`, `+DW`, `+DWT`), and the
/// run must not carry per-run observable state the shadow machinery does
/// not mirror (stats probe, request log, trace window) or a non-default
/// memory model. Everything else falls back to independent execution —
/// which is always correct, just slower.
pub fn eligible(cfg: &SystemConfig) -> bool {
    matches!(cfg.sharing, SharingLevel::PlusD | SharingLevel::PlusDw | SharingLevel::PlusDwt)
        && cfg.translation
        && cfg.probe == ProbeMode::None
        && !cfg.request_log
        && cfg.trace_window.is_none()
        && cfg.memory == MemoryModel::Timing
}

/// The key under which requests may share a prefix: the workload mix plus
/// the configuration with its sharing level neutralized. Two eligible
/// requests with equal keys are identical *except* for MMU organization.
pub fn divergence_key(cfg: &SystemConfig, workloads: &[usize]) -> u64 {
    let mut neutral = cfg.clone();
    neutral.sharing = SharingLevel::PlusD;
    crate::harness::fnv1a(&format!("{neutral:?}|{workloads:?}"))
}

/// Partition `requests` into execution units, preserving first-occurrence
/// order. Ineligible requests (or all of them, when prefix sharing is
/// disabled) become [`SweepUnit::Single`]; eligible requests with the same
/// [`divergence_key`] coalesce into one [`SweepUnit::Group`]. A group of
/// one collapses back to a single.
pub fn plan_units<'a>(
    requests: impl IntoIterator<Item = (&'a SystemConfig, &'a [usize])>,
) -> Vec<SweepUnit> {
    let share = prefix_share_enabled();
    let mut units: Vec<SweepUnit> = Vec::new();
    let mut groups: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    for (i, (cfg, ws)) in requests.into_iter().enumerate() {
        if !share || !eligible(cfg) {
            units.push(SweepUnit::Single(i));
            continue;
        }
        match groups.entry(divergence_key(cfg, ws)) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let SweepUnit::Group(members) = &mut units[*e.get()] else {
                    unreachable!("group table only points at groups");
                };
                members.push(i);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(units.len());
                units.push(SweepUnit::Group(vec![i]));
            }
        }
    }
    for u in &mut units {
        if let SweepUnit::Group(members) = u {
            if members.len() == 1 {
                *u = SweepUnit::Single(members[0]);
            }
        }
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Harness;

    fn dual(s: SharingLevel) -> SystemConfig {
        SystemConfig::bench(2, s)
    }

    #[test]
    fn static_and_decorated_configs_are_ineligible() {
        assert!(!eligible(&dual(SharingLevel::Static)));
        assert!(!eligible(&dual(SharingLevel::Ideal)));
        assert!(eligible(&dual(SharingLevel::PlusD)));
        assert!(eligible(&dual(SharingLevel::PlusDwt)));
        assert!(!eligible(&dual(SharingLevel::PlusD).without_translation()));
        assert!(!eligible(&dual(SharingLevel::PlusD).with_ideal_memory(60)));
        let mut logged = dual(SharingLevel::PlusD);
        logged.request_log = true;
        assert!(!eligible(&logged));
        let mut probed = dual(SharingLevel::PlusD);
        probed.probe = ProbeMode::Stats;
        assert!(!eligible(&probed));
    }

    #[test]
    fn keys_group_by_mix_and_ignore_sharing() {
        let a = divergence_key(&dual(SharingLevel::PlusD), &[6, 6]);
        assert_eq!(a, divergence_key(&dual(SharingLevel::PlusDwt), &[6, 6]));
        assert_ne!(a, divergence_key(&dual(SharingLevel::PlusD), &[6, 7]));
    }

    #[test]
    fn planning_coalesces_the_co_run_levels() {
        let reqs: Vec<(SystemConfig, Vec<usize>)> = vec![
            (dual(SharingLevel::Static), vec![6, 6]),
            (dual(SharingLevel::PlusD), vec![6, 6]),
            (dual(SharingLevel::PlusDw), vec![6, 6]),
            (dual(SharingLevel::PlusDwt), vec![6, 6]),
            (dual(SharingLevel::PlusD), vec![6, 7]),
        ];
        let units = plan_units(reqs.iter().map(|(c, w)| (c, w.as_slice())));
        assert_eq!(
            units,
            vec![SweepUnit::Single(0), SweepUnit::Group(vec![1, 2, 3]), SweepUnit::Single(4),]
        );
    }

    #[test]
    fn grouped_reports_match_solo_runs() {
        let h = Harness::new();
        let cfgs: Vec<SystemConfig> =
            [SharingLevel::PlusD, SharingLevel::PlusDw, SharingLevel::PlusDwt]
                .map(dual)
                .into_iter()
                .collect();
        let ws = [6usize, 6];
        let shared = h.run_reports_shared(&cfgs, &ws);
        for (cfg, report) in cfgs.iter().zip(&shared) {
            let solo = h.run_report(cfg, &ws);
            assert_eq!(
                report.to_json(),
                solo.to_json(),
                "prefix-shared run diverged from the independent run under {:?}",
                cfg.sharing
            );
        }
    }
}
