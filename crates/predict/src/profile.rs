//! Solo workload profiles — the predictor's only inputs.

use mnpu_engine::{ProbeMode, RunReport, Simulation, SystemConfig};
use mnpu_model::Network;

/// The profiled characteristics of one workload running *alone* with all
/// resources (the paper's three factors: PE utilization, memory traffic per
/// execution, and execution time).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Workload name.
    pub name: String,
    /// PE utilization of the solo run (low = memory-bound).
    pub pe_utilization: f64,
    /// DRAM traffic per execution in bytes (data + walks).
    pub traffic_bytes: u64,
    /// Solo execution cycles.
    pub solo_cycles: u64,
}

impl WorkloadProfile {
    /// The configuration a workload of `chip` is profiled on: the `Ideal`
    /// derivative of `chip` (all shareable resources monopolized), with no
    /// probe, no request log and no bandwidth trace. A profile reads only
    /// cycles, PE utilization and traffic, which none of those settings
    /// changes, so profiling never records into the telemetry of the run
    /// that asked for it.
    pub fn solo_config(chip: &SystemConfig) -> SystemConfig {
        let mut cfg = chip.ideal_solo();
        cfg.probe = ProbeMode::None;
        cfg.request_log = false;
        cfg.request_log_cap = None;
        cfg.trace_window = None;
        cfg
    }

    /// Profile `net` by running it solo on [`WorkloadProfile::solo_config`]
    /// of `chip`.
    ///
    /// # Panics
    ///
    /// Panics if the chip configuration is invalid.
    pub fn measure(chip: &SystemConfig, net: &Network) -> Self {
        let cfg = WorkloadProfile::solo_config(chip);
        WorkloadProfile::of_solo(&Simulation::execute_networks(&cfg, std::slice::from_ref(net)))
    }

    /// The profile of the single-core run `r`.
    pub(crate) fn of_solo(r: &RunReport) -> Self {
        let c = &r.cores[0];
        WorkloadProfile {
            name: c.workload.clone(),
            pe_utilization: c.pe_utilization,
            traffic_bytes: c.traffic_bytes + c.walk_bytes,
            solo_cycles: c.cycles,
        }
    }

    /// Average memory demand in bytes per cycle — the memory-intensiveness
    /// proxy used in the feature vector.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.traffic_bytes as f64 / self.solo_cycles.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnpu_engine::SharingLevel;
    use mnpu_model::{zoo, Scale};

    #[test]
    fn profile_of_memory_bound_vs_compute_bound() {
        let chip = SystemConfig::bench(2, SharingLevel::PlusDwt);
        let dlrm = WorkloadProfile::measure(&chip, &zoo::dlrm(Scale::Bench));
        let res = WorkloadProfile::measure(&chip, &zoo::resnet50(Scale::Bench));
        assert!(dlrm.pe_utilization < res.pe_utilization);
        assert!(dlrm.solo_cycles > 0 && res.solo_cycles > 0);
        assert!(dlrm.bytes_per_cycle() > 0.0);
    }

    #[test]
    fn profile_is_deterministic() {
        let chip = SystemConfig::bench(2, SharingLevel::PlusDwt);
        let net = zoo::ncf(Scale::Bench);
        assert_eq!(WorkloadProfile::measure(&chip, &net), WorkloadProfile::measure(&chip, &net));
    }

    #[test]
    fn observation_settings_do_not_reach_the_solo_config() {
        let plain = SystemConfig::bench(2, SharingLevel::PlusDwt);
        let mut watched = plain.clone();
        watched.probe = ProbeMode::Flight;
        watched.request_log = true;
        watched.request_log_cap = Some(64);
        watched.trace_window = Some(4096);
        assert_eq!(WorkloadProfile::solo_config(&watched), WorkloadProfile::solo_config(&plain));
        let net = zoo::ncf(Scale::Bench);
        let mut stats = plain.clone();
        stats.probe = ProbeMode::Stats;
        stats.trace_window = Some(4096);
        let observed =
            Simulation::execute_networks(&stats.ideal_solo(), std::slice::from_ref(&net));
        assert_eq!(WorkloadProfile::of_solo(&observed), WorkloadProfile::measure(&plain, &net));
    }
}
