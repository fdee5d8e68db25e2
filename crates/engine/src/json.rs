//! Deterministic JSON serialization of [`RunReport`].
//!
//! Hand-rolled (the workspace deliberately carries no serde): field order is
//! fixed by the code below, integers print exactly, and floats use Rust's
//! shortest-roundtrip `Display`, so two byte-identical reports serialize to
//! byte-identical JSON. The golden equivalence test pins a fixture produced
//! by this writer to prove hot-path changes are behaviorally invisible.

use crate::report::{LogKind, RunReport};
use mnpu_dram::ChannelStats;
use mnpu_probe::{CoreStats, Histogram, StatsReport};
use mnpu_snapshot::json;
use std::fmt::Write as _;

fn push_str_field(out: &mut String, key: &str, val: &str) {
    // Workload and layer names arrive verbatim from topology files.
    let _ = write!(out, "\"{key}\":\"{}\"", json::escape(val));
}

fn push_channel_stats(out: &mut String, s: &ChannelStats) {
    let _ = write!(
        out,
        "{{\"reads\":{},\"writes\":{},\"row_hits\":{},\"row_misses\":{},\
         \"row_conflicts\":{},\"busy_cycles\":{},\"bytes\":{},\"latency_sum\":{},\
         \"latency_max\":{},\"refreshes\":{}}}",
        s.reads,
        s.writes,
        s.row_hits,
        s.row_misses,
        s.row_conflicts,
        s.busy_cycles,
        s.bytes,
        s.latency_sum,
        s.latency_max,
        s.refreshes
    );
}

fn push_u64_array(out: &mut String, vals: &[u64]) {
    out.push('[');
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

fn push_hist(out: &mut String, h: &Histogram) {
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{},\"max\":{},\"buckets\":",
        h.count(),
        h.sum(),
        h.max()
    );
    push_u64_array(out, h.bucket_counts());
    out.push('}');
}

fn push_core_stats(out: &mut String, c: &CoreStats) {
    let _ = write!(
        out,
        "{{\"active_cycles\":{},\"stall\":{{\"compute\":{},\"wait_translation\":{},\
         \"wait_load\":{},\"wait_store\":{}}},\"tlb_hits\":{},\"tlb_misses\":{},\
         \"tlb_evictions\":{},\"walks_started\":{},\"walks_done\":{},\"walker_stalls\":{},\
         \"dma_grants\":{},\"dma_retries\":{},\"row_hits\":{},\"row_misses\":{},\
         \"row_conflicts\":{},\"walk_latency\":",
        c.active_cycles,
        c.stall.compute,
        c.stall.wait_translation,
        c.stall.wait_load,
        c.stall.wait_store,
        c.tlb_hits,
        c.tlb_misses,
        c.tlb_evictions,
        c.walks_started,
        c.walks_done,
        c.walker_stalls,
        c.dma_grants,
        c.dma_retries,
        c.row_hits,
        c.row_misses,
        c.row_conflicts
    );
    push_hist(out, &c.walk_latency);
    out.push_str(",\"epoch_dram_txns\":");
    push_u64_array(out, &c.epoch_dram_txns);
    out.push_str(",\"epoch_tlb_misses\":");
    push_u64_array(out, &c.epoch_tlb_misses);
    out.push('}');
}

fn push_stats(out: &mut String, s: &StatsReport) {
    let _ = write!(out, "{{\"epoch_cycles\":{},\"cores\":[", s.epoch_cycles);
    for (i, c) in s.cores.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_core_stats(out, c);
    }
    let _ = write!(
        out,
        "],\"dram\":{{\"row_hits\":{},\"row_misses\":{},\"row_conflicts\":{},\
         \"refreshes\":{},\"issues\":{},\"queue_residency\":",
        s.dram.row_hits, s.dram.row_misses, s.dram.row_conflicts, s.dram.refreshes, s.dram.issues
    );
    push_hist(out, &s.dram.queue_residency);
    out.push_str(",\"queue_depth\":");
    push_hist(out, &s.dram.queue_depth);
    out.push_str("},\"spans\":[");
    for (i, sp) in s.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"start\":{},\"end\":{},\"core\":{},\"phase\":\"{}\",\"id\":{}}}",
            sp.start,
            sp.end,
            sp.core,
            sp.phase.name(),
            sp.id
        );
    }
    out.push(']');
    // Scheduler fields exist only for serve-mode runs; batch reports keep
    // the exact historical byte layout (same idiom as
    // `request_log_truncated` above).
    if !s.jobs.is_empty() {
        out.push_str(",\"jobs\":[");
        for (i, j) in s.jobs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"job\":{},\"core\":{},\"arrival\":{},\"dispatch\":{},\"completion\":{}}}",
                j.job, j.core, j.arrival, j.dispatch, j.completion
            );
        }
        out.push(']');
    }
    if s.sched.arrivals > 0 {
        let _ = write!(
            out,
            ",\"sched\":{{\"arrivals\":{},\"dispatches\":{},\"completions\":{},\"queue_depth\":",
            s.sched.arrivals, s.sched.dispatches, s.sched.completions
        );
        push_hist(out, &s.sched.queue_depth);
        out.push('}');
    }
    out.push('}');
}

fn log_kind_name(k: LogKind) -> &'static str {
    match k {
        LogKind::TlbHit => "tlb_hit",
        LogKind::TlbMiss => "tlb_miss",
        LogKind::WalkStart => "walk_start",
        LogKind::WalkDone => "walk_done",
        LogKind::DramReadDone => "dram_read_done",
        LogKind::DramWriteDone => "dram_write_done",
    }
}

impl RunReport {
    /// Serialize the full report as a single deterministic JSON object.
    ///
    /// Every field of the report is included — per-core results (with MMU
    /// counters and layer cycles), DRAM statistics down to the per-channel
    /// counters, the bandwidth trace when enabled, and the request log —
    /// so byte-equality of two serializations implies behavioral equality
    /// of the two runs.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"cores\":[");
        for (i, c) in self.cores.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            push_str_field(&mut out, "workload", &c.workload);
            let _ = write!(
                out,
                ",\"cycles\":{},\"compute_cycles\":{},\"pe_utilization\":{},\
                 \"traffic_bytes\":{},\"walk_bytes\":{},",
                c.cycles, c.compute_cycles, c.pe_utilization, c.traffic_bytes, c.walk_bytes
            );
            let _ = write!(
                out,
                "\"mmu\":{{\"tlb_hits\":{},\"tlb_misses\":{},\"walks\":{},\
                 \"coalesced\":{},\"walker_stalls\":{}}},",
                c.mmu.tlb_hits, c.mmu.tlb_misses, c.mmu.walks, c.mmu.coalesced, c.mmu.walker_stalls
            );
            out.push_str("\"layer_cycles\":[");
            for (j, (name, cycles)) in c.layer_cycles.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('[');
                push_str_field(&mut out, "name", name);
                let _ = write!(out, ",\"cycles\":{cycles}]");
            }
            let _ = write!(
                out,
                "],\"footprint_bytes\":{},\"noc_queue_cycles\":{}}}",
                c.footprint_bytes, c.noc_queue_cycles
            );
        }
        let _ = write!(out, "],\"total_cycles\":{},", self.total_cycles);

        out.push_str("\"dram\":{\"total\":");
        push_channel_stats(&mut out, &self.dram.total);
        out.push_str(",\"per_channel\":[");
        for (i, ch) in self.dram.per_channel.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_channel_stats(&mut out, ch);
        }
        out.push_str("],\"per_core_bytes\":[");
        for (i, b) in self.dram.per_core_bytes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{b}");
        }
        out.push_str("]},");

        out.push_str("\"bandwidth_trace\":");
        match &self.bandwidth_trace {
            None => out.push_str("null"),
            Some(t) => {
                let _ = write!(out, "{{\"window\":{},\"total_series\":[", t.window());
                for (i, b) in t.total_series().iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{b}");
                }
                out.push_str("]}");
            }
        }

        out.push_str(",\"request_log\":[");
        for (i, e) in self.request_log.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"cycle\":{},\"core\":{},\"kind\":\"{}\",\"addr\":{}}}",
                e.cycle,
                e.core,
                log_kind_name(e.kind),
                e.addr
            );
        }
        out.push(']');
        // Observability fields are emitted only when present, so reports of
        // uninstrumented runs — including the golden fixtures — keep the
        // exact historical byte layout.
        if self.request_log_truncated {
            out.push_str(",\"request_log_truncated\":true");
        }
        if let Some(s) = &self.stats {
            out.push_str(",\"stats\":");
            push_stats(&mut out, s);
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{SharingLevel, Simulation, SystemConfig};
    use mnpu_model::{zoo, Scale};

    #[test]
    fn json_is_deterministic_and_structured() {
        let cfg = SystemConfig::bench(1, SharingLevel::Ideal);
        let nets = [zoo::ncf(Scale::Bench)];
        let a = Simulation::execute_networks(&cfg, &nets).to_json();
        let b = Simulation::execute_networks(&cfg, &nets).to_json();
        assert_eq!(a, b, "same run must serialize byte-identically");
        assert!(a.starts_with("{\"cores\":["));
        assert!(a.contains("\"total_cycles\":"));
        assert!(a.contains("\"per_channel\":["));
        assert!(a.ends_with("]}"));
    }

    #[test]
    fn names_are_escaped_as_json_strings() {
        use mnpu_model::{GemmSpec, Layer, Network};
        use mnpu_snapshot::json::{parse, Value};

        let (net_name, layer_name) = ("it's \"rés\"", "a\u{1}b 'é'");
        let net = Network::new(net_name, vec![Layer::gemm(layer_name, GemmSpec::new(8, 8, 8))]);
        let cfg = SystemConfig::bench(1, SharingLevel::Ideal);
        let doc = Simulation::execute_networks(&cfg, &[net]).to_json();
        // A `layer_cycles` entry keeps its pinned `["name":..,"cycles":..]`
        // layout, which is not JSON: parse the core's fields before it, and
        // the entry's members as an object.
        let (head, rest) = doc.split_once(",\"layer_cycles\":[[").unwrap();
        let core = parse(&format!("{}}}", &head["{\"cores\":[".len()..])).expect("core is JSON");
        assert_eq!(core.get("workload").and_then(Value::as_str), Some(net_name));
        let entry =
            parse(&format!("{{{}}}", rest.split_once("]]").unwrap().0)).expect("entry is JSON");
        assert_eq!(entry.get("name").and_then(Value::as_str), Some(layer_name));
    }

    #[test]
    fn json_includes_request_log_events() {
        let mut cfg = SystemConfig::bench(1, SharingLevel::Ideal);
        cfg.request_log = true;
        let r = Simulation::execute_networks(&cfg, &[zoo::ncf(Scale::Bench)]);
        let j = r.to_json();
        assert!(j.contains("\"kind\":\"tlb_"));
        assert!(j.contains("\"kind\":\"dram_read_done\""));
    }
}
