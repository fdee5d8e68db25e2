//! Parsers for the five configuration-file kinds.

use crate::error::ConfigError;
use crate::kv::{attr_pairs, KvFile};
use mnpu_dram::{AddressMapping, DramConfig};
use mnpu_engine::SharingLevel;
use mnpu_mmu::MmuConfig;
use mnpu_model::{ConvSpec, EmbeddingSpec, GemmSpec, Layer, LayerKind, Network};
use mnpu_systolic::{ArchConfig, Dataflow};

/// Parse an `arch_config` file (per-core compute configuration).
///
/// ```text
/// rows = 128            # systolic array rows
/// cols = 128
/// spm_bytes = 37748736  # on-chip scratchpad
/// freq_mhz = 1000
/// dataflow = output_stationary   # or weight_stationary (optional)
/// max_outstanding = 256          # DMA depth (optional)
/// ```
///
/// # Errors
///
/// Returns [`ConfigError::Parse`] with file/line context.
pub fn parse_arch(text: &str) -> Result<ArchConfig, ConfigError> {
    let kv = KvFile::parse("arch_config", text)?;
    let dataflow = match kv.get("dataflow").unwrap_or("output_stationary") {
        "output_stationary" | "os" => Dataflow::OutputStationary,
        "weight_stationary" | "ws" => Dataflow::WeightStationary,
        other => {
            return Err(ConfigError::parse(
                kv.file(),
                kv.line_of("dataflow"),
                format!("unknown dataflow `{other}`"),
            ))
        }
    };
    let arch = ArchConfig {
        rows: kv.u64_req("rows")?,
        cols: kv.u64_req("cols")?,
        spm_bytes: kv.u64_req("spm_bytes")?,
        freq_mhz: kv.u64_or("freq_mhz", 1000)?,
        dataflow,
        max_outstanding: kv.u64_or("max_outstanding", 256)? as usize,
    };
    arch.validate().map_err(|e| ConfigError::parse(kv.file(), 0, e))?;
    Ok(arch)
}

/// Parse a `network_config` file (DNN topology). One layer per line:
///
/// ```text
/// # name, kind, attributes...
/// conv1, conv, in_hw=224, in_c=3, out_c=96, k=11, stride=4, pad=2
/// fc6,   gemm, m=1, k=9216, n=4096, batch=1
/// emb,   embedding, tables=26, rows=1000000, dim=64, lookups=96, batch=64
/// ```
///
/// Rectangular convolutions use `in_h`/`in_w`/`k_h`/`k_w` instead of
/// `in_hw`/`k`.
///
/// # Errors
///
/// Returns [`ConfigError::Parse`] with file/line context.
pub fn parse_network(name: &str, text: &str) -> Result<Network, ConfigError> {
    let file = format!("network_config({name})");
    let mut layers = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split(',');
        let lname = fields.next().unwrap_or("").trim().to_string();
        let kind = fields.next().unwrap_or("").trim().to_ascii_lowercase();
        if lname.is_empty() || kind.is_empty() {
            return Err(ConfigError::parse(&file, i + 1, "expected `name, kind, attrs...`"));
        }
        let attrs = attr_pairs(&file, i + 1, fields)?;
        let need = |key: &str| {
            attrs.get(key).copied().ok_or_else(|| {
                ConfigError::parse(&file, i + 1, format!("{kind} layer requires `{key}=`"))
            })
        };
        let batch = attrs.get("batch").copied().unwrap_or(1);
        let layer_kind = match kind.as_str() {
            "conv" => {
                let (in_h, in_w) = match attrs.get("in_hw") {
                    Some(&hw) => (hw, hw),
                    None => (need("in_h")?, need("in_w")?),
                };
                let (k_h, k_w) = match attrs.get("k") {
                    Some(&k) => (k, k),
                    None => (need("k_h")?, need("k_w")?),
                };
                LayerKind::Conv(ConvSpec {
                    in_h,
                    in_w,
                    in_c: need("in_c")?,
                    out_c: need("out_c")?,
                    k_h,
                    k_w,
                    stride: attrs.get("stride").copied().unwrap_or(1),
                    padding: attrs.get("pad").copied().unwrap_or(0),
                })
            }
            "gemm" | "fc" => LayerKind::Gemm(GemmSpec::new(need("m")?, need("k")?, need("n")?)),
            "embedding" => LayerKind::Embedding(EmbeddingSpec {
                tables: need("tables")?,
                rows_per_table: need("rows")?,
                embed_dim: need("dim")?,
                lookups: need("lookups")?,
            }),
            other => {
                return Err(ConfigError::parse(
                    &file,
                    i + 1,
                    format!("unknown layer kind `{other}`"),
                ))
            }
        };
        layers.push(Layer::new(lname, layer_kind, batch));
    }
    if layers.is_empty() {
        return Err(ConfigError::parse(&file, 0, "network has no layers"));
    }
    Ok(Network::new(name, layers))
}

/// Serialize a [`Network`] back into the `network_config` format, so the zoo
/// can be exported to files that round-trip through [`parse_network`].
pub fn write_network(net: &Network) -> String {
    let mut out = format!("# network_config for {}\n", net.name());
    for l in net.iter() {
        match *l.kind() {
            LayerKind::Conv(c) => {
                out.push_str(&format!(
                    "{}, conv, in_h={}, in_w={}, in_c={}, out_c={}, k_h={}, k_w={}, stride={}, pad={}, batch={}\n",
                    l.name(), c.in_h, c.in_w, c.in_c, c.out_c, c.k_h, c.k_w, c.stride, c.padding, l.batch()
                ));
            }
            LayerKind::Gemm(g) => {
                out.push_str(&format!(
                    "{}, gemm, m={}, k={}, n={}, batch={}\n",
                    l.name(),
                    g.m,
                    g.k,
                    g.n,
                    l.batch()
                ));
            }
            LayerKind::Embedding(e) => {
                out.push_str(&format!(
                    "{}, embedding, tables={}, rows={}, dim={}, lookups={}, batch={}\n",
                    l.name(),
                    e.tables,
                    e.rows_per_table,
                    e.embed_dim,
                    e.lookups,
                    l.batch()
                ));
            }
        }
    }
    out
}

/// Parse an `npumem_config` file (per-core MMU parameters).
///
/// ```text
/// tlb_entries = 2048
/// tlb_assoc = 8
/// ptw = 8
/// page_bytes = 4096
/// pt_region_bytes = 16777216   # optional
/// ```
///
/// # Errors
///
/// Returns [`ConfigError::Parse`] with file/line context.
pub fn parse_npumem(text: &str) -> Result<MmuConfig, ConfigError> {
    let kv = KvFile::parse("npumem_config", text)?;
    Ok(MmuConfig {
        tlb_entries_per_core: kv.u64_req("tlb_entries")?,
        tlb_assoc: kv.u64_or("tlb_assoc", 8)?,
        ptws_per_core: kv.u64_req("ptw")? as usize,
        page_bytes: kv.u64_or("page_bytes", 4096)?,
        pt_region_bytes: kv.u64_or("pt_region_bytes", 16 << 20)?,
        coalesce_walks: kv.bool_or("coalesce_walks", true)?,
    })
}

/// The parsed `dram_config`: the device plus chip-level sharing options
/// (DRAM is always chip-shared state in mNPUsim, so the sharing level and
/// channel split live here).
#[derive(Debug, Clone, PartialEq)]
pub struct DramFileConfig {
    /// Device configuration (channel count = chip total).
    pub dram: DramConfig,
    /// Resource-sharing level.
    pub sharing: SharingLevel,
    /// Optional unequal static channel split.
    pub channel_partition: Option<Vec<usize>>,
    /// Optional on-chip interconnect (`noc_bytes_per_cycle` +
    /// `noc_hop_latency` keys; both absent = ideal interconnect).
    pub noc: Option<mnpu_noc::NocConfig>,
}

/// Parse a `dram_config` file.
///
/// ```text
/// preset = hbm2            # hbm2 | ddr4 | bench (timing preset)
/// channels = 8             # chip-total channels
/// sharing = +DWT           # Ideal | Static | +D | +DW | +DWT
/// channel_partition = 1,7  # optional, Static only
/// queue_depth = 64         # optional overrides...
/// mapping = block_interleaved   # or row_interleaved
/// ```
///
/// # Errors
///
/// Returns [`ConfigError::Parse`] with file/line context.
pub fn parse_dram(text: &str) -> Result<DramFileConfig, ConfigError> {
    let kv = KvFile::parse("dram_config", text)?;
    let channels = kv.u64_req("channels")? as usize;
    let mut dram = match kv.get("preset").unwrap_or("hbm2") {
        "hbm2" => DramConfig::hbm2(channels),
        "ddr4" => DramConfig::ddr4(channels),
        "bench" => DramConfig::bench(channels),
        other => {
            return Err(ConfigError::parse(
                kv.file(),
                kv.line_of("preset"),
                format!("unknown preset `{other}`"),
            ))
        }
    };
    dram.queue_depth = kv.u64_or("queue_depth", dram.queue_depth as u64)? as usize;
    dram.row_bytes = kv.u64_or("row_bytes", dram.row_bytes)?;
    dram.rows = kv.u64_or("rows", dram.rows)?;
    if let Some(m) = kv.get("mapping") {
        dram.mapping = match m {
            "block_interleaved" => AddressMapping::BlockInterleaved,
            "row_interleaved" => AddressMapping::RowInterleaved,
            other => {
                return Err(ConfigError::parse(
                    kv.file(),
                    kv.line_of("mapping"),
                    format!("unknown mapping `{other}`"),
                ))
            }
        };
    }
    dram.validate().map_err(|e| ConfigError::parse(kv.file(), 0, e))?;

    let sharing_name = kv.get("sharing").unwrap_or("+DWT");
    let sharing = SharingLevel::from_label(sharing_name).ok_or_else(|| {
        ConfigError::parse(
            kv.file(),
            kv.line_of("sharing"),
            format!("unknown sharing level `{sharing_name}`"),
        )
    })?;
    let channel_partition =
        kv.u64_list("channel_partition")?.map(|v| v.into_iter().map(|x| x as usize).collect());
    let noc = match (kv.get("noc_bytes_per_cycle"), kv.get("noc_hop_latency")) {
        (None, None) => None,
        _ => Some(mnpu_noc::NocConfig {
            bytes_per_cycle: kv.u64_or("noc_bytes_per_cycle", 64)?,
            hop_latency: kv.u64_or("noc_hop_latency", 4)?,
        }),
    };
    Ok(DramFileConfig { dram, sharing, channel_partition, noc })
}

/// The parsed `misc_config`: execution mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiscConfig {
    /// Per-core start cycles (empty = all zero).
    pub start_cycles: Vec<u64>,
    /// Iterations of each network.
    pub iterations: u64,
    /// Optional static walker split (the `misc_config` owns PTW partitioning
    /// in the original, matching its appendix).
    pub ptw_partition: Option<Vec<usize>>,
    /// Optional managed walker sharing: per-core minimum and maximum
    /// occupancy of the shared pool (`ptw_min = 1,1` / `ptw_max = 3,3`).
    pub ptw_bounds: Option<mnpu_mmu::PtwBounds>,
    /// Address translation on/off.
    pub translation: bool,
    /// Optional bandwidth-trace window (0 = off).
    pub trace_window: u64,
    /// Optional cycle watchdog (0 = unlimited).
    pub max_cycles: u64,
    /// Record the full request log (see the engine's `request_log` option).
    pub request_log: bool,
}

/// Parse a `misc_config` file.
///
/// ```text
/// start_cycles = 0, 1000   # optional, one per core
/// iterations = 1
/// ptw_partition = 2, 14    # optional static split
/// ptw_min = 1, 1           # optional managed-sharing bounds (with ptw_max)
/// ptw_max = 3, 3
/// translation = true
/// trace_window = 0
/// max_cycles = 0           # watchdog; 0 = unlimited
/// request_log = false      # emit TLB/PTW/DRAM logs
/// ```
///
/// # Errors
///
/// Returns [`ConfigError::Parse`] with file/line context.
pub fn parse_misc(text: &str) -> Result<MiscConfig, ConfigError> {
    let kv = KvFile::parse("misc_config", text)?;
    let to_usize = |v: Vec<u64>| v.into_iter().map(|x| x as usize).collect::<Vec<usize>>();
    let ptw_min = kv.u64_list("ptw_min")?.map(to_usize);
    let ptw_max = kv.u64_list("ptw_max")?.map(to_usize);
    let ptw_bounds = match (ptw_min, ptw_max) {
        (Some(min), Some(max)) => Some(mnpu_mmu::PtwBounds { min, max }),
        (None, None) => None,
        _ => {
            return Err(ConfigError::parse(
                kv.file(),
                kv.line_of("ptw_min").max(kv.line_of("ptw_max")),
                "ptw_min and ptw_max must be given together",
            ))
        }
    };
    Ok(MiscConfig {
        start_cycles: kv.u64_list("start_cycles")?.unwrap_or_default(),
        iterations: kv.u64_or("iterations", 1)?,
        ptw_partition: kv.u64_list("ptw_partition")?.map(to_usize),
        ptw_bounds,
        translation: kv.bool_or("translation", true)?,
        trace_window: kv.u64_or("trace_window", 0)?,
        max_cycles: kv.u64_or("max_cycles", 0)?,
        request_log: kv.bool_or("request_log", false)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnpu_model::{zoo, Scale};

    #[test]
    fn arch_roundtrip_with_defaults() {
        let a = parse_arch("rows=16\ncols = 16\nspm_bytes = 1048576").unwrap();
        assert_eq!(a.rows, 16);
        assert_eq!(a.freq_mhz, 1000);
        assert_eq!(a.dataflow, Dataflow::OutputStationary);
    }

    #[test]
    fn arch_rejects_bad_dataflow_and_missing_keys() {
        assert!(parse_arch("rows=16\ncols=16\nspm_bytes=1048576\ndataflow=banana").is_err());
        let e = parse_arch("rows=16").unwrap_err();
        assert!(e.to_string().contains("cols"));
    }

    #[test]
    fn network_parses_all_layer_kinds() {
        let text = "\
c1, conv, in_hw=32, in_c=3, out_c=8, k=3, stride=1, pad=1
f1, gemm, m=2, k=128, n=64
e1, embedding, tables=4, rows=1000, dim=32, lookups=8, batch=2
";
        let net = parse_network("test", text).unwrap();
        assert_eq!(net.num_layers(), 3);
        assert!(matches!(net.layers()[0].kind(), LayerKind::Conv(_)));
        assert!(matches!(net.layers()[2].kind(), LayerKind::Embedding(_)));
        assert_eq!(net.layers()[2].batch(), 2);
    }

    #[test]
    fn rectangular_conv_supported() {
        let net = parse_network(
            "r",
            "c, conv, in_h=161, in_w=200, in_c=1, out_c=32, k_h=41, k_w=11, stride=2, pad=20",
        )
        .unwrap();
        let LayerKind::Conv(c) = *net.layers()[0].kind() else { panic!() };
        assert_eq!((c.k_h, c.k_w), (41, 11));
    }

    #[test]
    fn zoo_round_trips_through_text() {
        for net in zoo::all(Scale::Bench) {
            let text = write_network(&net);
            let back = parse_network(net.name(), &text).unwrap();
            assert_eq!(&back, &net, "{} round trip", net.name());
        }
    }

    #[test]
    fn network_errors_carry_line_numbers() {
        let e = parse_network("x", "ok, gemm, m=1, k=1, n=1\nbad, conv, in_hw=8").unwrap_err();
        assert!(e.to_string().contains(":2"), "{e}");
        assert!(parse_network("x", "").is_err(), "empty network rejected");
        assert!(parse_network("x", "a, warp, q=1").is_err(), "unknown kind rejected");
    }

    #[test]
    fn npumem_parses() {
        let m = parse_npumem("tlb_entries = 2048\ntlb_assoc=8\nptw = 8\npage_bytes=65536").unwrap();
        assert_eq!(m.tlb_entries_per_core, 2048);
        assert_eq!(m.page_bytes, 65536);
        assert_eq!(m.walk_levels(), 3);
    }

    #[test]
    fn dram_presets_and_sharing() {
        let d = parse_dram("preset=hbm2\nchannels=8\nsharing=+DW").unwrap();
        assert_eq!(d.dram.channels, 8);
        assert_eq!(d.sharing, SharingLevel::PlusDw);
        assert!(d.channel_partition.is_none());

        let d = parse_dram("channels=8\nsharing=Static\nchannel_partition=1,7").unwrap();
        assert_eq!(d.channel_partition, Some(vec![1, 7]));

        assert!(parse_dram("channels=8\nsharing=everything").is_err());
        assert!(parse_dram("channels=8\npreset=rambus").is_err());
    }

    #[test]
    fn misc_defaults_and_overrides() {
        let m = parse_misc("").unwrap();
        assert_eq!(m.iterations, 1);
        assert!(m.translation);
        let m = parse_misc("iterations=3\ntranslation=off\nstart_cycles=0,500\nptw_partition=2,14")
            .unwrap();
        assert_eq!(m.iterations, 3);
        assert!(!m.translation);
        assert_eq!(m.start_cycles, vec![0, 500]);
        assert_eq!(m.ptw_partition, Some(vec![2, 14]));
    }
}
