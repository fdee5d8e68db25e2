//! Workload trace generation: per-tile compute cycles and DRAM request
//! spans in the core's virtual address space.

use crate::arch::ArchConfig;
use crate::gemm_timing::gemm_cycles;
use crate::tiling::{choose_tile, TileShape};
use mnpu_model::{DataType, GemmSpec, Layer, LayerKind, Network};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;

/// Base virtual address of a core's tensor arena. Leaving page zero and the
/// low region unmapped catches stray-address bugs in tests.
pub const VIRT_BASE: u64 = 0x1000_0000;

/// Direction of a DRAM access span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// DRAM → SPM (tile fill).
    Load,
    /// SPM → DRAM (tile writeback).
    Store,
}

/// A contiguous virtual-address range accessed by one tile.
///
/// Spans are later split into page-sized translation units and 64-byte DRAM
/// transactions by the engine; keeping them coalesced here keeps traces
/// compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemSpan {
    /// Starting virtual address.
    pub addr: u64,
    /// Length in bytes (always positive).
    pub bytes: u64,
    /// Load or store.
    pub kind: SpanKind,
}

/// One schedulable unit of work: fill the SPM half-buffer, run the array,
/// write back results. Tiles of a layer execute in order with
/// double-buffered overlap (the engine models the overlap).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tile {
    /// Systolic-array cycles for this tile (core clock).
    pub compute_cycles: u64,
    /// MACs performed by this tile.
    pub macs: u64,
    /// DRAM→SPM spans that must complete before compute starts.
    pub loads: Vec<MemSpan>,
    /// SPM→DRAM spans issued after compute finishes.
    pub stores: Vec<MemSpan>,
}

impl Tile {
    /// Bytes loaded by this tile.
    pub fn load_bytes(&self) -> u64 {
        self.loads.iter().map(|s| s.bytes).sum()
    }

    /// Bytes stored by this tile.
    pub fn store_bytes(&self) -> u64 {
        self.stores.iter().map(|s| s.bytes).sum()
    }
}

/// The trace of one layer: its lowered GEMM, chosen tile shape, and tiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerTrace {
    /// Layer name from the model.
    pub name: String,
    /// Lowered GEMM shape.
    pub gemm: GemmSpec,
    /// Tile shape chosen by the tiler (meaningless for embedding gathers).
    pub tile_shape: TileShape,
    /// Tiles in execution order.
    pub tiles: Vec<Tile>,
}

impl LayerTrace {
    /// Total compute cycles of the layer.
    pub fn compute_cycles(&self) -> u64 {
        self.tiles.iter().map(|t| t.compute_cycles).sum()
    }

    /// Total DRAM traffic (loads + stores) in bytes.
    pub fn traffic_bytes(&self) -> u64 {
        self.tiles.iter().map(|t| t.load_bytes() + t.store_bytes()).sum()
    }
}

/// A complete, memory-system-agnostic program for one NPU core.
///
/// Produced by [`WorkloadTrace::generate`]; consumed by `mnpu-engine`.
/// Traces are immutable once generated, so the layers sit behind an
/// [`Arc`]: a clone (one per simulated core, one per memo lookup) shares
/// them instead of copying every tile and span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadTrace {
    name: String,
    dtype: DataType,
    layers: Arc<[LayerTrace]>,
    footprint_bytes: u64,
}

impl WorkloadTrace {
    /// Generate the trace of `net` on the core described by `arch`.
    ///
    /// Address layout (all regions page-aligned within the virtual arena
    /// starting at [`VIRT_BASE`]):
    ///
    /// * per-layer weight regions, allocated in layer order;
    /// * two activation ping-pong buffers sized for the largest activation
    ///   (layer *i* reads buffer *i mod 2* and writes buffer *(i+1) mod 2*);
    /// * per-embedding-layer table regions.
    ///
    /// # Panics
    ///
    /// Panics if `arch` fails [`ArchConfig::validate`].
    pub fn generate(net: &Network, arch: &ArchConfig) -> WorkloadTrace {
        if let Err(e) = arch.validate() {
            panic!("invalid arch config: {e}");
        }
        let e = net.dtype().bytes();
        let page = 4096u64;
        let align = |x: u64| x.div_ceil(page) * page;

        // --- Address layout ---------------------------------------------
        let mut cursor = VIRT_BASE;
        let mut alloc = |bytes: u64| {
            let base = cursor;
            cursor += align(bytes);
            base
        };

        // Activation ping-pong buffers sized for the largest input/output.
        let max_act = net
            .iter()
            .map(|l| {
                let g = l.to_gemm();
                (g.input_elems() * e).max(g.output_elems() * e)
            })
            .max()
            .unwrap_or(page);
        let act = [alloc(max_act), alloc(max_act)];

        let mut weight_base = Vec::with_capacity(net.num_layers());
        let mut table_base = Vec::with_capacity(net.num_layers());
        for l in net.iter() {
            match l.kind() {
                LayerKind::Embedding(emb) => {
                    weight_base.push(0);
                    table_base.push(alloc(emb.table_elems() * e));
                }
                _ => {
                    weight_base.push(alloc(l.to_gemm().weight_elems() * e));
                    table_base.push(0);
                }
            }
        }

        // --- Per-layer trace ---------------------------------------------
        let mut layers = Vec::with_capacity(net.num_layers());
        for (i, l) in net.iter().enumerate() {
            let a_base = act[i % 2];
            let c_base = act[(i + 1) % 2];
            let lt = match l.kind() {
                LayerKind::Embedding(_) => {
                    trace_embedding_layer(l, arch, e, table_base[i], c_base, i as u64)
                }
                _ => trace_gemm_layer(l, arch, e, a_base, weight_base[i], c_base),
            };
            layers.push(lt);
        }

        WorkloadTrace {
            name: net.name().to_string(),
            dtype: net.dtype(),
            layers: layers.into(),
            footprint_bytes: cursor - VIRT_BASE,
        }
    }

    /// A trace with no layers and no footprint: the workload of a vacant
    /// core. An engine core bound to it finishes immediately without
    /// touching memory, which is how a scheduler represents "nothing is
    /// running here" without special-casing the event loop.
    pub fn empty() -> WorkloadTrace {
        WorkloadTrace {
            name: String::new(),
            dtype: DataType::Int8,
            layers: Arc::new([]),
            footprint_bytes: 0,
        }
    }

    /// Workload name (the network's name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Element datatype.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Per-layer traces in execution order.
    pub fn layers(&self) -> &[LayerTrace] {
        &self.layers
    }

    /// Virtual memory footprint in bytes (weights + activations + tables).
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint_bytes
    }

    /// Sum of all tiles' compute cycles (a lower bound on execution time,
    /// reached when memory never stalls the pipeline).
    pub fn total_compute_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.compute_cycles()).sum()
    }

    /// Total DRAM traffic in bytes.
    pub fn total_traffic_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.traffic_bytes()).sum()
    }

    /// Total MACs.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().flat_map(|l| &l.tiles).map(|t| t.macs).sum()
    }

    /// Compute-only PE utilization: MACs over PE-cycles while computing.
    pub fn pe_utilization(&self, arch: &ArchConfig) -> f64 {
        let cycles = self.total_compute_cycles();
        if cycles == 0 {
            return 0.0;
        }
        self.total_macs() as f64 / (arch.rows * arch.cols * cycles) as f64
    }

    /// Total number of tiles across all layers.
    pub fn total_tiles(&self) -> usize {
        self.layers.iter().map(|l| l.tiles.len()).sum()
    }
}

/// Emit spans for a row-major sub-matrix `rows x cols` region within a
/// matrix of `row_stride` columns, starting at element `(r0, c0)`.
#[allow(clippy::too_many_arguments)]
fn submatrix_spans(
    base: u64,
    row_stride: u64,
    r0: u64,
    c0: u64,
    rows: u64,
    cols: u64,
    elem: u64,
    kind: SpanKind,
    out: &mut Vec<MemSpan>,
) {
    debug_assert!(rows > 0 && cols > 0);
    if cols == row_stride {
        // Full-width rows are contiguous: one span.
        out.push(MemSpan { addr: base + r0 * row_stride * elem, bytes: rows * cols * elem, kind });
        return;
    }
    for r in r0..r0 + rows {
        out.push(MemSpan { addr: base + (r * row_stride + c0) * elem, bytes: cols * elem, kind });
    }
}

fn trace_gemm_layer(
    layer: &Layer,
    arch: &ArchConfig,
    e: u64,
    a_base: u64,
    b_base: u64,
    c_base: u64,
) -> LayerTrace {
    let gemm = layer.to_gemm();
    let shape = choose_tile(gemm, arch, DataType::Fp16);
    let (tm, tk, tn) = (shape.tm, shape.tk, shape.tn);
    let k_chunks = gemm.k.div_ceil(tk);
    let mut tiles = Vec::new();

    let mut mi = 0;
    while mi < gemm.m {
        let cur_m = tm.min(gemm.m - mi);
        let mut ni = 0;
        while ni < gemm.n {
            let cur_n = tn.min(gemm.n - ni);
            let mut ki = 0;
            let mut kc = 0;
            while ki < gemm.k {
                let cur_k = tk.min(gemm.k - ki);
                let mut loads = Vec::new();
                submatrix_spans(
                    a_base,
                    gemm.k,
                    mi,
                    ki,
                    cur_m,
                    cur_k,
                    e,
                    SpanKind::Load,
                    &mut loads,
                );
                submatrix_spans(
                    b_base,
                    gemm.n,
                    ki,
                    ni,
                    cur_k,
                    cur_n,
                    e,
                    SpanKind::Load,
                    &mut loads,
                );
                let mut stores = Vec::new();
                if kc == k_chunks - 1 {
                    submatrix_spans(
                        c_base,
                        gemm.n,
                        mi,
                        ni,
                        cur_m,
                        cur_n,
                        e,
                        SpanKind::Store,
                        &mut stores,
                    );
                }
                let t = gemm_cycles(GemmSpec::new(cur_m, cur_k, cur_n), arch);
                tiles.push(Tile { compute_cycles: t.cycles, macs: t.macs, loads, stores });
                ki += cur_k;
                kc += 1;
            }
            ni += cur_n;
        }
        mi += cur_m;
    }

    LayerTrace { name: layer.name().to_string(), gemm, tile_shape: shape, tiles }
}

fn trace_embedding_layer(
    layer: &Layer,
    arch: &ArchConfig,
    e: u64,
    table_base: u64,
    c_base: u64,
    seed: u64,
) -> LayerTrace {
    let LayerKind::Embedding(emb) = *layer.kind() else {
        unreachable!("caller checked the kind");
    };
    let gemm = layer.to_gemm();
    let row_bytes = emb.embed_dim * e;
    let total_lookups = layer.batch() * emb.tables * emb.lookups;
    // Group gathers into tiles whose rows fit the SPM half-buffer.
    let per_tile = (arch.tile_budget_bytes() / row_bytes).max(1);
    let n_tiles = total_lookups.div_ceil(per_tile);
    let timing = gemm_cycles(gemm, arch);
    let mut rng = StdRng::seed_from_u64(0x454d_4245_4444 ^ seed); // "EMBEDD"

    let mut tiles = Vec::with_capacity(n_tiles as usize);
    let mut remaining = total_lookups;
    let out_bytes_total = gemm.output_elems() * e;
    let mut out_cursor = 0u64;
    for ti in 0..n_tiles {
        let lookups = per_tile.min(remaining);
        remaining -= lookups;
        let mut loads = Vec::with_capacity(lookups as usize);
        for j in 0..lookups {
            let table = ((ti * per_tile + j) / emb.lookups.max(1)) % emb.tables;
            // Embedding popularity is heavily skewed in practice: most
            // lookups hit a small hot set. Model it as 80% of gathers from
            // the hottest 1/16th of each table, the rest uniform — this
            // gives the recommendation workloads realistic page locality
            // instead of an adversarial uniform scatter.
            let hot_rows = (emb.rows_per_table / 16).max(1);
            let row: u64 = if rng.random_range(0..100) < 80 {
                rng.random_range(0..hot_rows)
            } else {
                rng.random_range(0..emb.rows_per_table)
            };
            let addr = table_base + (table * emb.rows_per_table + row) * row_bytes;
            loads.push(MemSpan { addr, bytes: row_bytes, kind: SpanKind::Load });
        }
        // Proportional share of the reduced output written back.
        let out_share = if ti == n_tiles - 1 {
            out_bytes_total - out_cursor
        } else {
            (out_bytes_total / n_tiles).max(e)
        };
        let stores = if out_share > 0 {
            vec![MemSpan { addr: c_base + out_cursor, bytes: out_share, kind: SpanKind::Store }]
        } else {
            Vec::new()
        };
        out_cursor += out_share;
        tiles.push(Tile {
            compute_cycles: (timing.cycles / n_tiles).max(1),
            macs: timing.macs / n_tiles,
            loads,
            stores,
        });
    }

    LayerTrace {
        name: layer.name().to_string(),
        gemm,
        tile_shape: TileShape { tm: per_tile, tk: emb.embed_dim, tn: 1 },
        tiles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnpu_model::{zoo, EmbeddingSpec, Scale};

    fn bench() -> ArchConfig {
        ArchConfig::bench_npu()
    }

    fn mlp() -> Network {
        Network::new(
            "mlp",
            vec![
                Layer::gemm("fc1", GemmSpec::new(8, 256, 128)),
                Layer::gemm("fc2", GemmSpec::new(8, 128, 64)),
            ],
        )
    }

    #[test]
    fn trace_has_one_layertrace_per_layer() {
        let t = WorkloadTrace::generate(&mlp(), &bench());
        assert_eq!(t.layers().len(), 2);
        assert_eq!(t.name(), "mlp");
    }

    #[test]
    fn clones_share_their_layers() {
        let t = WorkloadTrace::generate(&mlp(), &bench());
        let c = t.clone();
        assert!(std::ptr::eq(t.layers(), c.layers()), "a clone must not copy the layers");
        assert_eq!(t, c);
    }

    #[test]
    fn traffic_matches_model_accounting() {
        // For a single-k-chunk tiling, trace traffic equals the model's
        // analytic total (each element moved exactly once).
        let net = mlp();
        let t = WorkloadTrace::generate(&net, &bench());
        assert_eq!(t.total_traffic_bytes(), net.summary().total_traffic_bytes);
    }

    #[test]
    fn k_split_rereads_a_and_b_once_per_chunk() {
        // Force multi-chunk K with a tiny SPM.
        let arch = ArchConfig { spm_bytes: 16 << 10, ..bench() };
        let g = GemmSpec::new(64, 4096, 64);
        let net = Network::new("big_k", vec![Layer::gemm("fc", g)]);
        let t = WorkloadTrace::generate(&net, &arch);
        let lt = &t.layers()[0];
        let k_chunks = g.k.div_ceil(lt.tile_shape.tk);
        assert!(k_chunks > 1, "test needs a k-split");
        // Stores happen exactly once per (m,n) block regardless of k-chunks.
        let store_bytes: u64 = lt.tiles.iter().map(Tile::store_bytes).sum();
        assert_eq!(store_bytes, g.output_elems() * 2);
    }

    #[test]
    fn spans_stay_inside_footprint() {
        for name in ["alex", "dlrm", "gpt2"] {
            let net = zoo::by_name(name, Scale::Bench).unwrap();
            let t = WorkloadTrace::generate(&net, &bench());
            let hi = VIRT_BASE + t.footprint_bytes();
            for lt in t.layers() {
                for tile in &lt.tiles {
                    for s in tile.loads.iter().chain(&tile.stores) {
                        assert!(s.bytes > 0);
                        assert!(s.addr >= VIRT_BASE, "{name}: span below arena");
                        assert!(s.addr + s.bytes <= hi, "{name}: span beyond footprint");
                    }
                }
            }
        }
    }

    #[test]
    fn compute_cycles_close_to_untiled_model() {
        // Tiling adds fill/drain overhead but should stay within 2x of the
        // untiled analytical cycles for a regular conv layer.
        let net = zoo::yolo_tiny(Scale::Bench);
        let arch = bench();
        let t = WorkloadTrace::generate(&net, &arch);
        for (lt, l) in t.layers().iter().zip(net.iter()) {
            let untiled = gemm_cycles(l.to_gemm(), &arch).cycles;
            let tiled = lt.compute_cycles();
            assert!(tiled >= untiled, "{}", lt.name);
            assert!(tiled < untiled * 2, "{}: {tiled} vs {untiled}", lt.name);
        }
    }

    #[test]
    fn embedding_layer_gathers_rows() {
        let emb = EmbeddingSpec { tables: 4, rows_per_table: 1000, embed_dim: 32, lookups: 8 };
        let net = Network::new("emb", vec![Layer::new("e", LayerKind::Embedding(emb), 2)]);
        let t = WorkloadTrace::generate(&net, &bench());
        let lt = &t.layers()[0];
        let n_loads: usize = lt.tiles.iter().map(|t| t.loads.len()).sum();
        assert_eq!(n_loads as u64, 2 * 4 * 8);
        let row_bytes = 32 * 2;
        for tile in &lt.tiles {
            for s in &tile.loads {
                assert_eq!(s.bytes, row_bytes);
            }
        }
    }

    #[test]
    fn embedding_trace_is_deterministic() {
        let net = zoo::dlrm(Scale::Bench);
        let a = WorkloadTrace::generate(&net, &bench());
        let b = WorkloadTrace::generate(&net, &bench());
        assert_eq!(a, b);
    }

    #[test]
    fn utilization_in_unit_interval() {
        for net in zoo::all(Scale::Bench) {
            let arch = bench();
            let t = WorkloadTrace::generate(&net, &arch);
            let u = t.pe_utilization(&arch);
            assert!(u > 0.0 && u <= 1.0, "{}: {}", net.name(), u);
        }
    }

    #[test]
    fn ping_pong_buffers_alternate() {
        let net = mlp();
        let t = WorkloadTrace::generate(&net, &bench());
        // Layer 0 writes where layer 1 reads.
        let l0_store = t.layers()[0].tiles.last().unwrap().stores[0].addr;
        let l1_load = t.layers()[1].tiles[0].loads[0].addr;
        assert_eq!(l0_store, l1_load);
    }

    #[test]
    fn bursty_loads_precede_compute() {
        // Every tile with compute also has loads (data must come from DRAM).
        let net = zoo::gpt2(Scale::Bench);
        let t = WorkloadTrace::generate(&net, &bench());
        for lt in t.layers() {
            for tile in &lt.tiles {
                assert!(!tile.loads.is_empty());
                assert!(tile.compute_cycles > 0);
            }
        }
    }
}

#[cfg(test)]
mod dataflow_tests {
    use super::*;
    use crate::arch::{ArchConfig, Dataflow};
    use mnpu_model::{GemmSpec, Layer, Network};

    #[test]
    fn weight_stationary_traces_generate_and_differ_in_time() {
        let net = Network::new("ws", vec![Layer::gemm("fc", GemmSpec::new(64, 512, 64))]);
        let os_arch = ArchConfig::bench_npu();
        let ws_arch = ArchConfig { dataflow: Dataflow::WeightStationary, ..os_arch.clone() };
        let os = WorkloadTrace::generate(&net, &os_arch);
        let ws = WorkloadTrace::generate(&net, &ws_arch);
        // Same data movement, different compute schedule.
        assert_eq!(os.total_traffic_bytes(), ws.total_traffic_bytes());
        assert_ne!(os.total_compute_cycles(), ws.total_compute_cycles());
        assert!(ws.total_compute_cycles() > 0);
    }

    #[test]
    fn full_scale_trace_generates_for_heaviest_model() {
        use mnpu_model::{zoo, Scale};
        let net = zoo::selfish_rnn(Scale::Full);
        let trace = WorkloadTrace::generate(&net, &ArchConfig::cloud_npu());
        // Full-scale sfrnn moves gigabytes; the trace must account for all
        // of it without overflow or tile-count explosion.
        assert!(trace.total_traffic_bytes() > 1 << 30);
        assert!(trace.total_tiles() < 1_000_000);
        assert!(trace.pe_utilization(&ArchConfig::cloud_npu()) > 0.0);
    }
}
