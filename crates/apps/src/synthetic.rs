//! Synthetic SNN topologies (paper §V, Fig. 5 and Fig. 7).
//!
//! "We considered synthetic applications with different number of neural
//! network layers and number of neurons per layer … marked m × n, where m
//! is the number of layers and n is the number of neurons per layer.
//! Neurons of the first layer receive their input from 10 neurons creating
//! spike trains whose inter-spike interval follows a Poisson process with
//! mean firing rates between 10 Hz and 100 Hz. These synthetic SNNs
//! implement fully connected feedforward topologies."

use crate::App;
use neuromap_core::CoreError;
use neuromap_snn::generator::Generator;
use neuromap_snn::network::{ConnectPattern, Network, NetworkBuilder, WeightInit};
use neuromap_snn::neuron::NeuronKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of Poisson stimulus neurons feeding the first layer.
pub const STIMULUS: u32 = 10;

/// A synthetic fully connected feedforward SNN with `layers × width`
/// neurons.
#[derive(Debug, Clone, Copy)]
pub struct Synthetic {
    /// Number of hidden layers (the paper's `m`).
    pub layers: u32,
    /// Neurons per layer (the paper's `n`).
    pub width: u32,
    /// Simulation length (ms).
    pub steps: u32,
}

impl Synthetic {
    /// Creates the `m × n` topology of the paper with a 1-second stimulus.
    ///
    /// # Panics
    ///
    /// Panics if `layers` or `width` is zero.
    pub fn new(layers: u32, width: u32) -> Self {
        assert!(layers > 0 && width > 0, "topology must be non-empty");
        Self {
            layers,
            width,
            steps: 1000,
        }
    }

    /// Total neurons including the 10 stimulus sources.
    pub fn total_neurons(&self) -> u32 {
        STIMULUS + self.layers * self.width
    }

    /// Synapse count of the fully connected feedforward stack.
    pub fn total_synapses(&self) -> u64 {
        STIMULUS as u64 * self.width as u64
            + (self.layers as u64 - 1) * (self.width as u64 * self.width as u64)
    }
}

impl App for Synthetic {
    fn name(&self) -> String {
        format!("synth_{}x{}", self.layers, self.width)
    }

    fn build(&self, seed: u64) -> Result<Network, CoreError> {
        let mut rng = StdRng::seed_from_u64(seed);
        // 10 Poisson sources, mean rates uniform in 10–100 Hz (paper)
        let rates: Vec<f64> = (0..STIMULUS).map(|_| rng.gen_range(10.0..100.0)).collect();
        let mut b = NetworkBuilder::new();
        b.seed(seed);
        let mut prev = b.add_input_group("stim", STIMULUS, Generator::rates(rates))?;
        // weight scaling keeps activity alive through depth: the mean drive
        // per neuron per ms should sit near the Izhikevich RS rheobase
        for l in 0..self.layers {
            let group = b.add_group(
                &format!("layer{l}"),
                self.width,
                NeuronKind::izhikevich_rs(),
            )?;
            let fan_in = if l == 0 { STIMULUS } else { self.width };
            let w = 160.0 / fan_in as f32;
            b.connect(
                prev,
                group,
                ConnectPattern::Full,
                WeightInit::Constant(w),
                1,
            )?;
            prev = group;
        }
        Ok(b.build()?)
    }

    fn sim_steps(&self) -> u32 {
        self.steps
    }
}

/// A synthetic *large-architecture* partitioning scenario: a `side ×
/// side` crossbar grid (256 crossbars at the default `side = 16`) filled
/// to `fill_percent` of capacity with a locality-biased random spike
/// graph.
///
/// The Fig. 5 topologies above exercise paper-scale *networks* on small
/// architectures (≤ 64 crossbars); SpiNeMap-class evaluations
/// (Balaji et al.) run on hundreds of cores, which is exactly the regime
/// where the batched `CutPackets` evaluator used to fall back to a
/// per-candidate scalar scan. This scenario is built **directly as a
/// spike graph** (seeded, no SNN simulation) so 256-crossbar workloads
/// are cheap to construct in benches and tests: most synapses stay
/// between neighbouring tiles of the grid (a good mapping exists and
/// optimizers have real gradient to follow), a global tail keeps the
/// multicast sets non-trivial.
#[derive(Debug, Clone, Copy)]
pub struct LargeArch {
    /// Crossbar grid side; the architecture has `side²` crossbars.
    pub side: u32,
    /// Crossbar capacity (neurons per crossbar).
    pub neurons_per_crossbar: u32,
    /// Outgoing synapses per neuron.
    pub synapses_per_neuron: u32,
    /// Occupied fraction of total capacity, in percent — the headroom
    /// lets partitioners actually move neurons around.
    pub fill_percent: u32,
}

impl LargeArch {
    /// The 16 × 16 = 256-crossbar benchmark scenario tracked in
    /// `BENCH_eval.json`.
    pub fn grid16() -> Self {
        Self {
            side: 16,
            neurons_per_crossbar: 8,
            synapses_per_neuron: 24,
            fill_percent: 85,
        }
    }

    /// The 32 × 32 = 1024-crossbar scenario behind the `multilevel/*`
    /// ratios in `BENCH_eval.json`: ~7k neurons × 1024 crossbars puts
    /// flat PSO past the batched-evaluator tile limit *and* a ~29 MB
    /// velocity buffer per particle — infeasible to solve flat within
    /// the bench budget, which is exactly what the multilevel V-cycle
    /// is for.
    pub fn grid32() -> Self {
        Self {
            side: 32,
            neurons_per_crossbar: 8,
            synapses_per_neuron: 24,
            fill_percent: 85,
        }
    }

    /// Scenario label (`synth_16x16grid` for the default).
    pub fn name(&self) -> String {
        format!("synth_{0}x{0}grid", self.side)
    }

    /// Number of crossbars in the grid.
    pub fn num_crossbars(&self) -> usize {
        (self.side * self.side) as usize
    }

    /// Crossbar capacity.
    pub fn capacity(&self) -> u32 {
        self.neurons_per_crossbar
    }

    /// Neurons in the generated graph (`fill_percent` of total capacity).
    pub fn num_neurons(&self) -> u32 {
        let total = self.side * self.side * self.neurons_per_crossbar;
        (total * self.fill_percent / 100).max(1)
    }

    /// Builds the spike graph: neuron `i`'s *home tile* is `i / capacity`;
    /// 85 % of its synapses land in the home tile or a grid-adjacent tile
    /// (half of those stay in the home tile itself), the rest are uniform
    /// over the whole graph. Spike counts are uniform in `0..20`.
    /// Deterministic for a fixed seed.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::InvalidGraph`] from graph construction
    /// (unreachable for the parameter ranges above).
    pub fn spike_graph(&self, seed: u64) -> Result<neuromap_core::SpikeGraph, CoreError> {
        grid_spike_graph(1, 1, self, seed)
    }

    /// Packs the scenario's neurons into their home tiles, then scrambles
    /// the *cluster ids* with a seeded permutation: cluster contents stay
    /// grid-local, but identity placement wires them to scattered
    /// routers. This is what any partitioner that doesn't know the
    /// chip's geometry produces, and exactly the situation the placement
    /// stage must repair — shared by the eval bench's placement gate and
    /// the placement acceptance tests so both exercise the same scenario.
    pub fn scrambled_packed_mapping(&self, seed: u64) -> neuromap_hw::mapping::Mapping {
        let c = self.num_crossbars();
        let n = self.num_neurons();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut perm: Vec<u32> = (0..c as u32).collect();
        for a in (1..c).rev() {
            let b = rng.gen_range(0..a + 1);
            perm.swap(a, b);
        }
        let cap = self.neurons_per_crossbar.max(1);
        let assign: Vec<u32> = (0..n)
            .map(|i| perm[((i / cap) as usize).min(c - 1)])
            .collect();
        neuromap_hw::mapping::Mapping::from_assignment(assign, c).expect("permuted ids in range")
    }
}

/// A multi-chip scale-out scenario: a `chip_cols × chip_rows` grid of
/// chips, each chip internally the [`LargeArch`] crossbar grid, joined
/// by slower/narrower boundary links — the SpiNeMap-class regime the
/// hierarchical fabric (`neuromap_noc::topology::HierTopology` behind
/// [`InterconnectKind::Hier`]) models.
///
/// Crossbar ids are **chip-major** (chip `q` owns ids `q·side²
/// ..(q+1)·side²`, row-major within the chip), matching the hierarchical
/// topology's layout, and the generated spike graph's locality bias
/// works in the *composed* global grid: most synapses stay within a
/// tile's global neighbourhood, so a good mapping keeps almost all
/// traffic on-chip and optimizers have a real inter-chip gradient to
/// descend.
///
/// [`InterconnectKind::Hier`]: neuromap_hw::arch::InterconnectKind::Hier
#[derive(Debug, Clone, Copy)]
pub struct MultiChip {
    /// Chip-grid columns.
    pub chip_cols: u32,
    /// Chip-grid rows.
    pub chip_rows: u32,
    /// The per-chip crossbar grid.
    pub chip: LargeArch,
    /// Cycles per chip-boundary link hop.
    pub link_latency: u32,
    /// On-chip over boundary link-width ratio.
    pub link_width: u32,
}

impl MultiChip {
    /// The 4-chip benchmark scenario behind the `hier/*` ratios in
    /// `BENCH_eval.json`: 2 × 2 chips of the 16 × 16 grid — 1024
    /// crossbars, past the byte-tile batched-evaluator envelope and
    /// inside the u16 word-tile one.
    pub fn four_chip16() -> Self {
        Self {
            chip_cols: 2,
            chip_rows: 2,
            chip: LargeArch::grid16(),
            link_latency: 4,
            link_width: 2,
        }
    }

    /// Scenario label (`synth_4chip16x16` for the default).
    pub fn name(&self) -> String {
        format!(
            "synth_{}chip{1}x{1}",
            self.chip_cols * self.chip_rows,
            self.chip.side
        )
    }

    /// Number of chips.
    pub fn num_chips(&self) -> usize {
        (self.chip_cols * self.chip_rows) as usize
    }

    /// Total crossbars across all chips.
    pub fn num_crossbars(&self) -> usize {
        self.num_chips() * self.chip.num_crossbars()
    }

    /// Crossbar capacity.
    pub fn capacity(&self) -> u32 {
        self.chip.capacity()
    }

    /// Neurons in the generated graph (`fill_percent` of capacity,
    /// applied per chip).
    pub fn num_neurons(&self) -> u32 {
        self.num_chips() as u32 * self.chip.num_neurons()
    }

    /// The matching [`Architecture`](neuromap_hw::arch::Architecture)
    /// with the hierarchical interconnect descriptor.
    ///
    /// # Errors
    ///
    /// Propagates [`neuromap_hw::HwError::InvalidParameter`] for
    /// degenerate chip grids or boundary-link parameters (unreachable
    /// for [`MultiChip::four_chip16`]).
    pub fn arch(&self) -> Result<neuromap_hw::arch::Architecture, neuromap_hw::HwError> {
        neuromap_hw::arch::Architecture::custom(
            self.num_crossbars(),
            self.capacity(),
            neuromap_hw::arch::InterconnectKind::Hier {
                chip_cols: self.chip_cols,
                chip_rows: self.chip_rows,
                link_latency: self.link_latency,
                link_width: self.link_width,
            },
        )
    }

    /// Builds the spike graph: neuron `i`'s home tile is `i / capacity`
    /// (chip-major), 85 % of its synapses land in the home tile or a
    /// tile adjacent in the **composed global grid** (so locality spans
    /// chip seams exactly where chips abut), the rest are uniform over
    /// the whole graph. Spike counts are uniform in `0..20`.
    /// Deterministic for a fixed seed.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::InvalidGraph`] from graph construction
    /// (unreachable for the parameter ranges above).
    pub fn spike_graph(&self, seed: u64) -> Result<neuromap_core::SpikeGraph, CoreError> {
        grid_spike_graph(self.chip_cols, self.chip_rows, &self.chip, seed)
    }
}

/// The one generator behind [`LargeArch::spike_graph`] (a 1 × 1 chip
/// grid) and [`MultiChip::spike_graph`]: `chip_cols × chip_rows` chips of
/// the `chip` crossbar grid, tiles numbered chip-major, locality drawn in
/// the composed global grid.
fn grid_spike_graph(
    chip_cols: u32,
    chip_rows: u32,
    chip: &LargeArch,
    seed: u64,
) -> Result<neuromap_core::SpikeGraph, CoreError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = chip_cols * chip_rows * chip.num_neurons();
    let side = chip.side as i64;
    let cap = chip.neurons_per_crossbar.max(1);
    let per_chip = side * side;
    let (chip_cols, chip_rows) = (chip_cols as i64, chip_rows as i64);
    let (gw, gh) = (chip_cols * side, chip_rows * side);
    let tiles = (chip_cols * chip_rows * per_chip) as u32;
    // chip-major tile id ↔ composed-grid coordinates: `coords` once per
    // neuron, the row-major `tile_at` table once per synapse draw
    let coords = |tile: i64| {
        let (chip, local) = (tile / per_chip, tile % per_chip);
        let (cx, cy) = (chip % chip_cols, chip / chip_cols);
        (cx * side + local % side, cy * side + local / side)
    };
    let tile_at: Vec<u32> = (0..gh)
        .flat_map(|gy| {
            (0..gw).map(move |gx| {
                ((gy / side * chip_cols + gx / side) * per_chip + gy % side * side + gx % side)
                    as u32
            })
        })
        .collect();
    let mut synapses = Vec::with_capacity((n * chip.synapses_per_neuron) as usize);
    for i in 0..n {
        let home = (i / cap).min(tiles - 1) as i64;
        let (hx, hy) = coords(home);
        for _ in 0..chip.synapses_per_neuron {
            let j = if rng.gen_bool(0.85) {
                // home tile (half the local draws) or a grid neighbour
                let (dx, dy) = if rng.gen_bool(0.5) {
                    (0, 0)
                } else {
                    (rng.gen_range(-1i64..=1), rng.gen_range(-1i64..=1))
                };
                let (tx, ty) = ((hx + dx).clamp(0, gw - 1), (hy + dy).clamp(0, gh - 1));
                let tile = tile_at[(ty * gw + tx) as usize];
                let lo = tile * cap;
                let span = cap.min(n.saturating_sub(lo)).max(1);
                (lo + rng.gen_range(0..span)).min(n - 1)
            } else {
                rng.gen_range(0..n)
            };
            synapses.push((i, j));
        }
    }
    let counts: Vec<u32> = (0..n).map(|_| rng.gen_range(0..20)).collect();
    neuromap_core::SpikeGraph::from_parts(n, synapses, counts)
}

/// The eight synthetic topologies evaluated in the paper's Fig. 5
/// (four of which are plotted), in label order.
pub fn fig5_topologies() -> Vec<Synthetic> {
    vec![
        Synthetic::new(1, 200),
        Synthetic::new(1, 400),
        Synthetic::new(1, 600),
        Synthetic::new(1, 800),
        Synthetic::new(2, 200),
        Synthetic::new(2, 400),
        Synthetic::new(3, 200),
        Synthetic::new(4, 200),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naming_matches_paper_labels() {
        assert_eq!(Synthetic::new(3, 200).name(), "synth_3x200");
    }

    #[test]
    fn neuron_and_synapse_counts() {
        let s = Synthetic::new(4, 200);
        assert_eq!(s.total_neurons(), 810);
        // paper: "topology 4x200 (with dense 122000 synapses)"
        assert_eq!(s.total_synapses(), 10 * 200 + 3 * 200 * 200);
        assert_eq!(s.total_synapses(), 122_000);

        let s1 = Synthetic::new(1, 200);
        // paper: "topology 1x200 (with 2000 synapses)"
        assert_eq!(s1.total_synapses(), 2000);
    }

    #[test]
    fn built_network_matches_counts() {
        let s = Synthetic::new(2, 50);
        let net = s.build(1).unwrap();
        assert_eq!(net.num_neurons(), s.total_neurons());
        assert_eq!(net.synapses().len() as u64, s.total_synapses());
    }

    #[test]
    fn activity_survives_depth() {
        let s = Synthetic {
            steps: 600,
            ..Synthetic::new(3, 40)
        };
        let graph = s.spike_graph(4).unwrap();
        let last_layer_first = STIMULUS + 2 * 40;
        let spikes: u64 = (last_layer_first..last_layer_first + 40)
            .map(|i| graph.count(i) as u64)
            .sum();
        assert!(spikes > 0, "deep layers must stay active");
    }

    #[test]
    fn fig5_set_has_eight_entries() {
        let t = fig5_topologies();
        assert_eq!(t.len(), 8);
        assert_eq!(t[0].name(), "synth_1x200");
        assert_eq!(t[7].name(), "synth_4x200");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_layers_rejected() {
        let _ = Synthetic::new(0, 10);
    }

    #[test]
    fn grid16_is_a_256_crossbar_scenario() {
        let s = LargeArch::grid16();
        assert_eq!(s.name(), "synth_16x16grid");
        assert_eq!(s.num_crossbars(), 256);
        assert!(u64::from(s.num_neurons()) <= 256 * u64::from(s.capacity()));
        // enough slack for partitioners to move neurons around
        assert!(u64::from(s.num_neurons()) <= 256 * u64::from(s.capacity()) * 9 / 10);
    }

    #[test]
    fn grid32_is_a_1024_crossbar_scenario() {
        let s = LargeArch::grid32();
        assert_eq!(s.name(), "synth_32x32grid");
        assert_eq!(s.num_crossbars(), 1024);
        assert_eq!(s.capacity(), 8);
        // ~7k neurons with real slack for partitioners to move things
        assert!(s.num_neurons() > 6_000);
        assert!(u64::from(s.num_neurons()) <= 1024 * u64::from(s.capacity()) * 9 / 10);
        // the generated instance must be feasible
        let g = s.spike_graph(7).unwrap();
        let p =
            neuromap_core::partition::PartitionProblem::new(&g, s.num_crossbars(), s.capacity());
        assert!(p.is_ok());
    }

    #[test]
    fn large_arch_graph_is_reproducible_and_local() {
        let s = LargeArch::grid16();
        let a = s.spike_graph(3).unwrap();
        let b = s.spike_graph(3).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.num_neurons(), s.num_neurons());
        assert_eq!(
            a.num_synapses(),
            (s.num_neurons() * s.synapses_per_neuron) as usize
        );
        // locality bias: the home-tile packing must beat a round-robin
        // scatter on the cut-packet objective by at least 1.5×
        let p =
            neuromap_core::partition::PartitionProblem::new(&a, s.num_crossbars(), s.capacity())
                .unwrap();
        let packed: Vec<u32> = (0..s.num_neurons()).map(|i| i / s.capacity()).collect();
        let scattered: Vec<u32> = (0..s.num_neurons()).map(|i| i % 256).collect();
        assert!(p.cut_packets(&packed) * 3 < p.cut_packets(&scattered) * 2);
    }

    #[test]
    fn four_chip16_is_a_1024_crossbar_scenario() {
        let s = MultiChip::four_chip16();
        assert_eq!(s.name(), "synth_4chip16x16");
        assert_eq!(s.num_chips(), 4);
        assert_eq!(s.num_crossbars(), 1024);
        // past the byte-tile envelope, inside the u16 word-tile one
        assert!(s.num_crossbars() > neuromap_core::eval::TILE_MAX_CROSSBARS);
        assert!(s.num_crossbars() <= neuromap_core::eval::TILE16_MAX_CROSSBARS);
        assert_eq!(
            neuromap_core::eval::SwarmKernel::for_crossbars(s.num_crossbars()),
            neuromap_core::eval::SwarmKernel::WordTile
        );
        let arch = s.arch().unwrap();
        assert_eq!(arch.num_crossbars(), 1024);
        // the generated instance must be feasible with real slack
        assert!(u64::from(s.num_neurons()) <= 1024 * u64::from(s.capacity()) * 9 / 10);
        let g = s.spike_graph(7).unwrap();
        let p =
            neuromap_core::partition::PartitionProblem::new(&g, s.num_crossbars(), s.capacity());
        assert!(p.is_ok());
    }

    #[test]
    fn multi_chip_graph_is_reproducible_and_chip_local() {
        let s = MultiChip {
            chip: LargeArch {
                side: 4,
                ..LargeArch::grid16()
            },
            ..MultiChip::four_chip16()
        };
        let a = s.spike_graph(3).unwrap();
        assert_eq!(a, s.spike_graph(3).unwrap());
        assert_eq!(a.num_neurons(), s.num_neurons());
        // chip-major home packing keeps most synapses on their home chip:
        // the locality bias must beat a chip-scattering round-robin
        let mut on_chip = 0u64;
        let mut total = 0u64;
        for i in 0..a.num_neurons() {
            let ci = i / s.capacity() / s.chip.num_crossbars() as u32;
            for &j in a.targets(i) {
                let cj = j / s.capacity() / s.chip.num_crossbars() as u32;
                total += 1;
                on_chip += u64::from(ci == cj);
            }
        }
        assert!(
            on_chip * 10 > total * 7,
            "expected ≥70% on-chip synapses, got {on_chip}/{total}"
        );
    }

    /// FNV-1a over each neuron's targets and spike count, in neuron
    /// order: the fingerprint of a generated graph.
    fn graph_digest(g: &neuromap_core::SpikeGraph) -> u64 {
        (0..g.num_neurons())
            .flat_map(|i| g.targets(i).iter().copied().chain([g.count(i)]))
            .flat_map(u32::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
    }

    /// The grids every mapbench digest, `BENCH_eval.json` scenario and
    /// frozen placement outcome is built from, frozen: a changed digest
    /// means the generator draws a different graph.
    #[test]
    fn grid_graphs_are_frozen() {
        let grid24 = LargeArch {
            side: 24,
            ..LargeArch::grid16()
        };
        let got = [
            graph_digest(&LargeArch::grid16().spike_graph(2018).unwrap()),
            graph_digest(&grid24.spike_graph(2018).unwrap()),
            graph_digest(&MultiChip::four_chip16().spike_graph(2018).unwrap()),
        ];
        assert_eq!(
            got,
            [
                0x8aaa_8acf_f6e1_7d47,
                0xba22_bb41_122c_b1e8,
                0x8aab_06bb_0e67_64bb
            ]
        );
    }

    #[test]
    fn large_arch_scales_down() {
        // tiny instances stay valid (used by the property tests)
        let s = LargeArch {
            side: 2,
            neurons_per_crossbar: 3,
            synapses_per_neuron: 4,
            fill_percent: 100,
        };
        let g = s.spike_graph(1).unwrap();
        assert_eq!(g.num_neurons(), 12);
    }
}
