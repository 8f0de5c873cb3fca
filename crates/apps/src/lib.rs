//! # neuromap-apps — the evaluation workloads of Das et al. (DATE 2018)
//!
//! The four realistic applications of the paper's Table I plus the
//! synthetic topologies of its Fig. 5/7:
//!
//! | App | Topology | Coding | Module |
//! |---|---|---|---|
//! | hello world (HW) | feedforward (117, 9) | rate | [`hello_world`] |
//! | image smoothing (IS) | feedforward (1024, 1024) | rate | [`image_smoothing`] |
//! | handwritten digit (HD) | unsupervised, recurrent (250, 250) | rate | [`digit_recognition`] |
//! | heartbeat estimation (HE) | unsupervised, LSM (64, 16) | temporal | [`heartbeat`] |
//! | synth m×n | fully connected feedforward | rate (Poisson 10–100 Hz) | [`synthetic`] |
//!
//! Every workload implements the [`App`] trait: build the network (with its
//! stimulus embedded as input generators), simulate it, and hand back the
//! [`SpikeGraph`] the partitioning flow consumes.
//!
//! ### Data substitutions (documented in DESIGN.md)
//!
//! * **MNIST → procedural digit glyphs**: 7-segment-style 28×28 rasters
//!   with noise; same input statistics (per-pixel Poisson rates, spatial
//!   receptive-field structure) without the external dataset.
//! * **ECG recordings → synthetic ECG**: P-QRS-T morphology with modulated
//!   RR intervals, level-crossing encoded exactly as the paper's front-end.
//!
//! ```
//! use neuromap_apps::{App, hello_world::HelloWorld};
//! # fn main() -> Result<(), neuromap_core::CoreError> {
//! let app = HelloWorld::default();
//! let graph = app.spike_graph(42)?;
//! assert_eq!(graph.num_neurons(), 126); // 117 inputs + 9 outputs
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digit_recognition;
pub mod heartbeat;
pub mod hello_world;
pub mod image_smoothing;
pub mod synthetic;

use neuromap_core::{CoreError, SpikeGraph};
use neuromap_snn::network::Network;
use neuromap_snn::simulator::{SimConfig, Simulator, SpikeRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A benchmark application: a buildable SNN plus its stimulus.
pub trait App {
    /// Short name matching the paper's labels ("HW", "IS", "HD", "HE",
    /// "synth_1x200", ...).
    fn name(&self) -> String;

    /// Builds the network with the stimulus encoded in its input groups.
    ///
    /// # Errors
    ///
    /// Construction errors from the network builder.
    fn build(&self, seed: u64) -> Result<Network, CoreError>;

    /// Simulation duration in timesteps (1 ms each).
    fn sim_steps(&self) -> u32;

    /// Simulation configuration (timestep, plasticity). Defaults to 1 ms
    /// without STDP.
    fn sim_config(&self) -> SimConfig {
        SimConfig::default()
    }

    /// Builds, simulates, and returns the raw network + spike record.
    ///
    /// # Errors
    ///
    /// Build or simulation errors.
    fn run(&self, seed: u64) -> Result<(Network, SpikeRecord), CoreError> {
        let net = self.build(seed)?;
        let mut sim = Simulator::with_config(net, self.sim_config());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA99);
        let record = sim.run(self.sim_steps(), &mut rng)?;
        Ok((sim.into_network(), record))
    }

    /// Builds, simulates, and extracts the spike graph — the input of the
    /// partitioning flow (paper Fig. 4, CARLsim → graph step).
    ///
    /// # Errors
    ///
    /// Build or simulation errors.
    fn spike_graph(&self, seed: u64) -> Result<SpikeGraph, CoreError> {
        let (net, record) = self.run(seed)?;
        Ok(SpikeGraph::from_record(&net, &record))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realistic_apps_have_paper_names() {
        let apps: [Box<dyn App>; 4] = [
            Box::new(hello_world::HelloWorld::default()),
            Box::new(image_smoothing::ImageSmoothing::default()),
            Box::new(digit_recognition::DigitRecognition::default()),
            Box::new(heartbeat::HeartbeatEstimation::default()),
        ];
        let names: Vec<String> = apps.iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["HW", "IS", "HD", "HE"]);
    }

    #[test]
    fn population_boundaries_reach_the_spike_graph() {
        // hierarchical mappers (PACMAN) depend on population structure
        // surviving the app → graph extraction
        let hw = hello_world::HelloWorld {
            steps: 50,
            ..Default::default()
        };
        let g = hw.spike_graph(0).expect("simulates");
        let pops = g.populations();
        assert_eq!(pops.len(), 2, "field + pool");
        assert_eq!(pops[0], 0..117);
        assert_eq!(pops[1], 117..126);

        let he = heartbeat::HeartbeatEstimation {
            duration_ms: 200,
            ..Default::default()
        };
        let g = he.spike_graph(0).expect("simulates");
        assert_eq!(g.populations().len(), 3, "lc + liquid + readout");
    }

    #[test]
    fn synthetic_populations_are_per_layer() {
        let s = synthetic::Synthetic {
            steps: 50,
            ..synthetic::Synthetic::new(3, 10)
        };
        let g = s.spike_graph(0).expect("simulates");
        // stimulus + 3 layers
        assert_eq!(g.populations().len(), 4);
        assert_eq!(g.populations()[0], 0..10);
        assert_eq!(g.populations()[3], 30..40);
    }
}
