//! The PSO velocity sweep ([`neuromap_core::decode`]) driven from outside
//! the optimizer, one kernel at a time: what `benches/eval.rs` times for
//! the `sweep/*` ledger pairs and what `perf_probe sweep` breaks down by
//! stage. A [`Swarm`] is laid out as the optimizer lays its own out
//! (structure of arrays, one RNG stream per particle), so a stage here
//! walks memory the way the same stage of a flat swarm search does.

use neuromap_core::decode::{DecodeScratch, Decoder, StepWeights};
use neuromap_core::pso::PsoConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One implementation of the sweep: its `decode` and its `step`.
#[derive(Clone, Copy)]
pub struct Kernel {
    decode: fn(&Decoder, &[f32], &mut StdRng, &mut [u32], &mut DecodeScratch),
    #[allow(clippy::type_complexity)]
    step: fn(
        &Decoder,
        StepWeights,
        &mut [f32],
        &mut StdRng,
        &mut [u32],
        &[u32],
        &[u32],
        &mut DecodeScratch,
    ),
}

/// The masked-row kernel the optimizer runs.
pub const PRODUCTION: Kernel = Kernel {
    decode: Decoder::decode,
    step: Decoder::step,
};

/// The scalar walk that specifies it.
pub const REFERENCE: Kernel = Kernel {
    decode: Decoder::decode_reference,
    step: Decoder::step_reference,
};

/// The default swarm's velocity clamp and step weights.
pub fn default_decoder(n: usize, c: usize, capacity: u32) -> (Decoder, StepWeights) {
    let cfg = PsoConfig::default();
    let weights = StepWeights {
        inertia: cfg.inertia,
        phi_p: cfg.phi_p,
        phi_g: cfg.phi_g,
    };
    (Decoder::new(n, c, capacity, cfg.v_max), weights)
}

/// Velocities, RNG streams and positions of `particles` particles over
/// `n` neurons.
#[derive(Debug, Clone, PartialEq)]
pub struct Swarm {
    n: usize,
    /// `particles × n × c` velocities, particle-major.
    pub velocity: Vec<f32>,
    /// One stream per particle.
    pub rngs: Vec<StdRng>,
    /// `particles × n` assignments, particle-major.
    pub positions: Vec<u32>,
}

impl Swarm {
    /// A zeroed swarm whose particle `p` draws from `seed ^ p`.
    pub fn new(particles: usize, n: usize, c: usize, seed: u64) -> Self {
        Self {
            n,
            velocity: vec![0.0; particles * n * c],
            rngs: (0..particles as u64)
                .map(|p| StdRng::seed_from_u64(seed ^ p))
                .collect(),
            positions: vec![0; particles * n],
        }
    }

    /// Takes `other`'s state (same shape) without allocating.
    pub fn copy_from(&mut self, other: &Swarm) {
        self.velocity.copy_from_slice(&other.velocity);
        self.rngs.clone_from_slice(&other.rngs);
        self.positions.copy_from_slice(&other.positions);
    }

    fn dims(&self) -> usize {
        self.velocity.len() / self.rngs.len()
    }

    /// `fill_velocity` for every particle.
    pub fn fill(&mut self, decoder: &Decoder) {
        let dims = self.dims();
        for (vel, rng) in self.velocity.chunks_mut(dims).zip(&mut self.rngs) {
            decoder.fill_velocity(vel, rng);
        }
    }

    /// `kernel`'s `decode` for every particle.
    pub fn decode(&mut self, decoder: &Decoder, kernel: Kernel, scratch: &mut DecodeScratch) {
        let particles = self
            .velocity
            .chunks(self.dims())
            .zip(&mut self.rngs)
            .zip(self.positions.chunks_mut(self.n));
        for ((vel, rng), pos) in particles {
            (kernel.decode)(decoder, vel, rng, pos, scratch);
        }
    }

    /// One round of `kernel`'s `step`: every particle pulled towards its
    /// own row of `best` (its personal best) and towards particle 0's
    /// (the global best).
    pub fn step(
        &mut self,
        decoder: &Decoder,
        kernel: Kernel,
        weights: StepWeights,
        best: &[u32],
        scratch: &mut DecodeScratch,
    ) {
        let (n, dims) = (self.n, self.dims());
        let particles = self
            .velocity
            .chunks_mut(dims)
            .zip(&mut self.rngs)
            .zip(self.positions.chunks_mut(n))
            .zip(best.chunks(n));
        for (((vel, rng), pos), pbest) in particles {
            (kernel.step)(decoder, weights, vel, rng, pos, pbest, &best[..n], scratch);
        }
    }
}
