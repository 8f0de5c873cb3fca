//! Network construction: neuron groups and connection patterns.
//!
//! A [`NetworkBuilder`] assembles *groups* (populations sharing a neuron
//! model or a spike generator) and *projections* between them, then
//! [`NetworkBuilder::build`]s an immutable [`Network`] with flat, globally
//! indexed neuron and synapse arrays — the representation the simulator and
//! the downstream spike-graph extraction consume.

use crate::error::SnnError;
use crate::generator::Generator;
use crate::neuron::NeuronKind;
use crate::synapse::{Synapse, MAX_DELAY};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Opaque handle to a group created by a [`NetworkBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GroupId(pub(crate) usize);

impl GroupId {
    /// Index of the group in creation order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// How the neurons of a group behave.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GroupKind {
    /// Integrating neurons with the given dynamics.
    Model(NeuronKind),
    /// Spike source (input) neurons driven by a generator.
    Input(Generator),
}

/// A named population of neurons.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Group {
    /// Unique name.
    pub name: String,
    /// Global index of the first neuron of this group.
    pub first: u32,
    /// Number of neurons.
    pub size: u32,
    /// Behaviour of the group's neurons.
    pub kind: GroupKind,
}

impl Group {
    /// Global neuron-id range of this group.
    pub fn range(&self) -> std::ops::Range<u32> {
        self.first..self.first + self.size
    }

    /// Whether this group is a spike source.
    pub fn is_input(&self) -> bool {
        matches!(self.kind, GroupKind::Input(_))
    }
}

/// Deterministic connection patterns between two groups.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ConnectPattern {
    /// Every pre-neuron connects to every post-neuron
    /// (self-connections are skipped for recurrent projections).
    Full,
    /// Neuron `i` connects to neuron `i`; requires equal group sizes.
    OneToOne,
    /// 2-D neighborhood (convolution-style) kernel: both groups are
    /// interpreted as `width × height` grids and each post-neuron receives
    /// from the `(2r+1)²` pre-neurons centered at its own coordinate
    /// (truncated at the borders). Requires `pre.size == post.size ==
    /// width * height`.
    Neighborhood2D {
        /// Grid width.
        width: u32,
        /// Grid height.
        height: u32,
        /// Kernel radius (r = 1 gives a 3×3 kernel).
        radius: u32,
    },
    /// Explicit `(pre_offset, post_offset)` pairs, offsets local to the
    /// respective groups.
    Pairs {
        /// Local index pairs to connect.
        pairs: Vec<(u32, u32)>,
    },
    /// All-to-all *except* the diagonal, then each connection kept with
    /// probability `p` — the classic recurrent-reservoir wiring of a liquid
    /// state machine.
    RecurrentRandom {
        /// Connection probability in `[0, 1]`.
        p: f64,
    },
}

/// How initial weights of a projection are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum WeightInit {
    /// All synapses share one weight.
    Constant(f32),
    /// Weights drawn uniformly from `[lo, hi)`.
    Uniform {
        /// Lower bound (inclusive).
        lo: f32,
        /// Upper bound (exclusive).
        hi: f32,
    },
}

impl WeightInit {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        match *self {
            WeightInit::Constant(w) => w,
            WeightInit::Uniform { lo, hi } => {
                if lo >= hi {
                    lo
                } else {
                    rng.gen_range(lo..hi)
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
struct Projection {
    pre: GroupId,
    post: GroupId,
    pattern: ConnectPattern,
    weights: WeightInit,
    delay: u16,
    plastic: bool,
}

/// Incremental builder for a [`Network`].
///
/// ```
/// use neuromap_snn::network::{ConnectPattern, NetworkBuilder, WeightInit};
/// use neuromap_snn::neuron::NeuronKind;
/// use neuromap_snn::generator::Generator;
///
/// # fn main() -> Result<(), neuromap_snn::SnnError> {
/// let mut b = NetworkBuilder::new();
/// let inp = b.add_input_group("in", 4, Generator::poisson(20.0))?;
/// let exc = b.add_group("exc", 8, NeuronKind::izhikevich_rs())?;
/// b.connect(inp, exc, ConnectPattern::Full, WeightInit::Constant(5.0), 1)?;
/// let net = b.build()?;
/// assert_eq!(net.num_neurons(), 12);
/// assert_eq!(net.synapses().len(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    groups: Vec<Group>,
    projections: Vec<Projection>,
    next_id: u32,
    seed: u64,
}

impl NetworkBuilder {
    /// Creates an empty builder (connectivity seed 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the RNG seed used when materializing random patterns and
    /// weights at [`NetworkBuilder::build`] time.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Adds a group of integrating neurons.
    ///
    /// # Errors
    ///
    /// [`SnnError::EmptyGroup`] for `size == 0`;
    /// [`SnnError::DuplicateGroup`] if the name is taken.
    pub fn add_group(
        &mut self,
        name: &str,
        size: u32,
        kind: NeuronKind,
    ) -> Result<GroupId, SnnError> {
        self.add(name, size, GroupKind::Model(kind))
    }

    /// Adds an input (spike-source) group.
    ///
    /// # Errors
    ///
    /// As [`NetworkBuilder::add_group`], plus
    /// [`SnnError::GeneratorSizeMismatch`] when the generator prescribes a
    /// different neuron count.
    pub fn add_input_group(
        &mut self,
        name: &str,
        size: u32,
        generator: Generator,
    ) -> Result<GroupId, SnnError> {
        if let Some(n) = generator.prescribed_size() {
            if n != size as usize {
                return Err(SnnError::GeneratorSizeMismatch {
                    expected: size as usize,
                    got: n,
                });
            }
        }
        self.add(name, size, GroupKind::Input(generator))
    }

    fn add(&mut self, name: &str, size: u32, kind: GroupKind) -> Result<GroupId, SnnError> {
        if size == 0 {
            return Err(SnnError::EmptyGroup(name.to_owned()));
        }
        if self.groups.iter().any(|g| g.name == name) {
            return Err(SnnError::DuplicateGroup(name.to_owned()));
        }
        let id = GroupId(self.groups.len());
        self.groups.push(Group {
            name: name.to_owned(),
            first: self.next_id,
            size,
            kind,
        });
        self.next_id += size;
        Ok(id)
    }

    /// Declares a projection between two groups.
    ///
    /// # Errors
    ///
    /// * [`SnnError::UnknownGroup`] for dangling ids.
    /// * [`SnnError::InputAsTarget`] when `post` is an input group.
    /// * [`SnnError::PatternMismatch`] for size-incompatible patterns.
    /// * [`SnnError::InvalidParameter`] for delays outside `1..=`
    ///   [`MAX_DELAY`] or probabilities outside `[0, 1]`.
    pub fn connect(
        &mut self,
        pre: GroupId,
        post: GroupId,
        pattern: ConnectPattern,
        weights: WeightInit,
        delay: u16,
    ) -> Result<&mut Self, SnnError> {
        self.connect_impl(pre, post, pattern, weights, delay, false)
    }

    /// Declares a *plastic* (STDP-managed) projection.
    ///
    /// # Errors
    ///
    /// Same as [`NetworkBuilder::connect`].
    pub fn connect_plastic(
        &mut self,
        pre: GroupId,
        post: GroupId,
        pattern: ConnectPattern,
        weights: WeightInit,
        delay: u16,
    ) -> Result<&mut Self, SnnError> {
        self.connect_impl(pre, post, pattern, weights, delay, true)
    }

    fn connect_impl(
        &mut self,
        pre: GroupId,
        post: GroupId,
        pattern: ConnectPattern,
        weights: WeightInit,
        delay: u16,
        plastic: bool,
    ) -> Result<&mut Self, SnnError> {
        let pre_g = self
            .groups
            .get(pre.0)
            .ok_or(SnnError::UnknownGroup(pre.0))?;
        let post_g = self
            .groups
            .get(post.0)
            .ok_or(SnnError::UnknownGroup(post.0))?;
        if post_g.is_input() {
            return Err(SnnError::InputAsTarget(post_g.name.clone()));
        }
        if !(1..=MAX_DELAY).contains(&delay) {
            return Err(SnnError::InvalidParameter {
                name: "delay",
                value: delay.to_string(),
            });
        }
        validate_pattern(&pattern, pre_g.size, post_g.size)?;
        self.projections.push(Projection {
            pre,
            post,
            pattern,
            weights,
            delay,
            plastic,
        });
        Ok(self)
    }

    /// Materializes the network: expands all patterns into a flat synapse
    /// list and freezes group metadata.
    ///
    /// # Errors
    ///
    /// Currently infallible after the per-call validation in
    /// [`NetworkBuilder::connect`]; returns `Result` for future-proofing
    /// (e.g. global resource limits).
    pub fn build(&self) -> Result<Network, SnnError> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let mut synapses = Vec::new();
        for proj in &self.projections {
            let pre_g = &self.groups[proj.pre.0];
            let post_g = &self.groups[proj.post.0];
            expand_pattern(&proj.pattern, pre_g, post_g, |pre_local, post_local| {
                let mut s = Synapse::new(
                    pre_g.first + pre_local,
                    post_g.first + post_local,
                    proj.weights.sample(&mut rng),
                    proj.delay,
                );
                s.plastic = proj.plastic;
                synapses.push(s);
            });
        }
        Ok(Network {
            groups: self.groups.clone(),
            synapses,
            num_neurons: self.next_id,
        })
    }
}

fn validate_pattern(pattern: &ConnectPattern, pre: u32, post: u32) -> Result<(), SnnError> {
    match pattern {
        ConnectPattern::OneToOne if pre != post => Err(SnnError::PatternMismatch {
            pattern: "one-to-one".into(),
            pre: pre as usize,
            post: post as usize,
        }),
        ConnectPattern::RecurrentRandom { p } if !(0.0..=1.0).contains(p) => {
            Err(SnnError::InvalidParameter {
                name: "p",
                value: p.to_string(),
            })
        }
        ConnectPattern::Neighborhood2D { width, height, .. }
            if (*width as u64) * (*height as u64) != pre as u64
                || (*width as u64) * (*height as u64) != post as u64 =>
        {
            Err(SnnError::PatternMismatch {
                pattern: format!("neighborhood {width}x{height}"),
                pre: pre as usize,
                post: post as usize,
            })
        }
        ConnectPattern::Pairs { pairs } if pairs.iter().any(|&(a, b)| a >= pre || b >= post) => {
            Err(SnnError::PatternMismatch {
                pattern: "pairs (index out of range)".into(),
                pre: pre as usize,
                post: post as usize,
            })
        }
        _ => Ok(()),
    }
}

fn expand_pattern<F: FnMut(u32, u32)>(
    pattern: &ConnectPattern,
    pre_g: &Group,
    post_g: &Group,
    mut emit: F,
) {
    use rand::SeedableRng;
    let recurrent_same = pre_g.first == post_g.first;
    match pattern {
        ConnectPattern::Full => {
            for i in 0..pre_g.size {
                for j in 0..post_g.size {
                    if recurrent_same && i == j {
                        continue;
                    }
                    emit(i, j);
                }
            }
        }
        ConnectPattern::OneToOne => {
            for i in 0..pre_g.size {
                emit(i, i);
            }
        }
        ConnectPattern::RecurrentRandom { p } => {
            let mut rng = rand::rngs::StdRng::seed_from_u64(
                0x5eed ^ ((pre_g.first as u64) << 32 | post_g.first as u64),
            );
            for i in 0..pre_g.size {
                for j in 0..post_g.size {
                    if i == j {
                        continue;
                    }
                    if rng.gen_bool(*p) {
                        emit(i, j);
                    }
                }
            }
        }
        ConnectPattern::Neighborhood2D {
            width,
            height,
            radius,
        } => {
            let (w, h, r) = (*width as i64, *height as i64, *radius as i64);
            for y in 0..h {
                for x in 0..w {
                    let post_local = (y * w + x) as u32;
                    for dy in -r..=r {
                        for dx in -r..=r {
                            let (sx, sy) = (x + dx, y + dy);
                            if (0..w).contains(&sx) && (0..h).contains(&sy) {
                                emit((sy * w + sx) as u32, post_local);
                            }
                        }
                    }
                }
            }
        }
        ConnectPattern::Pairs { pairs } => {
            for &(i, j) in pairs {
                emit(i, j);
            }
        }
    }
}

/// An immutable, fully expanded spiking neural network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Network {
    groups: Vec<Group>,
    synapses: Vec<Synapse>,
    num_neurons: u32,
}

impl Network {
    /// All groups in creation order.
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// The flat synapse list.
    pub fn synapses(&self) -> &[Synapse] {
        &self.synapses
    }

    /// Mutable synapse access (used by plasticity rules).
    pub(crate) fn synapses_mut(&mut self) -> &mut [Synapse] {
        &mut self.synapses
    }

    /// Total neuron count across all groups.
    pub fn num_neurons(&self) -> u32 {
        self.num_neurons
    }

    /// Looks a group up by name.
    pub fn group_by_name(&self, name: &str) -> Option<(GroupId, &Group)> {
        self.groups
            .iter()
            .enumerate()
            .find(|(_, g)| g.name == name)
            .map(|(i, g)| (GroupId(i), g))
    }

    /// The group with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    pub fn group(&self, id: GroupId) -> &Group {
        &self.groups[id.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::Generator;

    fn two_groups(pre: u32, post: u32) -> (NetworkBuilder, GroupId, GroupId) {
        let mut b = NetworkBuilder::new();
        let a = b
            .add_input_group("a", pre, Generator::poisson(10.0))
            .unwrap();
        let c = b.add_group("c", post, NeuronKind::izhikevich_rs()).unwrap();
        (b, a, c)
    }

    #[test]
    fn full_pattern_counts() {
        let (mut b, a, c) = two_groups(3, 4);
        b.connect(a, c, ConnectPattern::Full, WeightInit::Constant(1.0), 1)
            .unwrap();
        let net = b.build().unwrap();
        assert_eq!(net.synapses().len(), 12);
    }

    #[test]
    fn recurrent_full_skips_diagonal() {
        let mut b = NetworkBuilder::new();
        let g = b.add_group("g", 5, NeuronKind::izhikevich_rs()).unwrap();
        b.connect(g, g, ConnectPattern::Full, WeightInit::Constant(1.0), 1)
            .unwrap();
        let net = b.build().unwrap();
        assert_eq!(net.synapses().len(), 20); // 5*5 - 5
        assert!(net.synapses().iter().all(|s| s.pre != s.post));
    }

    #[test]
    fn one_to_one_requires_equal_sizes() {
        let (mut b, a, c) = two_groups(3, 4);
        let err = b
            .connect(a, c, ConnectPattern::OneToOne, WeightInit::Constant(1.0), 1)
            .unwrap_err();
        assert!(matches!(err, SnnError::PatternMismatch { .. }));
    }

    #[test]
    fn one_to_one_wiring() {
        let (mut b, a, c) = two_groups(4, 4);
        b.connect(a, c, ConnectPattern::OneToOne, WeightInit::Constant(2.0), 1)
            .unwrap();
        let net = b.build().unwrap();
        for (k, s) in net.synapses().iter().enumerate() {
            assert_eq!(s.pre as usize, k);
            assert_eq!(s.post as usize, 4 + k);
        }
    }

    #[test]
    fn random_probability_bounds_enforced() {
        let (mut b, a, c) = two_groups(3, 3);
        let err = b
            .connect(
                a,
                c,
                ConnectPattern::RecurrentRandom { p: 1.5 },
                WeightInit::Constant(1.0),
                1,
            )
            .unwrap_err();
        assert!(matches!(err, SnnError::InvalidParameter { name: "p", .. }));
    }

    #[test]
    fn random_pattern_is_reproducible() {
        let make = || {
            let (mut b, a, c) = two_groups(20, 20);
            b.connect(
                a,
                c,
                ConnectPattern::RecurrentRandom { p: 0.3 },
                WeightInit::Constant(1.0),
                1,
            )
            .unwrap();
            b.build().unwrap().synapses().len()
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn neighborhood_kernel_size() {
        // 4x4 grids, radius 1: interior post-neurons get 9 inputs,
        // corners 4, edges 6.
        let (mut b, a, c) = two_groups(16, 16);
        b.connect(
            a,
            c,
            ConnectPattern::Neighborhood2D {
                width: 4,
                height: 4,
                radius: 1,
            },
            WeightInit::Constant(1.0),
            1,
        )
        .unwrap();
        let net = b.build().unwrap();
        // total = sum over post of kernel coverage = 4*4corners? compute:
        // corners: 4 cells * 4 = 16; edges: 8 cells * 6 = 48; interior: 4 cells * 9 = 36
        assert_eq!(net.synapses().len(), 100);
    }

    #[test]
    fn neighborhood_requires_matching_geometry() {
        let (mut b, a, c) = two_groups(16, 15);
        let err = b
            .connect(
                a,
                c,
                ConnectPattern::Neighborhood2D {
                    width: 4,
                    height: 4,
                    radius: 1,
                },
                WeightInit::Constant(1.0),
                1,
            )
            .unwrap_err();
        assert!(matches!(err, SnnError::PatternMismatch { .. }));
    }

    #[test]
    fn pairs_validates_indices() {
        let (mut b, a, c) = two_groups(3, 3);
        let err = b
            .connect(
                a,
                c,
                ConnectPattern::Pairs {
                    pairs: vec![(0, 5)],
                },
                WeightInit::Constant(1.0),
                1,
            )
            .unwrap_err();
        assert!(matches!(err, SnnError::PatternMismatch { .. }));
    }

    #[test]
    fn input_groups_cannot_be_targets() {
        let mut b = NetworkBuilder::new();
        let a = b.add_input_group("a", 2, Generator::poisson(1.0)).unwrap();
        let c = b.add_group("c", 2, NeuronKind::izhikevich_rs()).unwrap();
        let err = b
            .connect(c, a, ConnectPattern::Full, WeightInit::Constant(1.0), 1)
            .unwrap_err();
        assert!(matches!(err, SnnError::InputAsTarget(_)));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = NetworkBuilder::new();
        b.add_group("x", 2, NeuronKind::izhikevich_rs()).unwrap();
        let err = b
            .add_group("x", 2, NeuronKind::izhikevich_rs())
            .unwrap_err();
        assert!(matches!(err, SnnError::DuplicateGroup(_)));
    }

    #[test]
    fn generator_size_must_match() {
        let mut b = NetworkBuilder::new();
        let err = b
            .add_input_group("a", 3, Generator::rates(vec![1.0, 2.0]))
            .unwrap_err();
        assert!(matches!(err, SnnError::GeneratorSizeMismatch { .. }));
    }

    #[test]
    fn group_lookup_by_id_and_name() {
        let (b, a, c) = two_groups(3, 4);
        let net = b.build().unwrap();
        assert_eq!(net.group(a).range(), 0..3);
        assert_eq!(net.group(c).range(), 3..7);
        assert!(net.group(a).is_input());
        assert!(!net.group(c).is_input());
        let (id, group) = net.group_by_name("c").unwrap();
        assert_eq!((id, group.range()), (c, 3..7));
        assert!(net.group_by_name("b").is_none());
    }

    #[test]
    fn uniform_weights_in_range() {
        let (mut b, a, c) = two_groups(10, 10);
        b.connect(
            a,
            c,
            ConnectPattern::Full,
            WeightInit::Uniform { lo: 0.5, hi: 1.5 },
            1,
        )
        .unwrap();
        let net = b.build().unwrap();
        assert!(net
            .synapses()
            .iter()
            .all(|s| (0.5..1.5).contains(&s.weight)));
    }

    #[test]
    fn plastic_flag_propagates() {
        let (mut b, a, c) = two_groups(2, 2);
        b.connect_plastic(a, c, ConnectPattern::Full, WeightInit::Constant(1.0), 1)
            .unwrap();
        let net = b.build().unwrap();
        assert!(net.synapses().iter().all(|s| s.plastic));
    }

    #[test]
    fn recurrent_random_never_self_connects() {
        let mut b = NetworkBuilder::new();
        let g = b.add_group("res", 30, NeuronKind::lif_default()).unwrap();
        b.connect(
            g,
            g,
            ConnectPattern::RecurrentRandom { p: 0.5 },
            WeightInit::Constant(1.0),
            1,
        )
        .unwrap();
        let net = b.build().unwrap();
        assert!(!net.synapses().is_empty());
        assert!(net.synapses().iter().all(|s| s.pre != s.post));
    }
}
