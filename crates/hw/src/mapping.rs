//! Neuron → crossbar assignments, cluster placement, and the paper's
//! validity constraints.
//!
//! A [`Mapping`] is the *output* of the partitioning problem of Section III:
//! for every neuron, the crossbar hosting it. Synapses whose endpoints share
//! a crossbar are **local** (implemented as crosspoints); all others are
//! **global** (time-multiplexed over the interconnect); `neuromap-core`'s
//! traffic walk derives which is which. The two constraints
//! of Eq. 4–5 — every neuron on exactly one crossbar, and no crossbar over
//! capacity — are enforced by [`Mapping::from_assignment`] (structurally)
//! and [`Mapping::validate`] (against a concrete [`Architecture`]).
//!
//! A [`Placement`] is the output of the *second* mapping stage
//! (SpiNeMap-style, Balaji et al.): the partitioner's clusters are logical
//! until a placement decides which **physical** crossbar — and therefore
//! which interconnect router — hosts each one. [`Mapping::place`] composes
//! the two; the identity placement leaves a mapping untouched, so the
//! staged pipeline degrades exactly to the paper's single-stage flow.

use crate::arch::Architecture;
use crate::error::HwError;
use serde::{Deserialize, Serialize};

/// An assignment of every neuron to one crossbar: `crossbar_of[neuron]`,
/// over `num_crossbars` crossbars. Nothing is derived from it and kept
/// beside it: [`Mapping::occupancy`] and [`Mapping::validate`] count it,
/// and the mapping pipeline walks [`Mapping::assignment`] to split the
/// synapses into local and global ones.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct Mapping {
    crossbar_of: Vec<u32>,
    num_crossbars: usize,
}

// Deserialization routes through `Mapping::from_assignment`, so an
// out-of-range assignment cannot enter through serialized data.
impl Deserialize for Mapping {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::DeError::new(format!("missing field `{name}`")))
        };
        let crossbar_of = Vec::<u32>::from_value(field("crossbar_of")?)?;
        let num_crossbars = usize::from_value(field("num_crossbars")?)?;
        Mapping::from_assignment(crossbar_of, num_crossbars)
            .map_err(|e| serde::DeError::new(e.to_string()))
    }
}

impl Mapping {
    /// Builds a mapping from `crossbar_of[neuron] = crossbar` with
    /// `num_crossbars` crossbars available.
    ///
    /// # Errors
    ///
    /// [`HwError::CrossbarOutOfRange`] if any entry is `>= num_crossbars`.
    pub fn from_assignment(crossbar_of: Vec<u32>, num_crossbars: usize) -> Result<Self, HwError> {
        if let Some(&bad) = crossbar_of.iter().find(|&&c| c as usize >= num_crossbars) {
            return Err(HwError::CrossbarOutOfRange {
                crossbar: bad,
                available: num_crossbars,
            });
        }
        Ok(Self {
            crossbar_of,
            num_crossbars,
        })
    }

    /// Number of neurons covered.
    pub fn num_neurons(&self) -> usize {
        self.crossbar_of.len()
    }

    /// Number of crossbars the assignment targets.
    pub fn num_crossbars(&self) -> usize {
        self.num_crossbars
    }

    /// The raw assignment slice.
    pub fn assignment(&self) -> &[u32] {
        &self.crossbar_of
    }

    /// Occupancy (neuron count) per crossbar.
    pub fn occupancy(&self) -> Vec<usize> {
        let mut occ = vec![0; self.num_crossbars];
        for &c in &self.crossbar_of {
            occ[c as usize] += 1;
        }
        occ
    }

    /// Validates the capacity constraint (Eq. 5) against an architecture.
    ///
    /// # Errors
    ///
    /// * [`HwError::CrossbarOutOfRange`] if the mapping targets more
    ///   crossbars than the architecture has.
    /// * [`HwError::CapacityExceeded`] naming the first crossbar over
    ///   capacity.
    pub fn validate(&self, arch: &Architecture) -> Result<(), HwError> {
        if self.num_crossbars > arch.num_crossbars() {
            return Err(HwError::CrossbarOutOfRange {
                crossbar: self.num_crossbars as u32 - 1,
                available: arch.num_crossbars(),
            });
        }
        let cap = arch.neurons_per_crossbar() as usize;
        for (k, &n) in self.occupancy().iter().enumerate() {
            if n > cap {
                return Err(HwError::CapacityExceeded {
                    crossbar: k as u32,
                    assigned: n,
                    capacity: cap,
                });
            }
        }
        Ok(())
    }

    /// Composes a [`Placement`] into this mapping: every neuron of logical
    /// cluster `k` lands on physical crossbar `placement.physical_of(k)`.
    /// The identity placement returns a mapping equal to `self`.
    ///
    /// # Errors
    ///
    /// [`HwError::InvalidParameter`] if the placement covers a different
    /// crossbar count than this mapping targets.
    pub fn place(&self, placement: &Placement) -> Result<Mapping, HwError> {
        if placement.num_crossbars() != self.num_crossbars {
            return Err(HwError::InvalidParameter {
                name: "placement",
                value: format!(
                    "{} crossbars, mapping targets {}",
                    placement.num_crossbars(),
                    self.num_crossbars
                ),
            });
        }
        let placed: Vec<u32> = self
            .crossbar_of
            .iter()
            .map(|&k| placement.physical_of(k))
            .collect();
        Mapping::from_assignment(placed, self.num_crossbars)
    }
}

/// A cluster → physical-crossbar permutation: the placement stage's
/// output.
///
/// The partitioner decides *which neurons share a crossbar* (minimizing
/// cut traffic); the placement decides *where on the chip* each of those
/// clusters sits — and therefore how many router hops every global packet
/// travels. Physical crossbar `physical_of[k]` hosts logical cluster `k`;
/// the vector is validated to be a permutation so every cluster gets
/// exactly one physical crossbar and capacities are preserved (all
/// crossbars of an [`Architecture`] are homogeneous).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Placement {
    physical_of: Vec<u32>,
}

impl Serialize for Placement {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![(
            "physical_of".to_owned(),
            self.physical_of.to_value(),
        )])
    }
}

// Deserialization routes through `Placement::new` so a non-permutation
// can never enter through serialized data.
impl Deserialize for Placement {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let field = v
            .get("physical_of")
            .ok_or_else(|| serde::DeError::new("missing field `physical_of`"))?;
        Placement::new(Vec::<u32>::from_value(field)?)
            .map_err(|e| serde::DeError::new(e.to_string()))
    }
}

impl Placement {
    /// The identity placement over `num_crossbars` crossbars: cluster `k`
    /// on physical crossbar `k` — the implicit wiring of the single-stage
    /// pipeline.
    pub fn identity(num_crossbars: usize) -> Self {
        Self {
            physical_of: (0..num_crossbars as u32).collect(),
        }
    }

    /// Builds a placement from `physical_of[cluster] = physical crossbar`.
    ///
    /// # Errors
    ///
    /// [`HwError::InvalidParameter`] if `physical_of` is not a permutation
    /// of `0..len` (out-of-range or duplicate entries).
    pub fn new(physical_of: Vec<u32>) -> Result<Self, HwError> {
        let c = physical_of.len();
        let mut seen = vec![false; c];
        for &p in &physical_of {
            if (p as usize) >= c || seen[p as usize] {
                return Err(HwError::InvalidParameter {
                    name: "physical_of",
                    value: format!("entry {p} breaks the permutation over 0..{c}"),
                });
            }
            seen[p as usize] = true;
        }
        Ok(Self { physical_of })
    }

    /// Number of crossbars (clusters) covered.
    pub fn num_crossbars(&self) -> usize {
        self.physical_of.len()
    }

    /// Physical crossbar hosting logical cluster `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[inline]
    pub fn physical_of(&self, k: u32) -> u32 {
        self.physical_of[k as usize]
    }

    /// The raw permutation slice (`physical_of[cluster]`).
    pub fn as_slice(&self) -> &[u32] {
        &self.physical_of
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::InterconnectKind;

    #[test]
    fn out_of_range_assignment_rejected() {
        let err = Mapping::from_assignment(vec![0, 1, 4], 4).unwrap_err();
        assert!(matches!(
            err,
            HwError::CrossbarOutOfRange { crossbar: 4, .. }
        ));
    }

    #[test]
    fn capacity_validation() {
        let arch = Architecture::custom(2, 2, InterconnectKind::Mesh).unwrap();
        let ok = Mapping::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        assert!(ok.validate(&arch).is_ok());
        let over = Mapping::from_assignment(vec![0, 0, 0, 1], 2).unwrap();
        let err = over.validate(&arch).unwrap_err();
        assert!(matches!(
            err,
            HwError::CapacityExceeded {
                crossbar: 0,
                assigned: 3,
                capacity: 2
            }
        ));
    }

    #[test]
    fn mapping_with_more_crossbars_than_arch_rejected() {
        let arch = Architecture::custom(2, 8, InterconnectKind::Mesh).unwrap();
        let m = Mapping::from_assignment(vec![0, 1, 2], 3).unwrap();
        assert!(m.validate(&arch).is_err());
    }

    #[test]
    fn occupancy_counts_every_crossbar() {
        let m = Mapping::from_assignment(vec![2, 0, 2, 1, 0, 2], 4).unwrap();
        assert_eq!(m.occupancy(), vec![2, 1, 3, 0]);
    }

    #[test]
    fn placement_validates_permutations() {
        assert!(Placement::new(vec![2, 0, 1]).is_ok());
        assert!(Placement::new(vec![0, 0, 1]).is_err()); // duplicate
        assert!(Placement::new(vec![0, 3, 1]).is_err()); // out of range
        assert_eq!(Placement::identity(4).as_slice(), [0, 1, 2, 3]);
    }

    #[test]
    fn identity_placement_leaves_mapping_unchanged() {
        let m = Mapping::from_assignment(vec![0, 1, 2, 1], 3).unwrap();
        let placed = m.place(&Placement::identity(3)).unwrap();
        assert_eq!(placed, m);
    }

    #[test]
    fn placement_permutes_clusters_and_preserves_occupancy() {
        let m = Mapping::from_assignment(vec![0, 0, 1, 2], 3).unwrap();
        let p = Placement::new(vec![2, 0, 1]).unwrap();
        let placed = m.place(&p).unwrap();
        assert_eq!(placed.assignment(), &[2, 2, 0, 1]);
        // occupancy is the permuted original
        let occ = m.occupancy();
        let pocc = placed.occupancy();
        for k in 0..3u32 {
            assert_eq!(pocc[p.physical_of(k) as usize], occ[k as usize]);
        }
        // crossbar-count mismatch rejected
        assert!(m.place(&Placement::identity(4)).is_err());
    }

    #[test]
    fn serde_keeps_the_two_field_shape() {
        let m = Mapping::from_assignment(vec![2, 0, 2, 1], 3).unwrap();
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(json, r#"{"crossbar_of":[2,0,2,1],"num_crossbars":3}"#);
        let back: Mapping = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
        // out-of-range assignments are rejected at the boundary
        assert!(
            serde_json::from_str::<Mapping>(r#"{"crossbar_of":[5],"num_crossbars":2}"#).is_err()
        );
    }

    #[test]
    fn placement_serde_revalidates_the_permutation() {
        let p = Placement::new(vec![2, 0, 1]).unwrap();
        let json = serde_json::to_string(&p).unwrap();
        let back: Placement = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        // a duplicate entry cannot enter through serialized data
        assert!(serde_json::from_str::<Placement>(r#"{"physical_of":[0,0,1]}"#).is_err());
    }

    #[test]
    fn every_neuron_has_exactly_one_crossbar_by_construction() {
        // Eq. 4 is structural: the Vec representation makes multiple
        // assignment impossible and from_assignment covers the range check.
        let m = Mapping::from_assignment(vec![1, 0, 1], 2).unwrap();
        assert_eq!(m.num_neurons(), 3);
        let total: usize = m.occupancy().iter().sum();
        assert_eq!(total, 3);
    }
}
