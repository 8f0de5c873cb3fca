//! Simulator configuration — the knobs Noxim exposes, plus the Noxim++
//! extensions (multicast trees, SNN-time scaling).

use crate::error::NocError;
use serde::{Deserialize, Serialize};

/// Configuration of the interconnect simulation.
///
/// The fields mirror Noxim's configurables quoted in the paper
/// ("buffer size, network size, packet size, packet injection rate, routing
/// algorithm, selection strategy"): network size comes from the topology,
/// injection comes from the SNN spike traffic, and the rest is here —
/// except the selection strategy, which is fixed: every output slot
/// serves its lanes round-robin ([`crate::router`]). A sending flow is
/// one packet of its net, delivered to every destination it lists; unicast
/// delivery is a flow per destination.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NocConfig {
    /// Input-FIFO depth per ingress port, in packets.
    pub buffer_depth: usize,
    /// Packet size in flits (AER address + timestamp over the link width).
    pub flits_per_packet: u32,
    /// Router pipeline delay in cycles (arbitration + switch).
    pub router_delay: u32,
    /// Interconnect cycles per SNN timestep (1 ms): the clock-domain ratio
    /// between the NoC and the neural dynamics.
    pub cycles_per_step: u64,
    /// Route multicast packets along Steiner-style trees
    /// ([`crate::topology::Topology::multicast_route`]) instead of
    /// branch-splitting along the per-destination unicast routes. Off by
    /// default, which is bit-identical to the pre-tree engines. Both
    /// engines move their packets over the same forwarding plan, built
    /// from one `multicast_route` call per net, so the differential
    /// byte-identity invariants (digest, delivery log, trace) hold under
    /// tree routing too. Absent in configuration files written before
    /// tree routing, hence the serde default.
    #[serde(default)]
    pub multicast_trees: bool,
    /// Hard cycle budget; exceeded ⇒ [`NocError::CycleBudgetExhausted`].
    pub max_cycles: u64,
    /// Virtual channels per ingress port. Every ingress port carries
    /// `vc_count` independent FIFOs of [`NocConfig::buffer_depth`] packets,
    /// each with its own credit counter; the VC a packet occupies on a
    /// link is assigned by [`crate::topology::Topology::hop_vc`]
    /// (dateline-based on the torus, which makes shallow-buffer torus
    /// routing deadlock-free — see [`crate::router`]). The default of 1
    /// is bit-identical to the pre-VC engines. Deserialization defaults
    /// absent fields to 1, so pre-VC configuration files stay valid.
    #[serde(default = "default_vc_count")]
    pub vc_count: usize,
    /// Attach the event scheduler's diagnostic counters
    /// ([`crate::stats::SchedCounters`]) to the run's statistics. Off by
    /// default: the counters describe the event engine's per-port wake
    /// scheduler, which the cycle-driven oracle does not have, so
    /// enabling them breaks stats byte-identity between the engines (the
    /// differential corpus keeps this off). Absent in configuration
    /// files written before the per-port scheduler, hence the serde
    /// default.
    #[serde(default)]
    pub sched_stats: bool,
    /// Record a structured event trace ([`crate::trace::TraceBuf`]) of
    /// the run, retrievable via `take_trace` on either engine. Off by
    /// default and zero-cost when off (no buffer is allocated, no event
    /// is recorded, and the engines' output — including the golden
    /// digests — is byte-identical to a build without the trace layer).
    /// When on, both engines emit byte-identical event streams; see
    /// [`crate::trace`] for the invariants. Absent in configuration
    /// files written before the trace layer, hence the serde default.
    #[serde(default)]
    pub trace: bool,
}

/// The fields configuration files had before the simulator ran one
/// interconnect model, read only to refuse a model it no longer has.
#[derive(Deserialize)]
struct Retired {
    #[serde(default)]
    multicast: Option<bool>,
    #[serde(default)]
    arbitration: Option<String>,
}

/// Serde default for [`NocConfig::vc_count`]: one virtual channel, the
/// pre-VC behavior.
fn default_vc_count() -> usize {
    1
}

/// Upper bound on [`NocConfig::vc_count`] (the engines track VC
/// eligibility in a 32-bit mask; real routers carry far fewer).
pub const MAX_VCS: usize = 32;

impl Default for NocConfig {
    fn default() -> Self {
        Self {
            buffer_depth: 4,
            flits_per_packet: 2,
            router_delay: 1,
            cycles_per_step: 1024,
            multicast_trees: false,
            max_cycles: 500_000_000,
            vc_count: 1,
            sched_stats: false,
            trace: false,
        }
    }
}

impl NocConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`NocError::InvalidConfig`] naming the first invalid field
    /// (zero buffer depth, zero flits, a hop latency past `u32`, zero
    /// cycles per step).
    pub fn validate(&self) -> Result<(), NocError> {
        if self.buffer_depth == 0 {
            return Err(NocError::InvalidConfig {
                name: "buffer_depth",
                value: "0".into(),
            });
        }
        if self.flits_per_packet == 0 {
            return Err(NocError::InvalidConfig {
                name: "flits_per_packet",
                value: "0".into(),
            });
        }
        if self
            .router_delay
            .checked_add(self.flits_per_packet - 1)
            .is_none()
        {
            return Err(NocError::InvalidConfig {
                name: "router_delay",
                value: format!(
                    "{} (+ {} flits − 1 overflows the u32 hop latency)",
                    self.router_delay, self.flits_per_packet
                ),
            });
        }
        if self.cycles_per_step == 0 {
            return Err(NocError::InvalidConfig {
                name: "cycles_per_step",
                value: "0".into(),
            });
        }
        if self.max_cycles == 0 {
            return Err(NocError::InvalidConfig {
                name: "max_cycles",
                value: "0".into(),
            });
        }
        if self.vc_count == 0 || self.vc_count > MAX_VCS {
            return Err(NocError::InvalidConfig {
                name: "vc_count",
                value: self.vc_count.to_string(),
            });
        }
        Ok(())
    }

    /// Cycles a packet spends between leaving one router and arriving at
    /// the next: pipeline delay plus link serialization of the trailing
    /// flits, never less than one cycle. Shared by the event-driven engine
    /// and the cycle-driven oracle so the timing model cannot drift.
    pub fn hop_latency(&self) -> u64 {
        (u64::from(self.router_delay) + u64::from(self.flits_per_packet))
            .saturating_sub(1)
            .max(1)
    }

    /// Cycles an output port stays busy serializing one packet.
    pub fn serialization_cycles(&self) -> u64 {
        self.flits_per_packet as u64
    }

    /// Parses a configuration from JSON (the counterpart of Noxim's
    /// externally loaded configuration file).
    ///
    /// Files written when the simulator still had unicast clones and a
    /// choice of arbiter stay valid as long as they name what it now
    /// always runs (`"multicast": true`, `"arbitration": "RoundRobin"`);
    /// any other value is refused rather than silently replaced.
    ///
    /// # Errors
    ///
    /// [`NocError::InvalidConfig`] when the JSON is malformed, a field is
    /// out of domain, or a retired field asks for another interconnect
    /// model (`multicast` or `arbitration`, named).
    pub fn from_json(json: &str) -> Result<Self, NocError> {
        let malformed = |e: serde_json::Error| NocError::InvalidConfig {
            name: "json",
            value: e.to_string(),
        };
        let cfg: NocConfig = serde_json::from_str(json).map_err(malformed)?;
        let retired: Retired = serde_json::from_str(json).map_err(malformed)?;
        if retired.multicast == Some(false) {
            return Err(NocError::InvalidConfig {
                name: "multicast",
                value: "false (a flow is one packet: unicast is a flow per destination)".into(),
            });
        }
        if let Some(policy) = retired.arbitration.filter(|p| p != "RoundRobin") {
            return Err(NocError::InvalidConfig {
                name: "arbitration",
                value: format!("{policy} (every output port serves its lanes round-robin)"),
            });
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(NocConfig::default().validate().is_ok());
    }

    #[test]
    fn zero_fields_rejected() {
        let c = NocConfig {
            buffer_depth: 0,
            ..NocConfig::default()
        };
        assert!(c.validate().is_err());
        let c = NocConfig {
            flits_per_packet: 0,
            ..NocConfig::default()
        };
        assert!(c.validate().is_err());
        let c = NocConfig {
            cycles_per_step: 0,
            ..NocConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn hop_latency_never_zero() {
        let c = NocConfig {
            router_delay: 0,
            flits_per_packet: 1,
            ..NocConfig::default()
        };
        assert_eq!(c.hop_latency(), 1);
        let c = NocConfig {
            router_delay: 1,
            flits_per_packet: 2,
            ..NocConfig::default()
        };
        assert_eq!(c.hop_latency(), 2);
        assert_eq!(c.serialization_cycles(), 2);
    }

    #[test]
    fn vc_count_out_of_domain_rejected() {
        let c = NocConfig {
            vc_count: 0,
            ..NocConfig::default()
        };
        assert!(matches!(
            c.validate(),
            Err(NocError::InvalidConfig {
                name: "vc_count",
                ..
            })
        ));
        let c = NocConfig {
            vc_count: MAX_VCS + 1,
            ..NocConfig::default()
        };
        assert!(c.validate().is_err());
        let c = NocConfig {
            vc_count: MAX_VCS,
            ..NocConfig::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn pre_vc_json_parses_with_one_vc() {
        // a configuration file written before virtual channels existed
        // must keep parsing, defaulting to the single-VC behavior
        let json = r#"{
            "buffer_depth": 4, "flits_per_packet": 2, "router_delay": 1,
            "cycles_per_step": 1024, "arbitration": "RoundRobin",
            "multicast": true, "max_cycles": 1000
        }"#;
        let c = NocConfig::from_json(json).unwrap();
        assert_eq!(c.vc_count, 1);
        assert!(!c.sched_stats, "scheduler counters default to off");
        assert!(!c.trace, "tracing defaults to off");
        assert!(!c.multicast_trees, "tree routing defaults to off");
    }

    #[test]
    fn json_naming_a_retired_model_is_refused() {
        let file = |retired: &str| {
            format!(
                r#"{{
                "buffer_depth": 4, "flits_per_packet": 2, "router_delay": 1,
                "cycles_per_step": 1024, "max_cycles": 1000, {retired}
            }}"#
            )
        };
        for (retired, field) in [
            (r#""multicast": false"#, "multicast"),
            (r#""arbitration": "OldestFirst""#, "arbitration"),
            (
                r#""arbitration": "FixedPriority", "multicast": true"#,
                "arbitration",
            ),
        ] {
            assert!(
                matches!(
                    NocConfig::from_json(&file(retired)),
                    Err(NocError::InvalidConfig { name, .. }) if name == field
                ),
                "{retired}"
            );
        }
        // the model it runs may still be named
        let named = file(r#""arbitration": "RoundRobin", "multicast": true"#);
        assert_eq!(
            NocConfig::from_json(&named).unwrap(),
            NocConfig::from_json(&file(r#""trace": false"#)).unwrap()
        );
    }

    #[test]
    fn json_roundtrip() {
        let c = NocConfig::default();
        let j = c.to_json();
        assert_eq!(NocConfig::from_json(&j).unwrap(), c);
        let c = NocConfig {
            vc_count: 4,
            sched_stats: true,
            trace: true,
            multicast_trees: true,
            ..NocConfig::default()
        };
        assert_eq!(NocConfig::from_json(&c.to_json()).unwrap(), c);
    }

    #[test]
    fn bad_json_reports_config_error() {
        assert!(matches!(
            NocConfig::from_json("{"),
            Err(NocError::InvalidConfig { .. })
        ));
    }
}
