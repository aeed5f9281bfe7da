//! Configuration types shared by all protocols.

use serde::{Deserialize, Serialize};

use rumor_walks::{AgentCount, Placement, WalkConfig};

/// Configuration of the agent population used by `visit-exchange` and
/// `meet-exchange`.
///
/// The paper's default is `|A| = α n` agents (a linear number), each starting
/// from an independent sample of the stationary distribution, performing
/// simple random walks (lazy walks on bipartite graphs).
///
/// # Examples
///
/// ```
/// use rumor_core::AgentConfig;
/// use rumor_walks::{AgentCount, WalkConfig};
///
/// let default = AgentConfig::default();
/// assert_eq!(default.count.resolve(100), 100);
///
/// let lazy = AgentConfig::default().lazy();
/// assert!(lazy.walk.is_lazy());
///
/// let double = AgentConfig::with_alpha(2.0);
/// assert_eq!(double.count.resolve(100), 200);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgentConfig {
    /// How many agents to create.
    pub count: AgentCount,
    /// Where the agents start.
    pub placement: Placement,
    /// Whether the walks are simple or lazy.
    pub walk: WalkConfig,
}

impl AgentConfig {
    /// The paper's baseline: `α = 1` stationary agents with simple walks.
    pub fn new() -> Self {
        AgentConfig {
            count: AgentCount::Linear { alpha: 1.0 },
            placement: Placement::Stationary,
            walk: WalkConfig::simple(),
        }
    }

    /// Baseline configuration with a different linear density `α`.
    pub fn with_alpha(alpha: f64) -> Self {
        AgentConfig {
            count: AgentCount::Linear { alpha },
            ..Self::new()
        }
    }

    /// Exactly one agent started on each vertex (the alternative model for
    /// which the paper's regular-graph results also hold).
    pub fn one_per_vertex() -> Self {
        AgentConfig {
            count: AgentCount::one_per_vertex(),
            placement: Placement::OneUniquePerVertex,
            walk: WalkConfig::simple(),
        }
    }

    /// Returns the same configuration but with lazy walks (stay-put
    /// probability 1/2), the paper's device for bipartite graphs.
    pub fn lazy(mut self) -> Self {
        self.walk = WalkConfig::lazy();
        self
    }

    /// Returns the same configuration with the given walk behaviour.
    pub fn with_walk(mut self, walk: WalkConfig) -> Self {
        self.walk = walk;
        self
    }

    /// Returns the same configuration with the given placement.
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// How many agents this configuration creates on an `n`-vertex graph:
    /// the resolved count, unless the placement fixes it (see
    /// [`Placement::sample`]).
    pub(crate) fn agents_on(&self, n: usize) -> usize {
        match &self.placement {
            Placement::OneUniquePerVertex => n,
            Placement::Explicit(starts) => starts.len(),
            _ => self.count.resolve(n),
        }
    }
}

impl Default for AgentConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Optional bookkeeping toggles, shared by every protocol.
///
/// Both options are off by default because they add memory traffic to the hot
/// loop; experiments that need per-round curves or bandwidth-fairness
/// histograms switch them on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ProtocolOptions {
    /// Record one [`RoundRecord`](crate::RoundRecord) per round.
    pub record_history: bool,
    /// Count how many times each undirected edge carries a call or an agent.
    pub record_edge_traffic: bool,
}

impl ProtocolOptions {
    /// All bookkeeping disabled (the default).
    pub fn none() -> Self {
        ProtocolOptions::default()
    }

    /// Record per-round history.
    pub fn with_history() -> Self {
        ProtocolOptions {
            record_history: true,
            ..Default::default()
        }
    }

    /// Record per-edge traffic (for the bandwidth-fairness experiments).
    pub fn with_edge_traffic() -> Self {
        ProtocolOptions {
            record_edge_traffic: true,
            ..Default::default()
        }
    }

    /// Record everything.
    pub fn full() -> Self {
        ProtocolOptions {
            record_history: true,
            record_edge_traffic: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_agent_config_matches_paper_baseline() {
        let cfg = AgentConfig::default();
        assert_eq!(cfg.count.resolve(1000), 1000);
        assert_eq!(cfg.placement, Placement::Stationary);
        assert!(!cfg.walk.is_lazy());
    }

    #[test]
    fn alpha_scaling() {
        assert_eq!(AgentConfig::with_alpha(0.5).count.resolve(100), 50);
        assert_eq!(AgentConfig::with_alpha(3.0).count.resolve(10), 30);
    }

    #[test]
    fn one_per_vertex_configuration() {
        let cfg = AgentConfig::one_per_vertex();
        assert_eq!(cfg.placement, Placement::OneUniquePerVertex);
    }

    #[test]
    fn builder_style_modifiers() {
        let cfg = AgentConfig::default().lazy();
        assert!(cfg.walk.is_lazy());
        let cfg = AgentConfig::default().with_walk(WalkConfig::with_laziness(0.25).unwrap());
        assert_eq!(cfg.walk.laziness(), 0.25);
        let cfg = AgentConfig::default().with_placement(Placement::AllAt(3));
        assert_eq!(cfg.placement, Placement::AllAt(3));
    }

    #[test]
    fn options_presets() {
        assert!(!ProtocolOptions::none().record_history);
        assert!(ProtocolOptions::with_history().record_history);
        assert!(!ProtocolOptions::with_history().record_edge_traffic);
        assert!(ProtocolOptions::with_edge_traffic().record_edge_traffic);
        assert!(
            ProtocolOptions::full().record_history && ProtocolOptions::full().record_edge_traffic
        );
    }
}
