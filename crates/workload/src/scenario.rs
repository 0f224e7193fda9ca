//! The evaluation networks of the paper.

use bneck_net::topology::transit_stub::{paper_network, NetworkSize};
use bneck_net::{DelayModel, Network};

/// A network scenario: a transit–stub topology size, a delay model (LAN or
/// WAN) and a host count.
///
/// The paper evaluates Small (110 routers), Medium (1,100) and Big (11,000)
/// networks in both LAN (1 µs links) and WAN (1–10 ms links) flavours, with up
/// to 600,000 hosts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkScenario {
    /// Topology size class.
    pub size: NetworkSize,
    /// Propagation delay model.
    pub delay_model: DelayModel,
    /// Number of hosts attached to random stub routers.
    pub hosts: usize,
    /// Seed for the topology generator.
    pub seed: u64,
}

impl NetworkScenario {
    /// A Small LAN network with the given number of hosts.
    pub fn small_lan(hosts: usize) -> Self {
        NetworkScenario {
            size: NetworkSize::Small,
            delay_model: DelayModel::Lan,
            hosts,
            seed: 1,
        }
    }

    /// A Small WAN network with the given number of hosts.
    pub fn small_wan(hosts: usize) -> Self {
        NetworkScenario {
            delay_model: DelayModel::Wan,
            ..Self::small_lan(hosts)
        }
    }

    /// A Medium LAN network with the given number of hosts (the configuration
    /// used by Experiments 2 and 3 of the paper).
    pub fn medium_lan(hosts: usize) -> Self {
        NetworkScenario {
            size: NetworkSize::Medium,
            delay_model: DelayModel::Lan,
            hosts,
            seed: 1,
        }
    }

    /// A Medium WAN network with the given number of hosts.
    pub fn medium_wan(hosts: usize) -> Self {
        NetworkScenario {
            delay_model: DelayModel::Wan,
            ..Self::medium_lan(hosts)
        }
    }

    /// A Big LAN network with the given number of hosts.
    pub(crate) fn big_lan(hosts: usize) -> Self {
        NetworkScenario {
            size: NetworkSize::Big,
            delay_model: DelayModel::Lan,
            hosts,
            seed: 1,
        }
    }

    /// The paper's evaluation network named `name` with the given number of
    /// hosts: `small/lan`, `small/wan`, `medium/lan`, `medium/wan` or
    /// `big/lan` (§IV), spelled as [`Self::label`] prints them. `None` for
    /// any other name.
    pub fn preset(name: &str, hosts: usize) -> Option<Self> {
        Some(match name {
            "small/lan" => Self::small_lan(hosts),
            "small/wan" => Self::small_wan(hosts),
            "medium/lan" => Self::medium_lan(hosts),
            "medium/wan" => Self::medium_wan(hosts),
            "big/lan" => Self::big_lan(hosts),
            _ => return None,
        })
    }

    /// Overrides the topology seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the network.
    pub fn build(&self) -> Network {
        paper_network(self.size, self.hosts, self.delay_model, self.seed)
    }

    /// A short label such as `small/lan`, used in reports.
    pub fn label(&self) -> String {
        let delay = match self.delay_model {
            DelayModel::Lan => "lan",
            DelayModel::Wan => "wan",
        };
        format!("{}/{}", self.size, delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_the_expected_sizes() {
        assert_eq!(NetworkScenario::small_lan(10).size, NetworkSize::Small);
        assert_eq!(NetworkScenario::medium_lan(10).size, NetworkSize::Medium);
        assert_eq!(NetworkScenario::big_lan(10).size, NetworkSize::Big);
        assert_eq!(NetworkScenario::small_wan(10).delay_model, DelayModel::Wan);
        assert_eq!(NetworkScenario::medium_wan(10).delay_model, DelayModel::Wan);
    }

    #[test]
    fn build_generates_the_network() {
        let scenario = NetworkScenario::small_lan(25).with_seed(9);
        let net = scenario.build();
        assert_eq!(net.router_count(), 110);
        assert_eq!(net.host_count(), 25);
    }

    #[test]
    fn presets_resolve_by_label() {
        for name in [
            "small/lan",
            "small/wan",
            "medium/lan",
            "medium/wan",
            "big/lan",
        ] {
            let scenario = NetworkScenario::preset(name, 7).unwrap();
            assert_eq!(scenario.label(), name);
            assert_eq!(scenario.hosts, 7);
        }
        let scenario = NetworkScenario::preset("medium/wan", 50).unwrap();
        assert_eq!(scenario.size, NetworkSize::Medium);
        assert!(NetworkScenario::preset("huge/lan", 10).is_none());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(NetworkScenario::small_lan(1).label(), "small/lan");
        assert_eq!(NetworkScenario::medium_wan(1).label(), "medium/wan");
    }
}
