// Hierarchical (committee) aggregation topology: peers grouped into
// clusters, one head per cluster.
//
// A TopologyConfig describes the grouping declaratively — either an
// automatic equal-size partition (`cluster_size`) or an explicit member
// list per cluster — plus the per-tier WaitPolicy / AggregationStrategy
// factory specs. `resolve_topology` validates the description against a
// roster size and produces a *normalized* ResolvedTopology: members sorted
// ascending inside each cluster and clusters sorted by head index, so two
// specs that list the same partition in different orders resolve to the
// same object and drive byte-identical simulations (the cluster-iteration-
// order determinism pin in tests/hierarchy_test.cpp).
//
// Round shape with a topology enabled (see core/peer.cpp):
//   tier 0  every peer trains and publishes its member model;
//   tier 1  each cluster head runs `head_policy` over its members' model
//           txs, aggregates with `head_aggregation` and publishes one
//           cluster-model tx (heads take these two specs as their
//           PeerConfig::wait_policy and PeerConfig::aggregation);
//   tier 2  the top head (the lowest-indexed cluster head) runs
//           `top_policy` over the cluster models and publishes the round's
//           global model, which every peer adopts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/sim.hpp"

namespace bcfl::core {

struct TopologyConfig {
    /// Automatic partition: contiguous clusters of this many peers (the
    /// last cluster takes the remainder). 0 means "no automatic partition";
    /// with `clusters` also empty the topology is disabled (flat rounds).
    std::size_t cluster_size = 0;
    /// Explicit partition: every peer index in exactly one cluster.
    /// Mutually exclusive with `cluster_size`.
    std::vector<std::vector<std::size_t>> clusters;
    /// Optional explicit head per cluster, aligned with `clusters`; each
    /// head must be a member of its cluster. Default: the smallest member.
    std::vector<std::size_t> heads;

    /// Tier-1 WaitPolicy / AggregationStrategy factory specs (the same
    /// factories flat rounds use — see core/policy.hpp) a cluster head
    /// applies over its members' model txs. The experiment runner passes
    /// them to heads as PeerConfig::wait_policy / PeerConfig::aggregation.
    std::string head_policy = "wait_all,timeout=900s";
    std::string head_aggregation = "fedavg_all";
    /// Tier-2 specs the top head applies over the cluster models.
    std::string top_policy = "wait_all,timeout=900s";
    std::string top_aggregation = "fedavg_all";

    /// How long a peer waits for the round's global model before giving up
    /// and entering the next round on its own best weights. Should exceed
    /// the summed tier timeouts, or slow rounds degrade into solo training.
    net::SimTime member_timeout = net::seconds(1800);

    [[nodiscard]] bool enabled() const {
        return cluster_size > 0 || !clusters.empty();
    }
};

/// Validated, normalized form of a TopologyConfig for a concrete roster.
struct ResolvedTopology {
    /// Disjoint cover of [0, peers): members sorted ascending, clusters
    /// sorted by head index.
    std::vector<std::vector<std::size_t>> clusters;
    /// heads[k] is the head of clusters[k] and a member of it.
    std::vector<std::size_t> heads;
    /// cluster_of[peer] = index into `clusters`.
    std::vector<std::size_t> cluster_of;
    /// The cluster head that runs tier 2 and publishes the global model:
    /// heads.front() (the lowest head index, by normalization).
    std::size_t top_head = 0;

    [[nodiscard]] std::size_t max_cluster_size() const {
        std::size_t out = 0;
        for (const auto& cluster : clusters) {
            out = cluster.size() > out ? cluster.size() : out;
        }
        return out;
    }
};

/// Validates `config` against a roster of `peers` and normalizes it.
/// Throws Error("topology: ...") on any inconsistency: conflicting
/// partition modes, empty clusters, out-of-range or duplicated members,
/// incomplete cover, or a head that is not a member of its cluster.
[[nodiscard]] ResolvedTopology resolve_topology(const TopologyConfig& config,
                                                std::size_t peers);

}  // namespace bcfl::core
