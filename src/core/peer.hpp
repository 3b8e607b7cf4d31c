// BcflPeer — the paper's primary contribution: a fully-coupled participant
// that is simultaneously data holder, trainer, miner and aggregator.
//
// Per communication round each peer:
//   1. trains locally (simulated duration + CPU contention with its miner),
//   2. serializes its weights, chunks them and publishes them through the
//      registry contract (publish tx + chunk txs),
//   3. consults its WaitPolicy whenever its chain view changes (or a policy
//      deadline fires) until the policy says to aggregate — synchronously,
//      after K arrivals, at a (possibly adaptive) deadline, or by giving up
//      ("not to wait": asynchronous aggregation),
//   4. hands the available updates to its AggregationStrategy, which picks
//      the next global model and reports the per-combination accuracy rows
//      — the rows of Tables II, III and IV.
//
// The wait/aggregation axis is fully pluggable: see core/policy.hpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/model_store.hpp"
#include "core/policy.hpp"
#include "core/topology.hpp"
#include "fl/combinations.hpp"
#include "fl/task.hpp"
#include "net/transport.hpp"
#include "node/node.hpp"

namespace bcfl::core {

/// Role a peer plays in a hierarchical topology (core/topology.hpp).
/// `flat` (the default) is the original single-tier round loop.
enum class TierRole : std::uint8_t { flat, member, head, top_head };

/// Per-peer tier wiring, derived from a ResolvedTopology by the experiment
/// runner. Fields beyond a role's needs may stay empty: members use only
/// `top_head` and `member_timeout`; heads add `cluster` and the head
/// specs; the top head additionally needs `heads`, `clusters` and the top
/// specs.
struct PeerTierConfig {
    TierRole role = TierRole::flat;
    /// Own cluster's members (sorted, including self) — head roles.
    std::vector<std::size_t> cluster;
    /// All clusters (normalized) — top head only, for cluster weighting.
    std::vector<std::vector<std::size_t>> clusters;
    /// All cluster heads, aligned with `clusters` — top head only.
    std::vector<std::size_t> heads;
    /// Roster index of the tier-2 aggregator publishing the global model.
    std::size_t top_head = 0;

    /// Tier policy/aggregation factory specs (core/policy.hpp).
    std::string head_policy = "wait_all,timeout=900s";
    std::string head_aggregation = "fedavg_all";
    std::string top_policy = "wait_all,timeout=900s";
    std::string top_aggregation = "fedavg_all";

    /// Give-up deadline while waiting for the round's global model.
    net::SimTime member_timeout = net::seconds(1800);
};

struct PeerConfig {
    std::size_t index = 0;  // client index (0 = A, 1 = B, ...)
    /// Simulated wall-clock duration of one local training pass.
    net::SimTime train_duration = net::seconds(30);
    /// CPU fraction consumed while training (contends with mining).
    double train_cpu_load = 0.8;
    std::size_t chunk_bytes = 24 * 1024;
    std::uint64_t gas_price = 1;
    /// Extra ballast bytes appended to the published payload to emulate
    /// paper-scale model sizes (e.g. EfficientNet-B0's 21.2 MB) — see E4.
    std::size_t payload_pad_bytes = 0;
    /// Fault injection for the poisoning experiments: when true this peer
    /// publishes a corrupted update (sign-flipped, noise-scaled weights)
    /// while still participating in consensus honestly.
    bool poison_updates = false;
    /// Churn: the peer joins the federation this long after run_rounds —
    /// its round 1 starts late, so other peers' policies see its models
    /// missing and take their configured asynchronous path.
    net::SimTime start_delay = 0;

    /// WaitPolicy factory spec (see core/policy.hpp), e.g.
    /// "wait_all,timeout=900s", "adaptive,base=60s,extend=30s,max=300s" or
    /// "schedule,1-5:wait_all,6+:deadline=600s".
    std::string wait_policy = "wait_for=3,timeout=900s";
    /// AggregationStrategy factory spec, e.g. "best_combination",
    /// "trimmed_mean,trim=1" or "staleness_fedavg,half_life=2r".
    std::string aggregation = "best_combination";

    /// Hierarchical wiring; `tier.role == flat` leaves the original
    /// single-tier loop untouched (bit-identical output).
    PeerTierConfig tier;
};

struct PeerRoundRecord {
    std::size_t round = 0;                  // 1-based, like the paper
    std::vector<ComboAccuracy> combos;      // table rows
    std::string chosen_label;
    double chosen_accuracy = 0.0;
    std::size_t models_available = 0;
    /// Of `models_available`, how many were stale backfills — an
    /// earlier-round model standing in for a missing current-round one
    /// (only a strategy with `wants_stale_updates` receives any).
    std::size_t stale_models_used = 0;
    /// Roster indices dropped by the fitness threshold this round.
    std::vector<std::size_t> filtered_out;
    bool timed_out = false;
    net::SimTime round_started = 0;
    net::SimTime published_at = 0;
    net::SimTime aggregated_at = 0;
};

class BcflPeer {
public:
    /// `roster` maps client index -> account address, shared by all peers.
    /// Clock and timers come from the node's transport.
    BcflPeer(node::Node& node, const fl::FlTask& task,
             std::vector<Address> roster, PeerConfig config);

    /// Launches the first round; the peer then self-schedules.
    void run_rounds(std::size_t rounds);

    /// Safe to poll from outside the peer's delivery context (the socket
    /// backend's run loop does): reads one atomic.
    [[nodiscard]] bool finished() const {
        return target_rounds_ > 0 &&
               completed_rounds_.load(std::memory_order_relaxed) >=
                   target_rounds_;
    }
    [[nodiscard]] const std::vector<PeerRoundRecord>& records() const {
        return records_;
    }
    [[nodiscard]] const std::vector<float>& current_weights() const {
        return global_weights_;
    }
    [[nodiscard]] std::size_t index() const { return config_.index; }
    [[nodiscard]] const node::Node& node() const { return node_; }
    [[nodiscard]] const WaitPolicy& wait_policy() const {
        return *wait_policy_;
    }
    [[nodiscard]] const AggregationStrategy& aggregation() const {
        return *aggregation_;
    }

private:
    /// Hierarchical round progress. A flat peer stays in `idle` between
    /// training and its single aggregation; hierarchical roles step through
    /// the tiers: heads wait_members -> (publish cluster model) ->
    /// wait_global; the top head wait_members -> wait_clusters; members go
    /// straight to wait_global after publishing.
    enum class Phase : std::uint8_t {
        idle,
        wait_members,
        wait_clusters,
        wait_global,
    };

    void begin_round();
    void finish_training();
    void publish_weights(std::uint64_t registry_round,
                         const std::vector<float>& weights);
    /// Consults the WaitPolicy against the current chain view and either
    /// aggregates or (re)schedules the policy's next deadline.
    void poll_wait_policy();
    void schedule_policy_timer(net::SimTime when);
    [[nodiscard]] RoundView round_view();
    void aggregate(bool timed_out);
    [[nodiscard]] std::string client_names() const;
    [[nodiscard]] std::optional<std::vector<float>> chain_weights(
        std::uint64_t round, const Address& owner) const;

    // --- hierarchical tiers (no-ops for TierRole::flat) ---
    /// Arms `phase` with the matching tier policy and polls it once.
    void enter_phase(Phase phase);
    /// Chain view over this head's cluster members (tier-1 wait).
    [[nodiscard]] RoundView cluster_view();
    /// Chain view over the cluster heads' cluster models (tier-2 wait).
    [[nodiscard]] RoundView top_view();
    /// Head: aggregates member models into the cluster model and either
    /// publishes it (plain head) or advances to wait_clusters (top head).
    void aggregate_members(bool timed_out);
    /// Top head: merges cluster models into the round's global model.
    void aggregate_clusters(bool timed_out);
    /// Member/head: adopts the published global model (or falls back to the
    /// best local tier model after member_timeout).
    void poll_wait_global();
    void complete_round();
    /// Restricts ModelStore ingest to the registry rounds/owners this role
    /// can ever consume, bounding per-peer memory to its tier fan-in.
    void install_store_filter();

    net::Transport& transport_;
    node::Node& node_;
    const fl::FlTask& task_;
    std::vector<Address> roster_;
    PeerConfig config_;

    std::unique_ptr<WaitPolicy> wait_policy_;
    std::unique_ptr<AggregationStrategy> aggregation_;
    // Tier policies (constructed only for the roles that use them).
    std::unique_ptr<WaitPolicy> head_policy_;
    std::unique_ptr<AggregationStrategy> head_aggregation_;
    std::unique_ptr<WaitPolicy> top_policy_;
    std::unique_ptr<AggregationStrategy> top_aggregation_;

    std::unique_ptr<fl::FlModel> model_;   // training instance
    std::unique_ptr<fl::FlModel> probe_;   // evaluation instance
    std::vector<float> global_weights_;    // chosen model entering the round
    std::vector<float> own_update_;        // this round's trained weights
    ModelStore store_;

    std::size_t target_rounds_ = 0;
    std::atomic<std::size_t> completed_rounds_ = 0;
    std::uint64_t current_round_ = 0;      // 1-based
    std::uint64_t next_nonce_ = 0;
    bool waiting_ = false;
    std::uint64_t wait_generation_ = 0;
    bool timer_pending_ = false;           // a policy deadline is scheduled
    net::SimTime timer_at_ = 0;
    Phase phase_ = Phase::idle;
    net::SimTime phase_started_ = 0;
    std::vector<float> cluster_weights_;   // head's tier-1 aggregate
    std::vector<PeerRoundRecord> records_;
};

}  // namespace bcfl::core
