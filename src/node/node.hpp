// Full node ("geth-lite"): blockchain + mempool + PoW miner + gossip.
//
// One Node corresponds to one of the paper's Geth peers. Mining time is
// simulated (exponential with mean difficulty/hash_rate — the memoryless
// property makes restart-on-new-head statistically exact), but every sealed
// block carries a real PoW nonce and every import re-validates it.
//
// `set_compute_load` models the paper's observed dual-duty resource
// exhaustion: while a peer trains, its effective hash rate drops.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chain/blockchain.hpp"
#include "chain/txpool.hpp"
#include "common/rng.hpp"
#include "crypto/secp256k1.hpp"
#include "net/transport.hpp"
#include "node/executor.hpp"
#include "vm/registry_contract.hpp"

namespace bcfl::node {

struct NodeConfig {
    chain::ChainConfig chain;
    std::uint64_t key_seed = 1;
    double hash_rate = 200.0;  // hashes/second, drives simulated mining time
    bool mine = true;
    std::uint64_t rng_seed = 7;
    /// Cap on real nonce-search effort when sealing (safety valve).
    std::uint64_t max_seal_attempts = 50'000'000;
    /// Gossip overlay: when non-empty, this node's broadcasts go only to
    /// the listed peers (flood-with-dedup over the overlay graph) instead
    /// of the full mesh. Hierarchical deployments (core/topology.hpp) use
    /// a two-level overlay — members link only to their cluster head,
    /// heads form a mesh among themselves plus their members — so a
    /// broadcast costs O(peers + heads^2) sends instead of O(peers^2).
    /// Empty (the default) preserves the full-mesh flood exactly.
    std::vector<net::NodeId> neighbors;
    /// When non-empty, *transaction* gossip uses this subset instead of
    /// `neighbors`. Non-mining leaves have no use for foreign txs (they
    /// follow the chain via block gossip), and at ~300 us per signature
    /// check, pool admission at every leaf dominates large-roster runs —
    /// so hierarchical overlays route txs only toward the miners.
    std::vector<net::NodeId> tx_neighbors;
    /// Generation size of the gossip-dedup set: when the current
    /// generation reaches this many hashes it becomes the previous one and
    /// the oldest generation is dropped, bounding memory at ~2x the cap
    /// instead of one 32-byte hash per tx/block forever. Large enough that
    /// anything still circulating in gossip is remembered; a forgotten
    /// hash only costs a duplicate import (rejected as such) or a pool
    /// re-admission check.
    std::size_t gossip_seen_cap = 32'768;
};

struct NodeStats {
    std::uint64_t blocks_mined = 0;
    std::uint64_t blocks_imported = 0;
    std::uint64_t blocks_rejected = 0;
    std::uint64_t txs_submitted = 0;
    std::uint64_t reorgs = 0;
    /// Ancestor-sync protocol traffic (see handle_message: get_block).
    std::uint64_t blocks_requested = 0;
    std::uint64_t block_requests_served = 0;
    /// Gossip-dedup hashes dropped by generational rotation (memory bound).
    std::uint64_t seen_evictions = 0;
    /// Pool txs dropped because their nonce was already satisfied on the
    /// canonical chain (e.g. a mined tx's duplicate re-admitted through
    /// gossip after its hash left the bounded dedup set).
    std::uint64_t stale_txs_pruned = 0;
};

class Node {
public:
    Node(net::Transport& transport, NodeConfig config);

    /// Begins mining (if enabled). Call after all nodes are constructed.
    void start();

    /// Local API (web3.eth.sendTransaction): pool + gossip.
    void submit_tx(const chain::Transaction& tx);

    /// eth_call at the current head (view functions of the registry).
    [[nodiscard]] vm::CallResult call_view(Bytes calldata) const;

    [[nodiscard]] const chain::Blockchain& chain() const { return *chain_; }
    [[nodiscard]] const vm::WorldState& head_state() const;
    /// The transport this node was registered on — the peer layer reaches
    /// the clock and its timers through here, never a backend directly.
    [[nodiscard]] net::Transport& transport() const { return transport_; }
    [[nodiscard]] net::NodeId id() const { return id_; }
    [[nodiscard]] const crypto::KeyPair& key() const { return key_; }
    [[nodiscard]] Address address() const { return key_.address(); }
    [[nodiscard]] const NodeStats& stats() const { return stats_; }
    [[nodiscard]] const VmBlockExecutor& executor() const { return *executor_; }

    /// Fraction of CPU consumed by non-mining work (training); reduces the
    /// effective hash rate to hash_rate * (1 - load).
    void set_compute_load(double load);
    [[nodiscard]] double compute_load() const { return compute_load_; }

    using HeadCallback = std::function<void(const chain::Block&)>;
    void on_new_head(HeadCallback callback) {
        head_callbacks_.push_back(std::move(callback));
    }

    /// Current gossip-dedup footprint (both generations); bounded at
    /// ~2 * NodeConfig::gossip_seen_cap entries.
    [[nodiscard]] std::size_t gossip_seen_size() const {
        return seen_now_.size() + seen_prev_.size();
    }

    /// The configured generation cap the footprint above is bounded by.
    [[nodiscard]] std::size_t gossip_seen_cap() const {
        return config_.gossip_seen_cap;
    }

    /// Blocks currently waiting in the orphan buffer for a missing parent.
    [[nodiscard]] std::size_t orphan_blocks_buffered() const {
        return orphan_parent_.size();
    }

    /// Transactions currently pooled (bounded by prune_stale amortization).
    [[nodiscard]] std::size_t pool_size() const { return pool_.size(); }

    /// Builds the genesis world state shared by all nodes: the model
    /// registry contract deployed at its well-known address.
    static vm::WorldState genesis_state();

private:
    enum class MsgKind : std::uint8_t { tx = 1, block = 2, get_block = 3 };

    void handle_message(net::NodeId from, const Bytes& message);
    void handle_block(net::NodeId from, const chain::Block& block);
    void import_block(const chain::Block& block, bool relay,
                      net::NodeId origin);
    /// Asks `peer` for the block with the given hash (ancestor sync: after
    /// a partition heals, gossiped heads reference unknown parents; walking
    /// the parent chain back to the fork point reconnects the forks).
    void request_block(net::NodeId peer, const Hash32& hash);
    /// Gossip dedup with bounded memory: two generations rotated when the
    /// current one reaches NodeConfig::gossip_seen_cap.
    [[nodiscard]] bool already_seen(const Hash32& id) const;
    void mark_seen(const Hash32& id);
    /// Follows the orphan buffer from `hash` to the earliest ancestor we
    /// do not hold at all — the next block actually worth requesting.
    [[nodiscard]] Hash32 earliest_missing_ancestor(Hash32 hash) const;
    void retry_orphans();
    void schedule_mining();
    void on_block_found(std::uint64_t generation);
    void broadcast(MsgKind kind, BytesView body);
    void notify_new_head();

    net::Transport& transport_;
    NodeConfig config_;
    crypto::KeyPair key_;
    Rng rng_;
    std::shared_ptr<VmBlockExecutor> executor_;
    std::unique_ptr<chain::Blockchain> chain_;
    chain::TxPool pool_;
    net::NodeId id_ = 0;
    NodeStats stats_;
    double compute_load_ = 0.0;
    std::uint64_t mining_generation_ = 0;
    // Head changes since the last stale-tx prune (see import_block): the
    // pool scan is amortized so imports stay O(new work).
    std::uint64_t heads_since_prune_ = 0;
    bool started_ = false;
    // Generational gossip-dedup: lookups consult both sets; inserts go to
    // seen_now_, which rotates into seen_prev_ at the cap (see mark_seen).
    std::unordered_set<Hash32, FixedBytesHasher> seen_now_;
    std::unordered_set<Hash32, FixedBytesHasher> seen_prev_;
    std::unordered_map<Hash32, std::vector<chain::Block>, FixedBytesHasher>
        orphans_;  // parent hash -> waiting blocks
    std::unordered_map<Hash32, Hash32, FixedBytesHasher>
        orphan_parent_;  // buffered block hash -> its parent hash, so the
                         // ancestor walk is O(1) per step (no rehashing)
    std::vector<HeadCallback> head_callbacks_;
};

}  // namespace bcfl::node
