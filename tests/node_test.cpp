#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "crypto/keccak.hpp"
#include "crypto/work_counters.hpp"
#include "net/sim_transport.hpp"
#include "node/node.hpp"
#include "vm/registry_contract.hpp"

namespace bcfl::node {
namespace {

namespace abi = vm::registry_abi;

/// A three-peer private network, mirroring the paper's Geth x3 deployment.
class NodeNetworkTest : public ::testing::Test {
protected:
    NodeNetworkTest() : transport_(net::LinkParams{}, /*seed=*/3) {
        chain::ChainConfig chain_config;
        chain_config.initial_difficulty = 600;
        chain_config.min_difficulty = 64;
        chain_config.target_interval_ms = 3000;
        for (std::uint64_t i = 0; i < 3; ++i) {
            NodeConfig config;
            config.chain = chain_config;
            config.key_seed = 100 + i;
            config.hash_rate = 200.0;  // 3 x 200 h/s vs difficulty 600
            config.rng_seed = 1000 + i;
            nodes_.push_back(std::make_unique<Node>(transport_, config));
        }
    }

    void start_all() {
        for (auto& node : nodes_) node->start();
    }

    /// Tests drive the simulated clock directly through the backend's
    /// escape hatch (product code goes through the Transport interface).
    void run_until(net::SimTime deadline) {
        transport_.sim().run_until(deadline);
    }

    net::SimTransport transport_;
    std::vector<std::unique_ptr<Node>> nodes_;
};

TEST_F(NodeNetworkTest, AllNodesShareGenesis) {
    EXPECT_EQ(nodes_[0]->chain().genesis().hash(),
              nodes_[1]->chain().genesis().hash());
    EXPECT_EQ(nodes_[1]->chain().genesis().hash(),
              nodes_[2]->chain().genesis().hash());
}

TEST_F(NodeNetworkTest, MinersProduceAndPropagateBlocks) {
    start_all();
    run_until(net::seconds(120));
    // Everyone should be well past genesis and agree on the head.
    EXPECT_GT(nodes_[0]->chain().height(), 5u);
    EXPECT_EQ(nodes_[0]->chain().head_hash(), nodes_[1]->chain().head_hash());
    EXPECT_EQ(nodes_[1]->chain().head_hash(), nodes_[2]->chain().head_hash());
    // Work was distributed (no node mined everything).
    std::uint64_t total_mined = 0;
    for (const auto& node : nodes_) total_mined += node->stats().blocks_mined;
    EXPECT_GE(total_mined, nodes_[0]->chain().height());
    EXPECT_EQ(nodes_[0]->stats().blocks_rejected, 0u);
}

TEST_F(NodeNetworkTest, TransactionReachesChainEverywhere) {
    start_all();
    const auto& key = nodes_[1]->key();
    const Bytes calldata = abi::publish_calldata(
        1, crypto::keccak256(str_bytes("model-A-r1")), 2, 1234);
    const auto tx = chain::Transaction::make_signed(
        key, 0, vm::registry_address(), 5'000'000, 1, calldata);
    nodes_[1]->submit_tx(tx);
    run_until(net::seconds(120));

    for (const auto& node : nodes_) {
        const auto loc = node->chain().locate_tx(tx.hash());
        ASSERT_TRUE(loc.has_value()) << "node " << node->id();
        // Registry state should be queryable via view call on every node.
        const auto result =
            node->call_view(abi::get_model_calldata(1, key.address()));
        ASSERT_TRUE(result.success) << result.error;
        const auto record = abi::decode_model(result.return_data);
        EXPECT_EQ(record.chunk_count, 2u);
        EXPECT_EQ(record.size_bytes, 1234u);
    }
}

TEST_F(NodeNetworkTest, ContractEventVisibleInReceipts) {
    start_all();
    const auto& key = nodes_[0]->key();
    const auto tx = chain::Transaction::make_signed(
        key, 0, vm::registry_address(), 5'000'000, 1,
        abi::publish_calldata(3, crypto::keccak256(str_bytes("m")), 1, 10));
    nodes_[0]->submit_tx(tx);
    run_until(net::seconds(120));

    const auto loc = nodes_[2]->chain().locate_tx(tx.hash());
    ASSERT_TRUE(loc.has_value());
    const auto* receipts = nodes_[2]->chain().receipts_for(loc->block_hash);
    ASSERT_NE(receipts, nullptr);
    ASSERT_GT(receipts->size(), loc->index);
    const chain::Receipt& receipt = (*receipts)[loc->index];
    EXPECT_TRUE(receipt.success);
    ASSERT_EQ(receipt.logs.size(), 1u);
    const auto event = abi::parse_published(receipt.logs[0]);
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(event->round, 3u);
    EXPECT_EQ(event->publisher, key.address());
}

TEST_F(NodeNetworkTest, ChunkedModelPublishes) {
    start_all();
    const auto& key = nodes_[0]->key();
    // Publish announcement + three chunks with consecutive nonces.
    std::uint64_t nonce = 0;
    std::vector<Bytes> chunks{Bytes(500, 0x11), Bytes(500, 0x22),
                              Bytes(321, 0x33)};
    nodes_[0]->submit_tx(chain::Transaction::make_signed(
        key, nonce++, vm::registry_address(), 5'000'000, 1,
        abi::publish_calldata(1, crypto::keccak256(str_bytes("full")),
                              chunks.size(), 1321)));
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        nodes_[0]->submit_tx(chain::Transaction::make_signed(
            key, nonce++, vm::registry_address(), 5'000'000, 1,
            abi::chunk_calldata(1, i, chunks[i])));
    }
    run_until(net::seconds(200));

    // A different node reconstructs the chunks from calldata.
    const auto& observer = *nodes_[2];
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        const auto digest_result = observer.call_view(
            abi::chunk_digest_calldata(1, key.address(), i));
        ASSERT_TRUE(digest_result.success);
        EXPECT_EQ(Hash32::from(digest_result.return_data),
                  crypto::keccak256(chunks[i]));
    }
}

TEST_F(NodeNetworkTest, ComputeLoadSlowsMining) {
    // Single miner (others off) to isolate the effect.
    nodes_[1]->set_compute_load(0.0);
    NodeConfig solo_config;
    solo_config.chain.initial_difficulty = 600;
    solo_config.chain.min_difficulty = 600;
    solo_config.chain.fixed_difficulty = true;

    // Run two isolated single-node simulations: idle vs loaded miner.
    const auto run_blocks = [&](double load) {
        net::SimTransport transport(net::LinkParams{}, 9);
        NodeConfig config = solo_config;
        config.key_seed = 77;
        config.hash_rate = 300.0;
        Node node(transport, config);
        node.set_compute_load(load);
        node.start();
        transport.sim().run_until(net::seconds(600));
        return node.chain().height();
    };
    const auto idle_height = run_blocks(0.0);
    const auto busy_height = run_blocks(0.9);
    EXPECT_GT(idle_height, busy_height * 3);
}

TEST(NodeSingle, ViewCallAtGenesis) {
    net::SimTransport transport(net::LinkParams{});
    NodeConfig config;
    config.key_seed = 5;
    config.mine = false;
    Node node(transport, config);
    const auto result = node.call_view(abi::participant_count_calldata(1));
    ASSERT_TRUE(result.success) << result.error;
    EXPECT_EQ(abi::decode_word(result.return_data), 0u);
}

TEST(NodePartition, ForksReconvergeThroughAncestorSyncAfterHeal) {
    // A three-miner network splits {0,1} | {2} for 100 simulated seconds.
    // The isolated miner extends a private fork; after the heal the next
    // gossiped head references an unknown parent, the ancestor-sync
    // protocol (get_block) walks back to the fork point, and everyone
    // reorgs onto the heaviest chain.
    net::NetworkConditions conditions;
    conditions.partitions.push_back(
        {net::seconds(20), net::seconds(120), {{0, 1}, {2}}});
    net::SimTransport transport(net::LinkParams{}, conditions, /*seed=*/3);
    chain::ChainConfig chain_config;
    chain_config.initial_difficulty = 600;
    chain_config.min_difficulty = 64;
    chain_config.target_interval_ms = 3000;
    std::vector<std::unique_ptr<Node>> nodes;
    for (std::uint64_t i = 0; i < 3; ++i) {
        NodeConfig config;
        config.chain = chain_config;
        config.key_seed = 100 + i;
        config.hash_rate = 200.0;
        config.rng_seed = 1000 + i;
        nodes.push_back(std::make_unique<Node>(transport, config));
    }
    for (auto& node : nodes) node->start();

    transport.sim().run_until(net::seconds(110));
    // Mid-partition: the island disagrees with the majority side.
    EXPECT_NE(nodes[0]->chain().head_hash(), nodes[2]->chain().head_hash());
    EXPECT_GT(transport.stats().dropped_partition, 0u);

    transport.sim().run_until(net::seconds(300));
    EXPECT_EQ(nodes[0]->chain().head_hash(), nodes[1]->chain().head_hash());
    EXPECT_EQ(nodes[1]->chain().head_hash(), nodes[2]->chain().head_hash());
    // Reconvergence used the sync protocol, and somebody reorged.
    std::uint64_t requested = 0;
    std::uint64_t served = 0;
    std::uint64_t reorgs = 0;
    for (const auto& node : nodes) {
        requested += node->stats().blocks_requested;
        served += node->stats().block_requests_served;
        reorgs += node->stats().reorgs;
    }
    EXPECT_GT(requested, 0u);
    EXPECT_GT(served, 0u);
    EXPECT_GT(reorgs, 0u);
}

TEST(NodeGossip, SeenSetIsBoundedByGenerationalRotation) {
    // Regression: the gossip-dedup set used to keep one 32-byte hash per
    // tx and block forever (the leak class PR 3 removed from TxPool).
    // With a small cap, a long run must rotate generations, keep the
    // footprint under 2x the cap, and still converge on one head.
    net::SimTransport transport(net::LinkParams{}, /*seed=*/9);
    chain::ChainConfig chain_config;
    chain_config.initial_difficulty = 200;
    chain_config.min_difficulty = 64;
    chain_config.fixed_difficulty = true;
    std::vector<std::unique_ptr<Node>> nodes;
    for (std::uint64_t i = 0; i < 2; ++i) {
        NodeConfig config;
        config.chain = chain_config;
        config.key_seed = 300 + i;
        config.hash_rate = 200.0;
        config.rng_seed = 2000 + i;
        config.gossip_seen_cap = 64;
        nodes.push_back(std::make_unique<Node>(transport, config));
    }
    for (auto& node : nodes) node->start();
    transport.sim().run_until(net::seconds(400));  // ~1 block/s: well past the cap

    ASSERT_GT(nodes[0]->chain().height(), 128u);
    EXPECT_EQ(nodes[0]->chain().head_hash(), nodes[1]->chain().head_hash());
    std::uint64_t evictions = 0;
    for (const auto& node : nodes) {
        EXPECT_LE(node->gossip_seen_size(), 2u * 64u) << "node " << node->id();
        evictions += node->stats().seen_evictions;
    }
    EXPECT_GT(evictions, 0u);
}

// ------------------------------------------------------ Hash work counters

/// Books the crypto work of every delivery and timer to the node it runs
/// on. The sim runs all nodes on one thread, so the thread_local counters
/// alone cannot tell them apart; this decorator snapshots them around each
/// handler instead.
class WorkByNode final : public net::Transport {
public:
    explicit WorkByNode(net::Transport& inner) : inner_(inner) {}

    /// Runs `work` and books its hashing to `node`.
    template <typename Work>
    void book(net::NodeId node, Work&& work) {
        const crypto::WorkCounters before = crypto::work_counters();
        work();
        work_[node] += crypto::work_counters() - before;
    }

    [[nodiscard]] const crypto::WorkCounters& work(net::NodeId node) const {
        return work_[node];
    }

    net::NodeId add_node(Receiver receiver) override {
        const auto id = static_cast<net::NodeId>(work_.size());
        work_.emplace_back();
        const net::NodeId inner_id = inner_.add_node(
            [this, id, receiver = std::move(receiver)](net::NodeId from,
                                                       const Bytes& message) {
                book(id, [&] { receiver(from, message); });
            });
        EXPECT_EQ(inner_id, id);
        return id;
    }
    [[nodiscard]] std::size_t node_count() const override {
        return inner_.node_count();
    }
    void send(net::NodeId from, net::NodeId to, Bytes message) override {
        inner_.send(from, to, std::move(message));
    }
    void broadcast(net::NodeId from, const Bytes& message) override {
        inner_.broadcast(from, message);
    }
    [[nodiscard]] net::SimTime now() const override { return inner_.now(); }
    void schedule_after(net::NodeId node, net::SimTime delay,
                        Handler handler) override {
        inner_.schedule_after(
            node, delay, [this, node, handler = std::move(handler)] {
                book(node, handler);
            });
    }
    [[nodiscard]] bool online(net::NodeId node) const override {
        return inner_.online(node);
    }
    [[nodiscard]] net::TrafficStats stats() const override {
        return inner_.stats();
    }
    void run(const std::function<bool()>& done,
             net::SimTime deadline) override {
        inner_.run(done, deadline);
    }

private:
    net::Transport& inner_;
    std::vector<crypto::WorkCounters> work_;
};

/// One 128 KiB storeChunk tx, followed from submission at node 0 of a
/// `roster`-node full mesh through gossip (every node also receives the
/// relayed copies of a tx it already holds), mining at node 1 and import
/// at every node, with each node's hashing counted exactly. Difficulty 1
/// makes the first nonce seal, so PoW grinding adds one header-sized
/// keccak per block.
struct ChunkTxRun {
    chain::Transaction tx;
    std::size_t wire_bytes = 0;
    /// One Schnorr verification hashes R, the public key and the payload.
    std::uint64_t verify_bytes = 0;
    std::vector<crypto::WorkCounters> work;  // per node
};

ChunkTxRun run_chunk_tx(std::uint64_t roster) {
    net::SimTransport sim(net::LinkParams{}, /*seed=*/5);
    WorkByNode transport(sim);
    chain::ChainConfig chain_config;
    chain_config.initial_difficulty = 1;
    chain_config.fixed_difficulty = true;
    std::vector<std::unique_ptr<Node>> nodes;
    for (std::uint64_t i = 0; i < roster; ++i) {
        NodeConfig config;
        config.chain = chain_config;
        config.key_seed = 400 + i;
        config.mine = i == 1;
        config.hash_rate = 0.1;  // a block every ~10 s
        config.rng_seed = 4000 + i;
        nodes.push_back(std::make_unique<Node>(transport, config));
    }
    Bytes calldata = abi::chunk_calldata(1, 0, Bytes(128 * 1024, 0x5a));
    const std::uint64_t gas_limit = 21'000 + 16 * calldata.size() + 300'000;
    ChunkTxRun run;
    run.tx = chain::Transaction::make_signed(
        nodes[0]->key(), 0, vm::registry_address(), gas_limit, 1,
        std::move(calldata));
    run.wire_bytes = run.tx.encode().size();
    run.verify_bytes = 4 * 32 + run.tx.signing_payload().size();

    transport.book(0, [&] { nodes[0]->submit_tx(run.tx); });
    sim.sim().run_until(net::seconds(2));
    for (const auto& node : nodes) EXPECT_EQ(node->pool().size(), 1u);
    nodes[1]->start();
    transport.run(
        [&] {
            return std::all_of(nodes.begin(), nodes.end(), [](const auto& n) {
                return n->chain().height() >= 1;
            });
        },
        net::seconds(600));

    for (const auto& node : nodes) {
        EXPECT_EQ(node->chain().height(), 1u) << "node " << node->id();
        const auto loc = node->chain().locate_tx(run.tx.hash());
        EXPECT_TRUE(loc.has_value()) << "node " << node->id();
        EXPECT_EQ(loc ? loc->block_number : 0u, 1u);
        EXPECT_EQ(node->pool().size(), 0u);
        EXPECT_EQ(node->stats().blocks_rejected, 0u);
    }
    for (net::NodeId i = 0; i < roster; ++i) {
        run.work.push_back(transport.work(i));
    }
    return run;
}

TEST(NodeHashWork, ChunkTxIsHashedTwiceAndVerifiedOncePerNode) {
    const ChunkTxRun run = run_chunk_tx(3);
    const std::uint64_t verify_bytes = run.verify_bytes;

    // SHA-256: one signature verification per node, on pool admission.
    // Block import finds the tx's id in the pool and skips the check. (The
    // import used to verify again: 2 * verify_bytes = 262606 per node.)
    //
    // Keccak, per node, in units of the tx's full encoding
    // (wire_bytes = 131339): one, when the node first meets the tx — at
    // submission (node 0) or on its first gossip copy (nodes 1 and 2).
    // Every later copy, the miner's tx root and every block import take
    // the pooled tx's id (TxPool::id_of compares fields; nothing is
    // hashed). On top, every node's EVM hashes the 131072-byte chunk once
    // (storeChunk's SHA3), and header, merkle, address and state hashes
    // add 1403 bytes (2041 at the miner).
    //   node  full hashes  keccak bytes  calls
    //   0     1            263814        12
    //   1     1            264452        17
    //   2     1            263814        12
    // Before, each node also hashed every gossip copy (duplicates
    // included) and the block's tx encodings on import, and the miner
    // hashed them again for the tx root it sealed:
    //   0     4            657831        15
    //   1     4            658469        20
    //   2     3            526492        14
    // and before that the node rehashed the encoding on gossip receive,
    // pool add and remove, the executor key and chain indexing
    // (8 / 9 / 7 full hashes; 1183187 / 1315164 / 1051848 bytes).
    ASSERT_EQ(run.wire_bytes, 131339u);
    const crypto::WorkCounters want[3] = {
        {12, 263814, verify_bytes},
        {17, 264452, verify_bytes},
        {12, 263814, verify_bytes},
    };
    for (net::NodeId i = 0; i < 3; ++i) {
        const crypto::WorkCounters& got = run.work[i];
        EXPECT_EQ(got.keccak_calls, want[i].keccak_calls) << "node " << i;
        EXPECT_EQ(got.keccak_bytes, want[i].keccak_bytes) << "node " << i;
        EXPECT_EQ(got.sha256_bytes, want[i].sha256_bytes) << "node " << i;
    }
}

TEST(NodeHashWork, ChunkEncodingIsHashedOncePerNodeWhateverTheRoster) {
    // A full mesh of n nodes delivers n-1 copies of the tx and of the
    // block to every node; none of them may add a full-encoding hash.
    // Besides the one encoding hash and the EVM's SHA3 over the chunk, a
    // node's keccak work is header, merkle, address and state hashing,
    // which together stay well under one encoding.
    constexpr std::uint64_t kChunkBytes = 128 * 1024;
    for (const std::uint64_t roster : {3u, 6u}) {
        const ChunkTxRun run = run_chunk_tx(roster);
        ASSERT_EQ(run.work.size(), roster);
        for (net::NodeId i = 0; i < roster; ++i) {
            const crypto::WorkCounters& got = run.work[i];
            ASSERT_GE(got.keccak_bytes, kChunkBytes);
            EXPECT_EQ((got.keccak_bytes - kChunkBytes) / run.wire_bytes, 1u)
                << "roster " << roster << ", node " << i << ": "
                << got.keccak_bytes << " keccak bytes";
            EXPECT_EQ(got.sha256_bytes, run.verify_bytes)
                << "roster " << roster << ", node " << i;
        }
    }
}

TEST(NodeSingle, NonMinerNeverExtendsChain) {
    net::SimTransport transport(net::LinkParams{});
    NodeConfig config;
    config.key_seed = 6;
    config.mine = false;
    Node node(transport, config);
    node.start();
    transport.sim().run_until(net::seconds(60));
    EXPECT_EQ(node.chain().height(), 0u);
}

}  // namespace
}  // namespace bcfl::node
