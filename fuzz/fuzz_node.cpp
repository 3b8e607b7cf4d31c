// Fuzz target: node::Node's message handler — the path every gossiped tx,
// block and block request takes from the network into the pool and chain.
//
// The input is a sequence of frames, each a 2-byte big-endian length and
// then that many bytes of `[kind][body]`, exactly what one peer's Node
// sends another (a short last frame takes what is left). The frames go,
// in order, from a raw peer to one non-mining Node over SimTransport. The
// chain runs at difficulty 1, so any nonce seals and a block whose roots
// are right imports; the seen-set cap is tiny, so duplicates also arrive
// after their ids were forgotten.
//
// Contracts under test:
//   * no exception escapes the node: malformed frames are dropped;
//   * every pooled tx sits under its own id, keccak256(tx.encode()), and
//     the pool's content index has one entry per pooled tx. A node takes
//     a tx's id from the pool when the fields match (TxPool::id_of) and
//     from the received bytes otherwise, so a decoder that accepted two
//     encodings of one tx, or an id_of that matched a near miss, would
//     pool a tx under a foreign id.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <vector>

#include "chain/types.hpp"
#include "common/error.hpp"
#include "crypto/keccak.hpp"
#include "net/sim_transport.hpp"
#include "node/node.hpp"

namespace {

using bcfl::Bytes;
using bcfl::BytesView;

std::vector<BytesView> split_frames(BytesView input) {
    std::vector<BytesView> frames;
    std::size_t pos = 0;
    while (pos + 2 <= input.size()) {
        const std::size_t length =
            (std::size_t{input[pos]} << 8) | input[pos + 1];
        pos += 2;
        const std::size_t take = std::min(length, input.size() - pos);
        frames.push_back(input.subspan(pos, take));
        pos += take;
    }
    return frames;
}

/// Every tx the frames carry, in tx frames or in block frames: the only
/// txs that can reach the pool, by gossip or by reorg re-injection.
void collect_txs(BytesView frame, std::vector<bcfl::chain::Transaction>& txs) {
    if (frame.empty()) return;
    const BytesView body = frame.subspan(1);
    try {
        if (frame[0] == 1) {
            txs.push_back(bcfl::chain::Transaction::decode(body));
        } else if (frame[0] == 2) {
            const bcfl::chain::Block block = bcfl::chain::Block::decode(body);
            txs.insert(txs.end(), block.transactions.begin(),
                       block.transactions.end());
        }
    } catch (const bcfl::Error&) {
        // Not decodable: the node drops it too.
    }
}

void check_pool(const bcfl::chain::TxPool& pool,
                const std::vector<bcfl::chain::Transaction>& txs) {
    if (pool.content_index_size() != pool.size()) {
        std::fprintf(stderr, "pool: %zu content-index entries for %zu txs\n",
                     pool.content_index_size(), pool.size());
        std::abort();
    }
    std::vector<bcfl::Hash32> pooled;
    for (const bcfl::chain::Transaction& tx : txs) {
        const auto id = pool.id_of(tx);
        if (!id) continue;
        if (*id != bcfl::crypto::keccak256(tx.encode())) {
            std::fprintf(stderr, "pool: a tx sits under a foreign id\n");
            std::abort();
        }
        if (std::find(pooled.begin(), pooled.end(), *id) == pooled.end()) {
            pooled.push_back(*id);
        }
    }
    if (pooled.size() != pool.size()) {
        std::fprintf(stderr, "pool: %zu txs, %zu of them from the input\n",
                     pool.size(), pooled.size());
        std::abort();
    }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
    const std::vector<BytesView> frames = split_frames(BytesView{data, size});
    try {
        bcfl::net::SimTransport transport(bcfl::net::LinkParams{}, 1);
        bcfl::node::NodeConfig config;
        config.chain.initial_difficulty = 1;
        config.chain.fixed_difficulty = true;
        config.mine = false;
        config.gossip_seen_cap = 4;
        bcfl::node::Node node(transport, config);
        const bcfl::net::NodeId peer =
            transport.add_node([](bcfl::net::NodeId, const Bytes&) {});
        std::vector<bcfl::chain::Transaction> txs;
        for (const BytesView frame : frames) {
            transport.send(peer, node.id(), Bytes(frame.begin(), frame.end()));
            collect_txs(frame, txs);
        }
        transport.sim().run();
        check_pool(node.pool(), txs);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "node: exception escaped: %s\n", error.what());
        std::abort();
    }
    return 0;
}
