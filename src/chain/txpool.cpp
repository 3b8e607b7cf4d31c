#include "chain/txpool.hpp"

#include <algorithm>
#include <queue>
#include <unordered_set>

namespace bcfl::chain {

bool TxPool::add(const Transaction& tx, const Hash32& id) {
    if (by_hash_.contains(id)) return false;
    if (!tx.verify_signature()) return false;
    if (tx.gas_limit < intrinsic_gas(schedule_, tx)) return false;
    by_hash_.emplace(id, tx);
    order_.push_back(id);
    return true;
}

bool TxPool::contains(const Hash32& tx_hash) const {
    return by_hash_.contains(tx_hash);
}

std::vector<Transaction> TxPool::select(
    std::uint64_t block_gas_limit,
    const std::unordered_map<Address, std::uint64_t, FixedBytesHasher>&
        next_nonce_by_sender) const {
    // Stable candidate list: arrival order, then sort by gas price desc.
    std::vector<const Transaction*> candidates;
    candidates.reserve(order_.size());
    for (const Hash32& id : order_) {
        const auto it = by_hash_.find(id);
        if (it != by_hash_.end()) candidates.push_back(&it->second);
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Transaction* a, const Transaction* b) {
                         return a->gas_price > b->gas_price;
                     });

    // Per-sender nonce-ordered queues merged by gas price. This replaces
    // the historical O(n²) multi-pass scan over the price-sorted list with
    // an O(n log n) event schedule that reproduces its selection order
    // bit-for-bit. The multi-pass loop took a tx at "time" (pass, position
    // in the sorted list); that time is computable directly: a tx becomes
    // eligible when its sender's expected nonce reaches it — in the same
    // pass if it sits *after* the unlocking tx in the list, in the next
    // pass if it sits before — so a min-heap on (pass, position) pops txs
    // in exactly the order the scan took them.
    struct SenderQueue {
        std::uint64_t expected = 0;
        // Candidate positions grouped by nonce, each vector in ascending
        // position (= descending price) order by construction.
        std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_nonce;
    };
    std::unordered_map<Address, SenderQueue, FixedBytesHasher> senders;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const Address from = candidates[i]->sender();
        const auto [it, inserted] = senders.try_emplace(from);
        if (inserted) {
            const auto nonce_it = next_nonce_by_sender.find(from);
            it->second.expected = nonce_it == next_nonce_by_sender.end()
                                      ? 0
                                      : nonce_it->second;
        }
        it->second.by_nonce[candidates[i]->nonce].push_back(i);
    }

    struct Event {
        std::uint64_t pass;
        std::size_t pos;
    };
    const auto later = [](const Event& a, const Event& b) {
        return a.pass != b.pass ? a.pass > b.pass : a.pos > b.pos;
    };
    std::priority_queue<Event, std::vector<Event>, decltype(later)> ready(
        later);
    for (const auto& [from, queue] : senders) {
        const auto it = queue.by_nonce.find(queue.expected);
        if (it == queue.by_nonce.end()) continue;
        for (const std::size_t pos : it->second) ready.push({1, pos});
    }

    std::vector<Transaction> selected;
    std::uint64_t gas_left = block_gas_limit;
    while (!ready.empty()) {
        const Event event = ready.top();
        ready.pop();
        const Transaction& tx = *candidates[event.pos];
        SenderQueue& queue = senders.at(tx.sender());
        // A same-nonce sibling earlier in the schedule may have won.
        if (tx.nonce != queue.expected) continue;
        // gas_left only shrinks, so a tx that does not fit now never will;
        // it simply stays unselected (its successors never unlock).
        if (tx.gas_limit > gas_left) continue;
        selected.push_back(tx);
        gas_left -= tx.gas_limit;
        ++queue.expected;
        const auto next_it = queue.by_nonce.find(queue.expected);
        if (next_it == queue.by_nonce.end()) continue;
        for (const std::size_t pos : next_it->second) {
            ready.push(
                {pos > event.pos ? event.pass : event.pass + 1, pos});
        }
    }
    return selected;
}

void TxPool::remove(const std::vector<Hash32>& ids) {
    // Erasing from by_hash_ drops the pool's entire record of the tx: a
    // long run no longer leaks one hash per transaction ever seen (the old
    // `seen_` dedup set grew forever). Duplicate suppression for *pending*
    // txs needs only by_hash_, and re-adding an already-mined tx is
    // harmless — block building consults the chain's account nonces, which
    // have moved past it.
    for (const Hash32& id : ids) {
        by_hash_.erase(id);
        // Lazy erase from order_: by_hash_ lookups skip stale ids; compact
        // occasionally to bound memory.
    }
    maybe_compact_order();
}

std::size_t TxPool::prune_stale(
    const std::unordered_map<Address, std::uint64_t, FixedBytesHasher>&
        next_nonce_by_sender) {
    if (next_nonce_by_sender.empty() || by_hash_.empty()) return 0;
    std::vector<Hash32> stale;
    for (const auto& [id, tx] : by_hash_) {
        const auto it = next_nonce_by_sender.find(tx.sender());
        if (it != next_nonce_by_sender.end() && tx.nonce < it->second) {
            stale.push_back(id);
        }
    }
    for (const Hash32& id : stale) by_hash_.erase(id);
    maybe_compact_order();
    return stale.size();
}

void TxPool::maybe_compact_order() {
    if (by_hash_.size() * 2 >= order_.size()) return;
    // Keep only the first occurrence of each still-pending id: a
    // remove-then-reinject cycle leaves the old order_ entry "live"
    // again next to the freshly pushed one, and without dedup those
    // duplicates would accumulate across reorg churn.
    std::vector<Hash32> compacted;
    compacted.reserve(by_hash_.size());
    std::unordered_set<Hash32, FixedBytesHasher> emitted;
    for (const Hash32& id : order_) {
        if (by_hash_.contains(id) && emitted.insert(id).second) {
            compacted.push_back(id);
        }
    }
    order_ = std::move(compacted);
}

void TxPool::reinject(const std::vector<Transaction>& txs,
                      const std::vector<Hash32>& ids) {
    for (std::size_t i = 0; i < txs.size(); ++i) {
        // emplace keeps a still-pending tx as-is.
        if (by_hash_.emplace(ids[i], txs[i]).second) order_.push_back(ids[i]);
    }
}

}  // namespace bcfl::chain
