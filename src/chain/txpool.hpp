// Pending transaction pool (mempool).
//
// Orders candidate transactions by gas price (desc) then arrival order, and
// enforces per-sender nonce sequencing so multi-chunk model publishes (chunk
// txs with consecutive nonces) are mined in order. Selection merges
// per-sender nonce-ordered queues by price in O(n log n), reproducing the
// historical multi-pass scan order exactly (see select()).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "chain/gas.hpp"
#include "chain/types.hpp"

namespace bcfl::chain {

class TxPool {
public:
    explicit TxPool(GasSchedule schedule = {}) : schedule_(schedule) {}

    /// Adds a transaction under its id, which must be tx.hash() (the
    /// keccak256 of its wire encoding — a node takes it over the received
    /// bytes, so the tx is hashed once). Returns false (and ignores it)
    /// when it is already pending, carries an invalid signature, or cannot
    /// pay intrinsic gas. A transaction removed from the pool (mined) may
    /// be re-added later; the node's chain-level nonce tracking keeps an
    /// already-mined tx from being selected again.
    ///
    /// Every pending tx therefore had its signature verified on the way
    /// in: here, or (reinject) inside a block that passed validation.
    /// That is what lets Blockchain::import_block skip the check for a
    /// block tx whose id the pool holds — the id commits to the payload,
    /// the public key and the signature, so the block's copy is the very
    /// tx that was verified.
    bool add(const Transaction& tx, const Hash32& id);
    bool add(const Transaction& tx) { return add(tx, tx.hash()); }

    /// True if the pool currently holds the transaction.
    [[nodiscard]] bool contains(const Hash32& tx_hash) const;

    /// The id of the pending tx whose wire encoding equals `tx`'s, found
    /// without hashing: every encoded field (nonce, to, gas limit and
    /// price, data, public key, signature) must match. Encoding is a
    /// function of those fields and decoding is canonical, so a match has
    /// the very bytes — and therefore the keccak256 — of the pooled tx,
    /// and a node hashes each tx encoding once, when it first sees it.
    /// Expected O(1) plus one compare of the payload: candidates come from
    /// an index on (nonce, signature R.x), fields readable without hashing.
    /// `sender_pub.infinity` is not encoded and is ignored here.
    [[nodiscard]] std::optional<Hash32> id_of(const Transaction& tx) const;

    /// Selects transactions for a block: highest gas price first, respecting
    /// per-sender nonce order and the remaining block gas budget (by
    /// gas_limit). Selected transactions stay in the pool until `remove`.
    [[nodiscard]] std::vector<Transaction> select(
        std::uint64_t block_gas_limit,
        const std::unordered_map<Address, std::uint64_t, FixedBytesHasher>&
            next_nonce_by_sender) const;

    /// Removes transactions by id (e.g. after they were mined). Frees
    /// *all* state held for them — a long-running pool's memory is bounded
    /// by what is currently pending, not by the total transaction history.
    void remove(const std::vector<Hash32>& ids);

    /// Re-injects transactions from abandoned blocks after a reorg without
    /// re-running signature/intrinsic-gas admission (the abandoned block
    /// passed validation). `ids[i]` is txs[i]'s id. Pending duplicates are
    /// skipped via `by_hash_`.
    void reinject(const std::vector<Transaction>& txs,
                  const std::vector<Hash32>& ids);

    /// Drops every pending tx whose nonce is below its sender's next
    /// expected nonce (already satisfied on the canonical chain): such a
    /// tx can never be selected again, so keeping it is a leak. Covers
    /// duplicates of mined txs re-admitted through gossip after the
    /// node's bounded dedup set forgot them, and replaced same-nonce txs
    /// whose sibling was mined. Returns the number dropped.
    std::size_t prune_stale(
        const std::unordered_map<Address, std::uint64_t, FixedBytesHasher>&
            next_nonce_by_sender);

    [[nodiscard]] std::size_t size() const { return by_hash_.size(); }
    [[nodiscard]] bool empty() const { return by_hash_.empty(); }
    /// Entries in the content index behind id_of; always size().
    [[nodiscard]] std::size_t content_index_size() const {
        return by_content_.size();
    }

private:
    using Entry =
        std::unordered_map<Hash32, Transaction, FixedBytesHasher>::iterator;

    /// The id_of index key: nonce and signature R.x, mixed.
    [[nodiscard]] static std::uint64_t content_key(const Transaction& tx);
    /// Adds to by_hash_, order_ and the content index unless pending.
    bool insert(const Transaction& tx, const Hash32& id);
    /// Drops the entry and its content-index slot; returns the next entry.
    Entry erase(Entry entry);
    /// Rebuilds `order_` without dead/duplicate ids once it is mostly
    /// stale, bounding its memory by what is pending.
    void maybe_compact_order();

    GasSchedule schedule_;
    std::unordered_map<Hash32, Transaction, FixedBytesHasher> by_hash_;
    std::vector<Hash32> order_;  // arrival order; may hold removed ids
    // content_key -> id, one entry per pending tx: the pool is the map
    // from bytes to ids, so the index holds ids, never payload copies.
    std::unordered_multimap<std::uint64_t, Hash32> by_content_;
};

}  // namespace bcfl::chain
