// Block store with validation, canonical-chain tracking and fork choice by
// total difficulty — the consensus core of each simulated Geth peer.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "chain/gas.hpp"
#include "chain/pow.hpp"
#include "chain/txpool.hpp"
#include "chain/types.hpp"

namespace bcfl::chain {

struct ChainConfig {
    std::uint64_t initial_difficulty = 1000;
    std::uint64_t min_difficulty = 16;
    /// Disables retargeting entirely (difficulty sweeps, microbenches).
    bool fixed_difficulty = false;
    std::uint64_t target_interval_ms = 5'000;
    std::uint64_t block_gas_limit = 1'000'000'000;  // paper: "no constraints"
    std::uint64_t genesis_timestamp_ms = 0;
    /// Canonical blocks deeper than this below the head drop their
    /// account-nonce snapshot (0 = keep all). Bounds snapshot memory to
    /// the recent window; forking the pruned deep past still validates —
    /// it just pays a one-off branch walk to rebuild the nonce view.
    std::uint64_t nonce_snapshot_horizon = 1024;
    GasSchedule gas;
};

/// A creation transaction whose bytecode failed static analysis. The block
/// still imports deterministically — the tx gets a failure receipt and
/// burns its gas — but nothing is installed, and the typed diagnostic is
/// surfaced here for logs and tests. Not part of any consensus encoding.
struct InstallRejection {
    std::size_t tx_index = 0;
    std::string diagnostic;  // stable analyzer name, e.g. "stack-underflow"
    std::size_t offset = 0;  // byte offset into the rejected code
    std::string message;     // full human-readable diagnostic
};

/// Outcome of executing a block's transactions on top of its parent state.
struct ExecutionResult {
    Hash32 state_root;
    std::vector<Receipt> receipts;
    std::uint64_t gas_used = 0;
    std::vector<InstallRejection> rejected_installs;
};

/// Supplied by the node layer (which owns contract state). Must be
/// deterministic: importing the same block on the same parent twice yields
/// identical roots.
class BlockExecutor {
public:
    virtual ~BlockExecutor() = default;
    virtual ExecutionResult execute(const BlockHeader& parent,
                                    const Block& block) = 0;
};

/// Executor for chain-level tests: no state, empty receipts.
class NullExecutor final : public BlockExecutor {
public:
    ExecutionResult execute(const BlockHeader&, const Block& block) override {
        ExecutionResult result;
        result.receipts.resize(block.transactions.size());
        return result;
    }
};

enum class ImportStatus {
    added_head,   // extended or became the canonical head
    added_side,   // valid but on a side branch
    duplicate,    // already known
    orphan,       // parent unknown (caller may retry after fetching parent)
    rejected,     // validation failed
};

struct ImportResult {
    ImportStatus status = ImportStatus::rejected;
    std::string reason;
    bool reorged = false;
    /// Transactions that fell out of the canonical chain in a reorg and are
    /// not part of the new branch (candidates for mempool re-injection).
    std::vector<Transaction> abandoned_txs;
    /// Their ids, index for index (TxPool::reinject takes both).
    std::vector<Hash32> abandoned_tx_ids;
};

/// Where a transaction landed on the canonical chain.
struct TxLocation {
    Hash32 block_hash;
    std::uint64_t block_number = 0;
    std::size_t index = 0;
};

class Blockchain {
public:
    Blockchain(ChainConfig config, std::shared_ptr<BlockExecutor> executor);

    /// Validates and stores a block; applies fork choice. Every check runs,
    /// every tx signature included.
    ImportResult import_block(const Block& block);

    /// The same import, but a tx whose id `verified` holds skips its
    /// signature check; every other check (PoW, tx root, intrinsic gas,
    /// nonces, gas budget, execution roots) still runs. Sound because the
    /// pool admits only verified txs (see TxPool::add), the id is the
    /// keccak256 of the tx's full encoding — payload, public key and
    /// signature — and validation recomputes that id from the block's own
    /// tx bytes. So a block tx that matches a pooled id is byte for byte
    /// a tx already verified, and a forgery sharing a pooled tx's sender
    /// and nonce has another id and is verified in full. The pool also
    /// supplies the ids themselves: a block tx whose every encoded field
    /// equals a pending tx's (TxPool::id_of) takes that tx's id instead of
    /// a keccak256 of its encoding, and any other tx is hashed. Nothing is
    /// cached on the mutable Transaction itself, so a tampered copy can
    /// never inherit a verdict; a tx with `sender_pub.infinity` set, a flag
    /// the id does not cover, is always verified.
    /// The outcome is the same as import_block(block) (tests/chain_test's
    /// differential tests); only the work differs.
    ImportResult import_block(const Block& block, const TxPool& verified);

    /// Assembles an unsealed block on top of the current head (fills roots by
    /// executing `txs`). The caller seals it (PoW) and re-imports it.
    [[nodiscard]] Block build_block(const Address& miner,
                                    std::vector<Transaction> txs,
                                    std::uint64_t timestamp_ms) const;
    /// The same block, with the tx root over ids taken from `pool`
    /// (TxPool::id_of) where it holds the tx: a miner building from its
    /// own pool hashes no tx encoding here.
    [[nodiscard]] Block build_block(const Address& miner,
                                    std::vector<Transaction> txs,
                                    std::uint64_t timestamp_ms,
                                    const TxPool& pool) const;

    [[nodiscard]] const BlockHeader& head() const;
    [[nodiscard]] Hash32 head_hash() const { return head_hash_; }
    [[nodiscard]] std::uint64_t height() const { return head().number; }
    [[nodiscard]] const ChainConfig& config() const { return config_; }

    [[nodiscard]] const Block* block_by_hash(const Hash32& hash) const;
    [[nodiscard]] const Block* block_by_number(std::uint64_t number) const;
    [[nodiscard]] const std::vector<Receipt>* receipts_for(
        const Hash32& block_hash) const;
    [[nodiscard]] std::optional<TxLocation> locate_tx(const Hash32& tx_hash) const;
    /// Ids of a stored block's transactions, in block order (hashed once,
    /// during validation).
    [[nodiscard]] const std::vector<Hash32>* tx_ids_for(
        const Hash32& block_hash) const;

    /// Next expected nonce per sender along the canonical chain.
    [[nodiscard]] const std::unordered_map<Address, std::uint64_t,
                                           FixedBytesHasher>&
    account_nonces() const {
        return nonces_;
    }

    /// Expected difficulty for a child of `parent` (retarget rule).
    [[nodiscard]] std::uint64_t child_difficulty(const BlockHeader& parent,
                                                 std::uint64_t timestamp_ms) const;

    [[nodiscard]] std::size_t total_blocks() const { return records_.size(); }

    /// Records still holding an account-nonce snapshot. Bounded by the
    /// horizon plus the side-branch population (canonical blocks below the
    /// horizon are pruned; side blocks keep theirs) — the soak runner
    /// asserts this stays flat in chain length.
    [[nodiscard]] std::size_t nonce_snapshots_held() const {
        std::size_t held = 0;
        for (const auto& [hash, record] : records_) {
            held += record.nonces != nullptr ? 1 : 0;
        }
        return held;
    }

    [[nodiscard]] const Block& genesis() const;

private:
    /// Fork-aware account-nonce index: the next expected nonce per sender
    /// *after* a given block, for that block's branch. Copy-on-write: each
    /// non-empty block adds one delta layer holding only the senders it
    /// touched and shares everything below via `base`, so side branches
    /// reuse their common prefix structurally. Layers are flattened into a
    /// single map every kNonceFlattenDepth blocks, which keeps lookups
    /// O(1) amortized while import stays O(txs in block) — never O(height).
    struct NonceSnapshot {
        std::shared_ptr<const NonceSnapshot> base;
        std::unordered_map<Address, std::uint64_t, FixedBytesHasher> delta;
        std::size_t depth = 0;  // delta layers above the flattened base

        [[nodiscard]] std::uint64_t next_for(const Address& account) const;
    };
    static constexpr std::size_t kNonceFlattenDepth = 32;

    struct Record {
        Block block;
        std::vector<Receipt> receipts;
        // Total difficulty of the branch ending in this block.
        crypto::U256 total_difficulty;
        // Per-branch account nonces after this block; null once the block
        // sinks below ChainConfig::nonce_snapshot_horizon (see
        // snapshot_for for the rebuild fallback).
        std::shared_ptr<const NonceSnapshot> nonces;
        // Each tx's id, in block order: the index and reorg code reads
        // these instead of rehashing full tx encodings.
        std::vector<Hash32> tx_ids;
    };

    ImportResult import_impl(const Block& block, const TxPool* verified);
    [[nodiscard]] Block build_impl(const Address& miner,
                                   std::vector<Transaction> txs,
                                   std::uint64_t timestamp_ms,
                                   const TxPool* pool) const;

    /// Fills `tx_ids` (each tx hashed at most once, for the tx root) as
    /// soon as the header checks pass. On success, `touched` holds the next
    /// expected nonce per sender appearing in the block — exactly the
    /// delta layer of its snapshot. `verified` may be null (verify all).
    [[nodiscard]] std::string validate(
        const Block& block, const Record& parent,
        const NonceSnapshot& parent_nonces, const TxPool* verified,
        std::vector<Hash32>& tx_ids,
        std::unordered_map<Address, std::uint64_t, FixedBytesHasher>& touched)
        const;
    void set_head(const Hash32& new_head, ImportResult& result);
    static void flatten(NonceSnapshot& snapshot);
    /// The record's snapshot; if pruned, rebuilt by walking to the
    /// nearest snapshot-bearing ancestor and memoized back (rare: only a
    /// fork of the deep past pays the walk, and only once per record).
    [[nodiscard]] std::shared_ptr<const NonceSnapshot> snapshot_for(
        Record& record);
    /// Drops the snapshot of the canonical block that just sank below the
    /// horizon (one O(1) lookup per head advance).
    void prune_snapshots();

    ChainConfig config_;
    std::shared_ptr<BlockExecutor> executor_;
    std::unordered_map<Hash32, Record, FixedBytesHasher> records_;
    std::unordered_map<std::uint64_t, Hash32> canonical_;  // number -> hash
    std::unordered_map<Hash32, TxLocation, FixedBytesHasher> tx_index_;
    std::unordered_map<Address, std::uint64_t, FixedBytesHasher> nonces_;
    Hash32 head_hash_;
    Hash32 genesis_hash_;
    // Canonical numbers below this have had their snapshots pruned.
    std::uint64_t pruned_below_ = 1;
};

}  // namespace bcfl::chain
