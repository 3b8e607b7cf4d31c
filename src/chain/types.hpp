// Core chain data types: transactions, receipts, logs, block headers and
// blocks — the private-Ethereum substrate of the paper's deployment.
//
// Simplification vs mainnet Ethereum (documented in DESIGN.md): the sender's
// public key travels inside the transaction instead of being recovered from
// an ECDSA signature. The sender address is still keccak256(pubkey)[12..],
// and signatures still bind the sender to the payload, which is all the
// paper's non-repudiation argument needs.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/secp256k1.hpp"

namespace bcfl::chain {

/// An EVM-style log entry emitted by contract execution.
struct LogEntry {
    Address address;             // emitting contract
    std::vector<Hash32> topics;  // indexed fields
    Bytes data;                  // unindexed payload

    [[nodiscard]] bool operator==(const LogEntry&) const = default;
};

struct Transaction {
    std::uint64_t nonce = 0;
    Address to;  // zero address = contract creation
    std::uint64_t gas_limit = 0;
    std::uint64_t gas_price = 1;
    Bytes data;

    crypto::Point sender_pub;
    crypto::Signature signature;

    /// Sender address derived from the embedded public key. The keccak of
    /// the pubkey is cached on first use: sender() sits on the per-tx hot
    /// path of validation, block building, mempool selection and chain
    /// indexing. The cache relies on `sender_pub` being set only at
    /// construction (make_signed / decode) and never mutated afterwards.
    [[nodiscard]] Address sender() const {
        if (!sender_cache_) sender_cache_ = crypto::to_address(sender_pub);
        return *sender_cache_;
    }

    /// RLP encoding of the fields covered by the signature.
    [[nodiscard]] Bytes signing_payload() const;
    /// Full wire encoding (payload + pubkey + signature).
    [[nodiscard]] Bytes encode() const;
    /// Accepts only canonical bytes: encode() of the result reproduces
    /// `wire` exactly, so keccak256(wire) is the decoded tx's id and the
    /// received bytes can be relayed as they are (fuzz/fuzz_tx.cpp).
    static Transaction decode(BytesView wire);

    /// keccak256 of the full encoding — the transaction id. It commits to
    /// the payload, the public key and the signature, so two txs with one
    /// id verify alike. Hot paths hash once and carry the id instead of
    /// calling this again.
    [[nodiscard]] Hash32 hash() const;

    [[nodiscard]] bool verify_signature() const;

    /// Builds and signs a transaction in one step.
    static Transaction make_signed(const crypto::KeyPair& key,
                                   std::uint64_t nonce, const Address& to,
                                   std::uint64_t gas_limit,
                                   std::uint64_t gas_price, Bytes data);

private:
    mutable std::optional<Address> sender_cache_;
};

/// Execution outcome of one transaction.
struct Receipt {
    bool success = false;
    std::uint64_t gas_used = 0;
    std::vector<LogEntry> logs;
    Bytes return_data;

    [[nodiscard]] Bytes encode() const;
    [[nodiscard]] Hash32 hash() const;
};

struct BlockHeader {
    std::uint64_t number = 0;
    Hash32 parent_hash;
    Hash32 tx_root;
    Hash32 state_root;
    Hash32 receipts_root;
    Address miner;
    std::uint64_t difficulty = 1;
    std::uint64_t timestamp_ms = 0;
    std::uint64_t gas_limit = 0;
    std::uint64_t gas_used = 0;
    std::uint64_t pow_nonce = 0;

    /// Hash of the sealed header (identity of the block).
    [[nodiscard]] Hash32 hash() const;
    /// PoW pre-image: header without the nonce.
    [[nodiscard]] Hash32 seal_hash() const;

    [[nodiscard]] Bytes encode() const;
    static BlockHeader decode(BytesView wire);
};

struct Block {
    BlockHeader header;
    std::vector<Transaction> transactions;

    [[nodiscard]] Hash32 hash() const { return header.hash(); }
    /// Merkle root over transaction hashes.
    [[nodiscard]] Hash32 compute_tx_root() const;

    [[nodiscard]] Bytes encode() const;
    /// Canonical like Transaction::decode: encode() reproduces `wire`.
    static Block decode(BytesView wire);
    /// The hash of an encoded block, read off its header bytes without
    /// decoding the tx list. Equals decode(wire).hash() whenever that
    /// decode succeeds (decoding is canonical), so a node can drop a
    /// duplicate before paying for the decode. Throws DecodeError when
    /// `wire` does not open with a header string.
    static Hash32 hash_encoded(BytesView wire);
};

/// Merkle root over receipt hashes.
[[nodiscard]] Hash32 receipts_root(const std::vector<Receipt>& receipts);

}  // namespace bcfl::chain
