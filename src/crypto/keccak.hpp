// Keccak-256 (the pre-NIST-padding variant used by Ethereum).
//
// Transaction hashes, block hashes, addresses, contract storage keys and the
// MiniEVM SHA3 opcode all go through this function, matching the role
// keccak256 plays in the paper's private-Ethereum deployment.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/bytes.hpp"
#include "crypto/hash_kernels.hpp"
#include "crypto/u256.hpp"

namespace bcfl::crypto {

/// One-shot Keccak-256 (Ethereum-style 0x01 domain padding).
[[nodiscard]] Hash32 keccak256(BytesView data);

/// keccak256 over the concatenation of two buffers (avoids a copy at call
/// sites that hash `prefix || payload`).
[[nodiscard]] Hash32 keccak256(BytesView a, BytesView b);

/// The proof-of-work search: the first nonce n of first, first+1, ...,
/// first+count-1 (mod 2^64) for which keccak256(prefix || be64(n)), read as
/// a big-endian integer, is <= bound; nullopt when none is. The work
/// counters tally one keccak call of 40 bytes per nonce tried, up to and
/// including the returned one, whatever the tier.
using NonceSearch = std::optional<std::uint64_t>(const Hash32& prefix,
                                                 std::uint64_t first,
                                                 std::uint64_t count,
                                                 const U256& bound);
using NonceSearchKernel = HashKernel<NonceSearch>;

/// Every compiled search tier, portable first. The vector tiers hash
/// several consecutive nonces per permutation and check them in order, so
/// each returns exactly what the portable loop returns.
[[nodiscard]] std::span<const NonceSearchKernel> keccak_nonce_search_kernels();
/// The fastest tier this CPU runs.
[[nodiscard]] const NonceSearchKernel& keccak_nonce_search_kernel();

/// The search on the fastest tier.
[[nodiscard]] std::optional<std::uint64_t> keccak256_nonce_search(
    const Hash32& prefix, std::uint64_t first, std::uint64_t count,
    const U256& bound);

}  // namespace bcfl::crypto
