#include "chain/pow.hpp"

#include <algorithm>
#include <limits>

#include "crypto/keccak.hpp"

namespace bcfl::chain {

crypto::U256 pow_target(std::uint64_t difficulty) {
    if (difficulty <= 1) return crypto::bit_not(crypto::U256{});
    // floor(2^256 / d) computed as floor((2^256 - 1) / d); the difference is
    // at most 1 and irrelevant for target comparison at our difficulties.
    const crypto::U256 max = crypto::bit_not(crypto::U256{});
    return crypto::divmod(max, crypto::U256{difficulty}).quotient;
}

bool check_pow(const BlockHeader& header) {
    return crypto::keccak256_nonce_search(header.seal_hash(), header.pow_nonce,
                                          1, pow_target(header.difficulty))
        .has_value();
}

std::optional<std::uint64_t> mine_seal(const BlockHeader& header,
                                       std::uint64_t start_nonce,
                                       std::uint64_t max_attempts) {
    const Hash32 seal = header.seal_hash();
    const crypto::U256 target = pow_target(header.difficulty);
    // Stop at the end of the nonce space instead of letting start_nonce + i
    // wrap back to 0 and silently retry nonces already checked. The nonces
    // still available are start_nonce..UINT64_MAX, i.e. UINT64_MAX -
    // start_nonce + 1 of them (which only fits in uint64 when
    // start_nonce > 0 — at start_nonce == 0 the whole space exceeds any
    // possible max_attempts anyway).
    std::uint64_t attempts = max_attempts;
    if (start_nonce > 0) {
        const std::uint64_t remaining =
            std::numeric_limits<std::uint64_t>::max() - start_nonce + 1;
        attempts = std::min(attempts, remaining);
    }
    return crypto::keccak256_nonce_search(seal, start_nonce, attempts, target);
}

std::uint64_t next_difficulty(std::uint64_t parent_difficulty,
                              std::uint64_t parent_interval_ms,
                              std::uint64_t target_interval_ms,
                              std::uint64_t min_difficulty) {
    const std::uint64_t step = parent_difficulty / 16 + 1;
    std::uint64_t next = parent_difficulty;
    if (parent_interval_ms < target_interval_ms) {
        next = parent_difficulty + step;
    } else if (parent_interval_ms > target_interval_ms) {
        next = parent_difficulty > step ? parent_difficulty - step : 1;
    }
    return next < min_difficulty ? min_difficulty : next;
}

}  // namespace bcfl::chain
