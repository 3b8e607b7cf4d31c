// Deterministic work counters for the hash primitives.
//
// Every keccak256 call and every byte fed to SHA-256 (the Schnorr nonce
// and challenge hashes) bumps a per-thread tally. The counts depend only
// on the inputs, never on the host or the clock, so tests can pin them
// exactly: "each node hashes a chunk payload twice" is a checkable claim,
// not a profile reading. The tallies are thread_local plain integers, so
// counting costs no atomics and threads never contend; a reader sees only
// the work done on its own thread (the sim runs every node on one).
#pragma once

#include <cstdint>

namespace bcfl::crypto {

struct WorkCounters {
    std::uint64_t keccak_calls = 0;
    std::uint64_t keccak_bytes = 0;  // bytes absorbed across all calls
    std::uint64_t sha256_bytes = 0;  // message bytes of finalized digests

    [[nodiscard]] WorkCounters operator-(const WorkCounters& since) const {
        return {keccak_calls - since.keccak_calls,
                keccak_bytes - since.keccak_bytes,
                sha256_bytes - since.sha256_bytes};
    }
    WorkCounters& operator+=(const WorkCounters& more) {
        keccak_calls += more.keccak_calls;
        keccak_bytes += more.keccak_bytes;
        sha256_bytes += more.sha256_bytes;
        return *this;
    }
    [[nodiscard]] bool operator==(const WorkCounters&) const = default;
};

namespace detail {
inline thread_local WorkCounters t_work_counters;
}  // namespace detail

/// This thread's running totals. Take two snapshots and subtract them to
/// count the work of the code in between.
[[nodiscard]] inline WorkCounters work_counters() {
    return detail::t_work_counters;
}

}  // namespace bcfl::crypto
