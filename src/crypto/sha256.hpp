// FIPS 180-4 SHA-256, implemented from scratch.
//
// Used for deterministic nonce derivation in the Schnorr signer and as a
// second, independent hash in tests (cross-checking the Keccak pipeline).
// Whole 64-byte blocks go through a compression kernel picked once per
// process (crypto/hash_kernels.hpp): SHA-NI where the CPU has it, the
// portable rounds otherwise. Both produce the same digest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/bytes.hpp"
#include "crypto/hash_kernels.hpp"

namespace bcfl::crypto {

/// Compresses `count` consecutive 64-byte blocks into `state`.
using Sha256Compress = void(std::uint32_t state[8], const std::uint8_t* blocks,
                            std::size_t count);
using Sha256Kernel = HashKernel<Sha256Compress>;

/// Every compiled compression tier, portable first.
[[nodiscard]] std::span<const Sha256Kernel> sha256_kernels();
/// The fastest tier this CPU runs; `Sha256` uses it by default.
[[nodiscard]] const Sha256Kernel& sha256_kernel();

/// Incremental SHA-256 hasher.
class Sha256 {
public:
    Sha256() : Sha256(sha256_kernel()) {}
    /// Hashes with the given tier (tests pin each one).
    explicit Sha256(const Sha256Kernel& kernel) : compress_(kernel.run) {
        reset();
    }

    void reset();
    void update(BytesView data);
    [[nodiscard]] Hash32 finalize();

private:
    Sha256Compress* compress_;
    std::uint32_t state_[8]{};
    std::uint8_t buffer_[64]{};
    std::size_t buffered_ = 0;
    std::uint64_t total_bits_ = 0;
};

/// One-shot convenience wrapper.
[[nodiscard]] Hash32 sha256(BytesView data);

}  // namespace bcfl::crypto
