#include "crypto/keccak.hpp"

#include <algorithm>
#include <cstring>
#include <optional>

#include "crypto/work_counters.hpp"

namespace bcfl::crypto {

namespace {

constexpr int kRounds = 24;
constexpr std::size_t kRate = 136;  // 1088-bit rate for Keccak-256.

constexpr std::uint64_t kRoundConstants[kRounds] = {
    0x0000000000000001ull, 0x0000000000008082ull, 0x800000000000808aull,
    0x8000000080008000ull, 0x000000000000808bull, 0x0000000080000001ull,
    0x8000000080008081ull, 0x8000000000008009ull, 0x000000000000008aull,
    0x0000000000000088ull, 0x0000000080008009ull, 0x000000008000000aull,
    0x000000008000808bull, 0x800000000000008bull, 0x8000000000008089ull,
    0x8000000000008003ull, 0x8000000000008002ull, 0x8000000000000080ull,
    0x000000000000800aull, 0x800000008000000aull, 0x8000000080008081ull,
    0x8000000000008080ull, 0x0000000080000001ull, 0x8000000080008008ull,
};

// Rotation by a constant 1..63 (lane 0's rotation by 0 is left out).
#define BCFL_ROTL(x, n) (((x) << (n)) | ((x) >> (64 - (n))))

// One Keccak-f[1600] round from `in` to `out`, over a lane type:
// std::uint64_t hashes one state, a GCC/clang vector of uint64 hashes one
// independent state per element. The body uses only operators and takes
// lanes by pointer, so a vector instantiation inlined into a
// target("avx2") caller compiles for that ISA and no vector crosses a call
// boundary. Each output row is finished (rho, pi, chi) before the next is
// started, which keeps few lanes live at once.
template <class Lane>
[[gnu::always_inline]] inline void keccak_round(const Lane* in, Lane* out,
                                                std::uint64_t round_constant) {
    // Theta.
    const Lane c0 = in[0] ^ in[5] ^ in[10] ^ in[15] ^ in[20];
    const Lane c1 = in[1] ^ in[6] ^ in[11] ^ in[16] ^ in[21];
    const Lane c2 = in[2] ^ in[7] ^ in[12] ^ in[17] ^ in[22];
    const Lane c3 = in[3] ^ in[8] ^ in[13] ^ in[18] ^ in[23];
    const Lane c4 = in[4] ^ in[9] ^ in[14] ^ in[19] ^ in[24];
    const Lane d0 = c4 ^ BCFL_ROTL(c1, 1);
    const Lane d1 = c0 ^ BCFL_ROTL(c2, 1);
    const Lane d2 = c1 ^ BCFL_ROTL(c3, 1);
    const Lane d3 = c2 ^ BCFL_ROTL(c4, 1);
    const Lane d4 = c3 ^ BCFL_ROTL(c0, 1);
    // Rho and pi move lane (x, y) to (y, 2x + 3y), rotated; chi mixes
    // each output row.
    {
        const Lane b0 = in[0] ^ d0;
        const Lane b1 = BCFL_ROTL(in[6] ^ d1, 44);
        const Lane b2 = BCFL_ROTL(in[12] ^ d2, 43);
        const Lane b3 = BCFL_ROTL(in[18] ^ d3, 21);
        const Lane b4 = BCFL_ROTL(in[24] ^ d4, 14);
        out[0] = b0 ^ (~b1 & b2);
        out[1] = b1 ^ (~b2 & b3);
        out[2] = b2 ^ (~b3 & b4);
        out[3] = b3 ^ (~b4 & b0);
        out[4] = b4 ^ (~b0 & b1);
    }
    {
        const Lane b0 = BCFL_ROTL(in[3] ^ d3, 28);
        const Lane b1 = BCFL_ROTL(in[9] ^ d4, 20);
        const Lane b2 = BCFL_ROTL(in[10] ^ d0, 3);
        const Lane b3 = BCFL_ROTL(in[16] ^ d1, 45);
        const Lane b4 = BCFL_ROTL(in[22] ^ d2, 61);
        out[5] = b0 ^ (~b1 & b2);
        out[6] = b1 ^ (~b2 & b3);
        out[7] = b2 ^ (~b3 & b4);
        out[8] = b3 ^ (~b4 & b0);
        out[9] = b4 ^ (~b0 & b1);
    }
    {
        const Lane b0 = BCFL_ROTL(in[1] ^ d1, 1);
        const Lane b1 = BCFL_ROTL(in[7] ^ d2, 6);
        const Lane b2 = BCFL_ROTL(in[13] ^ d3, 25);
        const Lane b3 = BCFL_ROTL(in[19] ^ d4, 8);
        const Lane b4 = BCFL_ROTL(in[20] ^ d0, 18);
        out[10] = b0 ^ (~b1 & b2);
        out[11] = b1 ^ (~b2 & b3);
        out[12] = b2 ^ (~b3 & b4);
        out[13] = b3 ^ (~b4 & b0);
        out[14] = b4 ^ (~b0 & b1);
    }
    {
        const Lane b0 = BCFL_ROTL(in[4] ^ d4, 27);
        const Lane b1 = BCFL_ROTL(in[5] ^ d0, 36);
        const Lane b2 = BCFL_ROTL(in[11] ^ d1, 10);
        const Lane b3 = BCFL_ROTL(in[17] ^ d2, 15);
        const Lane b4 = BCFL_ROTL(in[23] ^ d3, 56);
        out[15] = b0 ^ (~b1 & b2);
        out[16] = b1 ^ (~b2 & b3);
        out[17] = b2 ^ (~b3 & b4);
        out[18] = b3 ^ (~b4 & b0);
        out[19] = b4 ^ (~b0 & b1);
    }
    {
        const Lane b0 = BCFL_ROTL(in[2] ^ d2, 62);
        const Lane b1 = BCFL_ROTL(in[8] ^ d3, 55);
        const Lane b2 = BCFL_ROTL(in[14] ^ d4, 39);
        const Lane b3 = BCFL_ROTL(in[15] ^ d0, 41);
        const Lane b4 = BCFL_ROTL(in[21] ^ d1, 2);
        out[20] = b0 ^ (~b1 & b2);
        out[21] = b1 ^ (~b2 & b3);
        out[22] = b2 ^ (~b3 & b4);
        out[23] = b3 ^ (~b4 & b0);
        out[24] = b4 ^ (~b0 & b1);
    }
    // Iota.
    out[0] ^= round_constant;
}

#undef BCFL_ROTL

template <class Lane>
[[gnu::always_inline]] inline void keccak_f1600(Lane state[25]) {
    Lane other[25];
    for (int round = 0; round < kRounds; round += 2) {
        keccak_round(state, other, kRoundConstants[round]);
        keccak_round(other, state, kRoundConstants[round + 1]);
    }
}

void keccak_f1600(std::uint64_t state[25]) { keccak_f1600<std::uint64_t>(state); }

void absorb_all(std::uint64_t state[25], BytesView a, BytesView b) {
    std::uint8_t block[kRate];
    std::size_t filled = 0;
    auto absorb = [&](BytesView data) {
        std::size_t offset = 0;
        while (offset < data.size()) {
            const std::size_t take =
                std::min(kRate - filled, data.size() - offset);
            std::memcpy(block + filled, data.data() + offset, take);
            filled += take;
            offset += take;
            if (filled == kRate) {
                for (std::size_t i = 0; i < kRate / 8; ++i) {
                    std::uint64_t lane = 0;
                    std::memcpy(&lane, block + i * 8, 8);
                    state[i] ^= lane;  // little-endian host assumed (x86/arm).
                }
                keccak_f1600(state);
                filled = 0;
            }
        }
    };
    absorb(a);
    absorb(b);
    // Padding: Keccak (0x01 ... 0x80).
    std::memset(block + filled, 0, kRate - filled);
    block[filled] ^= 0x01;
    block[kRate - 1] ^= 0x80;
    for (std::size_t i = 0; i < kRate / 8; ++i) {
        std::uint64_t lane = 0;
        std::memcpy(&lane, block + i * 8, 8);
        state[i] ^= lane;
    }
    keccak_f1600(state);
}

}  // namespace

Hash32 keccak256(BytesView a, BytesView b) {
    WorkCounters& counters = detail::t_work_counters;
    ++counters.keccak_calls;
    counters.keccak_bytes += a.size() + b.size();
    std::uint64_t state[25] = {};
    absorb_all(state, a, b);
    Hash32 out;
    std::memcpy(out.data.data(), state, 32);
    return out;
}

Hash32 keccak256(BytesView data) { return keccak256(data, BytesView{}); }

namespace {

constexpr std::size_t kNonceMessage = 32 + 8;  // prefix || be64(nonce)

std::optional<std::uint64_t> search_portable(const Hash32& prefix,
                                             std::uint64_t first,
                                             std::uint64_t count,
                                             const U256& bound) {
    std::uint8_t message[kNonceMessage];
    std::memcpy(message, prefix.data.data(), 32);
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t nonce = first + i;
        for (int b = 0; b < 8; ++b) {
            message[32 + b] = static_cast<std::uint8_t>(nonce >> (56 - 8 * b));
        }
        if (U256::from_hash(keccak256(BytesView{message, kNonceMessage})) <=
            bound) {
            return nonce;
        }
    }
    return std::nullopt;
}

#if defined(__x86_64__)
using U64x4 = std::uint64_t __attribute__((vector_size(32)));

// Hashes four consecutive nonces per permutation, one per vector element,
// and checks them in nonce order. The nonces left over after the last full
// batch go through the portable loop.
[[gnu::always_inline]] inline std::optional<std::uint64_t> search_x4(
    const Hash32& prefix, std::uint64_t first, std::uint64_t count,
    const U256& bound) {
    constexpr std::uint64_t kWidth = 4;
    // The 40-byte message fills lanes 0..4 of the 136-byte rate block:
    // lane 4 holds the big-endian nonce, read little-endian. Keccak's
    // 0x01 pad byte starts lane 5 and its 0x80 ends lane 16.
    std::uint64_t head[4];
    std::memcpy(head, prefix.data.data(), 32);
    std::uint64_t done = 0;
    std::optional<std::uint64_t> found;
    for (; count - done >= kWidth && !found; done += kWidth) {
        // `U64x4{} + x` broadcasts x to every element.
        U64x4 a[25] = {};
        for (int i = 0; i < 4; ++i) a[i] = U64x4{} + head[i];
        for (std::uint64_t j = 0; j < kWidth; ++j) {
            a[4][j] = __builtin_bswap64(first + done + j);
        }
        a[5] = U64x4{} + 0x01u;
        a[16] = U64x4{} + (0x80ull << 56);
        keccak_f1600(a);
        for (std::uint64_t j = 0; j < kWidth && !found; ++j) {
            const U256 value{__builtin_bswap64(a[0][j]),
                             __builtin_bswap64(a[1][j]),
                             __builtin_bswap64(a[2][j]),
                             __builtin_bswap64(a[3][j])};
            if (value <= bound) found = first + done + j;
        }
    }
    // Tally the nonces this loop tried, up to the winner, as the portable
    // loop's keccak256 calls would have.
    const std::uint64_t tried = found ? *found - first + 1 : done;
    WorkCounters& counters = detail::t_work_counters;
    counters.keccak_calls += tried;
    counters.keccak_bytes += tried * kNonceMessage;
    if (found) return found;
    return search_portable(prefix, first + done, count - done, bound);
}

__attribute__((target("avx2"))) std::optional<std::uint64_t> search_avx2(
    const Hash32& prefix, std::uint64_t first, std::uint64_t count,
    const U256& bound) {
    return search_x4(prefix, first, count, bound);
}

// AVX-512VL adds 256-bit rotates (vprolq) and three-input logic
// (vpternlogq) to the same 4-lane code.
__attribute__((target("avx2,avx512vl"))) std::optional<std::uint64_t>
search_avx512vl(const Hash32& prefix, std::uint64_t first, std::uint64_t count,
                const U256& bound) {
    return search_x4(prefix, first, count, bound);
}
#endif

constexpr NonceSearchKernel kSearchKernels[] = {
    {"portable", nullptr, search_portable},
#if defined(__x86_64__)
    {"avx2-x4", "avx2", search_avx2},
    {"avx512vl-x4", "avx512vl", search_avx512vl},
#endif
};

}  // namespace

std::span<const NonceSearchKernel> keccak_nonce_search_kernels() {
    return kSearchKernels;
}

const NonceSearchKernel& keccak_nonce_search_kernel() {
    static const NonceSearchKernel& chosen =
        fastest_runnable(keccak_nonce_search_kernels());
    return chosen;
}

std::optional<std::uint64_t> keccak256_nonce_search(const Hash32& prefix,
                                                    std::uint64_t first,
                                                    std::uint64_t count,
                                                    const U256& bound) {
    return keccak_nonce_search_kernel().run(prefix, first, count, bound);
}

}  // namespace bcfl::crypto
