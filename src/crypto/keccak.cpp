#include "crypto/keccak.hpp"

#include <algorithm>
#include <cstring>

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

constexpr int kRotation[25] = {0,  1,  62, 28, 27, 36, 44, 6,  55, 20, 3,  10, 43,
                               25, 39, 41, 45, 15, 21, 8,  18, 2,  61, 56, 14};

constexpr std::uint64_t rotl64(std::uint64_t x, int n) {
    return n == 0 ? x : (x << n) | (x >> (64 - n));
}

void keccak_f1600(std::uint64_t state[25]) {
    for (int round = 0; round < kRounds; ++round) {
        // Theta.
        std::uint64_t c[5];
        for (int x = 0; x < 5; ++x) {
            c[x] = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^
                   state[x + 20];
        }
        for (int x = 0; x < 5; ++x) {
            const std::uint64_t d = c[(x + 4) % 5] ^ rotl64(c[(x + 1) % 5], 1);
            for (int y = 0; y < 25; y += 5) state[x + y] ^= d;
        }
        // Rho + Pi.
        std::uint64_t b[25];
        for (int x = 0; x < 5; ++x) {
            for (int y = 0; y < 5; ++y) {
                b[y + 5 * ((2 * x + 3 * y) % 5)] =
                    rotl64(state[x + 5 * y], kRotation[x + 5 * y]);
            }
        }
        // Chi.
        for (int x = 0; x < 5; ++x) {
            for (int y = 0; y < 25; y += 5) {
                state[x + y] =
                    b[x + y] ^ (~b[(x + 1) % 5 + y] & b[(x + 2) % 5 + y]);
            }
        }
        // Iota.
        state[0] ^= kRoundConstants[round];
    }
}

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

}  // namespace bcfl::crypto
