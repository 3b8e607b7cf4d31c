#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/work_counters.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace bcfl::crypto {

namespace {

constexpr std::uint32_t kInit[8] = {
    0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
    0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u,
};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu,
    0x59f111f1u, 0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u,
    0x243185beu, 0x550c7dc3u, 0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u,
    0xc19bf174u, 0xe49b69c1u, 0xefbe4786u, 0x0fc19dc6u, 0x240ca1ccu,
    0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau, 0x983e5152u,
    0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu,
    0x53380d13u, 0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u,
    0xa2bfe8a1u, 0xa81a664bu, 0xc24b8b70u, 0xc76c51a3u, 0xd192e819u,
    0xd6990624u, 0xf40e3585u, 0x106aa070u, 0x19a4c116u, 0x1e376c08u,
    0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au, 0x5b9cca4fu,
    0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u,
};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
    return (x >> n) | (x << (32 - n));
}

void process_block(std::uint32_t state[8], const std::uint8_t* block) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
        w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
               (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
               (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
               static_cast<std::uint32_t>(block[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
        const std::uint32_t s0 =
            rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
        const std::uint32_t s1 =
            rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
        const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        const std::uint32_t ch = (e & f) ^ (~e & g);
        const std::uint32_t temp1 = h + s1 + ch + kRound[i] + w[i];
        const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        const std::uint32_t temp2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + temp1;
        d = c;
        c = b;
        b = a;
        a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
}

void compress_portable(std::uint32_t state[8], const std::uint8_t* blocks,
                       std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) process_block(state, blocks + 64 * i);
}

#if defined(__x86_64__)
// SHA-NI: each sha256rnds2 runs two rounds on the state split as ABEF and
// CDGH; sha256msg1/msg2 extend the message schedule four words at a time.
// The helpers carry the kernel's target too: without it they could neither
// use the intrinsics nor be inlined into it.

// Four rounds on schedule words w (W[4k..4k+3]).
__attribute__((target("sha,sse4.1"))) inline void sha_rounds4(
    __m128i& abef, __m128i& cdgh, __m128i w, std::size_t k) {
    const __m128i wk = _mm_add_epi32(
        w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRound + 4 * k)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
}

// W[4k..4k+3] from the four previous groups w0 (oldest) .. w3.
__attribute__((target("sha,sse4.1"))) inline __m128i sha_schedule(
    __m128i w0, __m128i w1, __m128i w2, __m128i w3) {
    const __m128i x = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                                    _mm_alignr_epi8(w3, w2, 4));
    return _mm_sha256msg2_epu32(x, w3);
}

__attribute__((target("sha,sse4.1"))) void compress_sha_ni(
    std::uint32_t state[8], const std::uint8_t* blocks, std::size_t count) {
    const __m128i byte_swap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
    const __m128i dcba = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xb1);
    const __m128i efgh = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1b);
    __m128i abef = _mm_alignr_epi8(dcba, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, dcba, 0xf0);

    for (std::size_t i = 0; i < count; ++i, blocks += 64) {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;
        const auto* in = reinterpret_cast<const __m128i*>(blocks);
        __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(in), byte_swap);
        __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), byte_swap);
        __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), byte_swap);
        __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), byte_swap);
        sha_rounds4(abef, cdgh, w0, 0);
        sha_rounds4(abef, cdgh, w1, 1);
        sha_rounds4(abef, cdgh, w2, 2);
        sha_rounds4(abef, cdgh, w3, 3);
        for (std::size_t k = 4; k < 16; k += 4) {
            w0 = sha_schedule(w0, w1, w2, w3);
            sha_rounds4(abef, cdgh, w0, k);
            w1 = sha_schedule(w1, w2, w3, w0);
            sha_rounds4(abef, cdgh, w1, k + 1);
            w2 = sha_schedule(w2, w3, w0, w1);
            sha_rounds4(abef, cdgh, w2, k + 2);
            w3 = sha_schedule(w3, w0, w1, w2);
            sha_rounds4(abef, cdgh, w3, k + 3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
    const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                     _mm_blend_epi16(feba, dchg, 0xf0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                     _mm_alignr_epi8(dchg, feba, 8));
}
#endif

constexpr Sha256Kernel kKernels[] = {
    {"portable", nullptr, compress_portable},
#if defined(__x86_64__)
    {"sha-ni", "sha", compress_sha_ni},
#endif
};

}  // namespace

std::span<const Sha256Kernel> sha256_kernels() { return kKernels; }

const Sha256Kernel& sha256_kernel() {
    static const Sha256Kernel& chosen = fastest_runnable(sha256_kernels());
    return chosen;
}

void Sha256::reset() {
    std::memcpy(state_, kInit, sizeof(state_));
    buffered_ = 0;
    total_bits_ = 0;
}

void Sha256::update(BytesView data) {
    total_bits_ += static_cast<std::uint64_t>(data.size()) * 8;
    std::size_t offset = 0;
    if (buffered_ > 0) {
        const std::size_t take =
            std::min<std::size_t>(64 - buffered_, data.size());
        std::memcpy(buffer_ + buffered_, data.data(), take);
        buffered_ += take;
        offset += take;
        if (buffered_ == 64) {
            compress_(state_, buffer_, 1);
            buffered_ = 0;
        }
    }
    const std::size_t blocks = (data.size() - offset) / 64;
    if (blocks > 0) {
        compress_(state_, data.data() + offset, blocks);
        offset += 64 * blocks;
    }
    if (offset < data.size()) {
        std::memcpy(buffer_, data.data() + offset, data.size() - offset);
        buffered_ = data.size() - offset;
    }
}

Hash32 Sha256::finalize() {
    const std::uint64_t bits = total_bits_;
    detail::t_work_counters.sha256_bytes += bits / 8;
    // 0x80, zeros up to byte 56 of a block, then the 64-bit length.
    buffer_[buffered_++] = 0x80;
    if (buffered_ > 56) {
        std::memset(buffer_ + buffered_, 0, 64 - buffered_);
        compress_(state_, buffer_, 1);
        buffered_ = 0;
    }
    std::memset(buffer_ + buffered_, 0, 56 - buffered_);
    for (int i = 0; i < 8; ++i) {
        buffer_[56 + i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
    }
    compress_(state_, buffer_, 1);

    Hash32 out;
    for (int i = 0; i < 8; ++i) {
        out.data[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
        out.data[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
        out.data[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
        out.data[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
    }
    reset();
    return out;
}

Hash32 sha256(BytesView data) {
    Sha256 hasher;
    hasher.update(data);
    return hasher.finalize();
}

}  // namespace bcfl::crypto
