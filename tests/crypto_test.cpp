#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/keccak.hpp"
#include "crypto/merkle.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/sha256.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "crypto/hash_kernels.hpp"
#include "crypto/u256.hpp"
#include "crypto/work_counters.hpp"

namespace bcfl::crypto {
namespace {

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, KnownVectors) {
    EXPECT_EQ(sha256(BytesView{}).hex(),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(sha256(str_bytes("abc")).hex(),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(
        sha256(str_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
            .hex(),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
    Sha256 hasher;
    const Bytes chunk(1000, static_cast<std::uint8_t>('a'));
    for (int i = 0; i < 1000; ++i) hasher.update(chunk);
    EXPECT_EQ(hasher.finalize().hex(),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
    const Bytes msg = str_bytes("the quick brown fox jumps over the lazy dog");
    for (std::size_t split = 0; split <= msg.size(); ++split) {
        Sha256 hasher;
        hasher.update(BytesView(msg).subspan(0, split));
        hasher.update(BytesView(msg).subspan(split));
        EXPECT_EQ(hasher.finalize(), sha256(msg)) << "split=" << split;
    }
}

// The SHA-256 implementation before the kernels were split out, kept
// verbatim as the reference every compression tier is compared against.
namespace legacy_sha {

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

class LegacySha256 {
public:
    LegacySha256() { reset(); }

    void reset();
    void update(BytesView data);
    [[nodiscard]] Hash32 finalize();

private:
    void process_block(const std::uint8_t* block);

    std::uint32_t state_[8]{};
    std::uint8_t buffer_[64]{};
    std::size_t buffered_ = 0;
    std::uint64_t total_bits_ = 0;
};

void LegacySha256::reset() {
    std::memcpy(state_, kInit, sizeof(state_));
    buffered_ = 0;
    total_bits_ = 0;
}

void LegacySha256::process_block(const std::uint8_t* block) {
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

    std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
    std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];

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

    state_[0] += a;
    state_[1] += b;
    state_[2] += c;
    state_[3] += d;
    state_[4] += e;
    state_[5] += f;
    state_[6] += g;
    state_[7] += h;
}

void LegacySha256::update(BytesView data) {
    total_bits_ += static_cast<std::uint64_t>(data.size()) * 8;
    std::size_t offset = 0;
    if (buffered_ > 0) {
        const std::size_t take =
            std::min<std::size_t>(64 - buffered_, data.size());
        std::memcpy(buffer_ + buffered_, data.data(), take);
        buffered_ += take;
        offset += take;
        if (buffered_ == 64) {
            process_block(buffer_);
            buffered_ = 0;
        }
    }
    while (offset + 64 <= data.size()) {
        process_block(data.data() + offset);
        offset += 64;
    }
    if (offset < data.size()) {
        std::memcpy(buffer_, data.data() + offset, data.size() - offset);
        buffered_ = data.size() - offset;
    }
}

Hash32 LegacySha256::finalize() {
    const std::uint64_t bits = total_bits_;
    detail::t_work_counters.sha256_bytes += bits / 8;
    const std::uint8_t pad = 0x80;
    update(BytesView{&pad, 1});
    const std::uint8_t zero = 0x00;
    while (buffered_ != 56) update(BytesView{&zero, 1});
    std::uint8_t len[8];
    for (int i = 0; i < 8; ++i) {
        len[i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
    }
    // The length bytes must not count toward the message length; adjust after.
    update(BytesView{len, 8});

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

}  // namespace legacy_sha

// Feeds `msg` to `hasher` in random-sized pieces, zero-length ones included.
template <class Hasher>
void update_in_pieces(Hasher& hasher, BytesView msg, Rng& rng) {
    std::size_t offset = 0;
    while (offset < msg.size()) {
        const std::size_t take = rng.next_below(msg.size() - offset + 1);
        hasher.update(msg.subspan(offset, take));
        offset += take;
    }
    hasher.update(msg.subspan(offset));
}

std::string tier_test_name(const char* name) {
    std::string out = name;
    std::replace(out.begin(), out.end(), '-', '_');
    return out;
}

// Each compiled compression tier; one the CPU lacks is skipped by name.
class Sha256Tier : public ::testing::TestWithParam<Sha256Kernel> {
protected:
    void SetUp() override {
        if (!GetParam().runnable()) {
            GTEST_SKIP() << "CPU lacks " << GetParam().cpu_feature
                         << ", so tier " << GetParam().name << " cannot run";
        }
    }

    [[nodiscard]] Hash32 digest(BytesView data) const {
        Sha256 hasher(GetParam());
        hasher.update(data);
        return hasher.finalize();
    }
};

TEST_P(Sha256Tier, NistVectors) {
    EXPECT_EQ(digest(BytesView{}).hex(),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(digest(str_bytes("abc")).hex(),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(
        digest(str_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
            .hex(),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    Sha256 hasher(GetParam());
    const Bytes chunk(1000, static_cast<std::uint8_t>('a'));
    for (int i = 0; i < 1000; ++i) hasher.update(chunk);
    EXPECT_EQ(hasher.finalize().hex(),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256Tier, MatchesLegacyOnRandomSplitMessages) {
    Rng rng(0x5a256);
    std::vector<Bytes> messages;
    for (std::size_t n = 0; n <= 300; ++n) {
        Bytes msg(n);
        for (auto& byte : msg) byte = static_cast<std::uint8_t>(rng.next_u64());
        messages.push_back(std::move(msg));
    }
    Bytes chunk(48 * 1024);  // a model-chunk-sized payload
    for (auto& byte : chunk) byte = static_cast<std::uint8_t>(rng.next_u64());
    for (int i = 0; i < 8; ++i) messages.push_back(chunk);

    Sha256 hasher(GetParam());  // reused: finalize must reset it
    for (const Bytes& msg : messages) {
        legacy_sha::LegacySha256 reference;
        update_in_pieces(reference, msg, rng);
        update_in_pieces(hasher, msg, rng);
        const WorkCounters before = work_counters();
        const Hash32 got = hasher.finalize();
        EXPECT_EQ((work_counters() - before).sha256_bytes, msg.size());
        ASSERT_EQ(got, reference.finalize()) << "length " << msg.size();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, Sha256Tier,
    ::testing::ValuesIn(sha256_kernels().begin(), sha256_kernels().end()),
    [](const ::testing::TestParamInfo<Sha256Kernel>& info) {
        return tier_test_name(info.param.name);
    });

TEST(Sha256, PortableTierIsCompiledAndDispatchPicksARunnableTier) {
    ASSERT_FALSE(sha256_kernels().empty());
    EXPECT_EQ(sha256_kernels().front().cpu_feature, nullptr);
    EXPECT_TRUE(sha256_kernel().runnable());
    EXPECT_NE(hash_kernels().find(std::string("sha256=") + sha256_kernel().name),
              std::string::npos);
}

// -------------------------------------------------------------- Keccak-256

TEST(Keccak, KnownVectors) {
    // Ethereum's keccak256("") and keccak256("abc").
    EXPECT_EQ(keccak256(BytesView{}).hex(),
              "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
    EXPECT_EQ(keccak256(str_bytes("abc")).hex(),
              "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
    EXPECT_EQ(keccak256(str_bytes("The quick brown fox jumps over the lazy dog"))
                  .hex(),
              "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15");
}

TEST(Keccak, TwoPartMatchesConcatenation) {
    const Bytes a = str_bytes("hello ");
    const Bytes b = str_bytes("world");
    Bytes joined = a;
    append(joined, b);
    EXPECT_EQ(keccak256(a, b), keccak256(joined));
}

TEST(Keccak, LongInputCrossesRateBoundary) {
    // 136 bytes is exactly one rate block; check lengths around it.
    for (std::size_t n : {135u, 136u, 137u, 272u, 300u}) {
        const Bytes data(n, 0x5a);
        const Hash32 once = keccak256(data);
        const Hash32 split = keccak256(BytesView(data).subspan(0, n / 2),
                                       BytesView(data).subspan(n / 2));
        EXPECT_EQ(once, split) << n;
    }
}

// The textbook Keccak-f[1600] loop the row-wise permutation replaced,
// kept verbatim (minus the work-counter tally) as the reference.
namespace legacy_keccak {

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

Hash32 legacy_keccak256(BytesView a, BytesView b) {
    std::uint64_t state[25] = {};
    absorb_all(state, a, b);
    Hash32 out;
    std::memcpy(out.data.data(), state, 32);
    return out;
}


}  // namespace legacy_keccak

TEST(Keccak, RowWisePermutationMatchesLegacy) {
    Rng rng(0x6b);
    for (std::size_t n = 0; n <= 600; n += 1 + n / 50) {
        Bytes data(n);
        for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.next_u64());
        const std::size_t cut = rng.next_below(n + 1);
        const BytesView a = BytesView(data).subspan(0, cut);
        const BytesView b = BytesView(data).subspan(cut);
        ASSERT_EQ(keccak256(a, b), legacy_keccak::legacy_keccak256(a, b)) << n;
    }
    const Bytes chunk(50 * 1024, 0xc3);
    EXPECT_EQ(keccak256(chunk),
              legacy_keccak::legacy_keccak256(chunk, BytesView{}));
}

// ----------------------------------------------------------- Work counters

TEST(WorkCounters, CountKeccakCallsAndBytesAndShaMessageBytes) {
    const WorkCounters before = work_counters();
    (void)keccak256(Bytes(200, 1));
    (void)keccak256(Bytes(10, 2), Bytes(30, 3));
    Sha256 hasher;
    hasher.update(Bytes(70, 4));
    hasher.update(Bytes(5, 5));
    (void)hasher.finalize();  // padding is not counted as message bytes
    const WorkCounters spent = work_counters() - before;
    EXPECT_EQ(spent.keccak_calls, 2u);
    EXPECT_EQ(spent.keccak_bytes, 240u);
    EXPECT_EQ(spent.sha256_bytes, 75u);
}

// ------------------------------------------------------------------- U256

TEST(U256, BytesRoundTrip) {
    const U256 v{0x0102030405060708ull, 0x1112131415161718ull,
                 0x2122232425262728ull, 0x3132333435363738ull};
    EXPECT_EQ(U256::from_be_bytes(v.to_hash().view()), v);
    EXPECT_EQ(v.hex(),
              "0x0102030405060708111213141516171821222324252627283132333435363738");
}

TEST(U256, AddSubWrap) {
    const U256 max = bit_not(U256{});
    EXPECT_EQ(add(max, U256{1}), U256{});
    EXPECT_EQ(sub(U256{}, U256{1}), max);
    EXPECT_EQ(add(U256{3}, U256{4}), U256{7});
    EXPECT_EQ(sub(U256{7}, U256{4}), U256{3});
}

TEST(U256, MulBasics) {
    EXPECT_EQ(mul(U256{0xffffffffffffffffull}, U256{2}),
              U256(0, 0, 1, 0xfffffffffffffffeull));
    EXPECT_EQ(mul(U256{0}, U256{123}), U256{});
}

TEST(U256, DivMod) {
    const auto [q, r] = divmod(U256{100}, U256{7});
    EXPECT_EQ(q, U256{14});
    EXPECT_EQ(r, U256{2});
    // Division by zero yields zero (EVM convention).
    const auto z = divmod(U256{5}, U256{});
    EXPECT_EQ(z.quotient, U256{});
    EXPECT_EQ(z.remainder, U256{});
}

TEST(U256, DivModWide) {
    // (2^192) / (2^64) == 2^128.
    const U256 a(0, 1, 0, 0);
    const U256 b(0, 0, 1, 0);
    const auto [q, r] = divmod(a, b);
    EXPECT_EQ(q, U256(0, 0, 1, 0));
    EXPECT_TRUE(r.is_zero());
}

TEST(U256, MulDivIdentityProperty) {
    // For many pseudo-random pairs: a == (a/b)*b + a%b.
    std::uint64_t sm = 42;
    for (int i = 0; i < 200; ++i) {
        const U256 a(bcfl::splitmix64(sm), bcfl::splitmix64(sm), bcfl::splitmix64(sm),
                     bcfl::splitmix64(sm));
        const U256 b(0, bcfl::splitmix64(sm) % 3 == 0 ? 0 : bcfl::splitmix64(sm),
                     bcfl::splitmix64(sm), bcfl::splitmix64(sm) | 1);
        const auto [q, r] = divmod(a, b);
        EXPECT_EQ(add(mul(q, b), r), a);
        EXPECT_TRUE(r < b);
    }
}

TEST(U256, Shifts) {
    EXPECT_EQ(shl(U256{1}, 64), U256(0, 0, 1, 0));
    EXPECT_EQ(shr(U256(0, 0, 1, 0), 64), U256{1});
    EXPECT_EQ(shl(U256{1}, 255), U256(0x8000000000000000ull, 0, 0, 0));
    EXPECT_EQ(shl(U256{1}, 256), U256{});
    EXPECT_EQ(shr(U256{123}, 256), U256{});
    // shift by non-multiples of 64
    EXPECT_EQ(shl(U256{0xff}, 4), U256{0xff0});
    EXPECT_EQ(shr(U256{0xff0}, 4), U256{0xff});
}

TEST(U256, ModularOps) {
    const U256 m{101};
    EXPECT_EQ(add_mod(U256{100}, U256{5}, m), U256{4});
    EXPECT_EQ(sub_mod(U256{3}, U256{5}, m), U256{99});
    EXPECT_EQ(mul_mod(U256{50}, U256{51}, m), divmod(U256{2550}, m).remainder);
    // Fermat's little theorem: a^(p-1) == 1 mod p for prime p.
    EXPECT_EQ(pow_mod(U256{7}, U256{100}, m), U256{1});
    EXPECT_EQ(mul_mod(inv_mod_prime(U256{7}, m), U256{7}, m), U256{1});
}

TEST(U256, PowModLargeModulus) {
    const U256& p = field_prime();
    // Fermat on the secp256k1 field prime.
    EXPECT_EQ(pow_mod(U256{2}, sub(p, U256{1}), p), U256{1});
    const U256 x{123456789};
    EXPECT_EQ(mul_mod(inv_mod_prime(x, p), x, p), U256{1});
}

TEST(U256, BitLength) {
    EXPECT_EQ(U256{}.bit_length(), 0);
    EXPECT_EQ(U256{1}.bit_length(), 1);
    EXPECT_EQ(U256{0xff}.bit_length(), 8);
    EXPECT_EQ(U256(0x8000000000000000ull, 0, 0, 0).bit_length(), 256);
}

// -------------------------------------------------------------- secp256k1

TEST(Secp256k1, GeneratorOnCurve) {
    EXPECT_TRUE(on_curve(generator()));
}

TEST(Secp256k1, FieldMulMatchesGeneric) {
    std::uint64_t sm = 7;
    for (int i = 0; i < 100; ++i) {
        const U256 a(bcfl::splitmix64(sm), bcfl::splitmix64(sm), bcfl::splitmix64(sm),
                     bcfl::splitmix64(sm));
        const U256 b(bcfl::splitmix64(sm), bcfl::splitmix64(sm), bcfl::splitmix64(sm),
                     bcfl::splitmix64(sm));
        EXPECT_EQ(fe_mul(a, b), mul_mod(a, b, field_prime()));
    }
}

TEST(Secp256k1, GroupLaws) {
    const Point g = generator();
    const Point g2 = point_double(g);
    const Point g3a = point_add(g2, g);
    const Point g3b = point_add(g, g2);
    EXPECT_TRUE(on_curve(g2));
    EXPECT_EQ(g3a, g3b);  // commutativity
    EXPECT_EQ(scalar_mul(U256{3}, g), g3a);
    // (2+3)G == 2G + 3G
    EXPECT_EQ(scalar_mul(U256{5}, g), point_add(g2, g3a));
}

TEST(Secp256k1, OrderAnnihilatesGenerator) {
    const Point result = scalar_mul(group_order(), generator());
    EXPECT_TRUE(result.infinity);
}

TEST(Secp256k1, KnownMultiple) {
    // 2G has a well-known x coordinate.
    const Point g2 = point_double(generator());
    EXPECT_EQ(g2.x.hex(),
              "0xc6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
    EXPECT_EQ(g2.y.hex(),
              "0x1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");
}

TEST(Schnorr, SignVerifyRoundTrip) {
    const KeyPair kp = KeyPair::from_seed(1);
    const Bytes msg = str_bytes("model update, round 3, client A");
    const Signature sig = kp.sign(msg);
    EXPECT_TRUE(verify(kp.public_key(), msg, sig));
}

TEST(Schnorr, RejectsTamperedMessage) {
    const KeyPair kp = KeyPair::from_seed(2);
    const Bytes msg = str_bytes("honest payload");
    const Signature sig = kp.sign(msg);
    EXPECT_FALSE(verify(kp.public_key(), str_bytes("forged payload"), sig));
}

TEST(Schnorr, RejectsWrongKey) {
    const KeyPair alice = KeyPair::from_seed(3);
    const KeyPair bob = KeyPair::from_seed(4);
    const Bytes msg = str_bytes("msg");
    EXPECT_FALSE(verify(bob.public_key(), msg, alice.sign(msg)));
}

TEST(Schnorr, RejectsTamperedSignature) {
    const KeyPair kp = KeyPair::from_seed(5);
    const Bytes msg = str_bytes("msg");
    Signature sig = kp.sign(msg);
    sig.s = add(sig.s, U256{1});
    EXPECT_FALSE(verify(kp.public_key(), msg, sig));
}

TEST(Schnorr, DeterministicSignature) {
    const KeyPair kp = KeyPair::from_seed(6);
    const Bytes msg = str_bytes("same message");
    EXPECT_EQ(kp.sign(msg), kp.sign(msg));
}

TEST(Schnorr, SerializationRoundTrip) {
    const KeyPair kp = KeyPair::from_seed(7);
    const Signature sig = kp.sign(str_bytes("x"));
    const Bytes wire = sig.serialize();
    EXPECT_EQ(wire.size(), 96u);
    EXPECT_EQ(Signature::deserialize(wire), sig);
}

TEST(Addresses, StableAndDistinct) {
    const Address a1 = KeyPair::from_seed(10).address();
    const Address a2 = KeyPair::from_seed(10).address();
    const Address a3 = KeyPair::from_seed(11).address();
    EXPECT_EQ(a1, a2);
    EXPECT_NE(a1, a3);
    EXPECT_FALSE(a1.is_zero());
}

// ----------------------------------------------------------------- Merkle

TEST(Merkle, SingleLeafRootIsLeafPaired) {
    const Hash32 leaf = keccak256(str_bytes("tx0"));
    EXPECT_EQ(merkle_root({leaf}), leaf);
}

TEST(Merkle, EmptyRootWellDefined) {
    EXPECT_EQ(merkle_root({}), keccak256(BytesView{}));
}

class MerkleSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleSizes, AllProofsVerify) {
    const std::size_t n = GetParam();
    std::vector<Hash32> leaves;
    leaves.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        leaves.push_back(keccak256(be_bytes(i)));
    }
    const Hash32 root = merkle_root(leaves);
    for (std::size_t i = 0; i < n; ++i) {
        const MerkleProof proof = merkle_prove(leaves, i);
        EXPECT_TRUE(merkle_verify(leaves[i], proof, root)) << "leaf " << i;
        // A proof must not verify a different leaf.
        const Hash32 other = keccak256(str_bytes("not-a-leaf"));
        EXPECT_FALSE(merkle_verify(other, proof, root));
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 16, 33));

TEST(Merkle, TamperedRootRejected) {
    std::vector<Hash32> leaves;
    for (std::size_t i = 0; i < 8; ++i) leaves.push_back(keccak256(be_bytes(i)));
    Hash32 root = merkle_root(leaves);
    const MerkleProof proof = merkle_prove(leaves, 3);
    root.data[0] ^= 1;
    EXPECT_FALSE(merkle_verify(leaves[3], proof, root));
}

TEST(Merkle, OutOfRangeProofThrows) {
    std::vector<Hash32> leaves{keccak256(str_bytes("only"))};
    EXPECT_THROW(merkle_prove(leaves, 1), bcfl::Error);
}

}  // namespace
}  // namespace bcfl::crypto
