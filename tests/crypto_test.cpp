#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/keccak.hpp"
#include "crypto/merkle.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/sha256.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
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
