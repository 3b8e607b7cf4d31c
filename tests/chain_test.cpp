#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "chain/blockchain.hpp"
#include "chain/gas.hpp"
#include "chain/pow.hpp"
#include "chain/txpool.hpp"
#include "chain/types.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "crypto/keccak.hpp"
#include "crypto/work_counters.hpp"
#include "rlp/rlp.hpp"

namespace bcfl::chain {
namespace {

using crypto::KeyPair;

Transaction sample_tx(std::uint64_t seed, std::uint64_t nonce,
                      std::uint64_t gas_price = 1) {
    const KeyPair key = KeyPair::from_seed(seed);
    return Transaction::make_signed(key, nonce, Address{}, 100'000, gas_price,
                                    str_bytes("payload"));
}

// ------------------------------------------------------------ Transactions

TEST(Transaction, EncodeDecodeRoundTrip) {
    const Transaction tx = sample_tx(1, 7, 3);
    const Transaction back = Transaction::decode(tx.encode());
    EXPECT_EQ(back.nonce, 7u);
    EXPECT_EQ(back.gas_price, 3u);
    EXPECT_EQ(back.data, str_bytes("payload"));
    EXPECT_EQ(back.hash(), tx.hash());
    EXPECT_TRUE(back.verify_signature());
}

TEST(Transaction, SenderDerivedFromKey) {
    const KeyPair key = KeyPair::from_seed(5);
    const Transaction tx =
        Transaction::make_signed(key, 0, Address{}, 21'000, 1, {});
    EXPECT_EQ(tx.sender(), key.address());
}

TEST(Transaction, TamperedPayloadFailsVerification) {
    Transaction tx = sample_tx(2, 0);
    tx.data = str_bytes("tampered");
    EXPECT_FALSE(tx.verify_signature());
}

TEST(Transaction, TamperedNonceFailsVerification) {
    Transaction tx = sample_tx(3, 0);
    tx.nonce = 99;
    EXPECT_FALSE(tx.verify_signature());
}

TEST(Transaction, DecodeRejectsGarbage) {
    EXPECT_THROW(Transaction::decode(str_bytes("nonsense")), Error);
}

TEST(Transaction, DecodeRejectsListWhereDataBelongs) {
    // Pinned from fuzz/corpus/tx/crash_tx_data_as_list: an empty list in
    // the data slot used to decode as empty data, so two encodings shared
    // one tx (and the received bytes were not its id).
    std::vector<rlp::Item> fields = rlp::decode(sample_tx(1, 0).encode())
                                        .children();
    fields[4] = rlp::Item::list({});
    EXPECT_THROW(Transaction::decode(rlp::encode(rlp::Item::list(fields))),
                 DecodeError);
}

// ----------------------------------------------------------------- Headers

TEST(BlockHeader, RoundTripAndHashStability) {
    BlockHeader h;
    h.number = 42;
    h.difficulty = 1234;
    h.timestamp_ms = 999;
    h.gas_limit = 30'000'000;
    h.gas_used = 21'000;
    h.pow_nonce = 77;
    const BlockHeader back = BlockHeader::decode(h.encode());
    EXPECT_EQ(back.hash(), h.hash());
    EXPECT_EQ(back.number, 42u);
    EXPECT_EQ(back.pow_nonce, 77u);
}

TEST(BlockHeader, SealHashIgnoresNonce) {
    BlockHeader h;
    h.number = 1;
    const Hash32 seal_before = h.seal_hash();
    h.pow_nonce = 123456;
    EXPECT_EQ(h.seal_hash(), seal_before);
    EXPECT_NE(h.hash(), seal_before);
}

TEST(Block, TxRootCommitsToTransactions) {
    Block block;
    block.transactions.push_back(sample_tx(1, 0));
    const Hash32 root_one = block.compute_tx_root();
    block.transactions.push_back(sample_tx(2, 0));
    EXPECT_NE(block.compute_tx_root(), root_one);
}

TEST(Block, EncodeDecodeRoundTrip) {
    Block block;
    block.header.number = 3;
    block.transactions.push_back(sample_tx(1, 0));
    block.transactions.push_back(sample_tx(2, 0));
    block.header.tx_root = block.compute_tx_root();
    const Block back = Block::decode(block.encode());
    EXPECT_EQ(back.hash(), block.hash());
    EXPECT_EQ(back.transactions.size(), 2u);
    EXPECT_EQ(back.transactions[1].hash(), block.transactions[1].hash());
}

TEST(Block, DecodeRejectsStringWhereTxListBelongs) {
    // Pinned from fuzz/corpus/tx/crash_block_txs_as_string: an empty
    // string in the tx-list slot used to decode as "no transactions".
    const Bytes wire = rlp::encode(rlp::Item::list(
        {rlp::Item::string(BlockHeader{}.encode()), rlp::Item::string(Bytes{})}));
    EXPECT_THROW(Block::decode(wire), DecodeError);
}

// -------------------------------------------------------------------- PoW

TEST(Pow, MineAndCheck) {
    BlockHeader h;
    h.number = 1;
    h.difficulty = 64;
    const auto nonce = mine_seal(h, 0, 1'000'000);
    ASSERT_TRUE(nonce.has_value());
    h.pow_nonce = *nonce;
    EXPECT_TRUE(check_pow(h));
    h.pow_nonce ^= 0xdeadbeef;
    // Overwhelmingly likely to fail at difficulty 64.
    EXPECT_FALSE(check_pow(h) && (h.pow_nonce = *nonce, false));
}

TEST(Pow, HigherDifficultyMeansSmallerTarget) {
    EXPECT_GT(pow_target(16), pow_target(64));
    EXPECT_GT(pow_target(64), pow_target(4096));
}

TEST(Pow, DifficultyOneAcceptsAnything) {
    BlockHeader h;
    h.difficulty = 1;
    h.pow_nonce = 12345;
    EXPECT_TRUE(check_pow(h));
}

TEST(Pow, MineSealStopsAtNonceSpaceBoundary) {
    // Regression: start_nonce + i used to wrap past UINT64_MAX and silently
    // re-check nonces from 0 — returning a "fresh" nonce that an earlier
    // call had already rejected. The search must stop at the boundary.
    BlockHeader h;
    h.number = 1;

    // At difficulty 1 every nonce passes: the very first attempt (which is
    // UINT64_MAX itself) must be returned, not a wrapped nonce.
    h.difficulty = 1;
    const std::uint64_t last = std::numeric_limits<std::uint64_t>::max();
    EXPECT_EQ(mine_seal(h, last, 1'000), last);
    EXPECT_EQ(mine_seal(h, last - 5, 1'000), last - 5);

    // Pick a difficulty (deterministically, from the header's actual PoW
    // values) where some low nonce passes but none of the final six nonces
    // do. The old wrap-around would have walked into the low nonces and
    // "found" a solution; the fixed search must exhaust the tail and give
    // up.
    for (std::uint64_t difficulty :
         {1u << 20, 1u << 16, 1u << 12, 1u << 8, 1u << 4}) {
        h.difficulty = difficulty;
        bool tail_solves = false;
        for (std::uint64_t nonce = last - 5;; ++nonce) {
            h.pow_nonce = nonce;
            if (check_pow(h)) tail_solves = true;
            if (nonce == last) break;
        }
        if (tail_solves) continue;  // tail happens to solve: try easier
        const auto wrapped = mine_seal(h, last - 5, 1'000);
        EXPECT_FALSE(wrapped.has_value())
            << "difficulty " << difficulty
            << " returned wrapped nonce " << *wrapped;
        // Sanity: with enough budget from 0, a solution does exist, so the
        // old behaviour really would have wrapped into one eventually.
        EXPECT_TRUE(mine_seal(h, 0, 1'000'000).has_value());
        return;
    }
    FAIL() << "no difficulty left the last six nonces unsolved";
}

// The PoW code before the search moved into crypto::keccak256_nonce_search,
// kept verbatim as the reference: one heap-allocated keccak per nonce.
namespace legacy_pow {

crypto::U256 pow_value(const Hash32& seal_hash, std::uint64_t nonce) {
    const Bytes nonce_bytes = be_bytes(nonce);
    const Hash32 digest = crypto::keccak256(seal_hash.view(), nonce_bytes);
    return crypto::U256::from_hash(digest);
}

bool check_pow(const BlockHeader& header) {
    return pow_value(header.seal_hash(), header.pow_nonce) <=
           pow_target(header.difficulty);
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
    for (std::uint64_t i = 0; i < attempts; ++i) {
        const std::uint64_t nonce = start_nonce + i;
        if (pow_value(seal, nonce) <= target) return nonce;
    }
    return std::nullopt;
}

}  // namespace legacy_pow

// One random search: a header, a difficulty in 1..2^20, a start nonce (near
// the top of the nonce space a quarter of the time) and an attempt count
// around multiples of the vector batch width, or up to 2000.
struct PowCase {
    BlockHeader header;
    std::uint64_t start = 0;
    std::uint64_t attempts = 0;
};

PowCase random_pow_case(Rng& rng) {
    PowCase c;
    c.header.number = rng.next_below(1000);
    for (auto& byte : c.header.parent_hash.data) {
        byte = static_cast<std::uint8_t>(rng.next_u64());
    }
    c.header.timestamp_ms = rng.next_u64();
    const unsigned log_difficulty = static_cast<unsigned>(rng.next_below(21));
    c.header.difficulty =
        std::max<std::uint64_t>(1, (1ull << log_difficulty) -
                                       rng.next_below(1ull << log_difficulty));
    switch (rng.next_below(4)) {
        case 0: c.start = std::numeric_limits<std::uint64_t>::max() -
                          rng.next_below(40); break;
        case 1: c.start = rng.next_below(100); break;
        default: c.start = rng.next_u64(); break;
    }
    constexpr std::uint64_t kCounts[] = {0,  1,  2,  3,  4,  5,  7,  8,
                                         9,  11, 12, 13, 16, 17, 31, 33};
    c.attempts = rng.next_below(2) == 0
                     ? kCounts[rng.next_below(std::size(kCounts))]
                     : rng.next_below(2001);
    return c;
}

TEST(Pow, MineSealMatchesLegacyLoopNonceAndWork) {
    Rng rng(0x9047);
    int found = 0;
    for (int i = 0; i < 300; ++i) {
        const PowCase c = random_pow_case(rng);
        const crypto::WorkCounters before = crypto::work_counters();
        const auto expected = legacy_pow::mine_seal(c.header, c.start, c.attempts);
        const crypto::WorkCounters legacy_work = crypto::work_counters() - before;
        const auto got = mine_seal(c.header, c.start, c.attempts);
        const crypto::WorkCounters work =
            crypto::work_counters() - before - legacy_work;
        ASSERT_EQ(got, expected) << "case " << i;
        ASSERT_EQ(work, legacy_work) << "case " << i;
        found += expected.has_value();
    }
    EXPECT_GT(found, 50);  // both outcomes are exercised
    EXPECT_LT(found, 250);
}

TEST(Pow, CheckPowMatchesLegacyVerdictAndWork) {
    Rng rng(0xc4ec);
    int valid = 0;
    for (int i = 0; i < 500; ++i) {
        BlockHeader h = random_pow_case(rng).header;
        h.pow_nonce = rng.next_u64();
        const crypto::WorkCounters before = crypto::work_counters();
        const bool expected = legacy_pow::check_pow(h);
        const crypto::WorkCounters legacy_work = crypto::work_counters() - before;
        const bool got = check_pow(h);
        EXPECT_EQ(got, expected) << "case " << i;
        EXPECT_EQ(crypto::work_counters() - before - legacy_work, legacy_work);
        valid += expected;
    }
    EXPECT_GT(valid, 0);
}

// Each compiled nonce-search tier against the legacy loop; a tier the CPU
// lacks is skipped by name.
class PowSearchTier
    : public ::testing::TestWithParam<crypto::NonceSearchKernel> {
protected:
    void SetUp() override {
        if (!GetParam().runnable()) {
            GTEST_SKIP() << "CPU lacks " << GetParam().cpu_feature
                         << ", so tier " << GetParam().name << " cannot run";
        }
    }
};

TEST_P(PowSearchTier, MatchesLegacyLoopNonceAndWork) {
    Rng rng(0x71e5);
    for (int i = 0; i < 300; ++i) {
        const PowCase c = random_pow_case(rng);
        const Hash32 seal = c.header.seal_hash();
        // mine_seal's clamp at the end of the nonce space.
        const std::uint64_t count =
            c.start == 0 ? c.attempts
                         : std::min(c.attempts,
                                    std::numeric_limits<std::uint64_t>::max() -
                                        c.start + 1);

        crypto::WorkCounters before = crypto::work_counters();
        (void)c.header.seal_hash();
        const crypto::WorkCounters seal_work = crypto::work_counters() - before;
        before = crypto::work_counters();
        const auto expected = legacy_pow::mine_seal(c.header, c.start, c.attempts);
        const crypto::WorkCounters legacy_work =
            crypto::work_counters() - before - seal_work;

        before = crypto::work_counters();
        const auto got = GetParam().run(seal, c.start, count,
                                        pow_target(c.header.difficulty));
        ASSERT_EQ(got, expected) << "case " << i;
        ASSERT_EQ(crypto::work_counters() - before, legacy_work) << "case " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, PowSearchTier,
    ::testing::ValuesIn(crypto::keccak_nonce_search_kernels().begin(),
                        crypto::keccak_nonce_search_kernels().end()),
    [](const ::testing::TestParamInfo<crypto::NonceSearchKernel>& info) {
        std::string name = info.param.name;
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

TEST(Pow, RetargetMovesTowardTarget) {
    // Too-fast block -> difficulty up; too-slow -> down; exact -> unchanged.
    EXPECT_GT(next_difficulty(1000, 100, 5000, 16), 1000u);
    EXPECT_LT(next_difficulty(1000, 20'000, 5000, 16), 1000u);
    EXPECT_EQ(next_difficulty(1000, 5000, 5000, 16), 1000u);
    EXPECT_EQ(next_difficulty(17, 50'000, 5000, 16), 16u);  // clamped
}

// ------------------------------------------------------------------ TxPool

TEST(TxPool, AddAndSelectByGasPrice) {
    TxPool pool;
    const Transaction cheap = sample_tx(1, 0, 1);
    const Transaction pricey = sample_tx(2, 0, 10);
    ASSERT_TRUE(pool.add(cheap));
    ASSERT_TRUE(pool.add(pricey));
    const auto selected = pool.select(1'000'000, {});
    ASSERT_EQ(selected.size(), 2u);
    EXPECT_EQ(selected[0].hash(), pricey.hash());
}

TEST(TxPool, RejectsDuplicates) {
    TxPool pool;
    const Transaction tx = sample_tx(1, 0);
    EXPECT_TRUE(pool.add(tx));
    EXPECT_FALSE(pool.add(tx));
    EXPECT_EQ(pool.size(), 1u);
}

TEST(TxPool, RejectsBadSignature) {
    TxPool pool;
    Transaction tx = sample_tx(1, 0);
    tx.data = str_bytes("tampered");
    EXPECT_FALSE(pool.add(tx));
}

TEST(TxPool, RejectsUnderpaidIntrinsicGas) {
    const KeyPair key = KeyPair::from_seed(9);
    const Transaction tx = Transaction::make_signed(
        key, 0, Address{}, 100, 1, Bytes(1000, 0xff));  // gas_limit way low
    TxPool pool;
    EXPECT_FALSE(pool.add(tx));
}

TEST(TxPool, EnforcesNonceOrderPerSender) {
    TxPool pool;
    // Same sender, nonces 0..2, added out of order with rising prices.
    const KeyPair key = KeyPair::from_seed(4);
    const auto mk = [&](std::uint64_t nonce, std::uint64_t price) {
        return Transaction::make_signed(key, nonce, Address{}, 50'000, price,
                                        {});
    };
    ASSERT_TRUE(pool.add(mk(2, 30)));
    ASSERT_TRUE(pool.add(mk(0, 1)));
    ASSERT_TRUE(pool.add(mk(1, 20)));
    const auto selected = pool.select(1'000'000, {});
    ASSERT_EQ(selected.size(), 3u);
    EXPECT_EQ(selected[0].nonce, 0u);
    EXPECT_EQ(selected[1].nonce, 1u);
    EXPECT_EQ(selected[2].nonce, 2u);
}

TEST(TxPool, RespectsBlockGasBudget) {
    TxPool pool;
    for (std::uint64_t i = 0; i < 10; ++i) {
        ASSERT_TRUE(pool.add(sample_tx(100 + i, 0)));
    }
    // Each tx has gas_limit 100k; budget fits 3.
    const auto selected = pool.select(350'000, {});
    EXPECT_EQ(selected.size(), 3u);
}

TEST(TxPool, RemoveAndReinject) {
    TxPool pool;
    const Transaction tx = sample_tx(1, 0);
    ASSERT_TRUE(pool.add(tx));
    pool.remove({tx.hash()});
    EXPECT_TRUE(pool.empty());
    pool.reinject({tx}, {tx.hash()});
    EXPECT_EQ(pool.size(), 1u);
    pool.reinject({tx}, {tx.hash()});  // already pending: skipped, not duplicated
    EXPECT_EQ(pool.size(), 1u);
    // Repeated remove/reinject churn (reorg ping-pong) must not duplicate
    // the tx in selection, and compaction dedups the arrival index.
    for (int cycle = 0; cycle < 4; ++cycle) {
        pool.remove({tx.hash()});
        pool.reinject({tx}, {tx.hash()});
    }
    EXPECT_EQ(pool.size(), 1u);
    const auto selected = pool.select(1'000'000, {});
    ASSERT_EQ(selected.size(), 1u);
    EXPECT_EQ(selected[0].hash(), tx.hash());
}

TEST(TxPool, RemoveFreesAllStateForEvictThenReadd) {
    // Regression: the pool used to keep a `seen_` hash per transaction
    // forever, leaking one Hash32 per tx over a long run and permanently
    // blocking legitimate re-adds after eviction. Removal must free every
    // trace, so an evicted tx can re-enter through normal admission.
    TxPool pool;
    const Transaction tx = sample_tx(1, 0);
    ASSERT_TRUE(pool.add(tx));
    EXPECT_FALSE(pool.add(tx));  // pending duplicate still rejected
    pool.remove({tx.hash()});
    EXPECT_TRUE(pool.empty());
    EXPECT_FALSE(pool.contains(tx.hash()));
    EXPECT_TRUE(pool.add(tx));  // evict-then-readd passes admission again
    EXPECT_EQ(pool.size(), 1u);
    const auto selected = pool.select(1'000'000, {});
    ASSERT_EQ(selected.size(), 1u);
    EXPECT_EQ(selected[0].hash(), tx.hash());
    // A mined tx that drifts back in is never *selected* again: block
    // building passes the chain's advanced account nonces.
    pool.remove({tx.hash()});
    ASSERT_TRUE(pool.add(tx));
    const auto reselected =
        pool.select(1'000'000, {{selected[0].sender(), tx.nonce + 1}});
    EXPECT_TRUE(reselected.empty());
}

TEST(TxPool, PruneStaleDropsMinedNonces) {
    // Regression: a duplicate of an already-mined tx re-admitted through
    // gossip (after the node's bounded dedup set forgot its hash) used to
    // sit in the pool forever — select() can never pick a below-nonce tx
    // and remove() only sees freshly mined ones. prune_stale drops
    // everything the canonical nonces have moved past, and nothing else.
    TxPool pool;
    const KeyPair key = KeyPair::from_seed(4);
    const auto mk = [&](std::uint64_t nonce, std::uint64_t price) {
        return Transaction::make_signed(key, nonce, Address{}, 50'000, price,
                                        {});
    };
    const Transaction mined = mk(0, 1);
    const Transaction replaced = mk(1, 2);  // same-nonce sibling lost out
    const Transaction pending = mk(2, 1);
    const Transaction other = sample_tx(5, 0);
    ASSERT_TRUE(pool.add(mined));
    ASSERT_TRUE(pool.add(replaced));
    ASSERT_TRUE(pool.add(pending));
    ASSERT_TRUE(pool.add(other));

    // Chain advanced past nonces 0 and 1 for this sender (nonce 1 was
    // satisfied by a different tx); the other sender is untouched.
    EXPECT_EQ(pool.prune_stale({{mined.sender(), 2}}), 2u);
    EXPECT_EQ(pool.size(), 2u);
    EXPECT_FALSE(pool.contains(mined.hash()));
    EXPECT_FALSE(pool.contains(replaced.hash()));
    EXPECT_TRUE(pool.contains(pending.hash()));
    EXPECT_TRUE(pool.contains(other.hash()));
    EXPECT_EQ(pool.prune_stale({{mined.sender(), 2}}), 0u);  // idempotent
    const auto selected = pool.select(1'000'000, {{mined.sender(), 2}});
    ASSERT_EQ(selected.size(), 2u);  // pending + other, both still viable
}

/// The historical O(n²) multi-pass selection loop, kept verbatim as the
/// semantic reference: the production O(n log n) queue-merge in
/// TxPool::select must reproduce its output bit-for-bit.
std::vector<Transaction> multi_pass_reference_select(
    const std::vector<Transaction>& arrival, std::uint64_t block_gas_limit,
    const std::unordered_map<Address, std::uint64_t, FixedBytesHasher>&
        next_nonce_by_sender) {
    std::vector<const Transaction*> candidates;
    candidates.reserve(arrival.size());
    for (const Transaction& tx : arrival) candidates.push_back(&tx);
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Transaction* a, const Transaction* b) {
                         return a->gas_price > b->gas_price;
                     });
    std::unordered_map<Address, std::uint64_t, FixedBytesHasher> next_nonce =
        next_nonce_by_sender;
    std::vector<Transaction> selected;
    std::uint64_t gas_left = block_gas_limit;
    bool progressed = true;
    std::vector<bool> taken(candidates.size(), false);
    while (progressed) {
        progressed = false;
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            if (taken[i]) continue;
            const Transaction& tx = *candidates[i];
            if (tx.gas_limit > gas_left) continue;
            const Address from = tx.sender();
            const auto nonce_it = next_nonce.find(from);
            const std::uint64_t expected =
                nonce_it == next_nonce.end() ? 0 : nonce_it->second;
            if (tx.nonce != expected) continue;
            selected.push_back(tx);
            taken[i] = true;
            next_nonce[from] = expected + 1;
            gas_left -= tx.gas_limit;
            progressed = true;
        }
    }
    return selected;
}

TEST(TxPool, PreservesMultiPassPassBoundaryOrder) {
    // Sender A: nonce 0 at price 5, nonce 1 at price 10; sender B: nonce 0
    // at price 4. The multi-pass scan takes A0 and B0 in the first pass
    // and A1 only in the second — a greedy merge that re-considers A1 the
    // moment A0 unlocks it would emit A0,A1,B0 instead. This pins the
    // pass-boundary semantics the O(n log n) rewrite must preserve.
    const KeyPair a = KeyPair::from_seed(71);
    const KeyPair b = KeyPair::from_seed(72);
    const Transaction a1 =
        Transaction::make_signed(a, 1, Address{}, 50'000, 10, {});
    const Transaction a0 =
        Transaction::make_signed(a, 0, Address{}, 50'000, 5, {});
    const Transaction b0 =
        Transaction::make_signed(b, 0, Address{}, 50'000, 4, {});
    TxPool pool;
    ASSERT_TRUE(pool.add(a1));
    ASSERT_TRUE(pool.add(a0));
    ASSERT_TRUE(pool.add(b0));
    const auto selected = pool.select(1'000'000, {});
    ASSERT_EQ(selected.size(), 3u);
    EXPECT_EQ(selected[0].hash(), a0.hash());
    EXPECT_EQ(selected[1].hash(), b0.hash());
    EXPECT_EQ(selected[2].hash(), a1.hash());
}

TEST(TxPool, SelectMatchesMultiPassReferenceOnRandomWorkloads) {
    // Randomized differential test: shuffled nonces, duplicate nonces,
    // nonce gaps, price ties and tight gas budgets, checked against the
    // verbatim multi-pass reference for identical output order.
    Rng rng(0xbcf15e1ec7ull);
    for (int round = 0; round < 6; ++round) {
        const std::size_t n_senders = 2 + rng.next_below(4);
        std::vector<KeyPair> keys;
        std::vector<std::uint64_t> base_nonce;
        std::unordered_map<Address, std::uint64_t, FixedBytesHasher> base;
        for (std::size_t s = 0; s < n_senders; ++s) {
            keys.push_back(KeyPair::from_seed(700 + 10 * round + s));
            base_nonce.push_back(rng.next_below(3));
            if (base_nonce.back() > 0) {
                base[keys.back().address()] = base_nonce.back();
            }
        }
        std::vector<Transaction> arrival;
        for (std::size_t s = 0; s < n_senders; ++s) {
            const std::size_t count = 3 + rng.next_below(6);
            std::vector<std::uint64_t> nonces;
            for (std::size_t i = 0; i < count; ++i) {
                nonces.push_back(base_nonce[s] + i);
            }
            if (rng.next_below(2) == 0) nonces.push_back(nonces.back());  // dup
            if (rng.next_below(3) == 0) nonces.push_back(nonces.back() + 2);  // gap
            rng.shuffle(std::span<std::uint64_t>(nonces));
            for (const std::uint64_t nonce : nonces) {
                arrival.push_back(Transaction::make_signed(
                    keys[s], nonce, Address{},
                    30'000 + 30'000 * rng.next_below(4),
                    1 + rng.next_below(4), str_bytes("d")));
            }
        }
        rng.shuffle(std::span<Transaction>(arrival));
        TxPool pool;
        std::vector<Transaction> accepted;
        for (const Transaction& tx : arrival) {
            if (pool.add(tx)) accepted.push_back(tx);  // drops exact dups
        }
        std::uint64_t total_gas = 0;
        for (const Transaction& tx : accepted) total_gas += tx.gas_limit;
        for (const std::uint64_t budget :
             {total_gas, total_gas / 2, total_gas / 5}) {
            const auto got = pool.select(budget, base);
            const auto want =
                multi_pass_reference_select(accepted, budget, base);
            ASSERT_EQ(got.size(), want.size())
                << "round " << round << " budget " << budget;
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].hash(), want[i].hash())
                    << "round " << round << " budget " << budget
                    << " position " << i;
            }
        }
    }
}

// -------------------------------------------------------------- Blockchain

class BlockchainTest : public ::testing::Test {
protected:
    BlockchainTest()
        : chain_(make_config(), std::make_shared<NullExecutor>()) {}

    static ChainConfig make_config() {
        ChainConfig config;
        config.initial_difficulty = 16;
        config.min_difficulty = 4;
        config.target_interval_ms = 1000;
        return config;
    }

    Block make_next(std::vector<Transaction> txs, std::uint64_t timestamp_ms,
                    std::uint64_t miner_seed = 50) {
        Block block = chain_.build_block(
            KeyPair::from_seed(miner_seed).address(), std::move(txs),
            timestamp_ms);
        const auto nonce = mine_seal(block.header, 0, 10'000'000);
        EXPECT_TRUE(nonce.has_value());
        block.header.pow_nonce = *nonce;
        return block;
    }

    Blockchain chain_;
};

TEST_F(BlockchainTest, GenesisIsHead) {
    EXPECT_EQ(chain_.height(), 0u);
    EXPECT_EQ(chain_.head().number, 0u);
    EXPECT_NE(chain_.block_by_number(0), nullptr);
}

TEST_F(BlockchainTest, ImportExtendsHead) {
    const Block b1 = make_next({sample_tx(1, 0)}, 1000);
    const ImportResult r = chain_.import_block(b1);
    EXPECT_EQ(r.status, ImportStatus::added_head) << r.reason;
    EXPECT_EQ(chain_.height(), 1u);
    EXPECT_EQ(chain_.block_by_number(1)->hash(), b1.hash());
}

TEST_F(BlockchainTest, DuplicateDetected) {
    const Block b1 = make_next({}, 1000);
    EXPECT_EQ(chain_.import_block(b1).status, ImportStatus::added_head);
    EXPECT_EQ(chain_.import_block(b1).status, ImportStatus::duplicate);
}

TEST_F(BlockchainTest, OrphanDetected) {
    Block stray = make_next({}, 1000);
    stray.header.parent_hash = crypto::keccak256(str_bytes("nowhere"));
    const auto nonce = mine_seal(stray.header, 0, 10'000'000);
    ASSERT_TRUE(nonce.has_value());
    stray.header.pow_nonce = *nonce;
    EXPECT_EQ(chain_.import_block(stray).status, ImportStatus::orphan);
}

TEST_F(BlockchainTest, RejectsBadPow) {
    Block b1 = make_next({}, 1000);
    b1.header.pow_nonce += 1;  // almost surely invalid at difficulty 16
    const ImportResult r = chain_.import_block(b1);
    if (r.status != ImportStatus::rejected) {
        GTEST_SKIP() << "nonce+1 happened to satisfy PoW";
    }
    EXPECT_EQ(r.reason, "invalid proof of work");
}

TEST_F(BlockchainTest, RejectsTamperedTxRoot) {
    Block b1 = make_next({sample_tx(1, 0)}, 1000);
    b1.transactions.push_back(sample_tx(2, 0));  // header roots now stale
    const auto nonce = mine_seal(b1.header, 0, 10'000'000);
    ASSERT_TRUE(nonce.has_value());
    b1.header.pow_nonce = *nonce;
    EXPECT_EQ(chain_.import_block(b1).status, ImportStatus::rejected);
}

TEST_F(BlockchainTest, RejectsBadNonceSequence) {
    // Tx with nonce 1 while account is at 0.
    Block b1 = make_next({sample_tx(1, 1)}, 1000);
    const ImportResult r = chain_.import_block(b1);
    EXPECT_EQ(r.status, ImportStatus::rejected);
    EXPECT_EQ(r.reason, "bad tx nonce");
}

TEST_F(BlockchainTest, TracksAccountNonces) {
    ASSERT_EQ(chain_.import_block(make_next({sample_tx(1, 0)}, 1000)).status,
              ImportStatus::added_head);
    ASSERT_EQ(chain_.import_block(make_next({sample_tx(1, 1)}, 2000)).status,
              ImportStatus::added_head);
    const auto& nonces = chain_.account_nonces();
    EXPECT_EQ(nonces.at(KeyPair::from_seed(1).address()), 2u);
}

TEST_F(BlockchainTest, LocatesMinedTx) {
    const Transaction tx = sample_tx(1, 0);
    ASSERT_EQ(chain_.import_block(make_next({tx}, 1000)).status,
              ImportStatus::added_head);
    const auto loc = chain_.locate_tx(tx.hash());
    ASSERT_TRUE(loc.has_value());
    EXPECT_EQ(loc->block_number, 1u);
    EXPECT_EQ(loc->index, 0u);
    EXPECT_FALSE(chain_.locate_tx(crypto::keccak256(str_bytes("nope")))
                     .has_value());
}

TEST_F(BlockchainTest, ForkChoiceByTotalDifficulty) {
    // Build A1 on genesis, then a competing branch B1-B2 that overtakes.
    const Block a1 = make_next({sample_tx(1, 0)}, 1000, 60);
    ASSERT_EQ(chain_.import_block(a1).status, ImportStatus::added_head);

    // Competing block B1 also on genesis: construct manually.
    Blockchain side(make_config(), std::make_shared<NullExecutor>());
    const Block b1 = [&] {
        Block block = side.build_block(KeyPair::from_seed(61).address(),
                                       {sample_tx(2, 0)}, 1500);
        block.header.pow_nonce = *mine_seal(block.header, 1'000, 10'000'000);
        return block;
    }();
    ASSERT_EQ(side.import_block(b1).status, ImportStatus::added_head);
    const Block b2 = [&] {
        Block block =
            side.build_block(KeyPair::from_seed(61).address(), {}, 2500);
        block.header.pow_nonce = *mine_seal(block.header, 0, 10'000'000);
        return block;
    }();

    // Import the side branch into the main chain.
    const ImportResult rb1 = chain_.import_block(b1);
    EXPECT_EQ(rb1.status, ImportStatus::added_side) << rb1.reason;
    EXPECT_EQ(chain_.head_hash(), a1.hash());

    const ImportResult rb2 = chain_.import_block(b2);
    EXPECT_EQ(rb2.status, ImportStatus::added_head) << rb2.reason;
    EXPECT_TRUE(rb2.reorged);
    EXPECT_EQ(chain_.height(), 2u);
    // a1's tx abandoned, b1's tx is on the new branch.
    ASSERT_EQ(rb2.abandoned_txs.size(), 1u);
    EXPECT_EQ(rb2.abandoned_txs[0].hash(), sample_tx(1, 0).hash());
    // Canonical index follows the new branch.
    EXPECT_EQ(chain_.block_by_number(1)->hash(), b1.hash());
    // Nonce map rebuilt: sender 1 back to 0, sender 2 at 1.
    EXPECT_FALSE(chain_.account_nonces().contains(
        KeyPair::from_seed(1).address()));
    EXPECT_EQ(chain_.account_nonces().at(KeyPair::from_seed(2).address()), 1u);
}

TEST_F(BlockchainTest, DifficultyRetargetsAlongChain) {
    // Mine several quick blocks; difficulty should rise above initial.
    std::uint64_t ts = 100;
    for (int i = 0; i < 5; ++i) {
        ASSERT_EQ(chain_.import_block(make_next({}, ts)).status,
                  ImportStatus::added_head);
        ts += 100;  // much faster than the 1000ms target
    }
    EXPECT_GT(chain_.head().difficulty, 16u);
}

TEST_F(BlockchainTest, RejectsGasBudgetOverflow) {
    // Regression: the block gas check used to *sum* gas limits into a
    // uint64 accumulator — two txs of 2^63 wrapped to 0 and slipped past
    // `gas_budget > h.gas_limit`. The budget is now spent down with a
    // per-tx bound, which cannot wrap.
    const std::uint64_t half = 1ull << 63;
    const Transaction t1 = Transaction::make_signed(
        KeyPair::from_seed(21), 0, Address{}, half, 1, {});
    const Transaction t2 = Transaction::make_signed(
        KeyPair::from_seed(22), 0, Address{}, half, 1, {});
    const Block block = make_next({t1, t2}, 1000);
    const ImportResult r = chain_.import_block(block);
    EXPECT_EQ(r.status, ImportStatus::rejected);
    EXPECT_EQ(r.reason, "block over gas limit");
}

// --------------------------------------------- Incremental index invariants

namespace indices {

ChainConfig fixed_config() {
    ChainConfig config;
    config.initial_difficulty = 16;
    config.min_difficulty = 4;
    config.fixed_difficulty = true;  // TD = height: longest branch wins
    config.target_interval_ms = 1000;
    return config;
}

Block seal_on(Blockchain& builder, std::vector<Transaction> txs,
              std::uint64_t timestamp_ms, std::uint64_t miner_seed) {
    Block block = builder.build_block(KeyPair::from_seed(miner_seed).address(),
                                      std::move(txs), timestamp_ms);
    const auto nonce = mine_seal(block.header, 0, 10'000'000);
    EXPECT_TRUE(nonce.has_value());
    block.header.pow_nonce = *nonce;
    EXPECT_EQ(builder.import_block(block).status, ImportStatus::added_head);
    return block;
}

/// From-scratch canonical path, oldest first, via parent links only.
std::vector<Block> canonical_walk(
    const Blockchain& chain,
    const std::unordered_map<Hash32, Block, FixedBytesHasher>& all_blocks) {
    std::vector<Block> path;
    Hash32 cursor = chain.head_hash();
    while (true) {
        const Block& block = all_blocks.at(cursor);
        path.push_back(block);
        if (block.header.number == 0) break;
        cursor = block.header.parent_hash;
    }
    std::reverse(path.begin(), path.end());
    return path;
}

/// The pre-overhaul reorg behaviour, verbatim: walk the *whole* old
/// canonical chain head-first and keep every tx not anywhere on the new
/// branch. The incremental fork-point reorg must match it exactly.
std::vector<Hash32> full_walk_abandoned(const std::vector<Block>& old_chain,
                                        const std::vector<Block>& new_chain) {
    std::unordered_set<Hash32, FixedBytesHasher> new_txs;
    for (const Block& block : new_chain) {
        for (const Transaction& tx : block.transactions) {
            new_txs.insert(tx.hash());
        }
    }
    std::vector<Hash32> abandoned;
    for (auto it = old_chain.rbegin(); it != old_chain.rend(); ++it) {
        for (const Transaction& tx : it->transactions) {
            if (!new_txs.contains(tx.hash())) abandoned.push_back(tx.hash());
        }
    }
    return abandoned;
}

/// Asserts canonical_, tx_index_ and account nonces (through the public
/// API) exactly match a from-scratch rebuild of the head branch.
void verify_against_rebuild(
    const Blockchain& chain,
    const std::unordered_map<Hash32, Block, FixedBytesHasher>& all_blocks,
    const std::vector<Transaction>& all_txs) {
    const std::vector<Block> canonical = canonical_walk(chain, all_blocks);
    ASSERT_EQ(chain.height() + 1, canonical.size());
    for (std::uint64_t n = 0; n < canonical.size(); ++n) {
        const Block* got = chain.block_by_number(n);
        ASSERT_NE(got, nullptr) << "number " << n;
        EXPECT_EQ(got->hash(), canonical[n].hash()) << "number " << n;
    }
    for (std::uint64_t n = chain.height() + 1; n <= chain.height() + 4; ++n) {
        EXPECT_EQ(chain.block_by_number(n), nullptr)
            << "stale canonical entry above head at " << n;
    }

    std::unordered_map<Hash32, TxLocation, FixedBytesHasher> ref_locations;
    std::unordered_map<Address, std::uint64_t, FixedBytesHasher> ref_nonces;
    for (const Block& block : canonical) {
        for (std::size_t i = 0; i < block.transactions.size(); ++i) {
            const Transaction& tx = block.transactions[i];
            ref_locations[tx.hash()] =
                TxLocation{block.hash(), block.header.number, i};
            ref_nonces[tx.sender()]++;
        }
    }
    for (const Transaction& tx : all_txs) {
        const auto got = chain.locate_tx(tx.hash());
        const auto want = ref_locations.find(tx.hash());
        if (want == ref_locations.end()) {
            EXPECT_FALSE(got.has_value())
                << "off-canonical tx still indexed: " << tx.hash().hex();
        } else {
            ASSERT_TRUE(got.has_value()) << tx.hash().hex();
            EXPECT_EQ(got->block_hash, want->second.block_hash);
            EXPECT_EQ(got->block_number, want->second.block_number);
            EXPECT_EQ(got->index, want->second.index);
        }
    }
    EXPECT_EQ(chain.account_nonces(), ref_nonces);
}

}  // namespace indices

TEST(BlockchainIndices, IncrementalIndicesMatchFromScratchAfterRandomReorgs) {
    using namespace indices;
    const ChainConfig config = fixed_config();
    Blockchain main_chain(config, std::make_shared<NullExecutor>());
    Blockchain branch_a(config, std::make_shared<NullExecutor>());
    Blockchain branch_b(config, std::make_shared<NullExecutor>());

    std::unordered_map<Hash32, Block, FixedBytesHasher> all_blocks;
    all_blocks.emplace(main_chain.genesis().hash(), main_chain.genesis());
    std::vector<Transaction> all_txs;
    std::unordered_map<std::uint64_t, std::uint64_t> nonce_a;  // seed->nonce
    std::unordered_map<std::uint64_t, std::uint64_t> nonce_b;
    Rng rng(0x1ce5);
    std::uint64_t ts = 1000;
    std::uint64_t deepest_abandoned = 0;

    // Imports `block` into the fork-choice chain under test and checks
    // every index invariant, including abandoned-tx equivalence with the
    // historical full-walk reorg on every actual reorg.
    const auto import_and_verify = [&](const Block& block) {
        all_blocks.emplace(block.hash(), block);
        for (const Transaction& tx : block.transactions) {
            all_txs.push_back(tx);
        }
        const std::vector<Block> before =
            canonical_walk(main_chain, all_blocks);
        const ImportResult result = main_chain.import_block(block);
        ASSERT_TRUE(result.status == ImportStatus::added_head ||
                    result.status == ImportStatus::added_side)
            << result.reason;
        if (result.reorged) {
            const std::vector<Block> after =
                canonical_walk(main_chain, all_blocks);
            const std::vector<Hash32> want = full_walk_abandoned(before, after);
            ASSERT_EQ(result.abandoned_txs.size(), want.size());
            for (std::size_t i = 0; i < want.size(); ++i) {
                EXPECT_EQ(result.abandoned_txs[i].hash(), want[i])
                    << "abandoned position " << i;
            }
            deepest_abandoned = std::max<std::uint64_t>(deepest_abandoned,
                                                        want.size());
        }
        verify_against_rebuild(main_chain, all_blocks, all_txs);
    };

    // Random txs from a branch-private sender set, advancing that branch's
    // own nonce view (which diverges from the other branch's after the
    // fork point — exactly what the per-record snapshots must track).
    const auto random_txs = [&](std::unordered_map<std::uint64_t,
                                                   std::uint64_t>& nonces,
                                std::uint64_t seed_base) {
        std::vector<Transaction> txs;
        const std::size_t count = rng.next_below(4);  // 0..3, empty blocks too
        for (std::size_t i = 0; i < count; ++i) {
            const std::uint64_t seed = seed_base + rng.next_below(3);
            txs.push_back(sample_tx(seed, nonces[seed]++,
                                    1 + rng.next_below(3)));
        }
        return txs;
    };

    const auto extend = [&](Blockchain& builder,
                            std::unordered_map<std::uint64_t, std::uint64_t>&
                                nonces,
                            std::uint64_t seed_base, std::size_t blocks,
                            std::uint64_t miner_seed) {
        for (std::size_t i = 0; i < blocks; ++i) {
            import_and_verify(seal_on(builder, random_txs(nonces, seed_base),
                                      ts += 100, miner_seed));
        }
    };

    // Shared prefix: 6 blocks on A, mirrored into B's builder.
    std::vector<Block> prefix;
    for (std::size_t i = 0; i < 6; ++i) {
        prefix.push_back(seal_on(branch_a, random_txs(nonce_a, 30), ts += 100,
                                 60));
        import_and_verify(prefix.back());
    }
    for (const Block& block : prefix) {
        ASSERT_EQ(branch_b.import_block(block).status,
                  ImportStatus::added_head);
    }
    nonce_b = nonce_a;  // branch B inherits the fork-point nonce state

    // A tx included on *both* branches (same sender, same nonce, same
    // payload → same hash): must never be reported abandoned.
    const Transaction shared_tx = sample_tx(55, 0, 2);
    {
        Block a_block = seal_on(branch_a, {shared_tx}, ts += 100, 60);
        import_and_verify(a_block);
        Block b_block = seal_on(branch_b, {shared_tx}, ts += 100, 61);
        import_and_verify(b_block);  // added_side at equal height
    }

    // Interleaved tug-of-war with progressively deeper reorgs. Branch
    // lengths also push the copy-on-write snapshots past the flatten
    // threshold (32 layers).
    extend(branch_a, nonce_a, 30, 4, 60);   // A ahead
    extend(branch_b, nonce_b, 40, 8, 61);   // reorg to B (depth ~5)
    extend(branch_a, nonce_a, 30, 9, 60);   // reorg back to A
    extend(branch_b, nonce_b, 40, 12, 61);  // deeper reorg to B
    extend(branch_a, nonce_a, 30, 14, 60);  // deepest reorg back to A
    extend(branch_a, nonce_a, 30, 20, 60);  // long quiet growth (flatten)

    EXPECT_GE(main_chain.height(), 40u);
    EXPECT_GE(deepest_abandoned, 8u) << "script no longer reorgs deeply";
}

TEST(BlockchainIndices, SnapshotHorizonPruningKeepsDeepForksValid) {
    // Snapshots sink out of memory once a block is nonce_snapshot_horizon
    // below the head; forking the pruned deep past must still validate
    // nonces correctly (via the walk-and-rebuild fallback) and leave the
    // indices coherent after the resulting deep reorg.
    using namespace indices;
    ChainConfig config = fixed_config();
    config.nonce_snapshot_horizon = 8;
    Blockchain main_chain(config, std::make_shared<NullExecutor>());
    Blockchain branch_a(config, std::make_shared<NullExecutor>());
    Blockchain branch_b(config, std::make_shared<NullExecutor>());

    std::unordered_map<Hash32, Block, FixedBytesHasher> all_blocks;
    all_blocks.emplace(main_chain.genesis().hash(), main_chain.genesis());
    std::vector<Transaction> all_txs;
    std::uint64_t ts = 1000;
    const auto record = [&](const Block& block) {
        all_blocks.emplace(block.hash(), block);
        for (const Transaction& tx : block.transactions) {
            all_txs.push_back(tx);
        }
    };

    // Shared prefix: sender 81 spends nonces 0..3 in blocks 1..4.
    for (std::uint64_t i = 0; i < 4; ++i) {
        const Block block =
            seal_on(branch_a, {sample_tx(81, i)}, ts += 100, 60);
        record(block);
        ASSERT_EQ(main_chain.import_block(block).status,
                  ImportStatus::added_head);
        ASSERT_EQ(branch_b.import_block(block).status,
                  ImportStatus::added_head);
    }
    // Branch A races ahead to height 30: the fork point (block 4) sinks
    // 26 below the head, far past the horizon of 8, so its snapshot is
    // pruned from the canonical index.
    for (std::uint64_t i = 0; i < 26; ++i) {
        const Block block =
            seal_on(branch_a, {sample_tx(82, i)}, ts += 100, 60);
        record(block);
        ASSERT_EQ(main_chain.import_block(block).status,
                  ImportStatus::added_head);
    }

    // A wrong-nonce block on the pruned fork point must still be caught
    // by the rebuilt nonce view (sender 81 is at nonce 4 there, not 5).
    Block bad = branch_b.build_block(KeyPair::from_seed(61).address(),
                                     {sample_tx(81, 5)}, ts += 100);
    bad.header.pow_nonce = *mine_seal(bad.header, 0, 10'000'000);
    const ImportResult rejected = main_chain.import_block(bad);
    EXPECT_EQ(rejected.status, ImportStatus::rejected);
    EXPECT_EQ(rejected.reason, "bad tx nonce");

    // The correct continuation (nonce 4) forks the deep past and grows
    // until it overtakes — a 26-deep reorg below the prune watermark.
    bool reorged = false;
    for (std::uint64_t i = 0; i < 28; ++i) {
        const Block block = seal_on(
            branch_b, {sample_tx(81, 4 + i)}, ts += 100, 61);
        record(block);
        const ImportResult result = main_chain.import_block(block);
        ASSERT_TRUE(result.status == ImportStatus::added_head ||
                    result.status == ImportStatus::added_side)
            << result.reason;
        reorged |= result.reorged;
    }
    EXPECT_TRUE(reorged);
    EXPECT_EQ(main_chain.height(), 32u);
    verify_against_rebuild(main_chain, all_blocks, all_txs);

    // Post-reorg growth re-sweeps the rewound prune watermark and keeps
    // extending cleanly.
    for (std::uint64_t i = 0; i < 4; ++i) {
        const Block block =
            seal_on(branch_b, {sample_tx(81, 32 + i)}, ts += 100, 61);
        record(block);
        ASSERT_EQ(main_chain.import_block(block).status,
                  ImportStatus::added_head);
    }
    verify_against_rebuild(main_chain, all_blocks, all_txs);
}

TEST(BlockchainIndices, NonceValidationIsPerBranch) {
    using namespace indices;
    const ChainConfig config = fixed_config();
    Blockchain main_chain(config, std::make_shared<NullExecutor>());
    Blockchain branch_a(config, std::make_shared<NullExecutor>());
    Blockchain branch_b(config, std::make_shared<NullExecutor>());

    // Branch A mines the sender's nonce-0 tx; branch B stays empty.
    const Block a1 = seal_on(branch_a, {sample_tx(77, 0)}, 1000, 60);
    const Block b1 = seal_on(branch_b, {}, 1500, 61);
    const Block b2 = seal_on(branch_b, {}, 2000, 61);
    ASSERT_EQ(main_chain.import_block(a1).status, ImportStatus::added_head);
    ASSERT_EQ(main_chain.import_block(b1).status, ImportStatus::added_side);
    ASSERT_EQ(main_chain.import_block(b2).status, ImportStatus::added_head);

    // A nonce-1 tx is valid on top of A (which holds nonce 0)...
    const Block a2 = seal_on(branch_a, {sample_tx(77, 1)}, 2500, 60);
    const ImportResult on_a = main_chain.import_block(a2);
    EXPECT_EQ(on_a.status, ImportStatus::added_side) << on_a.reason;

    // ...but the same sender starts at nonce 0 on branch B: a nonce-1 tx
    // there must be rejected even though the *canonical* nonce map (B is
    // the head) has nothing for the sender — and a fresh nonce-0 tx works.
    Block bad = main_chain.build_block(KeyPair::from_seed(61).address(),
                                       {sample_tx(77, 1)}, 3000);
    bad.header.pow_nonce = *mine_seal(bad.header, 0, 10'000'000);
    const ImportResult rejected = main_chain.import_block(bad);
    EXPECT_EQ(rejected.status, ImportStatus::rejected);
    EXPECT_EQ(rejected.reason, "bad tx nonce");

    const Block good = seal_on(branch_b, {sample_tx(77, 0)}, 3000, 61);
    EXPECT_EQ(main_chain.import_block(good).status, ImportStatus::added_head);
}

// ------------------------------------------- Pool-verified signature skip

/// A same-(sender, nonce) sibling of `tx` whose signature no longer covers
/// its payload.
Transaction forge_payload(const Transaction& tx) {
    Transaction forged = tx;
    forged.data = str_bytes("forged payload");
    return forged;
}

TEST_F(BlockchainTest, PooledTxForgeryIsStillRejected) {
    // The pool holds the honest tx; a block carries a forgery with the
    // same sender and nonce under a correct tx root. Its id differs from
    // the pooled one, so the signature is checked and fails.
    TxPool pool;
    const Transaction honest = sample_tx(1, 0);
    ASSERT_TRUE(pool.add(honest));
    const Block forged_block = make_next({forge_payload(honest)}, 1000);
    EXPECT_EQ(forged_block.header.tx_root, forged_block.compute_tx_root());
    const ImportResult rejected = chain_.import_block(forged_block, pool);
    EXPECT_EQ(rejected.status, ImportStatus::rejected);
    EXPECT_EQ(rejected.reason, "bad tx signature");

    const ImportResult accepted =
        chain_.import_block(make_next({honest}, 1000), pool);
    EXPECT_EQ(accepted.status, ImportStatus::added_head) << accepted.reason;
}

TEST(BlockchainIndices, PoolOracleImportMatchesFullVerification) {
    // Differential: one random block stream — two competing branches,
    // honest txs half of which sit in a pool, and forged blocks — goes
    // into a chain that verifies every signature and one that skips the
    // pool's txs. Every ImportResult, head and tx location must agree.
    using namespace indices;
    const ChainConfig config = fixed_config();
    Blockchain full(config, std::make_shared<NullExecutor>());
    Blockchain oracle(config, std::make_shared<NullExecutor>());
    Blockchain branch_a(config, std::make_shared<NullExecutor>());
    Blockchain branch_b(config, std::make_shared<NullExecutor>());
    TxPool pool;
    Rng rng(0x0dd5);
    std::uint64_t ts = 1000;
    std::vector<Transaction> all_txs;
    std::size_t reorgs = 0;
    std::size_t forged_rejections = 0;

    const auto import_both = [&](const Block& block) {
        const ImportResult want = full.import_block(block);
        const ImportResult got = oracle.import_block(block, pool);
        EXPECT_EQ(got.status, want.status) << want.reason;
        EXPECT_EQ(got.reason, want.reason);
        EXPECT_EQ(got.reorged, want.reorged);
        ASSERT_EQ(got.abandoned_txs.size(), want.abandoned_txs.size());
        ASSERT_EQ(got.abandoned_tx_ids.size(), got.abandoned_txs.size());
        for (std::size_t i = 0; i < want.abandoned_txs.size(); ++i) {
            EXPECT_EQ(got.abandoned_txs[i].hash(), want.abandoned_txs[i].hash());
            EXPECT_EQ(got.abandoned_tx_ids[i], want.abandoned_txs[i].hash());
        }
        EXPECT_EQ(oracle.head_hash(), full.head_hash());
        EXPECT_EQ(oracle.account_nonces(), full.account_nonces());
        for (const Transaction& tx : all_txs) {
            const auto a = full.locate_tx(tx.hash());
            const auto b = oracle.locate_tx(tx.hash());
            ASSERT_EQ(a.has_value(), b.has_value());
            if (a) {
                EXPECT_EQ(a->block_hash, b->block_hash);
                EXPECT_EQ(a->index, b->index);
            }
        }
        reorgs += want.reorged ? 1 : 0;
        forged_rejections += want.reason == "bad tx signature" ? 1 : 0;
    };

    // Honest txs from branch-private senders; each lands in the pool with
    // probability 1/2, so both the skip and the full check run.
    std::unordered_map<std::uint64_t, std::uint64_t> nonce_a;
    std::unordered_map<std::uint64_t, std::uint64_t> nonce_b;
    const auto honest_txs = [&](std::unordered_map<std::uint64_t,
                                                   std::uint64_t>& nonces,
                                std::uint64_t seed_base) {
        std::vector<Transaction> txs;
        const std::size_t count = 1 + rng.next_below(3);
        for (std::size_t i = 0; i < count; ++i) {
            const std::uint64_t seed = seed_base + rng.next_below(3);
            txs.push_back(sample_tx(seed, nonces[seed]++));
            all_txs.push_back(txs.back());
            if (rng.next_below(2) == 0) pool.add(txs.back());
        }
        return txs;
    };

    // Forgeries of txs the builder would mine next, every one of them in
    // the pool: a tampered payload, a tampered signature, a swapped public
    // key, and the honest bytes with the (unencoded) infinity flag set.
    const auto forged_block = [&](Blockchain& builder,
                                  std::unordered_map<std::uint64_t,
                                                     std::uint64_t>& nonces,
                                  std::uint64_t seed_base) {
        const std::uint64_t seed = seed_base + rng.next_below(3);
        const Transaction honest = sample_tx(seed, nonces[seed]);
        pool.add(honest);
        Transaction forged = honest;
        switch (rng.next_below(4)) {
            case 0: forged = forge_payload(honest); break;
            case 1: forged.signature.s = crypto::U256{12345}; break;
            case 2:
                forged.sender_pub = KeyPair::from_seed(seed + 100).public_key();
                break;
            default: forged.sender_pub.infinity = true; break;
        }
        Block block = builder.build_block(KeyPair::from_seed(62).address(),
                                          {forged}, ts += 100);
        block.header.pow_nonce = *mine_seal(block.header, 0, 10'000'000);
        return block;
    };

    for (int step = 0; step < 60; ++step) {
        const bool on_a = rng.next_below(2) == 0;
        Blockchain& builder = on_a ? branch_a : branch_b;
        auto& nonces = on_a ? nonce_a : nonce_b;
        const std::uint64_t seed_base = on_a ? 30 : 40;
        if (rng.next_below(4) == 0) {
            import_both(forged_block(builder, nonces, seed_base));
        } else {
            import_both(seal_on(builder, honest_txs(nonces, seed_base),
                                ts += 100, on_a ? 60 : 61));
        }
    }
    EXPECT_GT(reorgs, 2u) << "the stream no longer switches branches";
    EXPECT_GT(forged_rejections, 5u) << "the stream no longer forges";
}

TEST(IntrinsicGas, ChargesPerByte) {
    GasSchedule schedule;
    Transaction tx;
    tx.data = Bytes{0, 0, 1, 2};
    EXPECT_EQ(intrinsic_gas(schedule, tx),
              21'000u + 2 * 4 + 2 * 16);
}

}  // namespace
}  // namespace bcfl::chain
