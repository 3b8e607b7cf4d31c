// Tests for the benchmark itself: the seams are transparent (a run through
// the decorators is byte-identical to one without them), and the
// percentile and self-time arithmetic is right.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/experiment.hpp"
#include "core/paper_setup.hpp"
#include "net/sim_transport.hpp"
#include "seams.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace bcfl;

TEST(Percentile, InterpolatesBetweenClosestRanks) {
    EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 0.99), 7.0);
    std::vector<double> hundred_and_one;
    for (int i = 0; i <= 100; ++i) hundred_and_one.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(hundred_and_one, 0.99), 99.0);
    EXPECT_DOUBLE_EQ(median({1.0, 10.0, 100.0}), 10.0);
    EXPECT_THROW((void)percentile({}, 0.5), std::invalid_argument);
}

TEST(SpanStack, SelfTimeExcludesDirectChildrenOnly) {
    SpanStack stack;
    stack.open("outer", 0);
    stack.open("child", 10);
    stack.open("grandchild", 12);
    const SpanStack::Closed grandchild = stack.close(18);
    const SpanStack::Closed child = stack.close(30);
    stack.open("second_child", 40);
    const SpanStack::Closed second = stack.close(45);
    const SpanStack::Closed outer = stack.close(100);

    EXPECT_EQ(grandchild.dur_ns, 6);
    EXPECT_EQ(grandchild.self_ns, 6);
    EXPECT_EQ(child.dur_ns, 20);
    EXPECT_EQ(child.self_ns, 14);  // 20 minus the grandchild's 6
    EXPECT_EQ(second.self_ns, 5);
    EXPECT_EQ(outer.dur_ns, 100);
    EXPECT_EQ(outer.self_ns, 75);  // 100 minus 20 and 5, not the grandchild
    EXPECT_TRUE(stack.empty());
    EXPECT_THROW((void)stack.close(101), std::logic_error);
}

TEST(Recorder, MergeAddsLayersAndCounters) {
    Recorder a(1, false);
    Recorder b(2, true);
    a.open("x.op");
    a.close();
    a.count("x.items", 2.0);
    b.open("x.op");
    b.close();
    b.count("x.items", 3.0);
    a.merge(b);
    EXPECT_EQ(a.layer("x.op").calls, 2U);
    EXPECT_DOUBLE_EQ(a.counter("x.items"), 5.0);
    EXPECT_EQ(a.events().size(), 1U);  // only b kept its event
    EXPECT_EQ(a.layer("absent").calls, 0U);
}

core::DecentralizedConfig mini_config() {
    core::DecentralizedConfig config;
    config.rounds = 2;
    config.train_duration = net::seconds(5);
    config.initial_difficulty = 300;
    config.min_difficulty = 64;
    config.target_interval_ms = 2000;
    config.hash_rate_per_node = 300.0;
    config.chunk_bytes = 16 * 1024;
    config.threads = 1;  // every model call on the recording thread
    return config;
}

fl::FlTask mini_task() {
    ml::SyntheticCifarConfig data = core::paper_data_config();
    data.clients = 3;
    data.train_per_client = 40;
    data.test_per_client = 20;
    data.global_test = 40;
    data.height = 8;
    data.width = 8;
    return core::paper_simple_task(ml::make_synthetic_cifar(data), 8);
}

TEST(Seams, DecoratedRunIsByteIdentical) {
    const fl::FlTask task = mini_task();
    const core::DecentralizedConfig config = mini_config();
    const core::DecentralizedResult plain =
        core::run_decentralized(task, config);

    Recorder recorder(0, true);
    const RecorderScope scope(&recorder);
    net::SimTransport sim(config.link, config.conditions, config.seed);
    ObservedTransport observed(sim, &recorder);
    const core::DecentralizedResult traced =
        core::run_decentralized(traced_task(task), config, observed);

    EXPECT_EQ(result_digest(plain), result_digest(traced));
    const net::TrafficStats& a = plain.traffic;
    const net::TrafficStats& b = traced.traffic;
    EXPECT_EQ(a.messages_sent, b.messages_sent);
    EXPECT_EQ(a.messages_delivered, b.messages_delivered);
    EXPECT_EQ(a.messages_dropped, b.messages_dropped);
    EXPECT_EQ(a.dropped_partition, b.dropped_partition);
    EXPECT_EQ(a.dropped_offline, b.dropped_offline);
    EXPECT_EQ(a.dropped_invalid, b.dropped_invalid);
    EXPECT_EQ(a.bytes_sent, b.bytes_sent);

    // The spans saw every layer the deployment crosses.
    EXPECT_EQ(recorder.layer("ml.train").calls, 3U * config.rounds);
    EXPECT_GT(recorder.layer("ml.eval").calls, 0U);
    EXPECT_GT(recorder.layer("node.tx_recv").calls, 0U);
    EXPECT_GT(recorder.layer("node.block_recv").calls, 0U);
    EXPECT_GT(recorder.layer("net.timer").calls, 0U);
    EXPECT_EQ(recorder.layer("net.loop").calls, 1U);
    // Self time never exceeds the span.
    const LayerStat loop = recorder.layer("net.loop");
    EXPECT_LE(loop.self_ns, loop.total_ns);
    EXPECT_FALSE(observed.take_block_frames().empty());
    // The benchmark's own bookkeeping ran in its own spans.
    EXPECT_EQ(recorder.layer("trace.dedup").calls,
              b.messages_delivered);
    EXPECT_GT(recorder.layer("trace.collect").calls, 0U);
}

TEST(Seams, FrameKeySeesTheWholeHeader) {
    chain::Block block;
    block.transactions.push_back(chain::Transaction::make_signed(
        crypto::KeyPair::from_seed(1), 0, Address{}, 100'000, 1,
        Bytes(100'000, 7)));
    // The largest header the encoding allows.
    block.header.number = ~std::uint64_t{0};
    block.header.difficulty = ~std::uint64_t{0};
    block.header.timestamp_ms = ~std::uint64_t{0};
    block.header.gas_limit = ~std::uint64_t{0};
    block.header.gas_used = ~std::uint64_t{0};
    block.header.pow_nonce = ~std::uint64_t{0};
    Bytes frame{kFrameBlock};
    append(frame, block.encode());
    const std::uint64_t key = frame_key(frame);
    // Only the seal differs, and it is the header's last field.
    block.header.pow_nonce = ~std::uint64_t{0} - 1;
    Bytes resealed{kFrameBlock};
    append(resealed, block.encode());
    ASSERT_EQ(frame.size(), resealed.size());
    EXPECT_NE(key, frame_key(resealed));
    EXPECT_EQ(key, frame_key(frame));
}

TEST(Seams, ChainPipelineReplaysDeploymentTraffic) {
    const fl::FlTask task = mini_task();
    const core::DecentralizedConfig config = mini_config();
    net::SimTransport sim(config.link, config.conditions, config.seed);
    ObservedTransport observed(sim, nullptr);
    (void)core::run_decentralized(task, config, observed);

    ChainInput input;
    input.config = deployment_chain_config(config);
    input.blocks = decode_blocks(observed.take_block_frames());

    PassResult plain;
    std::vector<Hash32> plain_heads;
    run_chain(input, nullptr, plain, plain_heads);
    EXPECT_EQ(plain.checks.failed, 0U)
        << (plain.checks.failures.empty() ? ""
                                          : plain.checks.failures.front());
    // Every canonical block is rebuilt and imported, and a canonical block
    // was sent once, so no more are replayed than the deployment sent.
    EXPECT_EQ(plain.import_ms.size(), plain.build_ms.size());
    EXPECT_GE(plain.build_ms.size(), 2U);
    EXPECT_LE(plain.build_ms.size(), input.blocks.size());
    EXPECT_EQ(plain.reorg_ms.size(), 1U);

    Recorder recorder(0, false);
    PassResult traced;
    std::vector<Hash32> traced_heads;
    run_chain(input, &recorder, traced, traced_heads);
    EXPECT_EQ(traced.checks.failed, 0U);
    EXPECT_EQ(plain_heads, traced_heads);
    // The reorging import executes only the block that tips the weight.
    EXPECT_DOUBLE_EQ(recorder.counter("chain.reorg_exec_calls"), 1.0);
    EXPECT_GE(recorder.counter("chain.seal_attempts"),
              static_cast<double>(traced.build_ms.size()));
}

}  // namespace
}  // namespace perfbench
