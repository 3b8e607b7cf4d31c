// Decorators over the library's public seams. Each forwards every call
// unchanged, so a run through them is byte-identical to a run without
// them; with a recorder they also time the call as a span.
//
//   traced_task       fl::FlTask::make_model -> ml.train / ml.eval /
//                     ml.weights_copy spans
//   ObservedTransport net::Transport -> node.*_recv spans keyed on the
//                     frame's leading kind byte, net.timer, net.loop and
//                     net.send spans, duplicate-delivery counts; it also
//                     keeps every distinct block frame the deployment
//                     sent (the chain replay's input). Its own per-frame
//                     work runs in trace.* spans, so it never counts as
//                     node or net time
//   TracedExecutor    chain::BlockExecutor -> vm.execute spans
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "chain/blockchain.hpp"
#include "fl/task.hpp"
#include "net/transport.hpp"
#include "node/executor.hpp"
#include "trace.hpp"

namespace perfbench {

/// A copy of `task` whose models record ml.* spans and sample counts on
/// the calling thread's current recorder.
[[nodiscard]] bcfl::fl::FlTask traced_task(const bcfl::fl::FlTask& task);

class ObservedTransport final : public bcfl::net::Transport {
public:
    /// `recorder` may be null: the transport then only collects block
    /// frames.
    ObservedTransport(bcfl::net::Transport& inner, Recorder* recorder)
        : inner_(inner), recorder_(recorder) {}

    bcfl::net::NodeId add_node(Receiver receiver) override;
    [[nodiscard]] std::size_t node_count() const override {
        return inner_.node_count();
    }
    void send(bcfl::net::NodeId from, bcfl::net::NodeId to,
              bcfl::Bytes message) override;
    void broadcast(bcfl::net::NodeId from,
                   const bcfl::Bytes& message) override;
    [[nodiscard]] bcfl::net::SimTime now() const override {
        return inner_.now();
    }
    void schedule_after(bcfl::net::NodeId node, bcfl::net::SimTime delay,
                        Handler handler) override;
    [[nodiscard]] bool online(bcfl::net::NodeId node) const override {
        return inner_.online(node);
    }
    [[nodiscard]] bcfl::net::TrafficStats stats() const override {
        return inner_.stats();
    }
    void start() override { inner_.start(); }
    void stop() override { inner_.stop(); }
    void run(const std::function<bool()>& done,
             bcfl::net::SimTime deadline) override;

    /// Every distinct block frame sent (kind byte included), in first-send
    /// order, handed over once. A node sends a block only once it holds
    /// the block's parent, so parents come before their children.
    [[nodiscard]] std::vector<bcfl::Bytes> take_block_frames() {
        return std::move(block_frames_);
    }

private:
    void deliver(std::size_t slot, bcfl::net::NodeId from,
                 const bcfl::Bytes& message, const Receiver& receiver);
    void collect(const bcfl::Bytes& message);

    bcfl::net::Transport& inner_;
    Recorder* recorder_;
    std::vector<std::unordered_set<std::uint64_t>> delivered_;  // per node
    std::unordered_set<std::uint64_t> sent_blocks_;
    std::vector<bcfl::Bytes> block_frames_;
};

class TracedExecutor final : public bcfl::chain::BlockExecutor {
public:
    TracedExecutor(std::shared_ptr<bcfl::node::VmBlockExecutor> inner,
                   Recorder* recorder)
        : inner_(std::move(inner)), recorder_(recorder) {}

    bcfl::chain::ExecutionResult execute(
        const bcfl::chain::BlockHeader& parent,
        const bcfl::chain::Block& block) override;

    /// Wall time of every execute call, in call order.
    [[nodiscard]] const std::vector<double>& call_ms() const {
        return call_ms_;
    }

private:
    std::shared_ptr<bcfl::node::VmBlockExecutor> inner_;
    Recorder* recorder_;
    std::vector<double> call_ms_;
};

/// A fixed-cost identity of a wire frame: its size and its first and last
/// 256 bytes. A block frame's first 256 bytes hold the whole sealed header
/// (at most 230 bytes with its RLP prefixes), and a transaction frame ends
/// in its signature, so distinct frames of either kind get distinct keys.
[[nodiscard]] std::uint64_t frame_key(const bcfl::Bytes& frame);

/// Leading kind byte of a node wire frame (node::Node's MsgKind).
inline constexpr std::uint8_t kFrameTx = 1;
inline constexpr std::uint8_t kFrameBlock = 2;
inline constexpr std::uint8_t kFrameGetBlock = 3;

}  // namespace perfbench
