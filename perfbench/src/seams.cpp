#include "seams.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace perfbench {

namespace {

using namespace bcfl;

// Records on the calling thread's current recorder, so a model used from
// an engine worker thread (which has none) never touches another thread's
// spans.
class TracedModel final : public fl::FlModel {
public:
    explicit TracedModel(std::unique_ptr<fl::FlModel> inner)
        : inner_(std::move(inner)) {}

    std::vector<float> weights() override {
        const Span span(current_recorder(), "ml.weights_copy");
        return inner_->weights();
    }
    void set_weights(std::span<const float> weights) override {
        const Span span(current_recorder(), "ml.weights_copy");
        inner_->set_weights(weights);
    }
    void train_local(const ml::Dataset& data,
                     const ml::TrainConfig& config) override {
        Recorder* recorder = current_recorder();
        if (recorder != nullptr) {
            recorder->count("ml.train_samples",
                            static_cast<double>(data.size()));
        }
        const Span span(recorder, "ml.train");
        inner_->train_local(data, config);
    }
    double evaluate(const ml::Dataset& data) override {
        Recorder* recorder = current_recorder();
        if (recorder != nullptr) {
            recorder->count("ml.eval_samples",
                            static_cast<double>(data.size()));
        }
        const Span span(recorder, "ml.eval");
        return inner_->evaluate(data);
    }
    std::size_t weight_count() override { return inner_->weight_count(); }

private:
    std::unique_ptr<fl::FlModel> inner_;
};

}  // namespace

std::uint64_t frame_key(const Bytes& frame) {
    constexpr std::size_t kEdge = 256;
    const auto view = [&](std::size_t begin, std::size_t size) {
        return std::string_view(
            reinterpret_cast<const char*>(frame.data()) + begin, size);
    };
    const std::size_t edge = std::min(frame.size(), kEdge);
    const std::hash<std::string_view> hash;
    return hash(view(0, edge)) ^
           (hash(view(frame.size() - edge, edge)) * 0x9e3779b97f4a7c15ull) ^
           (frame.size() * 0xc2b2ae3d27d4eb4full);
}

fl::FlTask traced_task(const fl::FlTask& task) {
    fl::FlTask traced = task;
    traced.make_model = [inner = task.make_model] {
        return std::make_unique<TracedModel>(inner());
    };
    return traced;
}

net::NodeId ObservedTransport::add_node(Receiver receiver) {
    const std::size_t slot = delivered_.size();
    delivered_.emplace_back();
    const net::NodeId id = inner_.add_node(
        [this, slot, receiver = std::move(receiver)](
            net::NodeId from, const Bytes& message) {
            deliver(slot, from, message, receiver);
        });
    // Ids are dense in registration order (the Transport contract).
    if (id != slot) throw std::logic_error("ObservedTransport: sparse ids");
    return id;
}

void ObservedTransport::deliver(std::size_t slot, net::NodeId from,
                                const Bytes& message,
                                const Receiver& receiver) {
    if (recorder_ == nullptr || message.empty()) {
        receiver(from, message);
        return;
    }
    struct Names {
        const char* span;
        const char* bytes;
        const char* dup;
    };
    static constexpr Names kTx{"node.tx_recv", "node.tx_recv_bytes",
                               "node.tx_dup"};
    static constexpr Names kBlock{"node.block_recv", "node.block_recv_bytes",
                                  "node.block_dup"};
    static constexpr Names kGetBlock{"node.get_block_recv",
                                     "node.get_block_recv_bytes",
                                     "node.get_block_dup"};
    static constexpr Names kOther{"node.other_recv", "node.other_recv_bytes",
                                  "node.other_dup"};
    const Names& names = message[0] == kFrameTx          ? kTx
                         : message[0] == kFrameBlock     ? kBlock
                         : message[0] == kFrameGetBlock ? kGetBlock
                                                         : kOther;
    {
        // The benchmark's own bookkeeping, kept out of net.loop self time.
        const Span bookkeeping(recorder_, "trace.dedup");
        recorder_->count(names.bytes, static_cast<double>(message.size()));
        if (!delivered_[slot].insert(frame_key(message)).second) {
            recorder_->count(names.dup, 1.0);
        }
    }
    const Span timed(recorder_, names.span);
    receiver(from, message);
}

void ObservedTransport::collect(const Bytes& message) {
    // Every relay re-sends a block, so most calls stop at the key lookup.
    if (message.size() < 2 || message[0] != kFrameBlock) return;
    const Span span(recorder_, "trace.collect");
    if (sent_blocks_.insert(frame_key(message)).second) {
        block_frames_.push_back(message);
    }
}

void ObservedTransport::send(net::NodeId from, net::NodeId to,
                             Bytes message) {
    collect(message);
    const Span span(recorder_, "net.send");
    inner_.send(from, to, std::move(message));
}

void ObservedTransport::broadcast(net::NodeId from, const Bytes& message) {
    collect(message);
    const Span span(recorder_, "net.send");
    inner_.broadcast(from, message);
}

void ObservedTransport::schedule_after(net::NodeId node, net::SimTime delay,
                                       Handler handler) {
    if (recorder_ == nullptr) {
        inner_.schedule_after(node, delay, std::move(handler));
        return;
    }
    inner_.schedule_after(
        node, delay,
        [recorder = recorder_, handler = std::move(handler)] {
            const Span span(recorder, "net.timer");
            handler();
        });
}

void ObservedTransport::run(const std::function<bool()>& done,
                            net::SimTime deadline) {
    const Span span(recorder_, "net.loop");
    inner_.run(done, deadline);
}

chain::ExecutionResult TracedExecutor::execute(
    const chain::BlockHeader& parent, const chain::Block& block) {
    const std::int64_t begin = now_ns();
    chain::ExecutionResult result;
    {
        const Span span(recorder_, "vm.execute");
        result = inner_->execute(parent, block);
    }
    call_ms_.push_back(ms_between(begin, now_ns()));
    return result;
}

}  // namespace perfbench
