#include "fl/task.hpp"

#include "common/error.hpp"
#include "ml/loss.hpp"
#include "ml/optimizer.hpp"

namespace bcfl::fl {

namespace {

class SimpleNnModel final : public FlModel {
public:
    SimpleNnModel(const ml::InputDims& dims, std::uint64_t seed,
                  std::size_t hidden)
        : model_(ml::make_simple_nn(dims, seed, hidden)) {}

    std::vector<float> weights() override { return model_.flat_weights(); }
    void set_weights(std::span<const float> weights) override {
        model_.set_flat_weights(weights);
    }
    void train_local(const ml::Dataset& data,
                     const ml::TrainConfig& config) override {
        ml::Sgd sgd(config.sgd);
        ml::train(model_, data, config, sgd);
    }
    double evaluate(const ml::Dataset& data) override {
        return ml::evaluate_accuracy(model_, data);
    }
    std::size_t weight_count() override { return model_.parameter_count(); }

private:
    ml::Sequential model_;
};

/// Shared frozen backbone weights + a trainable head.
class EffnetHeadModel final : public FlModel {
public:
    EffnetHeadModel(std::shared_ptr<const std::vector<float>> backbone_weights,
                    std::size_t embed_dim, std::size_t classes,
                    std::uint64_t head_seed)
        : backbone_weights_(std::move(backbone_weights)) {
        Rng rng(head_seed);
        head_.add(std::make_unique<ml::Dense>(embed_dim, classes, rng));
    }

    std::vector<float> weights() override {
        std::vector<float> out = *backbone_weights_;
        const std::vector<float> head = head_.flat_weights();
        out.insert(out.end(), head.begin(), head.end());
        return out;
    }

    void set_weights(std::span<const float> weights) override {
        const std::size_t backbone_count = backbone_weights_->size();
        if (weights.size() != backbone_count + head_.parameter_count()) {
            throw ShapeError("effnet: bad flat weight length");
        }
        // The backbone is frozen and identical across peers; only the head
        // segment is loaded.
        head_.set_flat_weights(weights.subspan(backbone_count));
    }

    void train_local(const ml::Dataset& data,
                     const ml::TrainConfig& config) override {
        ml::Sgd sgd(config.sgd);
        ml::train(head_, data, config, sgd);
    }

    double evaluate(const ml::Dataset& data) override {
        return ml::evaluate_accuracy(head_, data);
    }

    std::size_t weight_count() override {
        return backbone_weights_->size() + head_.parameter_count();
    }

private:
    std::shared_ptr<const std::vector<float>> backbone_weights_;
    ml::Sequential head_;
};

ml::InputDims dims_of(const ml::FederatedData& data) {
    ml::InputDims dims;
    dims.channels = data.config.channels;
    dims.height = data.config.height;
    dims.width = data.config.width;
    dims.classes = data.config.classes;
    return dims;
}

}  // namespace

FlTask make_simple_nn_task(const ml::FederatedData& data,
                           std::uint64_t model_seed, std::size_t hidden) {
    FlTask task;
    task.model_name = "SimpleNN";
    task.clients = data.client_train.size();
    task.client_train = data.client_train;
    task.client_test = data.client_test;
    task.aggregator_test = data.global_test;
    const ml::InputDims dims = dims_of(data);
    task.make_model = [dims, model_seed, hidden] {
        return std::make_unique<SimpleNnModel>(dims, model_seed, hidden);
    };
    task.train_template.epochs = 5;
    task.train_template.batch_size = 32;
    task.train_template.sgd.learning_rate = 0.05f;
    task.train_template.sgd.momentum = 0.9f;
    task.train_template.sgd.weight_decay = 1e-4f;
    return task;
}

FlTask make_effnet_task(const ml::FederatedData& data,
                        std::uint64_t model_seed,
                        const EffnetTaskOptions& options) {
    const ml::InputDims dims = dims_of(data);

    // Pre-train the full network on the source domain ("ImageNet" stand-in).
    ml::EffNetLite net = ml::make_effnet_lite(dims, model_seed);
    {
        const ml::Dataset pretrain = ml::make_pretrain_dataset(
            data.config, options.pretrain_samples, options.pretrain_seed);
        // Train backbone+head jointly: one Sequential view is not available,
        // so run manual joint steps.
        ml::TrainConfig config;
        config.epochs = options.pretrain_epochs;
        config.batch_size = 32;
        config.sgd.learning_rate = 0.04f;
        config.shuffle_seed = options.pretrain_seed;
        ml::Sgd backbone_sgd(config.sgd);
        ml::Sgd head_sgd(config.sgd);
        Rng rng(options.pretrain_seed);
        std::vector<std::size_t> order(pretrain.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
            rng.shuffle(std::span<std::size_t>(order));
            for (std::size_t begin = 0; begin < pretrain.size();
                 begin += config.batch_size) {
                const std::size_t end =
                    std::min(begin + config.batch_size, pretrain.size());
                const ml::Dataset batch = pretrain.subset(
                    {order.begin() + static_cast<std::ptrdiff_t>(begin),
                     order.begin() + static_cast<std::ptrdiff_t>(end)});
                const ml::Tensor features =
                    net.backbone.forward(batch.images, true);
                const ml::Tensor logits = net.head.forward(features, true);
                const ml::LossResult loss =
                    ml::softmax_cross_entropy(logits, batch.labels);
                // Backward through head, then backbone; the backbone's
                // input gradient is never computed.
                ml::Tensor grad = loss.grad_logits;
                for (std::size_t li = net.head.layer_count(); li-- > 0;) {
                    grad = net.head.layer(li).backward(grad);
                }
                net.backbone.backward(grad);
                head_sgd.step(net.head.parameters(), net.head.gradients());
                backbone_sgd.step(net.backbone.parameters(),
                                  net.backbone.gradients());
            }
        }
    }

    // Freeze: capture backbone weights and embed every dataset once.
    auto backbone_weights =
        std::make_shared<const std::vector<float>>(net.backbone.flat_weights());
    FlTask task;
    task.model_name = "EffNet-B0-lite";
    task.clients = data.client_train.size();
    for (const ml::Dataset& d : data.client_train) {
        task.client_train.push_back(ml::embed_dataset(net, d));
    }
    for (const ml::Dataset& d : data.client_test) {
        task.client_test.push_back(ml::embed_dataset(net, d));
    }
    task.aggregator_test = ml::embed_dataset(net, data.global_test);

    const std::size_t embed_dim = net.embed_dim;
    const std::size_t classes = dims.classes;
    task.make_model = [backbone_weights, embed_dim, classes, model_seed] {
        return std::make_unique<EffnetHeadModel>(backbone_weights, embed_dim,
                                                 classes, model_seed + 1);
    };
    task.train_template.epochs = 5;
    task.train_template.batch_size = 32;
    task.train_template.sgd.learning_rate = 0.08f;
    task.train_template.sgd.momentum = 0.9f;
    task.train_template.sgd.weight_decay = 1e-4f;
    return task;
}

}  // namespace bcfl::fl
