// Canonical experiment configuration reproducing the paper's setup shapes.
//
// Calibrated so that (on the synthetic CIFAR substitute):
//   * Simple NN climbs slowly (~0.37 -> ~0.57 over ten rounds), like the
//     paper's 0.22 -> 0.60 curve;
//   * EffNet-lite (transfer learning) starts high (~0.81) and plateaus
//     (~0.83), like the paper's 0.80 -> 0.86;
//   * EffNet-lite consistently beats Simple NN, and aggregation combos
//     separate in the decentralized tables.
//
// The scenario engine's defaults and the Table I-IV benches draw from
// these helpers so that every experiment runs one coherent deployment, as
// in the paper.
#pragma once

#include "core/experiment.hpp"
#include "fl/task.hpp"
#include "ml/data.hpp"

namespace bcfl::core {

/// The shared dataset configuration (synthetic CIFAR-10 stand-in).
inline ml::SyntheticCifarConfig paper_data_config() {
    ml::SyntheticCifarConfig config;
    config.train_per_client = 600;
    config.test_per_client = 400;
    config.global_test = 1000;
    // Near-IID split (the paper partitions CIFAR-10 across three VMs without
    // an explicit skew mechanism); collaboration must beat solo training.
    config.dirichlet_alpha = 30.0;
    config.noise_std = 0.6;
    config.contrast_jitter = 0.45f;
    config.brightness_jitter = 0.3f;
    config.shift_jitter = 0.35f;
    config.seed = 2024;
    return config;
}

/// Simple NN task with the calibrated learning rate. `hidden` (default: the
/// calibrated width) shrinks the MLP for large-roster scaling scenarios.
inline fl::FlTask paper_simple_task(const ml::FederatedData& data,
                                    std::size_t hidden = 96) {
    fl::FlTask task = fl::make_simple_nn_task(data, /*model_seed=*/1, hidden);
    task.train_template.sgd.learning_rate = 0.015f;
    return task;
}

/// EffNet-B0-lite task (transfer learning: pretrained frozen backbone).
inline fl::FlTask paper_effnet_task(const ml::FederatedData& data) {
    fl::EffnetTaskOptions options;
    options.pretrain_samples = 4000;
    options.pretrain_epochs = 6;
    return fl::make_effnet_task(data, /*model_seed=*/1, options);
}

/// Decentralized deployment parameters mirroring the paper's three-VM
/// private Ethereum (PoW, ~6 s block target, LAN links).
inline DecentralizedConfig paper_chain_config() {
    DecentralizedConfig config;
    config.peers = 3;
    config.rounds = 10;
    // The paper's default mode expressed through the policy factory:
    // synchronous aggregation with the asynchronous safety valve, and the
    // personalized "consider" combination search.
    config.wait_policy = "wait_all,timeout=900s";
    config.aggregation = "best_combination";
    config.train_duration = net::seconds(45);
    config.train_cpu_load = 0.8;
    config.chunk_bytes = 64 * 1024;
    config.initial_difficulty = 1200;
    config.min_difficulty = 64;
    config.target_interval_ms = 6'000;
    config.hash_rate_per_node = 200.0;
    config.seed = 7;
    return config;
}

}  // namespace bcfl::core
