// E1 — Table I + Figure 3: Vanilla (centralized) FL, clients' test accuracy
// under the two aggregation policies ("consider" vs "not consider"), for the
// Simple NN and the EfficientNet-B0-lite transfer-learning model.
//
// Paper shape to reproduce:
//   * Simple NN climbs slowly from ~0.22-0.28 to ~0.60; the two policies end
//     within ~1 point of each other ("consider" slightly ahead).
//   * Efficient-B0 starts high (~0.80, thanks to transfer learning) and
//     plateaus ~0.85-0.86 with small fluctuations between the policies.
//
// Emits BENCH_table1_fig3_vanilla_fl.json: one point per
// (model, policy, client) with the full accuracy curve, plus the
// serial-vs-parallel wall time of a vanilla "consider" round (per-client
// training fan-out + 2^n-1 combination scoring run through core/parallel)
// and the fingerprint proving the engine changes nothing but the clock.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/paper_setup.hpp"
#include "core/parallel.hpp"
#include "fl/task.hpp"
#include "fl/vanilla.hpp"

namespace {

using namespace bcfl;
namespace parallel = core::parallel;

ml::FederatedData benchmark_data() {
    return ml::make_synthetic_cifar(core::paper_data_config());
}

struct ModelBlock {
    std::string model_name;
    fl::VanillaResult consider;
    fl::VanillaResult not_consider;
    std::size_t clients = 0;
    std::size_t rounds = 0;
};

ModelBlock run_table1_block(const std::string& model_name,
                            const fl::FlTask& task, std::size_t rounds) {
    fl::VanillaConfig consider;
    consider.rounds = rounds;
    consider.mode = fl::AggregationMode::consider;
    fl::VanillaConfig vanilla = consider;
    vanilla.mode = fl::AggregationMode::not_consider;

    ModelBlock block;
    block.model_name = model_name;
    block.clients = task.clients;
    block.rounds = rounds;
    block.consider = run_vanilla(task, consider);
    block.not_consider = run_vanilla(task, vanilla);

    bench::print_title("Table I block — " + model_name +
                       " (clients' test accuracy per round)");
    bench::print_round_header("client/policy", rounds);
    for (std::size_t c = 0; c < task.clients; ++c) {
        const std::string client(1, static_cast<char>('A' + c));
        std::vector<double> consider_row, plain_row;
        for (std::size_t r = 0; r < rounds; ++r) {
            consider_row.push_back(block.consider.rounds[r].client_accuracy[c]);
            plain_row.push_back(
                block.not_consider.rounds[r].client_accuracy[c]);
        }
        bench::print_row(client + " consider", consider_row);
        bench::print_row(client + " not-cons.", plain_row);
    }

    std::printf("\nFigure 3 series (%s): per-client accuracy curves are the "
                "rows above;\nfinal-round gap (consider - not consider): ",
                model_name.c_str());
    double gap = 0.0;
    for (std::size_t c = 0; c < task.clients; ++c) {
        gap += block.consider.rounds[rounds - 1].client_accuracy[c] -
               block.not_consider.rounds[rounds - 1].client_accuracy[c];
    }
    std::printf("%+.4f (mean over clients)\n", gap / double(task.clients));

    std::printf("chosen combinations (consider): ");
    for (std::size_t r = 0; r < rounds; ++r) {
        std::printf("%s%s", r ? " " : "",
                    fl::combination_label(block.consider.rounds[r].chosen,
                                          "ABC")
                        .c_str());
    }
    std::printf("\n");
    return block;
}

void append_points(bench::Json& points, const ModelBlock& block) {
    const auto policy_points = [&](const fl::VanillaResult& result,
                                   const char* policy) {
        for (std::size_t c = 0; c < block.clients; ++c) {
            bench::Json point = bench::Json::object();
            point.set("model", block.model_name);
            point.set("policy", policy);
            point.set("client",
                      std::string(1, static_cast<char>('A' + c)));
            bench::Json curve = bench::Json::array();
            for (std::size_t r = 0; r < block.rounds; ++r) {
                curve.push(result.rounds[r].client_accuracy[c]);
            }
            point.set("accuracy_per_round", std::move(curve));
            point.set("final_accuracy",
                      result.rounds[block.rounds - 1].client_accuracy[c]);
            points.push(std::move(point));
        }
    };
    policy_points(block.consider, "consider");
    policy_points(block.not_consider, "not_consider");
}

std::string accuracy_fingerprint(const fl::VanillaResult& result) {
    std::string out;
    for (const fl::VanillaRound& round : result.rounds) {
        for (double accuracy : round.client_accuracy) {
            core::append_fingerprint(out, accuracy);
        }
    }
    return out;
}

void BM_Table1_Fig3(benchmark::State& state) {
    const auto data = benchmark_data();
    const fl::FlTask simple_task = core::paper_simple_task(data);
    const fl::FlTask effnet_task = core::paper_effnet_task(data);

    for (auto _ : state) {
        const ModelBlock simple = run_table1_block("Simple NN", simple_task, 10);
        const ModelBlock effnet = run_table1_block(
            "Efficient-B0 (lite, transfer learning)", effnet_task, 10);

        // Serial vs parallel engine on a short "consider" run: per-client
        // training fans out across workers, and every round scores all
        // 2^n - 1 combinations concurrently. Accuracies must not move.
        fl::VanillaConfig speed_config;
        speed_config.rounds = 2;
        speed_config.mode = fl::AggregationMode::consider;
        fl::VanillaResult serial_run;
        fl::VanillaResult parallel_run;
        double serial_ms = 0.0;
        double parallel_ms = 0.0;
        {
            const parallel::ThreadCountOverride pin(1);
            serial_ms = bench::best_wall_ms(
                1, [&] { serial_run = run_vanilla(simple_task, speed_config); });
        }
        parallel_ms = bench::best_wall_ms(
            1, [&] { parallel_run = run_vanilla(simple_task, speed_config); });
        const std::string serial_fp = accuracy_fingerprint(serial_run);
        const std::string parallel_fp = accuracy_fingerprint(parallel_run);
        std::printf(
            "\nparallel engine (Simple NN, 2-round consider): "
            "%.0f ms -> %.0f ms (speedup %.2fx, accuracies %s)\n",
            serial_ms, parallel_ms, serial_ms / parallel_ms,
            serial_fp == parallel_fp ? "identical" : "DIVERGED");

        bench::Json json = bench::Json::object();
        json.set("bench", "table1_fig3_vanilla_fl");
        json.set("rounds", std::uint64_t{10});
        json.set("threads_parallel",
                 static_cast<std::uint64_t>(parallel::thread_count()));
        json.set("serial_ms", serial_ms);
        json.set("parallel_ms", parallel_ms);
        json.set("serial_vs_parallel_speedup", serial_ms / parallel_ms);
        json.set("fitness_identical", serial_fp == parallel_fp);
        json.set("fitness_fingerprint", parallel_fp);
        bench::Json points = bench::Json::array();
        append_points(points, simple);
        append_points(points, effnet);
        json.set("points", std::move(points));
        bench::write_bench_json("table1_fig3_vanilla_fl", json);
    }
}

}  // namespace

BENCHMARK(BM_Table1_Fig3)->Unit(benchmark::kSecond)->Iterations(1);
BENCHMARK_MAIN();
