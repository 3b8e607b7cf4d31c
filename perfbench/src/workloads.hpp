// The benchmark's workloads. Each is a closed loop over a fixed input:
// `setup` builds the input from the seed once, then main.cpp runs
// `pass` back to back until its time budget is spent. A pass runs the
// workload to completion and checks its outputs.
//
//   paper_tradeoff        scenarios/paper_tradeoff.json as committed
//   paper_tradeoff_effnet the same spec with the EffNet model
//
// Each grid point's deployment is followed by the chain pipeline
// (run_chain) over the blocks that deployment mined: a miner chain
// rebuilds and seals its canonical chain, a validator chain imports the
// result, and a heavier fork makes the miner reorg.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "chain/blockchain.hpp"
#include "chain/types.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "fl/task.hpp"
#include "trace.hpp"

namespace perfbench {

/// Output checks: each is one attempted operation that may fail.
struct Checks {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;  // first few, for the log

    void check(bool ok, const std::string& what);
    void add(const Checks& other);
};

/// Outputs and timings of one pass.
struct PassResult {
    /// keccak over every deterministic output of the pass.
    bcfl::Hash32 digest;
    Checks checks;

    double wall_ms = 0.0;
    /// Peer-rounds completed, and the wall time they took (for a grid
    /// sweep, the slowest point's deployment).
    double peer_rounds = 0.0;
    double peer_rounds_ms = 0.0;
    std::vector<double> build_ms;
    std::vector<double> import_ms;
    std::vector<double> reorg_ms;

    // Traced passes only.
    double grid_busy_ratio = 0.0;
    /// Per chain: the validator's mean execute time for the last eighth
    /// of the empty blocks on its chain divided by that for the first
    /// eighth (chains without empty blocks add nothing).
    std::vector<double> execute_late_vs_early;

    void check(bool ok, const std::string& what) { checks.check(ok, what); }
};

/// A deployment's blocks and the chain rules they were mined under.
///
/// The canonical chain is the heaviest branch of `blocks` (the first one
/// sent wins a tie, as in chain::Blockchain). A miner rebuilds it block by
/// block from each block's own coinbase, transactions and timestamp, and
/// seals each from nonce 0. A validator imports the older half of the
/// rebuilt blocks, then mines a branch that re-includes the transactions
/// of the newer half (same timestamps, another coinbase) plus one empty
/// block, and imports the miner's newer half onto a side branch. Finally
/// the miner imports the validator's branch, which outweighs its own tip
/// by that extra block and forces a reorg.
struct ChainInput {
    bcfl::chain::ChainConfig config;
    /// Distinct blocks in first-send order (parents before children).
    std::vector<bcfl::chain::Block> blocks;
};

/// The chain rules core::run_decentralized gives every node of `config`.
[[nodiscard]] bcfl::chain::ChainConfig deployment_chain_config(
    const bcfl::core::DecentralizedConfig& config);

/// Decodes block frames as ObservedTransport::take_block_frames returns
/// them.
[[nodiscard]] std::vector<bcfl::chain::Block> decode_blocks(
    const std::vector<bcfl::Bytes>& frames);

/// Runs the pipeline, appending its timings, checks and head hash to
/// `out` (the hash into `heads`).
void run_chain(const ChainInput& input, Recorder* recorder, PassResult& out,
               std::vector<bcfl::Hash32>& heads);

/// keccak over every field of a deployment result.
[[nodiscard]] bcfl::Hash32 result_digest(
    const bcfl::core::DecentralizedResult& result);

struct WorkloadOptions {
    std::string name;
    std::uint64_t seed = 0;
    std::string root;        // checkout root (scenario specs live there)
    std::size_t width = 4;   // core/parallel engine width
};

/// scenarios/paper_tradeoff.json, with the EffNet model for
/// paper_tradeoff_effnet; its data seed offset by the seed.
class Workload {
public:
    /// Throws std::invalid_argument for an unknown name.
    explicit Workload(WorkloadOptions options);
    /// Builds the inputs; main.cpp times this as setup_s.
    void setup(Recorder* recorder);
    /// One run to completion. A non-null recorder traces it.
    PassResult pass(Recorder* recorder);
    /// The pass digest recorded for seed 0 (hex).
    [[nodiscard]] const std::string& recorded_digest() const {
        return recorded_;
    }

private:
    WorkloadOptions options_;
    std::string recorded_;
    bcfl::core::ScenarioSpec spec_;
    std::vector<bcfl::core::ScenarioPoint> points_;
    bcfl::fl::FlTask task_;
    /// The task with traced models, made by the first traced pass.
    std::optional<bcfl::fl::FlTask> traced_;
};

}  // namespace perfbench
