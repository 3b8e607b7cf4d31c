#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "chain/blockchain.hpp"
#include "chain/pow.hpp"
#include "core/paper_setup.hpp"
#include "core/parallel.hpp"
#include "core/scenario.hpp"
#include "crypto/keccak.hpp"
#include "net/sim_transport.hpp"
#include "node/executor.hpp"
#include "node/node.hpp"
#include "seams.hpp"

namespace perfbench {

namespace {

using namespace bcfl;

constexpr std::uint64_t kMaxSealAttempts = 1ull << 32;

constexpr std::size_t kMaxLoggedFailures = 8;

// Output digests of each workload at seed 0, recorded from this code.
// Any change to the library's seeded behaviour shows up as a mismatch.
constexpr const char* kPaperTradeoffDigest =
    "d910a58e99db439eba4323308c0433d9ea1764e0453e3a253b5faf238add1fff";
constexpr const char* kPaperTradeoffEffnetDigest =
    "6542a8b64dd2ebf2695d76f34c40aa89dc11b90912dfc8a7744c7241381328af";

class DigestWriter {
public:
    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
        }
    }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void str(const std::string& s) {
        u64(s.size());
        append(bytes_, str_bytes(s));
    }
    void hash(const Hash32& h) { append(bytes_, h.view()); }
    [[nodiscard]] Hash32 digest() const { return crypto::keccak256(bytes_); }

private:
    Bytes bytes_;
};

}  // namespace

void Checks::check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < kMaxLoggedFailures) failures.push_back(what);
}

void Checks::add(const Checks& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& f : other.failures) {
        if (failures.size() < kMaxLoggedFailures) failures.push_back(f);
    }
}

chain::ChainConfig deployment_chain_config(
    const core::DecentralizedConfig& config) {
    chain::ChainConfig chain_config;
    chain_config.initial_difficulty = config.initial_difficulty;
    chain_config.min_difficulty = config.min_difficulty;
    chain_config.target_interval_ms = config.target_interval_ms;
    return chain_config;
}

std::vector<chain::Block> decode_blocks(const std::vector<Bytes>& frames) {
    std::vector<chain::Block> blocks;
    blocks.reserve(frames.size());
    for (const Bytes& frame : frames) {
        blocks.push_back(chain::Block::decode(BytesView(frame).subspan(1)));
    }
    return blocks;
}

namespace {

/// The heaviest branch of `blocks` by total difficulty, genesis excluded,
/// in height order. Ties go to the block sent first, as in
/// chain::Blockchain's fork choice.
std::vector<const chain::Block*> canonical_chain(
    const std::vector<chain::Block>& blocks) {
    struct Known {
        const chain::Block* block;
        std::uint64_t total_difficulty;
    };
    std::map<Hash32, Known> known;
    const Known* head = nullptr;
    for (const chain::Block& block : blocks) {
        const auto parent = known.find(block.header.parent_hash);
        const std::uint64_t parent_td =
            parent == known.end() ? 0 : parent->second.total_difficulty;
        const Known& added =
            known
                .emplace(block.hash(),
                         Known{&block, parent_td + block.header.difficulty})
                .first->second;
        if (head == nullptr || added.total_difficulty > head->total_difficulty) {
            head = &added;
        }
    }
    std::vector<const chain::Block*> chain;
    for (const Known* at = head; at != nullptr;) {
        chain.push_back(at->block);
        const auto parent = known.find(at->block->header.parent_hash);
        at = parent == known.end() ? nullptr : &parent->second;
    }
    std::reverse(chain.begin(), chain.end());
    return chain;
}

/// Whether `built` carries everything of `original` that its own chain
/// decides: all but the parent hash and the seal.
bool same_content(const chain::BlockHeader& built,
                  const chain::BlockHeader& original) {
    return built.number == original.number &&
           built.tx_root == original.tx_root &&
           built.state_root == original.state_root &&
           built.receipts_root == original.receipts_root &&
           built.miner == original.miner &&
           built.difficulty == original.difficulty &&
           built.timestamp_ms == original.timestamp_ms &&
           built.gas_limit == original.gas_limit &&
           built.gas_used == original.gas_used;
}

}  // namespace

void run_chain(const ChainInput& input, Recorder* recorder, PassResult& out,
               std::vector<Hash32>& heads) {
    const chain::ChainConfig& config = input.config;
    const auto miner_vm = std::make_shared<node::VmBlockExecutor>(config.gas);
    const auto validator_vm =
        std::make_shared<node::VmBlockExecutor>(config.gas);
    std::shared_ptr<TracedExecutor> traced_miner;
    std::shared_ptr<TracedExecutor> traced_validator;
    std::shared_ptr<chain::BlockExecutor> miner_exec = miner_vm;
    std::shared_ptr<chain::BlockExecutor> validator_exec = validator_vm;
    if (recorder != nullptr) {
        traced_miner = std::make_shared<TracedExecutor>(miner_vm, recorder);
        traced_validator =
            std::make_shared<TracedExecutor>(validator_vm, recorder);
        miner_exec = traced_miner;
        validator_exec = traced_validator;
    }
    chain::Blockchain miner(config, miner_exec);
    chain::Blockchain validator(config, validator_exec);
    miner_vm->register_genesis(miner.genesis().header,
                               node::Node::genesis_state());
    validator_vm->register_genesis(validator.genesis().header,
                                   node::Node::genesis_state());

    const std::vector<const chain::Block*> canonical =
        canonical_chain(input.blocks);
    const std::size_t blocks = canonical.size();
    // The reorg abandons the newer half of the chain, so what it replays
    // is an even share of the deployment's rounds whichever blocks carry
    // them.
    const std::size_t depth = blocks / 2;
    out.check(depth > 0, "chain: " + std::to_string(blocks) +
                             " blocks cannot host a fork");
    if (depth == 0) return;
    const std::size_t fork_parent = blocks - depth;
    const Address fork_address = crypto::KeyPair::from_seed(881).address();

    std::uint64_t seal_attempts = 0;
    const auto seal = [&](chain::Block& block) {
        const Span span(recorder, "chain.seal");
        const auto nonce =
            chain::mine_seal(block.header, 0, kMaxSealAttempts);
        if (!nonce.has_value()) return false;
        block.header.pow_nonce = *nonce;
        seal_attempts += *nonce + 1;
        return true;
    };
    const auto build = [&](chain::Blockchain& chain,
                           const Address& coinbase,
                           std::vector<chain::Transaction> txs,
                           std::uint64_t timestamp_ms) {
        const Span span(recorder, "chain.build");
        return chain.build_block(coinbase, std::move(txs), timestamp_ms);
    };
    const auto import = [&](chain::Blockchain& chain,
                            const chain::Block& block) {
        const Span span(recorder, "chain.import");
        return chain.import_block(block);
    };
    const auto timed_import = [&](const chain::Block& block,
                                  chain::ImportStatus expected) {
        const std::int64_t begin = now_ns();
        const chain::ImportResult result = import(validator, block);
        out.import_ms.push_back(ms_between(begin, now_ns()));
        out.check(result.status == expected,
                  "chain: validator import of block " +
                      std::to_string(block.header.number) + ": " +
                      (result.reason.empty() ? "unexpected status"
                                             : result.reason));
    };

    // Writer: the miner rebuilds, seals and imports every canonical block.
    // The seal is left out of build_ms: its attempts follow the seed's
    // difficulty schedule and nonce luck, not the chain code.
    std::vector<chain::Block> sealed;
    sealed.reserve(blocks);
    for (const chain::Block* original : canonical) {
        const chain::BlockHeader& header = original->header;
        const std::int64_t build_begin = now_ns();
        chain::Block block = build(miner, header.miner,
                                   original->transactions,
                                   header.timestamp_ms);
        const double build_ms = ms_between(build_begin, now_ns());
        const bool sealed_ok = seal(block);
        const std::int64_t import_begin = now_ns();
        const bool ok =
            sealed_ok &&
            import(miner, block).status == chain::ImportStatus::added_head;
        out.build_ms.push_back(build_ms +
                               ms_between(import_begin, now_ns()));
        out.check(ok && same_content(block.header, header),
                  "chain: miner could not rebuild block " +
                      std::to_string(header.number));
        sealed.push_back(std::move(block));
    }

    // Validator: imports the common prefix, mines a heavier branch of its
    // own on top of it, then imports the rest of the miner's blocks, which
    // now land on a side branch (validated and executed all the same).
    for (std::size_t b = 0; b < fork_parent; ++b) {
        timed_import(sealed[b], chain::ImportStatus::added_head);
    }
    std::vector<chain::Block> branch;
    for (std::size_t i = 0; i <= depth; ++i) {
        // Same timestamps give the same difficulties, so the extra empty
        // block on top is what makes the branch heavier.
        const bool extra = i == depth;
        const chain::BlockHeader& replaced =
            sealed[extra ? blocks - 1 : fork_parent + i].header;
        chain::Block block = build(
            validator, fork_address,
            extra ? std::vector<chain::Transaction>{}
                  : sealed[fork_parent + i].transactions,
            replaced.timestamp_ms + (extra ? config.target_interval_ms : 0));
        out.check(seal(block) && import(validator, block).status ==
                                     chain::ImportStatus::added_head,
                  "chain: validator could not extend its branch");
        branch.push_back(std::move(block));
    }
    for (std::size_t b = fork_parent; b < blocks; ++b) {
        timed_import(sealed[b], chain::ImportStatus::added_side);
    }

    // Reorg: the miner learns of the heavier branch and switches to it.
    std::size_t rejected = 0;
    bool reorged = false;
    std::size_t calls_before_switch = 0;
    const std::int64_t begin = now_ns();
    for (const chain::Block& block : branch) {
        if (traced_miner != nullptr) {
            calls_before_switch = traced_miner->call_ms().size();
        }
        const chain::ImportResult result = import(miner, block);
        rejected += result.status == chain::ImportStatus::rejected ? 1 : 0;
        reorged = result.reorged;
    }
    out.reorg_ms.push_back(ms_between(begin, now_ns()));
    out.check(rejected == 0 && reorged &&
                  miner.head_hash() == validator.head_hash(),
              "chain: reorg did not land on the fork tip (" +
                  std::to_string(rejected) + " rejected)");
    heads.push_back(miner.head_hash());

    if (recorder != nullptr) {
        recorder->count("chain.seal_attempts",
                        static_cast<double>(seal_attempts));
        recorder->count("chain.reorg_exec_calls",
                        static_cast<double>(traced_miner->call_ms().size() -
                                            calls_before_switch));
        // The validator's first `fork_parent` executions are its head
        // imports, in height order. Empty blocks execute no transactions,
        // so their cost is the executor's per-block state work alone.
        const std::vector<double>& calls = traced_validator->call_ms();
        std::vector<double> empty;
        for (std::size_t b = 0; b < fork_parent; ++b) {
            if (sealed[b].transactions.empty()) empty.push_back(calls[b]);
        }
        if (empty.empty()) return;
        const std::size_t eighth = std::max<std::size_t>(empty.size() / 8, 1);
        double early = 0.0;
        double late = 0.0;
        for (std::size_t i = 0; i < eighth; ++i) {
            early += empty[i];
            late += empty[empty.size() - eighth + i];
        }
        out.execute_late_vs_early.push_back(late / early);
    }
}

Hash32 result_digest(const core::DecentralizedResult& result) {
    DigestWriter w;
    w.u64(result.peer_records.size());
    for (const auto& records : result.peer_records) {
        w.u64(records.size());
        for (const core::PeerRoundRecord& r : records) {
            w.u64(r.round);
            w.u64(r.combos.size());
            for (const core::ComboAccuracy& c : r.combos) {
                w.u64(c.combo.size());
                for (std::size_t index : c.combo) w.u64(index);
                w.str(c.label);
                w.f64(c.accuracy);
                w.u64(c.available ? 1 : 0);
            }
            w.str(r.chosen_label);
            w.f64(r.chosen_accuracy);
            w.u64(r.models_available);
            w.u64(r.stale_models_used);
            w.u64(r.filtered_out.size());
            for (std::size_t index : r.filtered_out) w.u64(index);
            w.u64(r.timed_out ? 1 : 0);
            w.u64(r.round_started);
            w.u64(r.published_at);
            w.u64(r.aggregated_at);
        }
    }
    w.u64(result.finished_at);
    w.u64(result.chain_height);
    w.u64(result.total_reorgs);
    const net::TrafficStats& t = result.traffic;
    for (std::uint64_t v :
         {t.messages_sent, t.messages_delivered, t.messages_dropped,
          t.dropped_partition, t.dropped_offline, t.dropped_invalid,
          t.bytes_sent}) {
        w.u64(v);
    }
    w.f64(result.mean_round_seconds);
    w.f64(result.mean_wait_seconds);
    w.u64(result.final_model_digests.size());
    for (const Hash32& h : result.final_model_digests) w.hash(h);
    w.u64(result.node_probes.size());
    for (const core::NodeStateProbe& p : result.node_probes) {
        for (std::uint64_t v :
             {std::uint64_t{p.gossip_seen_size}, std::uint64_t{p.gossip_seen_cap},
              std::uint64_t{p.orphans_buffered}, std::uint64_t{p.pool_size},
              p.seen_evictions, p.stale_txs_pruned,
              std::uint64_t{p.nonce_snapshots_held}, p.nonce_snapshot_horizon,
              std::uint64_t{p.total_blocks}, p.chain_height}) {
            w.u64(v);
        }
    }
    return w.digest();
}

Workload::Workload(WorkloadOptions options) : options_(std::move(options)) {
    if (options_.name == "paper_tradeoff") {
        recorded_ = kPaperTradeoffDigest;
    } else if (options_.name == "paper_tradeoff_effnet") {
        recorded_ = kPaperTradeoffEffnetDigest;
    } else {
        throw std::invalid_argument("unknown workload \"" + options_.name +
                                    "\"");
    }
}

void Workload::setup(Recorder* recorder) {
    spec_ = core::load_scenario_file(options_.root +
                                   "/scenarios/paper_tradeoff.json");
    if (options_.name == "paper_tradeoff_effnet") spec_.model = "effnet";
    // The seed picks the federated data, and with it every model, score
    // and chunk payload. The simulated schedule (mining delays, links)
    // stays the spec's, so every seed runs the experiment's own block
    // layout and the per-block percentiles compare like with like.
    spec_.data.seed += options_.seed;
    points_ = core::expand_grid(spec_);

    ml::SyntheticCifarConfig data_config = spec_.data;
    data_config.clients = spec_.base.peers;
    ml::FederatedData data;
    {
        const Span span(recorder, "ml.data_synth");
        data = ml::make_synthetic_cifar(data_config);
    }
    {
        const Span span(recorder, "ml.task_build");
        task_ = spec_.model == "effnet"
                    ? core::paper_effnet_task(data)
                    : core::paper_simple_task(data, spec_.model_hidden);
    }
}

PassResult Workload::pass(Recorder* recorder) {
    struct PointOut {
        core::DecentralizedResult result;
        std::vector<Bytes> block_frames;
        double deploy_ms = 0.0;
        std::vector<Hash32> heads;
        std::unique_ptr<Recorder> recorder;
    };
    // The traced copy of the task is made once, outside any timing,
    // and only by runs that trace.
    if (recorder != nullptr && !traced_.has_value()) {
        traced_ = traced_task(task_);
    }
    const fl::FlTask& task = recorder != nullptr ? *traced_ : task_;
    PassResult out;
    const core::parallel::ThreadCountOverride width(options_.width);
    std::vector<PointOut> points(points_.size());
    const bool keep_events =
        recorder != nullptr && recorder->keeps_events();
    const std::int64_t begin = now_ns();
    core::parallel::for_each(points_.size(), [&](std::size_t i) {
        const std::int64_t point_begin = now_ns();
        PointOut& point = points[i];
        if (recorder != nullptr) {
            point.recorder = std::make_unique<Recorder>(
                static_cast<std::uint32_t>(i + 1), keep_events);
        }
        const RecorderScope scope(point.recorder.get());
        core::DecentralizedConfig config = points_[i].config;
        config.threads = 0;  // the grid owns the engine width
        net::SimTransport sim(config.link, config.conditions,
                              config.seed);
        ObservedTransport observed(sim, point.recorder.get());
        point.result = core::run_decentralized(task, config, observed);
        point.block_frames = observed.take_block_frames();
        point.deploy_ms = ms_between(point_begin, now_ns());
    });
    const double sweep_ms = ms_between(begin, now_ns());
    double busy_ms = 0.0;
    for (const PointOut& point : points) {
        busy_ms += point.deploy_ms;
        // Points run side by side; the slowest sets the sweep's time.
        out.peer_rounds_ms = std::max(out.peer_rounds_ms, point.deploy_ms);
    }
    out.grid_busy_ratio =
        busy_ms / (sweep_ms * static_cast<double>(
                                  core::parallel::thread_count()));

    // Replay each deployment's blocks through the chain pipeline, as a
    // writer and a validator would process them, one point after
    // another so every block is timed on an otherwise idle process.
    for (std::size_t i = 0; i < points.size(); ++i) {
        PointOut& point = points[i];
        ChainInput input;
        input.config = deployment_chain_config(points_[i].config);
        input.blocks = decode_blocks(point.block_frames);
        point.block_frames.clear();
        run_chain(input, recorder, out, point.heads);
    }

    DigestWriter digest;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointOut& point = points[i];
        const core::DecentralizedResult& result = point.result;
        const std::string& label = points_[i].label;
        for (std::size_t p = 0; p < result.peer_records.size(); ++p) {
            const std::size_t done = result.peer_records[p].size();
            out.peer_rounds += static_cast<double>(done);
            out.check(done == spec_.base.rounds,
                      label + ": peer " + std::to_string(p) +
                          " completed " + std::to_string(done) +
                          " rounds");
        }
        // Every peer averaging the full set of models is a consensus:
        // all final models must be one model. Personalized strategies
        // (best_combination) and early-aggregating policies legitimately
        // leave peers with different models.
        const core::DecentralizedConfig& config = points_[i].config;
        if (config.aggregation == "fedavg_all" &&
            config.wait_policy.starts_with("wait_all")) {
            out.check(std::adjacent_find(
                          result.final_model_digests.begin(),
                          result.final_model_digests.end(),
                          std::not_equal_to<>()) ==
                          result.final_model_digests.end(),
                      label + ": peers' final models differ");
        }
        digest.hash(result_digest(result));
        for (const Hash32& head : point.heads) digest.hash(head);
        if (recorder != nullptr) {
            recorder->merge(*point.recorder);
            recorder->count("net.messages_sent",
                            static_cast<double>(
                                result.traffic.messages_sent));
            recorder->count("net.bytes_sent",
                            static_cast<double>(result.traffic.bytes_sent));
        }
    }
    out.wall_ms = ms_between(begin, now_ns());
    out.digest = digest.digest();
    return out;
}

}  // namespace perfbench
