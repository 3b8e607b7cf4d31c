// VmBlockExecutor: deterministic block execution against MiniEVM world state.
//
// Each node owns one executor; results are cached by (parent hash, tx root)
// so sealing a block and re-importing it does not execute twice, and the
// post-state of every imported block stays queryable (eth_call at head).
#pragma once

#include <map>
#include <memory>
#include <utility>

#include "chain/blockchain.hpp"
#include "vm/analysis.hpp"
#include "vm/evm.hpp"
#include "vm/state.hpp"

namespace bcfl::node {

class VmBlockExecutor final : public chain::BlockExecutor {
public:
    explicit VmBlockExecutor(chain::GasSchedule gas = {})
        : analysis_cache_(std::make_shared<vm::AnalysisCache>(gas)),
          vm_(gas, vm::VmLimits{}, analysis_cache_),
          gas_(gas) {}

    /// Registers the genesis world state under the genesis header.
    void register_genesis(const chain::BlockHeader& genesis,
                          vm::WorldState state);

    /// `block.header.tx_root` must commit to `block.transactions`: it is
    /// the cache key. Blockchain checks it before every import and sets
    /// it before build_block executes.
    chain::ExecutionResult execute(const chain::BlockHeader& parent,
                                   const chain::Block& block) override;

    /// Post-state of a block (throws if the block was never executed).
    [[nodiscard]] const vm::WorldState& state_after(
        const chain::BlockHeader& header) const;

    [[nodiscard]] const vm::Vm& vm() const { return vm_; }

    /// Shared Vm/executor analysis cache (hit/miss stats feed the
    /// vm_analysis bench section).
    [[nodiscard]] const vm::AnalysisCache& analysis_cache() const {
        return *analysis_cache_;
    }

    /// Deterministic address for a contract created by (sender, nonce):
    /// last 20 bytes of keccak256(sender || nonce_be64).
    [[nodiscard]] static Address creation_address(const Address& sender,
                                                  std::uint64_t nonce);

private:
    using Key = std::pair<Hash32, Hash32>;  // (parent hash, tx root)

    struct Entry {
        vm::WorldState state;
        chain::ExecutionResult result;
    };

    std::shared_ptr<vm::AnalysisCache> analysis_cache_;
    vm::Vm vm_;
    chain::GasSchedule gas_;
    std::map<Key, Entry> cache_;
    bool has_genesis_ = false;
    Hash32 genesis_hash_;
    vm::WorldState genesis_state_;
};

}  // namespace bcfl::node
