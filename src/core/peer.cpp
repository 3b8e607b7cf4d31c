#include "core/peer.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "fl/fedavg.hpp"
#include "ml/serialize.hpp"
#include "vm/registry_contract.hpp"

namespace bcfl::core {

namespace abi = vm::registry_abi;

BcflPeer::BcflPeer(node::Node& node, const fl::FlTask& task,
                   std::vector<Address> roster, PeerConfig config)
    : transport_(node.transport()),
      node_(node),
      task_(task),
      roster_(std::move(roster)),
      config_(std::move(config)),
      wait_policy_(make_wait_policy(config_.wait_policy)),
      aggregation_(make_aggregation_strategy(config_.aggregation)),
      model_(task.make_model()),
      probe_(task.make_model()),
      global_weights_(model_->weights()) {
    if (config_.index >= roster_.size()) {
        throw Error("peer: index outside roster");
    }
    if (roster_[config_.index] != node_.address()) {
        throw Error("peer: node key does not match roster entry");
    }
    const TierRole role = config_.tier.role;
    if (role == TierRole::flat) {
        // The single-tier round: the member phase over the whole roster.
        config_.tier.cluster.resize(roster_.size());
        std::iota(config_.tier.cluster.begin(), config_.tier.cluster.end(),
                  std::size_t{0});
    }
    if ((role == TierRole::head || role == TierRole::top_head) &&
        config_.tier.cluster.empty()) {
        throw Error("peer: head role without a cluster");
    }
    if (role == TierRole::top_head) {
        if (config_.tier.heads.empty() ||
            config_.tier.heads.size() != config_.tier.clusters.size()) {
            throw Error("peer: top head with inconsistent cluster lists");
        }
        top_policy_ = make_wait_policy(config_.tier.top_policy);
        top_aggregation_ =
            make_aggregation_strategy(config_.tier.top_aggregation);
    }
    if (role != TierRole::flat) install_store_filter();
    // React to chain progress: every new head may complete a model.
    node_.on_new_head([this](const chain::Block&) {
        if (waiting_) poll_wait_policy();
    });
}

void BcflPeer::install_store_filter() {
    // Ingest-side admission control: a hierarchical peer only ever reads a
    // bounded slice of the registry, so everything else is dropped before
    // it is buffered — per-peer model memory is O(tier fan-in), not
    // O(roster). The sets below are tiny; linear scans beat hashing.
    const Address top = roster_[config_.tier.top_head];
    std::vector<Address> cluster_addrs;
    for (std::size_t m : config_.tier.cluster) {
        cluster_addrs.push_back(roster_[m]);
    }
    std::vector<Address> head_addrs;
    for (std::size_t h : config_.tier.heads) {
        head_addrs.push_back(roster_[h]);
    }
    const auto contains = [](const std::vector<Address>& set,
                             const Address& a) {
        return std::find(set.begin(), set.end(), a) != set.end();
    };
    switch (config_.tier.role) {
        case TierRole::member:
            // Members only consume the top head's global model.
            store_.set_filter([top](std::uint64_t round, const Address& owner) {
                return tier_of(round) == ModelKind::global && owner == top;
            });
            break;
        case TierRole::head:
            store_.set_filter([top, cluster_addrs = std::move(cluster_addrs),
                               contains](std::uint64_t round,
                                         const Address& owner) {
                const ModelKind kind = tier_of(round);
                if (kind == ModelKind::member) {
                    return contains(cluster_addrs, owner);
                }
                return kind == ModelKind::global && owner == top;
            });
            break;
        case TierRole::top_head:
            store_.set_filter([cluster_addrs = std::move(cluster_addrs),
                               head_addrs = std::move(head_addrs),
                               contains](std::uint64_t round,
                                         const Address& owner) {
                const ModelKind kind = tier_of(round);
                if (kind == ModelKind::member) {
                    return contains(cluster_addrs, owner);
                }
                return kind == ModelKind::cluster && contains(head_addrs, owner);
            });
            break;
        case TierRole::flat:
            break;
    }
}

void BcflPeer::run_rounds(std::size_t rounds) {
    target_rounds_ = rounds;
    current_round_ = 0;
    if (config_.start_delay > 0) {
        transport_.schedule_after(node_.id(), config_.start_delay,
                                  [this] { begin_round(); });
    } else {
        begin_round();
    }
}

void BcflPeer::begin_round() {
    if (finished()) return;
    ++current_round_;
    PeerRoundRecord record;
    record.round = current_round_;
    record.round_started = transport_.now();
    records_.push_back(record);

    // Training occupies the CPU for train_duration; mining slows down
    // (the dual-duty contention the paper observed on real hardware).
    node_.set_compute_load(config_.train_cpu_load);
    transport_.schedule_after(node_.id(), config_.train_duration,
                              [this] { finish_training(); });
}

void BcflPeer::finish_training() {
    node_.set_compute_load(0.0);

    // Actual local training (real compute, simulated duration elapsed).
    model_->set_weights(global_weights_);
    ml::TrainConfig train_config = task_.train_template;
    train_config.shuffle_seed =
        0x9e3779b9u * current_round_ + 7919 * config_.index;
    model_->train_local(task_.client_train[config_.index], train_config);
    own_update_ = model_->weights();

    // A member-tier registry round equals the plain round number, so flat
    // deployments publish exactly the bytes they always did.
    const std::uint64_t member_round =
        tier_round(ModelKind::member, current_round_);
    if (config_.poison_updates) {
        // Publish a corrupted update (fault injection for the poisoning
        // experiments): flip signs and inflate magnitudes so the model is
        // confidently wrong rather than merely random.
        std::vector<float> poisoned = own_update_;
        for (float& w : poisoned) w = -2.0f * w;
        publish_weights(member_round, poisoned);
    } else {
        publish_weights(member_round, own_update_);
    }
    records_.back().published_at = transport_.now();

    // Members wait for the round's global model; every other role hands
    // control to its WaitPolicy, which decides, from the evolving chain
    // view, when this round's aggregation happens.
    enter_phase(config_.tier.role == TierRole::member ? Phase::wait_global
                                                      : Phase::wait_members);
}

void BcflPeer::publish_weights(std::uint64_t registry_round,
                               const std::vector<float>& weights) {
    Bytes payload = ml::serialize_weights(weights);
    const Hash32 model_hash = ml::weights_digest(payload);
    payload.resize(payload.size() + config_.payload_pad_bytes, 0);

    const std::size_t chunk_count =
        (payload.size() + config_.chunk_bytes - 1) / config_.chunk_bytes;

    // Announcement first, then the chunks, with consecutive nonces so the
    // txpool mines them in order.
    const auto submit = [this](Bytes calldata) {
        const std::uint64_t gas_limit =
            21'000 + 16 * static_cast<std::uint64_t>(calldata.size()) +
            300'000;  // intrinsic upper bound + generous VM margin
        node_.submit_tx(chain::Transaction::make_signed(
            node_.key(), next_nonce_++, vm::registry_address(), gas_limit,
            config_.gas_price, std::move(calldata)));
    };
    submit(abi::publish_calldata(registry_round, model_hash, chunk_count,
                                 payload.size()));
    for (std::size_t i = 0; i < chunk_count; ++i) {
        const std::size_t begin = i * config_.chunk_bytes;
        const std::size_t end =
            std::min(begin + config_.chunk_bytes, payload.size());
        submit(abi::chunk_calldata(
            registry_round, i,
            BytesView(payload).subspan(begin, end - begin)));
    }
}

std::optional<std::vector<float>> BcflPeer::chain_weights(
    std::uint64_t round, const Address& owner) const {
    const PublishedModel* model = store_.find(round, owner);
    if (model == nullptr || !model->complete()) return std::nullopt;
    Bytes blob = model->assemble();
    // Strip ballast: the serialized blob's true length is implied by the
    // weight count every peer shares.
    const std::size_t expected =
        4 + 1 + 8 + probe_->weight_count() * 4 + 32;
    if (blob.size() < expected) return std::nullopt;
    blob.resize(expected);
    if (ml::weights_digest(BytesView(blob)) != model->model_hash) {
        return std::nullopt;  // announcement does not match the payload
    }
    try {
        return ml::deserialize_weights(blob);
    } catch (const Error&) {
        return std::nullopt;
    }
}

void BcflPeer::enter_phase(Phase phase) {
    phase_ = phase;
    phase_started_ = transport_.now();
    waiting_ = true;
    ++wait_generation_;  // cancels the previous phase's pending timers
    timer_pending_ = false;
    // Phase::wait_global is a plain deadline wait; no policy to arm.
    if (phase != Phase::wait_global) {
        (phase == Phase::wait_clusters ? *top_policy_ : *wait_policy_)
            .begin_wait(round_view(phase));
    }
    poll_wait_policy();
}

void BcflPeer::end_wait() {
    waiting_ = false;
    ++wait_generation_;  // cancels pending policy timers
    timer_pending_ = false;
}

void BcflPeer::poll_wait_policy() {
    if (!waiting_) return;
    if (phase_ == Phase::wait_global) {
        poll_wait_global();
        return;
    }
    WaitPolicy& policy =
        phase_ == Phase::wait_clusters ? *top_policy_ : *wait_policy_;
    const RoundView view = round_view(phase_);
    const WaitDecision decision = policy.decide(view);
    if (decision != WaitDecision::keep_waiting) {
        aggregate(decision == WaitDecision::timed_out);
        return;
    }
    if (const auto deadline = policy.next_deadline(view);
        deadline.has_value()) {
        schedule_policy_timer(*deadline);
    }
}

void BcflPeer::schedule_policy_timer(net::SimTime when) {
    when = std::max(when, transport_.now());
    // An earlier-or-equal timer is already in flight; it will re-poll and
    // reschedule if the policy's deadline has moved (AdaptiveDeadline).
    if (timer_pending_ && timer_at_ <= when) return;
    timer_pending_ = true;
    timer_at_ = when;
    const std::uint64_t generation = wait_generation_;
    transport_.schedule_at(node_.id(), when, [this, generation, when] {
        if (generation != wait_generation_) return;  // round already closed
        if (timer_pending_ && timer_at_ == when) timer_pending_ = false;
        poll_wait_policy();
    });
}

RoundView BcflPeer::round_view(Phase phase) {
    store_.sync(node_.chain());
    const bool clusters = phase == Phase::wait_clusters;
    const std::vector<std::size_t>& contributors =
        clusters ? config_.tier.heads : config_.tier.cluster;
    const std::uint64_t registry_round = tier_round(
        clusters ? ModelKind::cluster : ModelKind::member, current_round_);
    RoundView view;
    view.round = current_round_;
    view.roster_size = contributors.size();
    view.now = transport_.now();
    view.wait_started = phase_started_;
    for (std::size_t c : contributors) {
        if (c == config_.index) {
            ++view.models_available;  // own update or cluster model is local
            continue;
        }
        if (const PublishedModel* m = store_.find(registry_round, roster_[c]);
            m != nullptr && m->complete()) {
            ++view.models_available;
        }
    }
    return view;
}

AggregationResult BcflPeer::run_strategy(Phase phase,
                                         std::size_t& collected) {
    store_.sync(node_.chain());
    PeerRoundRecord& record = records_.back();

    // The phase's inputs, in contributor order, with their provenance
    // (origin round, on-chain arrival, staleness); what to do with them
    // (combination search, FedAvg, robust trimming, staleness decay,
    // fitness filtering) is entirely the AggregationStrategy's business.
    // roster_indices/names stay in the *global* index space so combination
    // labels and reputation tracking read the same across tiers. Only a
    // flat peer backfills missing contributors with their newest
    // earlier-round model, and only for a strategy that opts in via
    // wants_stale_updates: in a tier a straggler's earlier-round weights
    // re-enter through the next round instead.
    const bool clusters = phase == Phase::wait_clusters;
    const std::vector<std::size_t>& contributors =
        clusters ? config_.tier.heads : config_.tier.cluster;
    const std::uint64_t registry_round = tier_round(
        clusters ? ModelKind::cluster : ModelKind::member, current_round_);
    const bool backfill_stale = config_.tier.role == TierRole::flat &&
                                aggregation_->wants_stale_updates();
    std::vector<fl::ModelUpdate> updates;
    std::vector<std::size_t> roster_indices;
    std::vector<UpdateMeta> meta;
    std::size_t self_pos = 0;
    for (std::size_t k = 0; k < contributors.size(); ++k) {
        const std::size_t c = contributors[k];
        // A cluster model is weighted by the cluster's total training-set
        // size. The weight is static (configured data sizes, not per-round
        // arrivals) — exact under wait_all at tier 1 and a documented
        // simplification when a head aggregated a partial cluster.
        double samples = 0.0;
        if (clusters) {
            for (std::size_t m : config_.tier.clusters[k]) {
                samples += static_cast<double>(task_.client_train[m].size());
            }
        } else {
            samples = static_cast<double>(task_.client_train[c].size());
        }
        if (c == config_.index) {
            self_pos = updates.size();
            updates.push_back({clusters ? cluster_weights_ : own_update_,
                               samples});
            roster_indices.push_back(c);
            meta.push_back({current_round_,
                            clusters ? transport_.now() : record.published_at,
                            0});
            continue;
        }
        if (auto weights = chain_weights(registry_round, roster_[c]);
            weights.has_value()) {
            const PublishedModel* m = store_.find(registry_round, roster_[c]);
            updates.push_back({std::move(*weights), samples});
            roster_indices.push_back(c);
            meta.push_back({current_round_, m->completed_at, 0});
            continue;
        }
        if (!backfill_stale) continue;
        const PublishedModel* stale =
            store_.latest_complete(roster_[c], current_round_);
        if (stale == nullptr) continue;
        auto weights = chain_weights(stale->round, roster_[c]);
        if (!weights.has_value()) continue;  // integrity check failed
        updates.push_back({std::move(*weights), samples});
        roster_indices.push_back(c);
        meta.push_back({static_cast<std::size_t>(stale->round),
                        stale->completed_at,
                        static_cast<std::size_t>(current_round_) -
                            static_cast<std::size_t>(stale->round)});
        ++record.stale_models_used;
    }
    collected = updates.size();

    AggregationInput input;
    input.updates = updates;
    input.roster_indices = roster_indices;
    input.meta = meta;
    input.self_pos = self_pos;
    input.roster_size = roster_.size();
    input.round = current_round_;
    input.now = transport_.now();
    input.names = client_names();
    input.evaluate = [this](std::span<const float> candidate) {
        probe_->set_weights(candidate);
        return probe_->evaluate(task_.client_test[config_.index]);
    };
    // Independent per-worker probes so strategies can score candidate
    // combinations in parallel inside this sim event (core/parallel).
    // Evaluation is a pure function of the candidate weights and the local
    // test set, so every probe scores exactly like `evaluate`.
    input.make_evaluator =
        [this]() -> std::function<double(std::span<const float>)> {
        std::shared_ptr<fl::FlModel> probe = task_.make_model();
        return [this, probe](std::span<const float> candidate) {
            probe->set_weights(candidate);
            return probe->evaluate(task_.client_test[config_.index]);
        };
    };
    return (clusters ? *top_aggregation_ : *aggregation_).aggregate(input);
}

void BcflPeer::aggregate(bool timed_out) {
    end_wait();
    PeerRoundRecord& record = records_.back();
    record.timed_out = record.timed_out || timed_out;

    std::size_t collected = 0;
    AggregationResult outcome = run_strategy(phase_, collected);
    // Keep earlier phases' rows and append this one's: one record carries
    // the whole round's table rows.
    record.combos.insert(record.combos.end(),
                         std::make_move_iterator(outcome.combos.begin()),
                         std::make_move_iterator(outcome.combos.end()));
    record.chosen_accuracy = outcome.chosen_accuracy;

    if (phase_ == Phase::wait_clusters) {
        publish_weights(tier_round(ModelKind::global, current_round_),
                        outcome.weights);
        global_weights_ = std::move(outcome.weights);
        record.chosen_label = "global";
        complete_round();
        return;
    }
    record.filtered_out = std::move(outcome.filtered_out);
    // Models that actually entered aggregation (fitness-filtered updates
    // excluded, matching the pre-policy-API record semantics).
    record.models_available = collected - record.filtered_out.size();
    record.chosen_label = std::move(outcome.chosen_label);
    if (config_.tier.role == TierRole::flat) {
        global_weights_ = std::move(outcome.weights);
        complete_round();
        return;
    }
    cluster_weights_ = std::move(outcome.weights);
    if (config_.tier.role == TierRole::top_head) {
        enter_phase(Phase::wait_clusters);
        return;
    }
    publish_weights(tier_round(ModelKind::cluster, current_round_),
                    cluster_weights_);
    enter_phase(Phase::wait_global);
}

void BcflPeer::poll_wait_global() {
    store_.sync(node_.chain());
    PeerRoundRecord& record = records_.back();
    const auto evaluate = [this](const std::vector<float>& weights) {
        probe_->set_weights(weights);
        return probe_->evaluate(task_.client_test[config_.index]);
    };
    if (auto weights =
            chain_weights(tier_round(ModelKind::global, current_round_),
                          roster_[config_.tier.top_head]);
        weights.has_value()) {
        end_wait();
        global_weights_ = std::move(*weights);
        record.chosen_label = "global";
        record.chosen_accuracy = evaluate(global_weights_);
        if (config_.tier.role == TierRole::member) {
            record.models_available = 1;  // the adopted global model
        }
        complete_round();
        return;
    }
    const net::SimTime deadline =
        phase_started_ + config_.tier.member_timeout;
    if (transport_.now() >= deadline) {
        // Give up on this round's global model: fall back to the best
        // model this role holds and move on (the "not to wait" branch at
        // the hierarchy's edges).
        end_wait();
        record.timed_out = true;
        if (config_.tier.role == TierRole::head) {
            global_weights_ = cluster_weights_;
            record.chosen_label = "cluster";
        } else {
            global_weights_ = own_update_;
            record.chosen_label = "self";
        }
        record.chosen_accuracy = evaluate(global_weights_);
        complete_round();
        return;
    }
    schedule_policy_timer(deadline);
}

void BcflPeer::complete_round() {
    records_.back().aggregated_at = transport_.now();
    ++completed_rounds_;
    begin_round();
}

std::string BcflPeer::client_names() const {
    std::string names;
    for (std::size_t i = 0; i < roster_.size(); ++i) {
        // Cycled alphabet: labels stay printable past 26 peers (labels are
        // reporting-only; identity is the roster index).
        names.push_back(static_cast<char>('A' + (i % 26)));
    }
    return names;
}

}  // namespace bcfl::core
