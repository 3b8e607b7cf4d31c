#include "core/policy.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/error.hpp"
#include "core/parallel.hpp"

namespace bcfl::core {

// ------------------------------------------------------------- WaitPolicy

WaitDecision WaitForK::decide(const RoundView& view) {
    if (view.models_available >= std::min(k_, view.roster_size)) {
        return WaitDecision::aggregate_now;
    }
    if (view.now >= view.wait_started + timeout_) {
        return WaitDecision::timed_out;
    }
    return WaitDecision::keep_waiting;
}

std::optional<net::SimTime> WaitForK::next_deadline(
    const RoundView& view) const {
    return view.wait_started + timeout_;
}

std::string WaitForK::spec() const {
    return "wait_for=" + std::to_string(k_) +
           ",timeout=" + format_duration(timeout_);
}

WaitDecision WaitAll::decide(const RoundView& view) {
    if (view.models_available >= view.roster_size) {
        return WaitDecision::aggregate_now;
    }
    if (view.now >= view.wait_started + timeout_) {
        return WaitDecision::timed_out;
    }
    return WaitDecision::keep_waiting;
}

std::optional<net::SimTime> WaitAll::next_deadline(
    const RoundView& view) const {
    return view.wait_started + timeout_;
}

std::string WaitAll::spec() const {
    return "wait_all,timeout=" + format_duration(timeout_);
}

WaitDecision Deadline::decide(const RoundView& view) {
    if (view.models_available >= view.roster_size) {
        return WaitDecision::aggregate_now;
    }
    if (view.now >= view.wait_started + after_) {
        // The deadline is the policy's normal aggregation point, but the set
        // is incomplete — report it as the asynchronous path.
        return WaitDecision::timed_out;
    }
    return WaitDecision::keep_waiting;
}

std::optional<net::SimTime> Deadline::next_deadline(
    const RoundView& view) const {
    return view.wait_started + after_;
}

std::string Deadline::spec() const {
    return "deadline=" + format_duration(after_);
}

void AdaptiveDeadline::begin_wait(const RoundView& view) {
    deadline_ = view.wait_started + base_;
    hard_cap_ = view.wait_started + max_;
    deadline_ = std::min(deadline_, hard_cap_);
    seen_models_ = view.models_available;
}

WaitDecision AdaptiveDeadline::decide(const RoundView& view) {
    if (view.models_available >= view.roster_size) {
        return WaitDecision::aggregate_now;
    }
    if (view.models_available > seen_models_) {
        // Models are still arriving: evidence that patience will pay.
        // Extend once per newly observed model, never past the hard cap.
        const std::size_t fresh = view.models_available - seen_models_;
        seen_models_ = view.models_available;
        deadline_ = std::min(
            hard_cap_,
            std::max(deadline_, view.now) +
                extend_ * static_cast<net::SimTime>(fresh));
    }
    if (view.now >= deadline_) return WaitDecision::timed_out;
    return WaitDecision::keep_waiting;
}

std::optional<net::SimTime> AdaptiveDeadline::next_deadline(
    const RoundView& view) const {
    (void)view;
    return deadline_;
}

std::string AdaptiveDeadline::spec() const {
    return "adaptive,base=" + format_duration(base_) +
           ",extend=" + format_duration(extend_) +
           ",max=" + format_duration(max_);
}

ScheduledPolicy::ScheduledPolicy(std::vector<Entry> entries)
    : entries_(std::move(entries)) {
    if (entries_.empty()) {
        throw Error("schedule: needs at least one round range");
    }
    std::size_t expected_first = 1;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry& entry = entries_[i];
        if (entry.policy == nullptr) {
            throw Error("schedule: entry without a policy");
        }
        if (entry.first_round != expected_first) {
            throw Error("schedule: ranges must be contiguous from round 1 (got " +
                        std::to_string(entry.first_round) + ", expected " +
                        std::to_string(expected_first) + ")");
        }
        const bool last = i + 1 == entries_.size();
        if (last) {
            if (entry.last_round != 0) {
                throw Error(
                    "schedule: final range must be open-ended (\"N+\") so "
                    "every round is covered");
            }
        } else {
            if (entry.last_round < entry.first_round) {
                throw Error("schedule: empty range " +
                            std::to_string(entry.first_round) + "-" +
                            std::to_string(entry.last_round));
            }
            expected_first = entry.last_round + 1;
        }
    }
}

WaitPolicy& ScheduledPolicy::active(std::size_t round) const {
    for (const Entry& entry : entries_) {
        if (round >= entry.first_round &&
            (entry.last_round == 0 || round <= entry.last_round)) {
            return *entry.policy;
        }
    }
    // Coverage is validated at construction; round 0 (never produced by the
    // peer, rounds are 1-based) falls through to the first entry.
    return *entries_.front().policy;
}

const WaitPolicy& ScheduledPolicy::policy_for(std::size_t round) const {
    return active(round);
}

void ScheduledPolicy::begin_wait(const RoundView& view) {
    active(view.round).begin_wait(view);
}

WaitDecision ScheduledPolicy::decide(const RoundView& view) {
    return active(view.round).decide(view);
}

std::optional<net::SimTime> ScheduledPolicy::next_deadline(
    const RoundView& view) const {
    return active(view.round).next_deadline(view);
}

std::string ScheduledPolicy::spec() const {
    std::string out = "schedule";
    for (const Entry& entry : entries_) {
        out.push_back(',');
        out.append(std::to_string(entry.first_round));
        if (entry.last_round == 0) {
            out.push_back('+');
        } else if (entry.last_round != entry.first_round) {
            out.push_back('-');
            out.append(std::to_string(entry.last_round));
        }
        out.push_back(':');
        out.append(entry.policy->spec());
    }
    return out;
}

// ---------------------------------------------------- AggregationStrategy

namespace {

/// Maps combination positions (into `kept`) back to roster indices and
/// builds the table row for one evaluated candidate.
ComboAccuracy make_row(const fl::Combination& kept_combo,
                       std::span<const std::size_t> kept,
                       const AggregationInput& input, double accuracy) {
    fl::Combination roster_combo;
    roster_combo.reserve(kept_combo.size());
    for (std::size_t pos : kept_combo) {
        roster_combo.push_back(input.roster_indices[kept[pos]]);
    }
    ComboAccuracy row;
    row.combo = roster_combo;
    row.label = fl::combination_label(roster_combo, input.names);
    row.accuracy = accuracy;
    return row;
}

/// Finishes a single-combo AggregationResult (identity combination over
/// `kept`, evaluated on the local test set) — shared by every
/// single-candidate strategy.
void finish_single_combo(const AggregationInput& input,
                         std::span<const std::size_t> kept,
                         AggregationResult& result) {
    result.chosen_accuracy = input.evaluate(result.weights);
    fl::Combination identity(kept.size());
    for (std::size_t i = 0; i < kept.size(); ++i) identity[i] = i;
    result.combos.push_back(
        make_row(identity, kept, input, result.chosen_accuracy));
    result.chosen_label = result.combos.back().label;
}

std::string format_double(double v) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%g", v);
    return buffer;
}

std::string fitness_suffix(double threshold) {
    if (threshold <= 0.0) return "";
    return ",fitness=" + format_double(threshold);
}

}  // namespace

std::vector<std::size_t> AggregationStrategy::fitness_filter(
    const AggregationInput& input, double threshold,
    AggregationResult& result, std::vector<double>* solo_out) {
    std::vector<std::size_t> kept;
    kept.reserve(input.updates.size());
    if (solo_out != nullptr) {
        solo_out->clear();
        solo_out->reserve(input.updates.size());
    }
    for (std::size_t i = 0; i < input.updates.size(); ++i) {
        double solo = std::numeric_limits<double>::quiet_NaN();
        if (i != input.self_pos && threshold > 0.0) {
            solo = input.evaluate(input.updates[i].weights);
            if (solo < threshold) {
                result.filtered_out.push_back(input.roster_indices[i]);
                continue;
            }
        }
        kept.push_back(i);
        if (solo_out != nullptr) solo_out->push_back(solo);
    }
    return kept;
}

AggregationResult BestCombination::aggregate(const AggregationInput& input) {
    AggregationResult result;
    const std::vector<std::size_t> kept =
        fitness_filter(input, fitness_threshold_, result);

    std::size_t self_in_kept = 0;
    for (std::size_t i = 0; i < kept.size(); ++i) {
        if (kept[i] == input.self_pos) self_in_kept = i;
    }

    // Candidate construction + scoring is embarrassingly parallel across
    // combinations; the winner is then picked by an ordered reduction in
    // combination order, so the chosen model (and every table row) is
    // bit-identical to the serial loop no matter the worker count. Only the
    // accuracies are kept — each candidate weight vector lives for the
    // duration of its task, and the winner is rebuilt once afterwards
    // (FedAvg is trivial next to the model evaluation already paid per
    // combination).
    const std::vector<fl::Combination> combos =
        fl::paper_combinations(kept.size(), self_in_kept);
    std::vector<double> accuracies(combos.size(), 0.0);
    const auto build_candidate = [&](std::size_t c) {
        fl::Combination update_positions;
        update_positions.reserve(combos[c].size());
        for (std::size_t pos : combos[c]) {
            update_positions.push_back(kept[pos]);
        }
        return fl::fedavg_subset(input.updates, update_positions);
    };

    const std::size_t workers = parallel::worker_count(combos.size());
    if (workers > 1 && input.make_evaluator) {
        std::vector<std::function<double(std::span<const float>)>> evaluators;
        evaluators.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w) {
            evaluators.push_back(input.make_evaluator());
        }
        parallel::run(combos.size(), [&](std::size_t worker, std::size_t c) {
            accuracies[c] = evaluators[worker](build_candidate(c));
        });
    } else {
        for (std::size_t c = 0; c < combos.size(); ++c) {
            accuracies[c] = input.evaluate(build_candidate(c));
        }
    }

    double best_accuracy = -1.0;
    std::size_t best = 0;
    for (std::size_t c = 0; c < combos.size(); ++c) {
        result.combos.push_back(
            make_row(combos[c], kept, input, accuracies[c]));
        if (accuracies[c] > best_accuracy) {
            best_accuracy = accuracies[c];
            best = c;
            result.chosen_label = result.combos.back().label;
        }
    }
    result.weights = build_candidate(best);
    result.chosen_accuracy = best_accuracy;
    return result;
}

std::string BestCombination::spec() const {
    return "best_combination" + fitness_suffix(fitness_threshold_);
}

AggregationResult FedAvgAll::aggregate(const AggregationInput& input) {
    AggregationResult result;
    const std::vector<std::size_t> kept =
        fitness_filter(input, fitness_threshold_, result);

    result.weights = fl::fedavg_subset(input.updates, kept);
    finish_single_combo(input, kept, result);
    return result;
}

std::string FedAvgAll::spec() const {
    return "fedavg_all" + fitness_suffix(fitness_threshold_);
}

std::vector<float> trimmed_mean(std::span<const fl::ModelUpdate> updates,
                                std::span<const std::size_t> positions,
                                std::size_t trim) {
    if (positions.empty()) throw ShapeError("trimmed_mean: no updates");
    if (positions.size() <= 2 * trim) {
        // Too few updates to trim from both ends: plain FedAvg.
        return fl::fedavg_subset(updates, positions);
    }
    const std::size_t dim = updates[positions[0]].weights.size();
    for (std::size_t pos : positions) {
        if (pos >= updates.size() || updates[pos].weights.size() != dim) {
            throw ShapeError("trimmed_mean: update shape mismatch");
        }
    }
    std::vector<float> result(dim, 0.0f);
    const std::size_t keep = positions.size() - 2 * trim;
    // Coordinates are independent (sort + mid-sum per dimension), so the
    // loop chunks across workers; every coordinate computes the exact same
    // value it would serially.
    constexpr std::size_t kChunk = 4096;
    const std::size_t chunks = (dim + kChunk - 1) / kChunk;
    parallel::for_each(chunks, [&](std::size_t chunk) {
        std::vector<float> column(positions.size());
        const std::size_t begin = chunk * kChunk;
        const std::size_t end = std::min(begin + kChunk, dim);
        for (std::size_t d = begin; d < end; ++d) {
            for (std::size_t i = 0; i < positions.size(); ++i) {
                column[i] = updates[positions[i]].weights[d];
            }
            std::sort(column.begin(), column.end());
            double acc = 0.0;
            for (std::size_t i = trim; i < trim + keep; ++i) acc += column[i];
            result[d] = static_cast<float>(acc / static_cast<double>(keep));
        }
    });
    return result;
}

AggregationResult TrimmedMean::aggregate(const AggregationInput& input) {
    AggregationResult result;
    const std::vector<std::size_t> kept =
        fitness_filter(input, fitness_threshold_, result);

    result.weights = trimmed_mean(input.updates, kept, trim_);
    finish_single_combo(input, kept, result);
    return result;
}

std::string TrimmedMean::spec() const {
    return "trimmed_mean,trim=" + std::to_string(trim_) +
           fitness_suffix(fitness_threshold_);
}

namespace {

/// FedAvg over `kept` with per-update multiplicative weights on top of the
/// sample counts (the staleness/reputation mixing rule). Degenerate
/// all-zero weights (e.g. reputation,floor=0 against universally bad solo
/// scores) fall back to the unweighted average rather than throwing
/// mid-deployment.
std::vector<float> scaled_fedavg(const AggregationInput& input,
                                 std::span<const std::size_t> kept,
                                 std::span<const double> multipliers) {
    std::vector<fl::ModelUpdate> scaled;
    scaled.reserve(kept.size());
    double total = 0.0;
    for (std::size_t i = 0; i < kept.size(); ++i) {
        const fl::ModelUpdate& update = input.updates[kept[i]];
        scaled.push_back({update.weights, update.sample_count * multipliers[i]});
        // Scalar bookkeeping sum, one term per update in round order — the
        // serial order is the spec; only its sign is consumed below.
        total += scaled.back().sample_count;  // bcfl-lint: allow(fp-accumulation)
    }
    if (total <= 0.0) return fl::fedavg_subset(input.updates, kept);
    return fl::fedavg(scaled);
}

}  // namespace

StalenessWeightedFedAvg StalenessWeightedFedAvg::by_rounds(
    double half_life_rounds, double fitness_threshold) {
    if (half_life_rounds <= 0.0) {
        throw Error("staleness_fedavg: half-life must be positive");
    }
    return {half_life_rounds, 0, fitness_threshold};
}

StalenessWeightedFedAvg StalenessWeightedFedAvg::by_age(
    net::SimTime half_life, double fitness_threshold) {
    if (half_life == 0) {
        throw Error("staleness_fedavg: half-life must be positive");
    }
    return {0.0, half_life, fitness_threshold};
}

double StalenessWeightedFedAvg::decay(const UpdateMeta& meta,
                                      net::SimTime now) const {
    if (half_life_rounds_ > 0.0) {
        return std::exp2(-static_cast<double>(meta.staleness) /
                         half_life_rounds_);
    }
    const net::SimTime age = now > meta.arrived_at ? now - meta.arrived_at : 0;
    return std::exp2(-net::to_seconds(age) / net::to_seconds(half_life_age_));
}

AggregationResult StalenessWeightedFedAvg::aggregate(
    const AggregationInput& input) {
    AggregationResult result;
    const std::vector<std::size_t> kept =
        fitness_filter(input, fitness_threshold_, result);

    std::vector<double> multipliers(kept.size(), 1.0);
    if (!input.meta.empty()) {
        for (std::size_t i = 0; i < kept.size(); ++i) {
            multipliers[i] = decay(input.meta[kept[i]], input.now);
        }
    }
    result.weights = scaled_fedavg(input, kept, multipliers);
    finish_single_combo(input, kept, result);
    return result;
}

std::string StalenessWeightedFedAvg::spec() const {
    std::string half_life = half_life_rounds_ > 0.0
                                ? format_double(half_life_rounds_) + "r"
                                : format_duration(half_life_age_);
    return "staleness_fedavg,half_life=" + half_life +
           fitness_suffix(fitness_threshold_);
}

ReputationWeighted::ReputationWeighted(double alpha, double floor,
                                       double fitness_threshold)
    : alpha_(alpha), floor_(floor), fitness_threshold_(fitness_threshold) {
    if (alpha_ <= 0.0 || alpha_ > 1.0) {
        throw Error("reputation: alpha must be in (0, 1]");
    }
    if (floor_ < 0.0) throw Error("reputation: floor must be >= 0");
}

AggregationResult ReputationWeighted::aggregate(const AggregationInput& input) {
    AggregationResult result;
    std::vector<double> solo_scores;
    const std::vector<std::size_t> kept =
        fitness_filter(input, fitness_threshold_, result, &solo_scores);

    if (reputation_.size() < input.roster_size) {
        reputation_.resize(input.roster_size, 1.0);
        observed_.resize(input.roster_size, false);
    }
    // Observe each surviving contributor's solo accuracy and fold it into
    // the smoothed history; the update's weight is its current reputation.
    std::vector<double> multipliers(kept.size(), 1.0);
    for (std::size_t i = 0; i < kept.size(); ++i) {
        const std::size_t roster = input.roster_indices[kept[i]];
        const double solo =
            std::isnan(solo_scores[i])
                ? input.evaluate(input.updates[kept[i]].weights)
                : solo_scores[i];
        if (!observed_[roster]) {
            reputation_[roster] = solo;
            observed_[roster] = true;
        } else {
            reputation_[roster] =
                (1.0 - alpha_) * reputation_[roster] + alpha_ * solo;
        }
        multipliers[i] = std::max(floor_, reputation_[roster]);
    }
    result.weights = scaled_fedavg(input, kept, multipliers);
    finish_single_combo(input, kept, result);
    return result;
}

std::string ReputationWeighted::spec() const {
    return "reputation,alpha=" + format_double(alpha_) +
           ",floor=" + format_double(floor_) +
           fitness_suffix(fitness_threshold_);
}

// ---------------------------------------------------------------- Factory

namespace {

struct SpecToken {
    std::string key;
    std::string value;  // empty when the token has no '='
    bool has_value = false;
};

/// Splits a raw spec on commas, trimming whitespace but keeping each
/// segment's text verbatim (the schedule parser needs raw "N-M:sub" pieces,
/// not key/value pairs).
std::vector<std::string> raw_segments(const std::string& spec) {
    std::vector<std::string> segments;
    std::size_t begin = 0;
    while (begin <= spec.size()) {
        std::size_t end = spec.find(',', begin);
        if (end == std::string::npos) end = spec.size();
        std::string segment = spec.substr(begin, end - begin);
        const auto first = segment.find_first_not_of(" \t");
        const auto last = segment.find_last_not_of(" \t");
        segment = first == std::string::npos
                      ? std::string{}
                      : segment.substr(first, last - first + 1);
        if (!segment.empty()) segments.push_back(std::move(segment));
        if (end == spec.size()) break;
        begin = end + 1;
    }
    return segments;
}

std::vector<SpecToken> tokenize_spec(const std::string& spec) {
    std::vector<SpecToken> tokens;
    for (std::string& segment : raw_segments(spec)) {
        SpecToken parsed;
        const std::size_t eq = segment.find('=');
        if (eq == std::string::npos) {
            parsed.key = std::move(segment);
        } else {
            parsed.key = segment.substr(0, eq);
            parsed.value = segment.substr(eq + 1);
            parsed.has_value = true;
        }
        tokens.push_back(std::move(parsed));
    }
    return tokens;
}

[[noreturn]] void bad_spec(const std::string& spec, const std::string& why) {
    throw Error("policy spec \"" + spec + "\": " + why);
}

std::uint64_t parse_uint(const std::string& spec, const SpecToken& token) {
    if (!token.has_value) bad_spec(spec, token.key + " needs a value");
    std::uint64_t out = 0;
    const auto [ptr, ec] = std::from_chars(
        token.value.data(), token.value.data() + token.value.size(), out);
    if (ec != std::errc{} || ptr != token.value.data() + token.value.size()) {
        bad_spec(spec, "bad integer \"" + token.value + "\"");
    }
    return out;
}

double parse_double(const std::string& spec, const SpecToken& token) {
    if (!token.has_value) bad_spec(spec, token.key + " needs a value");
    try {
        std::size_t used = 0;
        const double out = std::stod(token.value, &used);
        if (used != token.value.size()) throw std::invalid_argument("tail");
        return out;
    } catch (const std::exception&) {
        bad_spec(spec, "bad number \"" + token.value + "\"");
    }
}

/// Round-range prefix of a schedule segment: "1-5:", "6+:" or "4:". Returns
/// the {first, last (0 = open), chars consumed} triple, or nullopt when the
/// segment does not start a new range (i.e. it continues the previous
/// sub-spec).
struct RangePrefix {
    std::size_t first = 0;
    std::size_t last = 0;  // 0 = open-ended
    std::size_t consumed = 0;
};

std::optional<RangePrefix> parse_range_prefix(const std::string& segment) {
    const std::size_t colon = segment.find(':');
    if (colon == std::string::npos || colon == 0) return std::nullopt;
    const std::string head = segment.substr(0, colon);
    RangePrefix range;
    range.consumed = colon + 1;
    const char* begin = head.data();
    const char* end = head.data() + head.size();
    auto [ptr, ec] = std::from_chars(begin, end, range.first);
    if (ec != std::errc{} || ptr == begin) return std::nullopt;
    if (ptr == end) {  // "N:" — a single round
        range.last = range.first;
        return range;
    }
    if (*ptr == '+' && ptr + 1 == end) {  // "N+:"
        range.last = 0;
        return range;
    }
    if (*ptr != '-') return std::nullopt;
    ++ptr;
    auto [ptr2, ec2] = std::from_chars(ptr, end, range.last);
    if (ec2 != std::errc{} || ptr2 != end || ptr2 == ptr) return std::nullopt;
    return range;
}

/// "900" / "900s" -> seconds; "500ms" -> milliseconds.
net::SimTime parse_duration(const std::string& spec, const SpecToken& token) {
    if (!token.has_value) bad_spec(spec, token.key + " needs a duration");
    std::string digits = token.value;
    net::SimTime unit = net::seconds(1);
    if (digits.size() >= 2 && digits.ends_with("ms")) {
        unit = net::ms(1);
        digits.resize(digits.size() - 2);
    } else if (!digits.empty() && digits.back() == 's') {
        digits.resize(digits.size() - 1);
    }
    std::uint64_t amount = 0;
    const auto [ptr, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), amount);
    if (digits.empty() || ec != std::errc{} ||
        ptr != digits.data() + digits.size()) {
        bad_spec(spec, "bad duration \"" + token.value + "\"");
    }
    return amount * unit;
}

/// "2r" / "1.5r" -> rounds; otherwise a duration ("300s" / "500ms" / "300").
struct HalfLife {
    double rounds = 0.0;   // > 0: rounds-late decay
    net::SimTime age = 0;  // > 0: arrival-age decay
};

HalfLife parse_half_life(const std::string& spec, const SpecToken& token) {
    if (!token.has_value) bad_spec(spec, token.key + " needs a value");
    const std::string& value = token.value;
    if (value.size() >= 2 && value.back() == 'r') {
        try {
            std::size_t used = 0;
            const double rounds = std::stod(value, &used);
            if (used != value.size() - 1) throw std::invalid_argument("tail");
            if (rounds <= 0.0) {
                bad_spec(spec, "half_life must be positive");
            }
            return {rounds, 0};
        } catch (const std::invalid_argument&) {
            bad_spec(spec, "bad half-life \"" + value + "\"");
        } catch (const std::out_of_range&) {
            bad_spec(spec, "bad half-life \"" + value + "\"");
        }
    }
    const net::SimTime age = parse_duration(spec, token);
    if (age == 0) bad_spec(spec, "half_life must be positive");
    return {0.0, age};
}

}  // namespace

std::string format_duration(net::SimTime t) {
    if (t % net::seconds(1) == 0) {
        return std::to_string(t / net::seconds(1)) + "s";
    }
    return std::to_string(net::to_ms(t)) + "ms";
}

std::unique_ptr<WaitPolicy> make_wait_policy(const std::string& spec) {
    const std::vector<SpecToken> tokens = tokenize_spec(spec);
    if (tokens.empty()) bad_spec(spec, "empty wait-policy spec");
    const std::string& head = tokens.front().key;

    if (head == "wait_for") {
        const std::size_t k = parse_uint(spec, tokens.front());
        if (k == 0) bad_spec(spec, "wait_for needs K >= 1");
        net::SimTime timeout = net::seconds(900);
        for (std::size_t i = 1; i < tokens.size(); ++i) {
            if (tokens[i].key == "timeout") {
                timeout = parse_duration(spec, tokens[i]);
            } else {
                bad_spec(spec, "unknown key \"" + tokens[i].key + "\"");
            }
        }
        return std::make_unique<WaitForK>(k, timeout);
    }
    if (head == "wait_all" || head == "sync") {
        if (tokens.front().has_value) {
            bad_spec(spec, head + " takes no value (use timeout=T)");
        }
        net::SimTime timeout = net::seconds(900);
        for (std::size_t i = 1; i < tokens.size(); ++i) {
            if (tokens[i].key == "timeout") {
                timeout = parse_duration(spec, tokens[i]);
            } else {
                bad_spec(spec, "unknown key \"" + tokens[i].key + "\"");
            }
        }
        return std::make_unique<WaitAll>(timeout);
    }
    if (head == "deadline") {
        std::optional<net::SimTime> after;
        if (tokens.front().has_value) {
            after = parse_duration(spec, tokens.front());
        }
        for (std::size_t i = 1; i < tokens.size(); ++i) {
            if (tokens[i].key == "after") {
                after = parse_duration(spec, tokens[i]);
            } else {
                bad_spec(spec, "unknown key \"" + tokens[i].key + "\"");
            }
        }
        if (!after.has_value()) bad_spec(spec, "deadline needs a duration");
        return std::make_unique<Deadline>(*after);
    }
    if (head == "adaptive") {
        if (tokens.front().has_value) {
            bad_spec(spec, "adaptive takes no value (use base=T/extend=T/max=T)");
        }
        net::SimTime base = net::seconds(60);
        net::SimTime extend = net::seconds(30);
        net::SimTime max = net::seconds(300);
        for (std::size_t i = 1; i < tokens.size(); ++i) {
            if (tokens[i].key == "base") {
                base = parse_duration(spec, tokens[i]);
            } else if (tokens[i].key == "extend") {
                extend = parse_duration(spec, tokens[i]);
            } else if (tokens[i].key == "max") {
                max = parse_duration(spec, tokens[i]);
            } else {
                bad_spec(spec, "unknown key \"" + tokens[i].key + "\"");
            }
        }
        if (max < base) bad_spec(spec, "adaptive needs max >= base");
        return std::make_unique<AdaptiveDeadline>(base, extend, max);
    }
    if (head == "schedule") {
        if (tokens.front().has_value) {
            bad_spec(spec, "schedule takes no value (use 1-5:SPEC ranges)");
        }
        // Re-parse from the raw text: each "N-M:" / "N+:" / "N:" prefix
        // starts a range; unprefixed segments continue the previous
        // sub-spec (so inner specs keep their own comma-separated keys).
        const std::vector<std::string> segments = raw_segments(spec);
        std::vector<ScheduledPolicy::Entry> entries;
        std::vector<std::pair<RangePrefix, std::string>> pending;
        for (std::size_t i = 1; i < segments.size(); ++i) {
            if (const auto range = parse_range_prefix(segments[i])) {
                pending.push_back({*range, segments[i].substr(range->consumed)});
            } else if (!pending.empty()) {
                pending.back().second += "," + segments[i];
            } else {
                bad_spec(spec, "schedule needs a round range before \"" +
                                   segments[i] + "\"");
            }
        }
        if (pending.empty()) {
            bad_spec(spec, "schedule needs at least one 1-5:SPEC range");
        }
        entries.reserve(pending.size());
        for (auto& [range, sub_spec] : pending) {
            if (sub_spec == "schedule" || sub_spec.starts_with("schedule,")) {
                bad_spec(spec, "schedule cannot nest another schedule");
            }
            ScheduledPolicy::Entry entry;
            entry.first_round = range.first;
            entry.last_round = range.last;
            try {
                entry.policy = make_wait_policy(sub_spec);
            } catch (const Error& error) {
                bad_spec(spec, std::string("inner spec failed: ") +
                                   error.what());
            }
            entries.push_back(std::move(entry));
        }
        try {
            return std::make_unique<ScheduledPolicy>(std::move(entries));
        } catch (const Error& error) {
            bad_spec(spec, error.what());
        }
    }
    bad_spec(spec, "unknown wait policy \"" + head + "\"");
}

std::unique_ptr<AggregationStrategy> make_aggregation_strategy(
    const std::string& spec) {
    const std::vector<SpecToken> tokens = tokenize_spec(spec);
    if (tokens.empty()) bad_spec(spec, "empty aggregation spec");
    const std::string& head = tokens.front().key;
    if (tokens.front().has_value) {
        bad_spec(spec,
                 head + " takes no value (use fitness=F / trim=M keys)");
    }

    double fitness = 0.0;
    std::optional<std::size_t> trim;
    std::optional<HalfLife> half_life;
    std::optional<double> alpha;
    std::optional<double> floor;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
        if (tokens[i].key == "fitness") {
            fitness = parse_double(spec, tokens[i]);
        } else if (tokens[i].key == "trim" && head == "trimmed_mean") {
            trim = parse_uint(spec, tokens[i]);
        } else if (tokens[i].key == "half_life" && head == "staleness_fedavg") {
            half_life = parse_half_life(spec, tokens[i]);
        } else if (tokens[i].key == "alpha" && head == "reputation") {
            alpha = parse_double(spec, tokens[i]);
        } else if (tokens[i].key == "floor" && head == "reputation") {
            floor = parse_double(spec, tokens[i]);
        } else {
            bad_spec(spec, "unknown key \"" + tokens[i].key + "\"");
        }
    }

    if (head == "best_combination" || head == "consider") {
        return std::make_unique<BestCombination>(fitness);
    }
    if (head == "fedavg_all" || head == "not_consider" || head == "all") {
        return std::make_unique<FedAvgAll>(fitness);
    }
    if (head == "trimmed_mean") {
        return std::make_unique<TrimmedMean>(trim.value_or(1), fitness);
    }
    if (head == "staleness_fedavg") {
        const HalfLife h = half_life.value_or(HalfLife{1.0, 0});
        try {
            return std::make_unique<StalenessWeightedFedAvg>(
                h.rounds > 0.0
                    ? StalenessWeightedFedAvg::by_rounds(h.rounds, fitness)
                    : StalenessWeightedFedAvg::by_age(h.age, fitness));
        } catch (const Error& error) {
            bad_spec(spec, error.what());
        }
    }
    if (head == "reputation") {
        try {
            return std::make_unique<ReputationWeighted>(
                alpha.value_or(0.3), floor.value_or(0.05), fitness);
        } catch (const Error& error) {
            bad_spec(spec, error.what());
        }
    }
    bad_spec(spec, "unknown aggregation strategy \"" + head + "\"");
}

}  // namespace bcfl::core
