#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
    if (values.empty()) throw std::invalid_argument("percentile: no samples");
    std::sort(values.begin(), values.end());
    const double pos = std::clamp(q, 0.0, 1.0) *
                       static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

void SpanStack::open(const char* name, std::int64_t t_ns) {
    frames_.push_back({name, t_ns, 0});
}

SpanStack::Closed SpanStack::close(std::int64_t t_ns) {
    if (frames_.empty()) throw std::logic_error("SpanStack: no open span");
    const Frame frame = frames_.back();
    frames_.pop_back();
    Closed closed;
    closed.name = frame.name;
    closed.begin_ns = frame.begin_ns;
    closed.dur_ns = t_ns - frame.begin_ns;
    closed.self_ns = closed.dur_ns - frame.child_ns;
    if (!frames_.empty()) frames_.back().child_ns += closed.dur_ns;
    return closed;
}

void Recorder::close() {
    const SpanStack::Closed span = stack_.close(now_ns());
    // Look up by string_view first: only a layer's first span allocates.
    auto it = layers_.find(std::string_view(span.name));
    if (it == layers_.end()) it = layers_.emplace(span.name, LayerStat{}).first;
    it->second.total_ns += span.dur_ns;
    it->second.self_ns += span.self_ns;
    ++it->second.calls;
    if (keep_events_) {
        events_.push_back({span.name, span.begin_ns, span.dur_ns, track_});
    }
}

void Recorder::count(std::string_view counter, double value) {
    auto it = counters_.find(counter);
    if (it == counters_.end()) {
        it = counters_.emplace(std::string(counter), 0.0).first;
    }
    it->second += value;
}

void Recorder::merge(const Recorder& other) {
    for (const auto& [name, stat] : other.layers_) {
        LayerStat& mine = layers_[name];
        mine.total_ns += stat.total_ns;
        mine.self_ns += stat.self_ns;
        mine.calls += stat.calls;
    }
    for (const auto& [name, value] : other.counters_) counters_[name] += value;
    events_.insert(events_.end(), other.events_.begin(), other.events_.end());
}

LayerStat Recorder::layer(std::string_view name) const {
    const auto it = layers_.find(name);
    return it == layers_.end() ? LayerStat{} : it->second;
}

double Recorder::counter(std::string_view name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
}

Recorder*& current_recorder() {
    thread_local Recorder* recorder = nullptr;
    return recorder;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<TraceEvent>& events,
                        std::int64_t epoch_ns) {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
        throw std::runtime_error("cannot open trace file " + path);
    }
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", file);
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent& e = events[i];
        std::fprintf(file,
                     "%s\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f}",
                     i == 0 ? "" : ",", e.name,
                     static_cast<int>(std::string_view(e.name).find('.')),
                     e.name, e.track,
                     static_cast<double>(e.begin_ns - epoch_ns) / 1e3,
                     static_cast<double>(e.dur_ns) / 1e3);
    }
    std::fputs("\n]}\n", file);
    if (std::fclose(file) != 0) {
        throw std::runtime_error("error writing trace file " + path);
    }
}

}  // namespace perfbench
