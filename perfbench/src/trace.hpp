// Span recording for the benchmark: wall-clock spans around calls into the
// library's public seams, with self time (a span's duration minus the time
// its direct children cover), exact counters, and a Chrome trace-event
// writer. The library itself is never instrumented; every span here is
// opened by benchmark code.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock. The benchmark's only clock read.
inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now()  // bcfl-lint: allow(nondeterminism)
                   .time_since_epoch())
        .count();
}

inline double ms_between(std::int64_t begin_ns, std::int64_t end_ns) {
    return static_cast<double>(end_ns - begin_ns) / 1e6;
}

/// Linear interpolation between closest ranks (numpy's default), q in
/// [0, 1]. Throws on an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
    return percentile(std::move(values), 0.5);
}

/// Span nesting over explicit timestamps, so the self-time arithmetic can
/// be tested without a clock.
class SpanStack {
public:
    struct Closed {
        const char* name = nullptr;
        std::int64_t begin_ns = 0;
        std::int64_t dur_ns = 0;
        std::int64_t self_ns = 0;
    };

    void open(const char* name, std::int64_t t_ns);
    /// Closes the innermost open span. Throws if none is open.
    Closed close(std::int64_t t_ns);
    [[nodiscard]] bool empty() const { return frames_.empty(); }

private:
    struct Frame {
        const char* name;
        std::int64_t begin_ns;
        std::int64_t child_ns;
    };
    std::vector<Frame> frames_;
};

struct LayerStat {
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t calls = 0;
};

struct TraceEvent {
    const char* name = nullptr;
    std::int64_t begin_ns = 0;
    std::int64_t dur_ns = 0;
    std::uint32_t track = 0;
};

/// One thread's spans and counters. Not shared between threads: every grid
/// point records into its own Recorder, merged after the grid joins.
class Recorder {
public:
    Recorder(std::uint32_t track, bool keep_events)
        : track_(track), keep_events_(keep_events) {}

    void open(const char* name) { stack_.open(name, now_ns()); }
    void close();
    void count(std::string_view counter, double value);

    /// Adds `other`'s layers and counters into this one and appends its
    /// events.
    void merge(const Recorder& other);

    [[nodiscard]] LayerStat layer(std::string_view name) const;
    [[nodiscard]] double counter(std::string_view name) const;
    [[nodiscard]] bool keeps_events() const { return keep_events_; }
    [[nodiscard]] const std::vector<TraceEvent>& events() const {
        return events_;
    }

private:
    std::uint32_t track_;
    bool keep_events_;
    SpanStack stack_;
    std::map<std::string, LayerStat, std::less<>> layers_;
    std::map<std::string, double, std::less<>> counters_;
    std::vector<TraceEvent> events_;
};

/// RAII span; a null recorder makes it a no-op.
class Span {
public:
    Span(Recorder* recorder, const char* name) : recorder_(recorder) {
        if (recorder_ != nullptr) recorder_->open(name);
    }
    ~Span() {
        if (recorder_ != nullptr) recorder_->close();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    Recorder* recorder_;
};

/// The recorder seams created on this thread report to (null: untraced).
Recorder*& current_recorder();

class RecorderScope {
public:
    explicit RecorderScope(Recorder* recorder)
        : previous_(current_recorder()) {
        current_recorder() = recorder;
    }
    ~RecorderScope() { current_recorder() = previous_; }
    RecorderScope(const RecorderScope&) = delete;
    RecorderScope& operator=(const RecorderScope&) = delete;

private:
    Recorder* previous_;
};

/// Writes Chrome trace-event JSON (opens in Perfetto / chrome://tracing):
/// one complete ("X") event per span, timestamps in microseconds relative
/// to `epoch_ns`, one thread track per recorder.
void write_chrome_trace(const std::string& path,
                        const std::vector<TraceEvent>& events,
                        std::int64_t epoch_ns);

}  // namespace perfbench
