// Simulated point-to-point network with latency, bandwidth and optional loss.
//
// Models the paper's three-VM LAN: every pair of peers is connected; message
// delivery time is latency + size/bandwidth (+ jitter). Traffic statistics
// feed the chain-performance bench (E3).
#pragma once

#include <cstdint>
#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "net/conditions.hpp"
#include "net/sim.hpp"
#include "net/transport.hpp"

namespace bcfl::net {

class Network {
public:
    using Receiver = std::function<void(NodeId from, const Bytes& message)>;

    Network(Simulation& sim, LinkParams params, std::uint64_t seed = 1)
        : sim_(sim), params_(params), rng_(seed) {}

    Network(Simulation& sim, LinkParams params, NetworkConditions conditions,
            std::uint64_t seed = 1)
        : sim_(sim),
          params_(params),
          conditions_(std::move(conditions)),
          rng_(seed) {}

    /// Registers a node; all nodes are mutually reachable (full mesh).
    NodeId add_node(Receiver receiver) {
        receivers_.push_back(std::move(receiver));
        uplink_free_.push_back(0);
        return static_cast<NodeId>(receivers_.size() - 1);
    }

    [[nodiscard]] std::size_t node_count() const { return receivers_.size(); }

    /// Schedules delivery of `message` from `from` to `to`. Fault
    /// injection happens here, at send time: an offline endpoint or an
    /// active partition drops the message outright; a per-link override
    /// replaces loss/latency/bandwidth for just this pair.
    void send(NodeId from, NodeId to, Bytes message) {
        deliver(from, to, std::make_shared<const Bytes>(std::move(message)));
    }

    /// Sends to every other node (flood). Every delivery shares one copy
    /// of the message, held until the last of them has run.
    void broadcast(NodeId from, const Bytes& message) {
        const auto shared = std::make_shared<const Bytes>(message);
        for (NodeId to = 0; to < receivers_.size(); ++to) {
            if (to != from) deliver(from, to, shared);
        }
    }

    [[nodiscard]] const TrafficStats& stats() const { return stats_; }
    [[nodiscard]] const LinkParams& params() const { return params_; }
    [[nodiscard]] const NetworkConditions& conditions() const {
        return conditions_;
    }
    /// Whether `node` is currently reachable (no active churn window).
    [[nodiscard]] bool online(NodeId node) const {
        return !conditions_.offline(node, sim_.now());
    }

private:
    void deliver(NodeId from, NodeId to,
                 std::shared_ptr<const Bytes> message) {
        if (to == from) return;  // self-send is a no-op, not an error
        if (to >= receivers_.size()) {
            // A destination this network never issued: count it (it was a
            // caller bug vanishing silently before) — still "sent" so the
            // sent == delivered + dropped + in-flight invariant holds.
            ++stats_.messages_sent;
            stats_.bytes_sent += message->size();
            ++stats_.messages_dropped;
            ++stats_.dropped_invalid;
            return;
        }
        ++stats_.messages_sent;
        stats_.bytes_sent += message->size();
        const SimTime now = sim_.now();
        if (conditions_.offline(from, now) || conditions_.offline(to, now)) {
            ++stats_.messages_dropped;
            ++stats_.dropped_offline;
            return;
        }
        if (conditions_.partitioned(from, to, now)) {
            ++stats_.messages_dropped;
            ++stats_.dropped_partition;
            return;
        }
        const LinkConditions* link = conditions_.link(from, to);
        const double loss_rate = link && link->loss_rate.has_value()
                                     ? *link->loss_rate
                                     : params_.loss_rate;
        if (loss_rate > 0.0 && rng_.next_double() < loss_rate) {
            ++stats_.messages_dropped;
            return;
        }
        const double bytes_per_us = link && link->bytes_per_us.has_value()
                                        ? *link->bytes_per_us
                                        : params_.bytes_per_us;
        const SimTime transfer = static_cast<SimTime>(
            static_cast<double>(message->size()) / bytes_per_us);
        SimTime propagation = 0;
        if (link && link->latency.has_value()) {
            propagation = link->latency->sample(rng_);
        } else if (conditions_.default_latency.has_value()) {
            propagation = conditions_.default_latency->sample(rng_);
        } else {
            const double jitter =
                1.0 +
                params_.jitter_fraction * (2.0 * rng_.next_double() - 1.0);
            propagation = static_cast<SimTime>(
                static_cast<double>(params_.latency) * jitter);
        }
        SimTime deliver_at = 0;
        if (params_.shared_uplink) {
            // The sender's NIC transmits one message at a time.
            const SimTime start =
                std::max(sim_.now(), uplink_free_[from]);
            uplink_free_[from] = start + transfer;
            deliver_at = uplink_free_[from] + propagation;
        } else {
            deliver_at = sim_.now() + transfer + propagation;
        }
        sim_.schedule_at(deliver_at,
                         [this, from, to, msg = std::move(message)] {
                             ++stats_.messages_delivered;
                             receivers_[to](from, *msg);
                         });
    }

    Simulation& sim_;
    LinkParams params_;
    NetworkConditions conditions_;
    Rng rng_;
    std::vector<Receiver> receivers_;
    std::vector<SimTime> uplink_free_;  // per-sender NIC availability
    TrafficStats stats_;
};

}  // namespace bcfl::net
