// RLP (Recursive Length Prefix) encoding — Ethereum's canonical wire format.
//
// Transactions and block headers are RLP-encoded before hashing and signing,
// matching the paper's private-Ethereum substrate.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"

namespace bcfl::rlp {

/// An RLP item is either a byte string or a list of items.
class Item {
public:
    Item() = default;

    static Item string(Bytes data) {
        Item item;
        item.is_list_ = false;
        item.data_ = std::move(data);
        return item;
    }
    static Item string(BytesView data) {
        return string(Bytes(data.begin(), data.end()));
    }
    /// Minimal big-endian integer encoding (no leading zeros; 0 -> empty).
    static Item integer(std::uint64_t value);
    static Item list(std::vector<Item> items) {
        Item item;
        item.is_list_ = true;
        item.children_ = std::move(items);
        return item;
    }

    [[nodiscard]] bool is_list() const { return is_list_; }
    [[nodiscard]] const Bytes& data() const { return data_; }
    [[nodiscard]] const std::vector<Item>& children() const { return children_; }
    [[nodiscard]] std::uint64_t as_u64() const;

    [[nodiscard]] bool operator==(const Item&) const = default;

private:
    bool is_list_ = false;
    Bytes data_;
    std::vector<Item> children_;
};

/// Serializes an item.
[[nodiscard]] Bytes encode(const Item& item);

/// Parses exactly one item covering the whole input; throws DecodeError on
/// malformed or trailing data.
[[nodiscard]] Item decode(BytesView data);

/// The payload of the first item of the list `data` starts with, read
/// without decoding the rest (e.g. a block's header bytes before its tx
/// list). Throws DecodeError unless `data` opens with a list whose first
/// item is a string that fits inside it; the rest is not checked, so a
/// full decode(data) may still fail.
[[nodiscard]] BytesView first_string(BytesView data);

}  // namespace bcfl::rlp
