#include "chain/types.hpp"

#include "common/error.hpp"
#include "crypto/keccak.hpp"
#include "crypto/merkle.hpp"
#include "rlp/rlp.hpp"

namespace bcfl::chain {

namespace {

rlp::Item hash_item(const Hash32& h) { return rlp::Item::string(h.view()); }
rlp::Item address_item(const Address& a) { return rlp::Item::string(a.view()); }

Hash32 as_hash(const rlp::Item& item) {
    if (item.is_list() || item.data().size() != 32) {
        throw DecodeError("expected 32-byte hash");
    }
    return Hash32::from(item.data());
}

Address as_address(const rlp::Item& item) {
    if (item.is_list() || item.data().size() != 20) {
        throw DecodeError("expected 20-byte address");
    }
    return Address::from(item.data());
}

const rlp::Item& child(const rlp::Item& list, std::size_t index) {
    if (!list.is_list() || index >= list.children().size()) {
        throw DecodeError("rlp list too short");
    }
    return list.children()[index];
}

// A list item's data() is empty, so reading a list where a string belongs
// would accept bytes that encode() cannot reproduce.
const Bytes& as_string(const rlp::Item& item) {
    if (item.is_list()) throw DecodeError("expected rlp string, got list");
    return item.data();
}

}  // namespace

Bytes Transaction::signing_payload() const {
    return rlp::encode(rlp::Item::list({
        rlp::Item::integer(nonce),
        address_item(to),
        rlp::Item::integer(gas_limit),
        rlp::Item::integer(gas_price),
        rlp::Item::string(data),
    }));
}

Bytes Transaction::encode() const {
    return rlp::encode(rlp::Item::list({
        rlp::Item::integer(nonce),
        address_item(to),
        rlp::Item::integer(gas_limit),
        rlp::Item::integer(gas_price),
        rlp::Item::string(data),
        rlp::Item::string(sender_pub.x.to_hash().view()),
        rlp::Item::string(sender_pub.y.to_hash().view()),
        rlp::Item::string(signature.serialize()),
    }));
}

Transaction Transaction::decode(BytesView wire) {
    const rlp::Item item = rlp::decode(wire);
    if (!item.is_list() || item.children().size() != 8) {
        throw DecodeError("transaction must be an 8-item list");
    }
    Transaction tx;
    tx.nonce = child(item, 0).as_u64();
    tx.to = as_address(child(item, 1));
    tx.gas_limit = child(item, 2).as_u64();
    tx.gas_price = child(item, 3).as_u64();
    tx.data = as_string(child(item, 4));
    tx.sender_pub.x = crypto::U256::from_hash(as_hash(child(item, 5)));
    tx.sender_pub.y = crypto::U256::from_hash(as_hash(child(item, 6)));
    tx.sender_pub.infinity = false;
    tx.signature = crypto::Signature::deserialize(as_string(child(item, 7)));
    return tx;
}

Hash32 Transaction::hash() const { return crypto::keccak256(encode()); }

bool Transaction::verify_signature() const {
    return crypto::verify(sender_pub, signing_payload(), signature);
}

Transaction Transaction::make_signed(const crypto::KeyPair& key,
                                     std::uint64_t nonce, const Address& to,
                                     std::uint64_t gas_limit,
                                     std::uint64_t gas_price, Bytes data) {
    Transaction tx;
    tx.nonce = nonce;
    tx.to = to;
    tx.gas_limit = gas_limit;
    tx.gas_price = gas_price;
    tx.data = std::move(data);
    tx.sender_pub = key.public_key();
    tx.signature = key.sign(tx.signing_payload());
    return tx;
}

Bytes Receipt::encode() const {
    std::vector<rlp::Item> log_items;
    log_items.reserve(logs.size());
    for (const LogEntry& log : logs) {
        std::vector<rlp::Item> topic_items;
        topic_items.reserve(log.topics.size());
        for (const Hash32& topic : log.topics) topic_items.push_back(hash_item(topic));
        log_items.push_back(rlp::Item::list({
            address_item(log.address),
            rlp::Item::list(std::move(topic_items)),
            rlp::Item::string(log.data),
        }));
    }
    return rlp::encode(rlp::Item::list({
        rlp::Item::integer(success ? 1 : 0),
        rlp::Item::integer(gas_used),
        rlp::Item::list(std::move(log_items)),
        rlp::Item::string(return_data),
    }));
}

Hash32 Receipt::hash() const { return crypto::keccak256(encode()); }

namespace {
rlp::Item header_body(const BlockHeader& h, bool with_nonce) {
    std::vector<rlp::Item> fields{
        rlp::Item::integer(h.number),
        hash_item(h.parent_hash),
        hash_item(h.tx_root),
        hash_item(h.state_root),
        hash_item(h.receipts_root),
        address_item(h.miner),
        rlp::Item::integer(h.difficulty),
        rlp::Item::integer(h.timestamp_ms),
        rlp::Item::integer(h.gas_limit),
        rlp::Item::integer(h.gas_used),
    };
    if (with_nonce) fields.push_back(rlp::Item::integer(h.pow_nonce));
    return rlp::Item::list(std::move(fields));
}
}  // namespace

Hash32 BlockHeader::hash() const {
    return crypto::keccak256(rlp::encode(header_body(*this, true)));
}

Hash32 BlockHeader::seal_hash() const {
    return crypto::keccak256(rlp::encode(header_body(*this, false)));
}

Bytes BlockHeader::encode() const {
    return rlp::encode(header_body(*this, true));
}

BlockHeader BlockHeader::decode(BytesView wire) {
    const rlp::Item item = rlp::decode(wire);
    if (!item.is_list() || item.children().size() != 11) {
        throw DecodeError("header must be an 11-item list");
    }
    BlockHeader h;
    h.number = child(item, 0).as_u64();
    h.parent_hash = as_hash(child(item, 1));
    h.tx_root = as_hash(child(item, 2));
    h.state_root = as_hash(child(item, 3));
    h.receipts_root = as_hash(child(item, 4));
    h.miner = as_address(child(item, 5));
    h.difficulty = child(item, 6).as_u64();
    h.timestamp_ms = child(item, 7).as_u64();
    h.gas_limit = child(item, 8).as_u64();
    h.gas_used = child(item, 9).as_u64();
    h.pow_nonce = child(item, 10).as_u64();
    return h;
}

Hash32 Block::compute_tx_root() const {
    std::vector<Hash32> leaves;
    leaves.reserve(transactions.size());
    for (const Transaction& tx : transactions) leaves.push_back(tx.hash());
    return crypto::merkle_root(leaves);
}

std::size_t Block::wire_size() const { return encode().size(); }

Bytes Block::encode() const {
    std::vector<rlp::Item> tx_items;
    tx_items.reserve(transactions.size());
    for (const Transaction& tx : transactions) {
        tx_items.push_back(rlp::Item::string(tx.encode()));
    }
    return rlp::encode(rlp::Item::list({
        rlp::Item::string(header.encode()),
        rlp::Item::list(std::move(tx_items)),
    }));
}

Block Block::decode(BytesView wire) {
    const rlp::Item item = rlp::decode(wire);
    if (!item.is_list() || item.children().size() != 2) {
        throw DecodeError("block must be a 2-item list");
    }
    Block block;
    block.header = BlockHeader::decode(as_string(child(item, 0)));
    const rlp::Item& tx_items = child(item, 1);
    if (!tx_items.is_list()) throw DecodeError("block txs must be a list");
    block.transactions.reserve(tx_items.children().size());
    for (const rlp::Item& tx_item : tx_items.children()) {
        block.transactions.push_back(Transaction::decode(as_string(tx_item)));
    }
    return block;
}

Hash32 receipts_root(const std::vector<Receipt>& receipts) {
    std::vector<Hash32> leaves;
    leaves.reserve(receipts.size());
    for (const Receipt& r : receipts) leaves.push_back(r.hash());
    return crypto::merkle_root(leaves);
}

}  // namespace bcfl::chain
