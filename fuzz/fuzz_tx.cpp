// Fuzz target: chain::Transaction::decode and chain::Block::decode — the
// decoders every gossiped tx and block goes through.
//
// Contracts under test:
//   * malformed input throws bcfl::DecodeError (a bcfl::Error), never
//     anything else, never UB;
//   * both decoders accept only canonical bytes: a successful decode must
//     re-encode to the exact input. A node hashes the received bytes as
//     the tx id and relays them unchanged, so a decoder that accepted two
//     encodings of one tx would give it two ids.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "chain/types.hpp"
#include "common/error.hpp"

namespace {

template <typename Decoded>
void check_canonical(const char* what, bcfl::BytesView input) {
    try {
        const Decoded decoded = Decoded::decode(input);
        const bcfl::Bytes round_trip = decoded.encode();
        if (!bcfl::bytes_equal(round_trip, input)) {
            std::fprintf(stderr,
                         "%s: decode accepted non-canonical input "
                         "(%zu bytes re-encoded to %zu)\n",
                         what, input.size(), round_trip.size());
            std::abort();
        }
    } catch (const bcfl::Error&) {
        // Typed rejection is the contract for malformed input.
    }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
    const bcfl::BytesView input{data, size};
    check_canonical<bcfl::chain::Transaction>("tx", input);
    check_canonical<bcfl::chain::Block>("block", input);
    return 0;
}
