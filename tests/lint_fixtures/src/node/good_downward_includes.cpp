// Known-good fixture for the `layering` rule: node/ sits just beneath
// core/ on the include axis, so reaching down into chain/ and net/ is
// within the DAG, and core/parallel.hpp is the sanctioned leaf every
// layer may name. Must produce no findings.
#include "chain/blockchain.hpp"
#include "core/parallel.hpp"
#include "net/transport.hpp"

namespace bcfl::fixture {

int composed_from_the_layers_beneath() { return 4; }

}  // namespace bcfl::fixture
