// Run-time choice of the hash kernels.
//
// SHA-256 and the PoW nonce search are compiled in several tiers: a
// portable one that runs everywhere and, on x86-64, kernels for the CPU's
// hash and vector units (SHA-NI, AVX2, AVX-512VL). Each primitive picks the
// fastest tier the CPU supports the first time it runs, with no build
// option or environment variable involved. Every tier computes the same
// bits; the tests compare each one against the portable code.
#pragma once

#include <span>
#include <string>

namespace bcfl::crypto {

/// True when this CPU, and the OS state it runs with, can execute code
/// built for `feature`: "sha" (SHA-NI), "avx2" or "avx512vl". False for
/// any other name and on every non-x86-64 host.
[[nodiscard]] bool cpu_supports(const char* feature);

/// One compiled tier of a hash primitive.
template <class Fn>
struct HashKernel {
    const char* name;
    const char* cpu_feature;  // nullptr: the portable tier, runs anywhere
    Fn* run;

    [[nodiscard]] bool runnable() const {
        return cpu_feature == nullptr || cpu_supports(cpu_feature);
    }
};

/// The last runnable kernel of a list ordered slowest first; the list's
/// first entry is the portable tier.
template <class Fn>
[[nodiscard]] const HashKernel<Fn>& fastest_runnable(
    std::span<const HashKernel<Fn>> kernels) {
    for (auto it = kernels.rbegin(); it != kernels.rend(); ++it) {
        if (it->runnable()) return *it;
    }
    return kernels.front();
}

/// The tiers this process dispatched to, e.g.
/// "sha256=sha-ni keccak_nonce_search=avx512vl-x4". Benchmarks and CI logs
/// record it next to their numbers.
[[nodiscard]] std::string hash_kernels();

}  // namespace bcfl::crypto
