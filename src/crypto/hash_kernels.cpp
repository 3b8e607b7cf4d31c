#include "crypto/hash_kernels.hpp"

#include <cstring>

#include "crypto/keccak.hpp"
#include "crypto/sha256.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace bcfl::crypto {

namespace {

struct CpuFeatures {
    bool sha = false;
    bool avx2 = false;
    bool avx512vl = false;
};

CpuFeatures detect() {
    CpuFeatures f;
#if defined(__x86_64__)
    __builtin_cpu_init();
    // Not every compiler's __builtin_cpu_supports knows "sha", so read
    // CPUID leaf 7 (EBX bit 29) directly. SHA-NI works on XMM registers
    // only, whose OS state every x86-64 kernel saves, so no XGETBV check.
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    const bool leaf7 = __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0;
    f.sha = leaf7 && (ebx & (1u << 29)) != 0 &&
            __builtin_cpu_supports("sse4.1");
    // These two also check that the OS saves the YMM/ZMM state.
    f.avx2 = __builtin_cpu_supports("avx2");
    f.avx512vl = f.avx2 && __builtin_cpu_supports("avx512vl");
#endif
    return f;
}

}  // namespace

bool cpu_supports(const char* feature) {
    static const CpuFeatures features = detect();
    if (std::strcmp(feature, "sha") == 0) return features.sha;
    if (std::strcmp(feature, "avx2") == 0) return features.avx2;
    if (std::strcmp(feature, "avx512vl") == 0) return features.avx512vl;
    return false;
}

std::string hash_kernels() {
    return std::string("sha256=") + sha256_kernel().name +
           " keccak_nonce_search=" + keccak_nonce_search_kernel().name;
}

}  // namespace bcfl::crypto
