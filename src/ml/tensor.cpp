#include "ml/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"

namespace bcfl::ml {

std::size_t Tensor::element_count(const std::vector<std::size_t>& shape) {
    std::size_t n = 1;
    for (std::size_t d : shape) n *= d;
    return n;
}

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_(std::move(shape)), values_(element_count(shape_), 0.0f) {}

Tensor::Tensor(std::vector<std::size_t> shape, std::vector<float> values)
    : shape_(std::move(shape)), values_(std::move(values)) {
    if (values_.size() != element_count(shape_)) {
        throw ShapeError("tensor data does not match shape");
    }
}

void Tensor::reshape(std::vector<std::size_t> shape) {
    if (element_count(shape) != values_.size()) {
        throw ShapeError("reshape changes element count");
    }
    shape_ = std::move(shape);
}

void Tensor::fill(float value) {
    std::fill(values_.begin(), values_.end(), value);
}

namespace {

// Four float lanes: one SSE2 register on baseline x86-64. Each lane is a
// plain IEEE single-precision multiply or add, exactly like the scalar
// instruction, so vector code gives the scalar loop's bits at any width.
// Baseline x86-64 has no FMA, so a*b + c is never fused either.
using Vec4 = float __attribute__((vector_size(16)));

// Output tile held in registers: kRows rows x kCols columns.
constexpr std::size_t kRows = 4;
constexpr std::size_t kCols = 8;

/// How an output element's k-sum is formed.
enum class Sum {
    // out += a*b for p ascending, skipping every p where a == 0 (nn, tn).
    kSkipZeroA,
    // The same sum without the skip, for calls where the skip changes no
    // bit. With b finite, a zero a adds a signed zero, and x + ±0 == x for
    // every x but -0.0 and a signalling NaN. In round-to-nearest, x + y is
    // -0.0 only when both are, so a running sum is -0.0 only while it still
    // holds the -0.0 it started from: out free of -0.0 and NaN suffices.
    // Every training call qualifies, and dropping the per-term branch makes
    // paper_tradeoff ~1.2x faster end to end (docs/benchmarks.md).
    kDense,
    // acc = sum of a*b for p ascending from 0, then out += acc (nt).
    kDotThenAdd,
};

/// A matrix operand in place: element (r, c) is data[r * row_stride +
/// c * col_stride], which covers both stored and transposed layouts.
struct View {
    const float* data;
    std::size_t row_stride;
    std::size_t col_stride;

    [[nodiscard]] float at(std::size_t r, std::size_t c) const {
        return data[r * row_stride + c * col_stride];
    }
};

template <class V>
V load(const float* p) {
    V v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

template <class V>
void store(float* p, V v) {
    std::memcpy(p, &v, sizeof v);
}

/// Computes the rows x width tile of out at (i0, j0), width being
/// lanes(V) * kVecs; panel holds b's columns [j0, j0 + width) packed as
/// {k, width}. Rows and lanes are independent, and each element's sum runs
/// over p ascending, so the tile equals the scalar loop bit for bit.
template <std::size_t kTileRows, class V, std::size_t kVecs, Sum kSum>
void tile(const View& a, const float* panel, float* out, std::size_t k,
          std::size_t n, std::size_t i0, std::size_t j0) {
    constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
    constexpr std::size_t kWidth = kLanes * kVecs;
    V acc[kTileRows][kVecs];
    for (std::size_t r = 0; r < kTileRows; ++r) {
        for (std::size_t v = 0; v < kVecs; ++v) {
            acc[r][v] = kSum == Sum::kDotThenAdd
                            ? V{}
                            : load<V>(out + (i0 + r) * n + j0 + v * kLanes);
        }
    }
    for (std::size_t p = 0; p < k; ++p) {
        V b_vec[kVecs];
        for (std::size_t v = 0; v < kVecs; ++v) {
            b_vec[v] = load<V>(panel + p * kWidth + v * kLanes);
        }
        for (std::size_t r = 0; r < kTileRows; ++r) {
            const float a_val = a.at(i0 + r, p);
            if (kSum == Sum::kSkipZeroA && a_val == 0.0f) continue;
            for (std::size_t v = 0; v < kVecs; ++v) {
                acc[r][v] += a_val * b_vec[v];
            }
        }
    }
    for (std::size_t r = 0; r < kTileRows; ++r) {
        for (std::size_t v = 0; v < kVecs; ++v) {
            float* dst = out + (i0 + r) * n + j0 + v * kLanes;
            store<V>(dst, kSum == Sum::kDotThenAdd ? load<V>(dst) + acc[r][v]
                                                   : acc[r][v]);
        }
    }
}

/// Rows [i0, i0 + kTileRows) of out, across every column panel.
template <std::size_t kTileRows, Sum kSum>
void row_block(const View& a, const float* packed, float* out,
               std::size_t k, std::size_t n, std::size_t i0) {
    std::size_t j = 0;
    for (; j + kCols <= n; j += kCols) {
        tile<kTileRows, Vec4, kCols / 4, kSum>(a, packed + j * k, out, k, n,
                                               i0, j);
    }
    for (; j + 4 <= n; j += 4) {
        tile<kTileRows, Vec4, 1, kSum>(a, packed + j * k, out, k, n, i0, j);
    }
    for (; j < n; ++j) {
        tile<kTileRows, float, 1, kSum>(a, packed + j * k, out, k, n, i0, j);
    }
}

template <Sum kSum>
void row_blocks(const View& a, const float* packed, float* out,
                std::size_t m, std::size_t k, std::size_t n) {
    std::size_t i = 0;
    for (; i + kRows <= m; i += kRows) {
        row_block<kRows, kSum>(a, packed, out, k, n, i);
    }
    for (; i < m; ++i) row_block<1, kSum>(a, packed, out, k, n, i);
}

/// out[m,n] (+)= A[m,k] * B[k,n]; the caller has already zeroed out when
/// not accumulating. B is first packed into column panels of the tile
/// widths row_block walks, each stored {k, width} from offset j * k, so a
/// tile reads its panel as one contiguous stream whatever B's layout.
template <Sum kSum>
void gemm(const View& a, const View& b, float* out, std::size_t m,
          std::size_t k, std::size_t n) {
    std::vector<float> packed(k * n);
    bool finite = true;
    for (std::size_t j = 0; j < n;) {
        const std::size_t width = n - j >= kCols ? kCols : n - j >= 4 ? 4 : 1;
        float* panel = packed.data() + j * k;
        for (std::size_t p = 0; p < k; ++p) {
            for (std::size_t c = 0; c < width; ++c) {
                const float value = b.at(p, j + c);
                panel[p * width + c] = value;
                finite = finite && std::isfinite(value);
            }
        }
        j += width;
    }
    if (kSum == Sum::kSkipZeroA && finite &&
        std::none_of(out, out + m * n, [](float value) {
            return std::isnan(value) || (value == 0.0f && std::signbit(value));
        })) {
        row_blocks<Sum::kDense>(a, packed.data(), out, m, k, n);
    } else {
        row_blocks<kSum>(a, packed.data(), out, m, k, n);
    }
}

}  // namespace

void matmul_nn(const float* a, const float* b, float* out, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate) {
    if (!accumulate) std::fill_n(out, m * n, 0.0f);
    gemm<Sum::kSkipZeroA>({a, k, 1}, {b, n, 1}, out, m, k, n);
}

void matmul_tn(const float* a, const float* b, float* out, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate) {
    if (!accumulate) std::fill_n(out, m * n, 0.0f);
    gemm<Sum::kSkipZeroA>({a, 1, m}, {b, n, 1}, out, m, k, n);
}

void matmul_nt(const float* a, const float* b, float* out, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate) {
    if (!accumulate) std::fill_n(out, m * n, 0.0f);
    gemm<Sum::kDotThenAdd>({a, k, 1}, {b, 1, k}, out, m, k, n);
}

void axpy(float alpha, const std::vector<float>& x, std::vector<float>& y) {
    if (x.size() != y.size()) throw ShapeError("axpy size mismatch");
    for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

}  // namespace bcfl::ml
