// Minimal dense float32 tensor with the matmul kernels the training stack
// needs: plain NN, transposed-A (TN) and transposed-B (NT).
//
// The kernels are register-blocked and vectorized across output columns,
// and bit-exact with the plain scalar loops: every output element is summed
// over k ascending, with IEEE single-precision multiplies and adds only (no
// FMA, no reassociation). NN and TN start from the existing out value and
// skip each term whose a is zero; NT sums a*b from 0 and then adds the sum
// to out. The results are therefore the same bits on every build, and
// tests/ml_test.cpp pins them against the scalar loops.
#pragma once

#include <cstddef>
#include <vector>

#include "common/bytes.hpp"

namespace bcfl::ml {

class Tensor {
public:
    Tensor() = default;
    explicit Tensor(std::vector<std::size_t> shape);
    Tensor(std::vector<std::size_t> shape, std::vector<float> values);

    static Tensor zeros(std::vector<std::size_t> shape) {
        return Tensor(std::move(shape));
    }

    [[nodiscard]] const std::vector<std::size_t>& shape() const {
        return shape_;
    }
    [[nodiscard]] std::size_t rank() const { return shape_.size(); }
    [[nodiscard]] std::size_t dim(std::size_t i) const { return shape_[i]; }
    [[nodiscard]] std::size_t size() const { return values_.size(); }

    [[nodiscard]] float* data() { return values_.data(); }
    [[nodiscard]] const float* data() const { return values_.data(); }
    [[nodiscard]] std::vector<float>& values() { return values_; }
    [[nodiscard]] const std::vector<float>& values() const { return values_; }

    [[nodiscard]] float& operator[](std::size_t i) { return values_[i]; }
    [[nodiscard]] float operator[](std::size_t i) const { return values_[i]; }

    /// Reshape without copying; total size must match.
    void reshape(std::vector<std::size_t> shape);

    void fill(float value);

    /// Total element count implied by a shape.
    static std::size_t element_count(const std::vector<std::size_t>& shape);

private:
    std::vector<std::size_t> shape_;
    std::vector<float> values_;
};

/// out[m,n] (+)= a[m,k] * b[k,n]
void matmul_nn(const float* a, const float* b, float* out, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate);
/// out[m,n] (+)= a[k,m]^T * b[k,n]
void matmul_tn(const float* a, const float* b, float* out, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate);
/// out[m,n] (+)= a[m,k] * b[n,k]^T
void matmul_nt(const float* a, const float* b, float* out, std::size_t m,
               std::size_t k, std::size_t n, bool accumulate);

/// y += alpha * x (vectors of equal length).
void axpy(float alpha, const std::vector<float>& x, std::vector<float>& y);

}  // namespace bcfl::ml
