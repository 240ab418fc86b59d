/**
 * @file
 * The benchmark's own answer to every request kind, computed from the
 * weights with plain int64 arithmetic: o = x^T W, and the integer-ESN
 * update clip((x^T W + inject) >> shift) to the signed stateBits range.
 * Nothing here calls into the library's compiler or engines, so a
 * response that matches is right by arithmetic, not by agreement
 * between two paths of the same code.
 */

#ifndef SPATIAL_BENCH_PERF_REFERENCE_H
#define SPATIAL_BENCH_PERF_REFERENCE_H

#include <cstdint>
#include <vector>

#include "matrix/dense.h"
#include "serve/request.h"

namespace spatial::perf
{

/** Row-compressed weights answering requests in int64 arithmetic. */
class Reference
{
  public:
    /** Index the nonzeros of `weights` (rows x cols). */
    explicit Reference(const IntMatrix &weights);

    /** o = x^T W. */
    std::vector<std::int64_t> gemv(const std::vector<std::int64_t> &x) const;

    /** The response matrix `request` must produce (any kind). */
    IntMatrix answer(const serve::Request &request) const;

  private:
    /** x^T W plus `inject`, clipped: one ESN state update. */
    std::vector<std::int64_t> esnStep(const std::vector<std::int64_t> &x,
                                      const std::int64_t *inject, int shift,
                                      int state_bits) const;

    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<std::size_t> rowStart_; //!< rows+1 offsets into cols/vals
    std::vector<std::uint32_t> colIndex_;
    std::vector<std::int64_t> value_;
};

/** FNV-1a over a matrix's shape and values (response fingerprint). */
std::uint64_t fingerprint(const IntMatrix &m);

} // namespace spatial::perf

#endif // SPATIAL_BENCH_PERF_REFERENCE_H
