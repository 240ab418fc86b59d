#include "reference.h"

#include <algorithm>

#include "common/logging.h"

namespace spatial::perf
{

Reference::Reference(const IntMatrix &weights)
    : rows_(weights.rows()), cols_(weights.cols())
{
    rowStart_.reserve(rows_ + 1);
    rowStart_.push_back(0);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t c = 0; c < cols_; ++c) {
            if (weights.at(r, c) != 0) {
                colIndex_.push_back(static_cast<std::uint32_t>(c));
                value_.push_back(weights.at(r, c));
            }
        }
        rowStart_.push_back(value_.size());
    }
}

std::vector<std::int64_t>
Reference::gemv(const std::vector<std::int64_t> &x) const
{
    if (x.size() != rows_)
        SPATIAL_FATAL("reference: vector of ", x.size(), " for ", rows_,
                      " rows");
    std::vector<std::int64_t> o(cols_, 0);
    for (std::size_t r = 0; r < rows_; ++r) {
        const std::int64_t xr = x[r];
        if (xr == 0)
            continue;
        for (std::size_t k = rowStart_[r]; k < rowStart_[r + 1]; ++k)
            o[colIndex_[k]] += xr * value_[k];
    }
    return o;
}

std::vector<std::int64_t>
Reference::esnStep(const std::vector<std::int64_t> &x,
                   const std::int64_t *inject, int shift,
                   int state_bits) const
{
    const std::int64_t hi = (std::int64_t(1) << (state_bits - 1)) - 1;
    const std::int64_t lo = -hi - 1;
    std::vector<std::int64_t> o = gemv(x);
    for (std::size_t c = 0; c < cols_; ++c) {
        const std::int64_t pre = o[c] + (inject ? inject[c] : 0);
        o[c] = std::clamp(pre >> shift, lo, hi);
    }
    return o;
}

IntMatrix
Reference::answer(const serve::Request &request) const
{
    using serve::RequestKind;
    switch (request.kind) {
      case RequestKind::Gemv: {
        IntMatrix out(1, cols_);
        const auto o = gemv(request.vec);
        std::copy(o.begin(), o.end(), &out.at(0, 0));
        return out;
      }
      case RequestKind::GemvBatch: {
        const IntMatrix &xs = request.batch;
        IntMatrix out(xs.rows(), cols_);
        std::vector<std::int64_t> x(rows_);
        for (std::size_t b = 0; b < xs.rows(); ++b) {
            for (std::size_t r = 0; r < rows_; ++r)
                x[r] = xs.at(b, r);
            const auto o = gemv(x);
            std::copy(o.begin(), o.end(), &out.at(b, 0));
        }
        return out;
      }
      case RequestKind::EsnStep: {
        IntMatrix out(1, cols_);
        const auto o = esnStep(request.vec,
                               request.inject.empty()
                                   ? nullptr
                                   : request.inject.data(),
                               request.postShift, request.stateBits);
        std::copy(o.begin(), o.end(), &out.at(0, 0));
        return out;
      }
      case RequestKind::EsnSequence: {
        const IntMatrix &inject = request.injectSeq;
        IntMatrix out(inject.rows(), cols_);
        std::vector<std::int64_t> state = request.vec;
        for (std::size_t t = 0; t < inject.rows(); ++t) {
            state = esnStep(state, &inject.data()[t * cols_],
                            request.postShift, request.stateBits);
            std::copy(state.begin(), state.end(), &out.at(t, 0));
        }
        return out;
      }
    }
    SPATIAL_FATAL("reference: unknown request kind");
}

std::uint64_t
fingerprint(const IntMatrix &m)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    mix(m.rows());
    mix(m.cols());
    for (const std::int64_t v : m.data())
        mix(static_cast<std::uint64_t>(v));
    return h;
}

} // namespace spatial::perf
