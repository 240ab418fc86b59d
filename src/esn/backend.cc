#include "esn/backend.h"

namespace spatial::esn
{

IntMatrix
GemvBackend::multiplyBatch(const IntMatrix &xs)
{
    if (xs.cols() != rows())
        SPATIAL_FATAL("batch width ", xs.cols(), " != rows ", rows());
    IntMatrix out(xs.rows(), cols());
    std::vector<std::int64_t> x(rows());
    for (std::size_t b = 0; b < xs.rows(); ++b) {
        for (std::size_t r = 0; r < x.size(); ++r)
            x[r] = xs.at(b, r);
        const auto o = multiply(x);
        for (std::size_t c = 0; c < o.size(); ++c)
            out.at(b, c) = o[c];
    }
    return out;
}

ReferenceBackend::ReferenceBackend(IntMatrix weights)
    : weights_(std::move(weights))
{}

std::vector<std::int64_t>
ReferenceBackend::multiply(const std::vector<std::int64_t> &x)
{
    return gemvRef(x, weights_);
}

CsrBackend::CsrBackend(const IntMatrix &weights)
    : csr_(CsrMatrix<std::int64_t>::fromDense(weights))
{}

std::vector<std::int64_t>
CsrBackend::multiply(const std::vector<std::int64_t> &x)
{
    return csr_.multiplyLeft(x);
}

SpatialBackend::SpatialBackend(core::CompiledMatrix design)
    : design_(std::move(design)), gemv_(design_)
{}

std::vector<std::int64_t>
SpatialBackend::multiply(const std::vector<std::int64_t> &x)
{
    auto result = gemv_.multiply(x);
    totalCycles_ += design_.drainCycles();
    return result;
}

BatchedSpatialBackend::BatchedSpatialBackend(core::CompiledMatrix design,
                                             core::SimOptions sim_options)
    : SpatialBackend(std::move(design)), simOptions_(sim_options)
{}

IntMatrix
BatchedSpatialBackend::multiplyBatch(const IntMatrix &xs)
{
    const auto out = design().multiplyBatchWide(xs, simOptions_);
    // Hardware cost accounting: one drain per netlist pass, one pass per
    // lane group.
    const std::size_t lanes =
        64 * core::resolvedLaneWords(simOptions_, xs.rows());
    const std::size_t groups =
        xs.rows() == 0 ? 0 : (xs.rows() + lanes - 1) / lanes;
    addCycles(static_cast<std::uint64_t>(groups) * design().drainCycles());
    return out;
}

} // namespace spatial::esn
