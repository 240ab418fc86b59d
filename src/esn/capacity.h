/**
 * @file
 * Linear memory capacity of a reservoir: MC = sum_k r^2(y_k, u(t-k))
 * over delays k, with one linear readout per delay trained jointly by
 * multi-target ridge regression.  MC is the standard probe of how much
 * input history the recurrent W keeps alive — the property the paper's
 * fixed sparse matrices exist to provide.
 */

#ifndef SPATIAL_ESN_CAPACITY_H
#define SPATIAL_ESN_CAPACITY_H

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "esn/reservoir.h"

namespace spatial::esn
{

/** Per-delay and total memory capacity. */
struct MemoryCapacityResult
{
    std::vector<double> perDelay; //!< r^2 for delays 1..max_delay
    double total = 0.0;           //!< sum over delays
};

/**
 * Measure the memory capacity of a float reservoir.
 *
 * @param reservoir probed reservoir (reset internally).
 * @param max_delay longest probed delay.
 * @param length input sequence length.
 * @param washout dropped prefix.
 * @param lambda ridge regularizer.
 * @param rng source of the uniform input sequence.
 */
MemoryCapacityResult measureMemoryCapacity(FloatReservoir &reservoir,
                                           std::size_t max_delay,
                                           std::size_t length,
                                           std::size_t washout,
                                           double lambda, Rng &rng);

/** Same probe for an integer reservoir (hardware path capable). */
MemoryCapacityResult measureMemoryCapacity(IntReservoir &reservoir,
                                           std::size_t max_delay,
                                           std::size_t length,
                                           std::size_t washout,
                                           double lambda, Rng &rng);

} // namespace spatial::esn

#endif // SPATIAL_ESN_CAPACITY_H
