/**
 * @file
 * Pluggable backends for the reservoir's recurrent W*x product — the
 * operation the paper accelerates.  The reference backend computes the
 * integer gemv in software; the CSR backend models an indexed sparse
 * implementation; the spatial backend streams the state vector through a
 * cycle-accurate simulation of the compiled bit-serial netlist, so an
 * entire ESN can run "on" the generated hardware.
 */

#ifndef SPATIAL_ESN_BACKEND_H
#define SPATIAL_ESN_BACKEND_H

#include <cstdint>
#include <memory>
#include <vector>

#include "core/batch_engine.h"
#include "core/compiled_matrix.h"
#include "matrix/csr.h"
#include "matrix/dense.h"

namespace spatial::esn
{

/** Computes o = x^T W for the reservoir's fixed W. */
class GemvBackend
{
  public:
    virtual ~GemvBackend() = default;

    /** Multiply the length-rows state vector; returns length-cols. */
    virtual std::vector<std::int64_t>
    multiply(const std::vector<std::int64_t> &x) = 0;

    /**
     * Multiply every row of `xs` (xs.cols() == rows()).  The rows are
     * independent, so backends may evaluate them in parallel; the
     * default implementation loops over multiply().
     */
    virtual IntMatrix multiplyBatch(const IntMatrix &xs);

    virtual std::size_t rows() const = 0;
    virtual std::size_t cols() const = 0;

    /** Human-readable backend name for reports. */
    virtual const char *name() const = 0;
};

/** Plain dense software gemv (the functional reference). */
class ReferenceBackend : public GemvBackend
{
  public:
    explicit ReferenceBackend(IntMatrix weights);

    std::vector<std::int64_t>
    multiply(const std::vector<std::int64_t> &x) override;
    std::size_t rows() const override { return weights_.rows(); }
    std::size_t cols() const override { return weights_.cols(); }
    const char *name() const override { return "reference"; }

  private:
    IntMatrix weights_;
};

/** Indexed CSR gemv (what a conventional sparse library executes). */
class CsrBackend : public GemvBackend
{
  public:
    explicit CsrBackend(const IntMatrix &weights);

    std::vector<std::int64_t>
    multiply(const std::vector<std::int64_t> &x) override;
    std::size_t rows() const override { return csr_.rows(); }
    std::size_t cols() const override { return csr_.cols(); }
    const char *name() const override { return "csr"; }

  private:
    CsrMatrix<std::int64_t> csr_;
};

/**
 * The paper's hardware: every multiply is an exact evaluation of the
 * compiled spatial netlist, one stream pass over its ExecPlan through a
 * persistent TapeGemv (no per-call dispatch or allocation).  Also
 * accumulates the hardware cycles the design would spend, drainCycles
 * per multiply, so callers can report hardware time.
 */
class SpatialBackend : public GemvBackend
{
  public:
    explicit SpatialBackend(core::CompiledMatrix design);

    // The tape executor references the owned design; pin the object.
    SpatialBackend(const SpatialBackend &) = delete;
    SpatialBackend &operator=(const SpatialBackend &) = delete;

    std::vector<std::int64_t>
    multiply(const std::vector<std::int64_t> &x) override;
    std::size_t rows() const override { return design_.rows(); }
    std::size_t cols() const override { return design_.cols(); }
    const char *name() const override { return "spatial"; }

    const core::CompiledMatrix &design() const { return design_; }

    /** Total hardware cycles (drainCycles per pass) across all multiplies. */
    std::uint64_t totalCycles() const { return totalCycles_; }

  protected:
    void addCycles(std::uint64_t cycles) { totalCycles_ += cycles; }

  private:
    core::CompiledMatrix design_;
    core::TapeGemv gemv_;
    std::uint64_t totalCycles_ = 0;
};

/**
 * SpatialBackend with a lane-parallel batch path: independent vectors
 * run through multiplyBatchWide on the multi-threaded, >64-lane
 * BlockSimulator engine, so batched workloads (equivalence sweeps,
 * readout evaluation over precomputed states, activity probes) cost one
 * netlist pass per 64*laneWords vectors.  Sequential recurrent updates
 * still take the persistent single-vector tape path via multiply().
 */
class BatchedSpatialBackend : public SpatialBackend
{
  public:
    explicit BatchedSpatialBackend(core::CompiledMatrix design,
                                   core::SimOptions sim_options = {});

    IntMatrix multiplyBatch(const IntMatrix &xs) override;
    const char *name() const override { return "spatial-batched"; }

  private:
    core::SimOptions simOptions_;
};

} // namespace spatial::esn

#endif // SPATIAL_ESN_BACKEND_H
