/**
 * @file
 * The experiment registry: every paper figure/table and ESN scenario,
 * registered by name, discoverable by the spatial-bench CLI and the
 * tests.  Built-in experiments register lazily on first access (static
 * libraries would dead-strip self-registering globals).
 */

#ifndef SPATIAL_EXPERIMENTS_REGISTRY_H
#define SPATIAL_EXPERIMENTS_REGISTRY_H

#include <string>
#include <vector>

#include "experiments/experiment.h"

namespace spatial::experiments
{

/** Name-keyed collection of Experiment specs. */
class Registry
{
  public:
    /** The process-wide registry, with built-ins registered. */
    static Registry &instance();

    /** Register an experiment; fatal on duplicate names. */
    void add(Experiment experiment);

    /** Look up by name; nullptr when absent. */
    const Experiment *find(const std::string &name) const;

    /** All experiments, in registration order. */
    std::vector<const Experiment *> all() const;

  private:
    std::vector<Experiment> experiments_;
};

/** @name Built-in registration hooks (one per definition file) */
///@{
void registerFigureExperiments(Registry &registry);     //!< fig05-09, tab1
void registerLargeScaleExperiments(Registry &registry); //!< fig10-12, ablation, serial-vs-parallel, CGRA
void registerBaselineExperiments(Registry &registry);   //!< fig13-23
void registerEsnExperiments(Registry &registry);        //!< ESN scenarios
void registerServeExperiments(Registry &registry);      //!< serving_throughput
void registerLargeMatrixExperiments(Registry &registry); //!< large_matrix
void registerChaosExperiments(Registry &registry);       //!< chaos
///@}

} // namespace spatial::experiments

#endif // SPATIAL_EXPERIMENTS_REGISTRY_H
