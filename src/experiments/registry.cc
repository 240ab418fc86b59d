#include "experiments/registry.h"

#include "common/logging.h"

namespace spatial::experiments
{

Registry &
Registry::instance()
{
    static Registry *registry = [] {
        auto *r = new Registry();
        registerFigureExperiments(*r);
        registerLargeScaleExperiments(*r);
        registerBaselineExperiments(*r);
        registerEsnExperiments(*r);
        registerServeExperiments(*r);
        registerLargeMatrixExperiments(*r);
        registerChaosExperiments(*r);
        return r;
    }();
    return *registry;
}

void
Registry::add(Experiment experiment)
{
    SPATIAL_ASSERT(!experiment.name.empty(), "unnamed experiment");
    if (find(experiment.name) != nullptr)
        SPATIAL_FATAL("duplicate experiment '", experiment.name, "'");
    experiments_.push_back(std::move(experiment));
}

const Experiment *
Registry::find(const std::string &name) const
{
    for (const auto &experiment : experiments_)
        if (experiment.name == name)
            return &experiment;
    return nullptr;
}

std::vector<const Experiment *>
Registry::all() const
{
    std::vector<const Experiment *> out;
    out.reserve(experiments_.size());
    for (const auto &experiment : experiments_)
        out.push_back(&experiment);
    return out;
}

} // namespace spatial::experiments
