/**
 * @file
 * `spatial-lint`: static verification of compiled artifacts from the
 * command line — the CLI face of src/analysis (see docs/analysis.md
 * for the rule catalog).
 *
 * Modes:
 *
 *   spatial-lint --all-registry [--max_dim N] [--json]
 *       Sweep every distinct (dim, sparsity) the experiment registry's
 *       grids name (capped at --max_dim, default 256), compile each
 *       under every sign mode, and verify every layer — netlist, the
 *       segmented execution plan, and tile partition.  One
 *       forced-tiling case rides along so the tile layer is exercised
 *       even when every registry design fits a single tile.
 *
 *   spatial-lint --design DIM,SPARSITY[,SIGN] [--json]
 *       Compile and verify one design (SIGN: unsigned/pn/csd).
 *
 *   spatial-lint --sptd FILE [--sptd FILE ...] [--json]
 *       Verify serialized design files: container integrity first
 *       (magic/version/checksum), then every layer of the
 *       reconstructed design.
 *
 * Exit status: 0 when no Error-severity diagnostic was found, 1
 * otherwise (warnings print but do not fail the lint).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/verifier.h"
#include "experiments/design_cache.h"
#include "experiments/registry.h"
#include "experiments/workload.h"
#include "matrix/dense.h"

namespace
{

using spatial::IntMatrix;
using namespace spatial::analysis;
using namespace spatial::experiments;

struct Options
{
    bool allRegistry = false;
    bool json = false;
    std::size_t maxDim = 256;
    std::string design; //!< "dim,sparsity[,sign]"
    std::vector<std::string> sptdFiles;
};

void
usage()
{
    std::fprintf(
        stderr,
        "usage: spatial-lint [--json] (--all-registry [--max_dim N] |\n"
        "                    --design DIM,SPARSITY[,SIGN] |\n"
        "                    --sptd FILE [--sptd FILE ...])\n"
        "SIGN: unsigned | pn | csd (default pn)\n");
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

/** Print one design's findings; returns its error count. */
std::size_t
emit(const Options &opts, const std::string &subject,
     const Report &report, bool *firstJson)
{
    for (const auto &d : report.diagnostics) {
        if (opts.json) {
            std::printf("%s  {\"subject\": \"%s\", \"severity\": "
                        "\"%s\", \"layer\": \"%s\", \"rule\": \"%s\", "
                        "\"index\": %lld, \"message\": \"%s\"}",
                        *firstJson ? "" : ",\n",
                        jsonEscape(subject).c_str(),
                        severityName(d.severity), layerName(d.layer),
                        d.rule.c_str(),
                        d.index == kNoIndex
                            ? -1ll
                            : static_cast<long long>(d.index),
                        jsonEscape(d.message).c_str());
            *firstJson = false;
        } else {
            std::printf("%s: %s\n", subject.c_str(), d.str().c_str());
        }
    }
    return report.errors();
}

const char *
signName(spatial::core::SignMode mode)
{
    switch (mode) {
      case spatial::core::SignMode::Unsigned:
        return "unsigned";
      case spatial::core::SignMode::PnSplit:
        return "pn";
      case spatial::core::SignMode::Csd:
        return "csd";
    }
    return "?";
}

/** Compile (weights, options, tile) and verify every layer. */
std::size_t
lintDesign(const Options &opts, const std::string &subject,
           const IntMatrix &weights,
           const spatial::core::CompileOptions &compile,
           const spatial::core::TileOptions &tile, bool *firstJson,
           std::size_t *checked)
{
    Report request = verifyCompileRequest(compile, weights);
    if (!request.ok())
        return emit(opts, subject, request, firstJson);
    const auto design =
        spatial::core::TiledDesign::compile(weights, compile, tile);
    ++*checked;
    return emit(opts, subject, verifyDesign(design), firstJson);
}

/** Element-wise absolute value (Unsigned-mode lint input). */
IntMatrix
magnitudes(const IntMatrix &weights)
{
    IntMatrix out(weights.rows(), weights.cols());
    for (std::size_t r = 0; r < weights.rows(); ++r)
        for (std::size_t c = 0; c < weights.cols(); ++c) {
            const std::int64_t v = weights.at(r, c);
            out.at(r, c) = v < 0 ? -v : v;
        }
    return out;
}

int
runAllRegistry(const Options &opts)
{
    // Every distinct (dim, sparsity) any registered experiment sweeps.
    std::set<std::pair<std::int64_t, double>> points;
    for (const auto *exp : Registry::instance().all()) {
        if (!exp->grid.hasParam("dim") ||
            !exp->grid.hasParam("sparsity"))
            continue;
        for (const auto &point : exp->grid.expand()) {
            const std::int64_t dim = point.getInt("dim");
            if (dim > 0 && static_cast<std::size_t>(dim) <= opts.maxDim)
                points.insert({dim, point.getReal("sparsity")});
        }
    }

    bool firstJson = true;
    if (opts.json)
        std::printf("[\n");
    std::size_t errors = 0;
    std::size_t checked = 0;
    std::unordered_set<DesignKey, DesignKeyHash> seen; // cross-grid dedup
    for (const auto &[dim, sparsity] : points) {
        const Workload workload =
            makeWorkload(static_cast<std::size_t>(dim), sparsity);
        for (const auto mode : {spatial::core::SignMode::Unsigned,
                                spatial::core::SignMode::PnSplit,
                                spatial::core::SignMode::Csd}) {
            const auto compile = figureCompileOptions(mode);
            const IntMatrix &weights =
                mode == spatial::core::SignMode::Unsigned
                    ? magnitudes(workload.weights)
                    : workload.weights;
            if (!seen.insert(makeDesignKey(weights, compile)).second)
                continue;
            const std::string subject =
                "dim=" + std::to_string(dim) +
                " sparsity=" + std::to_string(sparsity) +
                " sign=" + signName(mode);
            errors += lintDesign(opts, subject, weights, compile, {},
                                 &firstJson, &checked);
        }
    }

    // Forced-tiling case: a tiny ones budget cuts the design into
    // multiple column strips so TILE-* rules run against a real
    // multi-tile partition.
    {
        const Workload workload = makeWorkload(48, 0.5);
        spatial::core::TileOptions tile;
        tile.onesBudget = 2000;
        errors += lintDesign(
            opts, "forced-tiling dim=48", workload.weights,
            figureCompileOptions(spatial::core::SignMode::PnSplit),
            tile, &firstJson, &checked);
    }
    if (opts.json)
        std::printf("%s]\n", firstJson ? "" : "\n");
    else
        std::printf("spatial-lint: %zu designs checked, %zu errors\n",
                    checked, errors);
    return errors == 0 ? 0 : 1;
}

int
runSingleDesign(const Options &opts)
{
    std::size_t dim = 0;
    double sparsity = 0.0;
    char sign[16] = "pn";
    if (std::sscanf(opts.design.c_str(), "%zu,%lf,%15s", &dim,
                    &sparsity, sign) < 2 ||
        dim == 0) {
        usage();
        return 2;
    }
    spatial::core::SignMode mode = spatial::core::SignMode::PnSplit;
    if (std::strcmp(sign, "unsigned") == 0)
        mode = spatial::core::SignMode::Unsigned;
    else if (std::strcmp(sign, "csd") == 0)
        mode = spatial::core::SignMode::Csd;
    else if (std::strcmp(sign, "pn") != 0) {
        usage();
        return 2;
    }
    const Workload workload = makeWorkload(dim, sparsity);
    const IntMatrix &weights =
        mode == spatial::core::SignMode::Unsigned
            ? magnitudes(workload.weights)
            : workload.weights;
    bool firstJson = true;
    if (opts.json)
        std::printf("[\n");
    std::size_t checked = 0;
    const std::size_t errors =
        lintDesign(opts, opts.design, weights,
                   figureCompileOptions(mode), {}, &firstJson,
                   &checked);
    if (opts.json)
        std::printf("%s]\n", firstJson ? "" : "\n");
    else
        std::printf("spatial-lint: %zu designs checked, %zu errors\n",
                    checked, errors);
    return errors == 0 ? 0 : 1;
}

int
runSptd(const Options &opts)
{
    bool firstJson = true;
    if (opts.json)
        std::printf("[\n");
    std::size_t errors = 0;
    for (const auto &path : opts.sptdFiles)
        errors += emit(opts, path, verifyFile(path), &firstJson);
    if (opts.json)
        std::printf("%s]\n", firstJson ? "" : "\n");
    else
        std::printf("spatial-lint: %zu files checked, %zu errors\n",
                    opts.sptdFiles.size(), errors);
    return errors == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--all-registry") {
            opts.allRegistry = true;
        } else if (arg == "--json") {
            opts.json = true;
        } else if (arg == "--max_dim" && i + 1 < argc) {
            opts.maxDim =
                static_cast<std::size_t>(std::atoll(argv[++i]));
        } else if (arg == "--design" && i + 1 < argc) {
            opts.design = argv[++i];
        } else if (arg == "--sptd" && i + 1 < argc) {
            opts.sptdFiles.push_back(argv[++i]);
        } else {
            usage();
            return 2;
        }
    }
    if (opts.allRegistry)
        return runAllRegistry(opts);
    if (!opts.design.empty())
        return runSingleDesign(opts);
    if (!opts.sptdFiles.empty())
        return runSptd(opts);
    usage();
    return 2;
}
