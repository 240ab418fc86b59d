/**
 * @file
 * spatial-bench: the unified experiment runner.  One CLI fronting the
 * experiment registry — every paper figure/table, the ESN scenarios,
 * and the engine throughput bench — executed by the threaded sweep
 * engine with cross-experiment design caching.
 *
 *   spatial-bench list
 *   spatial-bench describe fig08
 *   spatial-bench run fig08 fig09
 *   spatial-bench run --all --json=out/
 *   spatial-bench run fig13 --dim=64,128,256
 *   spatial-bench run fig15 --sparsity=0.8:0.95:0.05 --csv=out/
 *
 * Reserved flags for `run`: --all, --json[=dir], --csv[=dir],
 * --threads=N, --sim-threads=N, --lane-words=W, --quiet.  Any other
 * --name=v1,v2,... flag overrides the named grid axis (or filters a
 * case-list experiment); lo:hi:step ranges expand inclusively.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/logging.h"
#include "common/table.h"
#include "experiments/registry.h"
#include "experiments/sweep.h"

namespace
{

using namespace spatial;
using namespace spatial::experiments;

int
usage()
{
    std::printf(
        "usage: spatial-bench <command> [args]\n"
        "\n"
        "commands:\n"
        "  list                 all registered experiments\n"
        "  describe <name>      one experiment's grid and schema\n"
        "  run <name...>        run experiments (or --all)\n"
        "\n"
        "run flags:\n"
        "  --all                run every registered experiment\n"
        "  --json[=dir]         write <dir>/<name>.json per experiment\n"
        "  --csv[=dir]          write <dir>/<name>.csv per experiment\n"
        "  --threads=N          sweep worker threads (0 = hardware)\n"
        "  --sim-threads=N      batch-engine threads inside a point\n"
        "  --lane-words=W       batch-engine lane words (0 = auto)\n"
        "  --activity-gating=B  segmented activity gating (default 1)\n"
        "  --segment-kib=K      gated segment working-set target\n"
        "  --seed=N             workload-stream seed override (0 =\n"
        "                       each experiment's built-in stream)\n"
        "  --check_load_speedup=R  exit 1 unless every row with\n"
        "                       [dim] >= --check_load_dim (default\n"
        "                       2048) has [load x] >= R (the\n"
        "                       large_matrix cold-load gate)\n"
        "  --quiet              suppress tables (summaries only)\n"
        "  --<param>=v1,v2      override a grid axis; lo:hi:step ranges\n"
        "                       expand inclusively\n");
    return 2;
}

int
runList()
{
    Table table("spatial-bench experiments",
                {"name", "maps to", "points", "runtime", "description"});
    for (const auto *exp : Registry::instance().all()) {
        table.addRow({exp->name, exp->figure,
                      Table::cell(static_cast<std::uint64_t>(
                          exp->grid.expand().size())),
                      exp->runtime, exp->description});
    }
    table.print(std::cout);
    std::printf("\nrun one with: spatial-bench run <name>  "
                "(spatial-bench describe <name> shows its grid)\n");
    return 0;
}

int
runDescribe(const std::vector<std::string> &names)
{
    if (names.empty()) {
        std::fprintf(stderr, "describe: need an experiment name\n");
        return 2;
    }
    for (const auto &name : names) {
        const auto *exp = Registry::instance().find(name);
        if (exp == nullptr)
            SPATIAL_FATAL("unknown experiment '", name,
                          "'; see spatial-bench list");
        std::printf("%s — %s\n", exp->name.c_str(),
                    exp->figure.c_str());
        std::printf("  %s\n", exp->description.c_str());
        std::printf("  runtime: %s\n", exp->runtime.c_str());
        std::printf("  columns:");
        for (const auto &c : exp->columns)
            std::printf(" [%s]", c.c_str());
        std::printf("\n  grid (%zu points):\n",
                    exp->grid.expand().size());
        for (const auto &param : exp->grid.paramNames())
            std::printf("    --%s\n", param.c_str());
    }
    return 0;
}

/** Parse one override value list ("64,256" / "0.8:0.95:0.05" / names). */
std::vector<Value>
parseOverrideValues(const std::string &flag, const std::string &text)
{
    std::vector<Value> values;
    for (const auto &token : Args::splitList(text)) {
        char *end = nullptr;
        const long long asInt = std::strtoll(token.c_str(), &end, 10);
        if (end != nullptr && *end == '\0') {
            values.emplace_back(static_cast<std::int64_t>(asInt));
            continue;
        }
        const double asReal = std::strtod(token.c_str(), &end);
        if (end != nullptr && *end == '\0') {
            values.emplace_back(asReal);
            continue;
        }
        values.emplace_back(token);
    }
    if (values.empty())
        SPATIAL_FATAL("flag --", flag, " has no values");
    return values;
}

void
writeFile(const std::filesystem::path &path, const std::string &text)
{
    std::ofstream out(path);
    if (!out)
        SPATIAL_FATAL("cannot write ", path.string());
    out << text;
}

int
runRun(const Args &args)
{
    const auto &registry = Registry::instance();
    const std::set<std::string> reserved = {
        "all",  "json",          "csv",         "threads",
        "sim-threads", "lane-words", "activity-gating", "segment-kib",
        "seed", "quiet", "check_load_speedup",
        "check_load_dim"};

    // Which experiments.
    const bool allSelected = args.getBool("all", false);
    std::vector<const Experiment *> selected;
    if (allSelected) {
        selected = registry.all();
    } else {
        for (std::size_t i = 1; i < args.positionals().size(); ++i) {
            const auto &name = args.positionals()[i];
            const auto *exp = registry.find(name);
            if (exp == nullptr)
                SPATIAL_FATAL("unknown experiment '", name,
                              "'; see spatial-bench list");
            selected.push_back(exp);
        }
    }
    if (selected.empty()) {
        std::fprintf(stderr,
                     "run: need experiment names or --all\n");
        return 2;
    }

    // Grid overrides from the remaining flags.
    std::vector<GridOverride> overrides;
    for (const auto &[flag, value] : args.flags()) {
        if (reserved.count(flag))
            continue;
        overrides.push_back(
            GridOverride{flag, parseOverrideValues(flag, value)});
    }
    // Explicitly named experiments must understand every override;
    // under --all an override applies where the parameter exists but
    // must still match at least one experiment (typos fail loudly).
    for (const auto &override_ : overrides) {
        std::size_t understood = 0;
        for (const auto *exp : selected) {
            if (exp->grid.hasParam(override_.name)) {
                ++understood;
            } else if (!allSelected) {
                SPATIAL_FATAL("experiment '", exp->name,
                              "' has no parameter '", override_.name,
                              "' (flags: see spatial-bench describe ",
                              exp->name, ")");
            }
        }
        if (understood == 0)
            SPATIAL_FATAL("no selected experiment has a parameter '",
                          override_.name, "'");
    }

    SweepOptions options;
    options.threads =
        static_cast<unsigned>(args.getInt("threads", 0));
    options.sim.threads =
        static_cast<unsigned>(args.getInt("sim-threads", 0));
    options.sim.laneWords =
        static_cast<unsigned>(args.getInt("lane-words", 0));
    options.sim.activityGating = args.getBool("activity-gating", true);
    options.sim.segmentKib = static_cast<unsigned>(
        args.getInt("segment-kib", options.sim.segmentKib));
    options.seed = static_cast<std::uint64_t>(args.getInt("seed", 0));

    const bool quiet = args.getBool("quiet", false);
    const bool wantJson = args.has("json");
    const bool wantCsv = args.has("csv");
    auto outputDir = [&](const char *flag) {
        std::string dir = args.getString(flag, ".");
        if (dir.empty() || dir == "true")
            dir = ".";
        return std::filesystem::path(dir);
    };

    // The cold-load latency gate (CI): every reported row at or above
    // the dim floor must have loaded at least `want` times faster than
    // it compiled.  Applies to any experiment reporting [dim] and
    // [load x] columns (the large_matrix schema).
    const bool gateLoad = args.has("check_load_speedup");
    const double gateWant = args.getReal("check_load_speedup", 5.0);
    const std::int64_t gateDim = args.getInt("check_load_dim", 2048);
    std::size_t gateRows = 0;
    bool gateFailed = false;

    SweepEngine engine(options);
    for (const auto *exp : selected) {
        std::vector<GridOverride> applicable;
        for (const auto &override_ : overrides)
            if (exp->grid.hasParam(override_.name))
                applicable.push_back(override_);
        const auto result = engine.run(*exp, applicable);
        if (!quiet) {
            result.toTable().print(std::cout);
            if (!result.note.empty())
                std::cout << "\n" << result.note << "\n";
            std::cout << "\n";
        }
        std::printf("%s: %zu points, %zu rows, %.2fs, design cache %zu "
                    "hits / %zu misses\n",
                    result.name.c_str(), result.points.size(),
                    result.rows.size(), result.wallSeconds,
                    result.cacheDelta.hits, result.cacheDelta.misses);
        if (wantJson) {
            const auto dir = outputDir("json");
            std::filesystem::create_directories(dir);
            const auto path = dir / (result.name + ".json");
            writeFile(path, result.toJson());
            std::printf("wrote %s\n", path.string().c_str());
        }
        if (wantCsv) {
            const auto dir = outputDir("csv");
            std::filesystem::create_directories(dir);
            const auto path = dir / (result.name + ".csv");
            std::ofstream out(path);
            if (!out)
                SPATIAL_FATAL("cannot write ", path.string());
            result.writeCsv(out);
            std::printf("wrote %s\n", path.string().c_str());
        }
        if (gateLoad) {
            std::size_t dimCol = result.columns.size();
            std::size_t loadCol = result.columns.size();
            for (std::size_t c = 0; c < result.columns.size(); ++c) {
                if (result.columns[c] == "dim")
                    dimCol = c;
                else if (result.columns[c] == "load x")
                    loadCol = c;
            }
            if (dimCol == result.columns.size() ||
                loadCol == result.columns.size())
                continue;
            for (const auto &row : result.rows) {
                const std::int64_t dim = asInt(row[dimCol].value);
                if (dim < gateDim)
                    continue;
                ++gateRows;
                const double got = asReal(row[loadCol].value);
                if (got < gateWant) {
                    gateFailed = true;
                    std::fprintf(stderr,
                                 "FAIL: %s dim=%lld cold-load "
                                 "speedup %.2fx below required "
                                 "%.2fx\n",
                                 result.name.c_str(),
                                 static_cast<long long>(dim), got,
                                 gateWant);
                }
            }
        }
    }
    if (gateLoad) {
        if (gateRows == 0) {
            std::fprintf(stderr,
                         "FAIL: --check_load_speedup matched no rows "
                         "with [dim] >= %lld and a [load x] column\n",
                         static_cast<long long>(gateDim));
            return 1;
        }
        if (gateFailed)
            return 1;
        std::printf("OK: cold-load speedup >= %.2fx on %zu rows at "
                    "dim >= %lld\n",
                    gateWant, gateRows,
                    static_cast<long long>(gateDim));
    }
    const auto total = engine.cache().stats();
    if (selected.size() > 1)
        std::printf("total: design cache %zu hits / %zu misses across "
                    "%zu experiments\n",
                    total.hits, total.misses, selected.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args(argc, argv, /*allow_positionals=*/true);
    if (args.positionals().empty())
        return usage();
    const std::string &command = args.positionals()[0];
    if (command == "list")
        return runList();
    if (command == "describe") {
        std::vector<std::string> names(args.positionals().begin() + 1,
                                       args.positionals().end());
        return runDescribe(names);
    }
    if (command == "run")
        return runRun(args);
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return usage();
}
