/**
 * @file
 * spatial-perf: the repository's benchmark.  Five seeded serving
 * workloads, due-time latency, an int64 output check, and a traced run
 * that times each layer from outside (see bench/perf/README.md).
 *
 *   spatial-perf list
 *   spatial-perf run (--all | --workload=W) [--seed=1] [--seconds=S]
 *                    [--trace=DIR]
 *   spatial-perf repeat --runs=N (--all | --workload=W) [--seed=1]
 *                    [--seconds=S]
 *   spatial-perf one --workload=W [--seed=1] [--seconds=S] [--trace=0|1]
 *                    [--trace_dir=DIR] [--line=contract|all]
 *   spatial-perf setup --workload=W [--seed=1]
 *
 * `run` and `repeat` start one fresh child process (`one`) per
 * workload run, so peak RSS and every cache are per run; `one` runs a
 * single workload in-process and prints its metrics, then one JSON
 * result line last.  Before its own set-up, `one` times kOtherSetups
 * cold set-ups, each in a fresh `setup` child, and setup_s is the
 * median of all of them.  Exit status is non-zero when any checked
 * output differs from the int64 reference or a child fails.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/logging.h"
#include "perf_stats.h"
#include "result.h"
#include "workloads.h"

namespace
{

using namespace spatial;
using namespace spatial::perf;
namespace fs = std::filesystem;

/** Cold set-ups a run times in other processes besides its own. */
constexpr int kOtherSetups = 4;

/** The directory holding this binary (scratch and trace files go there). */
fs::path
binaryDir()
{
    return fs::read_symlink("/proc/self/exe").parent_path();
}

/** This process's scratch directory for `spec`. */
std::string
scratchDirFor(const WorkloadSpec &spec)
{
    return (binaryDir() / "perf-scratch" /
            (spec.name + "-" + std::to_string(getpid())))
        .string();
}

/**
 * Run `spatial-perf <command> <args>` in a fresh process and wait for
 * it; returns its result line read for the metrics called `names` (and
 * those of `optional` it carries), or nullopt when the child failed.
 * With `echo` the child's output is copied to stdout.
 */
std::optional<ParsedLine>
runChild(const char *command, const std::vector<std::string> &args,
         const std::vector<std::string> &names, bool echo,
         const std::vector<std::string> &optional = {})
{
    std::fflush(stdout);
    int fds[2];
    if (pipe(fds) != 0)
        SPATIAL_FATAL("pipe failed");
    const pid_t pid = fork();
    if (pid < 0)
        SPATIAL_FATAL("fork failed");
    if (pid == 0) {
        dup2(fds[1], STDOUT_FILENO);
        close(fds[0]);
        close(fds[1]);
        std::vector<char *> argv;
        static char name[] = "spatial-perf";
        argv.push_back(name);
        argv.push_back(const_cast<char *>(command));
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        execv("/proc/self/exe", argv.data());
        _exit(127);
    }
    close(fds[1]);
    FILE *in = fdopen(fds[0], "r");
    std::string last, line;
    char buf[4096];
    while (std::fgets(buf, sizeof buf, in)) {
        line += buf;
        if (line.back() != '\n')
            continue;
        if (echo)
            std::fputs(line.c_str(), stdout);
        if (line.size() > 1)
            last = line;
        line.clear();
    }
    std::fclose(in);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::printf("%s child failed (status %d)\n", command, status);
        return std::nullopt;
    }
    auto parsed = parseResultLine(last, names, optional);
    if (!parsed)
        std::printf("%s child printed no result line\n", command);
    return parsed;
}

void
printMetrics(const char *title, const std::vector<Metric> &metrics)
{
    if (metrics.empty())
        return;
    std::printf("%s\n", title);
    for (const Metric &m : metrics)
        std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

int
cmdList()
{
    for (const WorkloadSpec &spec : workloads())
        std::printf("%-14s %5.0f s  %s\n", spec.name.c_str(), spec.seconds,
                    spec.why.c_str());
    return 0;
}

int
cmdSetup(const Args &args)
{
    const WorkloadSpec &spec = findWorkload(args.getString("workload", ""));
    RunOptions options;
    options.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    options.scratchDir = scratchDirFor(spec);
    const RunResult result = setUpOnce(spec, options);
    fs::remove_all(options.scratchDir);
    for (const std::string &note : result.notes)
        std::printf("note: %s\n", note.c_str());
    std::printf("%s\n", resultLine(result, LineMetrics::All).c_str());
    return result.correct ? 0 : 1;
}

int
cmdOne(const Args &args)
{
    const WorkloadSpec &spec = findWorkload(args.getString("workload", ""));
    RunOptions options;
    options.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    options.seconds = args.getReal("seconds", 0.0);
    options.trace = args.getBool("trace", false);
    options.traceDir =
        args.getString("trace_dir", (binaryDir() / "traces").string());
    options.scratchDir = scratchDirFor(spec);
    const std::string line = args.getString("line", "contract");
    if (line != "contract" && line != "all")
        SPATIAL_FATAL("--line must be contract or all, got '", line, "'");

    std::printf("== %s  seed %llu  %s\n   %s\n", spec.name.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.trace ? "traced" : "untraced", spec.why.c_str());
    // The traced line carries no setup_s, so a traced run skips these.
    bool setups_ok = true;
    for (int i = 0; i < (options.trace ? 0 : kOtherSetups); ++i) {
        const auto setup = runChild(
            "setup",
            {"--workload=" + spec.name,
             "--seed=" + std::to_string(options.seed)},
            {"setup_s"}, false);
        setups_ok = setups_ok && setup && setup->correct;
        if (setup)
            options.otherSetups.push_back(setup->metrics.front().value);
    }
    if (!setups_ok)
        std::printf("note: MISMATCH or failure in a set-up child\n");
    std::fflush(stdout);
    RunResult result = runWorkload(spec, options);
    fs::remove_all(options.scratchDir);
    result.correct = result.correct && setups_ok;

    printMetrics("end-to-end", result.endToEnd);
    printMetrics("detail", result.detail);
    printMetrics("per-layer", result.perLayer);
    if (!result.selfTimes.empty()) {
        std::printf("self time per span%28s %12s %12s\n", "count",
                    "total_ms", "self_ms");
        for (const LayerTime &t : result.selfTimes)
            std::printf("  %-32s %12zu %12.3f %12.3f\n", t.name.c_str(),
                        t.count, t.totalMs, t.selfMs);
    }
    for (const std::string &note : result.notes)
        std::printf("note: %s\n", note.c_str());
    const LineMetrics which =
        line == "all" ? LineMetrics::All
                      : (options.trace ? LineMetrics::PerLayer
                                       : LineMetrics::EndToEnd);
    std::printf("%s\n", resultLine(result, which).c_str());
    return result.correct ? 0 : 1;
}

/**
 * The whole-window p99, reported where the sample supports it but not
 * gated: on a shared host it does not repeat (bench/perf/README.md).
 */
const char *const kUngatedTail = "p99_ms";

/** `spatial-perf one <args>` in a fresh process, echoed. */
std::optional<ParsedLine>
runOne(const std::vector<std::string> &args)
{
    return runChild("one", args, namesOf(endToEndMetrics()), true,
                    {kUngatedTail});
}

std::vector<const WorkloadSpec *>
selected(const Args &args)
{
    std::vector<const WorkloadSpec *> out;
    if (args.getBool("all", false)) {
        for (const WorkloadSpec &spec : workloads())
            out.push_back(&spec);
    } else if (args.has("workload")) {
        out.push_back(&findWorkload(args.getString("workload", "")));
    } else {
        SPATIAL_FATAL("name --all or --workload=W");
    }
    return out;
}

/** The child arguments shared by run and repeat. */
std::vector<std::string>
childArgs(const WorkloadSpec &spec, std::uint64_t seed, const Args &args)
{
    std::vector<std::string> a = {"--workload=" + spec.name,
                                  "--seed=" + std::to_string(seed)};
    if (args.has("seconds"))
        a.push_back("--seconds=" + args.getString("seconds", ""));
    return a;
}

int
cmdRun(const Args &args)
{
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    const std::string trace_dir = args.getString("trace", "");
    bool ok = true;
    std::vector<std::pair<std::string, ParsedLine>> rows;
    for (const WorkloadSpec *spec : selected(args)) {
        auto untraced = childArgs(*spec, seed, args);
        untraced.push_back("--line=all");
        const auto plain = runOne(untraced);
        ok = ok && plain && plain->correct;
        if (plain)
            rows.emplace_back(spec->name, *plain);
        if (trace_dir.empty() || !plain)
            continue;
        auto traced = untraced;
        traced.push_back("--trace=1");
        traced.push_back("--trace_dir=" + trace_dir);
        const auto with_spans = runOne(traced);
        ok = ok && with_spans && with_spans->correct;
        if (with_spans)
            std::printf("  %-32s %16.6g frac  (traced p50 %.4g ms vs "
                        "untraced %.4g ms)\n",
                        "trace_overhead_frac",
                        with_spans->find("p50_ms")->value /
                                plain->find("p50_ms")->value -
                            1.0,
                        with_spans->find("p50_ms")->value,
                        plain->find("p50_ms")->value);
    }

    std::printf("\nsummary (seed %llu, untraced)\n%-14s",
                static_cast<unsigned long long>(seed), "workload");
    for (const MetricDef &d : endToEndMetrics())
        std::printf(" %14s", d.name.c_str());
    std::printf("\n");
    for (const auto &[name, line] : rows) {
        std::printf("%-14s", name.c_str());
        for (const MetricDef &d : endToEndMetrics())
            std::printf(" %14.6g", line.find(d.name)->value);
        std::printf("   attempted %llu failed %llu\n",
                    static_cast<unsigned long long>(line.attempted),
                    static_cast<unsigned long long>(line.failed));
    }
    std::printf("%s\n", ok ? "all outputs verified" : "FAILED");
    return ok ? 0 : 1;
}

int
cmdRepeat(const Args &args)
{
    const auto runs = args.getInt("runs", 5);
    if (runs < 1)
        SPATIAL_FATAL("--runs must be at least 1");
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    bool ok = true;
    std::vector<std::string> report;
    std::vector<std::string> names = namesOf(endToEndMetrics());
    names.push_back(kUngatedTail);
    for (const WorkloadSpec *spec : selected(args)) {
        std::vector<std::vector<double>> values(names.size());
        std::size_t completed = 0;
        for (std::int64_t i = 0; i < runs; ++i) {
            const auto line = runOne(
                childArgs(*spec, seed + static_cast<std::uint64_t>(i), args));
            ok = ok && line && line->correct;
            if (!line)
                continue;
            ++completed;
            for (std::size_t m = 0; m < names.size(); ++m)
                if (const Metric *metric = line->find(names[m]))
                    values[m].push_back(metric->value);
        }
        if (completed == 0)
            continue;
        char buf[256];
        std::snprintf(buf, sizeof buf, "%s (%zu runs)", spec->name.c_str(),
                      completed);
        report.push_back(buf);
        for (std::size_t m = 0; m < names.size(); ++m) {
            if (values[m].size() != completed)
                continue; // the tail where a run's sample cannot carry it
            const Spread s = spreadOf(values[m]);
            std::snprintf(buf, sizeof buf,
                          "  %-14s median %12.6g  q1 %12.6g  q3 %12.6g  "
                          "spread %6.2f%%%s",
                          names[m].c_str(), s.median, s.q1, s.q3,
                          100.0 * s.relative(),
                          names[m] == kUngatedTail ? "  (not gated)" : "");
            report.push_back(buf);
        }
    }
    std::printf("\nrepeat: seeds %llu + i\n",
                static_cast<unsigned long long>(seed));
    for (const std::string &line : report)
        std::printf("%s\n", line.c_str());
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args(argc, argv, true);
    const std::string cmd =
        args.positionals().empty() ? "" : args.positionals().front();
    if (cmd == "list")
        return cmdList();
    if (cmd == "one")
        return cmdOne(args);
    if (cmd == "run")
        return cmdRun(args);
    if (cmd == "repeat")
        return cmdRepeat(args);
    if (cmd == "setup")
        return cmdSetup(args);
    std::fprintf(stderr,
                 "usage: spatial-perf list | run (--all|--workload=W) "
                 "[--seed=S] [--seconds=T] [--trace=DIR] | repeat --runs=N "
                 "(--all|--workload=W) [--seed=S] [--seconds=T] | one "
                 "--workload=W [--seed=S] [--seconds=T] [--trace=0|1] "
                 "[--trace_dir=DIR] [--line=contract|all] | setup "
                 "--workload=W [--seed=S]\n");
    return 2;
}
