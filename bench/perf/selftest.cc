/**
 * @file
 * perf_selftest: the arithmetic spatial-perf's numbers rest on —
 * percentiles and their support rule, run spreads, seeded traffic
 * streams, the JSON result line, the tracer's self time, the int64
 * reference — and the agreement of BENCHMARK.json with the metrics
 * the benchmark emits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "experiments/json.h"
#include "matrix/dense.h"
#include "perf_stats.h"
#include "reference.h"
#include "result.h"
#include "tracer.h"
#include "workloads.h"

namespace
{

using namespace spatial;
using namespace spatial::perf;

TEST(Percentile, NearestRankPicksTheCeilRank)
{
    const std::vector<double> four = {1, 2, 3, 4};
    EXPECT_EQ(nearestRank(four, 0.50), 2);
    EXPECT_EQ(nearestRank(four, 0.51), 3);
    EXPECT_EQ(nearestRank(four, 0.99), 4);
    EXPECT_EQ(nearestRank(four, 0.0), 1);
    EXPECT_EQ(nearestRank({7}, 0.5), 7);
    EXPECT_EQ(nearestRank({}, 0.5), 0);
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    EXPECT_EQ(nearestRank(hundred, 0.99), 99);
    EXPECT_EQ(nearestRank(hundred, 0.90), 90);
    EXPECT_EQ(percentile({4, 1, 3, 2}, 0.5), 2); // sorts a copy first
}

TEST(Percentile, TailNeedsTenSamplesBeyondIt)
{
    EXPECT_TRUE(percentileSupported(1000, 0.99));
    EXPECT_FALSE(percentileSupported(999, 0.99));
    EXPECT_TRUE(percentileSupported(100, 0.90));
    EXPECT_FALSE(percentileSupported(99, 0.90));
    EXPECT_FALSE(percentileSupported(0, 0.5));
}

TEST(Spread, MatchesPythonStatisticsQuantiles)
{
    // Expected values from statistics.median / statistics.quantiles(n=4).
    Spread s = spreadOf({4, 1, 3, 2});
    EXPECT_DOUBLE_EQ(s.median, 2.5);
    EXPECT_DOUBLE_EQ(s.q1, 1.25);
    EXPECT_DOUBLE_EQ(s.q3, 3.75);
    EXPECT_DOUBLE_EQ(s.relative(), 1.0);

    s = spreadOf({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    EXPECT_DOUBLE_EQ(s.median, 5.5);
    EXPECT_DOUBLE_EQ(s.q1, 2.75);
    EXPECT_DOUBLE_EQ(s.q3, 8.25);

    s = spreadOf({5, 1, 3});
    EXPECT_DOUBLE_EQ(s.median, 3);
    EXPECT_DOUBLE_EQ(s.q1, 1);
    EXPECT_DOUBLE_EQ(s.q3, 5);

    s = spreadOf({2, 8});
    EXPECT_DOUBLE_EQ(s.q1, 0.5);
    EXPECT_DOUBLE_EQ(s.q3, 9.5);

    s = spreadOf({0.91, 0.87, 0.95, 1.02, 0.88, 0.9, 0.93});
    EXPECT_DOUBLE_EQ(s.median, 0.91);
    EXPECT_DOUBLE_EQ(s.q1, 0.88);
    EXPECT_DOUBLE_EQ(s.q3, 0.95);

    s = spreadOf({3});
    EXPECT_DOUBLE_EQ(s.q1, 3);
    EXPECT_DOUBLE_EQ(s.q3, 3);
    EXPECT_DOUBLE_EQ(s.relative(), 0);
}

TEST(Traffic, PoissonScheduleRepeatsPerSeedAndHasTheRate)
{
    const auto a = poissonSchedule(4000.0, 50.0, 7);
    const auto b = poissonSchedule(4000.0, 50.0, 7);
    const auto c = poissonSchedule(4000.0, 50.0, 8);
    ASSERT_EQ(a.size(), 200000u);
    EXPECT_EQ(a, b);
    EXPECT_EQ(c.size(), a.size());
    EXPECT_NE(a, c);
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    EXPECT_GE(a.front(), 0.0);
    EXPECT_LT(a.back(), 50.0);
    // Gaps of a Poisson process are exponential: mean 1/rate, and the
    // share longer than the mean is e^-1.
    std::size_t longer = 0;
    for (std::size_t i = 1; i < a.size(); ++i)
        longer += a[i] - a[i - 1] > 1.0 / 4000.0;
    EXPECT_NEAR(double(longer) / double(a.size() - 1), std::exp(-1.0), 0.005);
    EXPECT_EQ(poissonSchedule(60.0, 10.0, 1).size(), 600u);
}

TEST(Traffic, ZipfMixRepeatsPerSeedWithExactShares)
{
    const auto w = zipfWeights(16, 1.0);
    ASSERT_EQ(w.size(), 16u);
    EXPECT_DOUBLE_EQ(w[0], 1.0);
    EXPECT_DOUBLE_EQ(w[3], 0.25);
    double harmonic = 0.0;
    for (const double x : w)
        harmonic += x;

    Rng r1(11), r2(11), r3(12);
    const std::size_t n = 2048;
    const auto a = exactMix(w, n, r1);
    const auto b = exactMix(w, n, r2);
    const auto c = exactMix(w, n, r3);
    ASSERT_EQ(a.size(), n);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    std::vector<std::size_t> ca(16, 0), cc(16, 0);
    for (std::size_t i = 0; i < n; ++i) {
        ++ca[a[i]];
        ++cc[c[i]];
    }
    EXPECT_EQ(ca, cc); // another seed reorders, never reweights
    for (std::size_t k = 0; k < 16; ++k)
        EXPECT_LE(std::fabs(double(ca[k]) - double(n) * w[k] / harmonic), 1.0)
            << k;

    // Largest remainders: 10 x {3, 1} = {7.5, 2.5} rounds to {8, 2};
    // 3 x {1, 1, 1} gives one each.
    Rng r(5);
    const auto q = exactMix({3.0, 1.0}, 10, r);
    EXPECT_EQ(std::count(q.begin(), q.end(), 0u), 8);
    const auto e = exactMix({1.0, 1.0, 1.0}, 3, r);
    EXPECT_EQ(std::count(e.begin(), e.end(), 2u), 1);
    EXPECT_TRUE(exactMix({1.0, 0.0}, 5, r) ==
                std::vector<std::size_t>(5, 0));
}

TEST(ResultLine, RoundTripsThroughJsonValue)
{
    RunResult r;
    r.correct = true;
    r.attempted = 40123;
    r.failed = 2;
    r.endToEnd = {{"setup_s", 0.81270000000000001, "s"},
                  {"p50_ms", 1.2034, "ms"},
                  {"items_per_s", 3998.2500000000005, "1/s"},
                  {"peak_rss_mb", 123.5, "MiB"}};
    r.detail = {{"fail_frac", 2.0 / 40123, "frac"}};
    const std::string line = resultLine(r, LineMetrics::EndToEnd);
    EXPECT_EQ(line.find("fail_frac"), std::string::npos);
    const auto parsed = parseResultLine(line, namesOf(endToEndMetrics()));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->correct);
    EXPECT_EQ(parsed->attempted, 40123u);
    EXPECT_EQ(parsed->failed, 2u);
    ASSERT_EQ(parsed->metrics.size(), r.endToEnd.size());
    for (std::size_t i = 0; i < r.endToEnd.size(); ++i) {
        EXPECT_EQ(parsed->metrics[i].name, r.endToEnd[i].name);
        EXPECT_EQ(parsed->metrics[i].value, r.endToEnd[i].value);
        EXPECT_EQ(parsed->metrics[i].unit, r.endToEnd[i].unit);
    }

    const std::string all = resultLine(r, LineMetrics::All);
    ASSERT_TRUE(parseResultLine(all, {"fail_frac"}).has_value());
    EXPECT_FALSE(parseResultLine(line, {"fail_frac"}).has_value());
    // Optional metrics are read where present and skipped where absent.
    const auto extra =
        parseResultLine(all, {"p50_ms"}, {"fail_frac", "p99_ms"});
    ASSERT_TRUE(extra.has_value());
    ASSERT_EQ(extra->metrics.size(), 2u);
    EXPECT_EQ(extra->find("fail_frac")->value, 2.0 / 40123);
    EXPECT_EQ(extra->find("p99_ms"), nullptr);
    EXPECT_FALSE(parseResultLine("{\"correct\": true}", {}).has_value());
    EXPECT_FALSE(parseResultLine("not json", {}).has_value());
}

TEST(Tracer, SelfTimeSubtractsTheUnionOfClippedChildren)
{
    const auto span = [](const char *name, std::int64_t a, std::int64_t b,
                         std::int64_t parent) {
        Span s;
        s.name = name;
        s.startNs = a;
        s.endNs = b;
        s.parent = parent;
        return s;
    };
    // Root [0, 100ms]; children overlap each other ([10,30] and [20,50]
    // cover 40) and one runs past the root's end (clipped to 10).
    const std::int64_t ms = 1000000;
    const std::vector<Span> spans = {
        span("request", 0, 100 * ms, -1),
        span("submit", 10 * ms, 30 * ms, 0),
        span("wait", 20 * ms, 50 * ms, 0),
        span("exec", 60 * ms, 70 * ms, 0),
        span("wake", 90 * ms, 120 * ms, 0),
        span("probe", 0, 5 * ms, -1),
    };
    const auto times = selfTimes(spans);
    const auto find = [&](const std::string &name) {
        for (const LayerTime &t : times)
            if (t.name == name)
                return t;
        ADD_FAILURE() << name;
        return LayerTime{};
    };
    EXPECT_DOUBLE_EQ(find("request").totalMs, 100);
    EXPECT_DOUBLE_EQ(find("request").selfMs, 40);
    EXPECT_DOUBLE_EQ(find("wait").selfMs, 30);
    EXPECT_DOUBLE_EQ(find("wake").totalMs, 30);
    EXPECT_DOUBLE_EQ(find("probe").selfMs, 5);
    EXPECT_EQ(times.front().name, "request");
}

TEST(Tracer, DisabledKeepsNothingAndEnabledWritesChromeJson)
{
    Tracer off(false);
    const auto now = Clock::now();
    EXPECT_EQ(off.record("x", now, now), -1);
    EXPECT_TRUE(off.spans().empty());

    Tracer on(true);
    const auto root = on.record("request", now,
                                now + std::chrono::milliseconds(2), -1, 9);
    EXPECT_EQ(on.record("client.wake", now + std::chrono::milliseconds(1),
                        now + std::chrono::milliseconds(2), root, 9),
              1);
    const std::string path = "perf_selftest.trace.json";
    ASSERT_TRUE(on.writeChromeJson(path));
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    const auto doc = experiments::JsonValue::parse(text.str());
    ASSERT_TRUE(doc.has_value());
    const auto &events = doc->at("traceEvents").array();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[1].at("name").string(), "client.wake");
    EXPECT_EQ(events[1].at("args").at("parent").number(), 0);
    EXPECT_EQ(events[0].at("args").at("id").number(), 9);
    EXPECT_NEAR(events[0].at("dur").number(), 2000.0, 1e-6);
    std::remove(path.c_str());
}

TEST(Reference, AnswersEveryKindInInt64)
{
    IntMatrix w(2, 2);
    w.at(0, 0) = 1;
    w.at(0, 1) = -2;
    w.at(1, 0) = 3;
    w.at(1, 1) = 0;
    const Reference ref(w);
    EXPECT_EQ(ref.gemv({2, 5}), (std::vector<std::int64_t>{17, -4}));
    EXPECT_EQ(ref.gemv({2, 5}), gemvRef({2, 5}, w));

    // clip((x^T W + inject) >> 1) into the signed 3-bit range [-4, 3].
    const auto step = ref.answer(
        serve::Request::esnStep({2, 5}, {1, -3}, 1, 3));
    EXPECT_EQ(step.at(0, 0), 3);  // (17 + 1) >> 1 = 9, clipped to 3
    EXPECT_EQ(step.at(0, 1), -4); // (-4 - 3) >> 1 = -4

    IntMatrix inject(2, 2);
    inject.at(1, 0) = 8;
    const auto seq =
        ref.answer(serve::Request::esnSequence({1, 1}, inject, 0, 8));
    // x1 = [4, -2]; x2 = [4 - 6 + 8, -8] = [6, -8].
    EXPECT_EQ(seq.at(0, 0), 4);
    EXPECT_EQ(seq.at(0, 1), -2);
    EXPECT_EQ(seq.at(1, 0), 6);
    EXPECT_EQ(seq.at(1, 1), -8);

    IntMatrix xs(2, 2);
    xs.at(0, 0) = 2;
    xs.at(0, 1) = 5;
    xs.at(1, 1) = -1;
    const auto block = ref.answer(serve::Request::gemvBatch(xs));
    EXPECT_EQ(block.at(0, 0), 17);
    EXPECT_EQ(block.at(1, 0), -3);
    EXPECT_NE(fingerprint(block), fingerprint(IntMatrix(2, 2)));
}

TEST(Benchmark, JsonNamesExactlyWhatTheBenchmarkEmits)
{
    std::ifstream in(SPATIAL_PERF_BENCHMARK_JSON);
    ASSERT_TRUE(in) << SPATIAL_PERF_BENCHMARK_JSON;
    std::stringstream text;
    text << in.rdbuf();
    const auto doc = experiments::JsonValue::parse(text.str());
    ASSERT_TRUE(doc.has_value());

    const auto defs = [&](const char *key) {
        std::vector<std::string> out;
        for (const auto &m : doc->at(key).array())
            out.push_back(m.at("name").string() + " [" +
                          m.at("unit").string() + "]");
        return out;
    };
    const auto expected = [](const std::vector<MetricDef> &list) {
        std::vector<std::string> out;
        for (const MetricDef &d : list)
            out.push_back(d.name + " [" + d.unit + "]");
        return out;
    };
    EXPECT_EQ(defs("end_to_end"), expected(endToEndMetrics()));
    EXPECT_EQ(defs("per_layer"), expected(perLayerMetrics()));
    std::vector<std::string> workload_names;
    for (const WorkloadSpec &spec : workloads())
        workload_names.push_back(spec.name);
    std::vector<std::string> listed;
    for (const auto &w : doc->at("workloads").array())
        listed.push_back(w.at("name").string());
    EXPECT_EQ(listed, workload_names);
    // Every bound within the 0.25 a bound may be, and setup_s holding
    // the largest, so work moved into set-up cannot hide behind it.
    double largest = 0.0;
    double setup_bound = 0.0;
    for (const auto &m : doc->at("end_to_end").array()) {
        const double bound = m.at("bound").number();
        EXPECT_GT(bound, 0.0) << m.at("name").string();
        EXPECT_LE(bound, 0.25) << m.at("name").string();
        largest = std::max(largest, bound);
        if (m.at("name").string() == "setup_s")
            setup_bound = bound;
    }
    EXPECT_EQ(setup_bound, largest);
}

} // namespace
