#include "result.h"

#include <sstream>

#include "common/logging.h"
#include "experiments/json.h"

namespace spatial::perf
{

namespace
{

const Metric *
findIn(const std::vector<Metric> &metrics, const std::string &name)
{
    for (const Metric &m : metrics)
        if (m.name == name)
            return &m;
    return nullptr;
}

} // namespace

const Metric *
RunResult::find(const std::string &name) const
{
    for (const auto *list : {&endToEnd, &detail, &perLayer})
        if (const Metric *m = findIn(*list, name))
            return m;
    return nullptr;
}

const Metric *
ParsedLine::find(const std::string &name) const
{
    return findIn(metrics, name);
}

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"p50_ms", "ms"},
        {"items_per_s", "1/s"},
        {"peak_rss_mb", "MiB"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"wire.encode_ns_per_frame", "ns"},
        {"wire.decode_ns_per_frame", "ns"},
        {"wire.request_bytes_mean", "B"},
        {"wire.response_bytes_mean", "B"},
        {"server.occupancy", "frac"},
        {"server.lanes_per_group", "lanes"},
        {"server.flush_deadline_frac", "frac"},
        {"server.engine_passes", "count"},
        {"design_store.hit_ratio", "frac"},
        {"design_store.promotions_per_s", "1/s"},
        {"design_store.demotions_per_s", "1/s"},
        {"compiler.compile_ms", "ms"},
        {"compiler.nodes", "count"},
        {"compiler.tiles", "count"},
        {"store.save_ms", "ms"},
        {"store.load_ms", "ms"},
        {"store.file_kib", "KiB"},
        {"batch_engine.group_ms", "ms"},
        {"batch_engine.small_group_ms", "ms"},
        {"batch_engine.skip_frac", "frac"},
        {"batch_engine.node_evals_per_s", "1/s"},
        {"batch_engine.bytes_per_vector", "B"},
        {"batch_engine.bw_frac", "frac"},
        {"host.triad_gbps", "GB/s"},
        {"tiled_design.step_us", "us"},
    };
    return defs;
}

std::vector<std::string>
namesOf(const std::vector<MetricDef> &defs)
{
    std::vector<std::string> names;
    for (const MetricDef &d : defs)
        names.push_back(d.name);
    return names;
}

std::string
resultLine(const RunResult &result, LineMetrics which)
{
    std::vector<const Metric *> chosen;
    const auto pick = [&](const std::vector<MetricDef> &defs) {
        for (const MetricDef &d : defs) {
            const Metric *m = result.find(d.name);
            if (!m)
                SPATIAL_FATAL("result line: metric '", d.name,
                              "' was not measured");
            if (m->unit != d.unit)
                SPATIAL_FATAL("result line: metric '", d.name, "' is in ",
                              m->unit, ", not ", d.unit);
            chosen.push_back(m);
        }
    };
    switch (which) {
      case LineMetrics::EndToEnd:
        pick(endToEndMetrics());
        break;
      case LineMetrics::PerLayer:
        pick(perLayerMetrics());
        break;
      case LineMetrics::All:
        for (const auto *list :
             {&result.endToEnd, &result.detail, &result.perLayer})
            for (const Metric &m : *list)
                chosen.push_back(&m);
        break;
    }

    std::ostringstream out;
    out << "{\"correct\": " << (result.correct ? "true" : "false")
        << ", \"attempted\": " << result.attempted
        << ", \"failed\": " << result.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < chosen.size(); ++i)
        out << (i ? ", " : "") << experiments::jsonQuote(chosen[i]->name)
            << ": {\"value\": " << experiments::jsonReal(chosen[i]->value)
            << ", \"unit\": " << experiments::jsonQuote(chosen[i]->unit)
            << "}";
    out << "}}";
    return out.str();
}

std::optional<ParsedLine>
parseResultLine(const std::string &line,
                const std::vector<std::string> &names,
                const std::vector<std::string> &optional)
{
    using experiments::JsonValue;
    const auto doc = JsonValue::parse(line);
    if (!doc || doc->kind() != JsonValue::Kind::Object)
        return std::nullopt;
    const JsonValue *correct = doc->find("correct");
    const JsonValue *attempted = doc->find("attempted");
    const JsonValue *failed = doc->find("failed");
    const JsonValue *metrics = doc->find("metrics");
    if (!correct || correct->kind() != JsonValue::Kind::Boolean ||
        !attempted || attempted->kind() != JsonValue::Kind::Number ||
        !failed || failed->kind() != JsonValue::Kind::Number ||
        !metrics || metrics->kind() != JsonValue::Kind::Object)
        return std::nullopt;

    ParsedLine parsed;
    parsed.correct = correct->boolean();
    parsed.attempted = static_cast<std::uint64_t>(attempted->number());
    parsed.failed = static_cast<std::uint64_t>(failed->number());
    const auto read = [&](const std::string &name, const JsonValue &m) {
        const JsonValue *value =
            m.kind() == JsonValue::Kind::Object ? m.find("value") : nullptr;
        const JsonValue *unit =
            m.kind() == JsonValue::Kind::Object ? m.find("unit") : nullptr;
        if (!value || value->kind() != JsonValue::Kind::Number || !unit ||
            unit->kind() != JsonValue::Kind::String)
            return false;
        parsed.metrics.push_back({name, value->number(), unit->string()});
        return true;
    };
    for (const std::string &name : names) {
        const JsonValue *m = metrics->find(name);
        if (!m || !read(name, *m))
            return std::nullopt;
    }
    for (const std::string &name : optional)
        if (const JsonValue *m = metrics->find(name); m && !read(name, *m))
            return std::nullopt;
    return parsed;
}

} // namespace spatial::perf
