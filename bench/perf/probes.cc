#include "probes.h"

#include <algorithm>
#include <filesystem>
#include <memory>

#include "circuit/exec_plan.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/tiled_design.h"
#include "experiments/design_cache.h"
#include "matrix/generate.h"
#include "perf_stats.h"
#include "serve/wire.h"
#include "store/format.h"

namespace spatial::perf
{

namespace
{

constexpr int kInputBits = 8;

/** Row b of `batch` as a vector. */
std::vector<std::int64_t>
rowOf(const IntMatrix &batch, std::size_t b)
{
    return {batch.data().begin() + b * batch.cols(),
            batch.data().begin() + (b + 1) * batch.cols()};
}

/** True when every row of `out` is reference.gemv(row of `in`). */
bool
batchMatches(const Reference &reference, const IntMatrix &in,
             const IntMatrix &out)
{
    for (std::size_t b = 0; b < in.rows(); ++b) {
        const auto want = reference.gemv(rowOf(in, b));
        if (!std::equal(want.begin(), want.end(),
                        out.data().begin() + b * out.cols()))
            return false;
    }
    return true;
}

serve::wire::MessageKind
messageKind(serve::RequestKind kind)
{
    using serve::RequestKind;
    using serve::wire::MessageKind;
    switch (kind) {
      case RequestKind::Gemv:
        return MessageKind::Gemv;
      case RequestKind::GemvBatch:
        return MessageKind::GemvBatch;
      case RequestKind::EsnStep:
        return MessageKind::EsnStep;
      case RequestKind::EsnSequence:
        return MessageKind::EsnSequence;
    }
    SPATIAL_FATAL("unknown request kind");
}

bool
sameRequest(const serve::Request &a, const serve::Request &b)
{
    return a.kind == b.kind && a.vec == b.vec && a.batch == b.batch &&
           a.inject == b.inject && a.injectSeq == b.injectSeq &&
           a.postShift == b.postShift && a.stateBits == b.stateBits;
}

struct Probe
{
    ProbeReport report;
    Tracer &tracer;

    void
    metric(const char *name, double value, const char *unit)
    {
        report.metrics.push_back({name, value, unit});
    }

    void
    mismatch(const std::string &what)
    {
        report.correct = false;
        report.notes.push_back("MISMATCH: " + what);
    }

    /** Time `body` (a span called `name`) and return milliseconds. */
    template <typename F>
    double
    timed(const char *name, F &&body)
    {
        const auto t0 = Clock::now();
        body();
        const auto t1 = Clock::now();
        tracer.record(name, t0, t1);
        return msBetween(t0, t1);
    }
};

void
probeStore(Probe &p, const ProbeDesign &d, const core::TiledDesign &design,
           const std::string &scratch, Rng &rng)
{
    const auto key = experiments::makeDesignKey(*d.weights, d.compile);
    const std::string path =
        (std::filesystem::path(scratch) / "probe.sptd").string();
    std::vector<double> save_ms;
    std::vector<double> load_ms;
    std::shared_ptr<const core::TiledDesign> loaded;
    for (int i = 0; i < 3; ++i) {
        bool ok = false;
        save_ms.push_back(p.timed("store.save", [&] {
            ok = store::saveDesignFile(path, key, design);
        }));
        if (!ok)
            SPATIAL_FATAL("store probe: cannot write ", path);
    }
    const double kib =
        static_cast<double>(std::filesystem::file_size(path)) / 1024.0;
    for (int i = 0; i < 3; ++i) {
        store::LoadStatus status = store::LoadStatus::NotFound;
        load_ms.push_back(p.timed("store.load", [&] {
            status = store::loadDesignFile(path, &loaded);
        }));
        if (status != store::LoadStatus::Ok)
            SPATIAL_FATAL("store probe: reload failed: ",
                          store::loadStatusName(status));
    }
    std::filesystem::remove(path);

    const IntMatrix batch = makeSignedBatch(4, design.rows(), kInputBits, rng);
    if (!batchMatches(*d.reference, batch,
                      loaded->multiplyBatchWide(batch)))
        p.mismatch("design reloaded by store::loadDesignFile");
    p.metric("store.save_ms", percentile(save_ms, 0.5), "ms");
    p.metric("store.load_ms", percentile(load_ms, 0.5), "ms");
    p.metric("store.file_kib", kib, "KiB");
}

void
probeEngine(Probe &p, const ProbeDesign &d, const core::TiledDesign &design,
            double triad_gbps, Rng &rng)
{
    core::SimOptions sim;
    sim.threads = 1;

    const auto group = [&](std::size_t lanes, const char *span,
                           core::BatchStats *stats) {
        const IntMatrix batch =
            makeSignedBatch(lanes, design.rows(), kInputBits, rng);
        std::vector<double> ms;
        IntMatrix out;
        for (int i = 0; i < 5; ++i) {
            core::BatchStats run;
            ms.push_back(p.timed(span, [&] {
                out = design.multiplyBatchWide(batch, sim, &run);
            }));
            if (stats && i == 0)
                *stats = run;
        }
        if (!batchMatches(*d.reference, batch, out))
            p.mismatch(std::string(span) + " outputs");
        return percentile(ms, 0.5);
    };

    core::BatchStats stats;
    const double group_ms = group(256, "batch_engine.group", &stats);
    const double small_ms = group(16, "batch_engine.small_group", nullptr);

    // Node evaluations and computed bytes follow sim_throughput's
    // accounting: one evaluation per node per cycle per vector, and one
    // 8-byte lane word per value slot per cycle covering 64 vectors.
    double evals = 0.0;
    double bytes_per_vector = 0.0;
    for (std::size_t t = 0; t < design.tileCount(); ++t) {
        const auto &tile = design.tile(t);
        const double cycles = tile.drainCycles();
        evals += static_cast<double>(tile.plan().numNodes()) * cycles;
        bytes_per_vector +=
            static_cast<double>(tile.plan().numSlots()) * cycles / 8.0;
    }
    const double group_s = group_ms * 1e-3;
    const double segs =
        static_cast<double>(stats.segmentsExecuted + stats.segmentsSkipped);
    p.metric("batch_engine.group_ms", group_ms, "ms");
    p.metric("batch_engine.small_group_ms", small_ms, "ms");
    p.metric("batch_engine.skip_frac",
             segs > 0 ? static_cast<double>(stats.segmentsSkipped) / segs
                      : 0.0,
             "frac");
    p.metric("batch_engine.node_evals_per_s", evals * 256.0 / group_s,
             "1/s");
    p.metric("batch_engine.bytes_per_vector", bytes_per_vector, "B");
    p.metric("batch_engine.bw_frac",
             bytes_per_vector * 256.0 / group_s / (triad_gbps * 1e9),
             "frac");
}

void
probeTiledStep(Probe &p, const ProbeDesign &d,
               const core::TiledDesign &design, Rng &rng)
{
    core::TiledGemv gemv(design);
    const auto x = makeSignedVector(design.rows(), kInputBits, rng);
    std::vector<std::int64_t> out;
    gemv.multiplyInto(x, out); // first call sizes the scratch planes
    if (out != d.reference->gemv(x))
        p.mismatch("TiledGemv::multiplyInto output");

    std::vector<double> us;
    const auto start = Clock::now();
    while (us.size() < 2000 &&
           (us.size() < 30 || msBetween(start, Clock::now()) < 200.0))
        us.push_back(1e3 * p.timed("tiled_design.step", [&] {
            gemv.multiplyInto(x, out);
        }));
    p.metric("tiled_design.step_us", percentile(us, 0.5), "us");
}

void
probeWire(Probe &p, const std::vector<WireSample> &samples)
{
    namespace wire = serve::wire;
    std::vector<wire::RequestFrame> requests(samples.size());
    std::vector<wire::ResponseFrame> responses(samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        requests[i].kind = messageKind(samples[i].request->kind);
        requests[i].requestId = i + 1;
        requests[i].designId = samples[i].designId;
        requests[i].request = *samples[i].request;
        responses[i].status = wire::Status::Ok;
        responses[i].kind = requests[i].kind;
        responses[i].requestId = i + 1;
        responses[i].designId = samples[i].designId;
        responses[i].output = samples[i].answer;
    }

    std::vector<std::uint8_t> req_bytes;
    std::vector<std::uint8_t> resp_bytes;
    std::vector<double> encode_ms;
    std::vector<double> decode_ms;
    bool round_trip_ok = true;
    for (int pass = 0; pass < 20; ++pass) {
        encode_ms.push_back(p.timed("wire.encode", [&] {
            req_bytes.clear();
            resp_bytes.clear();
            for (std::size_t i = 0; i < samples.size(); ++i) {
                wire::appendRequestFrame(req_bytes, requests[i]);
                wire::appendResponseFrame(resp_bytes, responses[i]);
            }
        }));
        decode_ms.push_back(p.timed("wire.decode", [&] {
            std::size_t req_at = 0;
            std::size_t resp_at = 0;
            for (std::size_t i = 0; i < samples.size(); ++i) {
                std::size_t off = 0, size = 0, frame = 0;
                wire::RequestFrame rq;
                if (wire::peekFrame(&req_bytes[req_at],
                                    req_bytes.size() - req_at, &off, &size,
                                    &frame) != wire::FrameResult::Ok ||
                    wire::decodeRequest(&req_bytes[req_at + off], size,
                                        &rq) != wire::Status::Ok ||
                    !sameRequest(rq.request, *samples[i].request))
                    round_trip_ok = false;
                req_at += frame;
                wire::ResponseFrame rs;
                if (wire::peekFrame(&resp_bytes[resp_at],
                                    resp_bytes.size() - resp_at, &off,
                                    &size, &frame) != wire::FrameResult::Ok ||
                    wire::decodeResponse(&resp_bytes[resp_at + off], size,
                                         &rs) != wire::Status::Ok ||
                    !(rs.output == samples[i].answer))
                    round_trip_ok = false;
                resp_at += frame;
            }
        }));
    }
    if (!round_trip_ok)
        p.mismatch("wire encode/decode round trip");

    const double frames = 2.0 * static_cast<double>(samples.size());
    const double n = static_cast<double>(samples.size());
    p.metric("wire.encode_ns_per_frame", percentile(encode_ms, 0.5) * 1e6 / frames,
             "ns");
    p.metric("wire.decode_ns_per_frame", percentile(decode_ms, 0.5) * 1e6 / frames,
             "ns");
    p.metric("wire.request_bytes_mean",
             static_cast<double>(req_bytes.size()) / n, "B");
    p.metric("wire.response_bytes_mean",
             static_cast<double>(resp_bytes.size()) / n, "B");
}

} // namespace

double
triadGbps(Tracer &tracer)
{
    // 3 x 32 MiB: four times this host class's per-core L2, a size the
    // benchmark can afford; on hosts with a very large shared L3 part
    // of it may stay cache-resident, which the README states.
    constexpr std::size_t n = std::size_t(4) << 20;
    std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
    const double s = 3.0;
    double best = 1e300;
    for (int rep = 0; rep < 5; ++rep) {
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i)
            a[i] = b[i] + s * c[i];
        const auto t1 = Clock::now();
        tracer.record("host.triad", t0, t1);
        best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    if (a[n / 2] != 7.0)
        SPATIAL_FATAL("triad probe computed ", a[n / 2]);
    return 3.0 * sizeof(double) * static_cast<double>(n) / best / 1e9;
}

ProbeReport
probeLayers(const std::vector<ProbeDesign> &designs,
            const std::vector<WireSample> &wire, std::uint64_t seed,
            const std::string &scratchDir, Tracer &tracer)
{
    Probe p{{}, tracer};
    Rng rng(seed ^ 0x9b0be5ull);

    std::vector<std::shared_ptr<const core::TiledDesign>> compiled;
    double compile_ms = 0.0;
    double nodes = 0.0;
    double tiles = 0.0;
    for (const ProbeDesign &d : designs) {
        compile_ms += p.timed("compiler.compile", [&] {
            compiled.push_back(std::make_shared<const core::TiledDesign>(
                core::TiledDesign::compile(*d.weights, d.compile)));
        });
        nodes += static_cast<double>(compiled.back()->netlistNodes());
        tiles += static_cast<double>(compiled.back()->tileCount());
    }
    p.metric("compiler.compile_ms", compile_ms, "ms");
    p.metric("compiler.nodes", nodes, "count");
    p.metric("compiler.tiles", tiles, "count");

    std::size_t heaviest = 0;
    for (std::size_t i = 1; i < designs.size(); ++i)
        if (designs[i].weights->nonZeroCount() >
            designs[heaviest].weights->nonZeroCount())
            heaviest = i;
    const ProbeDesign &d = designs[heaviest];
    const core::TiledDesign &design = *compiled[heaviest];

    const double triad = triadGbps(tracer);
    p.metric("host.triad_gbps", triad, "GB/s");
    probeStore(p, d, design, scratchDir, rng);
    probeEngine(p, d, design, triad, rng);
    probeTiledStep(p, d, design, rng);
    probeWire(p, wire);
    return std::move(p.report);
}

} // namespace spatial::perf
