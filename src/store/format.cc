#include "store/format.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "circuit/exec_plan.h"
#include "circuit/netlist.h"
#include "common/logging.h"

namespace spatial::store
{

/**
 * Friend of core::CompiledMatrix: assembles a design from loaded
 * fields (the only way to build one outside the compiler) and reads
 * nothing the public accessors don't already expose.
 */
class DesignSerializer
{
  public:
    /** Build a CompiledMatrix from loaded parts; rebuilds the plan. */
    static core::CompiledMatrix
    build(circuit::Netlist netlist,
          std::vector<core::ColumnOutput> outputs,
          const core::CompileOptions &options, std::size_t rows,
          std::size_t cols, int weight_bits, int output_bits,
          std::size_t weight_ones, std::uint32_t drain_cycles)
    {
        core::CompiledMatrix m;
        m.netlist_ = std::move(netlist);
        m.plan_ =
            std::make_shared<const circuit::ExecPlan>(m.netlist_);
        m.outputs_ = std::move(outputs);
        m.options_ = options;
        m.rows_ = rows;
        m.cols_ = cols;
        m.weightBits_ = weight_bits;
        m.outputBits_ = output_bits;
        m.weightOnes_ = weight_ones;
        m.drainCycles_ = drain_cycles;
        return m;
    }
};

namespace
{

/** Little-endian append-only byte sink. */
struct Writer
{
    std::vector<std::uint8_t> bytes;

    void u8(std::uint8_t v) { bytes.push_back(v); }
    void u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
};

/** Bounds-checked little-endian reader; sticky failure flag. */
struct Reader
{
    const std::uint8_t *data;
    std::size_t size;
    std::size_t pos = 0;
    bool failed = false;

    bool need(std::size_t n)
    {
        if (failed || size - pos < n) {
            failed = true;
            return false;
        }
        return true;
    }
    std::uint8_t u8()
    {
        if (!need(1))
            return 0;
        return data[pos++];
    }
    std::uint32_t u32()
    {
        if (!need(4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data[pos++]) << (8 * i);
        return v;
    }
    std::uint64_t u64()
    {
        if (!need(8))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data[pos++]) << (8 * i);
        return v;
    }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
};

/** Shape/count sanity bound: nothing real comes close. */
constexpr std::uint64_t kMaxReasonable = std::uint64_t(1) << 26;

void
writeOptions(Writer &w, const core::CompileOptions &o)
{
    w.i32(o.inputBits);
    w.u8(o.inputsSigned ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(o.signMode));
    w.u8(o.constantPropagation ? 1 : 0);
    w.u8(o.balancedTree ? 1 : 0);
    w.u8(o.alignOutputs ? 1 : 0);
    w.i32(o.extraOutputBits);
    w.u32(o.broadcastFanoutLimit);
    w.u64(o.csdSeed);
}

bool
readOptions(Reader &r, core::CompileOptions *o)
{
    o->inputBits = r.i32();
    const std::uint8_t inputs_signed = r.u8();
    const std::uint8_t sign_mode = r.u8();
    const std::uint8_t constant_propagation = r.u8();
    const std::uint8_t balanced_tree = r.u8();
    const std::uint8_t align_outputs = r.u8();
    o->extraOutputBits = r.i32();
    o->broadcastFanoutLimit = r.u32();
    o->csdSeed = r.u64();
    if (r.failed || o->inputBits < 1 || o->inputBits > 32 ||
        sign_mode > static_cast<std::uint8_t>(core::SignMode::Csd) ||
        inputs_signed > 1 || constant_propagation > 1 ||
        balanced_tree > 1 || align_outputs > 1 ||
        o->extraOutputBits < 0 || o->extraOutputBits > 59)
        return false;
    o->inputsSigned = inputs_signed != 0;
    o->signMode = static_cast<core::SignMode>(sign_mode);
    o->constantPropagation = constant_propagation != 0;
    o->balancedTree = balanced_tree != 0;
    o->alignOutputs = align_outputs != 0;
    return true;
}

void
writeTile(Writer &w, const core::CompiledMatrix &tile)
{
    w.u64(tile.rows());
    w.u64(tile.cols());
    w.i32(tile.weightBits());
    w.i32(tile.outputBits());
    w.u64(tile.weightOnes());
    w.u32(tile.drainCycles());

    const auto &outputs = tile.outputs();
    w.u64(outputs.size());
    for (const auto &out : outputs) {
        w.u32(out.node);
        w.i32(out.lsbLatency);
    }

    const circuit::Netlist &netlist = tile.netlist();
    w.u64(netlist.numNodes());
    w.u64(netlist.numInputPorts());
    for (std::size_t i = 0; i < netlist.numNodes(); ++i) {
        const auto id = static_cast<circuit::NodeId>(i);
        w.u8(static_cast<std::uint8_t>(netlist.kind(id)));
        w.u32(netlist.srcA(id));
        w.u32(netlist.srcB(id));
    }
}

/**
 * Read one tile, replaying the netlist through the public builders so
 * every structural invariant (kinds in range, SSA ordering, port
 * bounds) is enforced before an ExecPlan ever sees it.  Returns null
 * on any violation.
 */
std::shared_ptr<const core::CompiledMatrix>
readTile(Reader &r, const core::CompileOptions &options,
         std::size_t expect_rows, std::size_t expect_cols)
{
    const std::uint64_t rows = r.u64();
    const std::uint64_t cols = r.u64();
    const std::int32_t weight_bits = r.i32();
    const std::int32_t output_bits = r.i32();
    const std::uint64_t weight_ones = r.u64();
    const std::uint32_t drain_cycles = r.u32();
    if (r.failed || rows != expect_rows || cols != expect_cols ||
        rows == 0 || cols == 0 || rows > kMaxReasonable ||
        cols > kMaxReasonable || weight_bits < 0 || weight_bits > 64 ||
        output_bits < 1 || output_bits > 64 || drain_cycles == 0 ||
        drain_cycles > kMaxReasonable)
        return nullptr;

    const std::uint64_t num_outputs = r.u64();
    if (r.failed || num_outputs != cols)
        return nullptr;
    std::vector<core::ColumnOutput> outputs;
    outputs.reserve(num_outputs);
    for (std::uint64_t i = 0; i < num_outputs; ++i) {
        core::ColumnOutput out;
        out.node = r.u32();
        out.lsbLatency = r.i32();
        if (r.failed ||
            out.lsbLatency >
                static_cast<std::int64_t>(drain_cycles) ||
            out.lsbLatency < -64)
            return nullptr;
        outputs.push_back(out);
    }

    const std::uint64_t num_nodes = r.u64();
    const std::uint64_t num_ports = r.u64();
    if (r.failed || num_nodes == 0 || num_nodes > kMaxReasonable ||
        num_ports == 0 || num_ports > rows)
        return nullptr;
    circuit::Netlist netlist;
    for (std::uint64_t i = 0; i < num_nodes; ++i) {
        const std::uint8_t kind_byte = r.u8();
        const std::uint32_t a = r.u32();
        const std::uint32_t b = r.u32();
        if (r.failed ||
            kind_byte > static_cast<std::uint8_t>(circuit::CompKind::Sub))
            return nullptr;
        const auto kind = static_cast<circuit::CompKind>(kind_byte);
        const bool a_ok = a < i; // SSA: sources precede their sinks
        const bool b_ok = b < i;
        switch (kind) {
          case circuit::CompKind::Const0:
            netlist.addConst0();
            break;
          case circuit::CompKind::Const1:
            netlist.addConst1();
            break;
          case circuit::CompKind::Input:
            if (a >= num_ports)
                return nullptr;
            netlist.addInput(a);
            break;
          case circuit::CompKind::Dff:
            if (!a_ok)
                return nullptr;
            netlist.addDff(a);
            break;
          case circuit::CompKind::Not:
            if (!a_ok)
                return nullptr;
            netlist.addNot(a);
            break;
          case circuit::CompKind::And:
            if (!a_ok || !b_ok)
                return nullptr;
            netlist.addAnd(a, b);
            break;
          case circuit::CompKind::Adder:
            if (!a_ok || !b_ok)
                return nullptr;
            netlist.addAdder(a, b);
            break;
          case circuit::CompKind::Sub:
            if (!a_ok || !b_ok)
                return nullptr;
            netlist.addSub(a, b);
            break;
        }
    }
    // Every declared port must actually be driven: the builder derives
    // the port count from the highest port it saw.
    if (netlist.numInputPorts() != num_ports)
        return nullptr;
    for (const auto &out : outputs)
        if (out.node != circuit::kNoNode && out.node >= num_nodes)
            return nullptr;

    return std::make_shared<const core::CompiledMatrix>(
        DesignSerializer::build(std::move(netlist), std::move(outputs),
                                options, rows, cols, weight_bits,
                                output_bits, weight_ones,
                                drain_cycles));
}

} // namespace

const char *
loadStatusName(LoadStatus status)
{
    switch (status) {
      case LoadStatus::Ok:
        return "ok";
      case LoadStatus::NotFound:
        return "not found";
      case LoadStatus::BadMagic:
        return "bad magic";
      case LoadStatus::BadVersion:
        return "bad version";
      case LoadStatus::Truncated:
        return "truncated";
      case LoadStatus::ChecksumMismatch:
        return "checksum mismatch";
      case LoadStatus::Corrupt:
        return "corrupt";
    }
    return "unknown";
}

std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t size)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= data[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::vector<std::uint8_t>
serializeDesign(const experiments::DesignKey &key,
                const core::TiledDesign &design)
{
    Writer payload;

    // Identity block: the full DesignKey, so a load can verify it got
    // the design it asked for (filenames are hashes, and hashes can —
    // in principle — collide).
    payload.u64(key.contentHash);
    payload.u64(key.rows);
    payload.u64(key.cols);
    payload.i64(key.checksum);
    writeOptions(payload, key.options);

    const core::TileOptions &tile = design.tileOptions();
    payload.u64(tile.onesBudget);
    payload.u64(tile.maxTileCols);

    const core::TilePlan &plan = design.plan();
    payload.u64(plan.lutBudget);
    payload.u64(plan.tiles.size());
    for (const core::Tile &t : plan.tiles) {
        payload.u64(t.colBegin);
        payload.u64(t.colEnd);
        payload.u64(t.estimatedLuts);
    }
    for (std::size_t i = 0; i < design.tileCount(); ++i)
        writeTile(payload, design.tile(i));

    Writer out;
    out.bytes.reserve(kHeaderBytes + payload.bytes.size());
    out.u32(kMagic);
    out.u32(kFormatVersion);
    out.u64(payload.bytes.size());
    out.u64(fnv1a(payload.bytes.data(), payload.bytes.size()));
    out.bytes.insert(out.bytes.end(), payload.bytes.begin(),
                     payload.bytes.end());
    return out.bytes;
}

LoadStatus
deserializeDesign(const std::uint8_t *data, std::size_t size,
                  std::shared_ptr<const core::TiledDesign> *design,
                  experiments::DesignKey *key)
{
    if (size < kHeaderBytes)
        return LoadStatus::Truncated;
    Reader header{data, kHeaderBytes};
    if (header.u32() != kMagic)
        return LoadStatus::BadMagic;
    if (header.u32() != kFormatVersion)
        return LoadStatus::BadVersion;
    const std::uint64_t payload_bytes = header.u64();
    const std::uint64_t checksum = header.u64();
    if (payload_bytes != size - kHeaderBytes)
        return LoadStatus::Truncated;
    const std::uint8_t *payload = data + kHeaderBytes;
    if (fnv1a(payload, payload_bytes) != checksum)
        return LoadStatus::ChecksumMismatch;

    Reader r{payload, payload_bytes};
    experiments::DesignKey loaded_key;
    loaded_key.contentHash = r.u64();
    loaded_key.rows = r.u64();
    loaded_key.cols = r.u64();
    loaded_key.checksum = r.i64();
    if (!readOptions(r, &loaded_key.options))
        return LoadStatus::Corrupt;
    if (loaded_key.rows == 0 || loaded_key.rows > kMaxReasonable ||
        loaded_key.cols == 0 || loaded_key.cols > kMaxReasonable)
        return LoadStatus::Corrupt;

    core::TileOptions tile;
    tile.onesBudget = r.u64();
    tile.maxTileCols = r.u64();

    core::TilePlan plan;
    plan.lutBudget = r.u64();
    const std::uint64_t tile_count = r.u64();
    if (r.failed || tile_count == 0 || tile_count > loaded_key.cols)
        return LoadStatus::Corrupt;
    std::size_t col = 0;
    for (std::uint64_t i = 0; i < tile_count; ++i) {
        core::Tile t;
        t.colBegin = r.u64();
        t.colEnd = r.u64();
        t.estimatedLuts = r.u64();
        if (r.failed || t.colBegin != col || t.colEnd <= t.colBegin ||
            t.colEnd > loaded_key.cols)
            return LoadStatus::Corrupt;
        col = t.colEnd;
        plan.tiles.push_back(t);
    }
    if (col != loaded_key.cols)
        return LoadStatus::Corrupt;

    std::vector<std::shared_ptr<const core::CompiledMatrix>> tiles;
    tiles.reserve(tile_count);
    for (const core::Tile &t : plan.tiles) {
        auto compiled = readTile(r, loaded_key.options,
                                 loaded_key.rows,
                                 t.colEnd - t.colBegin);
        if (compiled == nullptr)
            return LoadStatus::Corrupt;
        tiles.push_back(std::move(compiled));
    }
    if (r.failed || r.pos != payload_bytes)
        return LoadStatus::Corrupt;

    auto rebuilt = std::make_shared<const core::TiledDesign>(
        core::TiledDesign::fromTiles(std::move(plan), std::move(tiles),
                                     loaded_key.rows, tile));
    if (key != nullptr)
        *key = loaded_key;
    *design = std::move(rebuilt);
    return LoadStatus::Ok;
}

bool
saveDesignFile(const std::string &path,
               const experiments::DesignKey &key,
               const core::TiledDesign &design,
               bool *fsynced)
{
    namespace fs = std::filesystem;
    if (fsynced != nullptr)
        *fsynced = false;
    std::error_code ec;
    const fs::path target(path);
    if (target.has_parent_path()) {
        fs::create_directories(target.parent_path(), ec);
        if (ec) {
            SPATIAL_WARN("store: cannot create ",
                         target.parent_path().string(), ": ",
                         ec.message());
            return false;
        }
    }
    const auto bytes = serializeDesign(key, design);
    const fs::path tmp(path + ".tmp");
    // POSIX I/O instead of ofstream: the crash-safety contract needs
    // an fsync between the last write and the rename, and iostreams
    // expose no file descriptor.  Without the fsync, a power cut
    // after the rename could publish a durable name pointing at
    // not-yet-durable bytes — a torn file with a valid path.
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                          0644);
    if (fd < 0) {
        SPATIAL_WARN("store: cannot open ", tmp.string(), ": ",
                     std::strerror(errno));
        return false;
    }
    std::size_t written = 0;
    while (written < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + written,
                    bytes.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            SPATIAL_WARN("store: cannot write ", tmp.string(), ": ",
                         std::strerror(errno));
            ::close(fd);
            fs::remove(tmp, ec);
            return false;
        }
        written += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        SPATIAL_WARN("store: cannot fsync ", tmp.string(), ": ",
                     std::strerror(errno));
        ::close(fd);
        fs::remove(tmp, ec);
        return false;
    }
    ::close(fd);
    fs::rename(tmp, target, ec);
    if (ec) {
        SPATIAL_WARN("store: cannot rename ", tmp.string(), " -> ",
                     path, ": ", ec.message());
        fs::remove(tmp, ec);
        return false;
    }
    if (fsynced != nullptr)
        *fsynced = true;
    return true;
}

LoadStatus
loadDesignFile(const std::string &path,
               std::shared_ptr<const core::TiledDesign> *design,
               experiments::DesignKey *key)
{
    // POSIX I/O like the write path: one read() into a buffer sized by
    // fstat.  Promotion runs on a requesting worker, so the load should
    // cost the copy out of the page cache and no more.
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return LoadStatus::NotFound;
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        return LoadStatus::Truncated;
    }
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(st.st_size));
    std::size_t filled = 0;
    while (filled < bytes.size()) {
        const ssize_t n =
            ::read(fd, bytes.data() + filled, bytes.size() - filled);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break; // an I/O error or a file shrunk under us
        filled += static_cast<std::size_t>(n);
    }
    ::close(fd);
    // A short read leaves fewer bytes than the header declares, which
    // deserializeDesign reports as Truncated.
    return deserializeDesign(bytes.data(), filled, design, key);
}

} // namespace spatial::store
