/**
 * @file
 * On-disk serialization of compiled designs — the cold tier's file
 * format.
 *
 * A compiled design is expensive to produce (seconds at dim >= 2048)
 * but cheap to describe: the netlist is three flat arrays (kinds,
 * first sources, second sources) and everything else is a handful of
 * scalars.  The format therefore stores the netlist arrays and the
 * capture bookkeeping verbatim and rebuilds the segmented ExecPlan on
 * load — plan construction is a few linear passes over the netlist,
 * which is what makes loading a design several times faster than
 * recompiling it.
 *
 * Layout (all integers little-endian):
 *
 *   | field          | type | notes                                  |
 *   |----------------|------|----------------------------------------|
 *   | magic          | u32  | 0x44545053 ("SPTD")                    |
 *   | version        | u32  | kFormatVersion                         |
 *   | payload bytes  | u64  | length of everything after the header  |
 *   | checksum       | u64  | payloadChecksum over the payload bytes |
 *   | payload        | ...  | identity, tile plan, per-tile designs  |
 *
 * The payload carries the full experiments::DesignKey (content hash,
 * shape, element-sum guard, CompileOptions), the TileOptions and tile
 * plan, and per tile: scalar metadata, the column outputs, the node
 * and port counts n and p, then the netlist as three contiguous
 * arrays `kinds u8[n]`, `srcA u32[n]`, `srcB u32[n]`, each written
 * and read with one memcpy.
 *
 * Trust model: files are validated, not trusted.  Loading checks the
 * magic, version, length, and checksum before touching the payload,
 * then structurally validates every field: shapes and counts here,
 * and the netlist arrays in one pass of circuit::Netlist::fromArrays
 * (kinds in range, SSA source ordering, port density, unused sources
 * empty) — a corrupt or adversarial file yields a LoadStatus error,
 * never a crash or an out-of-range netlist.
 */

#ifndef SPATIAL_STORE_FORMAT_H
#define SPATIAL_STORE_FORMAT_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/tiled_design.h"
#include "experiments/design_cache.h"

/**
 * @namespace spatial::store
 * The memory-tiered design store: serialization of compiled designs
 * and the directory-backed cold tier behind serve::DesignStore.
 */
namespace spatial::store
{

/** Outcome of deserializing a design. */
enum class LoadStatus : std::uint8_t
{
    Ok,               //!< design reconstructed
    NotFound,         //!< no file for the key (cold-tier lookups)
    BadMagic,         //!< not a design file
    BadVersion,       //!< written by an incompatible format revision
    Truncated,        //!< shorter than the header or declared payload
    ChecksumMismatch, //!< payload bytes do not match the checksum
    Corrupt,          //!< checksum passed but the structure is invalid
};

/** Printable name of a load status. */
const char *loadStatusName(LoadStatus status);

/** File magic: "SPTD" (SPaTial Design), little-endian. */
constexpr std::uint32_t kMagic = 0x44545053u;

/**
 * Current format revision; bumped on any layout change.  Files of any
 * other revision load as BadVersion.
 */
constexpr std::uint32_t kFormatVersion = 2;

/** Header bytes before the payload (magic, version, length, sum). */
constexpr std::size_t kHeaderBytes = 24;

/**
 * The payload checksum: four interleaved 64-bit lanes of
 * `h = (h ^ word) * prime; h ^= h >> 29`, combined, then the
 * zero-padded tail word and the length.  Each step is a bijection of
 * the state, so any change confined to one aligned 8-byte word —
 * every single-bit flip among them — changes the result.
 */
std::uint64_t payloadChecksum(const std::uint8_t *data, std::size_t size);

/**
 * Serialize a design and its identity key to the wire format.
 * `key` must be the design's makeDesignKey identity — it is stored so
 * a load can verify it got the design it asked for.
 */
std::vector<std::uint8_t>
serializeDesign(const experiments::DesignKey &key,
                const core::TiledDesign &design);

/**
 * Reconstruct a design from serialized bytes.  On Ok, `*design` holds
 * the rebuilt design and `*key` (when non-null) its stored identity;
 * on any other status both are untouched.  Never throws and never
 * fatals on malformed input.
 */
LoadStatus deserializeDesign(const std::uint8_t *data, std::size_t size,
                             std::shared_ptr<const core::TiledDesign> *design,
                             experiments::DesignKey *key = nullptr);

/**
 * Write `design` to `path` atomically and durably: the bytes go to a
 * temp file which is fsync'd before the rename, so a crash at any
 * point leaves either the old file or the complete new one — never a
 * torn file — and parent directories are created as needed.  Returns
 * false (with a logged warning) on any I/O failure, including a
 * failed fsync — spilling is an optimization, never a correctness
 * requirement.  `*fsynced` (when non-null) reports whether the data
 * was fsync'd, i.e. it is true on every successful save.
 */
bool saveDesignFile(const std::string &path,
                    const experiments::DesignKey &key,
                    const core::TiledDesign &design,
                    bool *fsynced = nullptr);

/**
 * Read and deserialize `path`: NotFound when the file cannot be
 * opened, otherwise one POSIX read of the whole file (sized by fstat)
 * followed by the same magic, version, length, checksum and
 * structural checks as deserializeDesign.  A read error or a short
 * read reports Truncated.
 */
LoadStatus loadDesignFile(const std::string &path,
                          std::shared_ptr<const core::TiledDesign> *design,
                          experiments::DesignKey *key = nullptr);

} // namespace spatial::store

#endif // SPATIAL_STORE_FORMAT_H
