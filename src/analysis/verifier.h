/**
 * @file
 * Static verification of every compiled artifact the engine produces.
 *
 * Each layer of the compilation pipeline — Netlist, ExecPlan,
 * Segmentation, TilePlan, and the `.sptd` serialization — carries
 * invariants the executors *assume* rather than re-check on the hot
 * path (SSA source ordering, hazard-free commit order, exact segment
 * partitions, slot bookkeeping, ...).  This verifier re-derives every
 * one of those invariants from first principles and checks an
 * artifact against them **without executing it**.  A violation names
 * the exact rule (a stable `NET-*` / `PLAN-*` / `SEG-*` / `TILE-*` /
 * `FILE-*` / `COMPILE-*` id) plus the offending op/slot index, so a
 * corrupted store file, a hostile remote registration, or a compiler
 * regression is diagnosed in one line instead of as a downstream
 * miscompare.
 *
 * Three consumers share this code (see docs/analysis.md for the full
 * rule catalog):
 *
 *  - the `spatial-lint` CLI sweeps designs (registry grid, a single
 *    design, or `.sptd` files) and exits non-zero on any error;
 *  - debug builds hook admission: serve::DesignStore verifies designs
 *    it compiles or cold-loads, and the NetServer registrar rejects
 *    registrations whose artifacts fail with a named diagnostic;
 *  - tests/analysis_test.cc mutates the *View snapshots below and
 *    asserts the exact rule each corruption trips.
 *
 * The *View structs are plain-data copies of the live artifacts.
 * Checks run on views, never on the artifacts directly, so a test can
 * snapshot a correct artifact, flip one field, and re-verify — the
 * mutation never touches (and could never touch) the real immutable
 * object.
 */

#ifndef SPATIAL_ANALYSIS_VERIFIER_H
#define SPATIAL_ANALYSIS_VERIFIER_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/exec_plan.h"
#include "circuit/netlist.h"
#include "core/tiled_design.h"
#include "experiments/design_cache.h"
#include "matrix/dense.h"

/**
 * @namespace spatial::analysis
 * Static artifact verification: invariant checks over compiled
 * designs, execution schedules, and store files.
 */
namespace spatial::analysis
{

/** How bad a finding is. */
enum class Severity : std::uint8_t
{
    Warning, //!< suspicious but not executably wrong; never fails lint
    Error,   //!< invariant violation; artifact must not be executed
};

/** Which artifact layer a finding is about. */
enum class Layer : std::uint8_t
{
    Compile,      //!< compile request preconditions (checkCompile)
    Netlist,      //!< circuit::Netlist well-formedness
    Plan,         //!< circuit::ExecPlan schedule legality
    Segmentation, //!< circuit::Segmentation invariants
    Tile,         //!< core::TilePlan / TiledDesign invariants
    File,         //!< .sptd container (magic/version/checksum/key)
};

/** Printable name of a severity ("warning" / "error"). */
const char *severityName(Severity severity);

/** Printable name of a layer ("netlist", "plan", ...). */
const char *layerName(Layer layer);

/** Index value meaning "no specific op/slot/tile" in a Diagnostic. */
constexpr std::uint64_t kNoIndex = ~std::uint64_t{0};

/** One finding: a named rule violation at a specific place. */
struct Diagnostic
{
    Severity severity = Severity::Error; //!< error or warning
    Layer layer = Layer::Netlist;        //!< artifact layer
    std::string rule;    //!< stable rule id, e.g. "PLAN-COMMIT-ORDER"
    std::string message; //!< human-readable detail
    /** Offending op/slot/tile/statement index; kNoIndex when global. */
    std::uint64_t index = kNoIndex;

    /** One-line rendering: `error[PLAN-COMMIT-ORDER] op 3: ...`. */
    std::string str() const;
};

/** The result of verifying one or more artifacts. */
struct Report
{
    std::vector<Diagnostic> diagnostics; //!< every finding, in order

    /** True when no Error-severity diagnostic was recorded. */
    bool ok() const { return errors() == 0; }

    /** Number of Error-severity findings. */
    std::size_t errors() const;

    /** Number of Warning-severity findings. */
    std::size_t warnings() const;

    /** Whether any finding carries exactly this rule id. */
    bool has(std::string_view rule) const;

    /** The first finding with this rule id; null when absent. */
    const Diagnostic *find(std::string_view rule) const;

    /** Every finding rendered one per line (empty string when clean). */
    std::string str() const;

    /** Append a finding (used by the checkers; handy in tests). */
    void add(Severity severity, Layer layer, std::string rule,
             std::string message, std::uint64_t index = kNoIndex);
};

/**
 * Plain-data snapshot of a Netlist (plus, optionally, the design's
 * output columns for dead-node analysis).  Mutable by tests.
 */
struct NetlistView
{
    std::size_t numInputPorts = 0;         //!< dense port count
    std::vector<circuit::CompKind> kinds;  //!< per-node kind
    std::vector<circuit::NodeId> srcA;     //!< per-node operand / port
    std::vector<circuit::NodeId> srcB;     //!< per-node second operand
    /** Output column nodes (kNoNode entries already dropped); empty
     *  disengages the NET-DEAD-NODE reachability warning. */
    std::vector<circuit::NodeId> outputs;

    /** Snapshot a live netlist (outputs left empty). */
    static NetlistView of(const circuit::Netlist &netlist);
};

/** Plain-data snapshot of an ExecPlan.  Mutable by tests. */
struct PlanView
{
    std::size_t numNodes = 0;      //!< value slots below ones/zero
    std::size_t numInputPorts = 0; //!< dense port count
    std::vector<circuit::ExecPlan::CombOp> comb;   //!< settle tape
    std::vector<circuit::ExecPlan::InputOp> inputs; //!< input drives
    std::vector<circuit::ExecPlan::RegOp> regs;    //!< commit tape
    std::vector<circuit::NodeId> constOnes;        //!< Const1 slots

    /** The all-ones slot index (numNodes). */
    circuit::NodeId onesSlot() const
    {
        return static_cast<circuit::NodeId>(numNodes);
    }

    /** The all-zeros slot index (numNodes + 1). */
    circuit::NodeId zeroSlot() const
    {
        return static_cast<circuit::NodeId>(numNodes + 1);
    }

    /** Total value slots including ones/zero (numNodes + 2). */
    std::size_t numSlots() const { return numNodes + 2; }

    /** Snapshot a live plan. */
    static PlanView of(const circuit::ExecPlan &plan);
};

/**
 * Plain-data snapshot of a Segmentation (op tapes in renumbered slot
 * space, segment table, consumer index, slot permutation).  Mutable
 * by tests.
 */
struct SegmentationView
{
    std::size_t numNodes = 0;      //!< slot-space size below ones/zero
    std::size_t opsPerSegment = 0; //!< chunking budget
    std::vector<circuit::Segmentation::Segment> segments; //!< table
    std::vector<circuit::ExecPlan::CombOp> comb; //!< schedule order
    std::vector<circuit::ExecPlan::RegOp> regs;  //!< schedule order
    std::vector<std::uint32_t> consumers; //!< packed wake lists
    std::vector<circuit::ExecPlan::InputOp> inputs; //!< slot space
    std::vector<circuit::NodeId> constOnes;         //!< slot space
    std::vector<circuit::NodeId> slotOf; //!< node id -> slot

    /** Snapshot a live segmentation (numNodes from its plan). */
    static SegmentationView of(const circuit::Segmentation &seg,
                               const circuit::ExecPlan &plan);
};

/** Plain-data snapshot of a TiledDesign's column partition. */
struct TileView
{
    std::size_t rows = 0;        //!< design rows
    std::size_t cols = 0;        //!< design cols the tiles must cover
    std::size_t lutBudget = 0;   //!< ones budget (0 = never tile)
    std::size_t maxTileCols = 0; //!< width cap (0 = uncapped)
    std::vector<core::Tile> tiles; //!< the column strips
    /** Per-tile compiled (rows, cols) as reported by the tile itself;
     *  empty disengages the TILE-SHAPE cross-check. */
    std::vector<std::pair<std::size_t, std::size_t>> tileShapes;

    /** Snapshot a live tiled design (fills tileShapes). */
    static TileView of(const core::TiledDesign &design);
};

/** Tunables for whole-design verification. */
struct VerifyOptions
{
    /**
     * Segment budget (KiB) to derive the Segmentation under, mirroring
     * SimOptions::segmentKib; 0 skips the segmentation layer.
     */
    std::size_t segmentKib = 4;

    /** Lane words for the segment budget derivation. */
    unsigned laneWords = 1;
};

/**
 * The invariant checker.  Each check* method appends findings for one
 * layer to a Report; the free verify* functions below compose them
 * over whole artifacts.  Stateless and thread-safe.
 */
class Verifier
{
  public:
    /** Netlist well-formedness: NET-* rules. */
    void checkNetlist(const NetlistView &netlist, Report *report) const;

    /**
     * ExecPlan schedule legality: PLAN-* rules.  `netlist` non-null
     * additionally reconciles the tapes against the netlist (coverage,
     * op forms); null checks the plan's internal invariants alone.
     */
    void checkPlan(const PlanView &plan, const NetlistView *netlist,
                   Report *report) const;

    /** Segmentation invariants: SEG-* rules. */
    void checkSegmentation(const SegmentationView &seg,
                           Report *report) const;

    /** Tile partition invariants: TILE-* rules. */
    void checkTiles(const TileView &tiles, Report *report) const;
};

/**
 * Mirror of MatrixCompiler::checkCompile as a Report: a request the
 * compiler would refuse (or fatal on) yields COMPILE-PRECONDITION
 * with the compiler's own message.  Safe on any input.
 */
Report verifyCompileRequest(const core::CompileOptions &options,
                            const IntMatrix &weights);

/**
 * Verify one compiled tile end to end: netlist (with its output
 * columns), plan-vs-netlist, and the Segmentation at the configured
 * budget.  Executes nothing.
 */
Report verifyCompiledMatrix(const core::CompiledMatrix &matrix,
                            const VerifyOptions &opts = {});

/**
 * Verify a whole design: the tile partition plus every tile via
 * verifyCompiledMatrix.  This is the admission-time entry point.
 */
Report verifyDesign(const core::TiledDesign &design,
                    const VerifyOptions &opts = {});

/**
 * Verify a `.sptd` store file: container integrity (FILE-* rules,
 * mapping store::LoadStatus), the stored key against `expected` when
 * non-null, and — when the container is intact — the reconstructed
 * design via verifyDesign.
 */
Report verifyFile(const std::string &path,
                  const experiments::DesignKey *expected = nullptr,
                  const VerifyOptions &opts = {});

} // namespace spatial::analysis

#endif // SPATIAL_ANALYSIS_VERIFIER_H
