/**
 * @file
 * Minimal warp-level instruction representation for the trace-driven
 * SM model.
 *
 * The simulator is throughput- and event-accurate rather than
 * functionally accurate: instructions carry an operation class (which
 * execution block they occupy, for how long, and what they cost in
 * energy), register identifiers (for scoreboard dependences), an
 * active-lane count (divergence), and a locality hint (for the DRAM
 * row-buffer model).
 */

#ifndef VSGPU_GPU_ISA_HH
#define VSGPU_GPU_ISA_HH

#include <cstdint>
#include <string>

namespace vsgpu
{

/** Operation classes recognized by the SM pipeline. */
enum class OpClass : std::uint8_t
{
    IntAlu,    ///< integer ALU op on an SP block
    FpAlu,     ///< single-precision FP op on an SP block
    Sfu,       ///< transcendental on the SFU block
    Load,      ///< global load through the LSU
    Store,     ///< global store through the LSU
    SharedMem, ///< shared-memory access through the LSU
    Atomic,    ///< global atomic through the LSU (serializing)
    Sync,      ///< barrier; waits until all warps reach it
    NumClasses
};

/** Number of op classes (array sizing). */
inline constexpr int numOpClasses =
    static_cast<int>(OpClass::NumClasses);

/** @return printable op-class name. */
const char *opClassName(OpClass op);

/** @return true when the op executes on the LSU block. */
constexpr bool
isMemoryOp(OpClass op)
{
    return op == OpClass::Load || op == OpClass::Store ||
           op == OpClass::SharedMem || op == OpClass::Atomic;
}

/** Register id meaning "no register". */
inline constexpr std::uint8_t noReg = 0xff;

/**
 * One warp-level instruction.
 */
struct WarpInstr
{
    OpClass op = OpClass::IntAlu;
    std::uint8_t dest = noReg;
    std::uint8_t src0 = noReg;
    std::uint8_t src1 = noReg;
    std::uint8_t activeLanes = 32; ///< 1..32
    bool rowHit = true; ///< DRAM row-buffer locality hint (loads/stores)

    /**
     * Cache outcomes as properties of the instruction (decided by the
     * workload generator), so timing comparisons between PDS
     * configurations are not perturbed by access-order-dependent
     * random rolls.
     */
    bool l1Hit = true;
    bool l2Hit = false;
};

} // namespace vsgpu

#endif // VSGPU_GPU_ISA_HH
