/**
 * @file
 * Execution blocks of a Fermi-class SM.
 *
 * Each SM has four blocks (paper Fig. 6): two groups of 16 shader
 * cores (SP0/SP1), one group of 4 special-function units, and one
 * group of 16 load/store units.  A block accepts at most one warp
 * instruction at a time and stays occupied for an op-dependent number
 * of cycles (32 threads over 16 lanes = 2 cycles on SP, 8 on the
 * 4-lane SFU, and so on).  Blocks also track idle time and support
 * power gating with a wake-up delay (used by the Warped-Gates-style
 * policy).
 */

#ifndef VSGPU_GPU_EXEC_UNIT_HH
#define VSGPU_GPU_EXEC_UNIT_HH

#include <array>
#include <cstdint>
#include <limits>

#include "common/units.hh"
#include "gpu/isa.hh"

namespace vsgpu
{

/** The four execution blocks of an SM. */
enum class ExecUnitKind : std::uint8_t
{
    Sp0,
    Sp1,
    Sfu,
    Lsu,
    NumUnits
};

/** Number of execution blocks. */
inline constexpr int numExecUnits =
    static_cast<int>(ExecUnitKind::NumUnits);

/** @return printable unit name. */
const char *execUnitName(ExecUnitKind kind);

/** @return cycles a warp instruction occupies its block. */
constexpr Cycle
occupancyCycles(OpClass op)
{
    // Fermi's execution blocks run at the 2x shader clock, so a
    // 16-lane block retires a 32-thread warp every core cycle.
    switch (op) {
      case OpClass::IntAlu:
      case OpClass::FpAlu:
        return 1; // 32 threads over 16 double-pumped lanes
      case OpClass::Sfu:
        return 4; // 32 threads over 4 double-pumped SFU lanes
      case OpClass::Load:
      case OpClass::Store:
      case OpClass::SharedMem:
        return 1; // 32 threads over 16 LSU lanes
      case OpClass::Atomic:
        return 2; // serialization overhead
      case OpClass::Sync:
        return 1; // barriers do not occupy a block
      case OpClass::NumClasses:
        break;
    }
    return 1;
}

/**
 * One execution block: occupancy, idle tracking, and gating state.
 */
class ExecUnit
{
  public:
    explicit ExecUnit(ExecUnitKind kind);

    /** @return the block kind. */
    ExecUnitKind kind() const { return kind_; }

    /**
     * @return true when the block can accept an instruction at @p now
     * (not occupied; if gated, acceptance implies a wake-up begins and
     * this returns false until the wake completes).
     */
    bool
    canAccept(Cycle now) const
    {
        return gatedUntil_ <= now && busyUntil_ <= now;
    }

    /** Occupy the block for the instruction issued at @p now. */
    void accept(OpClass op, Cycle now);

    /** @return true when the block is executing at @p now. */
    bool busy(Cycle now) const { return busyUntil_ > now; }

    /** @return consecutive idle cycles as of @p now. */
    Cycle idleCycles(Cycle now) const;

    // --- power gating ---

    /** @return true when the block's supply is gated at @p now. */
    bool gated(Cycle now) const { return now < gatedUntil_; }

    /** @return the first cycle from which gated() stays false until
     *  the next gate(): never while a gate is pending, else the end
     *  of the wake-up. */
    Cycle gatedUntil() const { return gatedUntil_; }

    /**
     * Gate the block (drops its leakage).  A gated block refuses
     * instructions until ungate() completes its wake-up.
     * @param blackoutCycles minimum time the block stays gated.
     */
    void gate(Cycle now, Cycle blackoutCycles);

    /**
     * Begin waking the block.
     * @param wakeCycles wake-up latency.
     * @return cycle at which the block becomes usable.
     */
    Cycle ungate(Cycle now, Cycle wakeCycles);

    /** @return true once gate() was called and wake not started. */
    bool gateRequested() const { return gatedFlag_; }

    /** @return number of gate events so far. */
    std::uint64_t gateEvents() const { return gateEvents_; }

    /** @return number of wake events so far. */
    std::uint64_t wakeEvents() const { return wakeEvents_; }

    /** @return total cycles spent gated up to the last state change. */
    Cycle gatedCycles(Cycle now) const;

    /** @return total cycles the block spent executing. */
    Cycle busyCycles() const { return busyTotal_; }

    /** Reset idle tracking (e.g. at kernel launch). */
    void reset(Cycle now);

  private:
    ExecUnitKind kind_;
    Cycle busyUntil_ = 0;
    Cycle lastBusy_ = 0;

    bool gatedFlag_ = false;
    /** gatedFlag_ ? never : wakeUntil_, kept by gate/ungate/reset. */
    Cycle gatedUntil_ = 0;
    Cycle gatedSince_ = 0;
    Cycle blackoutUntil_ = 0;
    Cycle wakeUntil_ = 0;
    Cycle gatedTotal_ = 0;
    Cycle busyTotal_ = 0;
    std::uint64_t gateEvents_ = 0;
    std::uint64_t wakeEvents_ = 0;
};

/** @return the block an op class executes on; SP ops may use either
 *  SP block (the caller tries both). */
constexpr ExecUnitKind
primaryUnit(OpClass op)
{
    switch (op) {
      case OpClass::IntAlu:
      case OpClass::FpAlu:
        return ExecUnitKind::Sp0;
      case OpClass::Sfu:
        return ExecUnitKind::Sfu;
      case OpClass::Load:
      case OpClass::Store:
      case OpClass::SharedMem:
      case OpClass::Atomic:
        return ExecUnitKind::Lsu;
      case OpClass::Sync:
        return ExecUnitKind::Sp0; // nominal; barriers bypass blocks
      case OpClass::NumClasses:
        break;
    }
    return ExecUnitKind::Sp0;
}

} // namespace vsgpu

#endif // VSGPU_GPU_EXEC_UNIT_HH
