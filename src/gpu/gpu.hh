/**
 * @file
 * The 16-SM GPU: SM array, shared memory system, and per-SM dynamic
 * frequency scaling via clock masking (the paper implements DFS "by
 * masking the clock in GPGPU-Sim"; we do the same with per-SM
 * fractional clock-enable accumulators).
 */

#ifndef VSGPU_GPU_GPU_HH
#define VSGPU_GPU_GPU_HH

#include <memory>
#include <vector>

#include "gpu/memory.hh"
#include "gpu/sm.hh"

namespace vsgpu
{

/** Whole-GPU configuration. */
struct GpuConfig
{
    SmConfig sm;
    MemoryConfig memory;
};

/**
 * The GPU device model.
 */
class Gpu
{
  public:
    explicit Gpu(const GpuConfig &cfg = {});

    /** Launch a kernel onto every SM. */
    void launch(const ProgramFactory &factory);

    /** @return true when every SM has drained. */
    bool done() const;

    /** Advance one global core clock. */
    void step();

    /** @return elapsed global cycles. */
    Cycle cycle() const { return cycle_; }

    /** @return SM by index. */
    Sm &sm(int idx);
    const Sm &sm(int idx) const;

    /** @return the shared memory system. */
    MemorySystem &memory() { return mem_; }
    const MemorySystem &memory() const { return mem_; }

    /**
     * Set an SM's clock as a fraction of the nominal 700 MHz
     * (DFS actuation; 1.0 = full speed, 0.0 = clock-gated).
     */
    void setSmFrequencyFraction(int idx, double fraction);

    /** @return an SM's clock fraction. */
    double smFrequencyFraction(int idx) const;

    /**
     * @return the events of SM @p idx for the last global cycle
     * (clocked=false when the SM's clock was masked that cycle).
     */
    const SmCycleEvents &smEvents(int idx) const;

    /** @return true when SM @p idx was stalled in the last global
     *  cycle: clocked, active, and with nothing issued, fetched or
     *  injected (its events are Sm::stalledCycle). */
    bool
    smStalled(int idx) const
    {
        return lastEvents_[static_cast<std::size_t>(idx)] ==
               &Sm::stalledCycle;
    }

    /** @return true when SM @p idx was drained and clocked in the
     *  last global cycle (its events are Sm::drainedCycle). */
    bool
    smDrained(int idx) const
    {
        return lastEvents_[static_cast<std::size_t>(idx)] ==
               &Sm::drainedCycle;
    }

    /** @return number of SMs. */
    int numSMs() const { return static_cast<int>(sms_.size()); }

  private:
    GpuConfig cfg_;
    MemorySystem mem_;
    std::vector<std::unique_ptr<Sm>> sms_;
    std::vector<double> freqFraction_;
    std::vector<double> clockAccum_;
    /** Each SM's events of the last cycle: the record its step
     *  returned, or a shared record for a masked clock. */
    std::vector<const SmCycleEvents *> lastEvents_;
    Cycle cycle_ = 0;
};

} // namespace vsgpu

#endif // VSGPU_GPU_GPU_HH
