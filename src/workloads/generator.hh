/**
 * @file
 * Procedural instruction-stream generation from a WorkloadSpec.
 *
 * Streams are generated lazily and deterministically: the instruction
 * at a given (seed, sm, warp, position) is always the same, so
 * multi-million-instruction benchmarks need no trace storage and runs
 * are exactly reproducible across configurations (the same workload
 * can be replayed against different PDS configurations).
 */

#ifndef VSGPU_WORKLOADS_GENERATOR_HH
#define VSGPU_WORKLOADS_GENERATOR_HH

#include <memory>
#include <vector>

#include "common/random.hh"
#include "gpu/program.hh"
#include "workloads/spec.hh"

namespace vsgpu
{

/**
 * WarpProgram that samples instructions phase by phase.
 */
class GeneratedProgram : public WarpProgram
{
  public:
    /**
     * @param spec        workload description (copied).
     * @param seed        stream seed (already mixed per sm/warp).
     * @param startOffset instructions to skip into the looped stream
     *                    (phase misalignment).
     */
    GeneratedProgram(const WorkloadSpec &spec, std::uint64_t seed,
                     int startOffset);

    std::optional<WarpInstr> next() override;

  private:
    /** Advance the (phase, position) cursor by one instruction. */
    void advanceCursor();

    /** Sample the instruction at the current cursor. */
    WarpInstr sample();

    WorkloadSpec spec_;
    /** Per-phase sum of the mix weights (Sync excluded). */
    std::vector<double> mixTotal_;
    Rng rng_;
    int repeatsLeft_;
    std::size_t phaseIdx_ = 0;
    int posInPhase_ = 0;
    int emitted_ = 0;
    int totalToEmit_;
    int seq_ = 0; ///< monotone instruction counter for register naming
};

/**
 * ProgramFactory over a WorkloadSpec.
 */
class WorkloadFactory : public ProgramFactory
{
  public:
    explicit WorkloadFactory(WorkloadSpec spec);

    int warpsPerSm() const override { return spec_.warpsPerSm; }

    std::unique_ptr<WarpProgram> makeProgram(int sm,
                                             int warp) const override;

    /** @return the spec. */
    const WorkloadSpec &spec() const { return spec_; }

  private:
    WorkloadSpec spec_;
};

} // namespace vsgpu

#endif // VSGPU_WORKLOADS_GENERATOR_HH
