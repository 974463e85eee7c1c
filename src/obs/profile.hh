/**
 * @file
 * Stage-cost self-profiler for the co-simulation loop.
 *
 * The cosim loop is a serial chain per cycle (GPU cycle model →
 * power → circuit step → controller → hypervisor → bookkeeping);
 * before ROADMAP item 2 can overlap those stages, we need a measured
 * baseline of where the wall time goes.  A StageTimer takes one
 * clock reading per stage boundary on sampled cycles and accumulates
 * per-stage totals plus log2-bucket histograms of per-cycle stage
 * durations; merge() combines per-run profiles into a sweep-wide
 * aggregate (integer sums, so the merge order does not matter).
 *
 * Profiling is globally gated by an atomic flag: the disabled path
 * of a ProfileScope is a single relaxed load (pinned to ~ns by
 * BM_ProfileScopeDisabled), and the StageTimer additionally samples
 * only every strideCycles-th cycle so the enabled overhead stays
 * within the <=2% budget gated in BENCH_obs.json.
 *
 * Profile contents are wall-clock derived and therefore
 * schedule-dependent by construction; the `profile` section is only
 * attached to stats JSON when profiling was explicitly requested, so
 * determinism-gated dumps never contain it.
 */

#ifndef VSGPU_OBS_PROFILE_HH
#define VSGPU_OBS_PROFILE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace vsgpu::obs
{

/** Profiled stages.  Setup and Finalize bracket the loop; the
 *  CircuitXxx entries are sub-phases of Circuit.  Neither counts in
 *  loop-coverage sums. */
enum ProfileStage : int
{
    StageSetup,       ///< PDS construction + model verification
    StageFinalize,    ///< post-loop reductions (box stats, counters)
    StageGpu,         ///< GPU cycle model step
    StagePower,       ///< per-SM power evaluation
    StageCircuit,     ///< MNA transient step (incl. sub-phases)
    StageControl,     ///< droop detector + controller
    StageHypervisor,  ///< DFS / power gating / hypervisor
    StageObserve,     ///< rail scan, tracing, telemetry
    StageBookkeeping, ///< energy + imbalance accounting
    StageCircuitAssemble, ///< sub: companion-model RHS build
    StageCircuitSolve,    ///< sub: triangular solve (cached LU)
    StageCircuitRefactor, ///< sub: solve that rebuilt the LU
    StageCircuitUpdate,   ///< sub: reactive-state update
    numProfileStages,
};

/** First sub-phase entry (sub-phases overlap their parent stage). */
constexpr int firstProfileSubStage = StageCircuitAssemble;

/** @return dotted display name, e.g. "circuit.solve". */
const char *profileStageName(int stage);

/** Histogram bucket count: bucket k holds durations in
 *  [2^k, 2^(k+1)) ns, with the last bucket open-ended. */
constexpr int profileHistBuckets = 24;

/** Totals for one stage: integer sums merge order-independently. */
struct StageTotals
{
    std::uint64_t ns = 0;
    std::uint64_t samples = 0;
    std::array<std::uint64_t, profileHistBuckets> hist{};

    void add(std::uint64_t durationNs);
    void merge(const StageTotals &other);

    /** Approximate percentile from the log2 histogram: midpoint of
     *  the bucket where the cumulative count crosses frac. */
    double percentileNs(double frac) const;
};

/** Accumulated profile of one run or a merged sweep. */
struct Profile
{
    std::array<StageTotals, numProfileStages> stages{};

    std::uint64_t cycles = 0;        ///< simulated cycles covered
    std::uint64_t sampledCycles = 0; ///< cycles with stage timing
    std::uint64_t loopNs = 0;        ///< wall ns in sampled cycles
    std::uint64_t wallNs = 0;        ///< wall ns of whole run()s
    std::uint64_t runs = 0;
    int strideCycles = 1; ///< sampling stride used

    void merge(const Profile &other);
};

/** Globally enable/disable profiling (relaxed atomic). */
void setProfiling(bool on);
bool profilingEnabled();

/** Sampling stride for StageTimer cycles (default 32). */
void setProfilingStride(int strideCycles);
int profilingStride();

/** Monotonic wall clock in ns for profile instrumentation. */
std::int64_t profileNowNs();

/**
 * Fence-post stage timer for the cosim loop.  On sampled cycles,
 * beginCycle() takes the base reading and each mark(stage) charges
 * the elapsed slice to that stage, so consecutive marks cover the
 * cycle gap-free and loop coverage is ~100% by construction.
 * All methods no-op when constructed with a null profile.
 */
class StageTimer
{
  public:
    StageTimer(Profile *profile, int strideCycles);

    /** @return the profile when this cycle is being sampled. */
    Profile *sampling() const { return samplingNow_ ? profile_ : nullptr; }

    void
    beginCycle()
    {
        if (!profile_)
            return;
        // Wrapping counter instead of a modulo: this runs on every
        // simulated cycle and the 64-bit divide would be the most
        // expensive instruction in the off-stride path.
        samplingNow_ = sinceSample_ == 0;
        if (++sinceSample_ >= stride_)
            sinceSample_ = 0;
        if (!samplingNow_)
            return;
        cycleStart_ = profileNowNs();
        last_ = cycleStart_;
    }

    void
    mark(int stage)
    {
        if (!samplingNow_)
            return;
        const std::int64_t now = profileNowNs();
        profile_->stages[static_cast<std::size_t>(stage)].add(
            static_cast<std::uint64_t>(now - last_));
        last_ = now;
    }

    void
    endCycle()
    {
        if (!profile_)
            return;
        ++profile_->cycles;
        if (!samplingNow_)
            return;
        ++profile_->sampledCycles;
        profile_->loopNs +=
            static_cast<std::uint64_t>(last_ - cycleStart_);
    }

  private:
    Profile *profile_;
    int stride_;
    int sinceSample_ = 0; ///< 0 exactly on sampled cycles
    bool samplingNow_ = false;
    std::int64_t cycleStart_ = 0;
    std::int64_t last_ = 0;
};

/**
 * RAII scope charging its lifetime to one stage of a profile.  The
 * disabled path (profiling off, or null profile) is one relaxed
 * atomic load plus a null store — pinned by BM_ProfileScopeDisabled.
 */
class ProfileScope
{
  public:
    ProfileScope(Profile *profile, int stage)
    {
        if (profile != nullptr && profilingEnabled()) {
            profile_ = profile;
            stage_ = stage;
            start_ = profileNowNs();
        }
    }

    ~ProfileScope()
    {
        if (profile_ != nullptr)
            profile_->stages[static_cast<std::size_t>(stage_)].add(
                static_cast<std::uint64_t>(profileNowNs() -
                                           start_));
    }

    ProfileScope(const ProfileScope &) = delete;
    ProfileScope &operator=(const ProfileScope &) = delete;

  private:
    Profile *profile_ = nullptr;
    int stage_ = 0;
    std::int64_t start_ = 0;
};

/** Serialize as the `profile` stats-JSON section (schema
 *  vsgpu-profile-v2); every line is prefixed with @p indent. */
std::string writeProfileJson(const Profile &profile,
                             const std::string &indent);

/** Strict inverse of writeProfileJson (panics on drift);
 *  writeProfileJson(parseProfileJson(x), indent) == x. */
Profile parseProfileJson(const std::string &text);

/** Render the human-readable stage report: per-stage share of loop
 *  time, circuit sub-phase breakdown, serial-chain critical path,
 *  and loop/wall coverage lines (the wall line names setup and
 *  finalize). */
std::string renderProfileReport(const Profile &profile);

} // namespace vsgpu::obs

#endif // VSGPU_OBS_PROFILE_HH
