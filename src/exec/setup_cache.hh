/**
 * @file
 * Thread-safe memoization of per-configuration electrical setup.
 *
 * A sweep typically runs many workload / controller variations
 * against a handful of electrical configurations.  The expensive,
 * workload-independent part of each run — building the PDN netlist,
 * sizing the CR-IVR and LU-solving the DC operating point — depends
 * only on the electrical configuration, so the cache computes it
 * once per distinct configuration and hands every run a shared
 * immutable PdsSetup.
 *
 * Concurrency contract: the first caller of a key builds the value;
 * concurrent callers of the same key block on a shared_future until
 * it is ready; callers of distinct keys build concurrently (the map
 * mutex is only held to look up / insert the future, never during
 * the build).  Results are bitwise-identical to building privately,
 * so cached and uncached sweeps produce identical metrics.
 */

#ifndef VSGPU_EXEC_SETUP_CACHE_HH
#define VSGPU_EXEC_SETUP_CACHE_HH

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/cosim.hh"
#include "sim/pds_setup.hh"

namespace vsgpu::exec
{

/**
 * Memoizes buildPdsSetup() by pdsSetupKey().  Safe to share across
 * all worker threads of a sweep; typically one cache lives for the
 * duration of one bench / test binary.
 */
class SetupCache
{
  public:
    SetupCache() = default;
    SetupCache(const SetupCache &) = delete;
    SetupCache &operator=(const SetupCache &) = delete;

    /**
     * @return the shared setup for cfg's electrical configuration,
     * building it on first use.  Rethrows the build error (and
     * forgets the entry) if construction failed.
     */
    std::shared_ptr<const PdsSetup> setupFor(const CosimConfig &cfg);

    /**
     * Convenience: copy cfg with its setup field pointing at the
     * cached shared setup.
     */
    CosimConfig withSetup(const CosimConfig &cfg);

    /** @return number of setups actually built (not cache hits). */
    int setupsBuilt() const;

    /** @return number of setupFor() calls answered from the cache. */
    int setupHits() const;

    /**
     * @return every setup this cache has built, in key order
     * (deterministic).  Their keys feed the run-manifest config
     * fingerprint, their audits the golden replay's findings check.
     * Call it once the sweep is done: it waits for a running build.
     */
    std::vector<std::shared_ptr<const PdsSetup>> cachedSetups() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string,
             std::shared_future<std::shared_ptr<const PdsSetup>>>
        setups_;
    int setupsBuilt_ = 0;
    int setupHits_ = 0;
};

} // namespace vsgpu::exec

#endif // VSGPU_EXEC_SETUP_CACHE_HH
