#include "exec/setup_cache.hh"

#include "obs/trace.hh"

namespace vsgpu::exec
{

std::shared_ptr<const PdsSetup>
SetupCache::setupFor(const CosimConfig &cfg)
{
    const std::string key = pdsSetupKey(cfg);
    std::promise<std::shared_ptr<const PdsSetup>> promise;
    std::shared_future<std::shared_ptr<const PdsSetup>> future;
    bool hit;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = setups_.find(key);
        hit = it != setups_.end();
        if (hit) {
            future = it->second;
        } else {
            future = promise.get_future().share();
            setups_.emplace(key, future);
        }
    }
    if (!hit) {
        // Build outside the lock so distinct keys build concurrently.
        try {
            VSGPU_TRACE_SCOPE(obs::CatPhase, "setup.build_pds");
            promise.set_value(buildPdsSetup(cfg));
        } catch (...) {
            promise.set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(mutex_);
            setups_.erase(key); // let a later caller retry
        }
    }
    std::shared_ptr<const PdsSetup> setup = future.get();
    std::lock_guard<std::mutex> lock(mutex_);
    if (hit)
        ++setupHits_;
    else
        ++setupsBuilt_;
    return setup;
}

CosimConfig
SetupCache::withSetup(const CosimConfig &cfg)
{
    CosimConfig out = cfg;
    out.setup = setupFor(cfg);
    return out;
}

int
SetupCache::setupsBuilt() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return setupsBuilt_;
}

int
SetupCache::setupHits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return setupHits_;
}

std::vector<std::shared_ptr<const PdsSetup>>
SetupCache::cachedSetups() const
{
    std::vector<std::shared_future<std::shared_ptr<const PdsSetup>>>
        futures;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &entry : setups_)
            futures.push_back(entry.second);
    }
    // Wait outside the lock so a build still running holds up no
    // other caller.
    std::vector<std::shared_ptr<const PdsSetup>> setups;
    for (const auto &future : futures)
        setups.push_back(future.get());
    return setups;
}

} // namespace vsgpu::exec
