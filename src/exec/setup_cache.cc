#include "exec/setup_cache.hh"

#include <cstring>
#include <utility>

#include "common/check.hh"
#include "obs/trace.hh"

namespace vsgpu::exec
{

template <typename V, typename Build>
std::shared_ptr<const V>
SetupCache::getOrBuild(
    std::map<std::string,
             std::shared_future<std::shared_ptr<const V>>> &map,
    const std::string &key, Build &&build, bool *hit)
{
    std::promise<std::shared_ptr<const V>> promise;
    std::shared_future<std::shared_ptr<const V>> future;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = map.find(key);
        if (it != map.end()) {
            *hit = true;
            future = it->second;
        } else {
            *hit = false;
            future = promise.get_future().share();
            map.emplace(key, future);
        }
    }
    if (*hit)
        return future.get();

    // Build outside the lock so distinct keys build concurrently.
    try {
        promise.set_value(build());
    } catch (...) {
        promise.set_exception(std::current_exception());
        std::lock_guard<std::mutex> lock(mutex_);
        map.erase(key); // let a later caller retry
    }
    return future.get();
}

std::shared_ptr<const PdsSetup>
SetupCache::setupFor(const CosimConfig &cfg)
{
    bool hit = false;
    auto setup = getOrBuild(
        setups_, pdsSetupKey(cfg),
        [&cfg] {
            VSGPU_TRACE_SCOPE(obs::CatPhase, "setup.build_pds");
            return buildPdsSetup(cfg);
        },
        &hit);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (hit)
            ++setupHits_;
        else
            ++setupsBuilt_;
    }
    return setup;
}

CosimConfig
SetupCache::withSetup(const CosimConfig &cfg)
{
    CosimConfig out = cfg;
    out.setup = setupFor(cfg);
    return out;
}

std::shared_ptr<const std::vector<ImpedancePoint>>
SetupCache::impedanceSweep(const CosimConfig &cfg,
                           const std::vector<Hertz> &freqs)
{
    std::shared_ptr<const PdsSetup> setup = setupFor(cfg);
    panicIfNot(setup->stacked && setup->vs,
               "impedance sweep requires a voltage-stacked PDS");

    std::string key = setup->key;
    for (Hertz f : freqs) {
        const double hz = f.raw(); // vsgpu-lint: raw-escape-ok(cache-key byte serialization)
        char bytes[sizeof(double)];
        std::memcpy(bytes, &hz, sizeof(double));
        key.append(bytes, sizeof(double));
    }

    bool hit = false;
    return getOrBuild(
        impedances_, key,
        [&] {
            VSGPU_TRACE_SCOPE(obs::CatPhase, "setup.ac_scan");
            ImpedanceAnalyzer analyzer(*setup->vs);
            return std::make_shared<
                const std::vector<ImpedancePoint>>(
                analyzer.sweep(freqs));
        },
        &hit);
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

std::vector<std::string>
SetupCache::cachedKeys() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> keys;
    keys.reserve(setups_.size());
    for (const auto &entry : setups_)
        keys.push_back(entry.first);
    return keys;
}

} // namespace vsgpu::exec
