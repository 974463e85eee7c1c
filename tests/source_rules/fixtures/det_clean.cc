// Source-rule fixture: determinism-clean patterns — explicit seeds,
// ordered containers, and a waived wall-clock read.
#include <chrono>
#include <cstdint>
#include <map>

std::uint64_t
splitSeed(std::uint64_t base, std::uint64_t index)
{
    return base ^ (index * 0x9E3779B97F4A7C15ULL);
}

double
orderedSum(const std::map<int, double> &weights)
{
    double total = 0.0;
    for (const auto &entry : weights)
        total += entry.second;
    return total;
}

long
benchTimestamp()
{
    // nondet-ok(fixture: logged only, never simulated)
    return std::chrono::steady_clock::now().time_since_epoch().count();
}
