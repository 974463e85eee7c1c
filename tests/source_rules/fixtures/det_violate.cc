// Source-rule fixture: each function below trips a determinism
// rule.  tests/source_rules/test_source_rules.cc counts the findings.
#include <chrono>
#include <cstdlib>
#include <unordered_map>

int
jitterSeed()
{
    std::srand(42);
    return std::rand();
}

long
wallClockNs()
{
    return std::chrono::steady_clock::now().time_since_epoch().count();
}

double
hashOrderSum()
{
    std::unordered_map<int, double> weights;
    weights[1] = 0.5;
    double total = 0.0;
    for (const auto &entry : weights)
        total += entry.second;
    return total;
}
