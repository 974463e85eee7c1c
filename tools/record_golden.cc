/**
 * @file
 * Records golden summaries for the bench scenarios.
 *
 * Runs every registered scenario (bench/scenarios/) at
 * scen::goldenScale and writes each Summary as
 * tests/golden/<scenario>.json.  The tier-1 test_golden_benches suite
 * runs the scenarios at the same scale and fails unless each summary
 * comes back byte for byte — so refresh the goldens (and review the
 * diff!) whenever a change intentionally moves the
 * paper-reproduction numbers:
 *
 *     build/tools/record_golden          # rewrite all goldens
 *     build/tools/record_golden fig15_dfs  # just one scenario
 *
 * Flags: --out DIR (default: the in-tree tests/golden), --jobs N.
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <streambuf>
#include <string>
#include <vector>

#include "bench/scenarios/scenarios.hh"
#include "common/logging.hh"

using namespace vsgpu;

namespace
{

/** Discarding sink for the scenarios' human-readable tables. */
std::ostream &
nullStream()
{
    static struct NullBuf : std::streambuf
    {
        int
        overflow(int c) override
        {
            return c;
        }
    } buf;
    static std::ostream os(&buf);
    return os;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string outDir = VSGPU_GOLDEN_DIR;
    scen::ScenarioOptions opts;
    opts.scale = scen::goldenScale;
    std::vector<std::string> only;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--out" && hasValue) {
            outDir = argv[++i];
        } else if (arg == "--jobs" && hasValue) {
            opts.jobs = std::atoi(argv[++i]);
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: " << argv[0]
                      << " [--out DIR] [--jobs N] [scenario...]\n";
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "unknown argument: " << arg
                      << " (try --help)\n";
            return 1;
        } else {
            only.push_back(arg);
        }
    }

    for (const std::string &name : only) {
        if (scen::findScenario(name) == nullptr) {
            std::cerr << "unknown scenario: " << name << "\n";
            return 1;
        }
    }

    setLogQuiet(true);
    int recorded = 0;
    for (const scen::ScenarioInfo &info : scen::allScenarios()) {
        if (!only.empty() &&
            std::find(only.begin(), only.end(), info.name) ==
                only.end())
            continue;
        const std::string path =
            outDir + "/" + info.name + ".json";
        std::cout << "recording " << info.name << " -> " << path
                  << " ..." << std::flush;
        const scen::Summary summary =
            scen::runScenario(info, opts, nullStream());
        std::ofstream out(path);
        if (!out.good()) {
            std::cerr << "\ncannot write " << path << "\n";
            return 1;
        }
        scen::writeSummaryJson(summary, out);
        std::cout << " " << summary.metrics.size() << " metrics\n";
        ++recorded;
    }
    std::cout << recorded << " golden summaries written to " << outDir
              << "\n";
    return 0;
}
