/**
 * @file
 * The main() of every bench binary: compiled once per registered
 * scenario with VSGPU_SCENARIO set to its name (bench/CMakeLists.txt).
 * Flags are scenarioMain()'s (--jobs, --scale, --json, --stats-out,
 * ...; see --help).
 */

#include "bench/scenarios/scenarios.hh"

int
main(int argc, char **argv)
{
    return vsgpu::scen::scenarioMain(VSGPU_SCENARIO, argc, argv);
}
