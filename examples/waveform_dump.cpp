/**
 * @file
 * Dump PDN waveforms: reproduce the paper's Fig. 9 worst-case event
 * at circuit-level resolution and write the boundary-rail and
 * layer-voltage waveforms as VCD (GTKWave) and CSV files.
 *
 * Usage:
 *   ./build/examples/waveform_dump [out-prefix]
 *
 * Writes <prefix>.vcd and <prefix>.csv (default prefix: worst_case).
 */

#include <fstream>
#include <iostream>
#include <string>

#include "circuit/wave_writer.hh"
#include "ivr/cr_ivr.hh"
#include "pdn/vs_pdn.hh"

using namespace vsgpu;

int
main(int argc, char **argv)
{
    const std::string prefix = argc > 1 ? argv[1] : "worst_case";

    // 0.2x-area CR-IVR voltage-stacked PDN.
    const CrIvrDesign design(0.2 * config::gpuDieArea);
    VsPdnOptions options;
    options.crIvrEffOhms = design.effOhmsPerCell();
    options.crIvrFlyCapF = design.flyCapPerCell();
    VsPdn pdn(options);

    TransientSim sim(pdn.netlist(), config::clockPeriod.raw());
    WaveWriter wave(4);
    // Record each layer voltage of column 0 and the boundary rails.
    for (int layer = 0; layer < pdn.layers(); ++layer) {
        wave.addSignal(sim, "layer" + std::to_string(layer) + "_col0",
                       pdn.smTopNode(pdn.smIndexAt(layer, 0)),
                       pdn.smBottomNode(pdn.smIndexAt(layer, 0)));
    }
    for (int level = 0; level <= pdn.layers(); ++level)
        wave.addSignal(sim, "rail_b" + std::to_string(level),
                       pdn.boundaryNode(level, 0));

    // Balanced nominal load, then halt layer 0 at 2 us.
    const double amps = 6.0;
    for (int sm = 0; sm < pdn.numSms(); ++sm)
        sim.setCurrent(pdn.smCurrentSource(sm), amps);
    sim.initToDc();

    const Cycle haltAt =
        static_cast<Cycle>(2.0_us / config::clockPeriod);
    const Cycle total =
        static_cast<Cycle>(5.0_us / config::clockPeriod);
    for (Cycle cycle = 0; cycle < total; ++cycle) {
        if (cycle == haltAt) {
            for (int col = 0; col < pdn.columns(); ++col)
                sim.setCurrent(
                    pdn.smCurrentSource(pdn.smIndexAt(0, col)),
                    -0.8); // halted SMs: leakage only, load R cancels
        }
        sim.step();
        wave.sample(sim);
    }

    std::ofstream vcd(prefix + ".vcd");
    wave.writeVcd(vcd, "vs_pdn");
    std::ofstream csv(prefix + ".csv");
    wave.writeCsv(csv);

    std::cout << "wrote " << wave.numSamples() << " samples x "
              << wave.numSignals() << " signals to " << prefix
              << ".vcd / " << prefix << ".csv\n"
              << "open the VCD in GTKWave to see the halted-layer "
                 "imbalance event at 2 us.\n";

    // Quick textual summary.
    double minLayer = 1e9, maxLayer = 0.0;
    for (std::size_t s = 0; s < wave.numSamples(); ++s) {
        for (int layer = 0; layer < pdn.layers(); ++layer) {
            const double v =
                wave.value(s, static_cast<std::size_t>(layer));
            minLayer = std::min(minLayer, v);
            maxLayer = std::max(maxLayer, v);
        }
    }
    std::cout << "layer-voltage excursion: " << minLayer << " V .. "
              << maxLayer << " V\n";
    return 0;
}
