/**
 * @file
 * Unit tests for the VCD/CSV waveform writer.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "circuit/wave_writer.hh"
#include "common/logging.hh"

namespace vsgpu
{
namespace
{

/** A divider with a current source so voltages move. */
struct Rig
{
    Netlist net;
    NodeId a = 0;
    NodeId b = 0;
    int isrc = -1;

    Rig()
    {
        a = net.allocNode("a");
        b = net.allocNode("b");
        net.addVoltageSource(a, Netlist::ground, Volts{2.0});
        net.addResistor(a, b, Ohms{1.0});
        net.addResistor(b, Netlist::ground, Ohms{1.0});
        isrc = net.addCurrentSource(b, Netlist::ground);
    }
};

TEST(WaveWriter, RecordsEverySampleByDefault)
{
    Rig rig;
    TransientSim sim(rig.net, 1e-9);
    WaveWriter wave;
    wave.addSignal(sim, "vb", rig.b);
    for (int i = 0; i < 10; ++i) {
        sim.step();
        wave.sample(sim);
    }
    EXPECT_EQ(wave.numSamples(), 10u);
    EXPECT_EQ(wave.numSignals(), 1u);
    EXPECT_NEAR(wave.value(9, 0), 1.0, 1e-9);
    EXPECT_NEAR(wave.timeAt(9), 10e-9, 1e-15);
}

TEST(WaveWriter, StrideDecimates)
{
    Rig rig;
    TransientSim sim(rig.net, 1e-9);
    WaveWriter wave(4);
    wave.addSignal(sim, "vb", rig.b);
    for (int i = 0; i < 16; ++i) {
        sim.step();
        wave.sample(sim);
    }
    EXPECT_EQ(wave.numSamples(), 4u);
}

TEST(WaveWriter, DifferentialSignal)
{
    Rig rig;
    TransientSim sim(rig.net, 1e-9);
    WaveWriter wave;
    wave.addSignal(sim, "vab", rig.a, rig.b);
    sim.step();
    wave.sample(sim);
    EXPECT_NEAR(wave.value(0, 0), 1.0, 1e-9);
}

TEST(WaveWriter, TracksChangingValues)
{
    Rig rig;
    TransientSim sim(rig.net, 1e-9);
    WaveWriter wave;
    wave.addSignal(sim, "vb", rig.b);
    sim.step();
    wave.sample(sim);
    sim.setCurrent(rig.isrc, 1.0); // pulls b down by 0.5 V
    sim.step();
    wave.sample(sim);
    EXPECT_NEAR(wave.value(0, 0), 1.0, 1e-9);
    EXPECT_NEAR(wave.value(1, 0), 0.5, 1e-9);
}

TEST(WaveWriter, VcdOutputWellFormed)
{
    Rig rig;
    TransientSim sim(rig.net, 1e-9);
    WaveWriter wave;
    wave.addSignal(sim, "rail b", rig.b);
    wave.addSignal(sim, "v(a,b)", rig.a, rig.b);
    for (int i = 0; i < 3; ++i) {
        sim.step();
        wave.sample(sim);
    }
    std::ostringstream oss;
    wave.writeVcd(oss, "pdn");
    const std::string vcd = oss.str();
    EXPECT_NE(vcd.find("$timescale 1ps $end"), std::string::npos);
    EXPECT_NE(vcd.find("$var real 64 ! rail_b $end"),
              std::string::npos);
    EXPECT_NE(vcd.find("$var real 64 \" v_a_b_ $end"),
              std::string::npos);
    EXPECT_NE(vcd.find("#1000"), std::string::npos); // 1 ns = 1000 ps
    EXPECT_NE(vcd.find("r1 !"), std::string::npos);
}

TEST(WaveWriter, CsvOutputWellFormed)
{
    Rig rig;
    TransientSim sim(rig.net, 1e-9);
    WaveWriter wave;
    wave.addSignal(sim, "vb", rig.b);
    sim.step();
    wave.sample(sim);
    std::ostringstream oss;
    wave.writeCsv(oss);
    EXPECT_EQ(oss.str().substr(0, 12), "time_s,vb\n1e");
}

TEST(WaveWriter, ClearKeepsSignals)
{
    Rig rig;
    TransientSim sim(rig.net, 1e-9);
    WaveWriter wave;
    wave.addSignal(sim, "vb", rig.b);
    sim.step();
    wave.sample(sim);
    wave.clear();
    EXPECT_EQ(wave.numSamples(), 0u);
    EXPECT_EQ(wave.numSignals(), 1u);
    sim.step();
    wave.sample(sim);
    EXPECT_EQ(wave.numSamples(), 1u);
}

TEST(WaveWriter, OutputByteIdenticalAcrossSolvers)
{
    // The writer streams straight from the solver's state vector, and
    // the sparse and dense backends are bitwise-identical, so the
    // emitted files must match byte for byte.
    std::ostringstream vcd[2];
    std::ostringstream csv[2];
    const SolverKind kinds[2] = {SolverKind::Sparse,
                                 SolverKind::Dense};
    for (int k = 0; k < 2; ++k) {
        Rig rig;
        TransientSim sim(rig.net, 1e-9, kinds[k]);
        sim.initToDc();
        WaveWriter wave;
        wave.addSignal(sim, "vb", rig.b);
        wave.addSignal(sim, "vab", rig.a, rig.b);
        for (int i = 0; i < 50; ++i) {
            sim.setCurrent(rig.isrc, 0.1 * (i % 7));
            sim.step();
            wave.sample(sim);
        }
        wave.writeVcd(vcd[k], "pdn");
        wave.writeCsv(csv[k]);
    }
    EXPECT_EQ(vcd[0].str(), vcd[1].str());
    EXPECT_EQ(csv[0].str(), csv[1].str());
}

TEST(WaveWriter, CaptureOutlivesSimulator)
{
    WaveWriter wave;
    {
        Rig rig;
        TransientSim sim(rig.net, 1e-9);
        wave.addSignal(sim, "vb", rig.b);
        sim.step();
        wave.sample(sim);
    }
    std::ostringstream csv;
    wave.writeCsv(csv);
    EXPECT_EQ(wave.numSamples(), 1u);
    EXPECT_NEAR(wave.value(0, 0), 1.0, 1e-9);
    EXPECT_NE(csv.str().find("time_s,vb"), std::string::npos);
}

TEST(WaveWriterDeath, LateRegistrationPanics)
{
    setLogQuiet(true);
    Rig rig;
    TransientSim sim(rig.net, 1e-9);
    WaveWriter wave;
    wave.addSignal(sim, "vb", rig.b);
    sim.step();
    wave.sample(sim);
    EXPECT_DEATH(wave.addSignal(sim, "late", rig.a), "");
}

TEST(WaveWriterDeath, BadIndicesPanic)
{
    setLogQuiet(true);
    Rig rig;
    TransientSim sim(rig.net, 1e-9);
    WaveWriter wave;
    wave.addSignal(sim, "vb", rig.b);
    EXPECT_DEATH(wave.value(0, 0), "");
    EXPECT_DEATH(wave.timeAt(0), "");
}

TEST(VcdSafeNameTest, Sanitization)
{
    EXPECT_EQ(vcdSafeName("abc_123"), "abc_123");
    EXPECT_EQ(vcdSafeName("v(a,b)"), "v_a_b_");
    EXPECT_EQ(vcdSafeName("3volts"), "s3volts");
    EXPECT_EQ(vcdSafeName(""), "s");
}

} // namespace
} // namespace vsgpu
