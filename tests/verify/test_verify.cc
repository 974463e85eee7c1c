/**
 * @file
 * Tests for the static model verifier (src/verify) and its fail-fast
 * gates in the simulation stack.
 *
 * Fault-injection fixtures: each deliberately broken model must be
 * rejected with its exact diagnostic id — a regression here means a
 * malformed model could reach the transient solver.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hh"
#include "numeric/eigen.hh"
#include "sim/cosim.hh"
#include "sim/model_verify.hh"
#include "verify/verify.hh"
#include "workloads/suite.hh"

namespace vsgpu
{
namespace
{

using verify::Report;
using verify::Severity;

/** Severity of the first finding carrying @p id (must exist). */
Severity
severityOf(const Report &report, std::string_view id)
{
    for (const verify::Diagnostic &d : report.diags)
        if (d.id == id)
            return d.severity;
    ADD_FAILURE() << "no finding with id " << id;
    return Severity::Warning;
}

// ================= ERC fixtures =================

TEST(VerifyErc, FloatingIslandIsRejected)
{
    // Two nodes tied to each other but to nothing else: no DC path
    // to ground anywhere.
    Netlist net;
    const NodeId a = net.allocNode("island_a");
    const NodeId b = net.allocNode("island_b");
    net.addResistor(a, b, Ohms{1.0});

    const Report report = verify::ercAudit(net);
    EXPECT_TRUE(report.has("erc.floating-node"));
    EXPECT_EQ(severityOf(report, "erc.floating-node"),
              Severity::Error);
    EXPECT_TRUE(report.hasErrors());
}

TEST(VerifyErcDeath, BuilderRefusesNegativeCapacitanceUpFront)
{
    Netlist net;
    const NodeId n = net.allocNode("rail");
    net.addResistor(n, Netlist::ground, Ohms{1.0});
    EXPECT_DEATH(
        net.addCapacitor(n, Netlist::ground, Farads{-1e-9}),
        "positive capacitance");
}

TEST(VerifyErc, NegativeCapacitanceIsRejected)
{
    Netlist net;
    const NodeId n = net.allocNode("rail");
    net.addResistor(n, Netlist::ground, Ohms{1.0});
    net.addCapacitor(n, Netlist::ground, Farads{1e-9});
    // The builder refuses nonpositive values up front (test above);
    // corrupt the stored element to prove the audit is an
    // independent second line of defense, not a builder echo.
    const_cast<Netlist::Capacitor &>(net.capacitors().back())
        .farads = -1e-9;

    const Report report = verify::ercAudit(net);
    EXPECT_TRUE(report.has("erc.nonpositive-capacitance"));
    EXPECT_EQ(severityOf(report, "erc.nonpositive-capacitance"),
              Severity::Error);
    EXPECT_TRUE(report.hasErrors());
}

TEST(VerifyErc, WellFormedDividerIsClean)
{
    Netlist net;
    const NodeId supply = net.allocNode("supply");
    const NodeId mid = net.allocNode("mid");
    net.addVoltageSource(supply, Netlist::ground, 1.0_V);
    net.addResistor(supply, mid, Ohms{1.0});
    net.addResistor(mid, Netlist::ground, Ohms{1.0});
    net.addCapacitor(mid, Netlist::ground, Farads{1e-9});

    const Report report = verify::ercAudit(net);
    EXPECT_TRUE(report.diags.empty())
        << verify::formatReport(report);
}

// ================= numeric fixtures =================

namespace
{

/** Parallel LC tank at `tank`, driven through a voltage source:
 *  resonance at 1/(2 pi sqrt(LC)) ~ 159 MHz, damped by R. */
Netlist
tankNetlist(NodeId &tank)
{
    Netlist net;
    const NodeId drive = net.allocNode("drive");
    tank = net.allocNode("tank");
    net.addVoltageSource(drive, Netlist::ground, 1.0_V);
    net.addInductor(drive, tank, Henries{1e-9});
    net.addCapacitor(tank, Netlist::ground, Farads{1e-9});
    net.addResistor(tank, Netlist::ground, Ohms{50.0});
    return net;
}

} // namespace

TEST(VerifyNumeric, OversizedTimestepIsRejected)
{
    NodeId tank = -1;
    const Netlist net = tankNetlist(tank);

    verify::NumericAuditOptions opts;
    opts.probeNode = tank;
    opts.dt = Seconds{1e-6}; // ~160 periods of the pole per step

    const Report report = verify::numericAudit(net, opts);
    EXPECT_TRUE(report.has("num.dt-undersamples-pole"))
        << verify::formatReport(report);
    EXPECT_EQ(severityOf(report, "num.dt-undersamples-pole"),
              Severity::Error);
    EXPECT_TRUE(report.has("num.trapezoidal-ringing"));
    EXPECT_TRUE(report.hasErrors());
}

TEST(VerifyNumeric, AdequateTimestepPasses)
{
    NodeId tank = -1;
    const Netlist net = tankNetlist(tank);

    verify::NumericAuditOptions opts;
    opts.probeNode = tank;
    opts.dt = Seconds{1e-10}; // ~63 samples per resonance period

    const Report report = verify::numericAudit(net, opts);
    EXPECT_FALSE(report.has("num.dt-undersamples-pole"))
        << verify::formatReport(report);
    EXPECT_FALSE(report.hasErrors());
}

TEST(VerifyNumeric, MonotonicImpedanceSkipsTheResonanceCheck)
{
    // A pure RC rail has no interior impedance peak: the scan must
    // not invent a "resonance" at a scan edge (the bug class this
    // guards against is the package-inductance rise at the high edge
    // being mistaken for a pole).
    Netlist net;
    const NodeId n = net.allocNode("rc");
    net.addResistor(n, Netlist::ground, Ohms{1.0});
    net.addCapacitor(n, Netlist::ground, Farads{1e-9});

    verify::NumericAuditOptions opts;
    opts.probeNode = n;
    opts.dt = Seconds{1.0}; // absurd, but there is no pole to sample

    const Report report = verify::numericAudit(net, opts);
    EXPECT_FALSE(report.has("num.dt-undersamples-pole"))
        << verify::formatReport(report);
    EXPECT_FALSE(report.has("num.trapezoidal-ringing"));
}

// ================= control fixtures =================

TEST(VerifyControl, GainOutsideJuryRegionIsFlagged)
{
    verify::ControlAuditInputs in;
    in.controller.gainWattsPerVolt = WattsPerVolt{200.0};
    in.controller.integralGainWattsPerVolt = WattsPerVolt{20.0};

    const Report report = verify::controlAudit(in);
    EXPECT_TRUE(report.has("ctl.jury-unstable"))
        << verify::formatReport(report);
    EXPECT_EQ(severityOf(report, "ctl.jury-unstable"),
              Severity::Warning);
}

TEST(VerifyControl, SmallGainIsJuryStable)
{
    verify::ControlAuditInputs in;
    in.controller.gainWattsPerVolt = WattsPerVolt{0.2};
    in.controller.integralGainWattsPerVolt = WattsPerVolt{};

    const Report report = verify::controlAudit(in);
    EXPECT_FALSE(report.has("ctl.jury-unstable"))
        << verify::formatReport(report);
    EXPECT_FALSE(report.hasErrors());
}

TEST(VerifyControl, CoarseDetectorResolutionIsRejected)
{
    // Resolution 0.5 V against a 0.1 V nominal-to-threshold band:
    // the trigger condition sits inside one quantization step.
    verify::ControlAuditInputs in;
    in.controller.detector.resolutionVolts = Volts{0.5};

    const Report report = verify::controlAudit(in);
    EXPECT_TRUE(report.has("ctl.deadband"))
        << verify::formatReport(report);
    EXPECT_EQ(severityOf(report, "ctl.deadband"), Severity::Error);
    EXPECT_TRUE(report.hasErrors());
}

TEST(VerifyControl, PathologicalLatencyShortCircuitsAnalytically)
{
    // A 2^30-cycle loop latency must not build a degree-10^8 Jury
    // polynomial; the audit answers from the closed-form bound.
    verify::ControlAuditInputs in;
    in.controller.loopLatency = 1u << 30;

    const Report report = verify::controlAudit(in);
    EXPECT_TRUE(report.has("ctl.jury-unstable"))
        << verify::formatReport(report);
    EXPECT_FALSE(report.hasErrors());
}

// ================= Jury vs companion eigenvalues =================

namespace
{

/** Spectral radius of the companion matrix of the polynomial. */
double
companionRadius(const std::vector<double> &coeffs)
{
    const std::size_t n = coeffs.size() - 1;
    Matrix companion(n, n);
    for (std::size_t j = 0; j < n; ++j)
        companion(0, j) = -coeffs[j + 1] / coeffs[0];
    for (std::size_t i = 1; i < n; ++i)
        companion(i, i - 1) = 1.0;
    return spectralRadius(companion);
}

} // namespace

TEST(VerifyJury, MatchesCompanionMatrixEigenvalues)
{
    const std::vector<std::vector<double>> polys = {
        {1.0, -0.5, 0.06},        // roots 0.2, 0.3
        {1.0, -1.5, 0.56},        // roots 0.7, 0.8
        {1.0, -2.5, 1.0},         // roots 2.0, 0.5
        {1.0, 0.0, 0.81},         // roots +-0.9i
        {1.0, 0.0, 1.21},         // roots +-1.1i
        {1.0, -1.0, 0.0, 0.3},    // delayed-integrator shape, small g
        {1.0, -1.0, 0.0, 0.9},    // delayed-integrator shape, large g
        {1.0, -2.0, 1.0, 0.2, 0.1},  // PI shape
        {1.0, -2.0, 1.0, 1.5, 0.5},  // PI shape, overdriven
        {2.0, -1.0, 0.12},        // non-monic, roots 0.2, 0.3
    };
    for (const auto &poly : polys) {
        const double radius = companionRadius(poly);
        // Skip near-marginal cases where the two methods could
        // legitimately disagree on strictness.
        if (std::abs(radius - 1.0) < 1e-9)
            continue;
        EXPECT_EQ(verify::juryStable(poly), radius < 1.0)
            << "radius " << radius << " for poly "
            << ::testing::PrintToString(poly);
    }
}

// ================= gates =================

using VerifyGateDeath = ::testing::Test;

TEST(VerifyGateDeath, ControlGateRejectsCoarseDetector)
{
    setLogQuiet(true);
    CosimConfig cfg;
    cfg.pds = defaultPds(PdsKind::VsCrossLayer);
    cfg.pds.controller.detector.resolutionVolts = Volts{0.5};
    cfg.maxCycles = 2000;
    EXPECT_DEATH(
        {
            CoSimulator sim(cfg);
            sim.run(WorkloadFactory(uniformWorkload(100)), 0.9);
        },
        "ctl.deadband");
}

TEST(VerifyGate, NoVerifyEscapeHatchBypassesTheGate)
{
    setLogQuiet(true);
    CosimConfig cfg;
    cfg.pds = defaultPds(PdsKind::VsCrossLayer);
    cfg.pds.controller.detector.resolutionVolts = Volts{0.5};
    cfg.verifyModel = false;
    cfg.maxCycles = 2000;
    CoSimulator sim(cfg);
    const CosimResult r =
        sim.run(WorkloadFactory(uniformWorkload(100)), 0.9);
    EXPECT_GT(r.cycles, 0u);
}

// ================= whole-config audits =================

TEST(VerifyModel, DefaultConfigsProduceNoErrors)
{
    for (PdsKind kind :
         {PdsKind::ConventionalVrm, PdsKind::SingleLayerIvr,
          PdsKind::VsCircuitOnly, PdsKind::VsCrossLayer}) {
        CosimConfig cfg;
        cfg.pds = defaultPds(kind);
        const Report report = verifyModel(cfg);
        EXPECT_FALSE(report.hasErrors())
            << pdsName(kind) << ":\n"
            << verify::formatReport(report);
    }
}

TEST(VerifyModel, CrossLayerDefaultCarriesTheFrozenJuryWarning)
{
    // The paper's operating point exceeds the linear Jury bound by
    // design (threshold-gated loop); the audit must keep saying so.
    CosimConfig cfg;
    cfg.pds = defaultPds(PdsKind::VsCrossLayer);
    const Report report = verifyModel(cfg);
    EXPECT_TRUE(report.has("ctl.jury-unstable"))
        << verify::formatReport(report);
}

// No scenario closes the loop through a Table II detector, so their
// audits are held here: each leaves only the paper-faithful Jury
// warning.
class VerifyDetector : public ::testing::TestWithParam<DetectorKind>
{
};

TEST_P(VerifyDetector, CrossLayerCarriesOnlyTheJuryWarning)
{
    CosimConfig cfg;
    cfg.pds = defaultPds(PdsKind::VsCrossLayer);
    cfg.pds.controller.detector = detectorSpec(GetParam());
    const Report report = verifyModel(cfg);
    ASSERT_EQ(report.diags.size(), 1u) << verify::formatReport(report);
    EXPECT_EQ(report.diags[0].id, "ctl.jury-unstable");
}

std::string
detectorName(const ::testing::TestParamInfo<DetectorKind> &info)
{
    const char *names[] = {"Oddd", "Cpm", "Adc"};
    return names[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(Detectors, VerifyDetector,
                         ::testing::Values(DetectorKind::Oddd,
                                           DetectorKind::Cpm,
                                           DetectorKind::Adc),
                         detectorName);

TEST(VerifyModel, SetupKeepsItsAuditOnlyWhenVerifying)
{
    CosimConfig cfg;
    cfg.pds = defaultPds(PdsKind::VsCircuitOnly);
    cfg.pds.ivrAreaFraction = 0.2;
    const Report report = buildPdsSetup(cfg)->audit.report;
    ASSERT_EQ(report.diags.size(), 1u) << verify::formatReport(report);
    EXPECT_EQ(report.diags[0].id, "erc.crivr-undersized");
    cfg.verifyModel = false;
    EXPECT_TRUE(buildPdsSetup(cfg)->audit.report.diags.empty());
}

} // namespace
} // namespace vsgpu
