/**
 * @file
 * Differential tests of the sparse MNA engine against the dense one.
 *
 * Two layers of evidence back the `--solver dense` escape hatch and
 * the sparse default:
 *
 *  - Property-based: randomized RLC/switch/equalizer/source netlists
 *    from seeded generators, solved by both backends across DC, AC
 *    and transient analyses, must agree within a tight tolerance.
 *  - Pivot rule: hand-built matrices whose pivot columns tie on
 *    |value| must pick the dense LuFactor's pivot, bit for bit.
 *  - Exact bits: on the eight golden configurations (the four
 *    Table III PDS presets plus the four fig09 worst-transient
 *    variants) the two backends must agree bit for bit — DC
 *    operating point, a long transient run with a gating event, and
 *    an AC sweep.  This is the contract that lets the golden traces
 *    stay byte-identical when the default solver changed.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/ac.hh"
#include "circuit/solver.hh"
#include "circuit/transient.hh"
#include "common/random.hh"
#include "numeric/sparse.hh"
#include "sim/pds_setup.hh"
#include "verify/verify.hh"

namespace vsgpu
{
namespace
{

/** Bitwise equality of two double vectors (memcmp, so -0.0 != +0.0
 *  and any NaN mismatch fails loudly). */
::testing::AssertionResult
bitsEqual(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << "size " << a.size() << " vs " << b.size();
    if (a.empty() ||
        std::memcmp(a.data(), b.data(),
                    a.size() * sizeof(double)) == 0)
        return ::testing::AssertionSuccess();
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0)
            return ::testing::AssertionFailure()
                   << "first difference at [" << i << "]: " << a[i]
                   << " vs " << b[i];
    return ::testing::AssertionFailure() << "unreachable";
}

::testing::AssertionResult
bitsEqual(const std::vector<Complex> &a, const std::vector<Complex> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << "size " << a.size() << " vs " << b.size();
    if (a.empty() ||
        std::memcmp(a.data(), b.data(),
                    a.size() * sizeof(Complex)) == 0)
        return ::testing::AssertionSuccess();
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::memcmp(&a[i], &b[i], sizeof(Complex)) != 0)
            return ::testing::AssertionFailure()
                   << "first difference at [" << i << "]";
    return ::testing::AssertionFailure() << "unreachable";
}

/** |a - b| <= tol * max(1, |a|, |b|), element-wise. */
void
expectClose(const std::vector<double> &a, const std::vector<double> &b,
            double tol)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double scale =
            std::max({1.0, std::abs(a[i]), std::abs(b[i])});
        EXPECT_LE(std::abs(a[i] - b[i]), tol * scale)
            << "element " << i << ": " << a[i] << " vs " << b[i];
    }
}

/**
 * A random netlist that is solvable by construction: every node
 * reaches ground through a resistive spanning tree, voltage sources
 * hang off dedicated fresh nodes (no ideal-source loops), and all
 * element values are drawn from well-conditioned ranges.
 */
struct RandomCircuit
{
    Netlist net;
    std::vector<NodeId> nodes;
    int numSwitches = 0;
    int numSources = 0;
};

RandomCircuit
randomCircuit(std::uint64_t seed)
{
    Rng rng(seed);
    RandomCircuit rc;
    const int numNodes = rng.uniformInt(3, 24);
    for (int i = 0; i < numNodes; ++i)
        rc.nodes.push_back(rc.net.allocNode());
    const auto anyNode = [&]() {
        // Includes ground.
        const int i = rng.uniformInt(0, numNodes);
        return i == 0 ? Netlist::ground
                      : rc.nodes[static_cast<std::size_t>(i - 1)];
    };

    // Resistive spanning tree to ground keeps DC nonsingular.
    for (int i = 0; i < numNodes; ++i) {
        const NodeId parent =
            i == 0 ? Netlist::ground
                   : rc.nodes[static_cast<std::size_t>(
                         rng.uniformInt(0, i - 1))];
        rc.net.addResistor(rc.nodes[static_cast<std::size_t>(i)],
                           parent, Ohms{rng.uniform(0.01, 10.0)});
    }

    const int extraR = rng.uniformInt(0, numNodes);
    for (int i = 0; i < extraR; ++i)
        rc.net.addResistor(anyNode(), anyNode(),
                           Ohms{rng.uniform(0.1, 100.0)});

    const int caps = rng.uniformInt(1, numNodes);
    for (int i = 0; i < caps; ++i)
        rc.net.addCapacitor(anyNode(), anyNode(),
                            Farads{rng.uniform(1e-9, 1e-6)},
                            Volts{rng.uniform(0.0, 1.0)});

    const int inds = rng.uniformInt(1, numNodes / 2 + 1);
    for (int i = 0; i < inds; ++i)
        rc.net.addInductor(anyNode(), anyNode(),
                           Henries{rng.uniform(1e-9, 1e-6)},
                           Amps{rng.uniform(-1.0, 1.0)});

    rc.numSwitches = rng.uniformInt(0, 4);
    for (int i = 0; i < rc.numSwitches; ++i)
        rc.net.addSwitch(anyNode(), anyNode(),
                         Ohms{rng.uniform(1e-3, 1e-2)},
                         Ohms{rng.uniform(1e6, 1e9)},
                         rng.uniform() < 0.5);

    const int eqs = rng.uniformInt(0, 3);
    for (int i = 0; i < eqs; ++i)
        rc.net.addEqualizer(anyNode(), anyNode(), anyNode(),
                            Ohms{rng.uniform(0.05, 1.0)});

    // A voltage source on its own fresh node, tied into the tree
    // through a resistor, can never form an ideal-source loop.
    const int vsrcs = rng.uniformInt(0, 2);
    for (int i = 0; i < vsrcs; ++i) {
        const NodeId tap = rc.net.allocNode();
        rc.net.addVoltageSource(tap, Netlist::ground,
                                Volts{rng.uniform(0.5, 2.0)});
        rc.net.addResistor(tap, anyNode(),
                           Ohms{rng.uniform(0.01, 1.0)});
    }

    rc.numSources = rng.uniformInt(1, 4);
    for (int i = 0; i < rc.numSources; ++i)
        rc.net.addCurrentSource(anyNode(), anyNode(),
                                Amps{rng.uniform(-2.0, 2.0)});
    return rc;
}

constexpr double kRandomTol = 1e-9;

class SparseVsDenseRandom
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SparseVsDenseRandom, DcAgrees)
{
    const RandomCircuit rc = randomCircuit(GetParam());
    std::vector<double> amps;
    for (const auto &s : rc.net.currentSources())
        amps.push_back(s.amps);
    const std::vector<double> sparse =
        solveDc(rc.net, amps, {}, SolverKind::Sparse);
    const std::vector<double> dense =
        solveDc(rc.net, amps, {}, SolverKind::Dense);
    expectClose(sparse, dense, kRandomTol);
}

TEST_P(SparseVsDenseRandom, TransientAgrees)
{
    const RandomCircuit rc = randomCircuit(GetParam());
    const double dt = 1e-9;
    TransientSim sparse(rc.net, dt, SolverKind::Sparse);
    TransientSim dense(rc.net, dt, SolverKind::Dense);
    sparse.initToDc();
    dense.initToDc();
    expectClose(sparse.solution(), dense.solution(), kRandomTol);

    Rng rng(GetParam() ^ 0xabcdef12345ull);
    for (int step = 0; step < 200; ++step) {
        // Random load schedule, occasionally toggling a switch so
        // both backends exercise their per-topology factor caches.
        if (rc.numSources > 0 && step % 3 == 0) {
            const int src = rng.uniformInt(0, rc.numSources - 1);
            const double value = rng.uniform(-2.0, 2.0);
            sparse.setCurrent(src, value);
            dense.setCurrent(src, value);
        }
        if (rc.numSwitches > 0 && step % 41 == 17) {
            const int sw = rng.uniformInt(0, rc.numSwitches - 1);
            const bool closed = rng.uniform() < 0.5;
            sparse.setSwitch(sw, closed);
            dense.setSwitch(sw, closed);
        }
        sparse.step();
        dense.step();
        expectClose(sparse.solution(), dense.solution(), kRandomTol);
    }
}

TEST_P(SparseVsDenseRandom, AcAgrees)
{
    const RandomCircuit rc = randomCircuit(GetParam());
    AcAnalysis sparse(rc.net, {}, SolverKind::Sparse);
    AcAnalysis dense(rc.net, {}, SolverKind::Dense);
    for (const double freq : {1e4, 1e6, 1e8}) {
        const std::vector<AcInjection> inj = {
            {rc.nodes.front(), Complex{1.0, 0.0}},
            {rc.nodes.back(), Complex{0.0, 0.5}},
        };
        const std::vector<Complex> a = sparse.solve(freq, inj);
        const std::vector<Complex> b = dense.solve(freq, inj);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            EXPECT_LE(std::abs(a[i] - b[i]),
                      kRandomTol *
                          std::max({1.0, std::abs(a[i]),
                                    std::abs(b[i])}))
                << "node " << i << " at " << freq << " Hz";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseVsDenseRandom,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull,
                                           8ull, 13ull, 21ull, 34ull,
                                           55ull, 89ull));

TEST(SparseVsDense, CachedFactorFollowsSwitchToggles)
{
    // An RLC divider whose lower leg a switch shorts; toggling it
    // A -> B -> A -> B must swap the held factor each time, reuse
    // the two cached ones after the first visit, and keep the sparse
    // steps bit-equal to the dense oracle throughout.
    Netlist net;
    const NodeId top = net.allocNode();
    const NodeId mid = net.allocNode();
    const NodeId out = net.allocNode();
    net.addVoltageSource(top, Netlist::ground, Volts{1.0});
    net.addInductor(top, mid, Henries{1e-9});
    net.addResistor(mid, out, Ohms{1.0});
    net.addResistor(out, Netlist::ground, Ohms{1.0});
    net.addCapacitor(out, Netlist::ground, Farads{1e-10});
    net.addCurrentSource(out, Netlist::ground, Amps{0.01});
    const int sw = net.addSwitch(out, Netlist::ground, Ohms{1e-6},
                                 Ohms{1e9}, false);
    const double dt = 1e-9;
    TransientSim sparse(net, dt, SolverKind::Sparse);
    TransientSim dense(net, dt, SolverKind::Dense);
    sparse.initToDc();
    dense.initToDc();
    for (const bool closed : {false, true, false, true}) {
        sparse.setSwitch(sw, closed);
        dense.setSwitch(sw, closed);
        for (int step = 0; step < 40; ++step) {
            sparse.step();
            dense.step();
            ASSERT_TRUE(bitsEqual(sparse.solution(), dense.solution()))
                << "closed " << closed << " step " << step;
        }
        // The factor in use is the toggled topology's: a closed
        // switch pulls the output to ground.
        if (closed)
            EXPECT_LT(std::abs(sparse.nodeVoltage(out)), 1e-3);
        else
            EXPECT_GT(sparse.nodeVoltage(out), 0.3);
    }
    EXPECT_EQ(sparse.luBuilds(), 2u);
    EXPECT_EQ(dense.luBuilds(), 2u);
}

/** One structural entry of a hand-built matrix (zeros allowed). */
template <typename T>
struct Entry
{
    int row;
    int col;
    T value;
};

/** Factor a hand-built matrix with both LUs and solve A x = b. */
template <typename T>
void
solveBoth(int n, const std::vector<Entry<T>> &entries,
          const std::vector<T> &b, std::vector<T> &sparseX,
          std::vector<T> &denseX)
{
    MatrixT<T> a(static_cast<std::size_t>(n),
                 static_cast<std::size_t>(n));
    CscPatternBuilder builder(n);
    for (const Entry<T> &e : entries) {
        a(static_cast<std::size_t>(e.row),
          static_cast<std::size_t>(e.col)) = e.value;
        builder.add(e.row, e.col);
    }
    auto pattern = std::make_shared<const CscPattern>(builder.compile());
    std::vector<T> values(pattern->nnz());
    for (int col = 0; col < n; ++col)
        for (std::int32_t t = pattern->colPtr[static_cast<std::size_t>(col)];
             t < pattern->colPtr[static_cast<std::size_t>(col) + 1]; ++t)
            values[static_cast<std::size_t>(t)] =
                a(static_cast<std::size_t>(
                      pattern->rowIdx[static_cast<std::size_t>(t)]),
                  static_cast<std::size_t>(col));
    SparseLuT<T> lu(pattern);
    lu.factor(values);
    sparseX = lu.solve(b);
    denseX = LuFactor<T>(a).solve(b);
}

/**
 * Column 1 reaches row 4 through column 0's L before it reaches row 3
 * directly, and both end at |value| 1 (row 4: 0 - (1/2) * 2 * unit,
 * row 3: unit) while position 1 holds an exact zero.  Reach order is
 * 4, 3; physical order is 3, 4, and the dense scan keeps position 3.
 */
template <typename T>
std::vector<Entry<T>>
reachOrderTie(T unit)
{
    return {{0, 0, T(2.0)},  {4, 0, T(1.0)},  {0, 1, T(2.0) * unit},
            {3, 1, unit},    {1, 2, T(4.0)},  {2, 2, T(1.0)},
            {2, 3, T(4.0)},  {3, 3, T(1.0)},  {1, 4, T(1.0)},
            {4, 4, T(3.0)}};
}

/**
 * Every column's pivot position ties with a later row.  Column 0 ties
 * rows 0, 1, 3 at |value| 1 and column 1 rows 1, 3 at |value| 2 (the
 * diagonal first in reach order).  Column 2 reaches row 3 through the
 * L columns of rows 0 and 1 before row 2, its own diagonal, and both
 * end at |value| 3 (row 3: 3 - unit + unit), so the dense scan keeps
 * position 2 although the reach visits row 3 first.
 */
template <typename T>
std::vector<Entry<T>>
diagonalTie(T unit)
{
    return {{0, 0, T(1.0)},  {1, 0, -T(1.0)},          {3, 0, unit},
            {1, 1, T(-2.0)}, {3, 1, T(2.0) * unit},     {0, 2, T(1.0)},
            {2, 2, T(3.0)},  {3, 2, T(3.0)},            {2, 3, T(0.1)},
            {3, 3, T(0.7)}};
}

template <typename T>
void
expectSameSolution(int n, const std::vector<Entry<T>> &entries)
{
    std::vector<T> b(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        b[static_cast<std::size_t>(i)] = T(1.0 / (i + 3));
    std::vector<T> sparseX, denseX;
    solveBoth(n, entries, b, sparseX, denseX);
    EXPECT_TRUE(bitsEqual(sparseX, denseX));
}

TEST(SparseVsDensePivot, TieAcrossReachOrderKeepsLowestPosition)
{
    expectSameSolution<double>(5, reachOrderTie<double>(1.0));
    expectSameSolution<double>(5, reachOrderTie<double>(-1.0));
    expectSameSolution<Complex>(5, reachOrderTie<Complex>({0.0, 1.0}));
    expectSameSolution<Complex>(5,
                                reachOrderTie<Complex>({0.6, -0.8}));
}

TEST(SparseVsDensePivot, PositionJKeepsPivotOnTie)
{
    expectSameSolution<double>(4, diagonalTie<double>(1.0));
    expectSameSolution<double>(4, diagonalTie<double>(-1.0));
    expectSameSolution<Complex>(4, diagonalTie<Complex>({0.0, -1.0}));
    expectSameSolution<Complex>(4, diagonalTie<Complex>({0.0, 1.0}));
}

/** Column 1 cancels to an exact zero after column 0's update. */
template <typename T>
std::vector<Entry<T>>
singularColumn()
{
    return {{0, 0, T(1.0)}, {1, 0, T(1.0)}, {0, 1, T(2.0)},
            {1, 1, T(2.0)}, {2, 2, T(1.0)}};
}

template <typename T>
void
factorSparse(int n, const std::vector<Entry<T>> &entries)
{
    std::vector<T> sparseX, denseX;
    solveBoth(n, entries, std::vector<T>(static_cast<std::size_t>(n)),
              sparseX, denseX);
}

template <typename T>
void
factorDense(int n, const std::vector<Entry<T>> &entries)
{
    MatrixT<T> a(static_cast<std::size_t>(n),
                 static_cast<std::size_t>(n));
    for (const Entry<T> &e : entries)
        a(static_cast<std::size_t>(e.row),
          static_cast<std::size_t>(e.col)) = e.value;
    LuFactor<T> lu(a);
}

TEST(SparseVsDensePivotDeath, SingularColumnPanicsLikeDense)
{
    // solveBoth factors the sparse matrix first, so its death is the
    // sparse panic; factorDense pins the dense text to the same one.
    const char *text = "singular matrix in LU factor";
    EXPECT_DEATH(factorSparse<double>(3, singularColumn<double>()),
                 text);
    EXPECT_DEATH(factorDense<double>(3, singularColumn<double>()),
                 text);
    EXPECT_DEATH(factorSparse<Complex>(3, singularColumn<Complex>()),
                 text);
    EXPECT_DEATH(factorDense<Complex>(3, singularColumn<Complex>()),
                 text);
}

/**
 * The eight golden configurations: the four Table III PDS presets
 * and the four fig09 worst-transient variants.
 */
struct GoldenConfig
{
    const char *name;
    PdsKind kind;
    double areaFraction; // < 0: keep the preset default
};

const GoldenConfig kGoldenConfigs[] = {
    {"conventional_vrm", PdsKind::ConventionalVrm, -1.0},
    {"single_layer_ivr", PdsKind::SingleLayerIvr, -1.0},
    {"vs_circuit_only", PdsKind::VsCircuitOnly, -1.0},
    {"vs_cross_layer", PdsKind::VsCrossLayer, -1.0},
    {"fig09_circuit_only_2x", PdsKind::VsCircuitOnly, 2.0},
    {"fig09_circuit_only_1x", PdsKind::VsCircuitOnly, 1.0},
    {"fig09_circuit_only_02x", PdsKind::VsCircuitOnly, 0.2},
    {"fig09_cross_layer_02x", PdsKind::VsCrossLayer, 0.2},
};

// gtest would otherwise print the raw bytes, which hold the name's
// load address, and ctest bakes that text into the test's name.
void
PrintTo(const GoldenConfig &c, std::ostream *os)
{
    *os << c.name;
}

class SparseVsDenseGolden
    : public ::testing::TestWithParam<GoldenConfig>
{
  protected:
    std::shared_ptr<const PdsSetup>
    setup() const
    {
        CosimConfig cfg;
        cfg.pds = defaultPds(GetParam().kind);
        if (GetParam().areaFraction >= 0.0)
            cfg.pds.ivrAreaFraction = GetParam().areaFraction;
        return buildPdsSetup(cfg);
    }

    int
    sourceOf(const PdsSetup &s, int sm) const
    {
        return s.stacked ? s.vs->smCurrentSource(sm)
                         : s.sl->smCurrentSource(sm);
    }
};

TEST_P(SparseVsDenseGolden, DcExactBits)
{
    const std::shared_ptr<const PdsSetup> s = setup();
    std::vector<double> amps;
    for (const auto &src : s->netlist().currentSources())
        amps.push_back(src.amps);
    const std::vector<double> sparse =
        solveDc(s->netlist(), amps, {}, SolverKind::Sparse,
                s->mnaPattern);
    const std::vector<double> dense =
        solveDc(s->netlist(), amps, {}, SolverKind::Dense);
    EXPECT_TRUE(bitsEqual(sparse, dense));
    // And the cached setup's own operating point matches both.
    EXPECT_TRUE(bitsEqual(s->dcNodeVolts, sparse));
}

TEST_P(SparseVsDenseGolden, TransientExactBits)
{
    const std::shared_ptr<const PdsSetup> s = setup();
    const double dt = config::clockPeriod.raw();
    TransientSim sparse(s->netlist(), dt, SolverKind::Sparse,
                        s->mnaPattern);
    TransientSim dense(s->netlist(), dt, SolverKind::Dense);
    sparse.initFromDc(s->dcNodeVolts);
    dense.initFromDc(s->dcNodeVolts);

    // The fig09 shape: all SMs loaded, one layer dropped half way.
    for (int step = 0; step < 600; ++step) {
        for (int sm = 0; sm < config::numSMs; ++sm) {
            const bool gated =
                step >= 300 && s->stacked && s->vs->smLayer(sm) == 0;
            const double amps =
                gated ? 0.0 : 4.0 + 0.5 * ((sm + step) % 5);
            sparse.setCurrent(sourceOf(*s, sm), amps);
            dense.setCurrent(sourceOf(*s, sm), amps);
        }
        sparse.step();
        dense.step();
        ASSERT_TRUE(bitsEqual(sparse.solution(), dense.solution()))
            << "diverged at step " << step;
    }
}

TEST_P(SparseVsDenseGolden, AcExactBits)
{
    const std::shared_ptr<const PdsSetup> s = setup();
    AcAnalysis sparse(s->netlist(), {}, SolverKind::Sparse,
                      s->mnaPattern);
    AcAnalysis dense(s->netlist(), {}, SolverKind::Dense);
    const NodeId probe = s->stacked ? s->vs->smTopNode(0)
                                    : s->sl->smNode(0);
    for (const double freq : {1e5, 1e6, 1e7, 1e8}) {
        const std::vector<AcInjection> inj = {
            {probe, Complex{1.0, 0.0}},
        };
        EXPECT_TRUE(
            bitsEqual(sparse.solve(freq, inj), dense.solve(freq, inj)))
            << "at " << freq << " Hz";
    }
}

TEST_P(SparseVsDenseGolden, AcScanReusesWorkspaceExactBits)
{
    // The numeric audit's 40-point resonance scan through one scan()
    // (one assembler and one factor workspace) against fresh
    // per-point analyzers, on both backends.
    const std::shared_ptr<const PdsSetup> s = setup();
    const verify::NumericAuditOptions opts;
    const double lo = opts.scanLoHz.raw();
    const double ratio = opts.scanHiHz.raw() / lo;
    std::vector<double> freqs;
    for (int i = 0; i < opts.scanPoints; ++i)
        freqs.push_back(
            lo * std::pow(ratio, static_cast<double>(i) /
                                     (opts.scanPoints - 1)));
    const NodeId probe = s->rails[0].top;
    const std::vector<std::vector<AcInjection>> patterns = {
        {{probe, Complex{1.0, 0.0}}}};
    for (const SolverKind kind : {SolverKind::Sparse, SolverKind::Dense}) {
        const AcAnalysis shared(s->netlist(), {}, kind, s->mnaPattern);
        const auto scanned = shared.scan(freqs, patterns);
        ASSERT_EQ(scanned.size(), freqs.size());
        for (std::size_t k = 0; k < freqs.size(); ++k) {
            const AcAnalysis fresh(s->netlist(), {}, kind);
            EXPECT_TRUE(bitsEqual(scanned[k][0],
                                  fresh.solve(freqs[k], patterns[0])))
                << (kind == SolverKind::Sparse ? "sparse" : "dense")
                << " at " << freqs[k] << " Hz";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SparseVsDenseGolden,
    ::testing::ValuesIn(kGoldenConfigs),
    [](const ::testing::TestParamInfo<GoldenConfig> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace vsgpu
