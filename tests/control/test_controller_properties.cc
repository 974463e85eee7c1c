/**
 * @file
 * Property-based tests of the smoothing controller: over randomized
 * seeded rail traces every emitted command stays inside the actuator
 * ranges (issue width, fake rate, DCC current) with no NaNs; the
 * trigger count is monotonically non-decreasing in the threshold
 * voltage (a higher threshold classifies shallower droops as
 * events); and a rail pinned at nominal never triggers at all.
 * Seeds are fixed, so failures reproduce exactly.
 */

#include <array>
#include <cmath>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "control/controller.hh"

namespace vsgpu
{
namespace
{

using Rails = std::array<double, config::numSMs>;

/** Per-SM noisy rails with independent droop events. */
std::vector<Rails>
randomRailTraces(Rng &rng, int cycles)
{
    std::vector<Rails> trace(static_cast<std::size_t>(cycles));
    std::array<double, config::numSMs> droop{};
    for (int t = 0; t < cycles; ++t) {
        for (int sm = 0; sm < config::numSMs; ++sm) {
            if (rng.bernoulli(0.005))
                droop[sm] = rng.uniform(0.05, 0.25);
            droop[sm] *= 0.96;
            trace[static_cast<std::size_t>(t)][sm] =
                1.0 - droop[sm] + rng.normal(0.0, 0.004);
        }
    }
    return trace;
}

TEST(ControllerProperties, CommandsStayInActuatorRangesOverRandomTraces)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        ControllerConfig cfg;
        // Exercise all three actuators.
        cfg.w1 = 0.4;
        cfg.w2 = 0.4;
        cfg.w3 = 0.2;
        SmoothingController ctl(cfg);
        const double fullScale = cfg.dcc.fullScaleAmps.raw();
        const double maxWidth =
            static_cast<double>(config::maxIssueWidth);

        for (const Rails &rails : randomRailTraces(rng, 3000)) {
            const CommandSet &commands = ctl.step(rails);
            for (const SmCommand &c : commands) {
                ASSERT_TRUE(std::isfinite(c.issueWidth));
                ASSERT_TRUE(std::isfinite(c.fakeRate));
                ASSERT_TRUE(std::isfinite(c.dccAmps.raw()));
                ASSERT_GE(c.issueWidth, 0.0);
                ASSERT_LE(c.issueWidth, maxWidth);
                ASSERT_GE(c.fakeRate, 0.0);
                ASSERT_LE(c.fakeRate, maxWidth);
                ASSERT_GE(c.dccAmps.raw(), 0.0);
                ASSERT_LE(c.dccAmps.raw(), fullScale);
            }
        }
        EXPECT_GT(ctl.triggeredDecisions(), 0u)
            << "trace with droops should trigger at least once";
    }
}

TEST(ControllerProperties, NeverTriggersAtNominalRail)
{
    SmoothingController ctl;
    Rails nominal{};
    nominal.fill(ctl.config().vNominal.raw());
    for (int t = 0; t < 5000; ++t) {
        const CommandSet &commands = ctl.step(nominal);
        for (const SmCommand &c : commands) {
            EXPECT_EQ(c.issueWidth,
                      static_cast<double>(config::maxIssueWidth));
            EXPECT_EQ(c.fakeRate, 0.0);
            EXPECT_EQ(c.dccAmps.raw(), 0.0);
        }
    }
    EXPECT_EQ(ctl.triggeredDecisions(), 0u);
    EXPECT_GT(ctl.totalDecisions(), 0u);
}

TEST(ControllerProperties, TriggerCountMonotonicInThreshold)
{
    // A higher threshold classifies shallower droops as events, so
    // on the same trace the trigger count can only grow with it.
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        Rng rng(seed);
        const auto trace = randomRailTraces(rng, 4000);

        std::uint64_t lastTriggered = 0;
        bool first = true;
        for (double threshold :
             {0.70, 0.80, 0.85, 0.90, 0.95, 1.00}) {
            ControllerConfig cfg;
            cfg.vThreshold = Volts{threshold};
            SmoothingController ctl(cfg);
            for (const Rails &rails : trace)
                ctl.step(rails);
            if (!first) {
                EXPECT_GE(ctl.triggeredDecisions(), lastTriggered)
                    << "seed " << seed << " threshold " << threshold;
            }
            lastTriggered = ctl.triggeredDecisions();
            first = false;
        }
    }
}

TEST(ControllerProperties, DccCommandsLandOnDacGrid)
{
    ControllerConfig cfg;
    cfg.w1 = 0.0;
    cfg.w2 = 0.0;
    cfg.w3 = 1.0; // all correction through the DCC
    SmoothingController ctl(cfg);
    const double lsb = cfg.dcc.lsbAmps().raw();

    Rng rng(5);
    for (const Rails &rails : randomRailTraces(rng, 3000)) {
        const CommandSet &commands = ctl.step(rails);
        for (const SmCommand &c : commands) {
            const double steps = c.dccAmps.raw() / lsb;
            ASSERT_NEAR(steps, std::round(steps), 1e-6)
                << "dcc command " << c.dccAmps.raw()
                << " A is off the DAC grid";
        }
    }
}

} // namespace
} // namespace vsgpu
