/**
 * @file
 * Paper Fig. 10: worst-case voltage droop as a function of (a) CR-IVR
 * area budget for several control latencies and (b) control latency
 * for several area budgets.
 *
 * Expected shape (paper): with latency > ~80 cycles the worst droop
 * becomes highly sensitive to area; with area < ~0.8x it becomes
 * highly sensitive to latency; the paper picks 0.2x + 60 cycles.
 *
 * Every point is the same fixed-length worst-case event (4200
 * cycles, one layer halted at 2 us), so the runs do not scale with
 * ctx.scale.
 */

#include <map>
#include <utility>

#include "bench/scenarios/scenario_util.hh"

namespace vsgpu::scen
{

namespace
{

constexpr double kAreas[] = {0.2, 0.4, 0.8, 1.2, 1.6, 2.0};
constexpr Cycle kLatencies[] = {60, 80, 120, 140};
constexpr Cycle kLatSweep[] = {30, 60, 90, 120, 150};
constexpr double kAreaSweep[] = {2.0, 0.8, 0.4, 0.2};

using Point = std::pair<double, Cycle>; // (area x GPU, latency)

} // namespace

Summary
runFig10Sensitivity(ScenarioContext &ctx)
{
    // Both panels plus the chosen operating point, each distinct
    // (area, latency) pair simulated once.
    std::vector<RunPoint> runs;
    std::map<Point, std::size_t> index;
    const auto need = [&runs, &index](double area, Cycle latency) {
        if (!index.emplace(Point{area, latency}, runs.size()).second)
            return;
        CosimConfig cfg;
        cfg.pds = defaultPds(PdsKind::VsCrossLayer);
        cfg.pds.ivrAreaFraction = area;
        cfg.pds.controller.loopLatency = latency;
        cfg.maxCycles = 4200;
        cfg.gateLayerAtSec = 2.0_us;
        runs.push_back({"area=" + formatFixed(area, 1) +
                            "/lat=" + std::to_string(latency),
                        cfg, uniformWorkload(9000)});
    };
    for (double area : kAreas)
        for (Cycle l : kLatencies)
            need(area, l);
    for (Cycle l : kLatSweep)
        for (double area : kAreaSweep)
            need(area, l);
    need(0.2, 60);

    const auto results = runAll(ctx, runs);
    const auto worstVoltage = [&results, &index](double area,
                                                 Cycle latency) {
        return results[index.at(Point{area, latency})].minVoltage;
    };

    Table a("Fig. 10(a): worst voltage vs area (per latency)");
    {
        std::vector<std::string> header = {"area_xGPU"};
        for (Cycle l : kLatencies)
            header.push_back("lat=" + std::to_string(l) + "cy");
        a.setHeader(header);
        for (double area : kAreas) {
            auto &row = a.beginRow().cell(area, 2);
            for (Cycle l : kLatencies)
                row.cell(worstVoltage(area, l), 3);
            row.endRow();
        }
    }
    a.print(ctx.out);
    ctx.out << "\n";

    Table b("Fig. 10(b): worst voltage vs latency (per area)");
    {
        std::vector<std::string> header = {"latency_cycles"};
        for (double area : kAreaSweep)
            header.push_back(formatFixed(area, 1) + "x area");
        b.setHeader(header);
        for (Cycle l : kLatSweep) {
            auto &row = b.beginRow().cell(static_cast<long long>(l));
            for (double area : kAreaSweep)
                row.cell(worstVoltage(area, l), 3);
            row.endRow();
        }
    }
    b.print(ctx.out);

    ctx.out << "\nChosen operating point (paper): 0.2x area, "
               "60-cycle latency -> worst voltage "
            << formatFixed(worstVoltage(0.2, 60), 3) << " V\n";
    ctx.out
        << "\nNote: the area sensitivity reproduces the paper's "
           "knee (droop becomes\nacceptable above ~0.4-0.8x area).  "
           "Latency sensitivity is muted here because\nthe modeled "
           "worst-case event is a step whose uncontrolled droop does "
           "not\ndeepen while the loop is in flight; the paper's "
           "event appears to accumulate\ncharge loss during the "
           "control latency, which our linearized PDN settles\n"
           "faster than one loop period.\n";

    Summary summary;
    for (double area : kAreaSweep)
        summary.add("worst_v_area" + formatFixed(area, 1) + "_lat60",
                    worstVoltage(area, 60));
    // Fig. 10(b) at the chosen 0.2x area: how far the worst voltage
    // moves across the whole latency sweep (the recorded deviation).
    double lo = 1e9, hi = -1e9;
    for (Cycle l : kLatSweep) {
        lo = std::min(lo, worstVoltage(0.2, l));
        hi = std::max(hi, worstVoltage(0.2, l));
    }
    summary.add("latency_spread_v_area0.2", hi - lo);
    return summary;
}

} // namespace vsgpu::scen
