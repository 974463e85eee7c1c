/**
 * @file
 * vsgpu_verify — static model verification over every bench scenario
 * configuration and golden config (docs/model_verification.md).
 *
 * Runs the src/verify audits (netlist ERC, numeric conditioning,
 * control-loop stability) on each distinct electrical + control
 * configuration the paper scenarios construct, without any transient
 * simulation, and diffs the findings against a frozen baseline of
 * reviewed paper-faithful oddities.
 *
 * Usage:
 *   vsgpu_verify [--baseline file | --no-baseline]
 *                [--write-baseline] [--list] [--verbose]
 *                [--subject NAME]...
 *
 * With no --subject arguments every registered subject is verified,
 * and the golden summaries directory is cross-checked: every
 * tests/golden/<scenario>.json must be covered by at least one
 * subject tagged with that scenario, unless the scenario is listed
 * as building no PDS configuration.
 *
 * Exit status: 0 clean (or baselined), 1 new findings or uncovered
 * golden configs, 2 usage / I/O error.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "sim/model_verify.hh"

namespace fs = std::filesystem;
using namespace vsgpu;

namespace
{

/** One named configuration to audit. */
struct Subject
{
    std::string name;      ///< stable id used in baseline fingerprints
    std::string scenarios; ///< comma-joined scenario stems it covers
    std::function<CosimConfig()> build;
};

CosimConfig
pdsConfig(PdsKind kind)
{
    CosimConfig cfg;
    cfg.pds = defaultPds(kind);
    return cfg;
}

CosimConfig
crossAtThreshold(double volts)
{
    CosimConfig cfg = pdsConfig(PdsKind::VsCrossLayer);
    cfg.pds.controller.vThreshold = Volts{volts};
    return cfg;
}

CosimConfig
crossWithWeights(double w1, double w2, double w3)
{
    CosimConfig cfg = pdsConfig(PdsKind::VsCrossLayer);
    cfg.pds.controller.w1 = w1;
    cfg.pds.controller.w2 = w2;
    cfg.pds.controller.w3 = w3;
    return cfg;
}

CosimConfig
atArea(PdsKind kind, double areaFraction)
{
    CosimConfig cfg = pdsConfig(kind);
    cfg.pds.ivrAreaFraction = areaFraction;
    return cfg;
}

CosimConfig
crossWithDetector(DetectorKind kind)
{
    CosimConfig cfg = pdsConfig(PdsKind::VsCrossLayer);
    cfg.pds.controller.detector = detectorSpec(kind);
    return cfg;
}

/**
 * Registry of every distinct electrical + control configuration the
 * bench scenarios construct.  Scenarios that reuse a default
 * configuration (fig14/fig15/fig17 run the table3 defaults, with
 * governors attached outside the electrical model) are covered by
 * tagging the shared subject with every scenario stem it backs.
 */
std::vector<Subject>
allSubjects()
{
    std::vector<Subject> subjects;
    const auto add = [&subjects](std::string name,
                                 std::string scenarios,
                                 std::function<CosimConfig()> build) {
        subjects.push_back(
            {std::move(name), std::move(scenarios), std::move(build)});
    };

    // Table III: the four PDS configurations at paper defaults.
    // fig13's conventional baseline, fig14/fig15's conventional and
    // cross-layer runs, and fig17's cross-layer runs use these same
    // electrical models (DFS/PG governors act on the workload side).
    // fig08 runs all four; fig03's 1.72x panel is the circuit-only
    // default and fig09/fig11's cross-layer 0.2x the cross-layer one;
    // ablation_loadline's servoed runs are the conventional default.
    add("conventional_vrm",
        "table3_pds_comparison,fig08_pde_breakdown,"
        "fig13_actuator_tradeoff,fig14_penalty_saving,fig15_dfs,"
        "fig16_pg,ablation_loadline",
        [] { return pdsConfig(PdsKind::ConventionalVrm); });
    add("single_layer_ivr",
        "table3_pds_comparison,fig08_pde_breakdown",
        [] { return pdsConfig(PdsKind::SingleLayerIvr); });
    add("vs_circuit_only",
        "table3_pds_comparison,fig08_pde_breakdown,fig03_impedance",
        [] { return pdsConfig(PdsKind::VsCircuitOnly); });
    add("vs_cross_layer",
        "table3_pds_comparison,fig08_pde_breakdown,"
        "fig09_worst_transient,fig11_noise_distribution,"
        "fig14_penalty_saving,fig15_dfs,fig17_imbalance,"
        "table2_detectors",
        [] { return pdsConfig(PdsKind::VsCrossLayer); });

    // Fig. 12: smoothing-off baseline at 0.2x GPU CR-IVR area, and
    // the cross-layer stack at each trigger threshold.  The same
    // circuit-only 0.2x stack is fig03's 0.2x panel, fig09's and
    // fig11's circuit-only 0.2x runs, and ablation_stacking's 4x4
    // geometry with CR-IVR (its 2x8 and 8x2 re-partitions change
    // the layer count, which a CosimConfig cannot express).
    add("vs_circuit_only_area02",
        "fig12_threshold_sweep,fig03_impedance,fig09_worst_transient,"
        "fig11_noise_distribution,ablation_stacking",
        [] { return atArea(PdsKind::VsCircuitOnly, 0.2); });
    add("vs_cross_layer_vth070", "fig12_threshold_sweep",
        [] { return crossAtThreshold(0.70); });
    add("vs_cross_layer_vth080", "fig12_threshold_sweep",
        [] { return crossAtThreshold(0.80); });
    add("vs_cross_layer_vth090", "fig12_threshold_sweep",
        [] { return crossAtThreshold(0.90); });
    add("vs_cross_layer_vth095", "fig12_threshold_sweep",
        [] { return crossAtThreshold(0.95); });

    // Fig. 13: actuator weight corners (pure single-actuator
    // settings plus the paper's mixed point).
    add("vs_cross_layer_diws", "fig13_actuator_tradeoff",
        [] { return crossWithWeights(1.0, 0.0, 0.0); });
    add("vs_cross_layer_fii", "fig13_actuator_tradeoff",
        [] { return crossWithWeights(0.0, 1.0, 0.0); });
    add("vs_cross_layer_dcc", "fig13_actuator_tradeoff",
        [] { return crossWithWeights(0.0, 0.0, 1.0); });
    add("vs_cross_layer_mixed", "fig13_actuator_tradeoff",
        [] { return crossWithWeights(0.4, 0.4, 0.2); });

    // Fig. 16: gated scheduler on the cross-layer stack (the gating
    // changes workload scheduling, not the netlist; verified anyway
    // so the subject list matches the scenario's configuration set).
    add("vs_cross_layer_gates", "fig16_pg", [] {
        CosimConfig cfg = pdsConfig(PdsKind::VsCrossLayer);
        cfg.gpu.sm.scheduler = SchedulerKind::Gates;
        return cfg;
    });

    // Table II: each detector implementation driving the loop.
    add("vs_cross_layer_oddd", "table2_detectors",
        [] { return crossWithDetector(DetectorKind::Oddd); });
    add("vs_cross_layer_cpm", "table2_detectors",
        [] { return crossWithDetector(DetectorKind::Cpm); });
    add("vs_cross_layer_adc", "table2_detectors",
        [] { return crossWithDetector(DetectorKind::Adc); });

    // Fig. 3(a) and ablation_stacking's unregulated 4x4 row: the
    // stack with no CR-IVR at all.
    add("vs_circuit_only_area0", "fig03_impedance,ablation_stacking",
        [] { return atArea(PdsKind::VsCircuitOnly, 0.0); });

    // Fig. 9: the 1x and 2x circuit-only CR-IVR budgets.  The 1x
    // audit raises erc.crivr-undersized (the 14 A single-SM imbalance
    // droops 0.28 V through Reff); it is baselined, because that
    // unregulated worst case is the transient Fig. 9 exists to show.
    add("vs_circuit_only_area10", "fig09_worst_transient",
        [] { return atArea(PdsKind::VsCircuitOnly, 1.0); });
    add("vs_circuit_only_area20", "fig09_worst_transient",
        [] { return atArea(PdsKind::VsCircuitOnly, 2.0); });

    // Fig. 10: every (area, latency) point of both panels.
    const auto fig10 = [&add](double area, Cycle latency) {
        add("vs_cross_layer_area" + formatFixed(area, 1) + "_lat" +
                std::to_string(latency),
            "fig10_sensitivity", [area, latency] {
                CosimConfig cfg =
                    atArea(PdsKind::VsCrossLayer, area);
                cfg.pds.controller.loopLatency = latency;
                return cfg;
            });
    };
    for (double area : {0.2, 0.4, 0.8, 1.2, 1.6, 2.0})
        for (Cycle latency : {60, 80, 120, 140})
            fig10(area, latency);
    for (double area : {2.0, 0.8, 0.4, 0.2})
        for (Cycle latency : {30, 90, 150})
            fig10(area, latency);

    // ablation_pi_controller: the P and PI controller variants.
    for (const auto &[kP, kI] : {std::pair{12.0, 0.0},
                                 std::pair{12.0, 0.5},
                                 std::pair{12.0, 2.0},
                                 std::pair{6.0, 1.0}}) {
        add("vs_cross_layer_kp" + formatFixed(kP, 0) + "_ki" +
                formatFixed(kI, 1),
            "ablation_pi_controller", [kP = kP, kI = kI] {
                CosimConfig cfg = pdsConfig(PdsKind::VsCrossLayer);
                cfg.pds.controller.gainWattsPerVolt = WattsPerVolt{kP};
                cfg.pds.controller.integralGainWattsPerVolt =
                    WattsPerVolt{kI};
                return cfg;
            });
    }

    // ablation_loadline: the conventional VRM at a fixed setpoint.
    add("conventional_vrm_fixed_setpoint", "ablation_loadline", [] {
        CosimConfig cfg = pdsConfig(PdsKind::ConventionalVrm);
        cfg.vrmRemoteSense = false;
        return cfg;
    });

    return subjects;
}

/**
 * Scenarios that build no PDS configuration, so no subject can cover
 * them: ctl_stability is linear control analysis and
 * spectrum_analysis runs the GPU and power models alone.
 */
const std::set<std::string> kNoPdsScenarios = {"ctl_stability",
                                                "spectrum_analysis"};

/** One finding, bound to the subject whose audit produced it. */
struct Finding
{
    std::string subject; ///< Subject::name
    verify::Diagnostic diag;
};

/**
 * Baseline fingerprint.  Deliberately message-free: messages carry
 * floating-point detail that shifts under benign model edits, while
 * (subject, severity, id, diagnostic subject) names the reviewed
 * oddity itself.  A severity upgrade therefore surfaces as a new
 * finding, which is the desired behaviour.
 */
std::string
fingerprint(const Finding &f)
{
    std::ostringstream os;
    os << f.subject << "|"
       << (f.diag.severity == verify::Severity::Error ? "error"
                                                      : "warning")
       << "|" << f.diag.id << "|" << f.diag.subject;
    return os.str();
}

/** Load baseline fingerprints (one per line, '#' comments). */
bool
loadBaseline(const std::string &path, std::vector<std::string> &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        while (!line.empty() && std::isspace(static_cast<unsigned char>(
                                    line.back())))
            line.pop_back();
        std::size_t start = 0;
        while (start < line.size() &&
               std::isspace(static_cast<unsigned char>(line[start])))
            ++start;
        if (start > 0)
            line.erase(0, start);
        if (!line.empty())
            out.push_back(line);
    }
    return true;
}

/**
 * Cross-check the golden summaries: every recorded scenario must be
 * covered by at least one verified subject.  @return scenario stems
 * with no covering subject.
 */
std::vector<std::string>
uncoveredGoldens(const fs::path &goldenDir,
                 const std::vector<Subject> &subjects)
{
    std::vector<std::string> missing;
    if (!fs::is_directory(goldenDir))
        return missing;
    for (const auto &entry : fs::directory_iterator(goldenDir)) {
        if (entry.path().extension() != ".json")
            continue;
        const std::string stem = entry.path().stem().string();
        if (kNoPdsScenarios.count(stem) > 0)
            continue;
        const auto covers = [&stem](const Subject &s) {
            // Exact comma-separated element match.
            std::size_t pos = 0;
            while (pos <= s.scenarios.size()) {
                std::size_t comma = s.scenarios.find(',', pos);
                if (comma == std::string::npos)
                    comma = s.scenarios.size();
                if (s.scenarios.substr(pos, comma - pos) == stem)
                    return true;
                pos = comma + 1;
            }
            return false;
        };
        if (std::none_of(subjects.begin(), subjects.end(), covers))
            missing.push_back(stem);
    }
    std::sort(missing.begin(), missing.end());
    return missing;
}

int
usage(std::ostream &os)
{
    os << "usage: vsgpu_verify [--baseline file | --no-baseline]\n"
          "                    [--write-baseline] [--list]\n"
          "                    [--verbose] [--subject NAME]...\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string baselinePath =
#ifdef VSGPU_VERIFY_BASELINE
        VSGPU_VERIFY_BASELINE;
#else
        "tools/verify/verify_baseline.txt";
#endif
    const fs::path goldenDir =
#ifdef VSGPU_GOLDEN_DIR
        VSGPU_GOLDEN_DIR;
#else
        "tests/golden";
#endif
    bool useBaseline = true;
    bool writeBaseline = false;
    bool verbose = false;
    std::vector<std::string> wanted;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--baseline") {
            const char *v = next();
            if (!v)
                return usage(std::cerr);
            baselinePath = v;
        } else if (arg == "--no-baseline") {
            useBaseline = false;
        } else if (arg == "--write-baseline") {
            writeBaseline = true;
        } else if (arg == "--verbose") {
            verbose = true;
        } else if (arg == "--subject") {
            const char *v = next();
            if (!v)
                return usage(std::cerr);
            wanted.push_back(v);
        } else if (arg == "--list") {
            for (const Subject &s : allSubjects())
                std::cout << s.name << "  (" << s.scenarios << ")\n";
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else {
            std::cerr << "vsgpu_verify: unknown argument " << arg
                      << "\n";
            return usage(std::cerr);
        }
    }

    // The audits report through their Report; the setup build under a
    // broken config must not spam the console mid-table.
    setLogQuiet(true);

    const std::vector<Subject> subjects = allSubjects();
    std::vector<const Subject *> selected;
    for (const Subject &s : subjects) {
        if (wanted.empty() ||
            std::find(wanted.begin(), wanted.end(), s.name) !=
                wanted.end())
            selected.push_back(&s);
    }
    for (const std::string &w : wanted) {
        if (std::none_of(subjects.begin(), subjects.end(),
                         [&w](const Subject &s) {
                             return s.name == w;
                         })) {
            std::cerr << "vsgpu_verify: unknown subject '" << w
                      << "' (see --list)\n";
            return 2;
        }
    }

    std::vector<Finding> findings;
    for (const Subject *s : selected) {
        if (verbose)
            std::cerr << "verify " << s->name << "\n";
        const verify::Report report = verifyModel(s->build());
        for (const verify::Diagnostic &d : report.diags)
            findings.push_back({s->name, d});
    }

    if (writeBaseline) {
        std::ofstream out(baselinePath);
        if (!out) {
            std::cerr << "vsgpu_verify: cannot write baseline "
                      << baselinePath << "\n";
            return 2;
        }
        out << "# vsgpu_verify baseline — reviewed paper-faithful "
               "findings.\n"
               "# Format: subject|severity|id|diagnostic-subject\n"
               "# Regenerate with: vsgpu_verify --write-baseline\n"
               "# Every entry must carry a rationale comment; see\n"
               "# docs/model_verification.md before freezing "
               "anything new.\n";
        std::vector<std::string> fps;
        for (const Finding &f : findings)
            fps.push_back(fingerprint(f));
        std::sort(fps.begin(), fps.end());
        for (const std::string &fp : fps)
            out << fp << "\n";
        std::cout << "vsgpu_verify: wrote " << fps.size()
                  << " baseline entr"
                  << (fps.size() == 1 ? "y" : "ies") << " to "
                  << baselinePath << "\n";
        return 0;
    }

    std::vector<std::string> baseline;
    if (useBaseline &&
        !loadBaseline(baselinePath, baseline)) {
        std::cerr << "vsgpu_verify: cannot read baseline "
                  << baselinePath << " (use --no-baseline to skip)\n";
        return 2;
    }

    // Each baseline entry absorbs any number of identical
    // fingerprints (unlike lint lines, the same reviewed oddity can
    // legitimately appear once per subject audit re-run).
    const std::set<std::string> frozen(baseline.begin(),
                                       baseline.end());
    std::vector<Finding> fresh;
    std::size_t baselined = 0;
    for (const Finding &f : findings) {
        if (frozen.count(fingerprint(f)) > 0)
            ++baselined;
        else
            fresh.push_back(f);
    }

    for (const Finding &f : fresh)
        std::cerr << f.subject << ": " << f.diag.id << " ["
                  << (f.diag.severity == verify::Severity::Error
                          ? "error"
                          : "warning")
                  << "] " << f.diag.subject << ": " << f.diag.message
                  << "\n";

    const std::vector<std::string> missing =
        wanted.empty() ? uncoveredGoldens(goldenDir, subjects)
                       : std::vector<std::string>{};
    for (const std::string &stem : missing)
        std::cerr << "vsgpu_verify: golden config '" << stem
                  << "' is covered by no subject\n";

    std::cout << "vsgpu_verify: " << selected.size()
              << " subject(s), " << fresh.size()
              << " new finding(s)";
    if (baselined > 0)
        std::cout << ", " << baselined << " baselined";
    if (!missing.empty())
        std::cout << ", " << missing.size()
                  << " uncovered golden config(s)";
    std::cout << "\n";
    return (fresh.empty() && missing.empty()) ? 0 : 1;
}
