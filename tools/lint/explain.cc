/**
 * @file
 * `vsgpu_lint --explain <family>`: the rationale, a minimal
 * violating/fixed example pair, and the waiver syntax for a family.
 *
 * The examples are distilled from the fixture corpus under
 * tests/lint/fixtures/ — each *_violate fixture is the smallest
 * program a family fires on and the *_clean twin the smallest fix —
 * so --explain stays in sync with what the analysis actually
 * accepts.
 */

#include "lint.hh"

#include <ostream>
#include <string_view>

namespace vsgpu::lint
{

namespace
{

struct Explanation
{
    std::string_view family;
    std::string_view rationale;
    std::string_view violating;
    std::string_view fixed;
    std::string_view waiver;
};

// clang-format off
const Explanation kExplanations[] = {
    {"unit-safety",
     "Raw double/float in a converted public header defeats the "
     "Quantity type system: the compiler can no longer reject a "
     "volts-for-amps mixup at the call site.",
     "    struct Rail { double voltage; };     // in a src/pdn header",
     "    struct Rail { Volts voltage; };",
     "// vsgpu-lint: raw-ok(<reason>)"},
    {"determinism",
     "Wall-clock reads, global RNG, and unordered-container "
     "iteration make two identical runs diverge, breaking golden "
     "files and the sweep identity tests.",
     "    auto seed = std::chrono::steady_clock::now();",
     "    auto rng = common::seededEngine(config.seed);",
     "// vsgpu-lint: nondet-ok / unordered-ok / iostream-ok(<reason>)"},
    {"contracts",
     "A function tagged VSGPU_CONTRACT must state VSGPU_REQUIRES or "
     "VSGPU_ENSURES in its definition; an empty contract is a "
     "promise nobody checks.",
     "    VSGPU_CONTRACT void step();  // body states neither",
     "    VSGPU_CONTRACT void step() { VSGPU_REQUIRES(dt > 0.0); }",
     "(no waiver: state a contract or drop the tag)"},
    {"raw-escape",
     "Quantity::raw() outside the numeric core reintroduces the "
     "unitless doubles the type system exists to eliminate.",
     "    double v = rail.voltage.raw();       // in src/control",
     "    Volts v = rail.voltage;",
     "// vsgpu-lint: raw-escape-ok(<reason>)"},
};
// clang-format on

} // namespace

bool
explainDiagnostic(std::string_view family, std::ostream &os)
{
    for (const Explanation &e : kExplanations) {
        if (e.family != family)
            continue;
        os << family << "\n";
        for (std::size_t i = 0; i < family.size(); ++i)
            os << '=';
        os << "\n\n"
           << e.rationale << "\n\nViolating:\n"
           << e.violating << "\n\nFixed:\n"
           << e.fixed << "\n\nWaiver (on the diagnosed line or the "
                         "line above):\n    "
           << e.waiver << "\n";
        return true;
    }
    return false;
}

} // namespace vsgpu::lint
