/**
 * @file
 * `vsgpu_lint --explain <id>`: the rationale, a minimal
 * violating/fixed example pair, and the waiver syntax for a
 * diagnostic id or family name.
 *
 * The examples are distilled from the fixture corpus under
 * tests/lint/fixtures/ — each *_violate fixture is the smallest
 * program a family fires on and the *_clean twin the smallest fix —
 * so --explain stays in sync with what the analysis actually
 * accepts.  Explanations are keyed by family; asking for a dotted id
 * ("unit-flow.mixed-units") prints the family entry with the
 * sub-rule's specifics first.
 */

#include "lint.hh"

#include <map>
#include <ostream>
#include <string>

namespace vsgpu::lint
{

namespace
{

struct SubRule
{
    std::string_view id; ///< suffix after the family dot
    std::string_view what;
};

struct Explanation
{
    std::string_view family;
    std::string_view rationale;
    std::string_view violating;
    std::string_view fixed;
    std::string_view waiver;
    std::initializer_list<SubRule> subRules;
};

// clang-format off
const Explanation kExplanations[] = {
    {"unit-safety",
     "Raw double/float in a converted public header defeats the "
     "Quantity type system: the compiler can no longer reject a "
     "volts-for-amps mixup at the call site.",
     "    struct Rail { double voltage; };     // in a src/pdn header",
     "    struct Rail { Volts voltage; };",
     "// vsgpu-lint: raw-ok(<reason>)",
     {}},
    {"determinism",
     "Wall-clock reads, global RNG, and unordered-container "
     "iteration make two identical runs diverge, breaking golden "
     "files and the sweep identity tests.",
     "    auto seed = std::chrono::steady_clock::now();",
     "    auto rng = common::seededEngine(config.seed);",
     "// vsgpu-lint: nondet-ok / unordered-ok / iostream-ok(<reason>)",
     {}},
    {"contracts",
     "A function tagged VSGPU_CONTRACT must state VSGPU_REQUIRES or "
     "VSGPU_ENSURES in its definition; an empty contract is a "
     "promise nobody checks.",
     "    VSGPU_CONTRACT void step();  // body states neither",
     "    VSGPU_CONTRACT void step() { VSGPU_REQUIRES(dt > 0.0); }",
     "(no waiver: state a contract or drop the tag)",
     {}},
    {"raw-escape",
     "Quantity::raw() outside the numeric core reintroduces the "
     "unitless doubles the type system exists to eliminate.",
     "    double v = rail.voltage.raw();       // in src/control",
     "    Volts v = rail.voltage;",
     "// vsgpu-lint: raw-escape-ok(<reason>)",
     {}},
    {"unit-flow",
     "Dataflow unit-tagging: a raw() value tagged with one unit "
     "must not flow into arithmetic or parameters expecting "
     "another.",
     "    double r = volts.raw(); solver.setCurrent(r);",
     "    solver.setCurrent(amps);  // keep the Quantity type",
     "// vsgpu-lint: unit-flow-ok(<reason>)",
     {{"mixed-units", "an additive expression mixes values tagged "
       "with different units"},
      {"arg-mismatch", "a unit-tagged argument flows into a "
       "parameter declared with another unit"}}},
};
// clang-format on

} // namespace

bool
explainDiagnostic(std::string_view idOrFamily, std::ostream &os)
{
    std::string_view family = idOrFamily;
    std::string_view sub;
    const std::size_t dot = idOrFamily.find('.');
    if (dot != std::string_view::npos) {
        family = idOrFamily.substr(0, dot);
        sub = idOrFamily.substr(dot + 1);
    }
    for (const Explanation &e : kExplanations) {
        if (e.family != family)
            continue;
        if (!sub.empty()) {
            bool known = false;
            for (const SubRule &rule : e.subRules)
                if (rule.id == sub)
                    known = true;
            if (!known)
                return false;
        }
        os << idOrFamily << "\n";
        for (std::size_t i = 0; i < idOrFamily.size(); ++i)
            os << '=';
        os << "\n\n";
        if (!sub.empty()) {
            for (const SubRule &rule : e.subRules)
                if (rule.id == sub)
                    os << "This rule: " << rule.what << ".\n\n";
        }
        os << e.rationale << "\n\nViolating:\n"
           << e.violating << "\n\nFixed:\n"
           << e.fixed << "\n\nWaiver (on the diagnosed line or the "
                         "line above):\n    "
           << e.waiver << "\n";
        if (sub.empty() && e.subRules.size() > 0) {
            os << "\nRules in this family:\n";
            for (const SubRule &rule : e.subRules)
                os << "    " << e.family << "." << rule.id << "  "
                   << rule.what << "\n";
        }
        return true;
    }
    return false;
}

} // namespace vsgpu::lint
