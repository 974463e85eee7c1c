/**
 * @file
 * Family 1: unit-safety.
 *
 * In the converted public headers (circuit, pdn, ivr, power, sim,
 * control, hypervisor), a raw double/float parameter, data member, or
 * return value whose name carries a unit suffix (loadOhms,
 * supplyVolts, freqHz, areaMm2, ...) is exactly the pattern the
 * Quantity type system exists to remove: the unit lives in the name
 * instead of the type, so the compiler cannot check it.  Declare the
 * entity as Volts/Amps/Ohms/... and call .raw() at the boundary to
 * dimension-unaware code instead.
 *
 * `vsgpu_lint --checks unit-safety` runs the family alone.  The
 * waiver comment is
 *   // vsgpu-lint: raw-ok(<reason>)
 * and the legacy "check_units:allow" spelling stays honoured so old
 * waivers do not break.
 */

#include "lint.hh"

#include <array>
#include <cctype>
#include <string>

namespace vsgpu::lint
{

namespace
{

/** Unit-ish suffixes, matched case-insensitively at name end. */
constexpr std::array suffixes = {
    "volts", "volt",  "amps",    "amp",    "ohms",   "ohm",
    "siemens", "farads", "farad", "henries", "henry", "watts",
    "watt",  "joules", "joule",  "hertz",  "mhz",    "ghz",
    "khz",   "hz",     "seconds", "second", "secs",  "sec",
    "mm2",   "m2",     "nf",     "uf",     "pf",     "nh",
    "ph",    "mv",     "ma",     "mw",     "nj",     "us",
    "ns",    "ps",
};

bool
hasUnitSuffix(std::string_view name)
{
    std::string lower;
    lower.reserve(name.size());
    for (char c : name)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    for (std::string_view suffix : suffixes) {
        if (lower.size() < suffix.size())
            continue;
        if (lower.compare(lower.size() - suffix.size(),
                          suffix.size(), suffix) != 0)
            continue;
        // Guard against e.g. "thesis" matching "sis": require the
        // character before the suffix (if any) to not extend a
        // same-word lowercase run only when the suffix starts
        // lowercase in the original spelling.  A camelCase boundary
        // ("loadOhms") or an exact match ("ohms") both qualify.
        const std::size_t at = name.size() - suffix.size();
        if (at == 0)
            return true;
        const char before = name[at - 1];
        const char first = name[at];
        if (std::isupper(static_cast<unsigned char>(first)) ||
            before == '_' ||
            std::isdigit(static_cast<unsigned char>(before)))
            return true;
    }
    return false;
}

bool
isWaived(const SourceFile &src, int line)
{
    return src.hasWaiver(line, "vsgpu-lint: raw-ok") ||
           src.hasWaiver(line, "check_units:allow");
}

} // namespace

void
checkUnitSafety(const SourceFile &src, std::vector<Diagnostic> &out)
{
    const std::vector<Token> tokens = tokenize(src.code());

    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
        const Token &type = tokens[i];
        if (type.kind != Token::Kind::Identifier ||
            (type.text != "double" && type.text != "float"))
            continue;

        // Skip cv/ref/pointer decoration between type and name.
        std::size_t j = i + 1;
        while (j < tokens.size() &&
               (tokens[j].text == "&" || tokens[j].text == "*" ||
                tokens[j].text == "const"))
            ++j;
        if (j >= tokens.size() ||
            tokens[j].kind != Token::Kind::Identifier)
            continue;
        const Token &name = tokens[j];
        if (!hasUnitSuffix(name.text))
            continue;

        // Parameter/member: followed by , ) ; = { [.  Function
        // returning raw double with a unit-suffixed name: followed
        // by ( — both are unit-in-the-name patterns.
        const std::string_view next =
            j + 1 < tokens.size() ? tokens[j + 1].text
                                  : std::string_view{};
        const bool decl = next == "," || next == ")" || next == ";" ||
                          next == "=" || next == "{" || next == "[";
        const bool fn = next == "(";
        if (!decl && !fn)
            continue;

        const int line = src.lineOf(name.offset);
        if (isWaived(src, line))
            continue;

        std::string message =
            fn ? "function '" + std::string(name.text) +
                     "' returns raw " + std::string(type.text) +
                     " but its name carries a unit suffix"
               : "raw " + std::string(type.text) + " '" +
                     std::string(name.text) +
                     "' carries a unit suffix";
        message += " — use the matching Quantity type "
                   "(src/common/quantity.hh) or waive with "
                   "'// vsgpu-lint: raw-ok(<reason>)'";
        out.push_back({src.display(), line, Check::UnitSafety,
                       std::move(message)});
    }
}

} // namespace vsgpu::lint
