/**
 * @file
 * Source preparation for vsgpu_lint: comment/string scrubbing, line
 * mapping, waivers, tokenization, check names, and scope mapping.
 */

#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace vsgpu::lint
{

std::string_view
checkName(Check check)
{
    switch (check) {
      case Check::UnitSafety:
        return "unit-safety";
      case Check::Determinism:
        return "determinism";
      case Check::Contracts:
        return "contracts";
      case Check::RawEscape:
        return "raw-escape";
    }
    return "unknown";
}

bool
parseCheckName(std::string_view name, Check &out)
{
    for (Check c : kAllChecks) {
        if (checkName(c) == name) {
            out = c;
            return true;
        }
    }
    return false;
}

namespace
{

/**
 * Blank comments, string literals, and char literals with spaces,
 * preserving length and newlines so offsets and line numbers in the
 * scrubbed copy match the raw text exactly.  Raw strings are handled
 * well enough for this codebase (delimiter-less R"(...)" form).
 */
std::string
scrub(const std::string &text)
{
    std::string out(text);
    const std::size_t n = text.size();
    std::size_t i = 0;

    auto blank = [&](std::size_t from, std::size_t to) {
        for (std::size_t k = from; k < to && k < n; ++k)
            if (out[k] != '\n')
                out[k] = ' ';
    };

    while (i < n) {
        const char c = text[i];
        if (c == '/' && i + 1 < n && text[i + 1] == '/') {
            std::size_t j = text.find('\n', i);
            if (j == std::string::npos)
                j = n;
            blank(i, j);
            i = j;
        } else if (c == '/' && i + 1 < n && text[i + 1] == '*') {
            std::size_t j = text.find("*/", i + 2);
            j = (j == std::string::npos) ? n : j + 2;
            blank(i, j);
            i = j;
        } else if (c == 'R' && i + 1 < n && text[i + 1] == '"') {
            // Raw string: R"delim( ... )delim"
            const std::size_t open = text.find('(', i + 2);
            if (open == std::string::npos) {
                ++i;
                continue;
            }
            const std::string delim =
                ")" + text.substr(i + 2, open - (i + 2)) + "\"";
            std::size_t j = text.find(delim, open + 1);
            j = (j == std::string::npos) ? n : j + delim.size();
            blank(i, j);
            i = j;
        } else if (c == '"' ||
                   (c == '\'' &&
                    (i == 0 ||
                     (!std::isalnum(
                          static_cast<unsigned char>(text[i - 1])) &&
                      text[i - 1] != '_')))) {
            // The lookbehind keeps digit separators (1'000'000) from
            // being mistaken for character literals.
            const char quote = c;
            std::size_t j = i + 1;
            while (j < n && text[j] != quote) {
                if (text[j] == '\\')
                    ++j;
                ++j;
            }
            j = std::min(n, j + 1);
            // Keep the quotes themselves so adjacent tokens do not
            // merge; blank only the contents.
            blank(i + 1, j - 1);
            i = j;
        } else {
            ++i;
        }
    }
    return out;
}

} // namespace

SourceFile::SourceFile(std::string display, std::string text)
    : display_(std::move(display)), text_(std::move(text)),
      code_(scrub(text_))
{
    lineStarts_.push_back(0);
    for (std::size_t i = 0; i < text_.size(); ++i)
        if (text_[i] == '\n')
            lineStarts_.push_back(i + 1);
}

int
SourceFile::lineOf(std::size_t offset) const
{
    const auto it = std::upper_bound(lineStarts_.begin(),
                                     lineStarts_.end(), offset);
    return static_cast<int>(it - lineStarts_.begin());
}

std::string_view
SourceFile::lineText(int line) const
{
    if (line < 1 || line > static_cast<int>(lineStarts_.size()))
        return {};
    const std::size_t start =
        lineStarts_[static_cast<std::size_t>(line - 1)];
    std::size_t end = text_.find('\n', start);
    if (end == std::string::npos)
        end = text_.size();
    return std::string_view(text_).substr(start, end - start);
}

bool
SourceFile::hasWaiver(int line, std::string_view waiverTag) const
{
    for (int l : {line, line - 1}) {
        const std::string_view text = lineText(l);
        if (text.find(waiverTag) != std::string_view::npos)
            return true;
    }
    return false;
}

SourceFile
loadSource(const std::string &path, const std::string &display)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("vsgpu_lint: cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return SourceFile(display.empty() ? path : display, buf.str());
}

std::vector<Token>
tokenize(const std::string &code)
{
    // Multi-character operators that matter to the checks; longest
    // first so e.g. "<<=" never lexes as "<<" "=".
    static const std::string_view multi[] = {
        "<<=", ">>=", "->*", "...", "::", "->", "++", "--", "<<",
        ">>",  "<=",  ">=",  "==",  "!=", "&&", "||", "+=", "-=",
        "*=",  "/=",  "%=",  "&=",  "|=", "^=",
    };

    std::vector<Token> tokens;
    const std::size_t n = code.size();
    std::size_t i = 0;
    const std::string_view view(code);

    auto isIdentStart = [](char c) {
        return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
    };
    auto isIdentChar = [&](char c) {
        return isIdentStart(c) ||
               std::isdigit(static_cast<unsigned char>(c));
    };

    while (i < n) {
        const char c = code[i];
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        if (isIdentStart(c)) {
            std::size_t j = i + 1;
            while (j < n && isIdentChar(code[j]))
                ++j;
            tokens.push_back({Token::Kind::Identifier,
                              view.substr(i, j - i), i});
            i = j;
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t j = i + 1;
            while (j < n && (isIdentChar(code[j]) || code[j] == '.' ||
                             ((code[j] == '+' || code[j] == '-') &&
                              (code[j - 1] == 'e' ||
                               code[j - 1] == 'E'))))
                ++j;
            tokens.push_back(
                {Token::Kind::Number, view.substr(i, j - i), i});
            i = j;
            continue;
        }
        bool matched = false;
        for (std::string_view op : multi) {
            if (view.substr(i, op.size()) == op) {
                tokens.push_back({Token::Kind::Punct, op.empty()
                                      ? op
                                      : view.substr(i, op.size()),
                                  i});
                i += op.size();
                matched = true;
                break;
            }
        }
        if (!matched) {
            tokens.push_back(
                {Token::Kind::Punct, view.substr(i, 1), i});
            ++i;
        }
    }
    return tokens;
}

namespace
{

bool
pathContains(std::string_view display, std::string_view needle)
{
    return display.find(needle) != std::string_view::npos;
}

bool
endsWith(std::string_view s, std::string_view suffix)
{
    return s.size() >= suffix.size() &&
           s.substr(s.size() - suffix.size()) == suffix;
}

} // namespace

bool
checkAppliesTo(Check check, std::string_view display)
{
    switch (check) {
      case Check::UnitSafety: {
        // Converted public headers only: the modules whose interfaces
        // the Quantity migration covers.
        if (!endsWith(display, ".hh"))
            return false;
        for (std::string_view mod :
             {"src/circuit/", "src/pdn/", "src/ivr/", "src/power/",
              "src/sim/", "src/control/", "src/hypervisor/",
              "src/common/units.hh"}) {
            if (pathContains(display, mod))
                return true;
        }
        return false;
      }
      case Check::Determinism:
        // Simulation code: everything under src/.  Benches and tests
        // may time themselves; the simulator must not.
        return pathContains(display, "src/");
      case Check::Contracts:
        return true;
      case Check::RawEscape: {
        // Simulation and modelling code only; the numeric core is
        // the legitimate home of raw() conversions.  cosim.cc and
        // pds_setup.cc sit at the solver boundary (they assemble the
        // per-step current vectors and netlist stamps), as do the
        // verifier and the circuit layer itself.
        if (!pathContains(display, "src/"))
            return false;
        for (std::string_view allowed :
             {"src/circuit/", "src/verify/",
              "src/common/quantity.hh", "src/common/check.hh",
              "src/sim/cosim.cc", "src/sim/pds_setup.cc"}) {
            if (pathContains(display, allowed))
                return false;
        }
        return true;
      }
    }
    return false;
}

void
runChecks(const SourceFile &src, const std::vector<Check> &checks,
          const CheckOptions &opts, bool ignoreScope,
          std::vector<Diagnostic> &out)
{
    for (Check check : checks) {
        if (!ignoreScope && !checkAppliesTo(check, src.display()))
            continue;
        switch (check) {
          case Check::UnitSafety:
            checkUnitSafety(src, out);
            break;
          case Check::Determinism:
            checkDeterminism(src, opts, out);
            break;
          case Check::Contracts:
            checkContracts(src, out);
            break;
          case Check::RawEscape:
            checkRawEscape(src, out);
            break;
        }
    }
}

} // namespace vsgpu::lint
