/**
 * @file
 * SARIF 2.1.0 output for vsgpu_lint (GitHub code scanning).
 *
 * One run, one driver ("vsgpu_lint"), one rule per distinct
 * diagnostic id — the dotted semantic ids (unit-flow.mixed-units)
 * or the family name for the token-level families.  Locations use
 * the repo-relative display paths with uriBaseId %SRCROOT% so code
 * scanning anchors them to the checkout root.
 */

#include "lint.hh"

#include <algorithm>
#include <map>
#include <ostream>
#include <vector>

namespace vsgpu::lint
{

namespace
{

void
jsonString(std::ostream &os, std::string_view s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\r':
            os << "\\r";
            break;
          case '\t':
            os << "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char hex[] = "0123456789abcdef";
                os << "\\u00" << hex[(c >> 4) & 0xf]
                   << hex[c & 0xf];
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

std::string
ruleIdOf(const Diagnostic &diag)
{
    return diag.id.empty() ? std::string(checkName(diag.check))
                           : diag.id;
}

} // namespace

void
writeSarif(std::ostream &os, const std::vector<Diagnostic> &diags)
{
    // Deterministic output regardless of family execution order:
    // results sorted by (ruleId, file, line, column), identical
    // locations deduplicated (two scan paths reaching one finding
    // must not double-report to code scanning).
    std::vector<Diagnostic> sorted = diags;
    std::stable_sort(
        sorted.begin(), sorted.end(),
        [](const Diagnostic &a, const Diagnostic &b) {
            const std::string ra = ruleIdOf(a);
            const std::string rb = ruleIdOf(b);
            if (ra != rb)
                return ra < rb;
            if (a.file != b.file)
                return a.file < b.file;
            if (a.line != b.line)
                return a.line < b.line;
            return a.column < b.column;
        });
    sorted.erase(std::unique(sorted.begin(), sorted.end(),
                             [](const Diagnostic &a,
                                const Diagnostic &b) {
                                 return ruleIdOf(a) ==
                                            ruleIdOf(b) &&
                                        a.file == b.file &&
                                        a.line == b.line &&
                                        a.column == b.column &&
                                        a.message == b.message;
                             }),
                 sorted.end());

    // Rules: one per distinct ruleId, in sorted order.
    std::map<std::string, std::string> rules; // id -> family name
    for (const Diagnostic &diag : sorted)
        rules.emplace(ruleIdOf(diag),
                      std::string(checkName(diag.check)));

    os << "{\n"
          "  \"$schema\": "
          "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
          "  \"version\": \"2.1.0\",\n"
          "  \"runs\": [\n"
          "    {\n"
          "      \"tool\": {\n"
          "        \"driver\": {\n"
          "          \"name\": \"vsgpu_lint\",\n"
          "          \"informationUri\": "
          "\"docs/static_analysis.md\",\n"
          "          \"rules\": [\n";
    {
        bool first = true;
        for (const auto &[id, family] : rules) {
            os << (first ? "" : ",\n") << "            {\"id\": ";
            jsonString(os, id);
            os << ", \"shortDescription\": {\"text\": ";
            jsonString(os, family + " family");
            os << "}}";
            first = false;
        }
    }
    os << "\n          ]\n"
          "        }\n"
          "      },\n"
          "      \"results\": [\n";
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        const Diagnostic &diag = sorted[i];
        os << "        {\"ruleId\": ";
        jsonString(os, ruleIdOf(diag));
        os << ", \"level\": \"warning\", \"message\": {\"text\": ";
        jsonString(os, diag.message);
        os << "}, \"locations\": [{\"physicalLocation\": "
              "{\"artifactLocation\": {\"uri\": ";
        jsonString(os, diag.file);
        os << ", \"uriBaseId\": \"%SRCROOT%\"}, \"region\": "
              "{\"startLine\": "
           << (diag.line > 0 ? diag.line : 1);
        if (diag.column > 0)
            os << ", \"startColumn\": " << diag.column;
        os << "}}}]}";
        os << (i + 1 < sorted.size() ? ",\n" : "\n");
    }
    os << "      ]\n"
          "    }\n"
          "  ]\n"
          "}\n";
}

} // namespace vsgpu::lint
