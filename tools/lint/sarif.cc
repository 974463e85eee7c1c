/**
 * @file
 * SARIF 2.1.0 output for vsgpu_lint (GitHub code scanning).
 *
 * One run, one driver ("vsgpu_lint"), one rule per family that
 * fired, its id the family name.  Locations use the repo-relative
 * display paths with uriBaseId %SRCROOT% so code scanning anchors
 * them to the checkout root.
 */

#include "lint.hh"

#include <algorithm>
#include <ostream>
#include <set>
#include <string>
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

} // namespace

void
writeSarif(std::ostream &os, const std::vector<Diagnostic> &diags)
{
    // Deterministic output regardless of family execution order:
    // results sorted by (ruleId, file, line), identical locations
    // deduplicated (two scan paths reaching one finding must not
    // double-report to code scanning).
    std::vector<Diagnostic> sorted = diags;
    std::stable_sort(
        sorted.begin(), sorted.end(),
        [](const Diagnostic &a, const Diagnostic &b) {
            const std::string_view ra = checkName(a.check);
            const std::string_view rb = checkName(b.check);
            if (ra != rb)
                return ra < rb;
            if (a.file != b.file)
                return a.file < b.file;
            return a.line < b.line;
        });
    sorted.erase(std::unique(sorted.begin(), sorted.end(),
                             [](const Diagnostic &a,
                                const Diagnostic &b) {
                                 return a.check == b.check &&
                                        a.file == b.file &&
                                        a.line == b.line &&
                                        a.message == b.message;
                             }),
                 sorted.end());

    // Rules: one per family that fired, in ruleId order.
    std::set<std::string_view> rules;
    for (const Diagnostic &diag : sorted)
        rules.insert(checkName(diag.check));

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
        for (std::string_view id : rules) {
            os << (first ? "" : ",\n") << "            {\"id\": ";
            jsonString(os, id);
            os << ", \"shortDescription\": {\"text\": ";
            jsonString(os, std::string(id) + " family");
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
        jsonString(os, checkName(diag.check));
        os << ", \"level\": \"warning\", \"message\": {\"text\": ";
        jsonString(os, diag.message);
        os << "}, \"locations\": [{\"physicalLocation\": "
              "{\"artifactLocation\": {\"uri\": ";
        jsonString(os, diag.file);
        os << ", \"uriBaseId\": \"%SRCROOT%\"}, \"region\": "
              "{\"startLine\": "
           << (diag.line > 0 ? diag.line : 1) << "}}}]}";
        os << (i + 1 < sorted.size() ? ",\n" : "\n");
    }
    os << "      ]\n"
          "    }\n"
          "  ]\n"
          "}\n";
}

} // namespace vsgpu::lint
