/**
 * @file
 * Baseline handling: frozen debt that does not fail the gate.
 *
 * A fingerprint is "<check>|<file>|<squeezed line text>" — content-
 * addressed, so unrelated edits that only shift line numbers do not
 * invalidate the baseline, while touching a baselined line forces
 * the author to either fix it or consciously re-baseline.
 */

#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>

namespace vsgpu::lint
{

namespace
{

/** Collapse runs of whitespace to single spaces and trim. */
std::string
squeeze(std::string_view text)
{
    std::string out;
    bool pendingSpace = false;
    for (char c : text) {
        if (std::isspace(static_cast<unsigned char>(c))) {
            pendingSpace = !out.empty();
            continue;
        }
        if (pendingSpace) {
            out.push_back(' ');
            pendingSpace = false;
        }
        out.push_back(c);
    }
    return out;
}

} // namespace

std::string
fingerprint(const Diagnostic &diag, std::string_view lineText)
{
    return std::string(checkName(diag.check)) + "|" + diag.file +
           "|" + squeeze(lineText);
}

std::vector<std::string>
loadBaseline(const std::string &path)
{
    std::vector<std::string> entries;
    std::ifstream in(path);
    if (!in)
        return entries;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        entries.push_back(line);
    }
    return entries;
}

std::vector<Diagnostic>
subtractBaseline(const std::vector<Diagnostic> &diags,
                 const std::vector<SourceFile> &sources,
                 const std::vector<std::string> &baseline)
{
    std::map<std::string, int> budget;
    for (const std::string &entry : baseline)
        ++budget[entry];

    auto lineTextOf = [&](const Diagnostic &diag) -> std::string_view {
        const auto it = std::find_if(
            sources.begin(), sources.end(), [&](const SourceFile &s) {
                return s.display() == diag.file;
            });
        return it == sources.end() ? std::string_view{}
                                   : it->lineText(diag.line);
    };

    std::vector<Diagnostic> fresh;
    for (const Diagnostic &diag : diags) {
        const std::string fp = fingerprint(diag, lineTextOf(diag));
        const auto it = budget.find(fp);
        if (it != budget.end() && it->second > 0) {
            --it->second;
            continue;
        }
        fresh.push_back(diag);
    }
    return fresh;
}

} // namespace vsgpu::lint
