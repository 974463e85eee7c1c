#include "bench/scenarios/summary.hh"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <set>
#include <sstream>

#include "common/logging.hh"
#include "obs/json.hh"

namespace vsgpu::scen
{

const SummaryMetric *
Summary::find(const std::string &name) const
{
    for (const SummaryMetric &m : metrics)
        if (m.name == name)
            return &m;
    return nullptr;
}

void
writeSummaryJson(const Summary &summary, std::ostream &os)
{
    os << "{\n"
       << "  \"scenario\": " << obs::jsonQuote(summary.scenario)
       << ",\n"
       << "  \"scale\": " << obs::jsonNumber(summary.scale) << ",\n";
    if (summary.manifest.valid) {
        os << "  \"manifest\": ";
        obs::writeManifestJson(summary.manifest, os, "  ");
        os << ",\n";
    }
    os << "  \"metrics\": [";
    for (std::size_t i = 0; i < summary.metrics.size(); ++i) {
        const SummaryMetric &m = summary.metrics[i];
        os << (i ? ",\n" : "\n")
           << "    {\"name\": " << obs::jsonQuote(m.name)
           << ", \"value\": " << obs::jsonNumber(m.value) << "}";
    }
    os << "\n  ]\n}\n";
}

Summary
readSummaryJson(std::istream &is)
{
    std::ostringstream buf;
    buf << is.rdbuf();
    obs::JsonReader in(buf.str(), "summary JSON");
    Summary out;
    in.object([&](const std::string &key) {
        if (key == "scenario") {
            out.scenario = in.string();
        } else if (key == "scale") {
            out.scale = in.number();
        } else if (key == "manifest") {
            out.manifest = obs::readManifestJson(in);
        } else if (key == "metrics") {
            in.array([&](std::size_t) {
                SummaryMetric &m = out.metrics.emplace_back();
                in.object([&](const std::string &field) {
                    if (field == "name")
                        m.name = in.string();
                    else if (field == "value")
                        m.value = in.number();
                    else
                        in.fail("unknown metric key '", field, "'");
                });
            });
        } else {
            in.fail("unknown key '", key, "'");
        }
    });
    return out;
}

std::string
summaryDiff(const Summary &recorded, const Summary &measured)
{
    std::ostringstream os;
    for (const SummaryMetric &want : recorded.metrics) {
        const SummaryMetric *got = measured.find(want.name);
        if (got == nullptr) {
            os << want.name << ": removed (recorded "
               << obs::jsonNumber(want.value) << ")\n";
        } else if (got->value != want.value) {
            os << want.name << ": recorded "
               << obs::jsonNumber(want.value) << ", measured "
               << obs::jsonNumber(got->value) << ", relative change "
               << (got->value - want.value) / std::abs(want.value)
               << "\n";
        }
    }
    for (const SummaryMetric &got : measured.metrics)
        if (recorded.find(got.name) == nullptr)
            os << got.name << ": added (measured "
               << obs::jsonNumber(got.value) << ")\n";
    return os.str();
}

std::map<std::string, std::vector<std::string>>
readAuditFindings(std::istream &is)
{
    std::map<std::string, std::vector<std::string>> byScenario;
    for (std::string line; std::getline(is, line);) {
        if (line.empty() || line[0] == '#')
            continue;
        panicIfNot(std::count(line.begin(), line.end(), '|') == 4,
                   "audit finding '", line,
                   "' is not scenario|pds-kind@area|severity|id|subject");
        byScenario[line.substr(0, line.find('|'))].push_back(line);
    }
    return byScenario;
}

std::string
auditFindingsDiff(const std::vector<std::string> &reviewed,
                  const std::vector<std::string> &measured)
{
    const std::set<std::string> want(reviewed.begin(), reviewed.end());
    const std::set<std::string> got(measured.begin(), measured.end());
    std::ostringstream os;
    for (const std::string &f : got)
        if (want.count(f) == 0)
            os << "unexpected: " << f << "\n";
    for (const std::string &f : want)
        if (got.count(f) == 0)
            os << "missing: " << f << "\n";
    return os.str();
}

} // namespace vsgpu::scen
