#include "bench/scenarios/summary.hh"

#include <fstream>
#include <ostream>
#include <sstream>

#include "common/check.hh"
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
           << ", \"value\": " << obs::jsonNumber(m.value)
           << ", \"tol\": " << obs::jsonNumber(m.tol) << "}";
    }
    os << "\n  ]";
    if (!summary.taskRecords.empty()) {
        os << ",\n  \"tasks\": [";
        for (std::size_t i = 0; i < summary.taskRecords.size(); ++i) {
            const SummaryTask &t = summary.taskRecords[i];
            os << (i ? ",\n" : "\n") << "    {\"batch\": " << t.batch
               << ", \"task\": " << t.task
               << ", \"wall_ms\": " << obs::jsonNumber(t.wallMs)
               << "}";
        }
        os << "\n  ]";
    }
    os << "\n}\n";
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
                    else if (field == "tol")
                        m.tol = in.number();
                    else
                        in.fail("unknown metric key '", field, "'");
                });
            });
        } else if (key == "tasks") {
            in.array([&](std::size_t) {
                SummaryTask &t = out.taskRecords.emplace_back();
                in.object([&](const std::string &field) {
                    if (field == "batch")
                        t.batch = static_cast<int>(in.uint());
                    else if (field == "task")
                        t.task = static_cast<int>(in.uint());
                    else if (field == "wall_ms")
                        t.wallMs = in.number();
                    else
                        in.fail("unknown task key '", field, "'");
                });
            });
        } else {
            in.fail("unknown key '", key, "'");
        }
    });
    return out;
}

Summary
readSummaryFile(const std::string &path)
{
    std::ifstream in(path);
    panicIfNot(in.good(), "cannot open summary file ", path);
    return readSummaryJson(in);
}

} // namespace vsgpu::scen
