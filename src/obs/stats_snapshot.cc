#include "obs/stats_snapshot.hh"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "common/logging.hh"
#include "obs/json.hh"

namespace vsgpu::obs
{

const char *
statKindName(StatKind kind)
{
    switch (kind) {
      case StatKind::Scalar:       return "scalar";
      case StatKind::Counter:      return "counter";
      case StatKind::Formula:      return "formula";
    }
    return "?";
}

void
writeStatsJson(const StatsSnapshot &snapshot, std::ostream &os)
{
    std::vector<const SnapshotEntry *> sorted;
    sorted.reserve(snapshot.entries.size());
    for (const SnapshotEntry &e : snapshot.entries)
        sorted.push_back(&e);
    std::sort(sorted.begin(), sorted.end(),
              [](const SnapshotEntry *a, const SnapshotEntry *b) {
                  return a->name < b->name;
              });
    for (std::size_t i = 1; i < sorted.size(); ++i)
        panicIfNot(sorted[i - 1]->name != sorted[i]->name,
                   "duplicate stat: ", sorted[i]->name);

    os << "{\n";
    if (snapshot.manifest.valid) {
        os << "  \"manifest\": ";
        writeManifestJson(snapshot.manifest, os, "  ");
        os << ",\n";
    }
    if (!snapshot.profileJson.empty())
        os << "  \"profile\": " << snapshot.profileJson << ",\n";
    os << "  \"stats\": [";
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        const SnapshotEntry &e = *sorted[i];
        os << (i ? ",\n" : "\n") << "    {\"name\": " << jsonQuote(e.name)
           << ", \"kind\": \"" << statKindName(e.kind) << "\""
           << ", \"unit\": " << jsonQuote(e.unit)
           << ", \"desc\": " << jsonQuote(e.desc);
        switch (e.kind) {
          case StatKind::Scalar:
          case StatKind::Formula:
            os << ", \"value\": " << jsonNumber(e.value);
            break;
          case StatKind::Counter:
            os << ", \"value\": " << e.count;
            break;
        }
        os << "}";
    }
    os << "\n  ]\n}\n";
}

StatsSnapshot
readStatsJson(std::istream &is)
{
    std::ostringstream buf;
    buf << is.rdbuf();
    JsonReader in(buf.str(), "stats JSON");
    StatsSnapshot out;
    const auto entry = [&in](SnapshotEntry &e) {
        double value = 0.0;
        in.object([&](const std::string &key) {
            if (key == "name") {
                e.name = in.string();
            } else if (key == "kind") {
                const std::string kind = in.string();
                bool known = false;
                for (StatKind k : {StatKind::Scalar, StatKind::Counter,
                                   StatKind::Formula}) {
                    if (kind == statKindName(k)) {
                        e.kind = k;
                        known = true;
                    }
                }
                if (!known)
                    in.fail("unknown kind '", kind, "'");
            } else if (key == "unit") {
                e.unit = in.string();
            } else if (key == "desc") {
                e.desc = in.string();
            } else if (key == "value") {
                value = in.number();
            } else {
                in.fail("unknown entry key '", key, "'");
            }
        });
        if (e.kind == StatKind::Counter)
            e.count = static_cast<std::uint64_t>(value);
        else
            e.value = value;
    };
    in.object([&](const std::string &key) {
        if (key == "manifest")
            out.manifest = readManifestJson(in);
        else if (key == "profile")
            // Owned by obs/profile.hh: stored and re-emitted
            // byte-exactly, never interpreted here.
            out.profileJson = in.rawObject();
        else if (key == "stats")
            in.array([&](std::size_t) { entry(out.entries.emplace_back()); });
        else
            in.fail("unknown key '", key, "'");
    });
    return out;
}

} // namespace vsgpu::obs
