#include "obs/manifest.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "obs/json.hh"

namespace vsgpu::obs
{

namespace
{

std::string
buildFlavour()
{
    std::string out =
#ifdef NDEBUG
        "release";
#else
        "debug";
#endif
#if defined(__SANITIZE_ADDRESS__)
    out += "+asan";
#endif
#if defined(__SANITIZE_THREAD__)
    out += "+tsan";
#endif
#if defined(VSGPU_UBSAN_BUILD)
    out += "+ubsan";
#endif
    return out;
}

} // namespace

std::string
fnv1a64Hex(std::string_view bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

std::string
configFingerprint(std::vector<std::string> keys)
{
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    std::string all;
    for (const std::string &k : keys) {
        all += k;
        all += '\x1f'; // separator outside any key alphabet
    }
    return fnv1a64Hex(all);
}

Manifest
makeManifest(std::string tool)
{
    Manifest m;
    m.valid = true;
    m.tool = std::move(tool);
#ifdef VSGPU_VERSION_STRING
    m.version = VSGPU_VERSION_STRING;
#else
    m.version = "unversioned";
#endif
    m.build = buildFlavour();
    return m;
}

std::vector<std::pair<std::string, std::string>>
Manifest::toPairs() const
{
    std::vector<std::pair<std::string, std::string>> out;
    out.emplace_back("tool", tool);
    out.emplace_back("version", version);
    out.emplace_back("build", build);
    out.emplace_back("subject", subject);
    out.emplace_back("config_fingerprint", configFingerprint);
    out.emplace_back("seed", std::to_string(seed));
    out.emplace_back("scale", jsonNumber(scale));
    return out;
}

void
writeManifestJson(const Manifest &manifest, std::ostream &os,
                  const std::string &indent)
{
    const auto pairs = manifest.toPairs();
    os << "{";
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        os << (i ? "," : "") << "\n"
           << indent << "  \"" << pairs[i].first << "\": \""
           << pairs[i].second << "\"";
    }
    os << "\n" << indent << "}";
}

Manifest
readManifestJson(JsonReader &in)
{
    Manifest m;
    m.valid = true;
    in.object([&](const std::string &key) {
        const std::string value = in.string();
        if (key == "tool")
            m.tool = value;
        else if (key == "version")
            m.version = value;
        else if (key == "build")
            m.build = value;
        else if (key == "subject")
            m.subject = value;
        else if (key == "config_fingerprint")
            m.configFingerprint = value;
        else if (key == "seed")
            m.seed = std::stoull(value);
        else if (key == "scale")
            m.scale = std::stod(value);
        else
            in.fail("unknown manifest key '", key, "'");
    });
    return m;
}

} // namespace vsgpu::obs
