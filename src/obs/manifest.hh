/**
 * @file
 * Run manifest: the provenance block stamped into every machine-
 * readable output (stats JSON, scenario summary JSON).
 *
 * A manifest answers "what exactly produced this file": tool and
 * version, build flavour (optimization + sanitizers), the electrical
 * configuration fingerprint (FNV-1a over the exact pdsSetupKey bytes
 * of every configuration the run touched), the base RNG seed, and
 * the workload scale.  It deliberately contains nothing that varies
 * across reruns or --jobs values — no timestamps, no hostnames, no
 * thread counts — so manifest-stamped outputs stay bitwise
 * reproducible.
 */

#ifndef VSGPU_OBS_MANIFEST_HH
#define VSGPU_OBS_MANIFEST_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vsgpu::obs
{

/** Provenance of one run. */
struct Manifest
{
    /** False for a default-constructed manifest; dumps omit it. */
    bool valid = false;

    std::string tool;    ///< producing binary ("vsgpu", bench name)
    std::string version; ///< project version (VSGPU_VERSION_STRING)
    std::string build;   ///< "release" / "debug" [+asan+ubsan+tsan]

    /** What ran: scenario name or CLI subcommand + benchmark. */
    std::string subject;

    /** FNV-1a 64 hex over the pdsSetupKey bytes of every electrical
     *  configuration the run used (sorted, deduplicated). */
    std::string configFingerprint;

    std::uint64_t seed = 0; ///< base RNG seed of the run
    double scale = 1.0;     ///< workload scale

    /** Ordered key/value view for embedding in other documents. */
    std::vector<std::pair<std::string, std::string>> toPairs() const;
};

/** FNV-1a 64-bit hash, rendered as 16 lowercase hex digits. */
std::string fnv1a64Hex(std::string_view bytes);

/** Fingerprint of a set of configuration keys (sorted, deduped). */
std::string configFingerprint(std::vector<std::string> keys);

/** @return a manifest pre-filled with tool/version/build. */
Manifest makeManifest(std::string tool);

/** Serialize as a JSON object (no trailing newline). */
void writeManifestJson(const Manifest &manifest, std::ostream &os,
                       const std::string &indent);

class JsonReader;

/** Read an object written by writeManifestJson() (panics on an
 *  unknown key). */
Manifest readManifestJson(JsonReader &in);

} // namespace vsgpu::obs

#endif // VSGPU_OBS_MANIFEST_HH
