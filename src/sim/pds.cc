#include "sim/pds.hh"

#include "common/check.hh"
#include "common/logging.hh"
#include "ivr/efficiency.hh"

namespace vsgpu
{

const char *
pdsName(PdsKind kind)
{
    switch (kind) {
      case PdsKind::ConventionalVrm: return "single-layer VRM";
      case PdsKind::SingleLayerIvr:  return "single-layer IVR";
      case PdsKind::VsCircuitOnly:   return "VS circuit-only";
      case PdsKind::VsCrossLayer:    return "VS cross-layer";
    }
    return "?";
}

bool
isVoltageStacked(PdsKind kind)
{
    return kind == PdsKind::VsCircuitOnly ||
           kind == PdsKind::VsCrossLayer;
}

PdsOptions
defaultPds(PdsKind kind)
{
    PdsOptions options;
    options.kind = kind;
    switch (kind) {
      case PdsKind::ConventionalVrm:
      case PdsKind::SingleLayerIvr:
        options.ivrAreaFraction = 0.0;
        break;
      case PdsKind::VsCircuitOnly:
        // Sized for a worst-case guarantee without architectural
        // help (paper: 912 mm^2 = 1.72 x GPU die).
        options.ivrAreaFraction =
            config::circuitOnlyIvrArea / config::gpuDieArea;
        break;
      case PdsKind::VsCrossLayer:
        options.ivrAreaFraction = config::defaultIvrAreaFraction;
        options.smoothingEnabled = true;
        break;
    }
    return options;
}

Area
pdsAreaOverhead(const PdsOptions &options)
{
    const Area overhead = [&options]() -> Area {
        switch (options.kind) {
          case PdsKind::ConventionalVrm:
            return Area{}; // board-level, no die area
          case PdsKind::SingleLayerIvr:
            return SingleIvrModel::area();
          case PdsKind::VsCircuitOnly:
            return options.ivrArea();
          case PdsKind::VsCrossLayer: {
            const VsOverheads ov;
            return options.ivrArea() + ov.controllerArea +
                   ov.filterArea * static_cast<double>(config::numSMs) +
                   options.controller.dcc.area *
                       static_cast<double>(config::numSMs);
          }
        }
        panic("unknown PDS kind");
    }();
    VSGPU_ENSURES(overhead >= Area{}, "negative PDS area overhead");
    return overhead;
}

} // namespace vsgpu
