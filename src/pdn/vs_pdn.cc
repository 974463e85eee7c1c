#include "pdn/vs_pdn.hh"

#include <string>

#include "common/logging.hh"

namespace vsgpu
{

VsPdn::VsPdn(const VsPdnOptions &options)
    : options_(options)
{
    build();
}

void
VsPdn::build()
{
    const PdnParams &p = options_.params;
    const int layers = options_.numLayers;
    const int cols = options_.numColumns;
    panicIfNot(layers >= 2 && cols >= 1,
               "stacking needs >= 2 layers and >= 1 column");

    // Supply path: source -> board RL -> package RL -> per-column C4
    // into the top boundary rail; mirrored return path from the bottom
    // boundary rail to ground.
    const NodeId srcTop = net_.allocNode("vdd_src");
    const NodeId boardTop = net_.allocNode("vdd_board");
    const NodeId boardMidTop = net_.allocNode("vdd_board_rl");
    const NodeId pkgTop = net_.allocNode("vdd_pkg");
    const NodeId pkgMidTop = net_.allocNode("vdd_pkg_rl");

    const NodeId boardGnd = net_.allocNode("gnd_board");
    const NodeId boardMidGnd = net_.allocNode("gnd_board_rl");
    const NodeId pkgGnd = net_.allocNode("gnd_pkg");
    const NodeId pkgMidGnd = net_.allocNode("gnd_pkg_rl");

    supplyIdx_ = net_.addVoltageSource(srcTop, Netlist::ground,
                                       options_.supplyVolts);

    // VDD side board and package parasitics.
    net_.addResistor(srcTop, boardMidTop, p.boardR, "r_board_vdd");
    net_.addInductor(boardMidTop, boardTop, p.boardL);
    net_.addResistor(boardTop, pkgMidTop, p.packageR, "r_pkg_vdd");
    net_.addInductor(pkgMidTop, pkgTop, p.packageL);

    // Ground-return board and package parasitics.
    net_.addResistor(pkgGnd, pkgMidGnd, p.packageR, "r_pkg_gnd");
    net_.addInductor(pkgMidGnd, boardGnd, p.packageL);
    net_.addResistor(boardGnd, boardMidGnd, p.boardR, "r_board_gnd");
    net_.addInductor(boardMidGnd, Netlist::ground, p.boardL);

    // Bulk decap across the board rails, package decap across the
    // package rails, each with series ESR via an internal node.
    const NodeId bulkMid = net_.allocNode("bulk_esr");
    net_.addCapacitor(boardTop, bulkMid, p.bulkC, options_.supplyVolts);
    net_.addResistor(bulkMid, boardGnd, p.bulkEsr, "r_bulk_esr");

    const NodeId pkgCapMid = net_.allocNode("pkgcap_esr");
    net_.addCapacitor(pkgTop, pkgCapMid, p.packageC,
                      options_.supplyVolts);
    net_.addResistor(pkgCapMid, pkgGnd, p.packageEsr, "r_pkgcap_esr");

    // Boundary rails: level 0 = chip ground rail .. level 4 = VDD rail.
    boundary_.assign(static_cast<std::size_t>(layers + 1),
                     std::vector<NodeId>(static_cast<std::size_t>(cols)));
    for (int level = 0; level <= layers; ++level) {
        for (int c = 0; c < cols; ++c) {
            boundary_[static_cast<std::size_t>(level)]
                     [static_cast<std::size_t>(c)] =
                net_.allocNode("b" + std::to_string(level) + "_" +
                               std::to_string(c));
        }
    }

    // C4 + top-metal connection per column at the top and bottom.
    for (int c = 0; c < cols; ++c) {
        const NodeId midT = net_.allocNode("c4t_rl");
        net_.addResistor(pkgTop, midT, p.c4R, "r_c4_vdd");
        net_.addInductor(midT, boundaryNode(layers, c), p.c4L);

        const NodeId midB = net_.allocNode("c4b_rl");
        net_.addResistor(boundaryNode(0, c), midB, p.c4R, "r_c4_gnd");
        net_.addInductor(midB, pkgGnd, p.c4L);
    }

    // Horizontal on-chip grid: adjacent columns chained at each level.
    for (int level = 0; level <= layers; ++level) {
        for (int c = 0; c + 1 < cols; ++c) {
            net_.addResistor(boundaryNode(level, c),
                             boundaryNode(level, c + 1), p.gridR,
                             "r_grid");
        }
    }

    // SM loads: current source + linearized load resistor + decap.
    const Volts layerVolts = nominalLayerVolts();
    smSource_.resize(static_cast<std::size_t>(numSms()));
    for (int sm = 0; sm < numSms(); ++sm) {
        const NodeId top = smTopNode(sm);
        const NodeId bottom = smBottomNode(sm);
        const Amps nominalAmps =
            p.smNominalPower / p.smNominalVoltage;

        smSource_[static_cast<std::size_t>(sm)] = net_.addCurrentSource(
            top, bottom,
            options_.includeLoadResistors ? Amps{} : nominalAmps,
            "i_sm" + std::to_string(sm));

        if (options_.includeLoadResistors) {
            loadResIdx_.push_back(net_.addResistor(
                top, bottom, p.smLoadOhms(),
                "r_sm" + std::to_string(sm)));
        }

        const NodeId capMid =
            net_.allocNode("decap" + std::to_string(sm));
        net_.addCapacitor(top, capMid, p.smDecapC, layerVolts);
        net_.addResistor(capMid, bottom, p.smDecapEsr, "r_decap_esr");
    }

    // Distributed CR-IVR (averaged): three equalizer cells per column
    // spanning each adjacent layer pair.
    if (options_.crIvrEffOhms > Ohms{}) {
        for (int c = 0; c < cols; ++c) {
            for (int level = layers; level >= 2; --level) {
                equalizerIdx_.push_back(net_.addEqualizer(
                    boundaryNode(level, c), boundaryNode(level - 1, c),
                    boundaryNode(level - 2, c), options_.crIvrEffOhms,
                    "crivr_c" + std::to_string(c)));
                if (options_.crIvrFlyCapF > Farads{}) {
                    // Flying caps double as Cfly/2 of decoupling on
                    // each of the two layers the cell spans.
                    const Farads half = options_.crIvrFlyCapF / 2.0;
                    const NodeId mid1 = net_.allocNode("fly_esr");
                    net_.addCapacitor(boundaryNode(level, c), mid1,
                                      half, layerVolts);
                    net_.addResistor(mid1, boundaryNode(level - 1, c),
                                     p.smDecapEsr, "r_fly_esr");
                    const NodeId mid2 = net_.allocNode("fly_esr");
                    net_.addCapacitor(boundaryNode(level - 1, c), mid2,
                                      half, layerVolts);
                    net_.addResistor(mid2, boundaryNode(level - 2, c),
                                     p.smDecapEsr, "r_fly_esr");
                }
            }
        }
    }

    // Topology is final: renumber into a fill-reducing elimination
    // order (allocation order above follows the supply path, which
    // is near-pessimal for LU fill) and remap the cached rail ids.
    const std::vector<NodeId> oldToNew = net_.renumberMinDegree();
    for (auto &level : boundary_)
        for (NodeId &node : level)
            node = oldToNew[static_cast<std::size_t>(node)];
    smRail_.reserve(static_cast<std::size_t>(numSms()));
    for (int sm = 0; sm < numSms(); ++sm)
        smRail_.push_back({smTopNode(sm), smBottomNode(sm)});
}

NodeId
VsPdn::boundaryNode(int level, int column) const
{
    panicIfNot(level >= 0 && level <= layers(),
               "bad boundary level ", level);
    panicIfNot(column >= 0 && column < columns(),
               "bad boundary column ", column);
    return boundary_[static_cast<std::size_t>(level)]
                    [static_cast<std::size_t>(column)];
}

NodeId
VsPdn::smTopNode(int sm) const
{
    panicIfNot(sm >= 0 && sm < numSms(), "bad SM index ", sm);
    return boundaryNode(layers() - layerOf(sm), columnOf(sm));
}

NodeId
VsPdn::smBottomNode(int sm) const
{
    panicIfNot(sm >= 0 && sm < numSms(), "bad SM index ", sm);
    return boundaryNode(layers() - 1 - layerOf(sm), columnOf(sm));
}

int
VsPdn::smCurrentSource(int sm) const
{
    panicIfNot(sm >= 0 && sm < numSms(), "bad SM index ", sm);
    return smSource_[static_cast<std::size_t>(sm)];
}

} // namespace vsgpu
