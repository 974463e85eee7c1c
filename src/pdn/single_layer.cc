#include "pdn/single_layer.hh"

#include <string>

#include "common/logging.hh"

namespace vsgpu
{

SingleLayerPdn::SingleLayerPdn(const SingleLayerOptions &options)
    : options_(options)
{
    build();
}

void
SingleLayerPdn::build()
{
    const PdnParams &p = options_.params;
    const int rows = config::numLayers;     // 4x4 physical grid
    const int cols = config::smsPerLayer;

    const NodeId srcNode = net_.allocNode("vdd_src");
    supplyIdx_ = net_.addVoltageSource(srcNode, Netlist::ground,
                                       options_.supplyVolts);

    NodeId pkgNode;
    if (options_.supplyAtPackage) {
        // IVR at the point of load: regulated rail appears at the
        // package node through a small output impedance.
        pkgNode = net_.allocNode("vdd_pkg");
        net_.addResistor(srcNode, pkgNode, 0.1_mOhm, "r_ivr_out");
    } else {
        // Conventional: board + package parasitics; the ground return
        // is modeled as ideal (its parasitics are folded into the
        // supply-side values).
        const NodeId boardMid = net_.allocNode("vdd_board_rl");
        const NodeId boardNode = net_.allocNode("vdd_board");
        net_.addResistor(srcNode, boardMid, p.boardR, "r_board");
        net_.addInductor(boardMid, boardNode, p.boardL);

        const NodeId bulkMid = net_.allocNode("bulk_esr");
        net_.addCapacitor(boardNode, bulkMid, p.bulkC,
                          options_.supplyVolts);
        net_.addResistor(bulkMid, Netlist::ground, p.bulkEsr,
                         "r_bulk_esr");

        const NodeId pkgMid = net_.allocNode("vdd_pkg_rl");
        pkgNode = net_.allocNode("vdd_pkg");
        net_.addResistor(boardNode, pkgMid, p.packageR, "r_pkg");
        net_.addInductor(pkgMid, pkgNode, p.packageL);

        const NodeId pkgCapMid = net_.allocNode("pkgcap_esr");
        net_.addCapacitor(pkgNode, pkgCapMid, p.packageC,
                          options_.supplyVolts);
        net_.addResistor(pkgCapMid, Netlist::ground, p.packageEsr,
                         "r_pkgcap_esr");
    }

    // On-chip grid: 4x4 SM nodes; C4 feeds each column head.
    smNode_.resize(static_cast<std::size_t>(config::numSMs));
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            smNode_[static_cast<std::size_t>(r * cols + c)] =
                net_.allocNode("sm" + std::to_string(r * cols + c));
        }
    }
    // Every SM tile sits under its own C4 bumps; per-tile values are
    // scaled so a column's parallel combination matches the
    // per-column budget used by the stacked topology.
    for (int sm = 0; sm < config::numSMs; ++sm) {
        const NodeId mid = net_.allocNode("c4_rl");
        net_.addResistor(pkgNode, mid,
                         p.c4R * 2.5, "r_c4");
        net_.addInductor(mid, smNode(sm),
                         p.c4L * static_cast<double>(rows));
    }
    // Vertical grid within each column, horizontal grid within rows.
    for (int r = 0; r + 1 < rows; ++r)
        for (int c = 0; c < cols; ++c)
            net_.addResistor(smNode(r * cols + c),
                             smNode((r + 1) * cols + c), p.gridR,
                             "r_grid_v");
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c + 1 < cols; ++c)
            net_.addResistor(smNode(r * cols + c),
                             smNode(r * cols + c + 1), p.gridR,
                             "r_grid_h");

    // Loads.
    smSource_.resize(static_cast<std::size_t>(config::numSMs));
    for (int sm = 0; sm < config::numSMs; ++sm) {
        const NodeId node = smNode(sm);
        smSource_[static_cast<std::size_t>(sm)] = net_.addCurrentSource(
            node, Netlist::ground, Amps{},
            "i_sm" + std::to_string(sm));
        if (options_.includeLoadResistors) {
            // The linearization point scales with the rail voltage.
            const Ohms loadOhms =
                options_.supplyVolts * options_.supplyVolts /
                (p.smLoadAlpha * p.smNominalPower);
            loadResIdx_.push_back(net_.addResistor(
                node, Netlist::ground, loadOhms,
                "r_sm" + std::to_string(sm)));
        }
        const NodeId capMid =
            net_.allocNode("decap" + std::to_string(sm));
        net_.addCapacitor(node, capMid, p.smDecapC,
                          options_.supplyVolts);
        net_.addResistor(capMid, Netlist::ground, p.smDecapEsr,
                         "r_decap_esr");
    }

    // Renumber into a fill-reducing elimination order and remap the
    // cached SM rail ids (element indices are unaffected).
    const std::vector<NodeId> oldToNew = net_.renumberMinDegree();
    for (NodeId &node : smNode_)
        node = oldToNew[static_cast<std::size_t>(node)];
}

int
SingleLayerPdn::smCurrentSource(int sm) const
{
    panicIfNot(sm >= 0 && sm < config::numSMs, "bad SM index ", sm);
    return smSource_[static_cast<std::size_t>(sm)];
}

} // namespace vsgpu
