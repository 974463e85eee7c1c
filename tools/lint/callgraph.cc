/**
 * @file
 * Call graph over the symbol index (semantic.hh): name-resolved call
 * edges and fixpoint side-effect propagation so a task body's writes
 * are visible any bounded number of calls deep.
 *
 * Resolution is by unqualified name with overloads merged — every
 * function sharing the callee's name receives an edge.  That is
 * deliberately conservative in the "more edges" direction, which the
 * families use only to widen effect summaries; a spurious edge can at
 * worst surface a finding against a call path that names the wrong
 * overload, never hide one.
 */

#include "semantic.hh"

namespace vsgpu::lint
{

CallGraph
buildCallGraph(const SymbolIndex &index)
{
    const std::size_t n = index.functions.size();
    CallGraph graph;
    graph.callees.resize(n);

    for (std::size_t i = 0; i < n; ++i) {
        std::set<int> edges;
        for (const std::string &callee : index.functions[i].calls) {
            const auto it = index.byName.find(callee);
            if (it == index.byName.end())
                continue;
            for (int id : it->second)
                if (static_cast<std::size_t>(id) != i)
                    edges.insert(id);
        }
        graph.callees[i].assign(edges.begin(), edges.end());
    }
    return graph;
}

void
propagateEffects(SymbolIndex &index, const CallGraph &graph,
                 int rounds)
{
    const std::size_t n = index.functions.size();
    for (int round = 0; round < rounds; ++round) {
        bool changed = false;
        for (std::size_t i = 0; i < n; ++i) {
            FunctionDef &fn = index.functions[i];
            for (int calleeId : graph.callees[i]) {
                const FunctionDef &callee =
                    index.functions[static_cast<std::size_t>(
                        calleeId)];
                // A lock-taking callee serializes its own writes;
                // they are not a concurrency hazard for the caller.
                if (callee.takesLock)
                    continue;
                for (const std::string &g : callee.writesGlobals) {
                    if (fn.writesGlobals.insert(g).second) {
                        const auto via = callee.effectVia.find(g);
                        fn.effectVia[g] =
                            via == callee.effectVia.end()
                                ? "via " + callee.name
                                : "via " + callee.name + " " +
                                      via->second.substr(4);
                        changed = true;
                    }
                }
                if (callee.writesFields && !fn.writesFields &&
                    !callee.className.empty() &&
                    callee.className == fn.className) {
                    fn.writesFields = true;
                    changed = true;
                }
            }
            // FP accumulations resolve strictly, per call NAME: a
            // call contributes a shared accumulator only when EVERY
            // function sharing that name accumulates it.  Name-level
            // overload merging widens the closure, but it must only
            // ever suppress — it must never manufacture a finding
            // against the overload that was not called (an integer
            // Counters::add must not inherit the FP state of
            // RunningStats::add just because both are named "add").
            for (const std::string &calleeName : fn.calls) {
                const auto cit = index.byName.find(calleeName);
                if (cit == index.byName.end())
                    continue;
                std::vector<const FunctionDef *> cands;
                for (int id : cit->second)
                    if (static_cast<std::size_t>(id) != i)
                        cands.push_back(
                            &index.functions[static_cast<std::size_t>(
                                id)]);
                if (cands.empty())
                    continue;
                for (const std::string &g :
                     cands.front()->fpAccumulates) {
                    bool allAgree = true;
                    for (std::size_t k = 1;
                         k < cands.size() && allAgree; ++k)
                        allAgree =
                            cands[k]->fpAccumulates.count(g) != 0;
                    if (!allAgree)
                        continue;
                    if (fn.fpAccumulates.insert(g).second) {
                        const auto via =
                            cands.front()->fpVia.find(g);
                        fn.fpVia[g] =
                            via == cands.front()->fpVia.end()
                                ? "via " + calleeName
                                : "via " + calleeName + " " +
                                      via->second.substr(4);
                        changed = true;
                    }
                }
            }
            // Parameter forwarding: if this function passes its own
            // parameter p as argument a of a callee that writes
            // through its parameter a, then p is written too.
            for (const FunctionDef::ArgFlow &flow : fn.forwards) {
                const auto it = index.byName.find(flow.callee);
                if (it == index.byName.end())
                    continue;
                for (int id : it->second) {
                    const FunctionDef &callee =
                        index.functions[static_cast<std::size_t>(
                            id)];
                    if (callee.takesLock)
                        continue;
                    if (callee.writesParams.count(flow.arg) &&
                        fn.writesParams.insert(flow.param).second)
                        changed = true;
                }
            }
        }
        if (!changed)
            break;
    }
}

} // namespace vsgpu::lint
