/**
 * @file
 * Interprocedural propagation over the symbol index (semantic.hh):
 * fixpoint widening of each function's FP accumulations with its
 * callees', so an accumulation any bounded number of calls below a
 * task body is visible at the call site.
 *
 * Calls resolve by unqualified name, and every function sharing a
 * name is a candidate.  A name contributes an accumulation only when
 * every candidate has it: name-level overload merging may suppress a
 * finding, but it never manufactures one against the overload that
 * was not called.
 */

#include "semantic.hh"

namespace vsgpu::lint
{

void
propagateEffects(SymbolIndex &index, int rounds)
{
    const std::size_t n = index.functions.size();
    for (int round = 0; round < rounds; ++round) {
        bool changed = false;
        for (std::size_t i = 0; i < n; ++i) {
            FunctionDef &fn = index.functions[i];
            // An integer Counters::add must not inherit the FP state
            // of RunningStats::add just because both are named "add".
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
        }
        if (!changed)
            break;
    }
}

} // namespace vsgpu::lint
