/**
 * @file
 * Tests for the intraprocedural dataflow core (tools/lint/dataflow).
 *
 * The lowering from tokens to the statement IR is approximate by
 * design; these tests pin down the contract unit-flow relies on:
 * def/use extraction, CFG shape over branches and loops, and
 * fixpoint convergence of the generic taint solver (including taint
 * carried around a loop back edge).
 */

#include "dataflow.hh"
#include "lint.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace vsgpu::lint;
namespace df = vsgpu::lint::df;

namespace
{

df::Cfg
cfgOf(const std::string &body, std::vector<Token> &tokens)
{
    tokens = tokenize(body);
    return df::buildCfg(tokens, 0, tokens.size());
}

/** All statements of a CFG flattened in block order. */
std::vector<df::Stmt>
allStmts(const df::Cfg &cfg)
{
    std::vector<df::Stmt> out;
    for (const df::Block &block : cfg.blocks)
        for (const df::Stmt &stmt : block.stmts)
            out.push_back(stmt);
    return out;
}

bool
uses(const df::Stmt &stmt, const std::string &name)
{
    return std::find(stmt.uses.begin(), stmt.uses.end(), name) !=
           stmt.uses.end();
}

// ================= statement lowering =================

TEST(Dataflow, StraightLineDefsAndUses)
{
    std::vector<Token> tokens;
    const df::Cfg cfg = cfgOf("int a = 1;\n"
                              "a = c + d;\n"
                              "int b = a;\n",
                              tokens);
    ASSERT_EQ(cfg.blocks.size(), 1U);
    const auto stmts = allStmts(cfg);
    ASSERT_EQ(stmts.size(), 3U);

    EXPECT_EQ(stmts[0].defs, std::vector<std::string>{"a"});
    EXPECT_TRUE(stmts[0].declares);
    EXPECT_EQ(stmts[0].declType, "int");

    EXPECT_EQ(stmts[1].defs, std::vector<std::string>{"a"});
    EXPECT_FALSE(stmts[1].declares);
    EXPECT_TRUE(uses(stmts[1], "c"));
    EXPECT_TRUE(uses(stmts[1], "d"));

    EXPECT_EQ(stmts[2].defs, std::vector<std::string>{"b"});
    EXPECT_TRUE(stmts[2].declares);
    EXPECT_TRUE(uses(stmts[2], "a"));
}

TEST(Dataflow, MemberChainWritesAreThroughDefs)
{
    std::vector<Token> tokens;
    const df::Cfg cfg = cfgOf("p->field = 1;\n"
                              "*q = 2.0;\n"
                              "arr[k] = 3;\n",
                              tokens);
    const auto stmts = allStmts(cfg);
    ASSERT_EQ(stmts.size(), 3U);
    for (const df::Stmt &s : stmts)
        EXPECT_TRUE(s.defThrough)
            << "stmt defining " << s.defs.front();
    EXPECT_EQ(stmts[0].defs, std::vector<std::string>{"p"});
    EXPECT_EQ(stmts[1].defs, std::vector<std::string>{"q"});
    EXPECT_EQ(stmts[2].defs, std::vector<std::string>{"arr"});
}

TEST(Dataflow, CompoundAssignReadsItsTarget)
{
    std::vector<Token> tokens;
    const df::Cfg cfg = cfgOf("total += sample;\n", tokens);
    const auto stmts = allStmts(cfg);
    ASSERT_EQ(stmts.size(), 1U);
    EXPECT_EQ(stmts[0].defs, std::vector<std::string>{"total"});
    EXPECT_TRUE(uses(stmts[0], "total"));
    EXPECT_TRUE(uses(stmts[0], "sample"));
}

TEST(Dataflow, StructuredBindingDeclaresAllNames)
{
    std::vector<Token> tokens;
    const df::Cfg cfg = cfgOf("auto [lo, hi] = bounds(i);\n",
                              tokens);
    const auto stmts = allStmts(cfg);
    ASSERT_EQ(stmts.size(), 1U);
    EXPECT_TRUE(stmts[0].declares);
    const std::vector<std::string> expected = {"lo", "hi"};
    EXPECT_EQ(stmts[0].defs, expected);
}

TEST(Dataflow, CallExtractionWithReceiverAndArgRoots)
{
    std::vector<Token> tokens;
    const df::Cfg cfg =
        cfgOf("group.scalar(name).set(a + b.c);\n", tokens);
    const auto stmts = allStmts(cfg);
    ASSERT_EQ(stmts.size(), 1U);
    const auto &calls = stmts[0].calls;
    ASSERT_GE(calls.size(), 2U);
    // The chained .set call is extracted with its own arguments.
    const auto set = std::find_if(
        calls.begin(), calls.end(),
        [](const df::CallRef &c) { return c.callee == "set"; });
    ASSERT_NE(set, calls.end());
    ASSERT_EQ(set->args.size(), 1U);
    const std::vector<std::string> roots = {"a", "b"};
    EXPECT_EQ(set->args[0], roots);
}

TEST(Dataflow, RangeForRecordsContainer)
{
    std::vector<Token> tokens;
    const df::Cfg cfg = cfgOf("for (const auto &kv : samples) {\n"
                              "    last = kv;\n"
                              "}\n",
                              tokens);
    // The loop header declares the loop variable and reads the
    // container, so a tag on the container reaches the variable.
    bool found = false;
    for (const df::Stmt &s : allStmts(cfg))
        if (s.declares && s.defs == std::vector<std::string>{"kv"}) {
            found = true;
            EXPECT_TRUE(uses(s, "samples"));
        }
    EXPECT_TRUE(found);
}

// ================= CFG shape =================

TEST(Dataflow, IfElseForksAndJoins)
{
    std::vector<Token> tokens;
    const df::Cfg cfg = cfgOf("int x = 0;\n"
                              "if (c) { x = 1; } else { x = 2; }\n"
                              "int y = x;\n",
                              tokens);
    // entry, then, else, join at minimum; entry reaches two blocks.
    ASSERT_GE(cfg.blocks.size(), 4U);
    EXPECT_GE(cfg.blocks[0].succs.size(), 2U);
}

TEST(Dataflow, WhileLoopHasBackEdge)
{
    std::vector<Token> tokens;
    const df::Cfg cfg = cfgOf("int x = 0;\n"
                              "while (cond) { x = x + 1; }\n"
                              "int y = x;\n",
                              tokens);
    bool backEdge = false;
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b)
        for (int succ : cfg.blocks[b].succs)
            if (succ <= static_cast<int>(b))
                backEdge = true;
    EXPECT_TRUE(backEdge);
}

// ================= taint solver =================

/** Transfer: `source` seeds tag SRC; otherwise tags flow by use. */
df::TagSet
seedTransfer(const df::Stmt &stmt, const df::TaintEnv &env)
{
    df::TagSet tags;
    for (const std::string &use : stmt.uses) {
        const auto it = env.find(use);
        if (it != env.end())
            tags.insert(it->second.begin(), it->second.end());
    }
    if (std::find(stmt.uses.begin(), stmt.uses.end(), "source") !=
        stmt.uses.end())
        tags.insert("SRC");
    return tags;
}

/** Converged tags of @p name before the statement defining @p at. */
df::TagSet
taintAt(const df::Cfg &cfg, const std::string &name,
        const std::string &at)
{
    df::TagSet result;
    df::solveTaint(cfg, seedTransfer,
                   [&](const df::Stmt &stmt, const df::TaintEnv &env) {
                       if (std::find(stmt.defs.begin(),
                                     stmt.defs.end(),
                                     at) == stmt.defs.end())
                           return;
                       const auto it = env.find(name);
                       if (it != env.end())
                           result = it->second;
                   });
    return result;
}

TEST(Dataflow, TaintFlowsThroughAssignments)
{
    std::vector<Token> tokens;
    const df::Cfg cfg = cfgOf("double a = source;\n"
                              "double b = a;\n"
                              "double c = b;\n"
                              "double sink = c;\n",
                              tokens);
    EXPECT_EQ(taintAt(cfg, "c", "sink"), df::TagSet{"SRC"});
}

TEST(Dataflow, CleanValuesStayUntagged)
{
    std::vector<Token> tokens;
    const df::Cfg cfg = cfgOf("double a = input;\n"
                              "double b = a;\n"
                              "double sink = b;\n",
                              tokens);
    EXPECT_TRUE(taintAt(cfg, "b", "sink").empty());
}

TEST(Dataflow, ReassignmentClearsTaint)
{
    std::vector<Token> tokens;
    const df::Cfg cfg = cfgOf("double a = source;\n"
                              "a = input;\n"
                              "double sink = a;\n",
                              tokens);
    // The strong update replaces a's tags on the straight-line path.
    EXPECT_TRUE(taintAt(cfg, "a", "sink").empty());
}

TEST(Dataflow, TaintConvergesAroundLoopBackEdge)
{
    std::vector<Token> tokens;
    const df::Cfg cfg = cfgOf("double a = source;\n"
                              "double b = 0.0;\n"
                              "while (c) { b = a; }\n"
                              "double sink = b;\n",
                              tokens);
    // b is tainted only via the loop body; the fixpoint must carry
    // the tag around the back edge to the exit.
    EXPECT_EQ(taintAt(cfg, "b", "sink"), df::TagSet{"SRC"});
}

} // namespace
