#include "workloads/trace_file.hh"

#include <istream>
#include <ostream>
#include <sstream>

#include "common/check.hh"
#include "common/logging.hh"
#include "common/units.hh"

namespace vsgpu
{

namespace
{

/** Mnemonic for an op class (inverse of parseOpClass). */
const char *
mnemonic(OpClass op)
{
    return opClassName(op);
}

/** Render a register id ('-' for none). */
std::string
regToken(std::uint8_t reg)
{
    return reg == noReg ? "-" : std::to_string(reg);
}

/** Parse a register token. */
std::uint8_t
parseReg(const std::string &token)
{
    if (token == "-")
        return noReg;
    const int value = std::stoi(token);
    fatalIf(value < 0 || value > 255,
            "trace register out of range: ", token);
    return static_cast<std::uint8_t>(value);
}

} // namespace

OpClass
parseOpClass(const std::string &m)
{
    for (int op = 0; op < numOpClasses; ++op) {
        if (m == opClassName(static_cast<OpClass>(op)))
            return static_cast<OpClass>(op);
    }
    fatal("unknown op mnemonic in trace: '", m, "'");
}

TraceFile
TraceFile::parse(std::istream &is)
{
    TraceFile trace;
    std::string line;
    int sm = -1;
    int warp = -1;
    std::vector<WarpInstr> current;
    int lineNo = 0;

    const auto flush = [&]() {
        if (sm >= 0)
            trace.addStream(sm, warp, std::move(current));
        current.clear();
    };

    while (std::getline(is, line)) {
        ++lineNo;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream ls(line);
        std::string first;
        if (!(ls >> first))
            continue; // blank

        if (first == "warp") {
            flush();
            fatalIf(!(ls >> sm >> warp),
                    "trace line ", lineNo, ": malformed warp header");
            fatalIf(sm < 0 || warp < 0,
                    "trace line ", lineNo, ": negative sm/warp");
            fatalIf(sm >= config::numSMs, "trace line ", lineNo,
                    ": SM ", sm, " out of range (0..",
                    config::numSMs - 1, ")");
            fatalIf(warp >= config::warpsPerSM, "trace line ", lineNo,
                    ": warp slot ", warp, " out of range (0..",
                    config::warpsPerSM - 1, ")");
            continue;
        }

        fatalIf(sm < 0,
                "trace line ", lineNo,
                ": instruction before any 'warp' header");
        WarpInstr instr;
        instr.op = parseOpClass(first);
        std::string dest, src0, src1;
        int lanes = 0, rowHit = 0, l1 = 0, l2 = 0;
        fatalIf(!(ls >> dest >> src0 >> src1 >> lanes >> rowHit >>
                  l1 >> l2),
                "trace line ", lineNo, ": malformed instruction");
        instr.dest = parseReg(dest);
        instr.src0 = parseReg(src0);
        instr.src1 = parseReg(src1);
        fatalIf(lanes < 1 || lanes > 32,
                "trace line ", lineNo, ": lanes out of range");
        instr.activeLanes = static_cast<std::uint8_t>(lanes);
        instr.rowHit = rowHit != 0;
        instr.l1Hit = l1 != 0;
        instr.l2Hit = l2 != 0;
        current.push_back(instr);
    }
    flush();
    fatalIf(trace.streams_.empty(), "trace contains no streams");
    return trace;
}

void
TraceFile::write(std::ostream &os) const
{
    os << "# vsgpu warp trace\n";
    for (const auto &[key, instrs] : streams_) {
        os << "warp " << key.first << " " << key.second << "\n";
        for (const auto &i : instrs) {
            os << mnemonic(i.op) << " " << regToken(i.dest) << " "
               << regToken(i.src0) << " " << regToken(i.src1) << " "
               << static_cast<int>(i.activeLanes) << " "
               << (i.rowHit ? 1 : 0) << " " << (i.l1Hit ? 1 : 0)
               << " " << (i.l2Hit ? 1 : 0) << "\n";
        }
    }
}

void
TraceFile::addStream(int sm, int warp, std::vector<WarpInstr> instrs)
{
    panicIfNot(sm >= 0 && warp >= 0, "negative stream key");
    streams_[{sm, warp}] = std::move(instrs);
}

std::size_t
TraceFile::totalInstrs() const
{
    std::size_t n = 0;
    for (const auto &[key, instrs] : streams_)
        n += instrs.size();
    return n;
}

int
TraceFile::warpsPerSm() const
{
    int maxWarp = -1;
    for (const auto &[key, instrs] : streams_)
        maxWarp = std::max(maxWarp, key.second);
    return maxWarp + 1;
}

const std::vector<WarpInstr> &
TraceFile::stream(int sm, int warp) const
{
    panicIfNot(!streams_.empty(), "empty trace");
    const auto exact = streams_.find({sm, warp});
    if (exact != streams_.end())
        return exact->second;

    // Modulo fallback: replay a recorded stream.
    int maxSm = 0, maxWarp = 0;
    for (const auto &[key, instrs] : streams_) {
        maxSm = std::max(maxSm, key.first + 1);
        maxWarp = std::max(maxWarp, key.second + 1);
    }
    const auto folded =
        streams_.find({sm % maxSm, warp % maxWarp});
    if (folded != streams_.end())
        return folded->second;
    // Last resort: the first recorded stream.
    return streams_.begin()->second;
}

TraceFileFactory::TraceFileFactory(TraceFile trace)
    : trace_(std::move(trace))
{
}

std::unique_ptr<WarpProgram>
TraceFileFactory::makeProgram(int sm, int warp) const
{
    return std::make_unique<TraceProgram>(trace_.stream(sm, warp));
}

TraceFile
recordTrace(const ProgramFactory &factory, int numSms)
{
    VSGPU_REQUIRES(numSms > 0, "numSms must be positive");
    TraceFile trace;
    for (int sm = 0; sm < numSms; ++sm) {
        for (int warp = 0; warp < factory.warpsPerSm(); ++warp) {
            auto program = factory.makeProgram(sm, warp);
            std::vector<WarpInstr> instrs;
            while (auto instr = program->next())
                instrs.push_back(*instr);
            trace.addStream(sm, warp, std::move(instrs));
        }
    }
    return trace;
}

} // namespace vsgpu
