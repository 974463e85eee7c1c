#include "circuit/wave_writer.hh"

#include <cmath>
#include <iomanip>

#include "common/logging.hh"

namespace vsgpu
{

std::string
vcdSafeName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out.push_back(ok ? c : '_');
    }
    if (out.empty() || (out[0] >= '0' && out[0] <= '9'))
        out.insert(out.begin(), 's');
    return out;
}

WaveWriter::WaveWriter(int stride)
    : stride_(stride)
{
    panicIfNot(stride_ > 0, "wave stride must be positive");
}

int
WaveWriter::addSignal(const TransientSim &sim, const std::string &name,
                      NodeId plus, NodeId minus)
{
    panicIfNot(times_.empty(),
               "signals must be registered before sampling starts");
    // One printable-ASCII VCD identifier per signal.
    panicIfNot(signals_.size() < 90,
               "WaveWriter supports at most 90 signals");
    signals_.push_back(
        {name, sim.solutionIndex(plus), sim.solutionIndex(minus)});
    return static_cast<int>(signals_.size()) - 1;
}

void
WaveWriter::sample(const TransientSim &sim)
{
    if (++sinceSample_ < stride_)
        return;
    sinceSample_ = 0;
    times_.push_back(sim.time());
    // Stream straight from the solver's state vector (the node-id
    // checks already happened at addSignal); identical values to
    // nodeVoltage() subtraction, dense or sparse backend alike.
    const std::vector<double> &x = sim.solution();
    for (const auto &s : signals_) {
        const double vp =
            s.plusIdx >= 0 ? x[static_cast<std::size_t>(s.plusIdx)]
                           : 0.0;
        const double vm =
            s.minusIdx >= 0 ? x[static_cast<std::size_t>(s.minusIdx)]
                            : 0.0;
        values_.push_back(vp - vm);
    }
}

double
WaveWriter::value(std::size_t sampleIdx, std::size_t signalIdx) const
{
    panicIfNot(sampleIdx < times_.size(), "sample index out of range");
    panicIfNot(signalIdx < signals_.size(),
               "signal index out of range");
    return values_[sampleIdx * signals_.size() + signalIdx];
}

double
WaveWriter::timeAt(std::size_t sampleIdx) const
{
    panicIfNot(sampleIdx < times_.size(), "sample index out of range");
    return times_[sampleIdx];
}

void
WaveWriter::writeVcd(std::ostream &os,
                     const std::string &moduleName) const
{
    os << "$timescale 1ps $end\n";
    os << "$scope module " << vcdSafeName(moduleName) << " $end\n";
    // VCD short identifiers: printable ASCII starting at '!'.
    for (std::size_t i = 0; i < signals_.size(); ++i) {
        os << "$var real 64 " << static_cast<char>('!' + i) << " "
           << vcdSafeName(signals_[i].name) << " $end\n";
    }
    os << "$upscope $end\n$enddefinitions $end\n";

    os << std::setprecision(9);
    for (std::size_t row = 0; row < times_.size(); ++row) {
        const auto ps =
            static_cast<long long>(std::llround(times_[row] * 1e12));
        os << "#" << ps << "\n";
        for (std::size_t i = 0; i < signals_.size(); ++i) {
            os << "r" << value(row, i) << " "
               << static_cast<char>('!' + i) << "\n";
        }
    }
}

void
WaveWriter::writeCsv(std::ostream &os) const
{
    os << "time_s";
    for (const auto &s : signals_)
        os << "," << s.name;
    os << "\n";
    os << std::setprecision(9);
    for (std::size_t row = 0; row < times_.size(); ++row) {
        os << times_[row];
        for (std::size_t i = 0; i < signals_.size(); ++i)
            os << "," << value(row, i);
        os << "\n";
    }
}

void
WaveWriter::clear()
{
    times_.clear();
    values_.clear();
    sinceSample_ = 0;
}

} // namespace vsgpu
