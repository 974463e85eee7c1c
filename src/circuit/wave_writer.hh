/**
 * @file
 * Waveform capture for transient simulations.
 *
 * Records selected node voltages every N steps and can emit them as a
 * VCD (value change dump, viewable in GTKWave) or as CSV.  Used to
 * inspect PDN transients — e.g. the Fig. 9 worst-case waveforms — at
 * full per-node resolution rather than through summary statistics.
 */

#ifndef VSGPU_CIRCUIT_WAVE_WRITER_HH
#define VSGPU_CIRCUIT_WAVE_WRITER_HH

#include <ostream>
#include <string>
#include <vector>

#include "circuit/transient.hh"

namespace vsgpu
{

/**
 * Collects voltage samples of named signals from a TransientSim.
 * The writer holds no reference to the simulator: signals resolve
 * their solution-vector indices at registration, and each sample()
 * reads the simulator it is handed, which must be one over the same
 * netlist.  A finished capture therefore outlives its run.
 */
class WaveWriter
{
  public:
    /** @param stride record every stride-th step. */
    explicit WaveWriter(int stride = 1);

    /**
     * Register a signal: the voltage between two nodes of @p sim's
     * netlist (e.g. an SM's layer rail), or of one node to ground.
     * @return signal index.
     */
    int addSignal(const TransientSim &sim, const std::string &name,
                  NodeId plus, NodeId minus = Netlist::ground);

    /** Sample @p sim (honours the stride).  Call once per
     *  sim.step(). */
    void sample(const TransientSim &sim);

    /** @return number of stored sample rows. */
    std::size_t numSamples() const { return times_.size(); }

    /** @return number of registered signals. */
    std::size_t numSignals() const { return signals_.size(); }

    /** @return the recorded value of a signal at a sample row. */
    double value(std::size_t sampleIdx, std::size_t signalIdx) const;

    /** @return the time of a sample row (s). */
    double timeAt(std::size_t sampleIdx) const;

    /**
     * Emit a VCD file: one real-valued variable per signal, with a
     * 1 ps timescale.
     */
    void writeVcd(std::ostream &os,
                  const std::string &moduleName = "vsgpu") const;

    /** Emit CSV: time column plus one column per signal. */
    void writeCsv(std::ostream &os) const;

    /** Drop all recorded samples (signals stay registered). */
    void clear();

  private:
    struct Signal
    {
        std::string name;
        /// Solution-vector indices resolved once at registration
        /// (-1 = ground), so sample() streams straight from the
        /// solver's state vector — no per-sample node lookups or
        /// bounds checks, and no densified voltage copy.
        int plusIdx;
        int minusIdx;
    };

    int stride_;
    int sinceSample_ = 0;
    std::vector<Signal> signals_;
    std::vector<double> times_;
    std::vector<double> values_; ///< row-major: sample x signal
};

/** Sanitize an arbitrary label into a VCD identifier-safe name. */
std::string vcdSafeName(const std::string &name);

} // namespace vsgpu

#endif // VSGPU_CIRCUIT_WAVE_WRITER_HH
