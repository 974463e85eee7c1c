/**
 * @file
 * Sparse MNA assembly: per-netlist sparsity pattern plus a stamping
 * assembler with a beginStep()/commitStep() split.
 *
 * The MnaPattern is the *symbolic* half of the sparse engine: the
 * union sparsity pattern of every matrix the three engines (transient
 * trapezoidal, DC operating point, AC phasor) ever assemble for one
 * Netlist, with every element's value-slots resolved up front.  It is
 * built once per topology and shared — sim::PdsSetup carries one, so
 * the exec::SetupCache (keyed off pdsSetupKey) makes it once per
 * electrical configuration and every run, sweep point and engine
 * reuses it.
 *
 * The MnaAssemblerT stamps element values into a slot-indexed value
 * vector between beginStep() (clear) and commitStep() (finalize +
 * hand the values to the numeric factorization).  Each family method
 * reproduces the corresponding dense engine's stamping loop with the
 * *same* floating-point expressions and the same accumulation order,
 * so the assembled values — and therefore the factorizations and
 * solutions (see numeric/sparse.hh) — are bitwise identical to the
 * dense path.  Notably the transient equalizer stamp multiplies by a
 * precomputed 1/Reff while the DC/AC stamps divide by Reff directly;
 * the two can differ by an ulp, so both forms are preserved
 * (stampEqualizersScaled vs stampEqualizersDivided).
 */

#ifndef VSGPU_CIRCUIT_STAMPING_HH
#define VSGPU_CIRCUIT_STAMPING_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "circuit/netlist.hh"
#include "common/logging.hh"
#include "numeric/sparse.hh"

namespace vsgpu
{

/** Inductor replacement resistance for DC operating-point solves. */
constexpr double kDcInductorOhms = 1e-6; // raw-ok(dimension-erased MNA solver boundary)

/** Tiny diagonal conductance keeping DC solves non-singular when a
 *  node is only reachable through capacitors. */
constexpr double kDcLeakSiemens = 1e-12; // raw-ok(dimension-erased MNA solver boundary)

/**
 * Union MNA sparsity pattern of a Netlist with per-element slot
 * tables.  Unknown ordering matches the dense engines: node voltages
 * (node id - 1) first, then one branch-current row per voltage
 * source.  Slots of entries on a grounded terminal are -1 (the dense
 * stamp skips them too).
 */
struct MnaPattern
{
    /** Slots of a two-terminal conductance stamp. */
    struct PairSlots
    {
        std::int32_t aa = -1; ///< (a, a) diagonal
        std::int32_t bb = -1; ///< (b, b) diagonal
        std::int32_t ab = -1; ///< (a, b) off-diagonal
        std::int32_t ba = -1; ///< (b, a) off-diagonal
    };

    /** Slots of a voltage-source constraint stamp. */
    struct VsrcSlots
    {
        std::int32_t pr = -1; ///< (plus, row)
        std::int32_t rp = -1; ///< (row, plus)
        std::int32_t mr = -1; ///< (minus, row)
        std::int32_t rm = -1; ///< (row, minus)
    };

    int numNodes = 0;
    int numVsrc = 0;
    int numUnknowns = 0;

    /** The compiled CSC pattern shared with SparseLuT. */
    std::shared_ptr<const CscPattern> csc;

    std::vector<PairSlots> resistors;
    std::vector<PairSlots> switches;
    std::vector<PairSlots> capacitors;
    std::vector<PairSlots> inductors;
    /** Row-major 3x3 slots over (top, mid, bottom). */
    std::vector<std::array<std::int32_t, 9>> equalizers;
    std::vector<VsrcSlots> vsrcs;
    /** Diagonal slot of every node row (DC leak stamp). */
    std::vector<std::int32_t> nodeDiag;

    /** Build the union pattern for a netlist (once per topology). */
    static std::shared_ptr<const MnaPattern>
    build(const Netlist &netlist);
};

/**
 * Stamps one matrix' values over an MnaPattern.
 *
 * Lifecycle per assembled matrix: beginStep(), one family-stamp call
 * sequence (in the owning engine's historical order), commitStep().
 * The assembler owns the value vector and reuses it across steps, so
 * a refactorization allocates nothing.
 */
template <typename T>
class MnaAssemblerT
{
  public:
    explicit MnaAssemblerT(std::shared_ptr<const MnaPattern> pattern)
        : pat_(std::move(pattern))
    {
        panicIfNot(pat_ != nullptr, "assembler needs a pattern");
        values_.assign(pat_->csc->nnz(), T{});
    }

    /** Start assembling a matrix: clear every slot. */
    void
    beginStep()
    {
        panicIfNot(!open_, "beginStep while assembly open");
        std::fill(values_.begin(), values_.end(), T{});
        open_ = true;
    }

    /** Finish assembling; the values stay valid until beginStep(). */
    const std::vector<T> &
    commitStep()
    {
        panicIfNot(open_, "commitStep without beginStep");
        open_ = false;
        return values_;
    }

    /** @return the bound pattern. */
    const MnaPattern &pattern() const { return *pat_; }

    // --- family stamps -------------------------------------------
    // Each mirrors one dense engine loop; see the file comment for
    // the bit-compatibility contract.

    /** Resistor conductances (all engines). */
    void
    stampResistors(const Netlist &nl)
    {
        const auto &rs = nl.resistors();
        for (std::size_t i = 0; i < rs.size(); ++i)
            addPair(pat_->resistors[i], T(1.0 / rs[i].ohms));
    }

    /**
     * Switch on/off conductances.  @p closedAt maps switch index to
     * its closed state (engines differ: bitmask key, explicit
     * vector, or vector-with-initial-state fallback).
     */
    template <typename ClosedAt>
    void
    stampSwitches(const Netlist &nl, const ClosedAt &closedAt)
    {
        const auto &sw = nl.switches();
        for (std::size_t i = 0; i < sw.size(); ++i) {
            const double ohms = // raw-ok(dimension-erased MNA solver boundary)
                closedAt(i) ? sw[i].onOhms : sw[i].offOhms;
            addPair(pat_->switches[i], T(1.0 / ohms));
        }
    }

    /** Trapezoidal capacitor companions, geq = 2C/dt (transient). */
    void
    stampCapacitorsTrapezoidal(const Netlist &nl, double dt)
    {
        const auto &cs = nl.capacitors();
        for (std::size_t i = 0; i < cs.size(); ++i)
            addPair(pat_->capacitors[i],
                    T(2.0 * cs[i].farads / dt));
    }

    /** Trapezoidal inductor companions, geq = dt/2L (transient). */
    void
    stampInductorsTrapezoidal(const Netlist &nl, double dt)
    {
        const auto &ls = nl.inductors();
        for (std::size_t i = 0; i < ls.size(); ++i)
            addPair(pat_->inductors[i],
                    T(dt / (2.0 * ls[i].henries)));
    }

    /** DC inductor shorts, 1/kDcInductorOhms (DC solve). */
    void
    stampInductorsDc(const Netlist &nl)
    {
        const auto &ls = nl.inductors();
        for (std::size_t i = 0; i < ls.size(); ++i)
            addPair(pat_->inductors[i], T(1.0 / kDcInductorOhms));
    }

    /** AC capacitor admittances +jwC (phasor solve). */
    void
    stampCapacitorsAc(const Netlist &nl, double omega)
    {
        const auto &cs = nl.capacitors();
        for (std::size_t i = 0; i < cs.size(); ++i)
            addPair(pat_->capacitors[i],
                    T{0.0, omega * cs[i].farads});
    }

    /** AC inductor admittances -j/(wL) (phasor solve). */
    void
    stampInductorsAc(const Netlist &nl, double omega)
    {
        const auto &ls = nl.inductors();
        for (std::size_t i = 0; i < ls.size(); ++i)
            addPair(pat_->inductors[i],
                    T{0.0, -1.0 / (omega * ls[i].henries)});
    }

    /**
     * Equalizer rank-one stamps, coeff_i * coeff_j * (1/Reff) with
     * the reciprocal precomputed (transient engine's form).
     */
    void
    stampEqualizersScaled(const Netlist &nl)
    {
        const auto &eqs = nl.equalizers();
        for (std::size_t i = 0; i < eqs.size(); ++i) {
            const double gEff = 1.0 / eqs[i].effOhms;
            stampEqualizerCell(i, [&](double ci, double cj) {
                return T(ci * cj * gEff);
            });
        }
    }

    /**
     * Equalizer rank-one stamps, coeff_i * coeff_j / Reff with the
     * division inline (DC and AC engines' form; can differ from the
     * scaled form by an ulp).
     */
    void
    stampEqualizersDivided(const Netlist &nl)
    {
        const auto &eqs = nl.equalizers();
        for (std::size_t i = 0; i < eqs.size(); ++i) {
            const double effOhms = eqs[i].effOhms; // raw-ok(dimension-erased MNA solver boundary)
            stampEqualizerCell(i, [&](double ci, double cj) {
                return T(ci * cj / effOhms);
            });
        }
    }

    /** Voltage-source constraint rows (+/-1 couplings). */
    void
    stampVoltageSources(const Netlist &nl)
    {
        const auto &vs = nl.voltageSources();
        for (std::size_t k = 0; k < vs.size(); ++k) {
            const MnaPattern::VsrcSlots &s = pat_->vsrcs[k];
            if (s.pr >= 0)
                values_[static_cast<std::size_t>(s.pr)] += T(1.0);
            if (s.rp >= 0)
                values_[static_cast<std::size_t>(s.rp)] += T(1.0);
            if (s.mr >= 0)
                values_[static_cast<std::size_t>(s.mr)] -= T(1.0);
            if (s.rm >= 0)
                values_[static_cast<std::size_t>(s.rm)] -= T(1.0);
        }
    }

    /** DC leak on every node diagonal (keeps DC non-singular). */
    void
    stampNodeLeak()
    {
        for (std::int32_t slot : pat_->nodeDiag)
            values_[static_cast<std::size_t>(slot)] +=
                T(kDcLeakSiemens);
    }

  private:
    /** Two-terminal conductance stamp (aa, bb, ab, ba order). */
    void
    addPair(const MnaPattern::PairSlots &s, T g)
    {
        if (s.aa >= 0)
            values_[static_cast<std::size_t>(s.aa)] += g;
        if (s.bb >= 0)
            values_[static_cast<std::size_t>(s.bb)] += g;
        if (s.ab >= 0)
            values_[static_cast<std::size_t>(s.ab)] -= g;
        if (s.ba >= 0)
            values_[static_cast<std::size_t>(s.ba)] -= g;
    }

    /** 3x3 equalizer stamp in dense (i outer, j inner) order. */
    template <typename Term>
    void
    stampEqualizerCell(std::size_t eqIdx, const Term &term)
    {
        static constexpr double coeff[3] = {1.0, -2.0, 1.0};
        const std::array<std::int32_t, 9> &slots =
            pat_->equalizers[eqIdx];
        for (int i = 0; i < 3; ++i) {
            for (int j = 0; j < 3; ++j) {
                const std::int32_t slot =
                    slots[static_cast<std::size_t>(i * 3 + j)];
                if (slot < 0)
                    continue;
                values_[static_cast<std::size_t>(slot)] +=
                    term(coeff[i], coeff[j]);
            }
        }
    }

    std::shared_ptr<const MnaPattern> pat_;
    std::vector<T> values_;
    bool open_ = false;
};

using MnaAssembler = MnaAssemblerT<double>;
using CMnaAssembler = MnaAssemblerT<Complex>;

} // namespace vsgpu

#endif // VSGPU_CIRCUIT_STAMPING_HH
