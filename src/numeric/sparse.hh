/**
 * @file
 * Sparse linear algebra for the MNA circuit engines.
 *
 * The PDN netlists are overwhelmingly sparse (a few entries per row
 * at any grid size), so the dense LU in matrix.hh wastes O(n^2) work
 * per solve and O(n^3) per factorization on structural zeros.  This
 * module provides:
 *
 *  - CscPattern / CscPatternBuilder: an immutable compressed-sparse-
 *    column sparsity pattern with slot lookup, compiled once per
 *    netlist topology (the symbolic half of the engine; cached in
 *    exec::SetupCache via PdsSetup::mnaPattern).
 *  - SparseLuT<T>: a left-looking (Gilbert-Peierls) LU factorization
 *    with partial pivoting over a CscPattern, supporting cheap
 *    numeric refactorization (workspaces and storage are reused
 *    across factor() calls) and O(nnz) triangular solves.
 *
 * Bit-compatibility contract: SparseLuT is constructed to be
 * *bitwise identical* to LuFactor<T> on the same logical matrix.  It
 * picks the same pivot (strict |.| maximum over the partially-pivoted
 * physical row order, first winner kept; only the rows the column's
 * reach touched are searched, as every other row holds an exact
 * zero), applies per-entry update terms in the same ascending pivot
 * order as the dense right-looking elimination, and performs the
 * triangular solves over ascending column indices.  Factor entries that are an
 * exact numeric zero are dropped from L and U entirely: the dense
 * elimination skips zero multipliers, and a zero term in a solve sum
 * is a no-op (acc -= 0 * x), so dropping them leaves every computed
 * bit unchanged while keeping the factors at their true nonzero
 * structure.  (The one theoretical exception — an accumulator that
 * is exactly -0.0 mid-substitution being flipped to +0.0 by a
 * subtracted signed zero — cannot arise here: assembled MNA values
 * and cancellation results are always +0.0.)  Solutions match the
 * dense solver bit for bit; the sparse-vs-dense differential suite
 * (tests/circuit/test_sparse_vs_dense.cc) pins this.
 */

#ifndef VSGPU_NUMERIC_SPARSE_HH
#define VSGPU_NUMERIC_SPARSE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "numeric/matrix.hh"

namespace vsgpu
{

/**
 * Immutable compressed-sparse-column sparsity pattern of a square
 * matrix.  Row indices are sorted and unique within each column.
 * Values live outside the pattern (a plain vector indexed by slot),
 * so one compiled pattern can back any number of concurrently
 * assembled matrices.
 */
struct CscPattern
{
    /** Matrix order (square). */
    int order = 0;

    /** Column start offsets into rowIdx (size order + 1). */
    std::vector<std::int32_t> colPtr;

    /** Row index of each structural entry, sorted per column. */
    std::vector<std::int32_t> rowIdx;

    /** @return number of structural nonzeros. */
    std::size_t nnz() const { return rowIdx.size(); }

    /**
     * @return the value-slot of entry (row, col), or -1 when the
     * entry is not structural.  Binary search within the column.
     */
    std::int32_t
    slot(int row, int col) const
    {
        panicIfNot(row >= 0 && row < order && col >= 0 && col < order,
                   "pattern slot query out of range");
        const auto first = rowIdx.begin() +
                           colPtr[static_cast<std::size_t>(col)];
        const auto last = rowIdx.begin() +
                          colPtr[static_cast<std::size_t>(col) + 1];
        const auto it = std::lower_bound(first, last,
                                         static_cast<std::int32_t>(row));
        if (it == last || *it != row)
            return -1;
        return static_cast<std::int32_t>(it - rowIdx.begin());
    }
};

/**
 * Accumulates (row, col) structural entries and compiles them into a
 * sorted, deduplicated CscPattern.
 */
class CscPatternBuilder
{
  public:
    /** @param order matrix order (square). */
    explicit CscPatternBuilder(int order);

    /** Record a structural entry (duplicates are fine). */
    void
    add(int row, int col)
    {
        panicIfNot(row >= 0 && row < order_ && col >= 0 &&
                       col < order_,
                   "pattern entry out of range");
        entries_.emplace_back(static_cast<std::int32_t>(col),
                              static_cast<std::int32_t>(row));
    }

    /** @return number of recorded (possibly duplicate) entries. */
    std::size_t pending() const { return entries_.size(); }

    /** Sort, deduplicate and freeze the pattern. */
    CscPattern compile();

  private:
    int order_;
    /// (col, row) so the default pair order sorts column-major.
    std::vector<std::pair<std::int32_t, std::int32_t>> entries_;
};

/**
 * Left-looking sparse LU with partial pivoting over a fixed
 * CscPattern.
 *
 * Lifecycle: construct once per pattern (the symbolic context —
 * workspaces, storage reservations), then factor() for each new set
 * of numeric values (a *refactorization*: storage is reused, only
 * the numeric work is redone) and solve() per right-hand side.
 * Partial pivoting makes the fill pattern value-dependent, so the
 * fill is rediscovered per factor(); the per-column reach is found
 * by depth-first search over the growing L exactly as in
 * Gilbert-Peierls, then replayed in ascending pivot order for dense
 * bit-compatibility (see the header comment).
 */
template <typename T>
class SparseLuT
{
  public:
    /** Bind to a compiled pattern (shared, immutable). */
    explicit SparseLuT(std::shared_ptr<const CscPattern> pattern)
        : pattern_(std::move(pattern))
    {
        panicIfNot(pattern_ != nullptr, "SparseLu needs a pattern");
        const std::size_t n =
            static_cast<std::size_t>(pattern_->order);
        x_.assign(n, T{});
        mark_.assign(n, 0);
        stack_.reserve(n);
        entryStack_.reserve(n);
        rowAt_.resize(n);
        posOf_.resize(n);
        pinv_.resize(n);
        perm_.resize(n);
        reachTop_.reserve(n);
        reachBelow_.reserve(n);
        touched_.reserve(n);
        lColPtr_.reserve(n + 1);
        uColPtr_.reserve(n + 1);
        diag_.resize(n);
    }

    /**
     * Numeric (re)factorization from values aligned with the
     * pattern's slots.  Panics on a singular matrix with the same
     * diagnostic as the dense LuFactor.
     */
    void
    factor(const std::vector<T> &values)
    {
        const int n = pattern_->order;
        const std::size_t un = static_cast<std::size_t>(n);
        panicIfNot(values.size() == pattern_->nnz(),
                   "sparse factor values/pattern size mismatch");

        lColPtr_.assign(1, 0);
        lRow_.clear();
        lVal_.clear();
        uColPtr_.assign(1, 0);
        uPos_.clear();
        uVal_.clear();
        for (std::size_t i = 0; i < un; ++i) {
            rowAt_[i] = static_cast<std::int32_t>(i);
            posOf_[i] = static_cast<std::int32_t>(i);
            pinv_[i] = -1;
        }
        ++stamp_; // invalidates all column marks at once

        for (int j = 0; j < n; ++j) {
            ++stamp_;
            reachTop_.clear();
            reachBelow_.clear();
            touched_.clear();

            // --- symbolic: reach of A(:,j) through the current L ---
            const std::int32_t a0 =
                pattern_->colPtr[static_cast<std::size_t>(j)];
            const std::int32_t a1 =
                pattern_->colPtr[static_cast<std::size_t>(j) + 1];
            for (std::int32_t t = a0; t < a1; ++t)
                dfsReach(pattern_->rowIdx[static_cast<std::size_t>(t)]);

            // Scatter this column's assembled values (fill rows keep
            // the exact zero left by the previous gather).
            for (std::int32_t t = a0; t < a1; ++t)
                x_[static_cast<std::size_t>(
                    pattern_->rowIdx[static_cast<std::size_t>(t)])] =
                    values[static_cast<std::size_t>(t)];

            // --- numeric: replay updates in ascending pivot order,
            // matching the dense right-looking step order bit for
            // bit. ---
            std::sort(reachTop_.begin(), reachTop_.end());
            uColPtr_.push_back(uColPtr_.back());
            for (std::int32_t p : reachTop_) {
                const std::size_t rowP = static_cast<std::size_t>(
                    rowAt_[static_cast<std::size_t>(p)]);
                const T xp = x_[rowP];
                // An exact-zero U entry contributes only +/-0 update
                // terms and a zero solve term; dropping it keeps the
                // factors at their true numeric nonzeros (see the
                // header's bit-compatibility note on zero terms).
                if (xp == T{})
                    continue;
                uPos_.push_back(p);
                uVal_.push_back(xp);
                ++uColPtr_.back();
                const std::int32_t l0 =
                    lColPtr_[static_cast<std::size_t>(p)];
                const std::int32_t l1 =
                    lColPtr_[static_cast<std::size_t>(p) + 1];
                for (std::int32_t t = l0; t < l1; ++t) {
                    const T lv = lVal_[static_cast<std::size_t>(t)];
                    // The dense code skips updates with a zero
                    // multiplier; mirror it exactly.
                    if (lv == T{})
                        continue;
                    x_[static_cast<std::size_t>(
                        lRow_[static_cast<std::size_t>(t)])] -= lv * xp;
                }
            }

            // --- pivot: the dense winner (largest |value|, lowest
            // physical position among equals; position j keeps it
            // unless beaten, even when it is NaN), searched over the
            // reached rows only: an unreached row holds an exact
            // zero, which never beats position j's value. ---
            std::int32_t pivotPos = static_cast<std::int32_t>(j);
            double best = scalarAbs(
                x_[static_cast<std::size_t>(
                    rowAt_[static_cast<std::size_t>(j)])]);
            for (std::int32_t r : reachBelow_) {
                const std::int32_t pos =
                    posOf_[static_cast<std::size_t>(r)];
                if (pos == j) // already read: one |.| fewer per column
                    continue;
                const double cand =
                    scalarAbs(x_[static_cast<std::size_t>(r)]);
                if (cand > best || (cand == best && pos < pivotPos)) {
                    best = cand;
                    pivotPos = pos;
                }
            }
            panicIfNot(best > 0.0, "singular matrix in LU factor");
            const std::int32_t pivotRow =
                rowAt_[static_cast<std::size_t>(pivotPos)];
            std::swap(rowAt_[static_cast<std::size_t>(j)],
                      rowAt_[static_cast<std::size_t>(pivotPos)]);
            posOf_[static_cast<std::size_t>(
                rowAt_[static_cast<std::size_t>(j)])] =
                static_cast<std::int32_t>(j);
            posOf_[static_cast<std::size_t>(
                rowAt_[static_cast<std::size_t>(pivotPos)])] =
                pivotPos;
            pinv_[static_cast<std::size_t>(pivotRow)] =
                static_cast<std::int32_t>(j);
            const T pivot = x_[static_cast<std::size_t>(pivotRow)];
            diag_[static_cast<std::size_t>(j)] = pivot;

            // --- L column j: below-diagonal entries divided by the
            // pivot.  Exact-zero multipliers are dropped: the dense
            // elimination skips them anyway, they contribute zero
            // solve terms, and keeping them out of lRow_ keeps the
            // DFS reach (which follows lRow_) at the true numeric
            // nonzero structure instead of snowballing fill. ---
            lColPtr_.push_back(lColPtr_.back());
            for (std::int32_t r : reachBelow_) {
                if (r == pivotRow)
                    continue;
                const T q = x_[static_cast<std::size_t>(r)] / pivot;
                if (q == T{})
                    continue;
                lRow_.push_back(r);
                lVal_.push_back(q);
                ++lColPtr_.back();
            }

            // Gather: clear the workspace for the next column.
            for (std::int32_t r : touched_)
                x_[static_cast<std::size_t>(r)] = T{};
        }

        for (std::size_t i = 0; i < un; ++i)
            perm_[i] = rowAt_[i];
        buildRowForms();
        factored_ = true;
    }

    /** Solve A x = b into @p out (no allocation after first use). */
    void
    solve(const std::vector<T> &b, std::vector<T> &out) const
    {
        const std::size_t n = static_cast<std::size_t>(pattern_->order);
        panicIfNot(factored_, "sparse solve before factor");
        panicIfNot(b.size() == n, "LU solve rhs size mismatch");
        panicIfNot(&b != &out, "sparse solve cannot alias rhs");
        out.resize(n);
        // Forward substitution on the permuted rhs (ascending column
        // order inside each row, as in the dense solve).
        for (std::size_t i = 0; i < n; ++i) {
            T acc = b[static_cast<std::size_t>(perm_[i])];
            const std::int32_t r0 = lRowPtr_[i];
            const std::int32_t r1 = lRowPtr_[i + 1];
            for (std::int32_t t = r0; t < r1; ++t)
                acc -= lRowVal_[static_cast<std::size_t>(t)] *
                       out[static_cast<std::size_t>(
                           lRowCol_[static_cast<std::size_t>(t)])];
            out[i] = acc;
        }
        // Back substitution.
        for (std::size_t ii = n; ii-- > 0;) {
            T acc = out[ii];
            const std::int32_t r0 = uRowPtr_[ii];
            const std::int32_t r1 = uRowPtr_[ii + 1];
            for (std::int32_t t = r0; t < r1; ++t)
                acc -= uRowVal_[static_cast<std::size_t>(t)] *
                       out[static_cast<std::size_t>(
                           uRowCol_[static_cast<std::size_t>(t)])];
            out[ii] = acc / diag_[ii];
        }
    }

    /** Solve A x = b for one right-hand side (allocating variant). */
    std::vector<T>
    solve(const std::vector<T> &b) const
    {
        std::vector<T> x;
        solve(b, x);
        return x;
    }

    /** @return order of the factored matrix. */
    std::size_t
    order() const
    {
        return static_cast<std::size_t>(pattern_->order);
    }

    /** @return structural nonzeros of L + U (including diagonal). */
    std::size_t
    factorNnz() const
    {
        return lVal_.size() + uVal_.size() + diag_.size();
    }

    /** @return the bound assembly pattern. */
    const CscPattern &pattern() const { return *pattern_; }

  private:
    /**
     * Iterative depth-first search from one structural row of
     * A(:,j): pivoted rows recurse through their L column, unpivoted
     * rows are leaves.  Fills reachTop_ (pivot positions < j),
     * reachBelow_ (unpivoted original rows) and touched_ (all rows
     * to gather-clear).
     */
    void
    dfsReach(std::int32_t row)
    {
        if (mark_[static_cast<std::size_t>(row)] == stamp_)
            return;
        stack_.clear();
        entryStack_.clear();
        stack_.push_back(row);
        entryStack_.push_back(-1); // -1: node not yet expanded
        while (!stack_.empty()) {
            const std::int32_t r = stack_.back();
            std::int32_t t = entryStack_.back();
            const std::int32_t p =
                pinv_[static_cast<std::size_t>(r)];
            if (t < 0) {
                mark_[static_cast<std::size_t>(r)] = stamp_;
                touched_.push_back(r);
                if (p < 0) {
                    // Unpivoted: below-diagonal leaf.
                    reachBelow_.push_back(r);
                    stack_.pop_back();
                    entryStack_.pop_back();
                    continue;
                }
                t = lColPtr_[static_cast<std::size_t>(p)];
            }
            const std::int32_t end =
                lColPtr_[static_cast<std::size_t>(p) + 1];
            bool descended = false;
            while (t < end) {
                const std::int32_t child =
                    lRow_[static_cast<std::size_t>(t)];
                ++t;
                if (mark_[static_cast<std::size_t>(child)] !=
                    stamp_) {
                    entryStack_.back() = t;
                    stack_.push_back(child);
                    entryStack_.push_back(-1);
                    descended = true;
                    break;
                }
            }
            if (descended)
                continue;
            reachTop_.push_back(p);
            stack_.pop_back();
            entryStack_.pop_back();
        }
    }

    /** Build the row-major (CSR) forms the triangular solves use. */
    void
    buildRowForms()
    {
        const std::size_t n = static_cast<std::size_t>(pattern_->order);
        lRowPtr_.assign(n + 1, 0);
        uRowPtr_.assign(n + 1, 0);
        for (std::int32_t r : lRow_)
            ++lRowPtr_[static_cast<std::size_t>(
                           pinv_[static_cast<std::size_t>(r)]) +
                       1];
        for (std::int32_t p : uPos_)
            ++uRowPtr_[static_cast<std::size_t>(p) + 1];
        for (std::size_t i = 0; i < n; ++i) {
            lRowPtr_[i + 1] =
                static_cast<std::int32_t>(lRowPtr_[i + 1] +
                                          lRowPtr_[i]);
            uRowPtr_[i + 1] =
                static_cast<std::int32_t>(uRowPtr_[i + 1] +
                                          uRowPtr_[i]);
        }
        lRowCol_.resize(lRow_.size());
        lRowVal_.resize(lRow_.size());
        uRowCol_.resize(uPos_.size());
        uRowVal_.resize(uPos_.size());
        fill_.assign(n, 0);
        // Column-ascending iteration gives ascending column indices
        // within every row, matching the dense solve's loop order.
        for (std::size_t col = 0; col < n; ++col) {
            const std::int32_t c0 = lColPtr_[col];
            const std::int32_t c1 = lColPtr_[col + 1];
            for (std::int32_t t = c0; t < c1; ++t) {
                const std::size_t i = static_cast<std::size_t>(
                    pinv_[static_cast<std::size_t>(
                        lRow_[static_cast<std::size_t>(t)])]);
                const std::int32_t dst = static_cast<std::int32_t>(
                    lRowPtr_[i] + fill_[i]);
                ++fill_[i];
                lRowCol_[static_cast<std::size_t>(dst)] =
                    static_cast<std::int32_t>(col);
                lRowVal_[static_cast<std::size_t>(dst)] =
                    lVal_[static_cast<std::size_t>(t)];
            }
        }
        fill_.assign(n, 0);
        for (std::size_t col = 0; col < n; ++col) {
            const std::int32_t c0 = uColPtr_[col];
            const std::int32_t c1 = uColPtr_[col + 1];
            for (std::int32_t t = c0; t < c1; ++t) {
                const std::size_t i = static_cast<std::size_t>(
                    uPos_[static_cast<std::size_t>(t)]);
                const std::int32_t dst = static_cast<std::int32_t>(
                    uRowPtr_[i] + fill_[i]);
                ++fill_[i];
                uRowCol_[static_cast<std::size_t>(dst)] =
                    static_cast<std::int32_t>(col);
                uRowVal_[static_cast<std::size_t>(dst)] =
                    uVal_[static_cast<std::size_t>(t)];
            }
        }
    }

    std::shared_ptr<const CscPattern> pattern_;
    bool factored_ = false;

    // Column-major factors built during factor().  L is strictly
    // lower (unit diagonal implicit), stored with *original* row
    // ids; U is strictly upper, stored with pivot positions; the
    // diagonal lives in diag_.
    std::vector<std::int32_t> lColPtr_, lRow_;
    std::vector<T> lVal_;
    std::vector<std::int32_t> uColPtr_, uPos_;
    std::vector<T> uVal_;
    std::vector<T> diag_;

    // Row-major mirrors for the triangular solves (built once per
    // factor; row = final pivot position, columns ascending).
    std::vector<std::int32_t> lRowPtr_, lRowCol_;
    std::vector<T> lRowVal_;
    std::vector<std::int32_t> uRowPtr_, uRowCol_;
    std::vector<T> uRowVal_;

    // Permutation state: rowAt_[pos] = original row at the physical
    // position, posOf_ its inverse, pinv_[row] = pivot position
    // (-1 while unpivoted), perm_ = final rowAt_ (the dense perm_).
    std::vector<std::int32_t> rowAt_, posOf_, pinv_, perm_;

    // Per-column workspaces.
    std::vector<T> x_;
    std::vector<std::int32_t> mark_;
    std::int32_t stamp_ = 0;
    std::vector<std::int32_t> stack_, entryStack_;
    std::vector<std::int32_t> reachTop_, reachBelow_, touched_;
    std::vector<std::int32_t> fill_;
};

using SparseLu = SparseLuT<double>;
using CSparseLu = SparseLuT<std::complex<double>>;

} // namespace vsgpu

#endif // VSGPU_NUMERIC_SPARSE_HH
