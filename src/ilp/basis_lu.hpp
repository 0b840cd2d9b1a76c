// Basis factorization engines for the revised simplex.
//
// `SimplexState` needs five operations on the basis matrix B (the m
// columns of the working constraint matrix currently basic):
//
//   factorize   rebuild the factorization from the basis columns
//   ftran       x = B^-1 a            (pivot directions, basic values)
//   btran       y = B^-T c            (duals / pricing)
//   btran_unit  rho = B^-T e_r        (row r of B^-1: the dual simplex
//               pivot row)
//   update      absorb one pivot: column `leave_row` of B replaced by
//               the entering column whose FTRAN image is `w`
//
// `LuBasisEngine` is the engine every solve runs on: a sparse LU
// factorization — column singletons first, then Markowitz pivoting
// (fill-minimizing merit, threshold stability) on the rest — plus a
// product-form eta file. Each pivot appends one sparse eta vector
// instead of touching m^2 entries, and the factorization is rebuilt
// only when the eta file hits `max_eta` or a pivot is too unstable to
// absorb (update() returns false and the caller refactorizes). Solves
// cost O(nnz(L)+nnz(U)+nnz(etas)).
//
// `DenseBasisEngine` maintains an explicit dense m x m inverse by
// Gauss-Jordan (the PR 1 solver): O(m^2) per pivot and per solve,
// O(m^3) per refactorization. It is the test oracle — the randomized
// differential harness (tests/test_lp_differential.cpp) selects it with
// `kDense` and pits it against the LU engine on thousands of generated
// LPs/MIPs.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace wishbone::ilp {

/// One working-form column: (constraint row, coefficient) pairs.
using SparseColumn = std::vector<std::pair<int, double>>;

enum class BasisEngineKind {
  kLu,     ///< Markowitz sparse LU + eta-file updates (every solve)
  kDense,  ///< explicit dense inverse (the differential-test oracle)
};

/// Smallest pivot magnitude the engines and the simplex ratio tests
/// admit; anything below is treated as zero (a singular basis in
/// factorize(), a non-blocking row in a ratio test).
inline constexpr double kPivotEps = 1e-9;

struct BasisEngineStats {
  std::size_t refactorizations = 0;  ///< full factorizations performed
  std::size_t eta_updates = 0;       ///< pivots absorbed into the eta file
  std::size_t eta_len = 0;           ///< current eta-file length
  std::size_t eta_len_peak = 0;      ///< longest eta file ever held
  std::size_t factor_nnz = 0;        ///< nnz(L)+nnz(U) of the last LU
};

class BasisEngine {
 public:
  virtual ~BasisEngine() = default;

  [[nodiscard]] virtual BasisEngineKind kind() const = 0;

  /// Resets to the factorization of the identity basis (all slacks).
  virtual void set_identity() = 0;

  /// Factorizes the basis whose i-th column is cols[basic[i]].
  /// Returns false when the basis is numerically singular (the engine
  /// is then unusable until the next successful factorize).
  [[nodiscard]] virtual bool factorize(const std::vector<SparseColumn>& cols,
                                       const std::vector<int>& basic) = 0;

  /// out = B^-1 a for a sparse column `a`; out is assigned size m.
  virtual void ftran(const SparseColumn& a, std::vector<double>& out) const = 0;

  /// In-place x = B^-1 x for a dense right-hand side.
  virtual void ftran_dense(std::vector<double>& x) const = 0;

  /// In-place y = B^-T y (i.e. y^T = y_in^T B^-1): basic costs in,
  /// duals out.
  virtual void btran(std::vector<double>& y) const = 0;

  /// out = B^-T e_r — row r of the basis inverse (rho^T = e_r^T B^-1),
  /// the dual simplex pivot row; out is assigned size m. The dense
  /// engine reads the row straight out of its explicit inverse; the LU
  /// engine runs a unit vector through the full BTRAN path.
  virtual void btran_unit(int r, std::vector<double>& out) const = 0;

  /// Absorbs a pivot: basis column `leave_row` replaced by the column
  /// whose FTRAN image is `w` (the simplex pivot direction). Returns
  /// false when the engine declines — eta file full or the pivot too
  /// unstable — in which case the caller must refactorize() instead.
  [[nodiscard]] virtual bool update(int leave_row,
                                    const std::vector<double>& w) = 0;

  [[nodiscard]] const BasisEngineStats& stats() const { return stats_; }

 protected:
  BasisEngineStats stats_;
};

/// Creates an engine for an m-row basis. The LU engine declines
/// update() once its eta file holds `max_eta` pivots (the dense engine
/// has no eta file and ignores it).
[[nodiscard]] std::unique_ptr<BasisEngine> make_basis_engine(
    BasisEngineKind kind, int m, std::size_t max_eta = 64);

}  // namespace wishbone::ilp
