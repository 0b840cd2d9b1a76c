#include "ilp/basis_lu.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/assert.hpp"

namespace wishbone::ilp {

namespace {

/// Markowitz threshold stability: |pivot| >= tau * max|row|.
constexpr double kMarkowitzTau = 0.05;
/// Eta entries below this magnitude are dropped.
constexpr double kEtaDrop = 1e-14;
/// Smallest |w_r| / max|w| an eta update accepts (the drift guard).
constexpr double kEtaStab = 1e-7;

// ---------------------------------------------------------------- dense

/// Explicit dense inverse maintained by Gauss-Jordan elimination and
/// elementary row updates — the PR 1 solver core, kept verbatim as the
/// reference implementation the LU engine is differentially tested
/// against.
class DenseBasisEngine final : public BasisEngine {
 public:
  explicit DenseBasisEngine(int m) : m_(m) { set_identity(); }

  [[nodiscard]] BasisEngineKind kind() const override {
    return BasisEngineKind::kDense;
  }

  void set_identity() override {
    binv_.assign(static_cast<std::size_t>(m_) * m_, 0.0);
    for (int i = 0; i < m_; ++i) at(i, i) = 1.0;
  }

  [[nodiscard]] bool factorize(const std::vector<SparseColumn>& cols,
                               const std::vector<int>& basic) override {
    // binv_ = B^-1 by Gauss-Jordan with partial pivoting, where column
    // i of B is the constraint column of basic[i].
    std::vector<double>& B = b_scratch_;
    B.assign(static_cast<std::size_t>(m_) * m_, 0.0);
    for (int i = 0; i < m_; ++i) {
      for (const auto& [row, coeff] : cols[basic[i]]) {
        B[static_cast<std::size_t>(row) * m_ + i] = coeff;
      }
    }
    set_identity();
    for (int col = 0; col < m_; ++col) {
      int piv = -1;
      double best = kPivotEps;
      for (int r = col; r < m_; ++r) {
        const double a = std::fabs(B[static_cast<std::size_t>(r) * m_ + col]);
        if (a > best) {
          best = a;
          piv = r;
        }
      }
      if (piv < 0) return false;  // singular basis
      if (piv != col) {
        for (int c = 0; c < m_; ++c) {
          std::swap(B[static_cast<std::size_t>(piv) * m_ + c],
                    B[static_cast<std::size_t>(col) * m_ + c]);
          std::swap(at(piv, c), at(col, c));
        }
      }
      const double d = B[static_cast<std::size_t>(col) * m_ + col];
      for (int c = 0; c < m_; ++c) {
        B[static_cast<std::size_t>(col) * m_ + c] /= d;
        at(col, c) /= d;
      }
      for (int r = 0; r < m_; ++r) {
        if (r == col) continue;
        const double f = B[static_cast<std::size_t>(r) * m_ + col];
        if (f == 0.0) continue;
        for (int c = 0; c < m_; ++c) {
          B[static_cast<std::size_t>(r) * m_ + c] -=
              f * B[static_cast<std::size_t>(col) * m_ + c];
          at(r, c) -= f * at(col, c);
        }
      }
    }
    ++stats_.refactorizations;
    return true;
  }

  void ftran(const SparseColumn& a, std::vector<double>& out) const override {
    out.assign(m_, 0.0);
    for (const auto& [row, coeff] : a) {
      if (coeff == 0.0) continue;
      for (int i = 0; i < m_; ++i) out[i] += at(i, row) * coeff;
    }
  }

  void ftran_dense(std::vector<double>& x) const override {
    std::vector<double>& tmp = scratch_;
    tmp.assign(m_, 0.0);
    for (int i = 0; i < m_; ++i) {
      double v = 0.0;
      for (int k = 0; k < m_; ++k) v += at(i, k) * x[k];
      tmp[i] = v;
    }
    x = tmp;
  }

  void btran(std::vector<double>& y) const override {
    // y_out^T = y_in^T * Binv; the input (basic costs) is usually
    // sparse, so accumulate row-wise and skip zero rows.
    std::vector<double>& tmp = scratch_;
    tmp.assign(m_, 0.0);
    for (int i = 0; i < m_; ++i) {
      const double cb = y[i];
      if (cb == 0.0) continue;
      for (int k = 0; k < m_; ++k) tmp[k] += cb * at(i, k);
    }
    y = tmp;
  }

  void btran_unit(int r, std::vector<double>& out) const override {
    // e_r^T * Binv is literally row r of the explicit inverse.
    out.resize(m_);
    for (int k = 0; k < m_; ++k) out[k] = at(r, k);
  }

  [[nodiscard]] bool update(int leave_row,
                            const std::vector<double>& w) override {
    // Elementary row update: eliminate the entering column from all
    // other rows of the inverse.
    const double piv = w[leave_row];
    WB_ASSERT_MSG(std::fabs(piv) > kPivotEps, "degenerate pivot");
    for (int c = 0; c < m_; ++c) at(leave_row, c) /= piv;
    for (int k = 0; k < m_; ++k) {
      if (k == leave_row || std::fabs(w[k]) < 1e-14) continue;
      const double f = w[k];
      for (int c = 0; c < m_; ++c) at(k, c) -= f * at(leave_row, c);
    }
    return true;
  }

 private:
  double& at(int r, int c) {
    return binv_[static_cast<std::size_t>(r) * m_ + c];
  }
  [[nodiscard]] double at(int r, int c) const {
    return binv_[static_cast<std::size_t>(r) * m_ + c];
  }

  const int m_;
  std::vector<double> binv_;
  std::vector<double> b_scratch_;
  mutable std::vector<double> scratch_;
};

// ------------------------------------------------------------------- LU

/// Sparse LU with Markowitz pivoting plus a product-form eta file.
///
/// factorize() first pivots on column singletons (no multipliers, no
/// fill), then runs Gaussian elimination on what remains of the sparse
/// basis matrix, choosing each pivot by the Markowitz merit
/// (r_i - 1)(c_j - 1) among entries passing the threshold test
/// |a_ij| >= tau * max|row i|. The result is stored as the row/column
/// pivot orders p/q, the multiplier sets L_k, and the upper-triangular
/// rows U_k (original indices, so no explicit permutation matrices are
/// needed).
///
/// Each simplex pivot appends one eta vector: with w = B^-1 a_enter,
/// the new basis is B' = B E where E is the identity with column r
/// (the leaving row) replaced by w, so B'^-1 = E^-1 B^-1 and
///
///   FTRAN  apply E^-1 after the LU solve:   t = v_r / w_r,
///          v_i -= w_i t (i != r), v_r = t
///   BTRAN  apply E^-T before the LU solve:  c_r -= (c.w - c_r) / w_r
///
/// applied chronologically (FTRAN) / reverse-chronologically (BTRAN).
/// update() declines (returns false) when the eta file is full or
/// |w_r| is too small relative to max|w| — the numerical-drift guard —
/// and the caller refactorizes from the new basis instead.
class LuBasisEngine final : public BasisEngine {
 public:
  LuBasisEngine(int m, std::size_t max_eta) : m_(m), max_eta_(max_eta) {
    p_.resize(m_);
    q_.resize(m_);
    diag_.resize(m_);
    lcols_.resize(m_);
    urows_.resize(m_);
    spa_val_.assign(m_, 0.0);
    spa_stamp_.assign(m_, 0);
    spa_from_old_.assign(m_, 0);
    set_identity();
  }

  [[nodiscard]] BasisEngineKind kind() const override {
    return BasisEngineKind::kLu;
  }

  void set_identity() override {
    for (int k = 0; k < m_; ++k) {
      p_[k] = k;
      q_[k] = k;
      diag_[k] = 1.0;
      lcols_[k].clear();
      urows_[k].clear();
    }
    etas_.clear();
    stats_.eta_len = 0;
    stats_.factor_nnz = static_cast<std::size_t>(m_);
  }

  [[nodiscard]] bool factorize(const std::vector<SparseColumn>& cols,
                               const std::vector<int>& basic) override;

  void ftran(const SparseColumn& a, std::vector<double>& out) const override {
    out.assign(m_, 0.0);
    for (const auto& [row, coeff] : a) out[row] += coeff;
    ftran_dense(out);
  }

  void ftran_dense(std::vector<double>& x) const override {
    // L pass: replay the elimination's row operations on the rhs.
    for (int k = 0; k < m_; ++k) {
      const double t = x[p_[k]];
      if (t == 0.0) continue;
      for (const auto& [i, mult] : lcols_[k]) x[i] -= mult * t;
    }
    // U pass: back-substitution in pivot order; the solution lives in
    // column (= basis-position) space.
    std::vector<double>& sol = scratch_a_;
    sol.assign(m_, 0.0);
    for (int k = m_ - 1; k >= 0; --k) {
      double t = x[p_[k]];
      for (const auto& [j, v] : urows_[k]) t -= v * sol[j];
      sol[q_[k]] = t / diag_[k];
    }
    x = sol;
    // Eta file, chronologically: v <- E^-1 v per absorbed pivot.
    for (const Eta& e : etas_) {
      const double vr = x[e.r];
      if (vr == 0.0) continue;
      const double t = vr / e.wr;
      for (const auto& [i, wi] : e.w) x[i] -= wi * t;
      x[e.r] = t;
    }
  }

  void btran(std::vector<double>& y) const override {
    // Eta file in reverse: c^T <- c^T E^-1 touches only component r.
    for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
      double s = y[it->r] * it->wr;
      for (const auto& [i, wi] : it->w) s += y[i] * wi;
      y[it->r] -= (s - y[it->r]) / it->wr;
    }
    // U^T forward pass: residual update in column space, solution z in
    // row space.
    std::vector<double>& rz = scratch_a_;
    std::vector<double>& z = scratch_b_;
    rz = y;
    z.assign(m_, 0.0);
    for (int k = 0; k < m_; ++k) {
      const double zk = rz[q_[k]] / diag_[k];
      z[p_[k]] = zk;
      if (zk == 0.0) continue;
      for (const auto& [j, v] : urows_[k]) rz[j] -= v * zk;
    }
    // L^T pass: transposed row operations in reverse order.
    for (int k = m_ - 1; k >= 0; --k) {
      double acc = z[p_[k]];
      for (const auto& [i, mult] : lcols_[k]) acc -= mult * z[i];
      z[p_[k]] = acc;
    }
    y = z;
  }

  void btran_unit(int r, std::vector<double>& out) const override {
    out.assign(m_, 0.0);
    out[r] = 1.0;
    btran(out);
  }

  [[nodiscard]] bool update(int leave_row,
                            const std::vector<double>& w) override {
    if (etas_.size() >= max_eta_) return false;  // file full
    double wmax = 0.0;
    for (double v : w) wmax = std::max(wmax, std::fabs(v));
    const double wr = w[leave_row];
    // Drift guard: a pivot tiny relative to the direction it came from
    // would amplify error through every later eta application.
    if (std::fabs(wr) <= kPivotEps ||
        std::fabs(wr) < kEtaStab * wmax) {
      return false;
    }
    Eta e;
    e.r = leave_row;
    e.wr = wr;
    for (int i = 0; i < m_; ++i) {
      if (i != leave_row && std::fabs(w[i]) > kEtaDrop) {
        e.w.emplace_back(i, w[i]);
      }
    }
    etas_.push_back(std::move(e));
    ++stats_.eta_updates;
    stats_.eta_len = etas_.size();
    stats_.eta_len_peak = std::max(stats_.eta_len_peak, stats_.eta_len);
    return true;
  }

 private:
  struct Eta {
    int r = 0;                                ///< leaving basis row
    double wr = 1.0;                          ///< w[r] (the pivot)
    std::vector<std::pair<int, double>> w;    ///< w off-pivot nonzeros
  };

  const int m_;
  const std::size_t max_eta_;  ///< refactorize when the eta file is full

  // Factorization, pivot order k = 0..m-1 (original indices; the pivot
  // orders p_/q_ replace explicit permutation matrices).
  std::vector<int> p_;       ///< p_[k] = pivot row of step k
  std::vector<int> q_;       ///< q_[k] = pivot column of step k
  std::vector<double> diag_; ///< pivot values
  std::vector<std::vector<std::pair<int, double>>> lcols_;  ///< (row, mult)
  std::vector<std::vector<std::pair<int, double>>> urows_;  ///< (col, val)

  std::vector<Eta> etas_;

  // Factorization workspace (persists across refactorizations).
  std::vector<std::vector<std::pair<int, double>>> rows_;
  std::vector<std::vector<int>> colrows_;  ///< lazy col -> row lists
  std::vector<std::vector<int>> buckets_;  ///< lazy rows-by-count lists
  std::vector<int> singles_;  ///< column-singleton work queue
  std::vector<int> colcount_;
  std::vector<std::uint8_t> row_active_, col_active_;
  std::vector<double> spa_val_;
  std::vector<std::uint32_t> spa_stamp_;
  std::vector<std::uint8_t> spa_from_old_;
  std::uint32_t stamp_ = 0;
  std::vector<int> touched_;

  mutable std::vector<double> scratch_a_, scratch_b_;
};

bool LuBasisEngine::factorize(const std::vector<SparseColumn>& cols,
                              const std::vector<int>& basic) {
  // Working matrix, row-wise; column j of B is cols[basic[j]]. The
  // inner vectors are cleared, not reallocated, so a refactorization
  // reuses the capacity of the previous one.
  rows_.resize(m_);
  colrows_.resize(m_);
  buckets_.resize(static_cast<std::size_t>(m_) + 1);
  for (int i = 0; i < m_; ++i) {
    rows_[i].clear();
    colrows_[i].clear();
  }
  for (std::vector<int>& bucket : buckets_) bucket.clear();
  colcount_.assign(m_, 0);
  row_active_.assign(m_, 1);
  col_active_.assign(m_, 1);
  for (int j = 0; j < m_; ++j) {
    for (const auto& [r, v] : cols[basic[j]]) {
      if (v == 0.0) continue;
      rows_[r].emplace_back(j, v);
      colrows_[j].push_back(r);
      ++colcount_[j];
    }
  }

  int k = 0;
  // --- Column singletons first. A column with one active entry pivots
  // on that entry with no multipliers and no fill: its row moves into U
  // unchanged. Retiring the row can leave other columns with a single
  // active entry, so the pass runs to a fixed point. On a basis of
  // mostly slacks and partition columns this triangularizes nearly the
  // whole matrix and leaves Markowitz only the small remaining bump.
  singles_.clear();
  for (int j = 0; j < m_; ++j) {
    if (colcount_[j] == 0) return false;  // structurally singular
    if (colcount_[j] == 1) singles_.push_back(j);
  }
  for (std::size_t next = 0; next < singles_.size(); ++next) {
    const int pj = singles_[next];
    int pi = -1;
    for (int i : colrows_[pj]) {
      if (row_active_[i]) {
        pi = i;
        break;
      }
    }
    double apiv = 0.0;
    for (const auto& [j, v] : rows_[pi]) {
      if (j == pj) {
        apiv = v;
        break;
      }
    }
    // A tiny singleton is left to the threshold-tested Markowitz phase,
    // which declares the basis singular if nothing better turns up.
    if (std::fabs(apiv) <= kPivotEps) continue;
    urows_[k].clear();
    for (const auto& [j, v] : rows_[pi]) {
      if (j == pj) continue;
      urows_[k].emplace_back(j, v);
      if (--colcount_[j] == 0) return false;  // column left empty
      if (colcount_[j] == 1) singles_.push_back(j);
    }
    lcols_[k].clear();
    p_[k] = pi;
    q_[k] = pj;
    diag_[k] = apiv;
    ++k;
    row_active_[pi] = 0;
    col_active_[pj] = 0;
    colcount_[pj] = 0;
    rows_[pi].clear();
  }
  for (int i = 0; i < m_; ++i) {
    if (row_active_[i]) buckets_[rows_[i].size()].push_back(i);
  }

  // Rows examined per pivot before settling for the best merit seen.
  // Smallest-count rows are scanned first (Suhl-style), so the scan is
  // O(candidates * nnz) per pivot instead of a full matrix sweep.
  constexpr int kSearchRows = 8;

  for (; k < m_; ++k) {
    // --- Markowitz pivot selection with threshold stability, over the
    // count buckets. Bucket entries are lazily validated: every row
    // rebuild pushes the row into its new bucket, so an entry is live
    // only if the row is still active with a matching count.
    std::size_t best_merit = static_cast<std::size_t>(-1);
    double best_abs = 0.0;
    int best_i = -1, best_j = -1;
    int examined = 0;
    for (int c = 1; c <= m_ && best_merit > 0; ++c) {
      std::vector<int>& bucket = buckets_[c];
      for (std::size_t s = 0; s < bucket.size();) {
        const int i = bucket[s];
        if (!row_active_[i] ||
            static_cast<int>(rows_[i].size()) != c) {  // stale entry
          bucket[s] = bucket.back();
          bucket.pop_back();
          continue;
        }
        ++s;
        double rowmax = 0.0;
        for (const auto& [j, v] : rows_[i]) {
          rowmax = std::max(rowmax, std::fabs(v));
        }
        if (rowmax <= kPivotEps) return false;  // singular row
        const double thresh =
            std::max(kMarkowitzTau * rowmax, kPivotEps);
        for (const auto& [j, v] : rows_[i]) {
          const double a = std::fabs(v);
          if (a < thresh) continue;
          const std::size_t merit =
              static_cast<std::size_t>(c - 1) * (colcount_[j] - 1);
          if (merit < best_merit || (merit == best_merit && a > best_abs)) {
            best_merit = merit;
            best_abs = a;
            best_i = i;
            best_j = j;
          }
        }
        if (++examined >= kSearchRows && best_i >= 0) break;
      }
      if ((examined >= kSearchRows && best_i >= 0) || best_merit == 0) break;
    }
    if (best_i < 0) return false;  // every remaining row is empty/tiny

    // --- Record the pivot; move its row into U.
    const int pi = best_i, pj = best_j;
    double apiv = 0.0;
    urows_[k].clear();
    for (const auto& [j, v] : rows_[pi]) {
      if (j == pj) apiv = v;
      else urows_[k].emplace_back(j, v);
      --colcount_[j];
    }
    p_[k] = pi;
    q_[k] = pj;
    diag_[k] = apiv;
    row_active_[pi] = 0;
    col_active_[pj] = 0;
    rows_[pi].clear();

    // --- Eliminate column pj from the remaining active rows.
    lcols_[k].clear();
    for (int i : colrows_[pj]) {
      if (!row_active_[i]) continue;
      double aipj = 0.0;
      for (const auto& [j, v] : rows_[i]) {
        if (j == pj) {
          aipj = v;
          break;
        }
      }
      if (aipj == 0.0) continue;  // stale colrows entry
      const double mult = aipj / apiv;
      lcols_[k].emplace_back(i, mult);

      // Sparse row update via scatter: row_i -= mult * (U row k); the
      // pj entries cancel by construction.
      ++stamp_;
      touched_.clear();
      for (const auto& [j, v] : rows_[i]) {
        if (j == pj) continue;
        spa_val_[j] = v;
        spa_stamp_[j] = stamp_;
        spa_from_old_[j] = 1;
        touched_.push_back(j);
      }
      for (const auto& [j, v] : urows_[k]) {
        if (spa_stamp_[j] == stamp_) {
          spa_val_[j] -= mult * v;
        } else {
          spa_val_[j] = -mult * v;
          spa_stamp_[j] = stamp_;
          spa_from_old_[j] = 0;
          touched_.push_back(j);
        }
      }
      auto& row = rows_[i];
      row.clear();
      for (int j : touched_) {
        const double v = spa_val_[j];
        if (std::fabs(v) > 1e-14) {
          row.emplace_back(j, v);
          if (!spa_from_old_[j]) {  // fill-in
            ++colcount_[j];
            colrows_[j].push_back(i);
          }
        } else if (spa_from_old_[j]) {  // cancelled out
          --colcount_[j];
        }
      }
      buckets_[row.size()].push_back(i);
    }
    colrows_[pj].clear();
  }

  std::size_t nnz = static_cast<std::size_t>(m_);
  for (int k = 0; k < m_; ++k) nnz += urows_[k].size() + lcols_[k].size();
  stats_.factor_nnz = nnz;
  etas_.clear();
  stats_.eta_len = 0;
  ++stats_.refactorizations;
  return true;
}

}  // namespace

std::unique_ptr<BasisEngine> make_basis_engine(BasisEngineKind kind, int m,
                                               std::size_t max_eta) {
  if (kind == BasisEngineKind::kDense) {
    return std::make_unique<DenseBasisEngine>(m);
  }
  return std::make_unique<LuBasisEngine>(m, max_eta);
}

}  // namespace wishbone::ilp
