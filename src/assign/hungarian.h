// Hungarian (Kuhn-Munkres) algorithm, O(n^2 * m) shortest-augmenting-path
// formulation with potentials — the polynomial-time assignment solver Phase I
// of WOLT relies on (Alg. 1 line 4, "ASSIGNMENT SOLVER"; complexity analysis
// §IV-B).
//
// Solves the rectangular maximization problem: given utilities(r, c) for
// rows r (tasks, e.g. extenders) and columns c (agents, e.g. users) with
// rows <= cols, choose a distinct column for every row maximizing total
// utility. Forbidden pairings are expressed with kForbidden.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/arena.h"
#include "util/deadline.h"

namespace wolt::assign {

// Dense row-major matrix. Replaces the old vector<vector<double>>: one
// contiguous allocation, cache-friendly row scans in the solver's inner
// loop, and no per-row indirection.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double value = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, value) {}
  Matrix(std::initializer_list<std::initializer_list<double>> init)
      : rows_(init.size()), cols_(init.size() ? init.begin()->size() : 0) {
    data_.reserve(rows_ * cols_);
    for (const auto& row : init) {
      if (row.size() != cols_) throw std::invalid_argument("ragged matrix");
      data_.insert(data_.end(), row.begin(), row.end());
    }
  }

  // Resize to rows x cols in place, reusing the buffer's capacity. The flat
  // storage keeps its leading values (new trailing ones are 0.0), so after a
  // shape change entries do not follow their (r, c) positions: for callers
  // that rewrite every entry of a long-lived matrix.
  void Reshape(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  // Pointer to the start of row r (cols() contiguous values).
  const double* Row(std::size_t r) const { return data_.data() + r * cols_; }
  double* Row(std::size_t r) { return data_.data() + r * cols_; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  std::size_t size() const { return data_.size(); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

struct HungarianResult {
  // col_of_row[r] = column assigned to row r, or -1 when row r is
  // unmatched (only possible after a deadline-truncated solve).
  std::vector<int> col_of_row;
  double total_utility = 0.0;
  // False iff some row could only be matched through a forbidden pairing
  // (its col_of_row entry is then not meaningful for that row).
  bool feasible = true;
  // True iff the solve stopped early on deadline expiry. The rows matched
  // before the stop form a valid partial assignment (distinct columns);
  // every later row has col_of_row == -1.
  bool deadline_hit = false;
};

inline constexpr double kForbidden =
    -std::numeric_limits<double>::infinity();

// Maximize total utility. Requires a non-empty rectangular matrix with
// rows <= cols; throws std::invalid_argument otherwise. `deadline` (may be
// null = unlimited) is polled once per row augmentation: the rows matched
// so far are kept and the rest left unmatched, so the result is always a
// consistent best-so-far partial matching.
//
// `arena` (may be null) provides the solver scratch: a caller that reuses
// one arena across solves (resetting it between them) makes every solve
// after the first allocation-free. With no arena a call-local one is used,
// which preserves the old per-call allocation behaviour.
HungarianResult SolveAssignmentMax(const Matrix& utilities,
                                   const util::Deadline* deadline = nullptr,
                                   util::SolverArena* arena = nullptr);

// Minimization twin (used by tests to cross-check against known instances).
// Forbidden pairs are +infinity costs.
HungarianResult SolveAssignmentMin(const Matrix& costs,
                                   const util::Deadline* deadline = nullptr,
                                   util::SolverArena* arena = nullptr);

}  // namespace wolt::assign
