#include "model/soa.h"

#include <algorithm>

namespace wolt::model {
namespace {

// Writes the column-major copy of the row-major num_rows x num_cols matrix
// `rows` into `out` (out[c * num_rows + r] = rows[r * num_cols + c]).
void TransposeInto(const double* rows, std::size_t num_rows,
                   std::size_t num_cols, std::vector<double>& out) {
  out.resize(num_rows * num_cols);
  for (std::size_t i = 0; i < num_rows; ++i) {
    const double* row = rows + i * num_cols;
    for (std::size_t j = 0; j < num_cols; ++j) {
      out[j * num_rows + i] = row[j];
    }
  }
}

}  // namespace

bool NetworkSoA::Refresh(const Network& net) {
  if (built_ && Matches(net)) return false;
  source_ = &net;
  version_ = net.Version();
  built_ = true;
  transposed_ = false;

  num_users = net.NumUsers();
  num_extenders = net.NumExtenders();

  inv_rate.assign(num_users * num_extenders, 0.0);
  for (std::size_t i = 0; i < num_users; ++i) {
    const double* row = net.WifiRateRow(i);
    double* inv = inv_rate.data() + i * num_extenders;
    for (std::size_t j = 0; j < num_extenders; ++j) {
      if (row[j] > 0.0) inv[j] = 1.0 / row[j];
    }
  }

  plc_rate.resize(num_extenders);
  cap.resize(num_extenders);
  plc_domain.resize(num_extenders);
  num_domains = 0;
  for (std::size_t j = 0; j < num_extenders; ++j) {
    plc_rate[j] = net.PlcRate(j);
    cap[j] = net.MaxUsers(j);
    const int d = net.PlcDomain(j);
    plc_domain[j] = d;
    num_domains = std::max(num_domains, static_cast<std::size_t>(d) + 1);
  }

  demand.resize(num_users);
  any_finite_demand = false;
  for (std::size_t i = 0; i < num_users; ++i) {
    demand[i] = net.UserDemand(i);
    if (demand[i] > 0.0) any_finite_demand = true;
  }

  // Counting sort into the CSR (ascending extender id within each domain).
  domain_start.assign(num_domains + 1, 0);
  domain_size.assign(num_domains, 0);
  for (std::size_t j = 0; j < num_extenders; ++j) {
    const std::size_t d = static_cast<std::size_t>(plc_domain[j]);
    ++domain_start[d + 1];
    ++domain_size[d];
  }
  for (std::size_t d = 0; d < num_domains; ++d) {
    domain_start[d + 1] += domain_start[d];
  }
  domain_items.assign(num_extenders, 0);
  std::vector<int> cursor(num_domains, 0);
  for (std::size_t j = 0; j < num_extenders; ++j) {
    const std::size_t d = static_cast<std::size_t>(plc_domain[j]);
    domain_items[static_cast<std::size_t>(domain_start[d] + cursor[d]++)] =
        static_cast<int>(j);
  }
  return true;
}

const double* NetworkSoA::InvRateColumns() const {
  if (!transposed_) {
    TransposeInto(inv_rate.data(), num_users, num_extenders, inv_rate_t_);
    transposed_ = true;
  }
  return inv_rate_t_.data();
}

}  // namespace wolt::model
