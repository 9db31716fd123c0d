#include "solver/facility_location.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace esharing::solver {

double FlInstance::connection_cost(std::size_t facility,
                                   std::size_t client) const {
  return clients[client].weight *
         geo::distance(facilities[facility].location, clients[client].location);
}

void FlInstance::validate() const {
  if (clients.empty()) throw std::invalid_argument("FlInstance: no clients");
  if (facilities.empty()) throw std::invalid_argument("FlInstance: no facilities");
  for (const auto& c : clients) {
    if (!(c.weight >= 0.0)) {
      throw std::invalid_argument("FlInstance: negative client weight");
    }
  }
  for (const auto& f : facilities) {
    if (!(f.opening_cost >= 0.0)) {
      throw std::invalid_argument("FlInstance: negative opening cost");
    }
  }
}

FlInstance colocated_instance(std::vector<FlClient> clients,
                              std::vector<double> opening_costs) {
  if (clients.size() != opening_costs.size()) {
    throw std::invalid_argument(
        "colocated_instance: clients/opening_costs size mismatch");
  }
  FlInstance inst;
  inst.facilities.reserve(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    inst.facilities.push_back({clients[i].location, opening_costs[i]});
  }
  inst.clients = std::move(clients);
  inst.validate();
  return inst;
}

FlSolution assign_to_open(const FlInstance& instance,
                          const std::vector<std::size_t>& open) {
  if (open.empty()) {
    throw std::invalid_argument("assign_to_open: empty open set");
  }
  for (std::size_t f : open) {
    if (f >= instance.facilities.size()) {
      throw std::invalid_argument("assign_to_open: facility index out of range");
    }
  }
  FlSolution sol;
  sol.open = open;
  std::sort(sol.open.begin(), sol.open.end());
  sol.open.erase(std::unique(sol.open.begin(), sol.open.end()), sol.open.end());
  sol.assignment.resize(instance.clients.size());
  for (std::size_t j = 0; j < instance.clients.size(); ++j) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_f = sol.open.front();
    for (std::size_t f : sol.open) {
      const double c = instance.connection_cost(f, j);
      if (c < best) {
        best = c;
        best_f = f;
      }
    }
    sol.assignment[j] = best_f;
    sol.connection_cost += best;
  }
  for (std::size_t f : sol.open) {
    sol.opening_cost += instance.facilities[f].opening_cost;
  }
  return sol;
}

FlSolution recost(const FlInstance& instance, FlSolution sol) {
  if (sol.assignment.size() != instance.clients.size()) {
    throw std::invalid_argument("recost: assignment size mismatch");
  }
  std::sort(sol.open.begin(), sol.open.end());
  sol.open.erase(std::unique(sol.open.begin(), sol.open.end()), sol.open.end());
  sol.connection_cost = 0.0;
  sol.opening_cost = 0.0;
  // Range-check the open set first: every assigned facility must be open,
  // so each connection_cost(f, j) below reads an in-range row.
  for (std::size_t f : sol.open) {
    if (f >= instance.facilities.size()) {
      throw std::invalid_argument("recost: facility index out of range");
    }
    sol.opening_cost += instance.facilities[f].opening_cost;
  }
  for (std::size_t j = 0; j < sol.assignment.size(); ++j) {
    const std::size_t f = sol.assignment[j];
    if (!std::binary_search(sol.open.begin(), sol.open.end(), f)) {
      throw std::invalid_argument("recost: client assigned to closed facility");
    }
    sol.connection_cost += instance.connection_cost(f, j);
  }
  return sol;
}

}  // namespace esharing::solver
