#include "core/esharing.h"

#include <stdexcept>

#include "data/wire.h"
#include "obs/registry.h"
#include "obs/scoped_timer.h"
#include "solver/jms_greedy.h"

namespace esharing::core {

using geo::Point;

namespace {

[[noreturn]] void config_fail(const std::string& field, double got,
                              const std::string& why) {
  throw std::invalid_argument("ESharingConfig: " + field + " = " +
                              std::to_string(got) + " is invalid: " + why);
}

/// The bootstrap plan, every reanchor and a restored session solve on the
/// process-wide exec pool (ESHARING_THREADS; 1 = sequential). Every solver
/// returns the same bits at every width.
constexpr solver::ReoptOptions kReoptOptions{.num_threads = 0};

}  // namespace

void ESharingConfig::validate() const {
  if (!(placer.beta >= 1.0)) {
    config_fail("placer.beta", placer.beta,
                "the opening scale doubles every beta*k openings, so beta "
                "must be >= 1");
  }
  if (!(placer.tolerance > 0.0)) {
    config_fail("placer.tolerance", placer.tolerance,
                "the penalty tolerance L is a distance in meters and must "
                "be positive");
  }
  if (!(placer.w_star_override >= 0.0)) {
    config_fail("placer.w_star_override", placer.w_star_override,
                "must be 0 (compute w* from the landmarks) or positive");
  }
  if (!(placer.initial_scale_override >= 0.0)) {
    config_fail("placer.initial_scale_override", placer.initial_scale_override,
                "must be 0 (derive the scale from gamma * w*/k) or positive");
  }
  if (!(placer.initial_scale_override > 0.0) &&
      !(placer.initial_scale_multiplier > 0.0)) {
    config_fail("placer.initial_scale_multiplier",
                placer.initial_scale_multiplier,
                "gamma must be positive when no initial_scale_override is "
                "given, or the initial opening scale collapses to zero");
  }
  if (!(incentive.alpha >= 0.0 && incentive.alpha <= 1.0)) {
    config_fail("incentive.alpha", incentive.alpha,
                "the incentive level is a fraction of the saving and must "
                "lie in [0, 1] (0 disables offers)");
  }
  if (!(incentive.mileage_slack_m >= 0.0)) {
    config_fail("incentive.mileage_slack_m", incentive.mileage_slack_m,
                "the |d(i,k) - d(i,j)| tolerance is a distance and cannot "
                "be negative");
  }
  if (incentive.max_sequence_position == 0) {
    config_fail("incentive.max_sequence_position", 0.0,
                "the offer value uses a 1-based sequence position, so the "
                "cap must be >= 1");
  }
  if (!(incentive.costs.service_cost_q >= 0.0)) {
    config_fail("incentive.costs.service_cost_q",
                incentive.costs.service_cost_q,
                "per-stop service cost cannot be negative");
  }
  if (!(incentive.costs.delay_cost_d >= 0.0)) {
    config_fail("incentive.costs.delay_cost_d", incentive.costs.delay_cost_d,
                "per-position delay cost cannot be negative");
  }
  if (!(incentive.costs.energy_cost_b >= 0.0)) {
    config_fail("incentive.costs.energy_cost_b", incentive.costs.energy_cost_b,
                "per-bike charging cost cannot be negative");
  }
  if (!(charging_operator.speed_mps > 0.0)) {
    config_fail("charging_operator.speed_mps", charging_operator.speed_mps,
                "the service vehicle must move to reach any station");
  }
  if (!(charging_operator.stop_overhead_s >= 0.0)) {
    config_fail("charging_operator.stop_overhead_s",
                charging_operator.stop_overhead_s,
                "per-stop overhead is a duration and cannot be negative");
  }
  if (!(charging_operator.charge_time_s >= 0.0)) {
    config_fail("charging_operator.charge_time_s",
                charging_operator.charge_time_s,
                "per-stop charge time is a duration and cannot be negative");
  }
  if (!(charging_operator.work_seconds > 0.0)) {
    config_fail("charging_operator.work_seconds",
                charging_operator.work_seconds,
                "a non-positive shift means the operator can never serve a "
                "single stop");
  }
}

ESharing::ESharing(ESharingConfig config, std::uint64_t seed)
    : config_(config), seed_(seed) {
  config_.validate();
}

const solver::FlSolution& ESharing::plan_offline(
    const std::vector<data::DemandSite>& sites,
    std::function<double(Point)> opening_cost_fn) {
  if (sites.empty()) {
    throw std::invalid_argument("ESharing::plan_offline: no demand sites");
  }
  if (!opening_cost_fn) {
    throw std::invalid_argument("ESharing::plan_offline: null opening cost fn");
  }
  opening_cost_fn_ = std::move(opening_cost_fn);

  std::vector<solver::FlClient> clients;
  std::vector<double> costs;
  clients.reserve(sites.size());
  costs.reserve(sites.size());
  for (const auto& site : sites) {
    clients.push_back({site.location, site.arrivals});
    costs.push_back(opening_cost_fn_(site.location));
  }
  auto instance = solver::colocated_instance(std::move(clients),
                                             std::move(costs));
  {
    const obs::ScopedTimer timer(
        obs::Registry::global().histogram("core.esharing.plan_offline_seconds"));
    // The session's construction cold solve IS the plan (bit-identical to
    // the former direct jms_greedy call); it stays alive so reanchor() can
    // warm re-solve against demand drift.
    reopt_ = std::make_unique<solver::ReoptimizationSession>(
        std::move(instance), kReoptOptions, opening_cost_fn_);
    offline_ = reopt_->solution();
  }
  offline_locations_.clear();
  for (std::size_t f : offline_->open) {
    offline_locations_.push_back(reopt_->instance().facilities[f].location);
  }
  placer_.reset();  // a new plan invalidates any running online phase
  return *offline_;
}

const solver::FlSolution& ESharing::reanchor(
    const std::vector<data::DemandSite>& sites) {
  if (reopt_ == nullptr) {
    throw std::logic_error("ESharing::reanchor: plan_offline first");
  }
  if (sites.empty()) {
    throw std::invalid_argument("ESharing::reanchor: no demand sites");
  }
  std::vector<solver::FlClient> target;
  target.reserve(sites.size());
  for (const auto& site : sites) {
    target.push_back({site.location, site.arrivals});
  }
  {
    const obs::ScopedTimer timer(
        obs::Registry::global().histogram("core.esharing.reanchor_seconds"));
    offline_ = reopt_->reoptimize_to(target);
  }
  offline_locations_.clear();
  for (std::size_t f : offline_->open) {
    offline_locations_.push_back(reopt_->instance().facilities[f].location);
  }
  if (placer_.has_value()) placer_->reanchor(offline_locations_);
  return *offline_;
}

const solver::ReoptimizationSession& ESharing::reopt_session() const {
  if (reopt_ == nullptr) {
    throw std::logic_error("ESharing::reopt_session: plan_offline first");
  }
  return *reopt_;
}

void ESharing::start_online(std::vector<Point> historical_sample) {
  if (!offline_.has_value()) {
    throw std::logic_error("ESharing::start_online: plan_offline first");
  }
  placer_.emplace(offline_locations_, std::move(historical_sample),
                  opening_cost_fn_, config_.placer, seed_ ^ 0x9e3779b97f4a7c15ULL);
}

solver::OnlineDecision ESharing::handle_request(Point destination,
                                                double weight) {
  if (!placer_.has_value()) {
    throw std::logic_error("ESharing::handle_request: start_online first");
  }
  return placer_->process(destination, weight);
}

std::vector<Point> ESharing::parking_locations() const {
  if (placer_.has_value()) return placer_->active_locations();
  if (offline_.has_value()) return offline_locations_;
  throw std::logic_error("ESharing::parking_locations: no plan yet");
}

const solver::FlSolution& ESharing::offline_solution() const {
  if (!offline_.has_value()) {
    throw std::logic_error("ESharing::offline_solution: no plan yet");
  }
  return *offline_;
}

const DeviationPenaltyPlacer& ESharing::placer() const {
  if (!placer_.has_value()) {
    throw std::logic_error("ESharing::placer: start_online first");
  }
  return *placer_;
}

DeviationPenaltyPlacer& ESharing::placer() {
  if (!placer_.has_value()) {
    throw std::logic_error("ESharing::placer: start_online first");
  }
  return *placer_;
}

void ESharing::save_placer(std::ostream& os) const {
  placer().save(os);
}

void ESharing::restore_placer(std::istream& is) {
  if (!offline_.has_value()) {
    throw std::logic_error("ESharing::restore_placer: plan_offline first");
  }
  placer_ = DeviationPenaltyPlacer::restore(is, opening_cost_fn_,
                                            config_.placer);
}

namespace {
namespace wire = data::wire;
// Re-optimization session blob: the post-delta instance + last solution
// (see ReoptimizationSession::from_state). Versioned like the placer blob.
constexpr std::uint64_t kReoptMagic = 0x4552454f50545331ULL;  // "EREOPTS1"
constexpr std::uint64_t kReoptVersion = 1;
constexpr std::uint64_t kReoptSaneMax = 1ULL << 32;
}  // namespace

void ESharing::save_reopt(std::ostream& os) const {
  if (reopt_ == nullptr) {
    throw std::logic_error("ESharing::save_reopt: plan_offline first");
  }
  const solver::FlInstance& instance = reopt_->instance();
  const solver::FlSolution& last = reopt_->solution();
  wire::write_u64(os, kReoptMagic);
  wire::write_u64(os, kReoptVersion);
  wire::write_u64(os, instance.clients.size());
  for (const solver::FlClient& c : instance.clients) {
    wire::write_f64(os, c.location.x);
    wire::write_f64(os, c.location.y);
    wire::write_f64(os, c.weight);
  }
  wire::write_u64(os, instance.facilities.size());
  for (const solver::FlFacility& f : instance.facilities) {
    wire::write_f64(os, f.location.x);
    wire::write_f64(os, f.location.y);
    wire::write_f64(os, f.opening_cost);
  }
  wire::write_u64(os, last.open.size());
  for (std::size_t f : last.open) wire::write_u64(os, f);
  wire::write_u64(os, last.assignment.size());
  for (std::size_t f : last.assignment) wire::write_u64(os, f);
  wire::write_f64(os, last.connection_cost);
  wire::write_f64(os, last.opening_cost);
}

void ESharing::restore_reopt(std::istream& is) {
  if (reopt_ == nullptr) {
    throw std::logic_error("ESharing::restore_reopt: plan_offline first");
  }
  if (wire::read_u64(is) != kReoptMagic) {
    throw std::runtime_error(
        "ESharing::restore_reopt: bad magic — not a reopt session blob");
  }
  const std::uint64_t version = wire::read_u64(is);
  if (version != kReoptVersion) {
    throw std::runtime_error(
        "ESharing::restore_reopt: unsupported blob version " +
        std::to_string(version) + " (this build reads " +
        std::to_string(kReoptVersion) + ")");
  }
  solver::FlInstance instance;
  const std::uint64_t n_clients = wire::read_count(is, kReoptSaneMax);
  instance.clients.reserve(n_clients);
  for (std::uint64_t i = 0; i < n_clients; ++i) {
    solver::FlClient c;
    c.location.x = wire::read_f64(is);
    c.location.y = wire::read_f64(is);
    c.weight = wire::read_f64(is);
    instance.clients.push_back(c);
  }
  const std::uint64_t n_facilities = wire::read_count(is, kReoptSaneMax);
  instance.facilities.reserve(n_facilities);
  for (std::uint64_t i = 0; i < n_facilities; ++i) {
    solver::FlFacility f;
    f.location.x = wire::read_f64(is);
    f.location.y = wire::read_f64(is);
    f.opening_cost = wire::read_f64(is);
    instance.facilities.push_back(f);
  }
  solver::FlSolution last;
  const std::uint64_t n_open = wire::read_count(is, kReoptSaneMax);
  last.open.reserve(n_open);
  for (std::uint64_t i = 0; i < n_open; ++i) {
    last.open.push_back(wire::read_u64(is));
  }
  const std::uint64_t n_assignment = wire::read_count(is, kReoptSaneMax);
  last.assignment.reserve(n_assignment);
  for (std::uint64_t i = 0; i < n_assignment; ++i) {
    last.assignment.push_back(wire::read_u64(is));
  }
  last.connection_cost = wire::read_f64(is);
  last.opening_cost = wire::read_f64(is);
  if (!is) {
    throw std::runtime_error(
        "ESharing::restore_reopt: truncated reopt session blob");
  }
  try {
    reopt_ = solver::ReoptimizationSession::from_state(
        std::move(instance), std::move(last), kReoptOptions, opening_cost_fn_);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("ESharing::restore_reopt: "
                                         "inconsistent blob: ") +
                             e.what());
  }
  offline_ = reopt_->solution();
  offline_locations_.clear();
  for (std::size_t f : offline_->open) {
    offline_locations_.push_back(reopt_->instance().facilities[f].location);
  }
}

IncentiveMechanism ESharing::make_incentive_session(
    const energy::BikeFleet& fleet,
    const std::vector<std::size_t>& bike_station) const {
  if (bike_station.size() != fleet.size()) {
    throw std::invalid_argument(
        "ESharing::make_incentive_session: bike_station size mismatch");
  }
  const auto locations = parking_locations();
  std::vector<EnergyStation> stations;
  stations.reserve(locations.size());
  for (Point p : locations) stations.push_back({p, {}});
  for (std::size_t b = 0; b < fleet.size(); ++b) {
    if (bike_station[b] >= stations.size()) {
      throw std::invalid_argument(
          "ESharing::make_incentive_session: station index out of range");
    }
    if (fleet.is_low(b)) stations[bike_station[b]].low_bikes.push_back(b);
  }
  return IncentiveMechanism(std::move(stations), config_.incentive);
}

ChargingRoundResult ESharing::charge(const IncentiveMechanism& session) const {
  return run_charging_round(session.stations(), config_.incentive.costs,
                            config_.charging_operator);
}

}  // namespace esharing::core
