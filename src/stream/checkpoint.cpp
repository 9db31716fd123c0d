#include "stream/checkpoint.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "data/wire.h"

namespace esharing::stream {

namespace {

namespace wire = data::wire;
constexpr std::uint64_t kCheckpointMagic = 0x4553545243435031ULL;  // "ESTRCCP1"
// v2: the re-optimization session state (ESharing::save_reopt) rides along
// after the placer blob — without it a post-restore re-anchor warm-solves
// from the bootstrap instance instead of the instance the original process
// had drifted to, and the two landmark histories diverge.
constexpr std::uint64_t kCheckpointVersion = 2;

}  // namespace

void save_checkpoint(std::ostream& os, const EventBus& bus,
                     const OnlinePlacerDriver& placer_driver,
                     const IncentiveDriver& incentive_driver) {
  if (bus.pending_total() != 0) {
    throw std::logic_error(
        "save_checkpoint: " + std::to_string(bus.pending_total()) +
        " events still queued — drain and consume them first (the "
        "checkpoint format only represents queues-drained state)");
  }
  if (placer_driver.shard_count() != bus.shard_count()) {
    throw std::logic_error(
        "save_checkpoint: driver serves " +
        std::to_string(placer_driver.shard_count()) + " shards but the bus "
        "has " + std::to_string(bus.shard_count()));
  }
  wire::write_u64(os, kCheckpointMagic);
  wire::write_u64(os, kCheckpointVersion);
  wire::write_u64(os, bus.shard_count());
  static_assert(kCellM == 100.0,
                "the checkpoint's routing-cell field is the literal 100.0");
  wire::write_f64(os, 100.0);  // routing cell edge, meters
  wire::write_u8(os, 0);  // retired backpressure-policy byte (always block)
  wire::write_u64(os, bus.config().queue_capacity);
  wire::write_u64(os, bus.next_seq());
  placer_driver.system().save_placer(os);
  placer_driver.system().save_reopt(os);
  placer_driver.save(os);
  incentive_driver.save(os);
  // ostream insertion fails silently (badbit is sticky but unchecked);
  // surface a short write here rather than handing back a truncated
  // checkpoint that only fails at restore time.
  if (!os) {
    throw std::runtime_error(
        "save_checkpoint: stream write failed mid-checkpoint — the output "
        "is truncated and must be discarded");
  }
}

CheckpointInfo restore_checkpoint(std::istream& is, EventBus& bus,
                                  core::ESharing& system,
                                  OnlinePlacerDriver& placer_driver,
                                  IncentiveDriver& incentive_driver) {
  if (&placer_driver.system() != &system) {
    throw std::logic_error(
        "restore_checkpoint: `system` is not the ESharing instance the "
        "placer driver serves");
  }
  if (wire::read_u64(is) != kCheckpointMagic) {
    throw std::runtime_error(
        "restore_checkpoint: bad magic — not an esharing stream checkpoint");
  }
  CheckpointInfo info;
  info.version = wire::read_u64(is);
  if (info.version != kCheckpointVersion) {
    throw std::runtime_error(
        "restore_checkpoint: unsupported checkpoint version " +
        std::to_string(info.version) + " (this build reads version " +
        std::to_string(kCheckpointVersion) + ")");
  }
  info.shard_count = wire::read_u64(is);
  if (info.shard_count != bus.shard_count()) {
    throw std::runtime_error(
        "restore_checkpoint: checkpoint was taken with " +
        std::to_string(info.shard_count) + " shards, the live bus has " +
        std::to_string(bus.shard_count()) +
        " — restore with a bus of the same shard count");
  }
  const double route_cell_m = wire::read_f64(is);
  if (route_cell_m != kCellM) {
    throw std::runtime_error(
        "restore_checkpoint: checkpoint routed events on " +
        std::to_string(route_cell_m) + " m cells, the live bus routes on " +
        std::to_string(kCellM) + " m — shard ownership would not line up");
  }
  (void)wire::read_u8(is);   // retired policy byte, always 0
  (void)wire::read_u64(is);  // queue_capacity: likewise
  bus.resume_seq(wire::read_u64(is));
  system.restore_placer(is);
  system.restore_reopt(is);
  placer_driver.restore_from(is);
  incentive_driver.restore_from(is);
  info.events_consumed = placer_driver.events_consumed();
  info.last_seq = placer_driver.last_seq();
  return info;
}

void save_checkpoint_file(const std::string& path, const EventBus& bus,
                          const OnlinePlacerDriver& placer_driver,
                          const IncentiveDriver& incentive_driver) {
  // Crash-atomic: write a sibling temp file and rename it over the target.
  // A crash mid-save leaves the previous checkpoint intact (rename is
  // atomic on POSIX filesystems); the target is never opened with trunc,
  // so there is no window where the only recovery state is half-written.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) {
      throw std::runtime_error("save_checkpoint_file: cannot open " + tmp);
    }
    try {
      save_checkpoint(os, bus, placer_driver, incentive_driver);
    } catch (...) {
      os.close();
      (void)std::remove(tmp.c_str());
      throw;
    }
    os.flush();
    if (!os) {
      (void)std::remove(tmp.c_str());
      throw std::runtime_error("save_checkpoint_file: write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)std::remove(tmp.c_str());
    throw std::runtime_error("save_checkpoint_file: cannot rename " + tmp +
                             " over " + path);
  }
}

CheckpointInfo restore_checkpoint_file(const std::string& path, EventBus& bus,
                                       core::ESharing& system,
                                       OnlinePlacerDriver& placer_driver,
                                       IncentiveDriver& incentive_driver) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("restore_checkpoint_file: cannot open " + path);
  }
  return restore_checkpoint(is, bus, system, placer_driver, incentive_driver);
}

}  // namespace esharing::stream
