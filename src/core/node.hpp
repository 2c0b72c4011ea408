#pragma once

#include <memory>

#include "canbus/bus.hpp"
#include "core/middleware.hpp"
#include "time/sync.hpp"

/// \file node.hpp
/// One smart sensor/actuator node: a CAN controller, a drifting local
/// clock, the event-channel middleware, and (optionally) a clock-sync role.

namespace rtec {

class Node {
 public:
  struct ClockParams {
    Duration initial_offset = Duration::zero();
    std::int64_t drift_ppb = 0;
    Duration granularity = Duration::microseconds(1);
  };

  Node(Simulator& sim, CanBus& bus, BindingRegistry& binding,
       const Calendar* calendar, NodeId id, std::uint8_t network,
       ClockParams clock_params, Middleware::Config mw_cfg);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const { return controller_.node(); }
  [[nodiscard]] CanController& controller() { return controller_; }
  [[nodiscard]] const CanController& controller() const { return controller_; }
  [[nodiscard]] LocalClock& clock() { return clock_; }
  [[nodiscard]] const LocalClock& clock() const { return clock_; }
  [[nodiscard]] Middleware& middleware() { return middleware_; }
  [[nodiscard]] const Middleware& middleware() const { return middleware_; }

  /// Installs the clock-sync master role on this node (at most one per
  /// bus). Does not start rounds yet — see SyncMaster::start_at_local.
  SyncMaster& make_sync_master(const SyncConfig& cfg);
  /// Installs the clock-sync slave role on this node.
  SyncSlave& make_sync_slave(const SyncConfig& cfg);

  [[nodiscard]] SyncMaster* sync_master() { return sync_master_.get(); }
  [[nodiscard]] SyncSlave* sync_slave() { return sync_slave_.get(); }

 private:
  CanController controller_;
  LocalClock clock_;
  Middleware middleware_;
  std::unique_ptr<SyncMaster> sync_master_;
  std::unique_ptr<SyncSlave> sync_slave_;
};

}  // namespace rtec
