#pragma once

#include "canbus/controller.hpp"
#include "sched/calendar.hpp"
#include "sim/simulator.hpp"
#include "time/clock.hpp"

/// \file node_context.hpp
/// Per-node infrastructure handed to the middleware engines: the simulation
/// kernel, this node's communication controller, its synchronized local
/// clock, the (offline-distributed) reservation calendar and the node's
/// address (segment, id).

namespace rtec {

struct NodeContext {
  Simulator& sim;
  CanController& controller;
  LocalClock& clock;
  /// Reservation calendar, identical on every node (distributed during the
  /// configuration phase). May be null on nodes that use no HRT channels.
  const Calendar* calendar = nullptr;
  NodeId node = 0;
  /// Network segment the node lives on; delivered events of local origin
  /// carry it as EventAttributes::origin_network.
  std::uint8_t network = 0;
};

}  // namespace rtec
