#include "core/node.hpp"

namespace rtec {

namespace {
CanController::Config node_controller_config(const BusConfig& bus) {
  CanController::Config cfg;
  // Standard bus-off recovery: 128 sequences of 11 recessive bits.
  cfg.auto_recovery_delay = bus.bit_time() * (128 * 11);
  return cfg;
}
}  // namespace

Node::Node(Simulator& sim, CanBus& bus, BindingRegistry& binding,
           const Calendar* calendar, NodeId id, std::uint8_t network,
           ClockParams clock_params, Middleware::Config mw_cfg)
    : controller_{sim, id, node_controller_config(bus.config())},
      clock_{sim, clock_params.initial_offset, clock_params.drift_ppb,
             clock_params.granularity},
      middleware_{
          NodeContext{sim, controller_, clock_, calendar, id, network},
          binding, mw_cfg} {
  bus.attach(controller_);
}

SyncMaster& Node::make_sync_master(const SyncConfig& cfg) {
  sync_master_ = std::make_unique<SyncMaster>(middleware_.context().sim,
                                              controller_, clock_, cfg);
  return *sync_master_;
}

SyncSlave& Node::make_sync_slave(const SyncConfig& cfg) {
  sync_slave_ = std::make_unique<SyncSlave>(middleware_.context().sim,
                                            controller_, clock_, cfg);
  return *sync_slave_;
}

}  // namespace rtec
