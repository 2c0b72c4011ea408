// Tests for the hot-path optimisations: per-attempt bus timing from the
// byte-wise wire length, the memoised arbitration candidate and the
// deque-backed TaskPool.

#include <gtest/gtest.h>

#include <vector>

#include "canbus/bus.hpp"
#include "canbus/controller.hpp"
#include "canbus/fault.hpp"
#include "canbus/frame.hpp"
#include "sim/simulator.hpp"
#include "util/task_pool.hpp"

namespace rtec {
namespace {

using literals::operator""_ms;

CanFrame frame_with(std::uint32_t id, int dlc, std::uint8_t fill) {
  CanFrame f;
  f.id = id;
  f.dlc = static_cast<std::uint8_t>(dlc);
  for (int i = 0; i < dlc; ++i) f.data[static_cast<std::size_t>(i)] = fill;
  return f;
}

// Bus occupancy is derived from frame_wire_bits on every attempt: a first
// attempt ends exactly one frame length after SOF, and a retransmission
// after a corrupted attempt pays the error frame, the intermission and the
// whole frame again.
TEST(WireBitsTiming, FrameEndsAfterExactWireBits) {
  Simulator sim;
  CanBus bus{sim, BusConfig{}};
  CanController tx{sim, 1};
  CanController rx{sim, 2};
  bus.attach(tx);
  bus.attach(rx);
  const CanFrame f = frame_with(0x321u, 6, 0xA5);
  TimePoint eof = TimePoint::origin();
  int got = 0;
  rx.add_rx_listener([&](const CanFrame&, TimePoint t) {
    eof = t;
    ++got;
  });
  ASSERT_TRUE(tx.submit(f, TxMode::kAutoRetransmit).has_value());
  sim.run();
  ASSERT_EQ(got, 1);
  const Duration expected = BusConfig{}.bit_time() * frame_wire_bits(f);
  EXPECT_EQ((eof - TimePoint::origin()).ns(), expected.ns());
}

TEST(WireBitsTiming, RetransmissionRepeatsExactWireBits) {
  Simulator sim;
  CanBus bus{sim, BusConfig{}};
  CanController tx{sim, 1};
  CanController rx{sim, 2};
  bus.attach(tx);
  bus.attach(rx);
  // All-dominant payload: heavy stuffing, so a wrong length shows.
  const CanFrame f = frame_with(0x00000000u, 8, 0x00);
  ScriptedFaults faults{0.5};
  faults.add_rule([](const FaultContext& ctx) { return ctx.attempt == 1; });
  bus.set_fault_model(&faults);
  std::vector<int> occupied;
  bus.add_observer(
      [&](const CanBus::FrameEvent& ev) { occupied.push_back(ev.wire_bits); });
  TimePoint eof = TimePoint::origin();
  int got = 0;
  rx.add_rx_listener([&](const CanFrame&, TimePoint t) {
    eof = t;
    ++got;
  });
  ASSERT_TRUE(tx.submit(f, TxMode::kAutoRetransmit).has_value());
  sim.run();
  ASSERT_EQ(got, 1);
  const int wire = frame_wire_bits(f);
  const int error_attempt = (wire + 1) / 2 + kErrorFrameBits;
  EXPECT_EQ(occupied, (std::vector<int>{error_attempt, wire}));
  const Duration expected =
      BusConfig{}.bit_time() * (error_attempt + kIntermissionBits + wire);
  EXPECT_EQ((eof - TimePoint::origin()).ns(), expected.ns());
}

// The memoised arbitration candidate must track every mailbox state change
// (submit / abort / rewrite_id / release) — a stale cache would change
// arbitration winners and therefore whole traces.
TEST(ArbitrationCandidate, CacheTracksMailboxChanges) {
  Simulator sim;
  CanController ctl{sim, 1, CanController::Config{.tx_mailboxes = 4}};

  EXPECT_FALSE(ctl.arbitration_candidate().has_value());

  auto hi = ctl.submit(frame_with(0x300, 1, 0x11), TxMode::kSingleShot);
  ASSERT_TRUE(hi.has_value());
  ASSERT_TRUE(ctl.arbitration_candidate().has_value());
  EXPECT_EQ(*ctl.arbitration_candidate(), *hi);

  // A lower identifier must displace the cached winner immediately.
  auto lo = ctl.submit(frame_with(0x100, 1, 0x22), TxMode::kSingleShot);
  ASSERT_TRUE(lo.has_value());
  EXPECT_EQ(*ctl.arbitration_candidate(), *lo);

  // Rewriting the loser below the winner must flip the candidate.
  ASSERT_TRUE(ctl.rewrite_id(*hi, 0x050));
  EXPECT_EQ(*ctl.arbitration_candidate(), *hi);

  // Aborting the winner must fall back to the remaining mailbox.
  ASSERT_TRUE(ctl.abort(*hi));
  EXPECT_EQ(*ctl.arbitration_candidate(), *lo);

  ASSERT_TRUE(ctl.abort(*lo));
  EXPECT_FALSE(ctl.arbitration_candidate().has_value());
}

TEST(ArbitrationCandidate, CandidateClearedWhenMailboxFires) {
  Simulator sim;
  CanBus bus{sim, BusConfig{}};
  CanController ctl{sim, 1};
  bus.attach(ctl);
  int results = 0;
  auto mb = ctl.submit(frame_with(0x123, 4, 0xAB), TxMode::kSingleShot,
                       [&](auto, const CanFrame&, bool ok, TimePoint) {
                         EXPECT_TRUE(ok);
                         ++results;
                       });
  ASSERT_TRUE(mb.has_value());
  sim.run();
  EXPECT_EQ(results, 1);
  // The transmission released the mailbox; the cache must not resurrect it.
  EXPECT_FALSE(ctl.arbitration_candidate().has_value());
}

TEST(FrameTailBits, ConstantMatchesCanSpec) {
  // CRC delimiter + ACK slot + ACK delimiter + 7-bit EOF.
  EXPECT_EQ(kFrameTailBits, 10);
}

TEST(TaskPool, AddressesStableAcrossGrowth) {
  TaskPool pool;
  std::vector<std::function<void()>*> ptrs;
  int counter = 0;
  for (int i = 0; i < 1000; ++i) {
    auto* t = pool.make();
    *t = [&counter] { ++counter; };
    ptrs.push_back(t);
  }
  EXPECT_EQ(pool.size(), 1000u);
  // Every pointer handed out earlier must still be valid and callable.
  for (auto* t : ptrs) (*t)();
  EXPECT_EQ(counter, 1000);
}

TEST(TaskPool, SelfReschedulingTaskSurvivesPoolGrowth) {
  Simulator sim;
  TaskPool pool;
  int ticks = 0;
  auto* loop = pool.make();
  *loop = [&] {
    ++ticks;
    // Grow the pool from inside the task — the `loop` pointer must stay
    // valid (deque storage never relocates existing elements).
    *pool.make() = [] {};
    if (ticks < 5) sim.schedule_after(1_ms, [loop] { (*loop)(); });
  };
  (*loop)();
  sim.run();
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(pool.size(), 6u);
}

}  // namespace
}  // namespace rtec
