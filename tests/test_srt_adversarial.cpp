#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>

#include "core/scenario.hpp"
#include "core/srtec.hpp"
#include "sched/id_codec.hpp"
#include "util/task_pool.hpp"

/// Adversarially timed SRT cases: expiry and promotion racing with the
/// non-preemptable wire, preemption chains, and starvation behaviour.

namespace rtec {
namespace {

using literals::operator""_ns;
using literals::operator""_us;
using literals::operator""_ms;

Node::ClockParams perfect() {
  Node::ClockParams p;
  p.granularity = 1_ns;
  return p;
}

struct SrtAdvFixture : ::testing::Test {
  TaskPool tasks;
  Scenario scn;
  Node* n1 = nullptr;
  Node* n2 = nullptr;
  std::vector<CanBus::FrameEvent> frames;

  void SetUp() override {
    n1 = &scn.add_node(1, perfect());
    n2 = &scn.add_node(2, perfect());
    scn.bus().add_observer(
        [this](const CanBus::FrameEvent& ev) { frames.push_back(ev); });
  }

  void hold_bus_until(TimePoint until, NodeId id = 7) {
    auto& blocker = scn.add_node(id, perfect());
    auto* pump = tasks.make();
    *pump = [this, until, &blocker, pump] {
      if (scn.sim().now() >= until) return;
      CanFrame f;
      f.id = encode_can_id({kHrtPriority, blocker.id(), 1000});
      f.dlc = 8;
      f.data.fill(0);
      (void)blocker.controller().submit(
          f, TxMode::kAutoRetransmit,
          [pump](auto, const CanFrame&, bool, TimePoint) { (*pump)(); });
    };
    (*pump)();
  }
};

TEST_F(SrtAdvFixture, ExpiryWhileFrameIsOnTheWireLetsItComplete) {
  Srtec pub{n1->middleware()};
  Srtec sub{n2->middleware()};
  std::vector<ChannelError> errors;
  ASSERT_TRUE(pub.announce(subject_of("adv/x"), {},
                           [&](const ExceptionInfo& e) {
                             errors.push_back(e.error);
                           })
                  .has_value());
  int delivered = 0;
  ASSERT_TRUE(sub.subscribe(subject_of("adv/x"), {},
                            [&] {
                              ++delivered;
                              (void)sub.getEvent();
                            },
                            nullptr)
                  .has_value());

  // Bus idle: the message starts transmitting immediately (frame takes
  // ~100+ us). Expiration hits 20 us into the transmission — too late to
  // abort a non-preemptable frame.
  const TimePoint t0 = scn.sim().now();
  Event e;
  e.content = {1, 2, 3, 4, 5, 6, 7, 8};
  e.attributes.deadline = t0 + 10_us;
  e.attributes.expiration = t0 + 20_us;
  ASSERT_TRUE(pub.publish(std::move(e)).has_value());
  scn.run_for(2_ms);

  // Delivered despite deadline + expiry passing mid-flight; kExpired is
  // NOT raised (the event left the send queue by transmission).
  EXPECT_EQ(delivered, 1);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0], ChannelError::kDeadlineMissed);
  EXPECT_EQ(n1->middleware().srt().counters().expired, 0u);
}

TEST_F(SrtAdvFixture, ExpiryWhileStagedButBlockedAbortsTheMailbox) {
  Srtec pub{n1->middleware()};
  Srtec sub{n2->middleware()};
  std::vector<ChannelError> errors;
  ASSERT_TRUE(pub.announce(subject_of("adv/x"), {},
                           [&](const ExceptionInfo& e) {
                             errors.push_back(e.error);
                           })
                  .has_value());
  int delivered = 0;
  ASSERT_TRUE(sub.subscribe(subject_of("adv/x"), {},
                            [&] { ++delivered; }, nullptr)
                  .has_value());

  hold_bus_until(TimePoint::origin() + 2_ms);
  const TimePoint t0 = TimePoint::origin();
  scn.sim().schedule_at(t0 + 100_us, [&] {
    Event e;
    e.content = {1};
    e.attributes.deadline = t0 + 500_us;
    e.attributes.expiration = t0 + 1_ms;  // inside the blockade
    ASSERT_TRUE(pub.publish(std::move(e)).has_value());
  });
  scn.run_for(4_ms);

  // Staged in the mailbox but never on the wire: the expiry aborts it.
  EXPECT_EQ(delivered, 0);
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0], ChannelError::kDeadlineMissed);
  EXPECT_EQ(errors[1], ChannelError::kExpired);
  EXPECT_EQ(n1->middleware().srt().counters().sent, 0u);
}

TEST_F(SrtAdvFixture, PreemptionChainKeepsEdfOrder) {
  Srtec pub{n1->middleware()};
  Srtec sub{n2->middleware()};
  ASSERT_TRUE(pub.announce(subject_of("adv/x"), {}, nullptr).has_value());
  ASSERT_TRUE(sub.subscribe(subject_of("adv/x"),
                            AttributeList{attr::QueueCapacity{16}}, nullptr,
                            nullptr)
                  .has_value());

  hold_bus_until(TimePoint::origin() + 1_ms);
  const TimePoint t0 = TimePoint::origin();
  // Publish with strictly decreasing deadlines: each newcomer preempts the
  // staged one.
  for (int i = 0; i < 5; ++i) {
    scn.sim().schedule_at(t0 + 100_us * (i + 1), [&, i] {
      Event e;
      e.content = {static_cast<std::uint8_t>(i)};
      e.attributes.deadline = t0 + 20_ms - 1_ms * i;
      e.attributes.expiration = t0 + 100_ms;
      ASSERT_TRUE(pub.publish(std::move(e)).has_value());
    });
  }
  scn.run_for(5_ms);

  // Delivery order = reverse publish order (EDF), 4 preemption swaps.
  std::vector<std::uint8_t> tags;
  while (auto e = sub.getEvent()) tags.push_back(e->content[0]);
  EXPECT_EQ(tags, (std::vector<std::uint8_t>{4, 3, 2, 1, 0}));
  EXPECT_EQ(n1->middleware().srt().counters().preemptions, 4u);
}

TEST_F(SrtAdvFixture, PromotionBlockedWhileOnWireStillCountsAndRecovers) {
  Scenario::Config cfg;
  cfg.srt_map.slot_length = 50_us;  // promotions due every 50 us
  Scenario scn2{cfg};
  Node& a = scn2.add_node(1, perfect());
  Node& b = scn2.add_node(2, perfect());
  Srtec pub{a.middleware()};
  Srtec sub{b.middleware()};
  ASSERT_TRUE(pub.announce(subject_of("adv/p"), {}, nullptr).has_value());
  ASSERT_TRUE(sub.subscribe(subject_of("adv/p"), {}, nullptr, nullptr)
                  .has_value());

  // Bus idle: the frame goes straight to the wire (~130 us) while 2-3
  // promotion boundaries pass — every attempt must be refused gracefully.
  Event e;
  e.content = {1, 2, 3, 4, 5, 6, 7, 8};
  e.attributes.deadline = scn2.sim().now() + 1_ms;
  e.attributes.expiration = scn2.sim().now() + 10_ms;
  ASSERT_TRUE(pub.publish(std::move(e)).has_value());
  scn2.run_for(2_ms);

  const auto& c = a.middleware().srt().counters();
  EXPECT_EQ(c.sent, 1u);
  EXPECT_GE(c.promotion_blocked, 2u);
  EXPECT_EQ(c.promotions, 0u);  // never promotable: always on the wire
}

TEST_F(SrtAdvFixture, ContinuousUrgentTrafficStarvesRelaxedMessageUntilPromoted) {
  // A relaxed-deadline message from node 1 competes against a steady
  // stream of urgent messages from node 2. Thanks to promotion it must
  // eventually win the bus *before* its deadline.
  Srtec relaxed{n1->middleware()};
  Srtec urgent{n2->middleware()};
  ASSERT_TRUE(relaxed.announce(subject_of("adv/relaxed"), {}, nullptr)
                  .has_value());
  ASSERT_TRUE(urgent.announce(subject_of("adv/urgent"), {}, nullptr)
                  .has_value());

  // Publish the relaxed message only after the urgent stream has saturated
  // the bus (else it would slip onto the idle wire immediately).
  const TimePoint t0 = scn.sim().now();
  scn.sim().schedule_at(t0 + 1_ms, [&] {
    Event slow;
    slow.content = {0xEE};
    slow.attributes.deadline = scn.sim().now() + 8_ms;
    slow.attributes.expiration = scn.sim().now() + 50_ms;
    ASSERT_TRUE(relaxed.publish(std::move(slow)).has_value());
  });

  // Urgent stream: ~130 us frames every 100 us — the urgent node always
  // has a pending frame, so the bus never idles.
  auto* loop = tasks.make();
  *loop = [&, loop] {
    Event e;
    e.content.assign(8, 0xAA);
    e.attributes.deadline = scn.sim().now() + 300_us;
    e.attributes.expiration = scn.sim().now() + 5_ms;
    (void)urgent.publish(std::move(e));
    scn.sim().schedule_after(100_us, [loop] { (*loop)(); });
  };
  scn.sim().schedule_after(0_ns, [loop] { (*loop)(); });

  scn.run_for(20_ms);
  const auto& c = n1->middleware().srt().counters();
  EXPECT_EQ(c.sent, 1u);
  EXPECT_EQ(c.sent_by_deadline, 1u) << "promotion must beat the urgent flood";
  EXPECT_GE(c.promotions, 10u);  // climbed many bands while waiting
}

TEST_F(SrtAdvFixture, PromotionOnDriftingClockTerminatesAndPromotes) {
  // A drifting, truncating local clock is not exactly invertible: at
  // to_perfect(x) it can still read x - 1 tick. A promotion due at such an
  // x used to fire one tick early, find the band unchanged, re-arm for the
  // same x at the same perfect instant, and spin there forever.
  // bench_scale's clock model (-80 ppm, 1 us ticks); the first such
  // instant on this clock lies about 169 ms into the run.
  Node::ClockParams drifting;
  drifting.initial_offset = 13_us;
  drifting.drift_ppb = -80'000;
  drifting.granularity = 1_us;
  Node& n3 = scn.add_node(3, drifting);
  const LocalClock& clock = n3.clock();
  TimePoint due = clock.now() + 2_ms;
  for (int i = 0; i < 400'000 && clock.to_local(clock.to_perfect(due)) >= due;
       ++i)
    due += 1_us;
  ASSERT_LT(clock.to_local(clock.to_perfect(due)), due)
      << "no local instant with an inexact inverse found";

  Srtec pub{n3.middleware()};
  ASSERT_TRUE(pub.announce(subject_of("adv/drift"), {}, nullptr).has_value());
  // The bus stays held well past `due`, so the message is still staged in
  // its mailbox when its last promotion (to the most urgent band) is due.
  const Duration slot =
      n3.middleware().srt().priority_map().config().slot_length;
  const TimePoint due_perfect = clock.to_perfect(due);
  hold_bus_until(due_perfect + 1_ms);
  scn.sim().schedule_at(due_perfect - 1_ms, [&] {
    Event e;
    e.content = {0xD7};
    e.attributes.deadline = due + slot;  // laxity crosses one slot at `due`
    e.attributes.expiration = due + 50_ms;
    ASSERT_TRUE(pub.publish(std::move(e)).has_value());
  });

  scn.run_for((due_perfect - TimePoint::origin()) + 5_ms);
  const auto& c = n3.middleware().srt().counters();
  EXPECT_EQ(c.sent, 1u);
  EXPECT_GE(c.promotions, 1u);
  const auto sent =
      std::find_if(frames.begin(), frames.end(), [](const auto& f) {
        return f.success && decode_can_id(f.frame.id).tx_node == 3;
      });
  ASSERT_NE(sent, frames.end());
  EXPECT_EQ(decode_can_id(sent->frame.id).priority, kSrtPriorityMin);
}

TEST_F(SrtAdvFixture, PerPublisherFifoForEqualDeadlines) {
  Srtec pub{n1->middleware()};
  Srtec sub{n2->middleware()};
  ASSERT_TRUE(pub.announce(subject_of("adv/fifo"), {}, nullptr).has_value());
  ASSERT_TRUE(sub.subscribe(subject_of("adv/fifo"),
                            AttributeList{attr::QueueCapacity{16}}, nullptr,
                            nullptr)
                  .has_value());
  hold_bus_until(TimePoint::origin() + 1_ms);
  const TimePoint t0 = TimePoint::origin();
  scn.sim().schedule_at(t0 + 100_us, [&] {
    for (std::uint8_t i = 0; i < 6; ++i) {
      Event e;
      e.content = {i};
      e.attributes.deadline = t0 + 10_ms;  // all identical
      e.attributes.expiration = t0 + 50_ms;
      ASSERT_TRUE(pub.publish(std::move(e)).has_value());
    }
  });
  scn.run_for(5_ms);
  std::vector<std::uint8_t> tags;
  while (auto e = sub.getEvent()) tags.push_back(e->content[0]);
  EXPECT_EQ(tags, (std::vector<std::uint8_t>{0, 1, 2, 3, 4, 5}));
}

}  // namespace
}  // namespace rtec
