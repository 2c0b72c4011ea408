#include <gtest/gtest.h>

#include "core/hrtec.hpp"
#include "core/nrtec.hpp"
#include "core/scenario.hpp"
#include "core/srtec.hpp"

/// The channel lifecycle contract every traffic class shares (Figs. 1–2,
/// §2.2.3): announce/cancelPublication/publish on the publisher side,
/// subscribe/cancelSubscription/getEvent on the subscriber side, each
/// misuse answered with its named error, and RAII release of the engine
/// registration when the channel object dies.

namespace rtec {
namespace {

using literals::operator""_ms;

template <class Channel>
struct ChannelLifecycle : ::testing::Test {
  Scenario scn;
  Node* node = nullptr;
  const Subject subject = subject_of("lifecycle/channel");

  void SetUp() override {
    node = &scn.add_node(1);
    // HRT channels need an offline reservation to announce or subscribe;
    // SRT and NRT channels ignore it.
    SlotSpec slot;
    slot.lst_offset = 1_ms;
    slot.etag = *scn.binding().bind(subject);
    slot.publisher = 1;
    slot.periodic = false;
    ASSERT_TRUE(scn.calendar().reserve(slot).has_value());
  }

  /// Announce attributes valid for every class (a sporadic HRT slot).
  [[nodiscard]] static AttributeList attrs() {
    return AttributeList{attr::Sporadic{10_ms}};
  }
};

using ChannelTypes = ::testing::Types<Hrtec, Srtec, Nrtec>;
TYPED_TEST_SUITE(ChannelLifecycle, ChannelTypes);

TYPED_TEST(ChannelLifecycle, DoubleAnnounceIsRejected) {
  TypeParam ch{this->node->middleware()};
  ASSERT_TRUE(ch.announce(this->subject, this->attrs(), nullptr).has_value());
  const auto again = ch.announce(this->subject, this->attrs(), nullptr);
  ASSERT_FALSE(again.has_value());
  EXPECT_EQ(again.error(), ChannelError::kAlreadyAnnounced);
  EXPECT_EQ(ch.subject(), this->subject);
}

TYPED_TEST(ChannelLifecycle, DoubleSubscribeIsRejected) {
  TypeParam ch{this->node->middleware()};
  ASSERT_TRUE(ch.subscribe(this->subject, {}, nullptr, nullptr).has_value());
  const auto again = ch.subscribe(this->subject, {}, nullptr, nullptr);
  ASSERT_FALSE(again.has_value());
  EXPECT_EQ(again.error(), ChannelError::kAlreadySubscribed);
}

TYPED_TEST(ChannelLifecycle, CancelSubscriptionWithoutSubscriptionIsRejected) {
  TypeParam ch{this->node->middleware()};
  const auto r = ch.cancelSubscription();
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error(), ChannelError::kNotSubscribed);

  // After a subscribe/cancel pair the channel is unsubscribed again.
  ASSERT_TRUE(ch.subscribe(this->subject, {}, nullptr, nullptr).has_value());
  EXPECT_TRUE(ch.cancelSubscription().has_value());
  EXPECT_EQ(ch.cancelSubscription().error(), ChannelError::kNotSubscribed);
}

TYPED_TEST(ChannelLifecycle, PublisherCallsWithoutAnnounceAreRejected) {
  TypeParam ch{this->node->middleware()};
  const auto cancel = ch.cancelPublication();
  ASSERT_FALSE(cancel.has_value());
  EXPECT_EQ(cancel.error(), ChannelError::kNotAnnounced);
  const auto publish = ch.publish(Event{this->subject, {0x01}});
  ASSERT_FALSE(publish.has_value());
  EXPECT_EQ(publish.error(), ChannelError::kNotAnnounced);

  // cancelPublication ends the announcement: publishing is refused again.
  ASSERT_TRUE(ch.announce(this->subject, this->attrs(), nullptr).has_value());
  EXPECT_TRUE(ch.cancelPublication().has_value());
  EXPECT_EQ(ch.publish(Event{this->subject, {0x01}}).error(),
            ChannelError::kNotAnnounced);
  EXPECT_EQ(ch.cancelPublication().error(), ChannelError::kNotAnnounced);
}

TYPED_TEST(ChannelLifecycle, GetEventBeforeSubscribeIsEmpty) {
  TypeParam ch{this->node->middleware()};
  EXPECT_EQ(ch.getEvent(), std::nullopt);
  EXPECT_EQ(ch.subject(), std::nullopt);
}

TYPED_TEST(ChannelLifecycle, DestroyedChannelReleasesEngineRegistration) {
  {
    TypeParam ch{this->node->middleware()};
    ASSERT_TRUE(ch.announce(this->subject, this->attrs(), nullptr).has_value());
    ASSERT_TRUE(ch.subscribe(this->subject, {}, nullptr, nullptr).has_value());
    // While the first channel lives, the engine holds the publication.
    TypeParam rival{this->node->middleware()};
    EXPECT_EQ(rival.announce(this->subject, this->attrs(), nullptr).error(),
              ChannelError::kAlreadyAnnounced);
  }  // destructor cancels the publication and the subscription
  TypeParam fresh{this->node->middleware()};
  EXPECT_TRUE(fresh.announce(this->subject, this->attrs(), nullptr).has_value());
  EXPECT_TRUE(fresh.subscribe(this->subject, {}, nullptr, nullptr).has_value());
}

}  // namespace
}  // namespace rtec
