#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/attributes.hpp"
#include "core/errors.hpp"
#include "core/event.hpp"
#include "core/node_context.hpp"

/// \file subscription.hpp
/// Subscriber-side event buffering: the "predefined memory area" of §2.2.1
/// in which the middleware stores an event before invoking the
/// application's notification handler, which then retrieves it with
/// getEvent().

namespace rtec {

/// Bounded FIFO of events with a capacity fixed at subscribe time.
class EventQueue {
 public:
  explicit EventQueue(std::size_t capacity) : buf_(capacity) {}

  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ == buf_.size(); }

  /// False (event dropped) when full — surfaced as kQueueOverflow.
  [[nodiscard]] bool push(Event e) {
    if (full()) return false;
    buf_[(head_ + size_) % buf_.size()] = std::move(e);
    ++size_;
    return true;
  }

  [[nodiscard]] std::optional<Event> pop() {
    if (empty()) return std::nullopt;
    Event e = std::move(buf_[head_]);
    head_ = (head_ + 1) % buf_.size();
    --size_;
    return e;
  }

 private:
  std::vector<Event> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// State common to subscriptions of every channel class, built from the
/// subscribe() arguments; attr::QueueCapacity and attr::LocalOnly are read
/// here for all classes.
struct SubscriptionBase {
  Subject subject;
  Etag etag = 0;
  bool local_only = false;
  /// Set by the engine's cancel_subscription. The engine keeps the object,
  /// so timers and frames that still reach it see the flag and stop.
  bool cancelled = false;
  EventQueue queue;
  NotificationHandler notify;
  ExceptionHandler on_exception;

  SubscriptionBase(Subject s, Etag tag, const AttributeList& attrs,
                   NotificationHandler n, ExceptionHandler x)
      : subject{s},
        etag{tag},
        local_only{attrs.has<attr::LocalOnly>()},
        queue{attrs.get<attr::QueueCapacity>()
                  .value_or(attr::QueueCapacity{})
                  .events},
        notify{std::move(n)},
        on_exception{std::move(x)} {}

  /// Stores + notifies; raises kQueueOverflow when the application is not
  /// draining fast enough.
  void deliver(Event e, TimePoint now) {
    if (!queue.push(std::move(e))) {
      if (on_exception)
        on_exception({ChannelError::kQueueOverflow, subject, now});
      return;
    }
    if (notify) notify();
  }
};

/// origin_network of an event a gateway forwarded from another segment.
/// The frame itself carries no origin field: "remote" is inferred from the
/// forwarding gateway's TxNode (configured system-wide).
inline constexpr std::uint8_t kRemoteOrigin = 0xff;

/// The frame→Event header every class delivers with: the subscription's
/// subject, the local reception time, and the segment of origin (this
/// node's segment, or kRemoteOrigin).
inline Event received_event(const NodeContext& ctx,
                            const SubscriptionBase& sub, bool remote_origin) {
  Event event;
  event.subject = sub.subject;
  event.attributes.timestamp = ctx.clock.now();
  event.attributes.origin_network = remote_origin ? kRemoteOrigin : ctx.network;
  return event;
}

}  // namespace rtec
