#pragma once

#include <optional>

#include "core/middleware.hpp"

/// \file channel.hpp
/// The application-facing event channel of Figs. 1–2, written once: the
/// paper gives hrtec, srtec and (§2.2.3) nrtec one interface, and the
/// traffic class is the engine behind it. hrtec.hpp, srtec.hpp and
/// nrtec.hpp name the three instances and document each class.
///
/// Modernizations (documented deviations): `int` error returns become
/// Expected<void, ChannelError>; the event_queue argument becomes an
/// attr::QueueCapacity attribute (the middleware owns the "predefined
/// memory area" and hands events out via getEvent()); a channel object is
/// bound to a node's middleware at construction and releases its
/// publication and subscription when destroyed.

namespace rtec {

template <class Engine>
class EventChannel {
 public:
  explicit EventChannel(Middleware& mw) : mw_{mw} {}
  EventChannel(const EventChannel&) = delete;
  EventChannel& operator=(const EventChannel&) = delete;
  ~EventChannel();

  /// Publisher setup: binds the subject and registers the publication
  /// with the engine, which checks the class's attributes.
  Expected<void, ChannelError> announce(Subject subject,
                                        const AttributeList& attrs,
                                        ExceptionHandler exception_handler);
  /// Releases the publisher registration (local operation).
  Expected<void, ChannelError> cancelPublication();
  Expected<void, ChannelError> publish(Event event);

  /// Subscriber setup: binds the subject, registers the subscription with
  /// the engine and opens the controller's acceptance filter for it.
  Expected<void, ChannelError> subscribe(Subject subject,
                                         const AttributeList& attrs,
                                         NotificationHandler not_handler,
                                         ExceptionHandler exception_handler);
  /// Strictly local: releases the resources in the local event handler
  /// (§2.2.1).
  Expected<void, ChannelError> cancelSubscription();

  /// Retrieves the next delivered event from the subscription's queue
  /// (called from the notification handler, §2.2.1).
  [[nodiscard]] std::optional<Event> getEvent();
  [[nodiscard]] std::optional<Subject> subject() const { return subject_; }

 protected:
  [[nodiscard]] Middleware& middleware() const { return mw_; }

 private:
  [[nodiscard]] Engine& engine() { return mw_.engine<Engine>(); }

  Middleware& mw_;
  std::optional<Subject> subject_;
  std::optional<Etag> announced_;
  typename Engine::Subscription* sub_ = nullptr;
};

extern template class EventChannel<HrtEngine>;
extern template class EventChannel<SrtEngine>;
extern template class EventChannel<NrtEngine>;

}  // namespace rtec
