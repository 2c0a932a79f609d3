#include "sim/waitset.h"

#include <algorithm>

namespace cool::sim {

namespace internal {

bool WaitSetCore::Post(std::uint64_t token, TimePoint when) {
  MutexLock lock(mu);
  if (closed) return false;
  if (tokens.find(token) == tokens.end()) return true;
  entries.push(Entry{when, next_seq++, token});
  if (!notify_pending) {
    notify_pending = true;
    cv.NotifyOne();  // under the lock: destruction-safe
  }
  return true;
}

}  // namespace internal

bool WaitSet::Add(Token token) {
  MutexLock lock(core_->mu);
  if (core_->closed) return false;
  return core_->tokens.insert(token).second;
}

void WaitSet::Remove(Token token) {
  MutexLock lock(core_->mu);
  core_->tokens.erase(token);
}

void WaitSet::Post(Token token) { core_->Post(token, TimePoint::min()); }

void WaitSet::PostAt(Token token, TimePoint when) { core_->Post(token, when); }

std::size_t WaitSet::Wait(std::span<ReadyEvent> out, Duration timeout) {
  // A nested wait-set wait inside a reactor callback or dispatch upcall
  // parks a shared run-to-completion worker on a second readiness source —
  // the calling worker's own wait set goes unserviced meanwhile.
  COOL_DETECTOR_HOOK(deadlock::AssertBlockingAllowed("sim::WaitSet::Wait"));
  if (out.empty()) return 0;
  const TimePoint deadline = DeadlineFor(timeout);
  internal::WaitSetCore& core = *core_;
  MutexLock lock(core.mu);
  for (;;) {
    // The waiter is awake and about to scan: posts from here until the next
    // WaitUntil need no notify (the scan below, or the pre-sleep re-check,
    // will see their entries). This coalesces a burst of deliveries into
    // one wakeup instead of one NotifyOne syscall each.
    core.notify_pending = false;
    const TimePoint now = Now();
    std::size_t n = 0;
    while (!core.entries.empty() && core.entries.top().when <= now &&
           n < out.size()) {
      const Token token = core.entries.top().token;
      core.entries.pop();
      if (core.tokens.find(token) == core.tokens.end()) continue;  // stale
      const auto emitted = out.first(n);
      const bool dup =
          std::any_of(emitted.begin(), emitted.end(),
                      [token](const ReadyEvent& e) { return e.token == token; });
      if (dup) continue;  // collapse duplicates among due entries
      out[n++] = ReadyEvent{token};
    }
    if (n > 0) return n;
    if (core.closed) return 0;
    if (now >= deadline) return 0;
    TimePoint wake = deadline;
    if (!core.entries.empty()) wake = std::min(wake, core.entries.top().when);
    core.cv.WaitUntil(core.mu, wake);
  }
}

void WaitSet::Close() {
  MutexLock lock(core_->mu);
  core_->closed = true;
  core_->cv.NotifyAll();
}

bool WaitSet::closed() const {
  MutexLock lock(core_->mu);
  return core_->closed;
}

void Watchable::Watch(const WaitSet& set, WaitSet::Token token) {
  std::shared_ptr<internal::WaitSetCore> core = set.core_;
  {
    MutexLock lock(mu_);
    core_ = core;
    token_ = token;
    armed_.store(true, std::memory_order_release);
  }
  core->Post(token, TimePoint::min());  // probe: harvest pre-attach state
}

void Watchable::SignalReadySlow(TimePoint when) {
  std::shared_ptr<internal::WaitSetCore> core;
  WaitSet::Token token = 0;
  {
    MutexLock lock(mu_);
    core = core_;
    token = token_;
  }
  if (core == nullptr || core->Post(token, when)) return;
  // The set closed (a blocking call returned, or its owner went away):
  // detach, unless a newer Watch() has replaced it meanwhile.
  MutexLock lock(mu_);
  if (core_ != core) return;
  armed_.store(false, std::memory_order_release);
  core_.reset();
  token_ = 0;
}

bool Watchable::watched() const {
  std::shared_ptr<internal::WaitSetCore> core;
  {
    MutexLock lock(mu_);
    core = core_;
  }
  if (core == nullptr) return false;
  MutexLock lock(core->mu);
  return !core->closed;
}

}  // namespace cool::sim
