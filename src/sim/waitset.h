// Readiness primitive for the simulated network: a WaitSet multiplexes many
// sockets/listeners/ports onto one blocked thread, the way epoll multiplexes
// file descriptors. Sources carry a Watchable; attaching it to a WaitSet
// under a token makes every subsequent state change (data arrival, accept,
// close) post a timed readiness entry, and WaitSet::Wait blocks until any
// registered token has a *due* entry.
//
// Entries carry a delivery TimePoint because the simulated network delivers
// in the future (link pacing + propagation): a chunk written now becomes
// readable at now+latency, and the waiter must wake exactly then, not when
// the write happened. Signals are therefore never deduplicated at post time
// — only among already-due entries when Wait() harvests them.
//
// Lifetimes: the shared core keeps either side safe if the other goes away
// first. Closing or destroying a WaitSet detaches its sources: each drops
// the attachment at its next signal, after which signalling costs one
// atomic load again. Destroying a source with the WaitSet still watching
// is fine too (its token never fires again). One watcher per Watchable:
// attaching to a second WaitSet replaces the first. So a source is driven
// either by one reactor registration or by blocking calls (AwaitReady,
// below), never both at once.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <queue>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace cool::sim {

class WaitSet;

namespace internal {

// State shared between a WaitSet and the Watchables attached to it.
struct WaitSetCore {
  struct Entry {
    TimePoint when;
    std::uint64_t seq = 0;  // tie-break keeps harvest order deterministic
    std::uint64_t token = 0;
    friend bool operator>(const Entry& a, const Entry& b) {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  Mutex mu{LockRank::kWaitSet, "sim::WaitSetCore::mu"};
  CondVar cv;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> entries
      COOL_GUARDED_BY(mu);
  std::unordered_set<std::uint64_t> tokens COOL_GUARDED_BY(mu);
  std::uint64_t next_seq COOL_GUARDED_BY(mu) = 0;
  bool closed COOL_GUARDED_BY(mu) = false;
  // Readiness delivery coalesces per wakeup: while a notify is outstanding
  // (or the single waiter is awake harvesting), further posts skip the
  // NotifyOne. The waiter clears the flag each time it scans the heap, and
  // the flag is only read/written under mu, so a post that lands while the
  // waiter is between scan and sleep still finds the lock held and its
  // entry is seen before the sleep. One waiter per core by design (each
  // reactor worker owns its wait set).
  bool notify_pending COOL_GUARDED_BY(mu) = false;

  // Queues a readiness entry for `token`, due at `when`. No-op for tokens
  // that are not (or no longer) registered, and after Close(). Returns
  // false once the set is closed.
  bool Post(std::uint64_t token, TimePoint when);
};

}  // namespace internal

// Blocks one thread on "any registered token ready".
class WaitSet {
 public:
  using Token = std::uint64_t;

  struct ReadyEvent {
    Token token = 0;
  };

  WaitSet() : core_(std::make_shared<internal::WaitSetCore>()) {}
  ~WaitSet() { Close(); }

  WaitSet(const WaitSet&) = delete;
  WaitSet& operator=(const WaitSet&) = delete;

  // Registers `token`; posts for unregistered tokens are dropped. Returns
  // false if the token is already registered or the set is closed.
  bool Add(Token token);

  // Unregisters `token` and discards its pending entries lazily (they are
  // skipped at harvest).
  void Remove(Token token);

  // Posts an immediately-due readiness entry — the self-wakeup used for
  // cross-thread scheduling onto the waiting thread.
  void Post(Token token);

  // Posts a readiness entry due at `when` — the timer primitive. Deadline
  // bookkeeping (reactor timeouts, idle-connection deadlines) rides the
  // same lazily-cancelled min-heap as delayed deliveries: scheduling and
  // firing are O(log n), cancellation is Remove()'s lazy token discard,
  // and nothing ever scans — 100k pending deadlines cost one heap entry
  // each.
  void PostAt(Token token, TimePoint when);

  // Blocks until at least one registered token has a due entry, the timeout
  // elapses, or Close(). Harvests up to out.size() distinct ready tokens
  // (duplicates among due entries collapse); returns the number written.
  // 0 means timeout or closed — poll closed() to tell them apart.
  std::size_t Wait(std::span<ReadyEvent> out, Duration timeout);

  // Wakes all waiters; subsequent Wait() calls return 0 immediately.
  void Close();

  bool closed() const;

 private:
  friend class Watchable;

  std::shared_ptr<internal::WaitSetCore> core_;
};

// The source half: owned by a readiness source (stream pipe, accept queue,
// datagram queue), attached to at most one WaitSet at a time.
class Watchable {
 public:
  Watchable() = default;

  Watchable(const Watchable&) = delete;
  Watchable& operator=(const Watchable&) = delete;

  // Attaches to `set` under `token` and posts an immediately-due probe so
  // state that became ready before attachment is harvested at once.
  // Sources whose pending items become due in the future must additionally
  // re-arm from their TryX path (post the head item's due time when asked
  // for data that is not deliverable yet).
  void Watch(const WaitSet& set, WaitSet::Token token);

  // Posts a readiness entry due at `when`. Safe to call with the source's
  // own mutex held: the core is signalled via a copied reference, never
  // through a lock chained to the caller's. Unwatched sources pay one
  // relaxed atomic load, not a lock — every simulated delivery signals, so
  // this sits on the data-path hot loop. A signal racing Watch() may be
  // dropped; the post-attach probe plus TryX re-arm (above) cover it.
  void SignalReady(TimePoint when) {
    if (!armed_.load(std::memory_order_acquire)) return;
    SignalReadySlow(when);
  }
  void SignalReady() { SignalReady(TimePoint::min()); }

  // True while attached to a WaitSet that is still open.
  bool watched() const;

 private:
  // Posts to the attached set; detaches when that set has closed.
  void SignalReadySlow(TimePoint when);

  mutable Mutex mu_{LockRank::kWaitSet, "sim::Watchable::mu_"};
  std::atomic<bool> armed_{false};  // mirrors core_ != nullptr
  std::shared_ptr<internal::WaitSetCore> core_ COOL_GUARDED_BY(mu_);
  WaitSet::Token token_ COOL_GUARDED_BY(mu_) = 0;
};

// The blocking twin of a non-blocking call. `try_step` returns a
// std::optional: the call's result (data, or an error such as "closed"),
// empty while the source is not ready. AwaitReady returns the first
// result. Only if the first try is empty does it build a WaitSet on this
// stack, attach the source with `attach(set, token)` (its WatchX, or a
// channel's RegisterRx; false = not watchable) and retry at each signal
// until `deadline` (TimePoint::max() = forever). Empty on the deadline or
// a refused attach. Waits go through WaitSet::Wait, so the detector's
// blocking guard applies, and nest; the set closes on return, detaching
// the source. One blocking caller per source at a time: a second attach
// displaces the first, so callers that share a source serialize.
template <typename Attach, typename TryStep>
auto AwaitReady(Attach&& attach, TryStep&& try_step, TimePoint deadline)
    -> decltype(try_step()) {
  if (auto ready = try_step()) return ready;
  constexpr WaitSet::Token kToken = 1;
  WaitSet set;
  set.Add(kToken);
  if (!attach(set, kToken)) return {};
  std::array<WaitSet::ReadyEvent, 1> events;
  for (;;) {
    // The attach probe makes the first wait return at once, so a source
    // that turned ready before it was watched is retried immediately.
    set.Wait(events, deadline - Now());
    if (auto ready = try_step()) return ready;
    if (Now() >= deadline) return {};
  }
}

}  // namespace cool::sim
