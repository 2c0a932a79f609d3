// Per-module mailbox: the pair of message queues from the paper's Fig. 6
// (one for data, one for control), refined so that a module can exert
// backpressure on the *down* direction (toward the network) while still
// draining control messages and up-travelling packets (e.g. ACKs) — an ARQ
// module that stopped reading entirely would deadlock waiting for its own
// acknowledgements.
//
// Priority on pop: control > up-data > down-data. The down queue is bounded;
// pushing into a full down queue blocks, which propagates backpressure
// chain-upward to the sending application. Up and control are unbounded
// (their volume is bounded by the receive window of the transport).
//
// The mailbox is single-consumer and multi-producer. The consumer is a
// reactor registration, not a thread: it never waits on the mailbox, it
// pops non-blockingly whenever the mailbox wakes it. A push into an idle
// mailbox calls the wake hook once (further pushes skip it until the
// consumer pops again); down-data pushed while the consumer declined it
// (its chain is stalled) wakes nobody — the consumer returns for it once
// the stall clears. The batch operations (PushDownBatch, PushUpBatch,
// PopBatch) move whole trains of packets under a single lock acquisition,
// so the per-packet mutex + wakeup cost of the Fig. 6 pointer-passing
// design is amortized across the batch.
//
// Since PR 8 one mailbox serves the whole chain (run-to-completion burst
// engine, DESIGN.md §12): every item carries the chain position (`origin`)
// of the module that handles it first, and the engine walks the train from
// there through the rest of the chain without re-queueing.
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "dacapo/packet.h"

namespace cool::dacapo {

enum class Direction { kDown, kUp };

inline Direction Opposite(Direction d) noexcept {
  return d == Direction::kDown ? Direction::kUp : Direction::kDown;
}

// In-band control messages travelling along the chain (distinct from
// protocol headers, which ride on packets).
struct ControlMsg {
  enum class Kind {
    kError,        // unrecoverable module failure; text explains
    kPeerClosed,   // transport saw the peer go away
    kPause,        // reconfiguration: stop emitting data
    kResume,       // reconfiguration finished
    kStatsRequest, // modules append stats via ControlUp
  };
  Kind kind = Kind::kError;
  std::string text;
  std::uint64_t arg = 0;
};

struct DataItem {
  Direction dir = Direction::kDown;
  PacketPtr pkt;
  // Chain position of the module that handles this item first (the burst
  // engine starts its walk there).
  std::size_t origin = 0;
};

class Mailbox {
 public:
  struct PopResult {
    enum class Kind { kControl, kData } kind;
    // Valid for the corresponding Kind only.
    ControlMsg control;
    Direction control_dir = Direction::kDown;
    std::size_t control_origin = 0;
    DataItem data;
  };

  explicit Mailbox(std::size_t down_capacity = 64)
      : down_capacity_(down_capacity) {}

  // Installs the consumer wakeup (e.g. a reactor Schedule). Called under
  // the mailbox lock, so it must not block or re-enter the mailbox; set it
  // before any producer runs.
  void SetWake(std::function<void()> wake) { wake_ = std::move(wake); }

  // Control: never blocks, never dropped. (All wakeups below happen under
  // the mutex so a consumer may destroy the mailbox right after observing
  // the item — see BlockingQueue for the rationale.)
  void PushControl(Direction dir, ControlMsg msg, std::size_t origin = 0) {
    MutexLock lock(mu_);
    if (closed_) return;
    control_.push_back({dir, std::move(msg), origin});
    WakeLocked();
  }

  // Up data: never blocks (see file comment).
  void PushUp(PacketPtr pkt, std::size_t origin = 0) {
    MutexLock lock(mu_);
    if (closed_) return;
    up_.push_back({std::move(pkt), origin});
    WakeLocked();
  }

  // Batched up push: the whole train enters under one lock acquisition and
  // the consumer is woken once. `pkts` is emptied either way.
  void PushUpBatch(std::vector<PacketPtr>& pkts, std::size_t origin = 0) {
    if (pkts.empty()) return;
    MutexLock lock(mu_);
    if (!closed_) {
      for (auto& p : pkts) up_.push_back({std::move(p), origin});
      WakeLocked();
    }
    pkts.clear();  // closed: packets return to the arena here
  }

  // Down data: blocks while the down queue is full — the backpressure an
  // application sender feels. Returns false when the mailbox closed while
  // waiting (packet is dropped).
  bool PushDown(PacketPtr pkt, std::size_t origin = 0) {
    MutexLock lock(mu_);
    while (!closed_ && down_.size() >= down_capacity_) space_.Wait(mu_);
    if (closed_) return false;
    down_.push_back({std::move(pkt), origin});
    if (!down_gated_) WakeLocked();
    return true;
  }

  // Non-blocking PushDown: false, leaving `pkt` with the caller, when the
  // down queue is full or the mailbox is closed.
  bool TryPushDown(PacketPtr& pkt, std::size_t origin = 0) {
    MutexLock lock(mu_);
    if (closed_ || down_.size() >= down_capacity_) return false;
    down_.push_back({std::move(pkt), origin});
    if (!down_gated_) WakeLocked();
    return true;
  }

  // Batched down push: FIFO, blocking for space as needed, one lock
  // acquisition while the queue has room. Returns false once the mailbox
  // closed (remaining packets are dropped). `pkts` is emptied either way.
  bool PushDownBatch(std::vector<PacketPtr>& pkts, std::size_t origin = 0) {
    MutexLock lock(mu_);
    bool pushed_any = false;
    for (auto& p : pkts) {
      while (!closed_ && down_.size() >= down_capacity_) {
        // The consumer may be idle with the items we already queued; it
        // must run for space to ever appear, so wake it before waiting.
        if (pushed_any && !down_gated_) WakeLocked();
        space_.Wait(mu_);
      }
      if (closed_) {
        pkts.clear();
        return false;
      }
      down_.push_back({std::move(p), origin});
      pushed_any = true;
    }
    if (pushed_any && !down_gated_) WakeLocked();
    pkts.clear();
    return true;
  }

  enum class BatchStatus { kItems, kEmpty, kClosed };

  // Non-blocking: drains every eligible item — all control, then all
  // up-data, then (when `accept_down`) all down-data, FIFO within each
  // class — under a single lock acquisition, up to `max_n` items appended
  // to `out` (which is cleared first; pass the same vector each call to
  // reuse its capacity). kEmpty when nothing is eligible, kClosed once
  // closed. Re-arms the wake hook for the next push. One space_ wakeup is
  // issued per drained down-item so every blocked producer resumes.
  BatchStatus PopBatch(bool accept_down, std::size_t max_n,
                       std::vector<PopResult>& out) {
    out.clear();
    MutexLock lock(mu_);
    if (closed_) return BatchStatus::kClosed;
    wake_pending_ = false;
    down_gated_ = !accept_down;
    while (out.size() < max_n && !control_.empty()) {
      PopResult r;
      r.kind = PopResult::Kind::kControl;
      r.control_dir = control_.front().dir;
      r.control = std::move(control_.front().msg);
      r.control_origin = control_.front().origin;
      control_.pop_front();
      out.push_back(std::move(r));
    }
    while (out.size() < max_n && !up_.empty()) {
      PopResult r;
      r.kind = PopResult::Kind::kData;
      r.data = DataItem{Direction::kUp, std::move(up_.front().pkt),
                        up_.front().origin};
      up_.pop_front();
      out.push_back(std::move(r));
    }
    if (accept_down) {
      while (out.size() < max_n && !down_.empty()) {
        PopResult r;
        r.kind = PopResult::Kind::kData;
        r.data = DataItem{Direction::kDown, std::move(down_.front().pkt),
                          down_.front().origin};
        down_.pop_front();
        space_.NotifyOne();
        out.push_back(std::move(r));
      }
    }
    return out.empty() ? BatchStatus::kEmpty : BatchStatus::kItems;
  }

  // True while PopBatch(accept_down, ...) would return items.
  bool HasEligible(bool accept_down) const {
    MutexLock lock(mu_);
    return !closed_ && (!control_.empty() || !up_.empty() ||
                        (accept_down && !down_.empty()));
  }

  void Close() {
    MutexLock lock(mu_);
    closed_ = true;
    // Packets held in the queues return to the arena on destruction.
    control_.clear();
    up_.clear();
    down_.clear();
    space_.NotifyAll();
  }

  bool closed() const {
    MutexLock lock(mu_);
    return closed_;
  }

  std::size_t down_size() const {
    MutexLock lock(mu_);
    return down_.size();
  }

 private:
  struct ControlItem {
    Direction dir;
    ControlMsg msg;
    std::size_t origin;
  };
  struct QueuedPacket {
    PacketPtr pkt;
    std::size_t origin;
  };

  void WakeLocked() COOL_REQUIRES(mu_) {
    if (wake_pending_) return;
    wake_pending_ = true;
    if (wake_) wake_();
  }

  const std::size_t down_capacity_;
  std::function<void()> wake_;  // set before use, then read-only
  mutable Mutex mu_{LockRank::kMailbox, "dacapo::Mailbox::mu_"};
  CondVar space_;
  std::deque<ControlItem> control_ COOL_GUARDED_BY(mu_);
  std::deque<QueuedPacket> up_ COOL_GUARDED_BY(mu_);
  std::deque<QueuedPacket> down_ COOL_GUARDED_BY(mu_);
  bool wake_pending_ COOL_GUARDED_BY(mu_) = false;
  // The last PopBatch declined down-data (see file comment).
  bool down_gated_ COOL_GUARDED_BY(mu_) = false;
  bool closed_ COOL_GUARDED_BY(mu_) = false;
};

}  // namespace cool::dacapo
