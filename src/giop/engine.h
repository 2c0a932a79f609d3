// GIOP protocol engines: the client and server halves of the message layer,
// running over one generic-transport channel each. The engines own request
// ids, reply matching, version selection (1.0 vs the 9.9 QoS extension) and
// backwards compatibility (a server with the extension disabled answers 9.9
// Requests with MessageError, as an unmodified COOL would).
//
// Both engines multiplex one channel across many in-flight requests:
//
//  * GiopClient demultiplexes replies on a Reactor: a callback drains the
//    channel's non-blocking receive path, so a binding costs a reactor
//    registration, never a thread. Per-request slots keyed by request id
//    let Invoke / InvokeDeferred / InvokeAsync / Locate from any number of
//    caller threads pipeline over the same connection; an InvokeAsync
//    slot carries a continuation the demux worker runs. No lock is ever
//    held across blocking I/O (scripts/check_invariants.py rule 8).
//  * GiopServer runs dispatcher upcalls on a shared DispatchPool (one per
//    ORB, via Options.pool), or inline on the receive path when no pool is
//    given. Replies may return out of order; only the reply *send* is
//    serialized. A CancelRequest kills a queued-but-unstarted dispatch,
//    and per-request QoS parameters (9.9 Requests) map to dispatch
//    priority classes so the paper's QoS semantics survive concurrency.
#pragma once

#include <array>
#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/buffer_pool.h"
#include "common/mutex.h"
#include "giop/dispatch_pool.h"
#include "giop/message.h"
#include "transport/com_channel.h"
#include "sim/reactor.h"

namespace cool::giop {

class GiopClient {
 public:
  struct Options {
    // Speak GIOP 9.9 for requests that carry QoS parameters. Requests
    // without QoS always use standard GIOP 1.0 (paper §4.1: "Never call
    // setQoSParameter: no QoS support is required and standard GIOP can be
    // used").
    bool use_qos_extension = true;
    cdr::ByteOrder order = cdr::NativeOrder();
    corba::OctetSeq principal;
    // Cap on remembered cancelled/timed-out request ids whose late replies
    // must be discarded; oldest entries are FIFO-evicted beyond this.
    std::size_t abandoned_cap = 1024;
    // Reactor carrying the reply demux (nullptr = Reactor::Default()). It
    // must outlive the engine. The channel must implement the non-blocking
    // receive path (RegisterRx); otherwise the first call fails with
    // kUnsupported and the connection is marked broken.
    sim::Reactor* reactor = nullptr;
  };

  // The channel must outlive the engine.
  GiopClient(transport::ComChannel* channel, Options options);
  ~GiopClient();

  GiopClient(const GiopClient&) = delete;
  GiopClient& operator=(const GiopClient&) = delete;

  // A received Reply, with accessors to decode its result body.
  struct Reply {
    ReplyHeader header;
    ParsedMessage message;
    cdr::Decoder MakeResultsDecoder() const;

    // The reply body (results / exception) as raw octets, and its offset
    // within the whole GIOP message (always 8-aligned), for callers that
    // re-home the bytes into their own decoder.
    std::span<const corba::Octet> ResultsBytes() const {
      return message.body().subspan(results_offset_ - kHeaderSize);
    }
    std::size_t ResultsMessageOffset() const { return results_offset_; }

   private:
    friend class GiopClient;
    std::size_t results_offset_ = 0;
  };

  // Synchronous two-way invocation. `args_cdr` must be encoded with an
  // 8-aligned base offset (use MakeArgsEncoder). Carries `qos_params` in an
  // extended 9.9 Request when non-empty. Any number of threads may invoke
  // concurrently; their requests pipeline over the one channel.
  Result<Reply> Invoke(const corba::OctetSeq& object_key,
                       const std::string& operation,
                       std::span<const corba::Octet> args_cdr,
                       const std::vector<qos::QoSParameter>& qos_params,
                       Duration timeout = seconds(10));

  // One-way (response_expected = false); returns after handing the Request
  // to the transport.
  Status InvokeOneway(const corba::OctetSeq& object_key,
                      const std::string& operation,
                      std::span<const corba::Octet> args_cdr,
                      const std::vector<qos::QoSParameter>& qos_params);

  // Deferred-synchronous: sends the Request and returns its id; collect the
  // Reply later with PollReply (or abandon it with Cancel).
  Result<corba::ULong> InvokeDeferred(
      const corba::OctetSeq& object_key, const std::string& operation,
      std::span<const corba::Octet> args_cdr,
      const std::vector<qos::QoSParameter>& qos_params);
  Result<Reply> PollReply(corba::ULong request_id,
                          Duration timeout = seconds(10));

  // Asynchronous reply (paper Fig. 8 "notify"): sends the Request and
  // returns its id; `then` receives the outcome. Contract: when this
  // returns OK, `then` runs exactly once — with the Reply, or with the
  // failure that ended the wait (transport error or CloseConnection,
  // Cancel -> kCancelled, `timeout` -> kDeadlineExceeded, the engine's
  // destruction -> kUnavailable). It runs outside the engine's lock on the
  // reactor worker that carries the demux, never on the caller's stack,
  // and has run before the destructor returns. It must not block (the
  // detector's blocking guard covers reactor callbacks) and must not
  // destroy the engine. On an error return `then` never runs.
  using Continuation = std::function<void(Result<Reply>)>;
  Result<corba::ULong> InvokeAsync(
      const corba::OctetSeq& object_key, const std::string& operation,
      std::span<const corba::Octet> args_cdr,
      const std::vector<qos::QoSParameter>& qos_params, Continuation then,
      Duration timeout = seconds(10));

  // Sends CancelRequest and locally abandons the id: a waiting caller is
  // released with kCancelled (an InvokeAsync continuation runs with it),
  // and a late Reply for it is discarded by the demux.
  Status Cancel(corba::ULong request_id);

  // GIOP object location probe.
  Result<LocateStatus> Locate(const corba::OctetSeq& object_key,
                              Duration timeout = seconds(10));

  // Sends CloseConnection (client-initiated shutdown is non-standard in
  // GIOP 1.0 but COOL uses it to tear down idle bindings).
  Status SendClose();

  // Argument encoder whose alignment matches the spliced position inside
  // the Request message (8-aligned). Encodes into a pooled buffer; the
  // storage returns to the pool when the caller's ByteBuffer dies.
  cdr::Encoder MakeArgsEncoder() const {
    return cdr::Encoder(options_.order, 0, BufferPool::Default().Lease());
  }

  corba::ULong last_request_id() const {
    MutexLock lock(mu_);
    return next_request_id_ - 1;
  }

  // Number of requests currently awaiting a reply (tests/metrics).
  std::size_t in_flight() const {
    MutexLock lock(mu_);
    return pending_.size();
  }

 private:
  // One in-flight request awaiting its reply. Fields are guarded by the
  // client's mu_ (not annotatable from a nested type); `cv` has a single
  // waiter, so completion notifies with NotifyOne. A continuation slot
  // (InvokeAsync) has no waiter: completion moves it from pending_ to
  // ready_, and the demux worker runs `then` with the outcome.
  struct Slot {
    CondVar cv;
    bool done = false;
    Result<ParsedMessage> outcome{Status(InternalError("reply pending"))};
    Continuation then;
    TimePoint deadline{};  // continuation slots only
  };

  struct PendingCall {
    corba::ULong id = 0;
    std::shared_ptr<Slot> slot;
  };

  // Allocates an id, publishes `slot` under it, registers the demux if
  // needed, and sends the message whose preamble `build_head(id)` returns
  // followed by `tail` (empty for messages built whole, e.g.
  // LocateRequest) as one gathered write. Fails fast once the connection
  // is known to be broken. Templated on the builder so the hot path never
  // type-erases it into a heap-backed std::function.
  template <typename BuildHead>
  Result<PendingCall> StartCall(std::shared_ptr<Slot> slot,
                                std::span<const corba::Octet> tail,
                                const BuildHead& build_head);

  // Blocks until the slot completes or `deadline` passes. On completion
  // the slot is consumed (erased from pending_). On timeout the id is
  // abandoned (Invoke/Locate) or left outstanding for a later poll
  // (PollReply), per `abandon_on_timeout`.
  Result<ParsedMessage> AwaitSlot(corba::ULong id,
                                  const std::shared_ptr<Slot>& slot,
                                  Duration timeout, bool abandon_on_timeout);
  // A collected outcome as the Reply of request `id`.
  static Result<Reply> ReplyFrom(corba::ULong id,
                                 Result<ParsedMessage> outcome);

  // Registers the reply demux on the reactor once; a channel that cannot
  // be watched fails here and marks the connection broken.
  Status EnsureDemuxLocked() COOL_REQUIRES(mu_);
  // Reactor callback: drains TryReceiveMessage until nothing is pending,
  // then runs the continuations that became ready.
  void DrainReactor();
  // Records `outcome` on the slot `it` points at; a continuation slot
  // moves from pending_ to ready_. Returns the iterator past `it`. The
  // caller then wakes the slot's waiter, if any (cv.NotifyOne).
  using PendingMap =
      std::unordered_map<corba::ULong, std::shared_ptr<Slot>>;
  PendingMap::iterator FinishLocked(PendingMap::iterator it,
                                    Result<ParsedMessage> outcome)
      COOL_REQUIRES(mu_);
  // Expires overdue continuations, then runs every ready one outside mu_
  // (on the demux worker).
  void RunContinuations();
  // Parses and routes one received frame. Returns true when the
  // connection is terminal (demux should stop).
  bool HandleFrame(ByteBuffer raw);
  // Routes a Reply/LocateReply to its slot; unknown ids are discarded if
  // abandoned, logged otherwise.
  void CompleteRequest(corba::ULong request_id, ParsedMessage msg);
  // Fails every pending slot with `status`. `terminal` marks the
  // connection broken: subsequent calls fail fast and the abandoned-id
  // memory is released (nothing more can arrive).
  void FailPending(const Status& status, bool terminal);
  void AbandonLocked(corba::ULong id) COOL_REQUIRES(mu_);

  // Serializes writes to the channel; never held together with mu_.
  Status SendSerialized(const ByteBuffer& msg);
  // Gathered variant: {head, tail} leave as one message via SendMessageV.
  Status SendSerializedV(const ByteBuffer& head,
                         std::span<const corba::Octet> tail);

  // Builds the Request preamble (GIOP header + request header, 8-aligned,
  // message_size patched for `args_size` octets of body to follow) into a
  // pooled buffer. The args themselves never pass through here.
  ByteBuffer BuildRequestHead(const corba::OctetSeq& object_key,
                              const std::string& operation,
                              const std::vector<qos::QoSParameter>& qos_params,
                              std::size_t args_size, bool response_expected,
                              corba::ULong request_id) const;
  static Result<Reply> MakeReply(ParsedMessage parsed);

  transport::ComChannel* channel_;
  Options options_;

  Mutex send_mu_{LockRank::kEngine, "giop::GiopClient::send_mu_"};
  mutable Mutex mu_{LockRank::kEngine, "giop::GiopClient::mu_"};
  corba::ULong next_request_id_ COOL_GUARDED_BY(mu_) = 1;
  PendingMap pending_ COOL_GUARDED_BY(mu_);
  // Continuation slots: completed ones awaiting their run on the demux
  // worker, and the deadlines of those still pending. `async_live_`
  // counts continuations not yet run (its load is the sync path's only
  // cost); `async_idle_` wakes the destructor when it reaches zero.
  std::vector<PendingCall> ready_ COOL_GUARDED_BY(mu_);
  std::set<std::pair<TimePoint, corba::ULong>> async_deadlines_
      COOL_GUARDED_BY(mu_);
  std::atomic<std::size_t> async_live_{0};
  CondVar async_idle_;
  // Abandoned-id memory, allocated on the first cancel/timeout (same
  // rationale as GiopServer::CancelMemory: the empty deque is not free).
  struct AbandonMemory {
    std::unordered_set<corba::ULong> ids;
    std::deque<corba::ULong> fifo;  // FIFO eviction order beyond the cap
  };
  std::unique_ptr<AbandonMemory> abandoned_ COOL_GUARDED_BY(mu_);
  // Terminal connection status; non-OK once the demux has seen the end.
  Status broken_ COOL_GUARDED_BY(mu_) = Status::Ok();
  // Reactor registration, 0 until the first call (written once under mu_
  // in EnsureDemuxLocked, read by the destructor when no other thread can
  // touch the engine).
  std::uint64_t rx_reg_ = 0;
};

template <typename BuildHead>
Result<GiopClient::PendingCall> GiopClient::StartCall(
    std::shared_ptr<Slot> slot, std::span<const corba::Octet> tail,
    const BuildHead& build_head) {
  PendingCall call;
  {
    MutexLock lock(mu_);
    if (!broken_.ok()) return broken_;
    COOL_RETURN_IF_ERROR(EnsureDemuxLocked());
    call.id = next_request_id_++;
    if (slot->then) {
      async_deadlines_.emplace(slot->deadline, call.id);
      ++async_live_;
    }
    call.slot = std::move(slot);
    pending_.emplace(call.id, call.slot);
  }
  const ByteBuffer head = build_head(call.id);
  const Status sent = SendSerializedV(head, tail);
  if (!sent.ok()) {
    MutexLock lock(mu_);
    // A continuation the demux already completed (the connection broke
    // meanwhile) will run, so the call counts as started.
    if (pending_.erase(call.id) == 0 && call.slot->then) return call;
    if (call.slot->then) {
      async_deadlines_.erase({call.slot->deadline, call.id});
      --async_live_;
    }
    return sent;
  }
  return call;
}

class GiopServer : public DispatchRunner {
 public:
  struct Options {
    // When false the server is an unmodified GIOP 1.0 implementation: a
    // 9.9 Request is answered with MessageError.
    bool accept_qos_extension = true;
    cdr::ByteOrder order = cdr::NativeOrder();
    // Shared dispatch pool (one per ORB): upcalls run on the pool's
    // workers, concurrently, and may answer out of order. nullptr runs
    // every upcall inline on the receive path (strictly serial). The pool
    // must outlive the server; Close() detaches from it.
    DispatchPool* pool = nullptr;
    // Cap on remembered CancelRequest ids (FIFO-evicted beyond this).
    std::size_t cancelled_cap = 1024;
  };

  // What the upcall produced; body must be encoded with MakeBodyEncoder.
  struct DispatchResult {
    ReplyStatus status = ReplyStatus::kNoException;
    ByteBuffer body;
  };

  // Upcall into the object adapter. The decoder is positioned at the
  // operation arguments. With a pool the dispatcher is called from pool
  // threads concurrently and must be thread-safe.
  using Dispatcher =
      std::function<DispatchResult(const RequestHeader&, cdr::Decoder&)>;
  // Object-existence probe for LocateRequest.
  using Locator = std::function<bool(const corba::OctetSeq&)>;

  GiopServer(transport::ComChannel* channel, Dispatcher dispatcher,
             Options options)
      : GiopServer(channel, std::move(dispatcher),
                   std::make_shared<const Options>(std::move(options))) {}

  // Shared-config constructor: an ORB builds ONE immutable Options block
  // and every accepted connection's server references it, instead of each
  // carrying a private copy — part of the per-connection memory diet.
  GiopServer(transport::ComChannel* channel, Dispatcher dispatcher,
             std::shared_ptr<const Options> options)
      : channel_(channel),
        dispatcher_(std::move(dispatcher)),
        options_(std::move(options)) {}
  ~GiopServer();

  GiopServer(const GiopServer&) = delete;
  GiopServer& operator=(const GiopServer&) = delete;

  void SetLocator(Locator locator) { locator_ = std::move(locator); }

  // Handles exactly one incoming message: a Request is parsed, admitted
  // and (pool mode) enqueued for a worker — the upcall itself may still be
  // running when ServeOne returns. Returns:
  //  * OK            — message handled, connection still open
  //  * kCancelled    — peer sent CloseConnection (clean end)
  //  * kUnavailable  — transport gone
  //  * other         — protocol violation (a MessageError was sent back
  //                    when possible)
  Status ServeOne(Duration timeout = seconds(30));

  // Reactor entry: handles one already-received frame — everything
  // ServeOne does after its blocking receive, with the same return
  // contract.
  Status HandleFrame(ByteBuffer raw);

  // Loop until the connection ends; returns the terminating status
  // (kCancelled for a clean CloseConnection). Detaches from the pool and
  // releases the cancel memory before returning.
  Status Serve();

  // DispatchRunner: runs one upcall (last-chance cancel check included).
  // Called by the pool's workers; public only for that reason.
  void RunDispatchJob(const DispatchJob& job) override;
  // DispatchRunner: a queued dispatch the pool's AQM shed — answers a
  // response-expecting Request with a TRANSIENT system exception so the
  // client sees the overload instead of a stall.
  void DropDispatchJob(const DispatchJob& job) override;

  // Detaches from the pool: drops queued dispatches and waits out running
  // upcalls. Idempotent; called by the destructor. Not safe to call
  // concurrently with itself.
  void Close();

  // Orderly shutdown (GIOP CloseConnection): the client fails its
  // outstanding requests at once instead of waiting out their timeouts.
  Status SendClose();

  // Reply-body encoder over a pooled buffer (see MakeArgsEncoder).
  cdr::Encoder MakeBodyEncoder() const {
    return cdr::Encoder(options_->order, 0, BufferPool::Default().Lease());
  }

  std::uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }
  // Dispatches killed before they started (cancelled while queued, or
  // cancel recorded before the Request arrived).
  std::uint64_t requests_cancelled() const {
    return requests_cancelled_.load(std::memory_order_relaxed);
  }
  // Queued dispatches the scheduler's AQM shed before they ran.
  std::uint64_t requests_shed() const {
    return requests_shed_.load(std::memory_order_relaxed);
  }

 private:
  Status HandleRequest(ParsedMessage msg);
  Status HandleCancel(corba::ULong request_id);
  // Runs the upcall and sends the Reply (when one is expected).
  Status DispatchAndReply(const DispatchJob& job);

  bool TakeCancelledLocked(corba::ULong id) COOL_REQUIRES(pool_mu_);
  void RememberCancelLocked(corba::ULong id) COOL_REQUIRES(pool_mu_);

  // Serializes reply/error sends from workers and the receive loop.
  Status SendSerialized(const ByteBuffer& msg);
  // Gathered variant: {head, tail} leave as one message via SendMessageV.
  Status SendSerializedV(const ByteBuffer& head,
                         std::span<const corba::Octet> tail);

  transport::ComChannel* channel_;
  Dispatcher dispatcher_;
  // Immutable, typically shared across every connection of one ORB.
  std::shared_ptr<const Options> options_;
  Locator locator_;

  Mutex send_mu_{LockRank::kEngine, "giop::GiopServer::send_mu_"};
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::uint64_t> requests_cancelled_{0};
  std::atomic<std::uint64_t> requests_shed_{0};

  // Identity under the shared dispatch pool.
  const std::uint64_t runner_id_ = DispatchPool::AllocRunnerId();

  mutable Mutex pool_mu_{LockRank::kDispatchPool, "giop::GiopServer::pool_mu_"};
  bool pool_closed_ COOL_GUARDED_BY(pool_mu_) = false;
  // CancelRequest bookkeeping, allocated on the first cancel: cancels are
  // rare, and a default-constructed std::deque eagerly allocates ~576
  // bytes in libstdc++ — real money with one GiopServer per connection at
  // 100k connections.
  struct CancelMemory {
    std::unordered_set<corba::ULong> ids;
    std::deque<corba::ULong> fifo;  // FIFO eviction order beyond the cap
  };
  std::unique_ptr<CancelMemory> cancel_memory_ COOL_GUARDED_BY(pool_mu_);
};

}  // namespace cool::giop
