#include "transport/com_channel.h"

#include "common/buffer_pool.h"
#include "common/logging.h"
#include "sim/reactor.h"

namespace cool::transport {

ComChannel::~ComChannel() = default;

Status ComChannel::SendMessageV(
    std::span<const std::span<const std::uint8_t>> parts) {
  if (parts.size() == 1) return SendMessage(parts[0]);
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  // Gather fallback for transports without a true scatter write: one pooled
  // buffer, recycled when the send returns.
  ByteBuffer joined = BufferPool::Default().Lease(total);
  for (const auto& part : parts) joined.Append(part);
  return SendMessage(joined.view());
}

Result<ByteBuffer> ComChannel::ReceiveMessage(Duration timeout) {
  MutexLock lock(receive_mu_);
  bool watchable = true;
  std::optional<Result<ByteBuffer>> got = sim::AwaitReady(
      [&](const sim::WaitSet& set, sim::WaitSet::Token token) {
        return watchable = RegisterRx(set, token);
      },
      [this]() -> std::optional<Result<ByteBuffer>> {
        Result<std::optional<ByteBuffer>> next = TryReceiveMessage();
        if (!next.ok()) return Result<ByteBuffer>(next.status());
        if (!next->has_value()) return std::nullopt;
        return Result<ByteBuffer>(std::move(**next));
      },
      DeadlineFor(timeout));
  if (got.has_value()) return *std::move(got);
  if (!watchable) {
    return Status(UnsupportedError(std::string(protocol()) +
                                   " transport has no receive readiness"));
  }
  return Status(DeadlineExceededError("receive timed out"));
}

void ComChannel::DrainAsync() {
  std::uint64_t reg = 0;
  {
    MutexLock lock(async_mu_);
    reg = notify_.reg;
  }
  if (reg == 0) return;  // no Notify outstanding
  sim::Reactor::Default().Remove(reg);  // barrier
  FinishNotify(Status(UnavailableError("channel destroyed")));
}

Result<ByteBuffer> ComChannel::Call(std::span<const std::uint8_t> request,
                                    Duration timeout) {
  MutexLock lock(call_mu_);
  COOL_RETURN_IF_ERROR(SendMessage(request));
  return ReceiveMessage(timeout);
}

Status ComChannel::Send(std::span<const std::uint8_t> request) {
  return SendMessage(request);
}

Status ComChannel::Reply(std::span<const std::uint8_t> reply) {
  return SendMessage(reply);
}

Result<ComChannel::Deferred> ComChannel::Defer(
    std::span<const std::uint8_t> request) {
  MutexLock lock(async_mu_);
  return DeferLocked(request);
}

Result<ComChannel::Deferred> ComChannel::DeferLocked(
    std::span<const std::uint8_t> request) {
  if (deferred_outstanding_) {
    // One in-flight deferred conversation per channel; interleaving is the
    // message layer's job (GIOP request_id).
    return Status(FailedPreconditionError(
        "channel already has a deferred request outstanding"));
  }
  COOL_RETURN_IF_ERROR(SendMessage(request));
  deferred_outstanding_ = true;
  return Deferred{next_deferred_id_++};
}

Result<ByteBuffer> ComChannel::PollDeferred(Deferred handle,
                                            Duration timeout) {
  {
    MutexLock lock(async_mu_);
    if (notify_.callback && handle.id == notify_.id) {
      return Status(FailedPreconditionError(
          "the reply goes to the Notify callback"));
    }
    if (cancelled_.erase(handle.id) != 0) {
      deferred_outstanding_ = false;
      return Status(CancelledError("deferred request was cancelled"));
    }
  }
  auto reply = ReceiveMessage(timeout);
  if (reply.ok() ||
      reply.status().code() != ErrorCode::kDeadlineExceeded) {
    MutexLock lock(async_mu_);
    deferred_outstanding_ = false;
  }
  return reply;
}

Result<ComChannel::Deferred> ComChannel::Notify(
    std::span<const std::uint8_t> request, ReplyCallback callback) {
  MutexLock lock(async_mu_);
  COOL_ASSIGN_OR_RETURN(Deferred handle, DeferLocked(request));
  // The callback cannot run before async_mu_ is released, so notify_ is
  // complete by the time it looks.
  sim::Reactor& reactor = sim::Reactor::Default();
  Result<std::uint64_t> reg = reactor.Add(
      [this](const sim::WaitSet& set, std::uint64_t token) {
        return RegisterRx(set, token);
      },
      [this] { OnNotifyReady(); });
  if (!reg.ok()) {
    deferred_outstanding_ = false;
    return reg.status();
  }
  notify_ = {handle.id, *reg, DeadlineFor(seconds(30)), std::move(callback)};
  reactor.ScheduleAt(*reg, notify_.deadline);
  return handle;
}

void ComChannel::OnNotifyReady() {
  bool cancelled = false;
  TimePoint deadline;
  {
    MutexLock lock(async_mu_);
    if (!notify_.callback) return;  // finished already
    cancelled = cancelled_.erase(notify_.id) != 0;
    deadline = notify_.deadline;
  }
  if (cancelled) {
    FinishNotify(Status(CancelledError("notify request was cancelled")));
    return;
  }
  // This registration is the channel's only receiver meanwhile.
  Result<std::optional<ByteBuffer>> next = TryReceiveMessage();
  if (!next.ok()) {
    FinishNotify(next.status());
  } else if (next->has_value()) {
    FinishNotify(std::move(**next));
  } else if (Now() >= deadline) {
    FinishNotify(Status(DeadlineExceededError("no reply to notify")));
  }
}

void ComChannel::FinishNotify(Result<ByteBuffer> outcome) {
  PendingNotify done;
  {
    MutexLock lock(async_mu_);
    if (!notify_.callback) return;  // no notify, or it finished already
    done = std::move(notify_);
    notify_ = {};
    deferred_outstanding_ = false;
  }
  // Off the watch before the callback may start the next conversation.
  sim::Reactor::Default().Remove(done.reg);
  done.callback(std::move(outcome));
}

Status ComChannel::Cancel(Deferred handle) {
  MutexLock lock(async_mu_);
  if (!deferred_outstanding_) {
    return FailedPreconditionError("no deferred request outstanding");
  }
  cancelled_.insert(handle.id);
  // A pending Notify reports the cancel from its registration.
  if (notify_.callback && handle.id == notify_.id) {
    sim::Reactor::Default().Schedule(notify_.reg);
  }
  return Status::Ok();
}

Status ComChannel::SetQoSParameter(const qos::QoSSpec& spec) {
  if (spec.empty()) return Status::Ok();
  return UnsupportedError(std::string(protocol()) +
                          " transport does not implement setQoSParameter");
}

qos::Capability ComChannel::TransportCapability() const {
  return qos::Capability::BestEffortOnly();
}

Result<std::unique_ptr<ComChannel>> ComManager::AcceptChannel() {
  std::optional<Result<std::unique_ptr<ComChannel>>> got = sim::AwaitReady(
      [this](const sim::WaitSet& set, sim::WaitSet::Token token) {
        return RegisterAccept(set, token);
      },
      [this]() -> std::optional<Result<std::unique_ptr<ComChannel>>> {
        Result<std::unique_ptr<ComChannel>> next = TryAcceptChannel();
        if (next.ok() && *next == nullptr) return std::nullopt;
        return next;
      },
      TimePoint::max());
  if (got.has_value()) return *std::move(got);
  return Status(UnsupportedError(std::string(protocol()) +
                                 " transport has no accept readiness"));
}

}  // namespace cool::transport
